//! The unified `bench` command line: one binary, one subcommand per
//! experiment, shared flags, and a deterministic parallel runner.
//!
//! ```text
//! bench <experiment> [--scale F] [--seed N] [--out-dir DIR] [--json PATH]
//! bench all   [--jobs N] [shared flags]     the full experiment matrix
//! bench chaos [--seeds A,B,C] [--jobs N] [--spec FILE] [--target T] [shared flags]
//! bench crash [--seeds A,B,C] [--jobs N] [shared flags]
//! bench benchdiff ...                       the perf-regression gate
//! bench explain <table> [--check FILE]      bottleneck attribution + claims gate
//! ```
//!
//! Experiments: `tables` (tables 2–5 + scaling off one volume build),
//! `table1`, `net` (tape-vs-network crossover), `chaos`, `crash`,
//! `degraded`, `concurrent_volumes`, `single_file_cost`,
//! `incremental_economics`, `ablation_fragmentation`,
//! `ablation_readahead`.
//!
//! `--target <tape|100mbit|1gbit|10gbit>` selects the medium for the
//! experiments that open one (currently `chaos`), replacing the
//! per-subcommand drive construction.
//!
//! Every job — even a single subcommand — runs on a fresh thread through
//! [`crate::pool`], so thread-local obs state is always virgin and a
//! parallel `bench all --jobs 8` writes byte-identical artifacts and
//! stdout to a serial run. `--json PATH` records the per-job wall-clock
//! manifest (the only place wall time appears; stdout stays deterministic).

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use crate::pool;
use crate::pool::Job;
use crate::pool::JobResult;
use crate::runners;
use crate::runners::ChaosCfg;
use crate::runners::CrashCfg;
use crate::runners::RunCfg;

/// Parsed shared flags.
#[derive(Debug, Clone)]
struct Flags {
    scale: Option<f64>,
    seed: Option<u64>,
    out_dir: PathBuf,
    jobs: usize,
    json: Option<PathBuf>,
    spec: Option<String>,
    seeds: Option<Vec<u64>>,
    target: Option<backup_core::Target>,
}

impl Default for Flags {
    fn default() -> Self {
        Flags {
            scale: None,
            seed: None,
            out_dir: runners::default_out_dir(),
            jobs: 1,
            json: None,
            spec: None,
            seeds: None,
            target: None,
        }
    }
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut f = Flags::default();
    let mut i = 0;
    while i < args.len() {
        let need = |i: usize| -> Result<&String, String> {
            args.get(i + 1)
                .ok_or_else(|| format!("{} needs a value", args[i]))
        };
        match args[i].as_str() {
            "--scale" => {
                f.scale = Some(
                    need(i)?
                        .parse()
                        .map_err(|_| "--scale takes a number".to_string())?,
                );
                i += 2;
            }
            "--seed" => {
                f.seed = Some(
                    need(i)?
                        .parse()
                        .map_err(|_| "--seed takes an integer".to_string())?,
                );
                i += 2;
            }
            "--seeds" => {
                let list = need(i)?
                    .split(',')
                    .map(|s| s.trim().parse::<u64>())
                    .collect::<Result<Vec<_>, _>>()
                    .map_err(|_| "--seeds takes a comma-separated integer list".to_string())?;
                f.seeds = Some(list);
                i += 2;
            }
            "--out-dir" => {
                f.out_dir = PathBuf::from(need(i)?);
                i += 2;
            }
            "--jobs" => {
                f.jobs = need(i)?
                    .parse()
                    .map_err(|_| "--jobs takes an integer".to_string())?;
                if f.jobs == 0 {
                    return Err("--jobs must be at least 1".into());
                }
                i += 2;
            }
            "--json" => {
                f.json = Some(PathBuf::from(need(i)?));
                i += 2;
            }
            "--spec" => {
                f.spec = Some(need(i)?.clone());
                i += 2;
            }
            "--target" => {
                let name = need(i)?;
                f.target = Some(backup_core::Target::parse(name).ok_or_else(|| {
                    format!("--target takes tape, 100mbit, 1gbit, or 10gbit (got {name:?})")
                })?);
                i += 2;
            }
            other => {
                eprintln!("ignoring unknown argument {other:?}");
                i += 1;
            }
        }
    }
    Ok(f)
}

/// The subcommands `bench all` runs after its `tables+net` job, each at
/// its standalone default scale unless `--scale` overrides it.
const ALL_MATRIX: &[&str] = &[
    "table1",
    "chaos",
    "crash",
    "degraded",
    "concurrent_volumes",
    "single_file_cost",
    "incremental_economics",
    "ablation_fragmentation",
    "ablation_readahead",
];

fn run_cfg(flags: &Flags, default_scale: f64) -> RunCfg {
    RunCfg {
        scale: flags.scale.unwrap_or(default_scale),
        seed: flags.seed.unwrap_or(1999),
        out_dir: flags.out_dir.clone(),
    }
}

/// Builds the single job for one experiment subcommand. Returns `None`
/// for unknown names.
fn experiment_job(name: &str, flags: &Flags) -> Option<Job> {
    let job = |label: &str, run: Box<dyn FnOnce() -> String + Send + 'static>| Job {
        label: label.to_string(),
        run,
    };
    Some(match name {
        "tables" => {
            let cfg = run_cfg(flags, 1.0 / 32.0);
            job("tables", Box::new(move || runners::tables(&cfg)))
        }
        "table1" => job("table1", Box::new(runners::table1)),
        "net" => {
            let cfg = run_cfg(flags, 1.0 / 32.0);
            job("net", Box::new(move || runners::net(&cfg)))
        }
        "degraded" => {
            let cfg = run_cfg(flags, 1.0 / 1024.0);
            job("degraded", Box::new(move || runners::degraded(&cfg)))
        }
        "concurrent_volumes" => {
            let cfg = run_cfg(flags, 1.0 / 64.0);
            job(
                "concurrent_volumes",
                Box::new(move || runners::concurrent_volumes(&cfg)),
            )
        }
        "single_file_cost" => {
            let cfg = run_cfg(flags, 1.0 / 128.0);
            job(
                "single_file_cost",
                Box::new(move || runners::single_file_cost(&cfg)),
            )
        }
        "incremental_economics" => {
            let cfg = run_cfg(flags, 1.0 / 128.0);
            job(
                "incremental_economics",
                Box::new(move || runners::incremental_economics(&cfg)),
            )
        }
        "ablation_fragmentation" => {
            let cfg = run_cfg(flags, 1.0 / 128.0);
            job(
                "ablation_fragmentation",
                Box::new(move || runners::ablation_fragmentation(&cfg)),
            )
        }
        "ablation_readahead" => {
            let cfg = run_cfg(flags, 1.0 / 128.0);
            job(
                "ablation_readahead",
                Box::new(move || runners::ablation_readahead(&cfg)),
            )
        }
        "chaos" => {
            let cfg = ChaosCfg {
                seed: flags.seed.unwrap_or(1999),
                scale: flags.scale.unwrap_or(1.0 / 1024.0),
                spec_path: flags.spec.clone(),
                target: flags.target.unwrap_or_default(),
                out_dir: flags.out_dir.clone(),
            };
            let label = format!("chaos seed={}", cfg.seed);
            job(&label, Box::new(move || runners::chaos(&cfg)))
        }
        "crash" => {
            let cfg = CrashCfg {
                seed: flags.seed.unwrap_or(1999),
                out_dir: flags.out_dir.clone(),
            };
            let label = format!("crash seed={}", cfg.seed);
            job(&label, Box::new(move || runners::crash_consistency(&cfg)))
        }
        _ => return None,
    })
}

/// One chaos job per seed (the `bench chaos --seeds` matrix).
fn chaos_jobs(flags: &Flags) -> Vec<Job> {
    let seeds = match &flags.seeds {
        Some(s) => s.clone(),
        None => vec![flags.seed.unwrap_or(1999)],
    };
    seeds
        .into_iter()
        .map(|seed| {
            let cfg = ChaosCfg {
                seed,
                scale: flags.scale.unwrap_or(1.0 / 1024.0),
                spec_path: flags.spec.clone(),
                target: flags.target.unwrap_or_default(),
                out_dir: flags.out_dir.clone(),
            };
            Job {
                label: format!("chaos seed={seed}"),
                run: Box::new(move || runners::chaos(&cfg)),
            }
        })
        .collect()
}

/// One crash-consistency job per seed (the `bench crash --seeds` matrix).
fn crash_jobs(flags: &Flags) -> Vec<Job> {
    let seeds = match &flags.seeds {
        Some(s) => s.clone(),
        None => vec![flags.seed.unwrap_or(1999)],
    };
    seeds
        .into_iter()
        .map(|seed| {
            let cfg = CrashCfg {
                seed,
                out_dir: flags.out_dir.clone(),
            };
            Job {
                label: format!("crash seed={seed}"),
                run: Box::new(move || runners::crash_consistency(&cfg)),
            }
        })
        .collect()
}

/// The full experiment matrix for `bench all`. `--scale`/`--seed`
/// override every job; otherwise each keeps its standalone default.
/// Public so the parallel-determinism test can run the exact job set
/// in-process with different `--jobs` values.
pub fn all_jobs(scale: Option<f64>, seed: Option<u64>, out_dir: &std::path::Path) -> Vec<Job> {
    let flags = Flags {
        scale,
        seed,
        out_dir: out_dir.to_path_buf(),
        ..Flags::default()
    };
    // `tables` and `net` render one suite: one job builds the volume
    // once and writes both subcommands' files and stdout.
    let cfg = run_cfg(&flags, 1.0 / 32.0);
    let suite = Job {
        label: "tables+net".to_string(),
        run: Box::new(move || runners::tables_and_net(&cfg)),
    };
    std::iter::once(suite)
        .chain(
            ALL_MATRIX
                .iter()
                .map(|name| experiment_job(name, &flags).expect("matrix entry")),
        )
        .collect()
}

/// Concatenates job outputs in submission order, each under a banner —
/// what `bench all` prints and what the determinism test compares.
pub fn render_results(results: &[JobResult]) -> String {
    let mut out = String::new();
    for r in results {
        if results.len() > 1 {
            out.push_str(&format!("\n===== bench {} =====\n", r.label));
        }
        out.push_str(&r.output);
    }
    out
}

/// Writes the wall-clock manifest (`--json`): per-job and total seconds.
/// Named `BENCH_wallclock.json` in CI; `benchdiff --dir` knows to skip it.
fn write_wallclock(path: &std::path::Path, jobs: usize, results: &[JobResult], total: f64) {
    let runs = results
        .iter()
        .map(|r| {
            obs::Json::Obj(vec![
                ("name".into(), obs::Json::Str(r.label.clone())),
                (
                    "secs".into(),
                    obs::Json::Num((r.wall_secs * 1e3).round() / 1e3),
                ),
            ])
        })
        .collect();
    let doc = obs::Json::Obj(vec![
        ("experiment".into(), obs::Json::Str("wallclock".into())),
        ("jobs".into(), obs::Json::Num(jobs as f64)),
        (
            "total_secs".into(),
            obs::Json::Num((total * 1e3).round() / 1e3),
        ),
        ("runs".into(), obs::Json::Arr(runs)),
    ]);
    let mut text = doc.render();
    text.push('\n');
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    match std::fs::write(path, text) {
        Ok(()) => eprintln!("[bench] wrote {}", path.display()),
        Err(e) => eprintln!("[bench] could not write {}: {e}", path.display()),
    }
}

const USAGE: &str = "usage: bench <experiment|all|chaos|crash|benchdiff|explain> \
[--scale F] [--seed N] [--seeds A,B,C] [--jobs N] [--out-dir DIR] [--json PATH] [--spec FILE] \
[--target tape|100mbit|1gbit|10gbit]";

/// Entry point for the `bench` binary.
pub fn main_with_args(args: Vec<String>) -> ExitCode {
    let Some(cmd) = args.first().cloned() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let cmd = cmd.replace('-', "_");
    if cmd == "benchdiff" {
        return crate::diffcli::run(&args[1..]);
    }
    if cmd == "explain" {
        return crate::explain::run(&args[1..]);
    }
    let flags = match parse_flags(&args[1..]) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("bench: {e}");
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let jobs = match cmd.as_str() {
        "all" => all_jobs(flags.scale, flags.seed, &flags.out_dir),
        "chaos" => chaos_jobs(&flags),
        "crash" => crash_jobs(&flags),
        name => match experiment_job(name, &flags) {
            Some(job) => vec![job],
            None => {
                eprintln!("bench: unknown experiment {name:?}");
                eprintln!("{USAGE}");
                return ExitCode::from(2);
            }
        },
    };
    let njobs = flags.jobs;
    let t0 = Instant::now();
    let results = pool::run_jobs(jobs, njobs);
    let total = t0.elapsed().as_secs_f64();
    print!("{}", render_results(&results));
    if let Some(path) = &flags.json {
        write_wallclock(path, njobs, &results, total);
    }
    ExitCode::SUCCESS
}
