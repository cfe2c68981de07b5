//! `bench explain`: render bottleneck timelines, detect crossovers, and
//! run the machine-checked claims gate.
//!
//! ```text
//! bench explain <table2|table3|table4|table5|net|sweep|all>
//!               [--check FILE] [--scale F] [--seed N] [--out-dir DIR]
//! ```
//!
//! The subcommand computes one [`Suite`] (one volume build, the same
//! [`prepare`] pipeline `bench tables` and `bench net` render), folds the
//! solver's binding records into [`obs::attrib`] reports, and keeps the
//! ones the target names: it prints their per-stream bottleneck
//! timelines and writes the machine-readable artifacts:
//!
//! - `results/ATTRIB_<table>.json` per requested table (the `net`
//!   target produces "table_net", per-cell `"<op> @ <target>"` labels),
//! - `results/ATTRIB_<name>.json` per computed sweep — the drive-count
//!   sweep ("sweep") and the link-bandwidth sweep ("net_sweep"),
//! - `results/metrics_explain.om` — the OpenMetrics exposition of the
//!   registry plus the attribution gauges.
//!
//! With `--check claims.toml` the paper's qualitative claims are
//! evaluated against the reports ([`crate::claims`]); any failure makes
//! the process exit 1, so CI can gate on "the reproduction still shows
//! what the paper showed" the same way `benchdiff` gates on throughput.
//!
//! Attribution is read-only over the solved traces: `explain` runs the
//! exact sims the tables run and tables 2–5 stay byte-identical.

use std::collections::BTreeMap;
use std::path::Path;
use std::path::PathBuf;
use std::process::ExitCode;

use obs::attrib::SweepPoint;
use obs::AttribReport;
use obs::OpAttribution;
use obs::SweepReport;
use simkit::units::fmt_duration;

use crate::calibrate::FilerModel;
use crate::claims;
use crate::experiments::prepare;
use crate::experiments::Suite;
use crate::runners::RunCfg;

/// Drive counts the crossover sweep evaluates (a superset of the
/// parallel tables' 2 and 4 drives).
pub const SWEEP_DRIVES: &[usize] = &[1, 2, 3, 4, 6];

/// The reports each `bench explain` target prints, writes and checks.
const TARGETS: &[(&str, &[&str])] = &[
    ("table2", &["table2"]),
    ("table3", &["table3"]),
    ("table4", &["table4"]),
    ("table5", &["table5"]),
    ("net", &["table_net", "net_sweep"]),
    ("sweep", &["sweep"]),
    (
        "all",
        &[
            "table2",
            "table3",
            "table4",
            "table5",
            "table_net",
            "sweep",
            "net_sweep",
        ],
    ),
];

/// Everything `bench explain` computes: attribution reports keyed by
/// table name, plus the sweeps keyed by sweep name.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Reports {
    /// Per-table attribution ("table2" .. "table5", "table_net").
    pub tables: BTreeMap<String, AttribReport>,
    /// Computed sweeps by name ("sweep" = drive count, "net_sweep" =
    /// link bandwidth).
    pub sweeps: BTreeMap<String, SweepReport>,
}

impl Reports {
    /// Every attribution report the suite's solves yield: tables 2–5
    /// (tables 2 and 3 share the single-drive runs), the network table,
    /// the drive-count sweep over [`SWEEP_DRIVES`] and the link sweep.
    pub fn of(suite: &Suite) -> Reports {
        let report = |name: &str, ops: &[OpAttribution]| {
            (
                name.to_string(),
                AttribReport {
                    experiment: name.to_string(),
                    ops: ops.to_vec(),
                },
            )
        };
        let sweep = SweepReport {
            experiment: "sweep".to_string(),
            param: "drives".to_string(),
            points: SWEEP_DRIVES
                .iter()
                .map(|&n| SweepPoint {
                    param: n as f64,
                    ops: suite.parallel(n).attribs.clone(),
                })
                .collect(),
        };
        Reports {
            tables: BTreeMap::from([
                report("table2", &suite.basic.attribs),
                report("table3", &suite.basic.attribs),
                report("table4", &suite.parallel(2).attribs),
                report("table5", &suite.parallel(4).attribs),
                ("table_net".to_string(), suite.net.table.clone()),
            ]),
            sweeps: BTreeMap::from([
                ("sweep".to_string(), sweep),
                ("net_sweep".to_string(), suite.net.sweep.clone()),
            ]),
        }
    }

    /// The subset whose table or sweep name is in `names`.
    pub fn only(mut self, names: &[&str]) -> Reports {
        self.tables.retain(|k, _| names.contains(&k.as_str()));
        self.sweeps.retain(|k, _| names.contains(&k.as_str()));
        self
    }
}

fn fmt_utils(utils: &[(String, f64)]) -> String {
    let mut parts = Vec::new();
    for (name, u) in utils {
        if *u >= 0.005 {
            parts.push(format!("{name} {:.0}%", u * 100.0));
        }
    }
    if parts.is_empty() {
        "(idle)".to_string()
    } else {
        parts.join("  ")
    }
}

fn fmt_shares(shares: &[(String, f64)]) -> String {
    shares
        .iter()
        .filter(|(_, s)| *s >= 0.0005)
        .map(|(label, s)| format!("{label} {:.1}%", s * 100.0))
        .collect::<Vec<_>>()
        .join("  ")
}

/// Renders one table's bottleneck timelines as text.
pub fn render_report(r: &AttribReport) -> String {
    let mut out = String::new();
    let title = format!("Bottleneck attribution: {}", r.experiment);
    out.push_str(&format!("\n{title}\n{}\n", "-".repeat(title.len())));
    for a in &r.ops {
        out.push_str(&format!(
            "{:<18} makespan {:>12}   dominant: {}\n",
            a.op,
            fmt_duration(a.makespan),
            a.dominant()
        ));
        out.push_str(&format!(
            "  critical-path shares: {}\n",
            fmt_shares(&a.shares)
        ));
        for st in &a.streams {
            out.push_str(&format!("  {}\n", st.stream));
            for seg in &st.segments {
                out.push_str(&format!(
                    "    {:>12} .. {:<12}  {:<8} {}\n",
                    fmt_duration(seg.t0),
                    fmt_duration(seg.t1),
                    seg.binding.label(),
                    fmt_utils(&seg.utils)
                ));
            }
        }
    }
    out
}

/// Renders the sweep: the dominant binding of every op at every point,
/// plus the detected crossovers.
pub fn render_sweep(s: &SweepReport) -> String {
    let mut out = String::new();
    let title = format!(
        "Crossover sweep over {} ({})",
        s.param,
        s.points
            .iter()
            .map(|p| format!("{}", p.param))
            .collect::<Vec<_>>()
            .join(", ")
    );
    out.push_str(&format!("\n{title}\n{}\n", "-".repeat(title.len())));
    out.push_str(&format!("{:<18}", "op \\ dominant"));
    for p in &s.points {
        out.push_str(&format!(" {:>10}", format!("{}={}", s.param, p.param)));
    }
    out.push('\n');
    for op in s.op_names() {
        out.push_str(&format!("{op:<18}"));
        for p in &s.points {
            let dom = p
                .ops
                .iter()
                .find(|a| a.op == op)
                .map(|a| a.dominant())
                .unwrap_or_else(|| "-".to_string());
            out.push_str(&format!(" {dom:>10}"));
        }
        out.push('\n');
    }
    let mut any = false;
    for op in s.op_names() {
        for x in s.crossovers(&op) {
            any = true;
            out.push_str(&format!(
                "crossover: {op}: {} -> {} between {}={} and {}\n",
                x.from, x.to, s.param, x.param_lo, x.param_hi
            ));
        }
    }
    if !any {
        out.push_str("no crossovers detected\n");
    }
    out
}

/// Renders every computed report, tables first (sorted by name), then
/// the sweeps (sorted by name).
pub fn render(reports: &Reports) -> String {
    let mut out = String::new();
    for r in reports.tables.values() {
        out.push_str(&render_report(r));
    }
    for s in reports.sweeps.values() {
        out.push_str(&render_sweep(s));
    }
    out
}

/// Writes the `ATTRIB_*.json` artifacts for every computed report.
pub fn emit(out_dir: &Path, reports: &Reports) {
    let emitted = |r: std::io::Result<PathBuf>| match r {
        Ok(p) => eprintln!("[bench] wrote {}", p.display()),
        Err(e) => eprintln!("[bench] could not write attribution artifact: {e}"),
    };
    for r in reports.tables.values() {
        emitted(r.write(out_dir));
    }
    for s in reports.sweeps.values() {
        emitted(s.write(out_dir));
    }
}

/// Writes `metrics_explain.om`: the OpenMetrics exposition of the full
/// metrics registry plus every computed attribution gauge.
fn emit_openmetrics(out_dir: &Path, reports: &Reports) {
    let mut gauges = Vec::new();
    for r in reports.tables.values() {
        gauges.extend(obs::openmetrics::attrib_gauges(r));
    }
    gauges.sort_by(|a, b| a.name.cmp(&b.name).then_with(|| a.labels.cmp(&b.labels)));
    let text = obs::openmetrics::render(
        &obs::metrics::typed_snapshot(),
        &obs::metrics::histogram_snapshots(),
        &gauges,
    );
    let _ = std::fs::create_dir_all(out_dir);
    let path = out_dir.join("metrics_explain.om");
    match std::fs::write(&path, text) {
        Ok(()) => eprintln!("[bench] wrote {}", path.display()),
        Err(e) => eprintln!("[bench] could not write {}: {e}", path.display()),
    }
}

const USAGE: &str = "usage: bench explain <table2|table3|table4|table5|net|sweep|all> \
[--check FILE] [--scale F] [--seed N] [--out-dir DIR]";

/// CLI entry point for `bench explain`. Exit codes: 0 = rendered (and
/// all claims passed), 1 = at least one claim failed, 2 = usage or
/// claims-file parse error.
pub fn run(args: &[String]) -> ExitCode {
    let mut target: Option<String> = None;
    let mut check: Option<PathBuf> = None;
    let mut cfg = RunCfg {
        scale: 1.0 / 32.0,
        seed: 1999,
        out_dir: crate::runners::default_out_dir(),
    };
    let mut i = 0;
    while i < args.len() {
        let need = |i: usize| -> Result<&String, String> {
            args.get(i + 1)
                .ok_or_else(|| format!("{} needs a value", args[i]))
        };
        let fail = |e: String| {
            eprintln!("bench explain: {e}");
            eprintln!("{USAGE}");
        };
        match args[i].as_str() {
            "--check" => {
                match need(i) {
                    Ok(v) => check = Some(PathBuf::from(v)),
                    Err(e) => {
                        fail(e);
                        return ExitCode::from(2);
                    }
                }
                i += 2;
            }
            "--scale" => {
                match need(i)
                    .and_then(|v| v.parse().map_err(|_| "--scale takes a number".to_string()))
                {
                    Ok(v) => cfg.scale = v,
                    Err(e) => {
                        fail(e);
                        return ExitCode::from(2);
                    }
                }
                i += 2;
            }
            "--seed" => {
                match need(i)
                    .and_then(|v| v.parse().map_err(|_| "--seed takes an integer".to_string()))
                {
                    Ok(v) => cfg.seed = v,
                    Err(e) => {
                        fail(e);
                        return ExitCode::from(2);
                    }
                }
                i += 2;
            }
            "--out-dir" => {
                match need(i) {
                    Ok(v) => cfg.out_dir = PathBuf::from(v),
                    Err(e) => {
                        fail(e);
                        return ExitCode::from(2);
                    }
                }
                i += 2;
            }
            other if target.is_none() && !other.starts_with('-') => {
                target = Some(other.to_string());
                i += 1;
            }
            other => {
                fail(format!("unexpected argument {other:?}"));
                return ExitCode::from(2);
            }
        }
    }
    let Some(target) = target else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let Some(&(_, names)) = TARGETS.iter().find(|(t, _)| *t == target) else {
        eprintln!("bench explain: unknown target {target:?}");
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };

    // Parse the claims file *before* the expensive run.
    let parsed_claims = match &check {
        Some(path) => {
            let text = match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("bench explain: cannot read {}: {e}", path.display());
                    return ExitCode::from(2);
                }
            };
            match claims::parse(&text) {
                Ok(c) => Some(c),
                Err(e) => {
                    eprintln!("bench explain: {}: {e}", path.display());
                    return ExitCode::from(2);
                }
            }
        }
        None => None,
    };

    let suite = Suite::compute(&prepare(cfg.scale, cfg.seed), &FilerModel::f630());
    let reports = Reports::of(&suite).only(names);
    print!("{}", render(&reports));
    emit(&cfg.out_dir, &reports);
    emit_openmetrics(&cfg.out_dir, &reports);

    if let Some(cs) = parsed_claims {
        let results = claims::evaluate(&cs, &reports.tables, &reports.sweeps);
        let (text, failed) = claims::render(&results);
        println!(
            "\nclaims gate ({}):",
            check.expect("checked above").display()
        );
        print!("{text}");
        if failed > 0 {
            return ExitCode::from(1);
        }
    }
    ExitCode::SUCCESS
}
