//! `perfbench --workload <paper|backup|nightly> --seed N --seconds S --trace <0|1>`
//!
//! Runs one workload, checks its outputs, prints every metric by name
//! and unit, and ends with a one-line JSON result. Exits 1 if any
//! operation failed or its output did not check, 2 on bad arguments.

use std::process::ExitCode;

use obs::Json;
use perfbench::report;
use perfbench::Config;
use perfbench::Size;
use perfbench::Workload;

const USAGE: &str =
    "usage: perfbench --workload <paper|backup|nightly> [--seed N] [--seconds S] [--trace 0|1]";

fn parse(args: &[String]) -> Result<Config, String> {
    let mut cfg = Config {
        workload: Workload::Paper,
        seed: 1999,
        seconds: 20.0,
        trace: false,
        size: Size::Bench,
    };
    let mut workload = None;
    let mut i = 0;
    while i < args.len() {
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("{} needs a value", args[i]))?;
        match args[i].as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => cfg.seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?,
            "--seconds" => {
                cfg.seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(cfg.seconds.is_finite() && cfg.seconds > 0.0) {
                    return Err(format!("bad --seconds {value:?}"));
                }
            }
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 2;
    }
    cfg.workload = workload.ok_or("--workload is required")?;
    Ok(cfg)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let run = perfbench::run(&cfg);

    let all = if cfg.trace {
        report::per_layer(&run)
    } else {
        report::end_to_end(&cfg, &run)
    };
    let descriptor = report::descriptor(&cfg, &run);
    println!("host {}", descriptor.render());
    for m in &all {
        println!("metric {} {} {}", m.name, m.value, m.unit);
    }
    for (name, v) in run.counts() {
        println!("count {name} {v}");
    }

    if cfg.trace {
        let path =
            perfbench::out_root().join(format!("trace-{}-{}.json", cfg.workload.name(), cfg.seed));
        let doc = Json::obj(vec![
            ("host", descriptor),
            ("spans", run.tracer.to_json()),
            (
                "per_layer",
                Json::Obj(
                    all.iter()
                        .map(|m| (m.name.to_string(), Json::Num(m.value)))
                        .collect(),
                ),
            ),
        ]);
        let written = std::fs::create_dir_all(perfbench::out_root())
            .and_then(|()| std::fs::write(&path, doc.render()));
        match written {
            Ok(()) => eprintln!(
                "[perfbench] wrote {} spans to {}",
                run.tracer.spans().len(),
                path.display()
            ),
            Err(e) => eprintln!("[perfbench] cannot write {}: {e}", path.display()),
        }
    }

    // The result carries exactly the metrics BENCHMARK.json declares for
    // this mode: the gated end-to-end set, or every per-layer metric.
    let declared: Vec<_> = if cfg.trace {
        all
    } else {
        all.into_iter()
            .filter(|m| report::GATED.iter().any(|(n, _)| *n == m.name))
            .collect()
    };
    let finite = declared.iter().all(|m| m.value.is_finite());
    if !finite {
        eprintln!("[perfbench] a metric has no finite value: {declared:?}");
    }
    let correct = run.failed() == 0 && run.attempted() > 0 && finite;
    println!("{}", report::result_line(correct, &run, &declared));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
