//! What a run prints: its metrics by name and unit, the host
//! descriptor, the guarded counts, and the one-line JSON result.

use std::fmt::Write as _;

use obs::Json;

use crate::median;
use crate::quantile;
use crate::Config;
use crate::Run;
use crate::Workload;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The end-to-end metrics every workload reports and `BENCHMARK.json`
/// gates: name and unit. `wall_rel` is the median cycle's host time
/// over the median [`crate::calibrate`] yardstick of the same run: raw
/// `wall_s` drifts with a shared host's speed by more than any useful
/// bound between runs, the ratio much less.
pub const GATED: [(&str, &str); 3] = [
    ("wall_rel", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Workload-specific end-to-end metrics: name, workload, the samples
/// they summarise, the quantile taken, unit.
const SPECIFIC: &[(&str, Workload, &str, f64, &str)] = &[
    ("sim_err_pct", Workload::Paper, "sim_err_pct", 0.5, "%"),
    (
        "logical_dump_mb_s",
        Workload::Backup,
        "logical_dump_mb_s",
        0.5,
        "MB/s",
    ),
    (
        "logical_restore_mb_s",
        Workload::Backup,
        "logical_restore_mb_s",
        0.5,
        "MB/s",
    ),
    (
        "image_dump_mb_s",
        Workload::Backup,
        "image_dump_mb_s",
        0.5,
        "MB/s",
    ),
    (
        "image_restore_mb_s",
        Workload::Backup,
        "image_restore_mb_s",
        0.5,
        "MB/s",
    ),
    (
        "logical_incr_ms_p50",
        Workload::Nightly,
        "logical_incr_ms",
        0.5,
        "ms",
    ),
    (
        "logical_incr_ms_p90",
        Workload::Nightly,
        "logical_incr_ms",
        0.9,
        "ms",
    ),
    (
        "mirror_sync_ms_p50",
        Workload::Nightly,
        "mirror_sync_ms",
        0.5,
        "ms",
    ),
    (
        "mirror_sync_ms_p90",
        Workload::Nightly,
        "mirror_sync_ms",
        0.9,
        "ms",
    ),
    (
        "single_restore_ms_p50",
        Workload::Nightly,
        "single_restore_ms",
        0.5,
        "ms",
    ),
    (
        "single_restore_ms_p90",
        Workload::Nightly,
        "single_restore_ms",
        0.9,
        "ms",
    ),
];

/// Per-layer metrics, from traced runs only: name and unit. Each is the
/// median over the run's traced calls; 0 where the workload makes no
/// such call. `.host_s`/`_ms` are host time, `self` excludes time inside
/// the medium, the rest are counts.
pub const LAYERS: &[(&str, &str)] = &[
    ("workload.populate.host_s", "s"),
    ("workload.age.host_s", "s"),
    ("workload.churn.host_ms_p50", "ms"),
    ("wafl.populate.cps", "count"),
    ("wafl.age.cps", "count"),
    ("wafl.logical_restore.cps", "count"),
    ("wafl.churn.cps", "count"),
    ("nvram.populate.appends", "count"),
    ("nvram.age.appends", "count"),
    ("nvram.logical_restore.appends", "count"),
    ("nvram.churn.appends", "count"),
    ("blockdev.logical_dump.seq_read_ops", "count"),
    ("blockdev.logical_dump.rand_read_ops", "count"),
    ("blockdev.logical_dump.write_ops", "count"),
    ("blockdev.logical_restore.seq_read_ops", "count"),
    ("blockdev.logical_restore.rand_read_ops", "count"),
    ("blockdev.logical_restore.write_ops", "count"),
    ("blockdev.image_dump.seq_read_ops", "count"),
    ("blockdev.image_dump.rand_read_ops", "count"),
    ("blockdev.image_dump.write_ops", "count"),
    ("blockdev.image_restore.seq_read_ops", "count"),
    ("blockdev.image_restore.rand_read_ops", "count"),
    ("blockdev.image_restore.write_ops", "count"),
    ("blockdev.logical_incr.seq_read_ops", "count"),
    ("blockdev.logical_incr.rand_read_ops", "count"),
    ("blockdev.logical_incr.write_ops", "count"),
    ("core.logical_dump.self_s", "s"),
    ("core.logical_restore.self_s", "s"),
    ("core.image_dump.self_s", "s"),
    ("core.image_restore.self_s", "s"),
    ("core.logical_incr.self_ms_p50", "ms"),
    ("core.mirror_sync.self_ms_p50", "ms"),
    ("core.single_restore.self_ms_p50", "ms"),
    ("core.logical_dump.data_blocks", "count"),
    ("core.image_dump.blocks", "count"),
    ("core.mirror_sync.blocks_p50", "count"),
    ("tape.logical_dump.host_s", "s"),
    ("tape.logical_restore.host_s", "s"),
    ("tape.image_dump.host_s", "s"),
    ("tape.image_restore.host_s", "s"),
    ("tape.logical_incr.host_s", "s"),
    ("tape.single_restore.host_s", "s"),
    ("tape.logical_dump.records", "count"),
    ("tape.logical_restore.records", "count"),
    ("tape.image_dump.records", "count"),
    ("tape.image_restore.records", "count"),
    ("tape.logical_incr.records", "count"),
    ("tape.single_restore.records", "count"),
    ("tape.single_restore.records_touched_p50", "count"),
    ("net.mirror_sync.host_ms_p50", "ms"),
    ("net.mirror_sync.records_p50", "count"),
    ("bench.tables.host_s", "s"),
    ("bench.net.host_s", "s"),
    ("bench.explain.host_s", "s"),
    ("obs.paper.artifact_bytes", "bytes"),
    ("obs.paper.artifacts", "count"),
    ("check.paper.host_s", "s"),
    ("check.backup.host_s", "s"),
    ("check.nightly.host_s", "s"),
    ("trace.overhead_s", "s"),
];

/// `VmHWM` of this process in MB (0 where `/proc` is unavailable).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Every end-to-end metric that applies to the run's workload.
pub fn end_to_end(cfg: &Config, run: &Run) -> Vec<Metric> {
    let mut out = vec![
        Metric {
            name: "wall_s",
            value: median(run.samples("wall_s")),
            unit: "s",
        },
        Metric {
            name: "setup_s",
            value: median(run.samples("setup_s")),
            unit: "s",
        },
        Metric {
            name: "wall_rel",
            value: median(run.samples("wall_s")) / median(run.samples("calib_s")),
            unit: "ratio",
        },
        Metric {
            name: "calib_s",
            value: median(run.samples("calib_s")),
            unit: "s",
        },
        Metric {
            name: "peak_rss_mb",
            value: peak_rss_mb(),
            unit: "MB",
        },
        Metric {
            name: "failed_op_share",
            value: run.failed() as f64 / run.attempted().max(1) as f64,
            unit: "ratio",
        },
    ];
    for &(name, w, samples, q, unit) in SPECIFIC {
        if w == cfg.workload {
            out.push(Metric {
                name,
                value: quantile(run.samples(samples), q),
                unit,
            });
        }
    }
    out
}

/// Every per-layer metric, plus the tracing overhead: the median traced
/// cycle minus the median untraced cycle of the same process.
pub fn per_layer(run: &Run) -> Vec<Metric> {
    LAYERS
        .iter()
        .map(|&(name, unit)| {
            let value = if name == "trace.overhead_s" {
                median(run.samples("trace.wall_on")) - median(run.samples("trace.wall_off"))
            } else {
                let xs = run.samples(name);
                if xs.is_empty() {
                    0.0
                } else {
                    median(xs)
                }
            };
            Metric { name, value, unit }
        })
        .collect()
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// The host descriptor: where, with what and at what size the run ran.
pub fn descriptor(cfg: &Config, run: &Run) -> Json {
    let mut fields = vec![
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
        ),
        ("seconds", Json::Num(cfg.seconds)),
        ("trace", Json::Bool(cfg.trace)),
        ("rustc", Json::Str(command_line("rustc", &["--version"]))),
        (
            "commit",
            Json::Str(command_line("git", &["rev-parse", "HEAD"])),
        ),
    ];
    for (k, v) in run.facts() {
        fields.push((k, Json::Str(v.clone())));
    }
    Json::obj(fields)
}

/// The one-line result: `correct`, `attempted`, `failed` and the
/// metrics `BENCHMARK.json` declares for this mode.
pub fn result_line(correct: bool, run: &Run, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        run.attempted(),
        run.failed()
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_one_json_object() {
        let cfg = Config {
            workload: Workload::Backup,
            seed: 1,
            seconds: 1.0,
            trace: false,
            size: crate::Size::Smoke,
        };
        let run = Run::new(&cfg);
        let line = result_line(
            true,
            &run,
            &[Metric {
                name: "wall_s",
                value: 1.25,
                unit: "s",
            }],
        );
        assert!(!line.contains('\n'));
        let j = Json::parse(&line).expect("valid JSON");
        let wall = j.get("metrics").and_then(|m| m.get("wall_s")).unwrap();
        assert_eq!(wall.get("value").and_then(Json::as_num), Some(1.25));
        assert_eq!(j.get("correct"), Some(&Json::Bool(true)));
    }

    #[test]
    fn layer_names_are_unique() {
        let mut names: Vec<_> = LAYERS.iter().map(|l| l.0).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), LAYERS.len());
    }
}
