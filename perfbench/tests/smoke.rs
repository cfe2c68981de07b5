//! Every workload at a tiny size: each operation runs and checks clean,
//! every declared metric has a value, and the guarded counts repeat
//! exactly for a seed. Run with `cargo test --release` from
//! `perfbench/`; debug builds are much slower.

use perfbench::report;
use perfbench::Config;
use perfbench::Run;
use perfbench::Size;
use perfbench::Workload;

/// Runs on a fresh thread, as each benchmark run has a fresh process:
/// `bench explain` reports the obs registry of the thread it runs on.
fn smoke(workload: Workload, seed: u64, trace: bool) -> (Config, Run) {
    let cfg = Config {
        workload,
        seed,
        seconds: 0.1,
        trace,
        size: Size::Smoke,
    };
    let c = cfg.clone();
    let run = std::thread::spawn(move || perfbench::run(&c))
        .join()
        .expect("the run completes");
    assert_eq!(run.failed(), 0, "{}: failed operations", workload.name());
    assert!(run.attempted() > 0);
    (cfg, run)
}

/// The seed of each workload's smoke runs. The claims gate is
/// calibrated at seed 1999; at the 1/1024 smoke scale one claim fails
/// for some other seeds (the benchmark itself runs at 1/256).
fn seed(workload: Workload) -> u64 {
    match workload {
        Workload::Paper => 1999,
        _ => 11,
    }
}

fn untraced_runs_report_every_gated_metric(workload: Workload) {
    let (cfg, run) = smoke(workload, seed(workload), false);
    let metrics = report::end_to_end(&cfg, &run);
    for (name, unit) in report::GATED {
        let m = metrics
            .iter()
            .find(|m| m.name == name)
            .expect("gated metric reported");
        assert_eq!(m.unit, unit);
        assert!(m.value.is_finite() && m.value > 0.0, "{name} = {}", m.value);
    }
    let share = metrics
        .iter()
        .find(|m| m.name == "failed_op_share")
        .expect("reported");
    assert_eq!(share.value, 0.0);
    assert!(metrics.iter().all(|m| m.value.is_finite()), "{metrics:?}");
}

fn traced_runs_record_spans_and_layers(workload: Workload) {
    let (_, run) = smoke(workload, seed(workload), true);
    assert!(!run.tracer.spans().is_empty());
    assert!(run.tracer.spans().iter().all(|s| s.end_s >= s.start_s));
    let layers = report::per_layer(&run);
    assert_eq!(layers.len(), report::LAYERS.len());
    assert!(layers.iter().all(|m| m.value.is_finite()), "{layers:?}");
    let entered = layers
        .iter()
        .filter(|m| m.value != 0.0 && m.name != "trace.overhead_s")
        .count();
    assert!(
        entered >= 4,
        "{}: only {entered} layer metrics moved",
        workload.name()
    );
}

fn counts_repeat_for_a_seed(workload: Workload) {
    let (_, a) = smoke(workload, seed(workload), false);
    let (_, b) = smoke(workload, seed(workload), true);
    assert!(!a.counts().is_empty());
    assert_eq!(
        a.counts(),
        b.counts(),
        "{}: counts differ between runs",
        workload.name()
    );
}

#[test]
fn paper_smoke() {
    untraced_runs_report_every_gated_metric(Workload::Paper);
    traced_runs_record_spans_and_layers(Workload::Paper);
}

#[test]
fn backup_smoke() {
    untraced_runs_report_every_gated_metric(Workload::Backup);
    traced_runs_record_spans_and_layers(Workload::Backup);
}

#[test]
fn nightly_smoke() {
    untraced_runs_report_every_gated_metric(Workload::Nightly);
    traced_runs_record_spans_and_layers(Workload::Nightly);
}

#[test]
fn paper_counts_repeat() {
    counts_repeat_for_a_seed(Workload::Paper);
}

#[test]
fn backup_counts_repeat() {
    counts_repeat_for_a_seed(Workload::Backup);
}

#[test]
fn nightly_counts_repeat() {
    counts_repeat_for_a_seed(Workload::Nightly);
}
