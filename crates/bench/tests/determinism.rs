//! Determinism regression test: the same seed must yield byte-identical
//! report output and obs artifact across runs.
//!
//! Every source of nondeterminism the simulation could accidentally grow
//! — hash-order iteration feeding a report, wall-clock timestamps, an
//! unseeded RNG — shows up here as a diff between two runs. This is the
//! behavioral counterpart of simlint rules D01–D03.

use bench::calibrate::FilerModel;
use bench::experiments::prepare;
use bench::experiments::run_basic;
use bench::tables::render_table2;

/// One full table2 run at the test scale: returns the rendered table, the
/// rendered obs artifact JSON, and (when traced) the rendered Chrome
/// trace JSON.
fn one_run(seed: u64, traced: bool) -> (String, String, String) {
    // The obs metric registry is thread-local and cumulative; reset it so
    // the artifact reflects this run alone.
    obs::metrics::reset();
    if traced {
        obs::event::enable(obs::event::EventConfig::default());
    } else {
        obs::event::disable();
    }
    let basic = run_basic(&prepare(1.0 / 1024.0, seed), &FilerModel::f630());
    obs::event::disable();
    let table = render_table2(&basic);
    let mut artifact = basic.obs;
    artifact.experiment = "determinism".into();
    let trace = obs::export::chrome_trace(
        &artifact.experiment,
        &artifact.spans,
        &basic.trace_events,
        &artifact.timelines,
    )
    .render();
    (table, artifact.to_json().render(), trace)
}

#[test]
fn same_seed_is_byte_identical() {
    let (table_a, obs_a, _) = one_run(7, false);
    let (table_b, obs_b, _) = one_run(7, false);
    assert_eq!(table_a, table_b, "table2 report text diverged between runs");
    assert_eq!(obs_a, obs_b, "obs artifact JSON diverged between runs");
    // Sanity: the outputs are non-trivial, not two empty strings agreeing.
    assert!(table_a.contains("Logical Backup"));
    assert!(obs_a.contains("\"experiment\""));
}

#[test]
fn different_seeds_actually_differ() {
    // Guards against the test accidentally comparing constants: a volume
    // built from another seed must produce a different report.
    let (table_a, _, _) = one_run(7, false);
    let (table_b, _, _) = one_run(8, false);
    assert_ne!(table_a, table_b, "seed has no effect on the report");
}

#[test]
fn tracing_changes_nothing_but_the_trace() {
    // The event ring rides on the functional pass; it must never feed
    // back into the solver. A traced run's table is byte-identical to an
    // untraced one, and the trace itself is deterministic.
    let (table_plain, _, _) = one_run(7, false);
    let (table_a, _, trace_a) = one_run(7, true);
    let (table_b, _, trace_b) = one_run(7, true);
    assert_eq!(table_plain, table_a, "tracing perturbed the report");
    assert_eq!(table_a, table_b, "traced report diverged between runs");
    assert_eq!(trace_a, trace_b, "trace JSON diverged between runs");
    assert!(
        trace_a.contains("\"traceEvents\""),
        "traced run produced no trace document"
    );
    assert!(
        trace_a.contains("tape_write"),
        "trace has no tape instants; is instrumentation wired?"
    );
}
