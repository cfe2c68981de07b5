//! Host-time benchmark of the backup simulator.
//!
//! One process runs one named workload for a fixed number of host
//! seconds, checks every output it produces, and reports what the
//! simulator cost to run: end-to-end metrics from untraced runs, and
//! per-layer metrics (named after the crates) from a separate traced
//! run. Simulated results are outputs here, never metrics: they are
//! checked, and a mismatch counts as a failed operation.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper|backup|nightly> --seed N --seconds S --trace <0|1>
//! ```
//!
//! The workloads (see each module for its sizes and why it exists):
//!
//! - [`paper`]: the reproduction as README and CI run it, through the
//!   `bench` command line.
//! - [`backup`]: the library user's bulk path — full logical and image
//!   dumps and restores of an aged volume.
//! - [`nightly`]: the operator's steady state — churn, level-1 dumps,
//!   mirror syncs over a network link, and single-file restores.

pub mod backup;
pub mod nightly;
pub mod paper;
pub mod report;
pub mod trace;

use std::collections::BTreeMap;
use std::fmt::Debug;
use std::path::PathBuf;
use std::time::Instant;

use simkit::media::Media;

use crate::trace::MediaUse;
use crate::trace::TimedMedia;
use crate::trace::Tracer;

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `tables`, `net` and `explain all --check` through the `bench` CLI.
    Paper,
    /// Full logical and image dumps and restores of an aged volume.
    Backup,
    /// Churn, level-1 dumps, mirror syncs and single-file restores.
    Nightly,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::Paper, Workload::Backup, Workload::Nightly];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Paper => "paper",
            Workload::Backup => "backup",
            Workload::Nightly => "nightly",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes: what the benchmark measures, or a tiny run for tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes `BENCHMARK.json` describes.
    Bench,
    /// Tiny inputs that exercise every operation and check in seconds.
    Smoke,
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Config {
    /// Which workload.
    pub workload: Workload,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Host seconds the measured cycles may take.
    pub seconds: f64,
    /// Traced run: record spans and per-layer metrics.
    pub trace: bool,
    /// Input sizes.
    pub size: Size,
}

/// An operation failed or its output did not check; the run stops.
#[derive(Debug, Clone, Copy)]
pub struct Stop;

/// Everything one run measured.
pub struct Run {
    /// Spans of the traced cycles.
    pub tracer: Tracer,
    /// Host-time and per-layer samples, by metric name.
    samples: BTreeMap<&'static str, Vec<f64>>,
    /// Counts that must repeat exactly for a seed (the count guard).
    counts: BTreeMap<&'static str, f64>,
    /// Run facts for the host descriptor (scale, cycles, ...).
    facts: BTreeMap<&'static str, String>,
    trace: bool,
    guard_open: bool,
    attempted: u64,
    failed: u64,
}

impl Run {
    /// A fresh run; the tracer is active during set-up of a traced run.
    pub fn new(cfg: &Config) -> Run {
        let mut tracer = Tracer::new(format!(
            "{}-{}-{}",
            cfg.workload.name(),
            cfg.seed,
            std::process::id()
        ));
        tracer.set_active(cfg.trace);
        Run {
            tracer,
            samples: BTreeMap::new(),
            counts: BTreeMap::new(),
            facts: BTreeMap::new(),
            trace: cfg.trace,
            guard_open: true,
            attempted: 0,
            failed: 0,
        }
    }

    /// Operations attempted so far.
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Operations that errored or failed their check.
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// Records one attempted operation; an error counts it as failed.
    pub fn op<T, E: Debug>(&mut self, what: &str, r: Result<T, E>) -> Result<T, Stop> {
        self.attempted += 1;
        r.map_err(|e| {
            self.failed += 1;
            eprintln!("[perfbench] FAILED {what}: {e:?}");
            Stop
        })
    }

    /// Checks the output of the last operation: an error or any
    /// difference counts that operation as failed.
    pub fn check<D: Debug, E: Debug>(
        &mut self,
        what: &str,
        r: Result<Vec<D>, E>,
    ) -> Result<(), Stop> {
        let problem = match r {
            Ok(d) if d.is_empty() => return Ok(()),
            Ok(d) => format!("{} differences, first {:?}", d.len(), d[0]),
            Err(e) => format!("{e:?}"),
        };
        self.failed += 1;
        eprintln!("[perfbench] CHECK FAILED {what}: {problem}");
        Err(Stop)
    }

    /// Fails the last operation with `why` unless `ok`.
    pub fn ensure(
        &mut self,
        what: &str,
        ok: bool,
        why: impl FnOnce() -> String,
    ) -> Result<(), Stop> {
        self.check::<String, ()>(what, Ok(if ok { Vec::new() } else { vec![why()] }))
    }

    /// Adds an end-to-end sample (every cycle, traced or not).
    pub fn sample(&mut self, name: &'static str, v: f64) {
        self.samples.entry(name).or_default().push(v);
    }

    /// Adds a per-layer sample; kept only while the tracer is active.
    pub fn layer(&mut self, name: &'static str, v: f64) {
        if self.tracer.active() {
            self.sample(name, v);
        }
    }

    /// Adds to a guarded count while the guard window is open (set-up
    /// and the first cycles every run makes, whatever its length).
    pub fn count(&mut self, name: &'static str, v: f64) {
        if self.guard_open {
            *self.counts.entry(name).or_default() += v;
        }
    }

    /// Adds a per-layer sample that is also a guarded count.
    pub fn tally(&mut self, name: &'static str, v: f64) {
        self.layer(name, v);
        self.count(name, v);
    }

    /// Tallies one call's disk operations under `names` (sequential
    /// reads, random reads, writes).
    pub fn disk(&mut self, names: [&'static str; 3], d: DiskOps) {
        self.tally(names[0], d.seq_read as f64);
        self.tally(names[1], d.rand_read as f64);
        self.tally(names[2], d.write as f64);
    }

    /// Records a run fact for the host descriptor.
    pub fn fact(&mut self, name: &'static str, v: impl ToString) {
        self.facts.insert(name, v.to_string());
    }

    /// The samples of `name` (empty if none).
    pub fn samples(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }

    /// The guarded counts.
    pub fn counts(&self) -> &BTreeMap<&'static str, f64> {
        &self.counts
    }

    /// The run facts.
    pub fn facts(&self) -> &BTreeMap<&'static str, String> {
        &self.facts
    }

    /// Times `f` as span `name`.
    pub fn call<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        let span = self.tracer.open(name);
        let t = Instant::now();
        let r = f();
        let secs = t.elapsed().as_secs_f64();
        self.tracer.close(span);
        (r, secs)
    }

    /// Times `f` as span `name`, handing it `media`; while tracing, the
    /// medium is wrapped so the time inside it and its record calls are
    /// counted.
    pub fn call_media<R>(
        &mut self,
        name: &'static str,
        media: &mut dyn Media,
        f: impl FnOnce(&mut dyn Media) -> R,
    ) -> (R, f64, MediaUse) {
        if !self.tracer.active() {
            let (r, secs) = self.call(name, || f(media));
            return (r, secs, MediaUse::default());
        }
        let mut timed = TimedMedia::new(media);
        let (r, secs) = self.call(name, || f(&mut timed));
        (r, secs, timed.used())
    }

    /// Runs measured cycles until the next one would end after `seconds`
    /// (judged by the previous cycle, checks included) or `max` have
    /// run, and at least `guard` times. Before each cycle it times the
    /// [`calibrate`] yardstick. Counts stay guarded during the
    /// first `guard` cycles. `cycle` returns its measured host seconds,
    /// checks excluded. A traced run alternates traced and untraced
    /// cycles, so the tracing overhead is measured in the same process.
    pub fn cycles(
        &mut self,
        seconds: f64,
        guard: usize,
        max: usize,
        mut cycle: impl FnMut(&mut Run, usize) -> Result<f64, Stop>,
    ) -> Result<usize, Stop> {
        let start = Instant::now();
        let mut last = 0.0;
        // A traced run needs one cycle of each kind.
        let min = if self.trace { guard.max(2) } else { guard };
        let mut i = 0;
        while i < min || (i < max && start.elapsed().as_secs_f64() + last <= seconds) {
            // About one yardstick per second of cycle.
            for _ in 0..(last.ceil() as usize).max(1) {
                let c = calibrate();
                self.sample("calib_s", c);
            }
            let traced = self.trace && i % 2 == 0;
            self.tracer.set_active(traced);
            self.guard_open = i < guard;
            let t = Instant::now();
            let span = self.tracer.open("perfbench.cycle");
            let wall = cycle(self, i);
            self.tracer.close(span);
            last = t.elapsed().as_secs_f64();
            let wall = wall?;
            self.sample("wall_s", wall);
            if self.trace {
                self.sample(
                    if traced {
                        "trace.wall_on"
                    } else {
                        "trace.wall_off"
                    },
                    wall,
                );
            }
            i += 1;
        }
        self.tracer.set_active(false);
        self.guard_open = false;
        self.fact("cycles", i);
        Ok(i)
    }
}

/// A fixed yardstick of host speed, shaped like the simulator's work:
/// block-sized allocations, a map index over them, random lookups. It
/// never changes with the program, so cycle time over yardstick time
/// moves only when the program does. On a host shared with other
/// tenants, speed drifts by a fifth over minutes; the yardstick,
/// interleaved with the cycles, drifts with it.
pub fn calibrate() -> f64 {
    let t = Instant::now();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut blocks: Vec<Box<[u8; 4096]>> = Vec::new();
    let mut index = BTreeMap::new();
    for i in 0..2048usize {
        let mut b = Box::new([0u8; 4096]);
        b[(next() % 4096) as usize] = i as u8;
        blocks.push(b);
        for _ in 0..16 {
            index.insert(next() % 1_000_000, i);
        }
    }
    let mut sum = 0u64;
    for _ in 0..100_000 {
        if let Some((_, &i)) = index.range(next() % 1_000_000..).next() {
            sum = sum.wrapping_add(u64::from(blocks[i][(next() % 4096) as usize]));
        }
    }
    std::hint::black_box(sum);
    t.elapsed().as_secs_f64()
}

/// The `q`-quantile of `xs` (linear between closest ranks); NaN if empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `xs`; NaN if empty.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Disk operation counts from the blockdev layer's obs counters (the
/// registry is per thread; the backup and nightly workloads run every
/// layer call on the main thread).
#[derive(Debug, Clone, Copy)]
pub struct DiskOps {
    /// `disk.seq_read.ops`.
    pub seq_read: u64,
    /// `disk.rand_read.ops`.
    pub rand_read: u64,
    /// `disk.seq_write.ops` + `disk.rand_write.ops`.
    pub write: u64,
}

impl DiskOps {
    /// The counters now.
    pub fn now() -> DiskOps {
        DiskOps {
            seq_read: obs::counter("disk.seq_read.ops").get(),
            rand_read: obs::counter("disk.rand_read.ops").get(),
            write: obs::counter("disk.seq_write.ops").get()
                + obs::counter("disk.rand_write.ops").get(),
        }
    }

    /// Operations since `before`.
    pub fn since(before: DiskOps) -> DiskOps {
        let now = DiskOps::now();
        DiskOps {
            seq_read: now.seq_read - before.seq_read,
            rand_read: now.rand_read - before.rand_read,
            write: now.write - before.write,
        }
    }
}

/// Where a run may write: `$CARGO_TARGET_DIR/perfbench`, or
/// `perfbench/target/perfbench` when that is unset.
pub fn out_root() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target"))
        .join("perfbench")
}

/// The repository checkout the benchmark was built from.
pub fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives one directory below the repository root")
        .to_path_buf()
}

/// Runs one workload. A failed operation stops the run early; it is
/// counted in [`Run::failed`].
pub fn run(cfg: &Config) -> Run {
    let mut run = Run::new(cfg);
    run.fact("workload", cfg.workload.name());
    run.fact("seed", cfg.seed);
    let outcome = match cfg.workload {
        Workload::Paper => paper::run(cfg, &mut run),
        Workload::Backup => backup::run(cfg, &mut run),
        Workload::Nightly => nightly::run(cfg, &mut run),
    };
    if outcome.is_err() {
        debug_assert!(run.failed() > 0, "every stop is a counted failure");
    }
    run
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert!((quantile(&(1..=11).map(f64::from).collect::<Vec<_>>(), 0.9) - 10.0).abs() < 1e-12);
        assert!(median(&[]).is_nan());
    }
}
