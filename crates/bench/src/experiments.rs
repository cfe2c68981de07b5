//! The paper's §5 pipeline: one functional pass, then every solve.
//!
//! [`prepare`] builds and ages the `home` volume, runs the real backup
//! engines against it once, and keeps only what the solves read (a
//! [`Prepared`]). [`Suite::compute`] re-scales those measured stage
//! profiles to paper size and solves the fluid model for every drive
//! configuration and link the tables report; `bench tables`, `bench net`
//! and `bench explain` are views of one [`Suite`].

use backup_core::logical::catalog::DumpCatalog;
use backup_core::logical::dump::dump;
use backup_core::logical::dump::DumpOptions;
use backup_core::logical::restore::restore;
use backup_core::physical::dump::image_dump_full;
use backup_core::physical::restore::image_restore;
use backup_core::report::StageProfile;
use net::LinkSpec;
use obs::attrib::SweepPoint;
use raid::Volume;
use simkit::fluid::Trace;
use simkit::prelude::FluidSim;
use simkit::prelude::ResourceId;
use simkit::prelude::Stream;
use simkit::units::MIB;
use tape::TapeDrive;
use tape::TapePerf;
use wafl::cost::CostModel;
use wafl::types::Attrs;
use wafl::types::FileType;
use wafl::types::WaflConfig;
use wafl::types::INO_ROOT;
use wafl::Wafl;

use crate::build::build_home;
use crate::build::BuiltVolume;
use crate::calibrate::stage_to_fluid;
use crate::calibrate::FilerModel;
use crate::calibrate::OpKind;
use crate::calibrate::ResourceIds;

/// One row of a stage-detail table (Tables 3–5).
#[derive(Debug, Clone)]
pub struct StageRow {
    /// Operation group ("Logical Dump", "Physical Restore", ...).
    pub op: &'static str,
    /// Stage label.
    pub stage: String,
    /// Elapsed seconds (window over all streams).
    pub elapsed: f64,
    /// Mean CPU utilization over the window.
    pub cpu_util: f64,
    /// Aggregate disk throughput over the window, MB/s.
    pub disk_mb_s: f64,
    /// Aggregate tape throughput over the window, MB/s.
    pub tape_mb_s: f64,
}

/// One row of Table 2.
#[derive(Debug, Clone)]
pub struct OpSummary {
    /// Operation name.
    pub name: &'static str,
    /// Total elapsed seconds.
    pub elapsed: f64,
    /// Data moved / elapsed, MB/s.
    pub mb_s: f64,
    /// Data moved / elapsed, GB/hour.
    pub gb_h: f64,
}

/// Results for the single-drive experiments (Tables 2 and 3).
#[derive(Debug)]
pub struct BasicResults {
    /// Table 2 rows.
    pub table2: Vec<OpSummary>,
    /// Table 3 rows.
    pub table3: Vec<StageRow>,
    /// Logical data bytes at paper scale.
    pub logical_bytes: u64,
    /// Physical (image) bytes at paper scale.
    pub physical_bytes: u64,
    /// File count at paper scale.
    pub files: u64,
    /// Fragmentation of the source volume.
    pub frag: f64,
    /// The observability artifact: measured spans stamped with simulated
    /// times, plus per-resource utilization. The binaries name and write
    /// it (`results/obs_<experiment>.json`).
    pub obs: obs::Artifact,
    /// Trace events mapped onto the artifact's time axis (empty unless
    /// tracing was enabled for the functional pass).
    pub trace_events: Vec<obs::TimedEvent>,
    /// Per-operation bottleneck attribution, in table order (Logical
    /// Dump, Logical Restore, Physical Dump, Physical Restore).
    pub attribs: Vec<obs::OpAttribution>,
}

/// Result of simulating one operation (one or more concurrent streams).
#[derive(Debug)]
pub struct SimOp {
    /// Aggregated per-stage rows.
    pub rows: Vec<StageRow>,
    /// Per-stage `(name, t0, t1)` windows over all streams, in stage
    /// order — the simulated times the obs artifact stamps onto spans.
    pub windows: Vec<(String, f64, f64)>,
    /// Per-resource utilization timelines from the solve.
    pub timelines: Vec<obs::UtilizationTimeline>,
    /// Bottleneck attribution folded from the solver's binding records.
    pub attribution: obs::OpAttribution,
    /// Makespan in seconds.
    pub elapsed: f64,
}

/// Solves the fluid model for one operation.
///
/// `streams` holds, per concurrent stream, the paper-scaled stage
/// profiles. Every stream gets a dedicated tape drive; all share the CPU
/// and the volume's `arms` disk arms.
pub fn simulate_op(
    op: &'static str,
    streams: &[Vec<StageProfile>],
    arms: f64,
    kind: OpKind,
    model: &FilerModel,
) -> SimOp {
    let n = streams.len();
    if std::env::var("BENCH_DEBUG").is_ok() {
        for (i, s) in streams.iter().enumerate() {
            for p in s {
                eprintln!(
                    "[debug] {op} #{i} {:<30} cpu={:.1}s files={} dirs={} blocks={} tape={}MiB rr={}MiB sr={}MiB rw={}MiB sw={}MiB",
                    p.name,
                    p.cpu_secs,
                    p.files,
                    p.dirs,
                    p.blocks,
                    p.tape_bytes >> 20,
                    p.disk_rand_read >> 20,
                    p.disk_seq_read >> 20,
                    p.disk_rand_write >> 20,
                    p.disk_seq_write >> 20,
                );
            }
        }
    }
    let mut sim = FluidSim::new();
    let cpu = sim.add_resource("cpu", 1.0);
    let disk = sim.add_resource("disk", arms);
    let meta = sim.add_resource("meta", 1.0);
    let mut ids_per_stream = Vec::new();
    let mut handles = Vec::new();
    for (i, stages) in streams.iter().enumerate() {
        let tape = sim.add_resource(format!("tape{i}"), 1.0);
        let ids = ResourceIds {
            cpu,
            disk,
            tape,
            meta,
        };
        ids_per_stream.push(ids);
        let fluid_stages = stages
            .iter()
            .map(|p| stage_to_fluid(p, model, &ids, n, kind))
            .collect();
        handles.push(sim.add_stream(Stream {
            name: format!("{op} #{i}"),
            start_at: 0.0,
            stages: fluid_stages,
        }));
    }
    let trace = sim.run().expect("fluid model solvable");
    fold_trace(op, streams, &trace, cpu)
}

/// Folds one solved trace into a [`SimOp`]: per-stage aggregation,
/// windows, timelines, and attribution. Shared by the tape and network
/// solver paths so they bin and report identically.
fn fold_trace(
    op: &'static str,
    streams: &[Vec<StageProfile>],
    trace: &Trace,
    cpu: ResourceId,
) -> SimOp {
    // Aggregate per stage name, preserving first-appearance order.
    let mut order: Vec<String> = Vec::new();
    for s in streams.iter().flatten() {
        if !order.contains(&s.name) {
            order.push(s.name.clone());
        }
    }
    let mut rows = Vec::new();
    let mut windows = Vec::new();
    for name in order {
        let Some((t0, t1)) = trace.window(&name) else {
            continue;
        };
        windows.push((name.clone(), t0, t1));
        let disk_bytes: u64 = streams
            .iter()
            .flatten()
            .filter(|p| p.name == name)
            .map(|p| p.disk_bytes())
            .sum();
        let tape_bytes: u64 = streams
            .iter()
            .flatten()
            .filter(|p| p.name == name)
            .map(|p| p.tape_bytes)
            .sum();
        let window = (t1 - t0).max(1e-9);
        rows.push(StageRow {
            op,
            stage: name,
            elapsed: t1 - t0,
            cpu_util: trace.utilization(cpu, t0, t1),
            disk_mb_s: disk_bytes as f64 / MIB as f64 / window,
            tape_mb_s: tape_bytes as f64 / MIB as f64 / window,
        });
    }
    SimOp {
        rows,
        windows,
        timelines: obs::timelines_from_trace(trace),
        attribution: obs::attribute(op, trace),
        elapsed: trace.makespan(),
    }
}

/// Bytes per framed wire record the net time model charges: 64 blocks
/// (256 KiB), so every record pays the link's per-message latency on
/// top of serialization. Matches the dump engines' data-run framing.
pub const NET_RECORD_BYTES: u64 = 64 * 4096;

/// The filer model rebased onto a replication link: the "tape" pipeline
/// becomes the wire. The effective rate folds per-record latency into
/// bandwidth ([`LinkSpec::transfer_secs`] over [`NET_RECORD_BYTES`]);
/// a link has no start/stop streaming loss and no striping loss — those
/// are tape-mechanism artifacts.
fn net_model(model: &FilerModel, link: &LinkSpec) -> FilerModel {
    let mut m = *model;
    m.tape_rate = NET_RECORD_BYTES as f64 / link.transfer_secs(NET_RECORD_BYTES);
    m.logical_tape_eff = 1.0;
    m.stripe_loss_per_drive = 0.0;
    m
}

/// Solves the fluid model for one operation whose stream lands on a
/// network link instead of tape drives.
///
/// The resource layout is the one structural difference from
/// [`simulate_op`]: all streams share **one** `net` resource (a link is
/// a shared channel, dslab-style), where the tape path gives every
/// stream its own drive. Stage demands charged to the "tape" slot land
/// on the link at the link's effective rate.
pub fn simulate_op_net(
    op: &'static str,
    streams: &[Vec<StageProfile>],
    arms: f64,
    kind: OpKind,
    model: &FilerModel,
    link: &LinkSpec,
) -> SimOp {
    let n = streams.len();
    let m = net_model(model, link);
    let mut sim = FluidSim::new();
    let cpu = sim.add_resource("cpu", 1.0);
    let disk = sim.add_resource("disk", arms);
    let meta = sim.add_resource("meta", 1.0);
    let net = sim.add_resource("net", 1.0);
    for (i, stages) in streams.iter().enumerate() {
        let ids = ResourceIds {
            cpu,
            disk,
            tape: net,
            meta,
        };
        let fluid_stages = stages
            .iter()
            .map(|p| stage_to_fluid(p, &m, &ids, n, kind))
            .collect();
        sim.add_stream(Stream {
            name: format!("{op} #{i}"),
            start_at: 0.0,
            stages: fluid_stages,
        });
    }
    let trace = sim.run().expect("fluid model solvable");
    fold_trace(op, streams, &trace, cpu)
}

/// Scales a profiler's stages to paper size.
fn scaled_stages(stages: &[StageProfile], factor: f64) -> Vec<StageProfile> {
    stages.iter().map(|p| p.scaled(factor)).collect()
}

/// Everything measured from one functional pass over a built volume.
pub struct FunctionalRuns {
    /// Whole-volume logical dump stages.
    pub logical_dump: Vec<StageProfile>,
    /// Whole-volume logical restore stages.
    pub logical_restore: Vec<StageProfile>,
    /// Image dump stages.
    pub image_dump: Vec<StageProfile>,
    /// Image restore stages.
    pub image_restore: Vec<StageProfile>,
    /// Whole-volume logical dump span forest (for the obs artifact).
    pub logical_dump_spans: Vec<obs::Span>,
    /// Whole-volume logical restore span forest.
    pub logical_restore_spans: Vec<obs::Span>,
    /// Image dump span forest.
    pub image_dump_spans: Vec<obs::Span>,
    /// Image restore span forest.
    pub image_restore_spans: Vec<obs::Span>,
    /// Trace events drained after the logical dump (empty when tracing is
    /// off; span ids refer to the matching span forest).
    pub logical_dump_events: Vec<obs::event::Event>,
    /// Trace events for the logical restore.
    pub logical_restore_events: Vec<obs::event::Event>,
    /// Trace events for the image dump.
    pub image_dump_events: Vec<obs::event::Event>,
    /// Trace events for the image restore.
    pub image_restore_events: Vec<obs::event::Event>,
    /// Per-qtree logical dump stages (for the parallel experiments).
    pub qtree_dumps: Vec<Vec<StageProfile>>,
    /// Per-qtree logical restore stages.
    pub qtree_restores: Vec<Vec<StageProfile>>,
    /// Data blocks in the logical dump.
    pub logical_blocks: u64,
    /// Blocks in the image dump.
    pub image_blocks: u64,
    /// Files dumped.
    pub files: u64,
}

/// Runs every functional backup/restore pass the tables need.
pub fn functional_runs(home: &mut BuiltVolume) -> FunctionalRuns {
    let geometry = home.profile.geometry.clone();
    let mut catalog = DumpCatalog::new();
    let tape_blank = 64 * (1u64 << 30);

    // Shed anything the build phase emitted: the per-operation drains
    // below must only see their own operation's events.
    let _ = obs::event::drain();

    eprintln!("[run] logical dump (whole volume)...");
    let mut tape_l = TapeDrive::new(TapePerf::dlt7000(), tape_blank);
    let ld = dump(
        &mut home.fs,
        &mut tape_l,
        &mut catalog,
        &DumpOptions {
            volume_name: home.profile.name.clone(),
            ..DumpOptions::default()
        },
    )
    .expect("logical dump");
    let logical_dump_events = obs::event::drain().events;

    eprintln!("[run] logical restore (whole volume)...");
    let mut fresh = Wafl::format_with(
        Volume::new(geometry.clone()),
        WaflConfig::default(),
        home.fs.meter(),
        CostModel::f630(),
    )
    .expect("format restore target");
    let lr = restore(&mut fresh, &mut tape_l, "/").expect("logical restore");
    drop(fresh);
    drop(tape_l);
    let logical_restore_events = obs::event::drain().events;

    eprintln!("[run] image dump...");
    let mut tape_p = TapeDrive::new(TapePerf::dlt7000(), tape_blank);
    let pd = image_dump_full(&mut home.fs, &mut tape_p, "image.base").expect("image dump");
    let image_dump_events = obs::event::drain().events;

    eprintln!("[run] image restore...");
    let mut fresh_vol = Volume::new(geometry.clone());
    let meter = home.fs.meter();
    let pr = image_restore(&mut tape_p, &mut fresh_vol, &meter, &CostModel::f630())
        .expect("image restore");
    drop(fresh_vol);
    drop(tape_p);
    let image_restore_events = obs::event::drain().events;

    // Per-qtree passes for the parallel tables.
    let mut qtree_dumps = Vec::new();
    let mut qtree_restores = Vec::new();
    if !home.outcome.qtree_paths.is_empty() {
        let mut target = Wafl::format_with(
            Volume::new(geometry),
            WaflConfig::default(),
            home.fs.meter(),
            CostModel::f630(),
        )
        .expect("format qtree restore target");
        for (i, q) in home.outcome.qtree_paths.clone().iter().enumerate() {
            eprintln!("[run] logical dump + restore of {q}...");
            obs::event::set_stream(i as u32);
            let mut tape = TapeDrive::new(TapePerf::dlt7000(), tape_blank);
            let out = dump(
                &mut home.fs,
                &mut tape,
                &mut catalog,
                &DumpOptions {
                    subtree: q.clone(),
                    volume_name: home.profile.name.clone(),
                    ..DumpOptions::default()
                },
            )
            .expect("qtree dump");
            let scratch = format!("q{i}");
            target
                .create(INO_ROOT, &scratch, FileType::Dir, Attrs::default())
                .expect("scratch dir");
            let rout = restore(&mut target, &mut tape, &scratch).expect("qtree restore");
            qtree_dumps.push(out.profiler.stages());
            qtree_restores.push(rout.profiler.stages());
        }
        // The per-qtree spans do not survive into the merged parallel
        // streams, so their events have nothing to attach to; discard.
        obs::event::set_stream(0);
        let _ = obs::event::drain();
    }

    FunctionalRuns {
        logical_dump: ld.profiler.stages(),
        logical_restore: lr.profiler.stages(),
        image_dump: pd.profiler.stages(),
        image_restore: pr.profiler.stages(),
        logical_dump_spans: ld.profiler.spans(),
        logical_restore_spans: lr.profiler.spans(),
        image_dump_spans: pd.profiler.spans(),
        image_restore_spans: pr.profiler.spans(),
        logical_dump_events,
        logical_restore_events,
        image_dump_events,
        image_restore_events,
        qtree_dumps,
        qtree_restores,
        logical_blocks: ld.data_blocks,
        image_blocks: pd.blocks,
        files: ld.files,
    }
}

/// Runs the single-drive experiments (Tables 2 and 3).
pub fn run_basic(p: &Prepared, model: &FilerModel) -> BasicResults {
    let (runs, factor, arms) = (&p.runs, p.factor, p.arms);

    let ld = simulate_op(
        "Logical Dump",
        &[scaled_stages(&runs.logical_dump, factor)],
        arms,
        OpKind::LogicalDump,
        model,
    );
    // Restore reads the tape continuously, so it does not pay the dump
    // stream's start/stop efficiency loss.
    let lr = simulate_op(
        "Logical Restore",
        &[scaled_stages(&runs.logical_restore, factor)],
        arms,
        OpKind::LogicalRestore,
        model,
    );
    let pd = simulate_op(
        "Physical Dump",
        &[scaled_stages(&runs.image_dump, factor)],
        arms,
        OpKind::PhysicalDump,
        model,
    );
    let pr = simulate_op(
        "Physical Restore",
        &[scaled_stages(&runs.image_restore, factor)],
        arms,
        OpKind::PhysicalRestore,
        model,
    );

    let (obs, trace_events) = crate::obsout::assemble(
        "basic",
        factor,
        &[
            crate::obsout::OpObs {
                spans: &runs.logical_dump_spans,
                events: &runs.logical_dump_events,
                sim: &ld,
            },
            crate::obsout::OpObs {
                spans: &runs.logical_restore_spans,
                events: &runs.logical_restore_events,
                sim: &lr,
            },
            crate::obsout::OpObs {
                spans: &runs.image_dump_spans,
                events: &runs.image_dump_events,
                sim: &pd,
            },
            crate::obsout::OpObs {
                spans: &runs.image_restore_spans,
                events: &runs.image_restore_events,
                sim: &pr,
            },
        ],
    );

    let attribs = vec![
        ld.attribution.clone(),
        lr.attribution.clone(),
        pd.attribution.clone(),
        pr.attribution.clone(),
    ];

    let logical_bytes = (runs.logical_blocks as f64 * 4096.0 * factor) as u64;
    let physical_bytes = (runs.image_blocks as f64 * 4096.0 * factor) as u64;
    let summary = |name, elapsed, bytes: u64| OpSummary {
        name,
        elapsed,
        mb_s: simkit::units::mib_per_sec(bytes, elapsed),
        gb_h: simkit::units::gib_per_hour(bytes, elapsed),
    };
    let table2 = vec![
        summary("Logical Backup", ld.elapsed, logical_bytes),
        summary("Logical Restore", lr.elapsed, logical_bytes),
        summary("Physical Backup", pd.elapsed, physical_bytes),
        summary("Physical Restore", pr.elapsed, physical_bytes),
    ];
    let mut table3 = Vec::new();
    table3.extend(ld.rows);
    table3.extend(lr.rows);
    table3.extend(pd.rows);
    table3.extend(pr.rows);

    BasicResults {
        table2,
        table3,
        logical_bytes,
        physical_bytes,
        files: (runs.files as f64 * factor) as u64,
        frag: p.frag,
        obs,
        trace_events,
        attribs,
    }
}

/// Results for a parallel experiment (Tables 4 and 5).
#[derive(Debug)]
pub struct ParallelResults {
    /// Tape drives used.
    pub n_drives: usize,
    /// Stage rows across all four operations.
    pub rows: Vec<StageRow>,
    /// Logical backup throughput, GB/h.
    pub logical_gb_h: f64,
    /// Physical backup throughput, GB/h.
    pub physical_gb_h: f64,
    /// Logical restore makespan, seconds.
    pub logical_restore_elapsed: f64,
    /// Physical restore makespan, seconds.
    pub physical_restore_elapsed: f64,
    /// Spans-only observability artifact (operation roots with their
    /// solved stage windows; the binaries rename and write it).
    pub obs: obs::Artifact,
    /// Per-operation bottleneck attribution, in table order (Logical
    /// Backup, Logical Restore, Physical Backup, Physical Restore).
    pub attribs: Vec<obs::OpAttribution>,
}

/// Distributes `parts` (per-qtree stage lists) over `n` streams, merging
/// the qtrees assigned to one drive into a single combined dump (the
/// operator makes "n equal sized independent pieces": with 2 drives each
/// piece is two qtrees dumped as one stream).
fn merge_into_streams(
    parts: &[Vec<StageProfile>],
    n: usize,
    factor: f64,
) -> Vec<Vec<StageProfile>> {
    let mut streams: Vec<Vec<StageProfile>> = vec![Vec::new(); n];
    for (i, part) in parts.iter().enumerate() {
        let target = &mut streams[i % n];
        for p in scaled_stages(part, factor) {
            if let Some(existing) = target.iter_mut().find(|e| e.name == p.name) {
                existing.cpu_secs += p.cpu_secs;
                existing.disk_seq_read += p.disk_seq_read;
                existing.disk_rand_read += p.disk_rand_read;
                existing.disk_seq_write += p.disk_seq_write;
                existing.disk_rand_write += p.disk_rand_write;
                existing.tape_bytes += p.tape_bytes;
                existing.files += p.files;
                existing.dirs += p.dirs;
                existing.blocks += p.blocks;
            } else {
                target.push(p);
            }
        }
    }
    streams
}

/// Runs a parallel experiment with `n` tape drives.
///
/// Logical work is the volume's qtrees distributed over the drives (the
/// paper's "4 equal sized independent pieces"); physical work is the image
/// stream striped evenly.
pub fn run_parallel(p: &Prepared, model: &FilerModel, n: usize) -> ParallelResults {
    assert!(n >= 1);
    let (runs, factor, arms) = (&p.runs, p.factor, p.arms);

    // Logical: chain qtree dumps/restores onto n drives, dropping the
    // per-dump snapshot rows (the paper's parallel tables omit them too).
    let strip_snapshots = |stages: Vec<Vec<StageProfile>>| -> Vec<Vec<StageProfile>> {
        stages
            .into_iter()
            .map(|s| {
                s.into_iter()
                    .filter(|p| !p.name.contains("snapshot"))
                    .collect()
            })
            .collect()
    };
    let ld_streams = strip_snapshots(merge_into_streams(&runs.qtree_dumps, n, factor));
    let lr_streams = strip_snapshots(merge_into_streams(&runs.qtree_restores, n, factor));
    let ld = simulate_op(
        "Logical Backup",
        &ld_streams,
        arms,
        OpKind::LogicalDump,
        model,
    );
    let lr = simulate_op(
        "Logical Restore",
        &lr_streams,
        arms,
        OpKind::LogicalRestore,
        model,
    );

    // Physical: stripe the image evenly across drives.
    let stripe = |stages: &[StageProfile]| -> Vec<Vec<StageProfile>> {
        (0..n)
            .map(|_| {
                stages
                    .iter()
                    .filter(|p| !p.name.contains("snapshot"))
                    .map(|p| p.scaled(factor / n as f64))
                    .collect()
            })
            .collect()
    };
    let pd = simulate_op(
        "Physical Backup",
        &stripe(&runs.image_dump),
        arms,
        OpKind::PhysicalDump,
        model,
    );
    let pr = simulate_op(
        "Physical Restore",
        &stripe(&runs.image_restore),
        arms,
        OpKind::PhysicalRestore,
        model,
    );

    let logical_bytes = (runs.logical_blocks as f64 * 4096.0 * factor) as u64;
    let physical_bytes = (runs.image_blocks as f64 * 4096.0 * factor) as u64;
    let mut rows = Vec::new();
    let logical_gb_h = simkit::units::gib_per_hour(logical_bytes, ld.elapsed);
    let physical_gb_h = simkit::units::gib_per_hour(physical_bytes, pd.elapsed);
    let lr_elapsed = lr.elapsed;
    let pr_elapsed = pr.elapsed;
    let obs = crate::obsout::assemble_sim_only(
        &format!("parallel{n}"),
        &[
            ("Logical Backup", &ld),
            ("Logical Restore", &lr),
            ("Physical Backup", &pd),
            ("Physical Restore", &pr),
        ],
    );
    let attribs = vec![
        ld.attribution.clone(),
        lr.attribution.clone(),
        pd.attribution.clone(),
        pr.attribution.clone(),
    ];
    rows.extend(ld.rows);
    rows.extend(lr.rows);
    rows.extend(pd.rows);
    rows.extend(pr.rows);

    ParallelResults {
        n_drives: n,
        rows,
        logical_gb_h,
        physical_gb_h,
        logical_restore_elapsed: lr_elapsed,
        physical_restore_elapsed: pr_elapsed,
        obs,
        attribs,
    }
}

/// One point of the scaling study (§5.3 summary).
#[derive(Debug, Clone)]
pub struct ScalePoint {
    /// Strategy name.
    pub strategy: &'static str,
    /// Tape drives.
    pub drives: usize,
    /// Backup throughput, GB/h.
    pub gb_h: f64,
    /// Per-drive throughput, GB/h.
    pub per_tape: f64,
}

/// Everything the solves read from one built and exercised volume: the
/// functional pass's measurements plus the three volume facts that
/// re-scale and place them. Plain data — the file system itself is gone
/// by the time a [`Prepared`] exists.
pub struct Prepared {
    /// The measured stage profiles, spans and trace events.
    pub runs: FunctionalRuns,
    /// Measurement → paper-size factor ([`BuiltVolume::paper_factor`]).
    pub factor: f64,
    /// Disk arms the solves share (every disk of the volume's geometry).
    pub arms: f64,
    /// Fragmentation of the aged source volume.
    pub frag: f64,
}

/// Builds `home` at `scale` and runs the functional pass every table
/// needs, then drops the volume.
pub fn prepare(scale: f64, seed: u64) -> Prepared {
    let mut home = build_home(scale, seed);
    let runs = functional_runs(&mut home);
    Prepared {
        runs,
        factor: home.paper_factor(),
        arms: home.profile.geometry.total_disks() as f64,
        frag: home.frag,
    }
}

/// The most tape drives any table, sweep or scaling point uses.
pub const MAX_DRIVES: usize = 6;

/// Every solve the paper's tables, the network table and the sweeps
/// report, computed once from one [`Prepared`]. The solves never touch
/// obs state, so each obs artifact here carries the metrics snapshot
/// [`prepare`] left behind.
pub struct Suite {
    /// The single-drive results (Tables 2 and 3).
    pub basic: BasicResults,
    /// The parallel results for 1..=[`MAX_DRIVES`] drives, in order
    /// (read through [`Suite::parallel`]).
    parallel: Vec<ParallelResults>,
    /// The tape-vs-network table and link sweep.
    pub net: NetResults,
}

impl Suite {
    /// Solves every operation of `p` for each configuration.
    pub fn compute(p: &Prepared, model: &FilerModel) -> Suite {
        Suite {
            basic: run_basic(p, model),
            parallel: (1..=MAX_DRIVES)
                .map(|n| run_parallel(p, model, n))
                .collect(),
            net: run_net(p, model),
        }
    }

    /// The parallel results for `n` drives (1..=[`MAX_DRIVES`]).
    pub fn parallel(&self, n: usize) -> &ParallelResults {
        &self.parallel[n - 1]
    }

    /// The §5.3 scaling points: logical backup at 1, 2 and 4 drives (the
    /// counts that split `home`'s four qtrees evenly), physical at every
    /// drive count.
    pub fn scaling(&self) -> Vec<ScalePoint> {
        let point = |strategy, n: usize, gb_h: f64| ScalePoint {
            strategy,
            drives: n,
            gb_h,
            per_tape: gb_h / n as f64,
        };
        let logical = [1, 2, 4].map(|n| point("logical", n, self.parallel(n).logical_gb_h));
        let physical = self
            .parallel
            .iter()
            .map(|r| point("physical", r.n_drives, r.physical_gb_h));
        logical.into_iter().chain(physical).collect()
    }
}

/// The network links the crossover table and sweep evaluate, as
/// `(target label, decimal Mbit/s)`. Labels are the same names
/// [`backup_core::Target::parse`] accepts.
pub const NET_LINKS: &[(&str, f64)] =
    &[("100mbit", 100.0), ("1gbit", 1000.0), ("10gbit", 10_000.0)];

/// The preset [`LinkSpec`] behind one of the [`NET_LINKS`] labels.
fn link_for(label: &str) -> LinkSpec {
    match backup_core::Target::parse(label) {
        Some(backup_core::Target::Net(spec)) => spec,
        _ => unreachable!("NET_LINKS entries are net targets"),
    }
}

/// One row of the tape-vs-network crossover table.
#[derive(Debug, Clone)]
pub struct NetRow {
    /// Operation name.
    pub op: &'static str,
    /// Target label ("tape", "100mbit", "1gbit", "10gbit").
    pub target: String,
    /// Makespan, seconds.
    pub elapsed: f64,
    /// Data moved / elapsed, MB/s.
    pub mb_s: f64,
    /// Dominant binding class over the run ("tape", "net", "disk", ...).
    pub dominant: String,
    /// Class critical-path shares, for the per-cell attribution column.
    pub class_shares: Vec<(String, f64)>,
}

/// Results of the tape-vs-network experiment (`bench net`).
#[derive(Debug)]
pub struct NetResults {
    /// Crossover-table rows, operation-major then target in
    /// tape-first, ascending-bandwidth order.
    pub rows: Vec<NetRow>,
    /// Per-cell attribution under the "table_net" name; ops are
    /// labelled `"<op> @ <target>"` so a claim can pin one cell.
    pub table: obs::AttribReport,
    /// The link-bandwidth sweep (param = decimal Mbit/s, base op
    /// labels) driving crossover detection and the claims gate.
    pub sweep: obs::SweepReport,
    /// Spans-only obs artifact ("table_net"), one root span per cell.
    pub obs: obs::Artifact,
}

/// Runs every operation against tape and each [`NET_LINKS`] link off
/// the same functional pass the other tables use: the tape cells are
/// the exact single-drive solves of [`run_basic`], the net cells swap
/// the drive for a shared link via [`simulate_op_net`].
pub fn run_net(p: &Prepared, model: &FilerModel) -> NetResults {
    let (runs, factor, arms) = (&p.runs, p.factor, p.arms);
    let logical_bytes = (runs.logical_blocks as f64 * 4096.0 * factor) as u64;
    let physical_bytes = (runs.image_blocks as f64 * 4096.0 * factor) as u64;

    let ops: [(&'static str, &[StageProfile], OpKind, u64); 4] = [
        (
            "Logical Backup",
            &runs.logical_dump,
            OpKind::LogicalDump,
            logical_bytes,
        ),
        (
            "Logical Restore",
            &runs.logical_restore,
            OpKind::LogicalRestore,
            logical_bytes,
        ),
        (
            "Physical Backup",
            &runs.image_dump,
            OpKind::PhysicalDump,
            physical_bytes,
        ),
        (
            "Physical Restore",
            &runs.image_restore,
            OpKind::PhysicalRestore,
            physical_bytes,
        ),
    ];

    let mut rows = Vec::new();
    let mut sims: Vec<(String, SimOp)> = Vec::new();
    let mut sweep_ops: Vec<Vec<obs::OpAttribution>> = vec![Vec::new(); NET_LINKS.len()];
    for (op, stages, kind, bytes) in ops {
        let streams = [scaled_stages(stages, factor)];
        let row = |sim: &SimOp, target: &str| NetRow {
            op,
            target: target.to_string(),
            elapsed: sim.elapsed,
            mb_s: simkit::units::mib_per_sec(bytes, sim.elapsed),
            dominant: sim.attribution.dominant(),
            class_shares: sim.attribution.class_shares.clone(),
        };
        let tape_sim = simulate_op(op, &streams, arms, kind, model);
        rows.push(row(&tape_sim, "tape"));
        sims.push((format!("{op} @ tape"), tape_sim));
        for (li, (label, _)) in NET_LINKS.iter().enumerate() {
            let sim = simulate_op_net(op, &streams, arms, kind, model, &link_for(label));
            rows.push(row(&sim, label));
            sweep_ops[li].push(sim.attribution.clone());
            sims.push((format!("{op} @ {label}"), sim));
        }
    }

    let table = obs::AttribReport {
        experiment: "table_net".to_string(),
        ops: sims
            .iter()
            .map(|(label, sim)| {
                let mut a = sim.attribution.clone();
                a.op = label.clone();
                a
            })
            .collect(),
    };
    let sweep = obs::SweepReport {
        experiment: "net_sweep".to_string(),
        param: "link_mbit".to_string(),
        points: NET_LINKS
            .iter()
            .zip(sweep_ops)
            .map(|((_, mbit), ops)| SweepPoint { param: *mbit, ops })
            .collect(),
    };
    let named: Vec<(&str, &SimOp)> = sims.iter().map(|(l, s)| (l.as_str(), s)).collect();
    let obs = crate::obsout::assemble_sim_only("table_net", &named);

    NetResults {
        rows,
        table,
        sweep,
        obs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The suite over one tiny prepared volume, for the shape tests
    /// (building it is the expensive part).
    fn suite() -> Suite {
        Suite::compute(&prepare(1.0 / 1024.0, 7), &FilerModel::f630())
    }

    #[test]
    fn paper_shape_holds_end_to_end() {
        let basic = suite().basic;

        let get = |name: &str| {
            basic
                .table2
                .iter()
                .find(|r| r.name == name)
                .unwrap_or_else(|| panic!("{name} missing"))
                .clone()
        };
        let lb = get("Logical Backup");
        let lr = get("Logical Restore");
        let pb = get("Physical Backup");
        let pr = get("Physical Restore");

        // Table 2 shape: physical backup beats logical by roughly 20 %;
        // physical restore clearly beats logical restore.
        let backup_ratio = pb.mb_s / lb.mb_s;
        assert!(
            (1.05..1.6).contains(&backup_ratio),
            "backup ratio = {backup_ratio:.2}"
        );
        assert!(
            pr.mb_s > lr.mb_s * 1.2,
            "physical restore {:.2} must beat logical {:.2}",
            pr.mb_s,
            lr.mb_s
        );

        // Table 3 shape: CPU ratios. Logical dump's file pass uses several
        // times the CPU of physical dump's block pass.
        let stage = |op: &str, st: &str| {
            basic
                .table3
                .iter()
                .find(|r| r.op == op && r.stage == st)
                .unwrap_or_else(|| panic!("{op}/{st} missing"))
                .clone()
        };
        let files = stage("Logical Dump", "dumping files");
        let blocks = stage("Physical Dump", "dumping blocks");
        let cpu_ratio = files.cpu_util / blocks.cpu_util;
        assert!(
            (3.0..8.0).contains(&cpu_ratio),
            "cpu ratio = {cpu_ratio:.2}"
        );
        let fill = stage("Logical Restore", "filling in data");
        let rblocks = stage("Physical Restore", "restoring blocks");
        let restore_cpu_ratio = fill.cpu_util / rblocks.cpu_util;
        assert!(
            (2.0..6.0).contains(&restore_cpu_ratio),
            "restore cpu ratio = {restore_cpu_ratio:.2}"
        );

        // Both single-drive backups are tape-bound: tape throughput near
        // the drive's streaming rate.
        assert!(
            blocks.tape_mb_s > 7.5,
            "physical tape MB/s = {}",
            blocks.tape_mb_s
        );
        assert!(
            files.tape_mb_s > 6.0,
            "logical tape MB/s = {}",
            files.tape_mb_s
        );
    }

    #[test]
    fn obs_artifact_round_trips_and_covers_all_operations() {
        let mut artifact = suite().basic.obs;
        artifact.experiment = "unit".into();

        // One root span per operation, plus the stage spans under them.
        for root in [
            "logical dump",
            "logical restore",
            "image dump",
            "image restore",
        ] {
            assert!(
                artifact
                    .spans
                    .iter()
                    .any(|s| s.parent.is_none() && s.name == root),
                "missing root span {root}"
            );
        }
        assert!(
            artifact.spans.len() >= 6,
            "only {} spans",
            artifact.spans.len()
        );

        // Operations are laid end to end on one monotonic time axis, and
        // every child span sits inside its parent's window.
        let total: f64 = artifact
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.t1 - s.t0)
            .sum();
        for s in &artifact.spans {
            assert!(
                s.t1 >= s.t0 && s.t0 >= 0.0 && s.t1 <= total + 1e-6,
                "{}: bad window",
                s.name
            );
            if let Some(p) = s.parent {
                let parent = &artifact.spans[p];
                assert!(
                    s.t0 >= parent.t0 - 1e-9 && s.t1 <= parent.t1 + 1e-9,
                    "{} outside parent {}",
                    s.name,
                    parent.name
                );
            }
        }

        // Per-resource utilization is present and covers the whole axis.
        assert!(artifact.timelines.iter().any(|t| t.resource == "cpu"));
        assert!(artifact.timelines.iter().any(|t| t.resource == "disk"));
        assert!(artifact.timelines.iter().any(|t| t.resource == "tape0"));
        for tl in &artifact.timelines {
            assert!(tl.peak() <= 1.0 + 1e-9, "{} over capacity", tl.resource);
        }

        // The whole document survives the dependency-free JSON round trip.
        let text = artifact.to_json().render();
        let back = obs::Artifact::from_json(&obs::Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, artifact);
    }

    #[test]
    fn trace_events_land_inside_their_spans() {
        // Tracing state is thread-local, so enabling here cannot leak into
        // the other tests.
        obs::event::enable(obs::event::EventConfig::default());
        let basic = suite().basic;
        obs::event::disable();

        assert!(
            !basic.trace_events.is_empty(),
            "a traced run must surface events"
        );
        let spans = &basic.obs.spans;
        let mut seen_kinds = std::collections::BTreeSet::new();
        for te in &basic.trace_events {
            let id = te.event.span.expect("assign_times drops spanless events");
            let span = spans.get(id).expect("event span id resolves");
            assert!(
                te.t >= span.t0 - 1e-9 && te.t <= span.t1 + 1e-9,
                "{} event at t={} outside span {} [{}, {}]",
                te.event.kind.name(),
                te.t,
                span.name,
                span.t0,
                span.t1
            );
            seen_kinds.insert(te.event.kind.name());
        }
        // The four operations exercise disk, tape, and the phase markers.
        for kind in ["block_read", "tape_write", "phase_begin", "phase_end"] {
            assert!(
                seen_kinds.contains(kind),
                "no {kind} events: {seen_kinds:?}"
            );
        }

        // Tracing also feeds the size/latency histograms.
        assert!(
            basic
                .obs
                .histograms
                .iter()
                .any(|h| h.name == "disk.service_secs" && h.count > 0),
            "histograms: {:?}",
            basic
                .obs
                .histograms
                .iter()
                .map(|h| &h.name)
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn parallel_scaling_matches_the_paper() {
        let suite = suite();
        let (one, four) = (suite.parallel(1), suite.parallel(4));

        // Physical scales nearly linearly; logical saturates.
        let phys_speedup = four.physical_gb_h / one.physical_gb_h;
        assert!(
            (3.2..4.05).contains(&phys_speedup),
            "physical x{phys_speedup:.2}"
        );
        let log_speedup = four.logical_gb_h / one.logical_gb_h;
        assert!(
            log_speedup < phys_speedup - 0.4,
            "logical x{log_speedup:.2} should trail physical x{phys_speedup:.2}"
        );

        // §5.3: at 4 drives physical per-tape beats logical per-tape by
        // ~1.6x (27.6 vs 17.4 GB/h/tape).
        let ratio = four.physical_gb_h / four.logical_gb_h;
        assert!((1.25..2.2).contains(&ratio), "4-drive ratio = {ratio:.2}");

        // The 4-drive logical file pass: high CPU, tape well under
        // streaming speed — "the bottleneck in this case must be the
        // disks".
        let files = four
            .rows
            .iter()
            .find(|r| r.op == "Logical Backup" && r.stage == "dumping files")
            .expect("files row");
        assert!(files.cpu_util > 0.6, "cpu = {:.2}", files.cpu_util);
        let per_tape = files.tape_mb_s / 4.0;
        assert!(per_tape < 7.5, "per-tape MB/s = {per_tape:.2}");
    }
}
