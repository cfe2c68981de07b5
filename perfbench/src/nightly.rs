//! `nightly`: the operator's steady state.
//!
//! Set-up populates and ages `VolumeProfile::home(1/256)`, takes a
//! level-0 logical dump to tape, and makes the first mirror transfer
//! over a `net::NetTarget` on `LinkSpec::gbit1()`. Each cycle is one
//! round: a balanced churn pass, a level-1 logical dump to tape, an
//! incremental mirror sync, and two seeded single-file restores from
//! the level-0 tape. The fixed cost of each operation dominates here,
//! so a bulk-path gain in `backup` that adds per-operation cost shows.

use std::time::Instant;

use backup_core::logical::catalog::DumpCatalog;
use backup_core::logical::dump::dump;
use backup_core::logical::dump::DumpOptions;
use backup_core::logical::single::restore_single;
use backup_core::physical::mirror::Mirror;
use backup_core::verify::compare_subtrees;
use backup_core::verify::compare_trees;
use net::LinkSpec;
use net::NetTarget;
use nvram::NvramLog;
use raid::Volume;
use simkit::media::Media;
use simkit::meter::Meter;
use simkit::rng::SimRng;
use tape::TapeDrive;
use wafl::cost::CostModel;
use wafl::types::Attrs;
use wafl::types::FileType;
use wafl::types::WaflConfig;
use wafl::types::INO_ROOT;
use wafl::Wafl;
use wafl::WaflError;
use workload::churn::churn;
use workload::churn::ChurnOptions;
use workload::profile::VolumeProfile;

use crate::backup::build;
use crate::backup::drive;
use crate::backup::SETUPS;
use crate::Config;
use crate::DiskOps;
use crate::Run;
use crate::Size;
use crate::Stop;

/// Single-file restores per round.
pub const RESTORES_PER_ROUND: usize = 2;

/// Rounds every run makes, however short, and whose counts are guarded.
const GUARD_ROUNDS: usize = 5;

/// Rounds a run makes at most. Each level-1 dump carries everything
/// changed since the level 0, so later rounds cost more: a fixed round
/// count keeps the per-operation percentiles comparable between runs
/// as long as `--seconds` leaves room for all of them.
const MAX_ROUNDS: usize = 100;

/// The default `ChurnOptions` create twice what they delete and grow
/// the volume about 1 % a round; an aged 1/256 volume then runs out of
/// space before round 100. Deleting as many files as are created keeps
/// the traffic steady for as many rounds as a run makes.
const BALANCED: ChurnOptions = ChurnOptions {
    modify_fraction: 0.05,
    delete_fraction: 0.01,
    create_fraction: 0.01,
};

fn scale(size: Size) -> f64 {
    match size {
        Size::Bench => 1.0 / 256.0,
        Size::Smoke => 1.0 / 1024.0,
    }
}

/// What set-up leaves for the rounds.
struct Site {
    profile: VolumeProfile,
    seed: u64,
    src: Wafl,
    catalog: DumpCatalog,
    level0: TapeDrive,
    mirror: Mirror,
    replica: Volume,
    link: NetTarget,
}

/// Every regular file's path, in directory order.
fn file_paths(fs: &Wafl) -> Result<Vec<String>, WaflError> {
    let mut out = Vec::new();
    let mut stack = vec![(INO_ROOT, String::new())];
    while let Some((dir, path)) = stack.pop() {
        for (name, ino) in fs.readdir(dir)? {
            let child = format!("{path}/{name}");
            match fs.stat(ino)?.ftype {
                FileType::Dir => stack.push((ino, child)),
                FileType::File => out.push(child),
                FileType::Symlink => {}
            }
        }
    }
    Ok(out)
}

/// Mounts a block-for-block copy of `vol`, leaving `vol` free to take
/// further syncs (as `examples/mirroring.rs` does).
fn mount_copy(vol: &mut Volume) -> Result<Wafl, String> {
    let mut copy = Volume::new(vol.geometry().clone());
    for bno in 0..vol.capacity() {
        let b = vol.read_block(bno).map_err(|e| format!("{e:?}"))?;
        copy.write_block(bno, b).map_err(|e| format!("{e:?}"))?;
    }
    copy.sync().map_err(|e| format!("{e:?}"))?;
    Wafl::mount(
        copy,
        NvramLog::new(32 << 20),
        WaflConfig::default(),
        Meter::new_shared(),
        CostModel::zero(),
    )
    .map_err(|e| format!("{e:?}"))
}

fn setup(run: &mut Run, profile: &VolumeProfile, seed: u64) -> Result<(Site, f64), Stop> {
    let (mut src, mut secs) = build(run, profile, seed)?;

    let mut catalog = DumpCatalog::new();
    let mut level0 = drive();
    let (r, s) = run.call("core.logical_dump", || {
        dump(&mut src, &mut level0, &mut catalog, &DumpOptions::default())
    });
    let out = run.op("level-0 dump", r)?;
    secs += s;
    run.count("core.level0.data_blocks", out.data_blocks as f64);

    let mut mirror = Mirror::new();
    let mut replica = Volume::new(profile.geometry.clone());
    let mut link = NetTarget::new(LinkSpec::gbit1());
    let meter = src.meter();
    let costs = *src.costs();
    let (r, s) = run.call("core.mirror_sync", || {
        mirror.sync_via(&mut src, &mut replica, &meter, &costs, &mut link)
    });
    let first = run.op("initial mirror transfer", r)?;
    secs += s;
    run.count("core.mirror_initial.blocks", first.blocks as f64);
    Ok((
        Site {
            profile: profile.clone(),
            seed,
            src,
            catalog,
            level0,
            mirror,
            replica,
            link,
        },
        secs,
    ))
}

/// The single-file restore requests and what they are checked against.
struct Requests {
    /// The level-0 tree, frozen while churn moves the source on.
    reference: Wafl,
    /// Every file of the level-0 tree.
    paths: Vec<String>,
    /// Where restored files land.
    scratch: Wafl,
    /// Picks the files to restore.
    rng: SimRng,
}

/// Runs the `nightly` workload.
pub fn run(cfg: &Config, run: &mut Run) -> Result<(), Stop> {
    let profile = VolumeProfile::home(scale(cfg.size));
    run.fact("scale", scale(cfg.size));
    run.fact("setups", SETUPS);
    run.fact("threads", 1);
    run.fact("link", "gbit1");

    let mut site = None;
    for _ in 0..SETUPS {
        drop(site.take());
        let span = run.tracer.open("perfbench.setup");
        let built = setup(run, &profile, cfg.seed);
        run.tracer.close(span);
        let (s, secs) = built?;
        run.sample("setup_s", secs);
        site = Some(s);
    }
    let mut site = site.expect("at least one set-up");

    // Right after set-up the replica holds the level-0 tree.
    let t = Instant::now();
    let r = mount_copy(&mut site.replica);
    let reference = run.op("mount level-0 reference", r)?;
    let r = file_paths(&reference);
    let paths = run.op("list level-0 files", r)?;
    run.ensure("level-0 has files", !paths.is_empty(), || "no files".into())?;
    let r = Wafl::format(Volume::new(profile.geometry.clone()), WaflConfig::default());
    let scratch = run.op("format restore scratch", r)?;
    run.fact("reference_prep_s", t.elapsed().as_secs_f64());
    let mut req = Requests {
        reference,
        paths,
        scratch,
        rng: SimRng::seed_from_u64(cfg.seed ^ 0x5eed),
    };

    let rounds = run.cycles(cfg.seconds, GUARD_ROUNDS, MAX_ROUNDS, |run, i| {
        round(run, &mut site, &mut req, i)
    })?;
    run.fact("rounds", rounds);
    run.fact("restores", rounds * RESTORES_PER_ROUND);

    // After the rounds the replica must mount as an exact copy of the
    // source. Compare trees of a mounted copy, not
    // `compare_used_blocks(source, replica)`: retiring the old anchor
    // after each `sync_via` rewrites the source's active metadata, so a
    // block comparison reports mismatches on a replica that is correct.
    let t = Instant::now();
    let r = mount_copy(&mut site.replica);
    let mut mounted = run.op("mount replica", r)?;
    let diffs = compare_trees(&mut site.src, &mut mounted);
    run.check("replica equals the source", diffs)?;
    run.fact("replica_check_s", t.elapsed().as_secs_f64());
    Ok(())
}

/// One round; returns its measured host seconds, checks excluded.
fn round(run: &mut Run, site: &mut Site, req: &mut Requests, i: usize) -> Result<f64, Stop> {
    let mut wall = 0.0;
    let mut check_s = 0.0;
    let src = &mut site.src;

    // Balanced churn; each round's seed is distinct so new names never
    // collide with earlier rounds'.
    let (cps, appends) = (src.cp_count(), src.nvram().stats().appends);
    let churn_seed = site.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (i as u64 + 1);
    let (r, secs) = run.call("workload.churn", || {
        churn(src, &site.profile, &BALANCED, churn_seed)
    });
    run.op("churn", r)?;
    wall += secs;
    run.layer("workload.churn.host_ms_p50", secs * 1e3);
    run.tally("wafl.churn.cps", (src.cp_count() - cps) as f64);
    run.tally(
        "nvram.churn.appends",
        (src.nvram().stats().appends - appends) as f64,
    );

    // Level-1 dump: everything changed since the level 0.
    let mut tape = drive();
    let d0 = DiskOps::now();
    let opts = DumpOptions {
        level: 1,
        ..DumpOptions::default()
    };
    let (r, secs, used) = run.call_media("core.logical_incr", &mut tape, |m| {
        dump(src, m, &mut site.catalog, &opts)
    });
    let out = run.op("level-1 dump", r)?;
    wall += secs;
    run.disk(
        [
            "blockdev.logical_incr.seq_read_ops",
            "blockdev.logical_incr.rand_read_ops",
            "blockdev.logical_incr.write_ops",
        ],
        DiskOps::since(d0),
    );
    run.sample("logical_incr_ms", secs * 1e3);
    run.layer("core.logical_incr.self_ms_p50", (secs - used.secs) * 1e3);
    run.layer("tape.logical_incr.host_s", used.secs);
    run.layer("tape.logical_incr.records", used.records as f64);
    run.count("core.logical_incr.data_blocks", out.data_blocks as f64);
    run.count(
        "tape.logical_incr.total_records",
        tape.total_records() as f64,
    );
    drop(tape);

    // Incremental mirror sync over the link.
    let meter = src.meter();
    let costs = *src.costs();
    let (r, secs, used) = run.call_media("core.mirror_sync", &mut site.link, |m| {
        site.mirror
            .sync_via(src, &mut site.replica, &meter, &costs, m)
    });
    let sync = run.op("mirror sync", r)?;
    wall += secs;
    run.sample("mirror_sync_ms", secs * 1e3);
    run.layer("core.mirror_sync.self_ms_p50", (secs - used.secs) * 1e3);
    run.layer("net.mirror_sync.host_ms_p50", used.secs * 1e3);
    run.layer("net.mirror_sync.records_p50", used.records as f64);
    run.tally("core.mirror_sync.blocks_p50", sync.blocks as f64);
    run.count(
        "net.mirror_sync.total_records",
        site.link.total_records() as f64,
    );

    // Single-file restores from the level-0 tape, each into its own
    // directory of the scratch volume, each compared with the level-0
    // tree.
    for k in 0..RESTORES_PER_ROUND {
        let path = &req.paths[req.rng.range(0, req.paths.len() as u64) as usize];
        let dir_name = format!("r{}", i * RESTORES_PER_ROUND + k);
        let r = req
            .scratch
            .create(INO_ROOT, &dir_name, FileType::Dir, Attrs::default());
        run.op("make restore directory", r)?;
        let dir = format!("/{dir_name}");
        let (r, secs, used) = run.call_media("core.single_restore", &mut site.level0, |m| {
            restore_single(&mut req.scratch, m, path, &dir)
        });
        let out = run.op("single-file restore", r)?;
        wall += secs;
        run.sample("single_restore_ms", secs * 1e3);
        run.layer("core.single_restore.self_ms_p50", (secs - used.secs) * 1e3);
        run.layer("tape.single_restore.host_s", used.secs);
        run.layer("tape.single_restore.records", used.records as f64);
        run.layer("tape.single_restore.records_touched_p50", used.reads as f64);
        run.count("core.single_restore.data_blocks", out.data_blocks as f64);

        let t = Instant::now();
        run.ensure(
            "single-file restore warnings",
            out.warnings.is_empty(),
            || format!("{:?}", out.warnings),
        )?;
        let base = path.rsplit('/').next().expect("paths are non-empty");
        let diffs = compare_subtrees(
            &mut req.reference,
            path,
            &mut req.scratch,
            &format!("{dir}/{base}"),
        );
        run.check("restored file equals the level-0 file", diffs)?;
        check_s += t.elapsed().as_secs_f64();
    }
    run.layer("check.nightly.host_s", check_s);
    Ok(wall)
}
