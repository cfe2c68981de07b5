//! `backup`: the library user's bulk path.
//!
//! Set-up populates and ages `VolumeProfile::home(1/256)`. Each cycle
//! then runs a full logical dump, a logical restore into a fresh volume,
//! an image dump and an image restore into a fresh volume, all on
//! `TapePerf::dlt7000()` drives, and checks both restores. Dump reads
//! sit beside restore writes: the logical path walks per file
//! (scattered reads, the wafl create path, NVRAM); the physical path
//! streams blocks in block order through raid and bypasses wafl. There
//! is no fluid solve and no artifact output.

use std::rc::Rc;
use std::time::Instant;

use backup_core::logical::catalog::DumpCatalog;
use backup_core::logical::dump::dump;
use backup_core::logical::dump::DumpOptions;
use backup_core::logical::restore::restore;
use backup_core::physical::dump::image_dump_full;
use backup_core::physical::restore::image_restore;
use backup_core::verify::compare_trees;
use backup_core::verify::compare_used_blocks;
use raid::Volume;
use simkit::meter::Meter;
use tape::TapeDrive;
use tape::TapePerf;
use wafl::cost::CostModel;
use wafl::types::WaflConfig;
use wafl::Wafl;
use workload::age::age;
use workload::age::AgingOptions;
use workload::populate::populate;
use workload::profile::VolumeProfile;

use crate::Config;
use crate::DiskOps;
use crate::Run;
use crate::Size;
use crate::Stop;

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// Bytes per file-system block.
const BLOCK: f64 = 4096.0;

fn scale(size: Size) -> f64 {
    match size {
        Size::Bench => 1.0 / 256.0,
        Size::Smoke => 1.0 / 1024.0,
    }
}

/// MB/s for `blocks` 4 KiB blocks moved in `secs`.
fn mb_s(blocks: u64, secs: f64) -> f64 {
    blocks as f64 * BLOCK / 1e6 / secs
}

/// Populates and ages `profile` as `bench` does, timing each step as a
/// `workload` span. Returns the volume and the host seconds taken.
pub fn build(run: &mut Run, profile: &VolumeProfile, seed: u64) -> Result<(Wafl, f64), Stop> {
    let (r, populate_s) = run.call("workload.populate", || {
        populate(profile, seed, Meter::new_shared(), CostModel::f630())
    });
    let (mut fs, _) = run.op("populate", r)?;
    let (cps, appends) = (fs.cp_count(), fs.nvram().stats().appends);
    run.layer("workload.populate.host_s", populate_s);
    run.tally("wafl.populate.cps", cps as f64);
    run.tally("nvram.populate.appends", appends as f64);

    let opts = AgingOptions::from_profile(profile);
    let (r, age_s) = run.call("workload.age", || {
        age(&mut fs, profile, &opts, seed ^ 0xa9e)
    });
    run.op("age", r)?;
    run.layer("workload.age.host_s", age_s);
    run.tally("wafl.age.cps", (fs.cp_count() - cps) as f64);
    run.tally(
        "nvram.age.appends",
        (fs.nvram().stats().appends - appends) as f64,
    );
    Ok((fs, populate_s + age_s))
}

/// A fresh drive of the kind the paper used.
pub fn drive() -> TapeDrive {
    TapeDrive::new(TapePerf::dlt7000(), u64::MAX)
}

/// Runs the `backup` workload.
pub fn run(cfg: &Config, run: &mut Run) -> Result<(), Stop> {
    let profile = VolumeProfile::home(scale(cfg.size));
    run.fact("scale", scale(cfg.size));
    run.fact("setups", SETUPS);
    run.fact("threads", 1);
    run.fact("drive", "dlt7000");

    let mut src = None;
    for _ in 0..SETUPS {
        drop(src.take());
        let span = run.tracer.open("perfbench.setup");
        let built = build(run, &profile, cfg.seed);
        run.tracer.close(span);
        let (fs, secs) = built?;
        run.sample("setup_s", secs);
        src = Some(fs);
    }
    let mut src = src.expect("at least one set-up");
    run.cycles(cfg.seconds, 1, usize::MAX, |run, i| {
        cycle(run, &mut src, &profile, i)
    })?;
    Ok(())
}

/// One cycle: the four bulk operations, each checked. Returns the
/// measured host seconds, checks excluded.
fn cycle(run: &mut Run, src: &mut Wafl, profile: &VolumeProfile, i: usize) -> Result<f64, Stop> {
    let mut wall = 0.0;
    let mut check_s = 0.0;

    // Logical dump of the whole volume.
    let mut tape = drive();
    let mut catalog = DumpCatalog::new();
    let d0 = DiskOps::now();
    let (r, secs, used) = run.call_media("core.logical_dump", &mut tape, |m| {
        dump(src, m, &mut catalog, &DumpOptions::default())
    });
    let out = run.op("logical dump", r)?;
    wall += secs;
    run.disk(
        [
            "blockdev.logical_dump.seq_read_ops",
            "blockdev.logical_dump.rand_read_ops",
            "blockdev.logical_dump.write_ops",
        ],
        DiskOps::since(d0),
    );
    run.sample("logical_dump_mb_s", mb_s(out.data_blocks, secs));
    run.layer("core.logical_dump.self_s", secs - used.secs);
    run.layer("tape.logical_dump.host_s", used.secs);
    run.layer("tape.logical_dump.records", used.records as f64);
    run.tally("core.logical_dump.data_blocks", out.data_blocks as f64);
    run.count(
        "tape.logical_dump.total_records",
        tape.total_records() as f64,
    );

    // Logical restore into a fresh volume.
    let (dst, secs) = run.call("wafl.format", || {
        Wafl::format(Volume::new(profile.geometry.clone()), WaflConfig::default())
    });
    let mut dst = run.op("format restore target", dst)?;
    wall += secs;
    let (cps, appends) = (dst.cp_count(), dst.nvram().stats().appends);
    let d0 = DiskOps::now();
    let (r, secs, used) = run.call_media("core.logical_restore", &mut tape, |m| {
        restore(&mut dst, m, "/")
    });
    let out = run.op("logical restore", r)?;
    wall += secs;
    run.disk(
        [
            "blockdev.logical_restore.seq_read_ops",
            "blockdev.logical_restore.rand_read_ops",
            "blockdev.logical_restore.write_ops",
        ],
        DiskOps::since(d0),
    );
    run.sample("logical_restore_mb_s", mb_s(out.data_blocks, secs));
    run.layer("core.logical_restore.self_s", secs - used.secs);
    run.layer("tape.logical_restore.host_s", used.secs);
    run.layer("tape.logical_restore.records", used.records as f64);
    run.tally("wafl.logical_restore.cps", (dst.cp_count() - cps) as f64);
    run.tally(
        "nvram.logical_restore.appends",
        (dst.nvram().stats().appends - appends) as f64,
    );
    let t = Instant::now();
    run.ensure("logical restore warnings", out.warnings.is_empty(), || {
        format!("{:?}", out.warnings)
    })?;
    let diffs = compare_trees(src, &mut dst);
    run.check("logical restore equals the source", diffs)?;
    check_s += t.elapsed().as_secs_f64();
    drop((tape, dst));

    // Image dump of every allocated block, anchored to a new snapshot.
    let snap = format!("perfbench.{i}");
    let mut tape = drive();
    let d0 = DiskOps::now();
    let (r, secs, used) = run.call_media("core.image_dump", &mut tape, |m| {
        image_dump_full(src, m, &snap)
    });
    let out = run.op("image dump", r)?;
    wall += secs;
    run.disk(
        [
            "blockdev.image_dump.seq_read_ops",
            "blockdev.image_dump.rand_read_ops",
            "blockdev.image_dump.write_ops",
        ],
        DiskOps::since(d0),
    );
    run.sample("image_dump_mb_s", mb_s(out.blocks, secs));
    run.layer("core.image_dump.self_s", secs - used.secs);
    run.layer("tape.image_dump.host_s", used.secs);
    run.layer("tape.image_dump.records", used.records as f64);
    run.tally("core.image_dump.blocks", out.blocks as f64);
    run.count("tape.image_dump.total_records", tape.total_records() as f64);

    // Image restore onto a fresh volume.
    let (mut raw, secs) = run.call("raid.volume_new", || Volume::new(profile.geometry.clone()));
    wall += secs;
    let meter: Rc<Meter> = src.meter();
    let costs = *src.costs();
    let d0 = DiskOps::now();
    let (r, secs, used) = run.call_media("core.image_restore", &mut tape, |m| {
        image_restore(m, &mut raw, &meter, &costs)
    });
    let out = run.op("image restore", r)?;
    wall += secs;
    run.disk(
        [
            "blockdev.image_restore.seq_read_ops",
            "blockdev.image_restore.rand_read_ops",
            "blockdev.image_restore.write_ops",
        ],
        DiskOps::since(d0),
    );
    run.sample("image_restore_mb_s", mb_s(out.blocks, secs));
    run.layer("core.image_restore.self_s", secs - used.secs);
    run.layer("tape.image_restore.host_s", used.secs);
    run.layer("tape.image_restore.records", used.records as f64);
    let t = Instant::now();
    let mismatches = compare_used_blocks(src, &mut raw);
    run.check("image restore matches every used block", mismatches)?;
    check_s += t.elapsed().as_secs_f64();
    drop((tape, raw));

    // Drop the image's anchor snapshot so every cycle dumps the same set.
    let id = src.snapshot_by_name(&snap).map(|e| e.id);
    let (r, secs) = run.call("wafl.snapshot_delete", || match id {
        Some(id) => src.snapshot_delete(id).map_err(|e| format!("{e:?}")),
        None => Err(format!("image dump left no snapshot {snap}")),
    });
    run.op("delete image snapshot", r)?;
    wall += secs;

    run.layer("check.backup.host_s", check_s);
    Ok(wall)
}
