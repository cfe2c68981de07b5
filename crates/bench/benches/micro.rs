//! Microbenchmarks for the hot paths of the simulator itself (host-side
//! costs, not modelled filer time). Hand-rolled harness: each bench runs a
//! short warmup, then timed batches, and reports the median per-iteration
//! time. Run with `cargo bench -p bench`.

use std::hint::black_box;
use std::time::Duration;
use std::time::Instant;

use blockdev::Block;
use blockdev::DiskPerf;
use raid::Raid4Group;
use raid::Volume;
use raid::VolumeGeometry;
use simkit::prelude::FluidSim;
use simkit::prelude::Stage;
use simkit::prelude::Stream;
use wafl::blkmap::BlkMap;
use wafl::types::Attrs;
use wafl::types::FileType;
use wafl::types::WaflConfig;
use wafl::types::INO_ROOT;
use wafl::Wafl;

/// Times `f` (setup outside the clock via `setup`) and prints the median
/// per-iteration wall time over `SAMPLES` batches.
fn bench<S, T, R>(name: &str, mut setup: impl FnMut() -> S, mut f: T)
where
    T: FnMut(S) -> R,
{
    const SAMPLES: usize = 15;
    const WARMUP: usize = 3;
    let budget = Duration::from_millis(200);

    // Warmup + estimate a batch size that fills ~budget/SAMPLES.
    let mut per_iter = Duration::ZERO;
    for _ in 0..WARMUP {
        let s = setup();
        let t0 = Instant::now();
        black_box(f(s));
        per_iter = t0.elapsed().max(Duration::from_nanos(1));
    }
    let iters_per_sample = ((budget.as_nanos() / SAMPLES as u128) / per_iter.as_nanos().max(1))
        .clamp(1, 10_000) as usize;

    let mut samples = Vec::with_capacity(SAMPLES);
    for _ in 0..SAMPLES {
        let inputs: Vec<S> = (0..iters_per_sample).map(|_| setup()).collect();
        let t0 = Instant::now();
        for s in inputs {
            black_box(f(s));
        }
        samples.push(t0.elapsed().as_secs_f64() / iters_per_sample as f64);
    }
    samples.sort_by(f64::total_cmp);
    let median = samples[SAMPLES / 2];
    let unit = if median < 1e-6 {
        format!("{:9.1} ns", median * 1e9)
    } else if median < 1e-3 {
        format!("{:9.2} µs", median * 1e6)
    } else {
        format!("{:9.3} ms", median * 1e3)
    };
    println!("{name:<28} {unit}   ({iters_per_sample} iters/sample)");
}

fn bench_blkmap() {
    bench(
        "blkmap/snap_create_1M",
        || {
            let mut m = BlkMap::new(1_000_000);
            for i in (0..1_000_000).step_by(3) {
                m.set_active(i);
            }
            m
        },
        |mut m| m.snap_create(1),
    );
    let mut m = BlkMap::new(1_000_000);
    for i in (0..1_000_000).step_by(3) {
        m.set_active(i);
    }
    m.snap_create(1);
    for i in (0..1_000_000).step_by(7) {
        m.set_active(i);
    }
    m.snap_create(2);
    bench("blkmap/iter_diff_1M", || &m, |m| m.iter_diff(2, 1).count());
}

fn bench_block_algebra() {
    let a = Block::Synthetic(1);
    let b2 = Block::Synthetic(2);
    bench("block/xor_synthetic", || (), |_| a.xor(&b2));
    bench(
        "block/materialize_synthetic",
        || (),
        |_| Block::Synthetic(7).materialize(),
    );
    let bytes = Block::from_bytes(&[7u8; 4096]);
    bench("block/xor_literal", || (), |_| a.xor(&bytes));
}

fn bench_raid_write() {
    bench(
        "raid4/write_64_blocks",
        || Raid4Group::new(8, 1024, DiskPerf::ideal()),
        |mut g| {
            for bno in 0..64u64 {
                g.write(bno, Block::Synthetic(bno)).unwrap();
            }
            g.flush().unwrap();
        },
    );
}

fn bench_wafl_write_path() {
    bench(
        "wafl/write_256_blocks",
        || {
            let vol = Volume::new(VolumeGeometry::uniform(1, 4, 8192, DiskPerf::ideal()));
            let mut fs = Wafl::format(vol, WaflConfig::default()).unwrap();
            let ino = fs
                .create(INO_ROOT, "bench", FileType::File, Attrs::default())
                .unwrap();
            (fs, ino)
        },
        |(mut fs, ino)| {
            for fbn in 0..256u64 {
                fs.write_fbn(ino, fbn, Block::Synthetic(fbn)).unwrap();
            }
            fs.cp().unwrap();
        },
    );
}

/// A formatted volume with `files` one-block files in the root directory.
fn small_fs(files: u64) -> Wafl {
    let vol = Volume::new(VolumeGeometry::uniform(1, 4, 16384, DiskPerf::ideal()));
    let mut fs = Wafl::format(vol, WaflConfig::default()).unwrap();
    for i in 0..files {
        let ino = fs
            .create(
                INO_ROOT,
                &format!("f{i:05}"),
                FileType::File,
                Attrs::default(),
            )
            .unwrap();
        fs.write_fbn(ino, 0, Block::Synthetic(i)).unwrap();
    }
    fs.cp().unwrap();
    fs
}

/// Per-operation wafl costs on one long-lived volume, so consistency
/// points and NVRAM upkeep are amortized as in a workload build.
fn bench_wafl_ops() {
    let mut fs = small_fs(1000);
    let mut seed = 0u64;
    bench(
        "wafl/create_write_remove",
        || (),
        |_| {
            let ino = fs
                .create(INO_ROOT, "scratch", FileType::File, Attrs::default())
                .unwrap();
            for fbn in 0..4 {
                seed += 1;
                fs.write_fbn(ino, fbn, Block::Synthetic(seed)).unwrap();
            }
            fs.remove(INO_ROOT, "scratch").unwrap();
        },
    );
    let ino = fs
        .create(INO_ROOT, "target", FileType::File, Attrs::default())
        .unwrap();
    let mut fbn = 0u64;
    bench(
        "wafl/write_fbn",
        || (),
        |_| {
            fbn = (fbn + 1) % 256;
            seed += 1;
            fs.write_fbn(ino, fbn, Block::Synthetic(seed)).unwrap();
        },
    );
}

fn bench_obs_counter() {
    // A few neighbours, so the lookup does not hit a one-entry registry.
    for name in [
        "disk.seq_read.ops",
        "disk.seq_read.bytes",
        "disk.rand_read.bytes",
        "tape.write.records",
    ] {
        obs::counter(name).inc();
    }
    bench(
        "obs/counter_inc",
        || (),
        |_| obs::counter("disk.rand_read.ops").inc(),
    );
}

fn bench_fluid_solver() {
    bench(
        "fluid/16_streams_3_stages",
        || (),
        |_| {
            let mut sim = FluidSim::new();
            let cpu = sim.add_resource("cpu", 1.0);
            let disk = sim.add_resource("disk", 31.0);
            for i in 0..16 {
                let tape = sim.add_resource(format!("t{i}"), 1.0);
                sim.add_stream(Stream {
                    name: format!("s{i}"),
                    start_at: i as f64 * 0.1,
                    stages: vec![
                        Stage::new("a", 100.0, vec![(cpu, 0.002), (disk, 0.01)]),
                        Stage::new("b", 500.0, vec![(tape, 0.01), (cpu, 0.0005)]),
                        Stage::new("c", 50.0, vec![(disk, 0.02)]),
                    ],
                });
            }
            sim.run().unwrap()
        },
    );
}

fn bench_dump_format() {
    use backup_core::logical::format::DumpRecord;
    let rec = DumpRecord::Data {
        ino: 42,
        fbns: (0..16).collect(),
        blocks: (0..16).map(Block::Synthetic).collect(),
    };
    bench(
        "format/dump_record_roundtrip",
        || (),
        |_| {
            let r = rec.to_record();
            DumpRecord::parse(&r).unwrap()
        },
    );
}

fn main() {
    println!("{:<28} {:>12}", "benchmark", "median/iter");
    bench_blkmap();
    bench_block_algebra();
    bench_raid_write();
    bench_wafl_write_path();
    bench_wafl_ops();
    bench_obs_counter();
    bench_fluid_solver();
    bench_dump_format();
}
