//! Golden simulated traffic for one small end-to-end cycle.
//!
//! Populates and ages a tiny volume (on the paper-era drive model, so
//! service times are non-zero), then runs a logical dump, a logical
//! restore, an image dump and an image restore. Every simulated quantity
//! the cycle produces is compared against constants: per-member
//! `DeviceStats` of all three volumes (parity spindles included, busy
//! seconds by bits), every `obs` counter and gauge, NVRAM appends,
//! consistency points, tape record counts and a digest of the tape
//! payloads. Host-side optimisations of the wafl → raid → blockdev path
//! must leave all of it unchanged; a deliberate model change re-records
//! the constants from the panic message.

use wafl_backup::blockdev::BlockDevice;
use wafl_backup::nvram;
use wafl_backup::obs;
use wafl_backup::prelude::*;
use wafl_backup::simkit::media::Chunk;
use wafl_backup::workload;

use workload::age::age;
use workload::age::AgingOptions;
use workload::populate::populate;
use workload::profile::VolumeProfile;

/// `(member, [seq read ops, seq read bytes, rand read ops, rand read
/// bytes, seq write ops, seq write bytes, rand write ops, rand write
/// bytes], busy seconds)`. Members are `<volume>.g<group>.d<disk>`; the
/// last disk of each group is its parity spindle.
const MEMBERS: &[(&str, [u64; 8], f64)] = &[
    (
        "src.g0.d0",
        [5847, 23949312, 607, 2486272, 3097, 12685312, 21, 86016],
        13.893370833331602,
    ),
    (
        "src.g0.d1",
        [5916, 24231936, 573, 2347008, 3096, 12681216, 21, 86016],
        13.500706249998265,
    ),
    (
        "src.g0.d2",
        [5905, 24186880, 564, 2310144, 3106, 12722176, 1, 4096],
        13.127374999998173,
    ),
    (
        "src.g0.d3",
        [5928, 24281088, 544, 2228224, 3104, 12713984, 3, 12288],
        12.90972812499821,
    ),
    (
        "src.g0.d4",
        [3105, 12718080, 23, 94208, 3105, 12718080, 23, 94208],
        4.6341166666664915,
    ),
    (
        "logical.g0.d0",
        [1648, 6750208, 5, 20480, 1648, 6750208, 5, 20480],
        2.2743437500000288,
    ),
    (
        "logical.g0.d1",
        [1648, 6750208, 5, 20480, 1648, 6750208, 5, 20480],
        2.2743437500000288,
    ),
    (
        "logical.g0.d2",
        [1649, 6754304, 1, 4096, 1649, 6754304, 1, 4096],
        2.1728375000000515,
    ),
    (
        "logical.g0.d3",
        [1649, 6754304, 1, 4096, 1649, 6754304, 1, 4096],
        2.1728375000000515,
    ),
    (
        "logical.g0.d4",
        [1652, 6766592, 6, 24576, 1652, 6766592, 6, 24576],
        2.305254166666694,
    ),
    (
        "image.g0.d0",
        [1614, 6610944, 15, 61440, 1614, 6610944, 15, 61440],
        2.4870937499999717,
    ),
    (
        "image.g0.d1",
        [1637, 6705152, 14, 57344, 1637, 6705152, 14, 57344],
        2.4913395833333096,
    ),
    (
        "image.g0.d2",
        [1631, 6680576, 12, 49152, 1631, 6680576, 12, 49152],
        2.432122916666651,
    ),
    (
        "image.g0.d3",
        [1632, 6684672, 14, 57344, 1632, 6684672, 14, 57344],
        2.484829166666637,
    ),
    (
        "image.g0.d4",
        [2179, 8925184, 10, 40960, 2179, 8925184, 10, 40960],
        3.094260416666507,
    ),
];

/// Every `obs::metrics::snapshot()` reading after the cycle, by name.
const METRICS: &[(&str, f64)] = &[
    ("disk.busy_secs", 82.2545593750661),
    ("disk.rand_read.bytes", 9805824.0),
    ("disk.rand_read.ops", 2394.0),
    ("disk.rand_write.bytes", 622592.0),
    ("disk.rand_write.ops", 152.0),
    ("disk.seq_read.bytes", 178749440.0),
    ("disk.seq_read.ops", 43640.0),
    ("disk.seq_write.bytes", 132902912.0),
    ("disk.seq_write.ops", 32447.0),
    ("tape.read.bytes", 53761320.0),
    ("tape.read.records", 3192.0),
    ("tape.reposition_secs", 180.0),
    ("tape.rewinds", 2.0),
    ("tape.stream_secs", 11.78638852875783),
    ("tape.write.bytes", 53761320.0),
    ("tape.write.records", 3192.0),
    ("wafl.consistency_points", 14.0),
    ("wafl.snapshot.creates", 2.0),
    ("wafl.snapshot.deletes", 1.0),
];

/// `(source, logical restore)` NVRAM appends.
const NVRAM_APPENDS: (u64, u64) = (16286, 10149);
/// `(source, logical restore, image-restored mount)` consistency points.
const CP_COUNT: (u64, u64, u64) = (11, 3, 11);
/// `(logical tape, image tape)` records.
const TAPE_RECORDS: (u64, u64) = (2779, 413);
/// FNV-1a over both tapes' record payloads, in stream order.
const TAPE_DIGEST: u64 = 0x9fffc1e0d65055fd;

#[derive(Debug, PartialEq)]
struct Traffic {
    members: Vec<(String, [u64; 8], u64)>,
    metrics: Vec<(String, u64)>,
    nvram_appends: (u64, u64),
    cp_count: (u64, u64, u64),
    tape_records: (u64, u64),
    tape_digest: u64,
}

impl Traffic {
    fn golden() -> Traffic {
        Traffic {
            members: MEMBERS
                .iter()
                .map(|(n, c, busy)| (n.to_string(), *c, busy.to_bits()))
                .collect(),
            metrics: METRICS
                .iter()
                .map(|(n, v)| (n.to_string(), v.to_bits()))
                .collect(),
            nvram_appends: NVRAM_APPENDS,
            cp_count: CP_COUNT,
            tape_records: TAPE_RECORDS,
            tape_digest: TAPE_DIGEST,
        }
    }

    /// The constants above, as source text, for re-recording.
    fn render(&self) -> String {
        let mut s = String::from("const MEMBERS: &[(&str, [u64; 8], f64)] = &[\n");
        for (n, c, busy) in &self.members {
            s += &format!("    (\"{n}\", {c:?}, {:?}),\n", f64::from_bits(*busy));
        }
        s += "];\n\nconst METRICS: &[(&str, f64)] = &[\n";
        for (n, v) in &self.metrics {
            s += &format!("    (\"{n}\", {:?}),\n", f64::from_bits(*v));
        }
        s += &format!(
            "];\n\nconst NVRAM_APPENDS: (u64, u64) = {:?};\n\
             const CP_COUNT: (u64, u64, u64) = {:?};\n\
             const TAPE_RECORDS: (u64, u64) = {:?};\n\
             const TAPE_DIGEST: u64 = {:#018x};\n",
            self.nvram_appends, self.cp_count, self.tape_records, self.tape_digest
        );
        s
    }
}

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Reads a tape back from the start and folds every chunk into `h`.
fn digest_tape(tape: &mut TapeDrive, mut h: u64) -> u64 {
    tape.rewind();
    while let Ok(rec) = tape.read_record() {
        h = fnv1a(h, &(rec.chunks().len() as u64).to_le_bytes());
        for c in rec.chunks() {
            h = match c {
                Chunk::Bytes(b) => fnv1a(fnv1a(h, &[0]), b),
                Chunk::Synthetic { seed, len } => {
                    let h = fnv1a(fnv1a(h, &[1]), &seed.to_le_bytes());
                    fnv1a(h, &len.to_le_bytes())
                }
            };
        }
    }
    h
}

/// Per-member stats of every group. Handing out a member switches a
/// group to eager parity, which is invisible to every meter, so this
/// runs only after the cycle.
fn member_stats(label: &str, vol: &mut Volume, out: &mut Vec<(String, [u64; 8], u64)>) {
    for g in 0..vol.ngroups() {
        let group = vol.group_mut(g).unwrap();
        for d in 0..group.ndisks() {
            let s = group.disk_mut(d).unwrap().stats();
            let counts = [
                s.seq_reads.ops,
                s.seq_reads.bytes,
                s.rand_reads.ops,
                s.rand_reads.bytes,
                s.seq_writes.ops,
                s.seq_writes.bytes,
                s.rand_writes.ops,
                s.rand_writes.bytes,
            ];
            out.push((format!("{label}.g{g}.d{d}"), counts, s.busy_secs.to_bits()));
        }
    }
}

fn run_cycle() -> Traffic {
    obs::metrics::reset();
    let mut profile = VolumeProfile::tiny();
    profile.geometry.perf = DiskPerf::f630_drive();
    let (mut src, _) = populate(&profile, 2026, Meter::new_shared(), CostModel::f630()).unwrap();
    age(&mut src, &profile, &AgingOptions::from_profile(&profile), 7).unwrap();

    let mut ltape = TapeDrive::new(TapePerf::dlt7000(), u64::MAX);
    let mut catalog = DumpCatalog::new();
    dump(&mut src, &mut ltape, &mut catalog, &DumpOptions::default()).unwrap();
    let mut lfs =
        Wafl::format(Volume::new(profile.geometry.clone()), WaflConfig::default()).unwrap();
    let lres = restore(&mut lfs, &mut ltape, "/").unwrap();
    assert!(lres.warnings.is_empty(), "{:?}", lres.warnings);

    let mut ptape = TapeDrive::new(TapePerf::dlt7000(), u64::MAX);
    image_dump_full(&mut src, &mut ptape, "golden").unwrap();
    let mut raw = Volume::new(profile.geometry.clone());
    image_restore(
        &mut ptape,
        &mut raw,
        &Meter::new_shared(),
        &CostModel::f630(),
    )
    .unwrap();

    let metrics = obs::metrics::snapshot()
        .readings
        .into_iter()
        .map(|(n, v)| (n, v.to_bits()))
        .collect();
    let mut members = Vec::new();
    member_stats("src", src.volume_mut(), &mut members);
    member_stats("logical", lfs.volume_mut(), &mut members);
    member_stats("image", &mut raw, &mut members);
    let tape_records = (ltape.total_records(), ptape.total_records());
    let digest = digest_tape(&mut ltape, 0xcbf2_9ce4_8422_2325);
    let tape_digest = digest_tape(&mut ptape, digest);

    let pfs = Wafl::mount(
        raw,
        nvram::NvramLog::new(32 << 20),
        WaflConfig::default(),
        Meter::new_shared(),
        CostModel::zero(),
    )
    .unwrap();
    Traffic {
        members,
        metrics,
        nvram_appends: (src.nvram().stats().appends, lfs.nvram().stats().appends),
        cp_count: (src.cp_count(), lfs.cp_count(), pfs.cp_count()),
        tape_records,
        tape_digest,
    }
}

#[test]
fn simulated_traffic_matches_golden() {
    let actual = run_cycle();
    assert!(
        actual == Traffic::golden(),
        "simulated traffic changed; actual values:\n{}",
        actual.render()
    );
}
