//! Paper-style table printing with the paper's own numbers alongside.

use simkit::units::fmt_duration;
use simkit::units::fmt_pct;
use simkit::units::HOUR;

use crate::experiments::BasicResults;
use crate::experiments::ParallelResults;
use crate::experiments::ScalePoint;
use crate::experiments::StageRow;

/// Paper values for Table 3 (stage, elapsed seconds, CPU fraction).
pub const PAPER_TABLE3: &[(&str, &str, f64, f64)] = &[
    ("Logical Dump", "creating snapshot", 30.0, 0.50),
    (
        "Logical Dump",
        "mapping files and directories",
        20.0 * 60.0,
        0.30,
    ),
    ("Logical Dump", "dumping directories", 20.0 * 60.0, 0.20),
    ("Logical Dump", "dumping files", 6.75 * HOUR, 0.25),
    ("Logical Dump", "deleting snapshot", 35.0, 0.50),
    ("Logical Restore", "creating files", 2.0 * HOUR, 0.30),
    ("Logical Restore", "filling in data", 6.0 * HOUR, 0.40),
    ("Physical Dump", "creating snapshot", 30.0, 0.50),
    ("Physical Dump", "dumping blocks", 6.2 * HOUR, 0.05),
    ("Physical Dump", "deleting snapshot", 35.0, 0.50),
    ("Physical Restore", "restoring blocks", 5.9 * HOUR, 0.11),
];

/// Paper values for Table 4 (2 drives): stage, elapsed seconds, CPU.
pub const PAPER_TABLE4: &[(&str, &str, f64, f64)] = &[
    (
        "Logical Backup",
        "mapping files and directories",
        15.0 * 60.0,
        0.50,
    ),
    ("Logical Backup", "dumping directories", 15.0 * 60.0, 0.40),
    ("Logical Backup", "dumping files", 4.0 * HOUR, 0.50),
    ("Logical Restore", "creating files", 1.25 * HOUR, 0.53),
    ("Logical Restore", "filling in data", 3.5 * HOUR, 0.75),
    ("Physical Backup", "dumping blocks", 3.25 * HOUR, 0.12),
    ("Physical Restore", "restoring blocks", 3.1 * HOUR, 0.21),
];

/// Paper values for Table 5 (4 drives).
pub const PAPER_TABLE5: &[(&str, &str, f64, f64)] = &[
    (
        "Logical Backup",
        "mapping files and directories",
        5.0 * 60.0,
        0.90,
    ),
    ("Logical Backup", "dumping directories", 7.0 * 60.0, 0.90),
    ("Logical Backup", "dumping files", 2.5 * HOUR, 0.90),
    ("Logical Restore", "creating files", 0.75 * HOUR, 0.53),
    ("Logical Restore", "filling in data", 3.25 * HOUR, 1.00),
    ("Physical Backup", "dumping blocks", 1.7 * HOUR, 0.30),
    ("Physical Restore", "restoring blocks", 1.63 * HOUR, 0.41),
];

/// Paper values for Table 2: name, elapsed hours, MB/s, GB/h. The paper's
/// cells for this table are derivable from Table 3 sums (tape-bound runs
/// of 188 GB); elapsed is the authoritative column.
pub const PAPER_TABLE2: &[(&str, f64)] = &[
    ("Logical Backup", 7.4 * HOUR),
    ("Logical Restore", 8.0 * HOUR),
    ("Physical Backup", 6.2 * HOUR),
    ("Physical Restore", 5.9 * HOUR),
];

fn hline(out: &mut String, width: usize) {
    use std::fmt::Write as _;
    let _ = writeln!(out, "{}", "-".repeat(width));
}

/// Renders Table 2 with measured and paper columns. Separated from the
/// printing so the determinism regression test can compare two runs
/// byte for byte.
pub fn render_table2(basic: &BasicResults) -> String {
    use std::fmt::Write as _;

    let mut out = String::new();
    let rule = "-".repeat(86);
    let _ = writeln!(
        out,
        "\nTable 2: Basic Backup and Restore Performance (188 GB home volume, 1 DLT drive)"
    );
    let _ = writeln!(out, "{rule}");
    let _ = writeln!(
        out,
        "{:<18} {:>14} {:>10} {:>12}   {:>14} {:>10}",
        "Operation", "Elapsed", "MB/s", "GB/hour", "paper:Elapsed", "Δ"
    );
    let _ = writeln!(out, "{rule}");
    for row in &basic.table2 {
        let paper = PAPER_TABLE2
            .iter()
            .find(|(n, _)| *n == row.name)
            .map(|(_, e)| *e);
        let (paper_str, delta) = match paper {
            Some(e) => (
                fmt_duration(e),
                format!("{:+.0}%", (row.elapsed / e - 1.0) * 100.0),
            ),
            None => ("-".into(), "-".into()),
        };
        let _ = writeln!(
            out,
            "{:<18} {:>14} {:>10.2} {:>12.1}   {:>14} {:>10}",
            row.name,
            fmt_duration(row.elapsed),
            row.mb_s,
            row.gb_h,
            paper_str,
            delta
        );
    }
    let _ = writeln!(out, "{rule}");
    let _ = writeln!(
        out,
        "source volume: {} files (paper scale), fragmentation {:.3}",
        basic.files, basic.frag
    );
    out
}

/// Renders a stage table (Tables 3–5) with the paper's numbers alongside.
pub fn render_stage_table(
    title: &str,
    rows: &[StageRow],
    paper: &[(&str, &str, f64, f64)],
    show_rates: bool,
) -> String {
    use std::fmt::Write as _;

    let mut out = String::new();
    let _ = writeln!(out, "\n{title}");
    let width = if show_rates { 118 } else { 96 };
    hline(&mut out, width);
    if show_rates {
        let _ = writeln!(
            out,
            "{:<18} {:<30} {:>12} {:>6} {:>9} {:>9}   {:>12} {:>6}",
            "Operation",
            "Stage",
            "Elapsed",
            "CPU",
            "Disk MB/s",
            "Tape MB/s",
            "paper:Elapsed",
            "CPU"
        );
    } else {
        let _ = writeln!(
            out,
            "{:<18} {:<30} {:>12} {:>6}   {:>12} {:>6}",
            "Operation", "Stage", "Elapsed", "CPU", "paper:Elapsed", "CPU"
        );
    }
    hline(&mut out, width);
    let mut last_op = "";
    for row in rows {
        if row.op != last_op && !last_op.is_empty() {
            let _ = writeln!(out);
        }
        last_op = row.op;
        let paper_cell = paper
            .iter()
            .find(|(op, st, _, _)| *op == row.op && *st == row.stage);
        let (pe, pc) = match paper_cell {
            Some((_, _, e, c)) => (fmt_duration(*e), fmt_pct(*c)),
            None => ("-".into(), "-".into()),
        };
        if show_rates {
            let _ = writeln!(
                out,
                "{:<18} {:<30} {:>12} {:>6} {:>9.1} {:>9.1}   {:>12} {:>6}",
                row.op,
                row.stage,
                fmt_duration(row.elapsed),
                fmt_pct(row.cpu_util),
                row.disk_mb_s,
                row.tape_mb_s,
                pe,
                pc
            );
        } else {
            let _ = writeln!(
                out,
                "{:<18} {:<30} {:>12} {:>6}   {:>12} {:>6}",
                row.op,
                row.stage,
                fmt_duration(row.elapsed),
                fmt_pct(row.cpu_util),
                pe,
                pc
            );
        }
    }
    hline(&mut out, width);
    out
}

/// Renders the parallel summary line (the §5.2 totals).
pub fn render_parallel_summary(r: &ParallelResults) -> String {
    use std::fmt::Write as _;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "\nSummary ({} drives): logical backup {:.1} GB/h ({:.1}/tape), physical backup {:.1} GB/h ({:.1}/tape)",
        r.n_drives,
        r.logical_gb_h,
        r.logical_gb_h / r.n_drives as f64,
        r.physical_gb_h,
        r.physical_gb_h / r.n_drives as f64
    );
    if r.n_drives == 4 {
        let _ = writeln!(
            out,
            "paper: logical 69.6 GB/h (17.4/tape), physical 110 GB/h (27.6/tape)"
        );
    }
    let _ = writeln!(
        out,
        "restores: logical {} / physical {}",
        fmt_duration(r.logical_restore_elapsed),
        fmt_duration(r.physical_restore_elapsed)
    );
    out
}

/// Renders the scaling sweep (§5.3 / the summary "figure").
pub fn render_scaling(points: &[ScalePoint]) -> String {
    use std::fmt::Write as _;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "\nScaling of backup throughput with tape drives (the §5.3 comparison)"
    );
    hline(&mut out, 64);
    let _ = writeln!(
        out,
        "{:<10} {:>7} {:>12} {:>14}",
        "strategy", "drives", "GB/hour", "GB/hour/tape"
    );
    hline(&mut out, 64);
    for p in points {
        let _ = writeln!(
            out,
            "{:<10} {:>7} {:>12.1} {:>14.1}",
            p.strategy, p.drives, p.gb_h, p.per_tape
        );
    }
    hline(&mut out, 64);
    let _ = writeln!(
        out,
        "paper anchors: physical 30.3 GB/h @1 drive -> 110 @4; logical 25.4 @1 -> 69.6 @4"
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use backup_core::logical::catalog::DumpCatalog;
    use backup_core::logical::dump::dump;
    use backup_core::logical::dump::DumpOptions;
    use backup_core::logical::restore::restore;
    use backup_core::physical::dump::image_dump_full;
    use backup_core::physical::restore::image_restore;
    use blockdev::Block;
    use blockdev::DiskPerf;
    use raid::Volume;
    use raid::VolumeGeometry;
    use simkit::meter::Meter;
    use tape::TapeDrive;
    use tape::TapePerf;
    use wafl::cost::CostModel;
    use wafl::types::Attrs;
    use wafl::types::FileType;
    use wafl::types::WaflConfig;
    use wafl::types::INO_ROOT;
    use wafl::Wafl;

    /// Every stage name the paper constants reference must be one the
    /// engines actually emit — otherwise a silent rename would blank the
    /// paper columns in every table.
    #[test]
    fn paper_constants_match_engine_stage_names() {
        let geo = VolumeGeometry::uniform(1, 4, 2048, DiskPerf::ideal());
        let mut fs = Wafl::format(Volume::new(geo.clone()), WaflConfig::default()).unwrap();
        let f = fs
            .create(INO_ROOT, "f", FileType::File, Attrs::default())
            .unwrap();
        fs.write_fbn(f, 0, Block::Synthetic(1)).unwrap();

        let mut emitted: Vec<String> = Vec::new();
        let mut tape = TapeDrive::new(TapePerf::ideal(), u64::MAX);
        let mut catalog = DumpCatalog::new();
        let out = dump(&mut fs, &mut tape, &mut catalog, &DumpOptions::default()).unwrap();
        emitted.extend(out.profiler.stages().iter().map(|s| s.name.clone()));
        let mut target = Wafl::format(Volume::new(geo.clone()), WaflConfig::default()).unwrap();
        let res = restore(&mut target, &mut tape, "/").unwrap();
        emitted.extend(res.profiler.stages().iter().map(|s| s.name.clone()));
        let mut itape = TapeDrive::new(TapePerf::ideal(), u64::MAX);
        let img = image_dump_full(&mut fs, &mut itape, "s").unwrap();
        emitted.extend(img.profiler.stages().iter().map(|s| s.name.clone()));
        let meter = Meter::new_shared();
        let mut raw = Volume::new(geo);
        let ir = image_restore(&mut itape, &mut raw, &meter, &CostModel::zero()).unwrap();
        emitted.extend(ir.profiler.stages().iter().map(|s| s.name.clone()));

        for (_, stage, elapsed, cpu) in PAPER_TABLE3
            .iter()
            .chain(PAPER_TABLE4.iter())
            .chain(PAPER_TABLE5.iter())
        {
            assert!(
                emitted.iter().any(|e| e == stage),
                "paper constant references unknown stage {stage:?}; emitted: {emitted:?}"
            );
            assert!(*elapsed > 0.0 && *cpu > 0.0 && *cpu <= 1.0);
        }
    }

    #[test]
    fn paper_table2_covers_all_four_operations() {
        let names: Vec<&str> = PAPER_TABLE2.iter().map(|(n, _)| *n).collect();
        for want in [
            "Logical Backup",
            "Logical Restore",
            "Physical Backup",
            "Physical Restore",
        ] {
            assert!(names.contains(&want), "missing {want}");
        }
    }
}
