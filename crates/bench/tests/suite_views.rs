//! `bench all` renders `tables` and `net` from one prepared suite in a
//! single `tables+net` job. That job must write exactly what the two
//! standalone subcommands write, run one after the other: the same file
//! set byte for byte, and the concatenation of their stdout.

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;
use std::path::PathBuf;
use std::process::Command;

const SCALE: f64 = 1.0 / 1024.0;
const SEED: u64 = 1999;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bench-views-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Every regular file in `dir`, keyed by name, as raw bytes.
fn dir_files(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    fs::read_dir(dir)
        .expect("read scratch dir")
        .map(|entry| {
            let entry = entry.expect("dir entry");
            let name = entry.file_name().into_string().expect("utf-8 file name");
            (name, fs::read(entry.path()).expect("read artifact"))
        })
        .collect()
}

/// Runs the `bench` binary's subcommand into `dir`, returning its stdout.
fn bench(subcommand: &str, dir: &Path) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_bench"))
        .args([subcommand, "--jobs", "1", "--scale"])
        .arg(SCALE.to_string())
        .args(["--seed", &SEED.to_string(), "--out-dir"])
        .arg(dir)
        .output()
        .expect("run bench");
    assert!(out.status.success(), "bench {subcommand} failed: {out:?}");
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

#[test]
fn tables_net_job_equals_tables_then_net() {
    let joined = scratch_dir("joined");
    let job = bench::cli::all_jobs(Some(SCALE), Some(SEED), &joined)
        .into_iter()
        .find(|j| j.label == "tables+net")
        .expect("bench all has a tables+net job");
    let results = bench::pool::run_jobs(vec![job], 1);

    let separate = scratch_dir("separate");
    let mut stdout = bench("tables", &separate);
    stdout.push_str(&bench("net", &separate));

    assert_eq!(results[0].output, stdout, "stdout must be tables then net");
    let (a, b) = (dir_files(&joined), dir_files(&separate));
    assert_eq!(
        a.keys().collect::<Vec<_>>(),
        b.keys().collect::<Vec<_>>(),
        "file sets must match"
    );
    for (name, bytes) in &a {
        assert_eq!(Some(bytes), b.get(name), "{name} differs");
    }
    assert!(a.contains_key("obs_table2.json") && a.contains_key("obs_table_net.json"));
    let _ = fs::remove_dir_all(&joined);
    let _ = fs::remove_dir_all(&separate);
}
