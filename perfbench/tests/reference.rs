//! At seed 1999 and the CLI's default 1/32 scale, the `paper`
//! subcommands reproduce the committed `results/BENCH_*.json` exactly
//! (`bench benchdiff --tolerance 0`). About a minute in a release build:
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml -- --ignored
//! ```

use std::process::ExitCode;

use perfbench::paper::GATED_ARTIFACTS;

fn bench(args: &[&str]) -> ExitCode {
    bench::cli::main_with_args(args.iter().map(|a| a.to_string()).collect())
}

#[test]
#[ignore = "builds three 1/32 volumes; run with --ignored"]
fn paper_artifacts_match_the_committed_baselines() {
    let root = perfbench::repo_root();
    let dir = perfbench::out_root().join(format!("reference-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = dir.display().to_string();
    let scale = (1.0f64 / 32.0).to_string();
    for cmd in ["tables", "net"] {
        let code = bench(&[
            cmd,
            "--scale",
            &scale,
            "--seed",
            "1999",
            "--jobs",
            "1",
            "--out-dir",
            &out,
        ]);
        assert_eq!(code, ExitCode::SUCCESS, "bench {cmd}");
    }
    for name in GATED_ARTIFACTS {
        let new = dir.join(format!("obs_{name}.json"));
        let baseline = root.join("results").join(format!("BENCH_{name}.json"));
        let code = bench(&[
            "benchdiff",
            "--tolerance",
            "0",
            &new.display().to_string(),
            &baseline.display().to_string(),
        ]);
        assert_eq!(code, ExitCode::SUCCESS, "benchdiff {name}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
