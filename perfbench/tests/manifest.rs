//! `BENCHMARK.json` declares exactly the metrics the benchmark prints.

use obs::Json;
use perfbench::report;
use perfbench::Workload;

fn manifest() -> Json {
    let path = perfbench::repo_root().join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn declared(doc: &Json, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let s = |k| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("string field")
                    .to_string()
            };
            (s("name"), s("unit"))
        })
        .collect()
}

fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn end_to_end_metrics_match() {
    assert_eq!(declared(&manifest(), "end_to_end"), owned(&report::GATED));
}

#[test]
fn per_layer_metrics_match() {
    assert_eq!(declared(&manifest(), "per_layer"), owned(report::LAYERS));
}

#[test]
fn workloads_match() {
    let doc = manifest();
    let names: Vec<_> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workload list")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    let ours: Vec<_> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(names, ours);
}
