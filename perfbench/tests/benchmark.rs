//! The benchmark's own checks: seeded inputs repeat, the printed metric
//! names match `BENCHMARK.json`, and the traced run reports the `core`
//! layer-sum gap.

use serde::Value;
use tsvd_perfbench::report::{Results, END_TO_END, PER_LAYER};
use tsvd_perfbench::{inputs, layers, WORKLOADS};

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn names(v: &Value, key: &str) -> Vec<(String, String)> {
    let items = v.as_object().expect("object")[key]
        .as_array()
        .expect("array")
        .to_vec();
    items
        .iter()
        .map(|m| {
            let m = m.as_object().expect("metric object");
            let text = |k: &str| match m.get(k) {
                Some(Value::Str(s)) => s.clone(),
                _ => String::new(),
            };
            (text("name"), text("unit"))
        })
        .collect()
}

fn table(t: &[(&str, &str)]) -> Vec<(String, String)> {
    t.iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn metric_names_match_benchmark_json() {
    let json = benchmark_json();
    assert_eq!(names(&json, "end_to_end"), table(END_TO_END));
    assert_eq!(names(&json, "per_layer"), table(PER_LAYER));
    let workloads: Vec<String> = names(&json, "workloads").into_iter().map(|w| w.0).collect();
    assert_eq!(workloads, WORKLOADS);
}

#[test]
fn result_line_carries_exactly_the_table() {
    let mut res = Results::default();
    for (name, _) in END_TO_END {
        res.put1(name, 1.25);
    }
    res.put1("core.on_calls", 7.0);
    res.check(true, String::new);
    let out = res.render(END_TO_END);
    let last: Value = serde_json::from_str(out.lines().last().expect("result line")).expect("json");
    let obj = last.as_object().expect("object");
    let keys: Vec<&String> = obj.keys().collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    let metrics: Vec<&String> = obj["metrics"]
        .as_object()
        .expect("metrics")
        .keys()
        .collect();
    let mut want: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
    want.sort_unstable();
    assert_eq!(metrics, want);
    assert_eq!(obj["correct"], Value::Bool(true));
}

fn suite_fingerprint(modules: &[tsvd_workloads::Module]) -> Vec<(String, usize, bool)> {
    modules
        .iter()
        .map(|m| {
            (
                m.name().to_owned(),
                m.expectation().planted_pairs(),
                m.uses_async(),
            )
        })
        .collect()
}

#[test]
fn same_seed_gives_the_same_suites() {
    for rep in [0, 3] {
        assert_eq!(
            suite_fingerprint(&inputs::suite_small(11, rep)),
            suite_fingerprint(&inputs::suite_small(11, rep))
        );
        assert_eq!(
            suite_fingerprint(&inputs::cpu_dense(11, rep)),
            suite_fingerprint(&inputs::cpu_dense(11, rep))
        );
    }
    assert_eq!(
        inputs::suite_config(11, 2).seed,
        inputs::suite_config(11, 2).seed
    );
    assert_ne!(
        inputs::suite_config(11, 2).seed,
        inputs::suite_config(12, 2).seed
    );
    assert_ne!(
        inputs::suite_config(11, 2).seed,
        inputs::suite_config(11, 3).seed
    );
}

#[test]
fn same_seed_gives_the_same_corpus_and_plant_list() {
    let a = inputs::corpus(5);
    let b = inputs::corpus(5);
    assert_eq!(a, b, "files, bytes and plant list repeat");
    assert_eq!(a.files.len(), inputs::CORPUS_FILES);
    assert!(!a.racy.is_empty() && !a.pruned.is_empty() && !a.escapes.is_empty());
    assert!(a.racy.is_disjoint(&a.pruned));
    assert_ne!(a.files, inputs::corpus(6).files);
}

#[test]
fn edits_keep_every_planted_position() {
    let c = inputs::corpus(3);
    let (_, src) = &c.files[0];
    let edited = inputs::edit_rev(src, 4242);
    assert_ne!(&edited, src);
    assert_eq!(edited.len(), src.len());
    assert_eq!(edited.lines().count(), src.lines().count());
}

#[test]
fn traced_core_run_reports_the_layer_sum_gap() {
    let mut res = Results::default();
    let total = layers::core(1, 0.2, &mut res);
    assert!(total > 0.0);
    let gap = res.get("core.layer_sum_gap").expect("gap reported");
    // The target is |Σ parts − total| / total within about 10 %; timings
    // of an unoptimized test build only have to be sane.
    eprintln!("core.layer_sum_gap = {gap:.4}");
    assert!(gap.is_finite() && (0.0..1.0).contains(&gap), "gap {gap}");
    assert!(res.failures.is_empty(), "{:?}", res.failures);
}
