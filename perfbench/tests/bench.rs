//! The benchmark's own tests, at a tiny scale: every metric that
//! `BENCHMARK.json` names is emitted with its unit, and a planted fault in
//! the index fails verification.

use std::sync::Arc;

use index_common::{Key, OpError, PersistentIndex, TreeStats, Value};
use perfbench::run::{run, Opts, Report};
use perfbench::workload::NAMES;
use rntree::RnTree;

fn opts(workload: &str, trace: bool) -> Opts {
    Opts {
        workload: workload.into(),
        seed: 7,
        seconds: 1,
        trace,
        scale: 0.001,
        trace_dir: None,
    }
}

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn contract(list: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text =
        std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark directory");
    let json = obs::json::parse(&text).expect("BENCHMARK.json parses");
    json.get(list)
        .and_then(|l| l.as_arr())
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(|v| v.as_str())
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn assert_emits(report: &Report, list: &str) {
    let want = contract(list);
    assert_eq!(report.metrics.len(), want.len(), "{list}: metric count");
    for (name, unit) in want {
        let m = report
            .metrics
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("{name} not emitted"));
        assert_eq!(m.unit, unit, "{name}: unit");
        assert!(m.value.is_finite(), "{name}: {}", m.value);
        assert!(m.samples > 0, "{name}: no samples");
    }
    let line = report.result_json().render();
    let parsed = obs::json::parse(&line).expect("result line parses");
    for key in ["correct", "attempted", "failed", "metrics"] {
        assert!(parsed.get(key).is_some(), "result line lacks {key}");
    }
}

#[test]
fn every_workload_emits_every_named_metric_with_its_unit() {
    for name in NAMES {
        let plain = run(&opts(name, false), |t| t).expect("untraced run");
        assert!(plain.correct, "{name}: {:?}", plain.errors);
        assert_eq!(plain.failed, 0);
        assert!(plain.attempted > 0);
        assert_emits(&plain, "end_to_end");
        for m in &plain.metrics {
            assert!(m.value > 0.0, "{name}: end-to-end metric {} is 0", m.name);
        }

        let traced = run(&opts(name, true), |t| t).expect("traced run");
        assert!(traced.correct, "{name}: {:?}", traced.errors);
        assert_emits(&traced, "per_layer");
    }
}

/// Forwards every call to the tree but returns a wrong value for one key.
struct Corrupt {
    inner: Arc<RnTree>,
    key: Key,
}

impl Corrupt {
    fn bend(&self, k: Key, v: Value) -> Value {
        if k == self.key {
            v ^ 1 << 30
        } else {
            v
        }
    }
}

impl PersistentIndex for Corrupt {
    fn insert(&self, key: Key, value: Value) -> Result<(), OpError> {
        self.inner.insert(key, value)
    }
    fn update(&self, key: Key, value: Value) -> Result<(), OpError> {
        self.inner.update(key, value)
    }
    fn upsert(&self, key: Key, value: Value) -> Result<(), OpError> {
        self.inner.upsert(key, value)
    }
    fn remove(&self, key: Key) -> Result<(), OpError> {
        self.inner.remove(key)
    }
    fn find(&self, key: Key) -> Option<Value> {
        self.inner.find(key).map(|v| self.bend(key, v))
    }
    fn scan_n(&self, start: Key, n: usize, out: &mut Vec<(Key, Value)>) -> usize {
        let got = self.inner.scan_n(start, n, out);
        for p in out.iter_mut() {
            p.1 = self.bend(p.0, p.1);
        }
        got
    }
    fn name(&self) -> &'static str {
        "Corrupt"
    }
    fn stats(&self) -> TreeStats {
        self.inner.stats()
    }
}

#[test]
fn a_planted_wrong_value_fails_verification() {
    for name in NAMES {
        let report =
            run(&opts(name, false), |t| Corrupt { inner: t, key: 500 }).expect("run completes");
        assert!(
            !report.correct,
            "{name}: corrupted key 500 passed verification"
        );
        assert!(
            report.errors.iter().any(|e| e.contains("key 500")),
            "{name}: {:?}",
            report.errors
        );
    }
}
