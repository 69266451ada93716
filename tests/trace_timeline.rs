//! Sampled op tracing + time-resolved metrics, end to end (PR 9).
//!
//! Exercises the whole path the bench relies on: an `Instrumented`
//! `RnTree` with a `TraceRing` attached records spans whose fields
//! reflect what the op actually did (descent, persists, leaf landed
//! on); the ring bounds memory and reports drops; a `Timeline` fed from
//! the live histograms produces windowed percentile series; and the
//! tree's obs sections export the new heat tables and event-ring
//! overflow counters through both registry formats.

use std::sync::Arc;

use index_common::{Instrumented, PersistentIndex};
use nvm::{PmemConfig, PmemPool};
use obs::{ObsRegistry, ObsSource, OpType, Timeline, ToJson, TraceRing};
use rntree::{RnConfig, RnTree};

fn tree_on(mb: usize) -> Arc<RnTree> {
    let mut cfg = PmemConfig::fast(0);
    cfg.size = mb << 20;
    let pool = Arc::new(PmemPool::new(cfg));
    Arc::new(RnTree::create(pool, RnConfig::default()))
}

#[test]
fn spans_capture_op_structure() {
    let tree = tree_on(64);
    let ring = TraceRing::shared();
    ring.set_sample_shift(0); // trace every op
    let (instr, _hists) = Instrumented::with_histograms(Arc::clone(&tree));
    let instr = instr.with_tracing(Arc::clone(&ring));

    // Interleave inserts and finds: one thread feeds one ring stripe, so
    // only the newest spans survive a wrap — the tail must hold both op
    // types for the assertions below.
    for k in 1..=500u64 {
        instr.insert(k, k).unwrap();
        assert_eq!(instr.find(k), Some(k));
    }

    let spans = ring.dump();
    assert!(!spans.is_empty());
    assert!(ring.recorded() >= 1000, "shift 0 must record every op");

    let inserts: Vec<_> = spans.iter().filter(|s| s.op == OpType::Insert).collect();
    let searches: Vec<_> = spans.iter().filter(|s| s.op == OpType::Search).collect();
    assert!(!inserts.is_empty() && !searches.is_empty());
    // Inserts persist (KV entry + slot line) and land on a leaf.
    assert!(inserts.iter().any(|s| s.persists > 0), "insert spans must count persists");
    assert!(inserts.iter().any(|s| s.leaf != 0), "insert spans must name their leaf");
    // Optimistic transactions show up as attempts.
    assert!(inserts.iter().any(|s| s.htm_attempts > 0), "insert spans must count HTM attempts");
    // Cached descent reports depth and cache traffic.
    assert!(
        spans.iter().any(|s| s.descent_depth > 0),
        "descent depth must be traced on the cached path"
    );
    assert!(
        spans.iter().any(|s| s.cache_hits + s.cache_misses > 0),
        "cache traffic must be traced on the cached path"
    );
    // Every span carries a wall-clock duration.
    assert!(spans.iter().all(|s| s.total_ns > 0));
    // The span renders to JSON with the abort taxonomy present.
    let j = spans[0].to_json().render();
    for key in ["\"op\"", "\"total_ns\"", "\"aborts\"", "\"fallback_tier\"", "\"persists\""] {
        assert!(j.contains(key), "span JSON missing {key}: {j}");
    }
}

#[test]
fn sampling_shift_thins_spans() {
    let tree = tree_on(32);
    let ring = TraceRing::shared();
    ring.set_sample_shift(3); // 1 op in 8
    let (instr, _hists) = Instrumented::with_histograms(Arc::clone(&tree));
    let instr = instr.with_tracing(Arc::clone(&ring));
    for k in 1..=800u64 {
        instr.insert(k, k).unwrap();
    }
    let recorded = ring.recorded();
    assert!(
        (80..=120).contains(&recorded),
        "1-in-8 sampling of 800 ops should record ~100 spans, got {recorded}"
    );
}

#[test]
fn ring_overflow_is_bounded_and_reported() {
    let tree = tree_on(64);
    let ring = TraceRing::shared();
    ring.set_sample_shift(0);
    let (instr, _hists) = Instrumented::with_histograms(Arc::clone(&tree));
    let instr = instr.with_tracing(Arc::clone(&ring));
    for k in 1..=6_000u64 {
        instr.insert(k, k).unwrap();
    }
    let spans = ring.dump();
    assert!(spans.len() < 6_000, "ring must bound memory");
    assert_eq!(ring.recorded(), 6_000);
    assert!(ring.dropped() > 0, "overflow must be visible, not silent");
    assert_eq!(ring.recorded() - ring.dropped(), spans.len() as u64);

    ring.clear();
    assert_eq!(ring.dump().len(), 0);
    assert_eq!(ring.recorded(), 0);
}

#[test]
fn timeline_builds_percentile_series_from_live_histograms() {
    let tree = tree_on(32);
    let (instr, hists) = Instrumented::with_histograms(Arc::clone(&tree));
    let timeline = Timeline::new(8);

    let merged = |hists: &obs::OpHistograms| {
        let mut m = obs::Histogram::new();
        for op in OpType::ALL {
            m.merge(&hists.snapshot(op));
        }
        m
    };

    let mut key = 0u64;
    for window in 0..3u64 {
        for _ in 0..300 {
            key += 1;
            instr.insert(key, key).unwrap();
        }
        let h = merged(&hists);
        let n = h.count();
        timeline.tick((window + 1) * 10, &h, n);
    }

    let windows = timeline.windows();
    assert_eq!(windows.len(), 3);
    assert_eq!(windows[0].t_ms, 10);
    assert_eq!(windows[2].t_ms, 30);
    let total: u64 = windows.iter().map(|w| w.samples).sum();
    assert_eq!(total, merged(&hists).count(), "window deltas must partition the cumulative");
    for w in &windows {
        assert!(w.samples > 0, "every window saw inserts");
        assert!(w.p50_ns > 0 && w.p99_ns >= w.p50_ns);
    }
    // Capacity 8: five more ticks overflow and report it.
    for t in 3..11u64 {
        let h = merged(&hists);
        let n = h.count();
        timeline.tick((t + 1) * 10, &h, n);
    }
    assert_eq!(timeline.windows().len(), 8);
    assert_eq!(timeline.dropped(), 3);
}

#[test]
fn obs_sections_export_heat_and_event_overflow() {
    let tree = tree_on(64);
    for k in 1..=20_000u64 {
        tree.insert(k, k).unwrap();
    }

    let sections = tree.obs_sections();
    let names: Vec<&str> = sections.iter().map(|(n, _)| n.as_str()).collect();
    for want in [
        "heat.leaf_conflicts",
        "heat.leaf_splits",
        "heat.leaf_morphs",
        "heat_meta",
        "events_meta",
    ] {
        assert!(names.contains(&want), "missing section {want}; have {names:?}");
    }

    let mut reg = ObsRegistry::new();
    reg.register("tree", Arc::clone(&tree) as Arc<dyn ObsSource + Send + Sync>);
    let snap = reg.snapshot();

    let json = snap.to_json();
    let splits = json
        .get("sources")
        .and_then(|s| s.get("tree"))
        .and_then(|t| t.get("heat.leaf_splits"))
        .and_then(|h| h.as_arr())
        .expect("heat.leaf_splits renders as an array");
    assert!(!splits.is_empty(), "20k inserts split leaves; the heat table must show them");
    for entry in splits {
        for key in ["key", "count", "err"] {
            assert!(entry.get(key).is_some(), "heat entry missing {key}");
        }
    }
    let meta = json
        .get("sources")
        .and_then(|s| s.get("tree"))
        .and_then(|t| t.get("events_meta"))
        .expect("events_meta section present");
    assert!(meta.get("events_recorded").and_then(|v| v.as_u64()).unwrap() > 0);
    meta.get("events_dropped").and_then(|v| v.as_u64()).expect("events_dropped exported");

    let prom = snap.to_prometheus();
    assert!(
        prom.contains("rn_heat_leaf_splits_count{source=\"tree\",rank=\"0\""),
        "prometheus must carry ranked heat series"
    );
    assert!(prom.contains("rn_events_meta_events_dropped{source=\"tree\"}"));
}

#[test]
fn class_histograms_roll_up_the_op_mix() {
    let tree = tree_on(32);
    let (instr, hists) = Instrumented::with_histograms(Arc::clone(&tree));
    hists.set_sample_shift(0); // exact counts, no 1-in-8 sampling
    for k in 1..=50u64 {
        instr.insert(k, k).unwrap();
    }
    for k in 1..=30u64 {
        instr.update(k, k + 1).unwrap();
    }
    for k in 1..=20u64 {
        instr.find(k);
    }
    assert_eq!(hists.snapshot_class(obs::OpClass::Insert).count(), 50);
    assert_eq!(hists.snapshot_class(obs::OpClass::Update).count(), 30);
    assert_eq!(hists.snapshot_class(obs::OpClass::Read).count(), 20);
    assert_eq!(hists.snapshot_class(obs::OpClass::Scan).count(), 0);
}
