//! System-level capture → serialize → parse → replay tests: the
//! determinism contract (EXPERIMENTS.md) checked mechanically through
//! the full `.petr` pipeline (DESIGN.md §8).

use pei_bench::tracecap::{self, CaptureSpec};
use pei_bench::Scale;
use pei_core::DispatchPolicy;
use pei_trace::Trace;
use pei_workloads::{InputSize, Workload};

/// A cell small enough to capture and replay in well under a second.
fn tiny_spec() -> CaptureSpec {
    CaptureSpec {
        workload: Workload::Atf,
        size: InputSize::Small,
        policy: DispatchPolicy::LocalityAware,
        scale: Scale::Quick,
        paper_machine: false,
        seed: 0x5eed,
        pei_budget: Some(2_000),
    }
}

#[test]
fn capture_replay_is_byte_identical() {
    let spec = tiny_spec();
    let (result, trace) = spec.capture();
    assert!(!trace.records.is_empty());

    // Through the full binary round trip, as the CLI tools would see it.
    let reloaded = Trace::from_bytes(&trace.to_bytes()).expect("encoding round-trips");
    let replay = tracecap::replay(&reloaded).expect("capture carries a recipe");
    assert_eq!(replay.spec, spec);
    assert!(replay.stats_match, "replayed stats diverged");
    assert!(
        replay.divergence.is_none(),
        "replayed event stream diverged: {:?}",
        replay.divergence
    );
    assert!(replay.identical());
    assert_eq!(replay.result.cycles, result.cycles);
    assert_eq!(
        replay.result.stats.to_string(),
        result.stats.to_string(),
        "replay must reproduce the statistics report byte for byte"
    );
}

#[test]
fn capture_meta_carries_recipe_and_stats() {
    let (result, trace) = tiny_spec().capture();
    assert_eq!(trace.meta_get("spec.workload"), Some("ATF"));
    assert_eq!(trace.meta_get("spec.size"), Some("small"));
    assert_eq!(trace.meta_get("spec.policy"), Some("locality-aware"));
    assert_eq!(trace.meta_get("spec.budget"), Some("2000"));
    assert_eq!(
        trace.meta_get("stats"),
        Some(result.stats.to_string().as_str())
    );
    // Machine-shape metadata from the tracer itself coexists with the
    // recipe keys.
    assert_eq!(trace.meta_get("machine.cores"), Some("4"));
}

#[test]
fn replay_detects_recipe_tampering() {
    let (_, mut tampered) = tiny_spec().capture();
    for kv in &mut tampered.meta {
        if kv.0 == "spec.seed" {
            kv.1 = "12345".into();
        }
    }
    let replay = tracecap::replay(&tampered).expect("recipe still parses");
    assert!(
        !replay.identical(),
        "a different seed must not replay identically"
    );
}

#[test]
fn different_policies_produce_divergent_traces() {
    let spec = tiny_spec();
    let other = CaptureSpec {
        policy: DispatchPolicy::HostOnly,
        ..spec
    };
    let (_, a) = spec.capture();
    let (_, b) = other.capture();
    assert!(
        pei_trace::diff(&a, &b).is_some(),
        "host-only and locality-aware runs cannot trace identically"
    );
}

/// The fig6 `--trace` representative cell at full quick scale: the same
/// capture CI's trace-smoke job makes. Slower (~quick-scale run, twice),
/// hence ignored by default; CI and `cargo test -- --ignored` run it.
#[test]
#[ignore = "two quick-scale runs; run explicitly or in CI"]
fn fig6_quick_cell_replays() {
    let spec = CaptureSpec {
        workload: Workload::Atf,
        size: InputSize::Medium,
        policy: DispatchPolicy::LocalityAware,
        scale: Scale::Quick,
        paper_machine: false,
        seed: 0x5eed,
        pei_budget: None,
    };
    let (_, trace) = spec.capture();
    let replay = tracecap::replay(&trace).expect("capture carries a recipe");
    assert!(replay.identical(), "quick fig6 cell failed to replay");
}
