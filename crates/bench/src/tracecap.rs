//! Capture and deterministic replay of simulator event traces.
//!
//! A `.petr` trace (see the `pei-trace` crate and DESIGN.md §8) records
//! every event the machine dispatched. This module makes such captures
//! *replayable*: a [`CaptureSpec`] — the recipe of one simulation cell —
//! is serialized into the trace's metadata table at capture time, so a
//! later process can rebuild the exact same [`RunSpec`], re-execute it,
//! and check that both the event stream and the final [`StatsReport`]
//! come out byte-identical. That check is the determinism contract of
//! EXPERIMENTS.md made mechanical: any divergence names the first
//! differing record.
//!
//! The `trace_capture` and `trace_diff` binaries are thin CLI wrappers
//! over this module; `crates/bench/tests/trace_roundtrip.rs` exercises
//! the full capture → serialize → parse → replay → compare loop.
//!
//! [`StatsReport`]: pei_engine::StatsReport

use crate::runner::RunSpec;
use crate::{ExpOptions, Scale};
use pei_core::DispatchPolicy;
use pei_system::RunResult;
use pei_trace::{diff, Divergence, Recorder, Trace, TraceSink};
use pei_workloads::{InputSize, Workload};

/// Trace-metadata name of a dispatch policy.
pub fn policy_name(p: DispatchPolicy) -> &'static str {
    match p {
        DispatchPolicy::HostOnly => "host-only",
        DispatchPolicy::PimOnly => "pim-only",
        DispatchPolicy::LocalityAware => "locality-aware",
        DispatchPolicy::LocalityAwareBalanced => "locality-aware-balanced",
    }
}

/// Inverse of [`policy_name`].
pub fn parse_policy(s: &str) -> Option<DispatchPolicy> {
    [
        DispatchPolicy::HostOnly,
        DispatchPolicy::PimOnly,
        DispatchPolicy::LocalityAware,
        DispatchPolicy::LocalityAwareBalanced,
    ]
    .into_iter()
    .find(|&p| policy_name(p) == s)
}

/// Trace-metadata name of an input size.
pub fn size_name(s: InputSize) -> &'static str {
    match s {
        InputSize::Small => "small",
        InputSize::Medium => "medium",
        InputSize::Large => "large",
    }
}

/// Inverse of [`size_name`].
pub fn parse_size(s: &str) -> Option<InputSize> {
    InputSize::ALL.into_iter().find(|&x| size_name(x) == s)
}

/// Parses a workload by its figure label (`ATF`, `HJ`, …),
/// case-insensitively.
pub fn parse_workload(s: &str) -> Option<Workload> {
    Workload::ALL
        .into_iter()
        .find(|w| w.label().eq_ignore_ascii_case(s))
}

/// The recipe of one replayable simulation cell.
///
/// Everything here is a *value*: rebuilding the [`RunSpec`] from these
/// fields and running it is a pure function (the determinism contract),
/// so a capture made on one machine replays byte-identically on
/// another. Only recipe-level cells — a standard workload at a standard
/// size on a constructor-built machine — are replayable; sweep cells
/// with hand-tweaked configs are traceable but carry no recipe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CaptureSpec {
    /// Which workload.
    pub workload: Workload,
    /// Which input size.
    pub size: InputSize,
    /// Dispatch policy.
    pub policy: DispatchPolicy,
    /// Simulation effort (sets the PEI budget).
    pub scale: Scale,
    /// Paper-scale machine instead of the scaled default.
    pub paper_machine: bool,
    /// Workload seed.
    pub seed: u64,
    /// Overrides the scale's PEI budget when set (tests use tiny
    /// budgets to keep the capture→replay loop fast).
    pub pei_budget: Option<u64>,
}

impl std::fmt::Display for CaptureSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}/{}/{} ({}{}, seed {})",
            self.workload.label(),
            size_name(self.size),
            policy_name(self.policy),
            self.scale.name(),
            if self.paper_machine { ", paper" } else { "" },
            self.seed
        )
    }
}

impl CaptureSpec {
    /// The runnable cell this recipe describes.
    pub fn to_run_spec(&self) -> RunSpec {
        let opts = ExpOptions {
            scale: self.scale,
            paper_machine: self.paper_machine,
            seed: self.seed,
            ..ExpOptions::default()
        };
        let mut params = opts.workload_params();
        if let Some(b) = self.pei_budget {
            params.pei_budget = b;
        }
        RunSpec::sized(opts.machine(self.policy), params, self.workload, self.size)
    }

    /// Writes this recipe into a sink's metadata table under `spec.*`
    /// keys.
    pub fn write_meta(&self, sink: &mut dyn TraceSink) {
        sink.meta("spec.workload", self.workload.label());
        sink.meta("spec.size", size_name(self.size));
        sink.meta("spec.policy", policy_name(self.policy));
        sink.meta("spec.scale", self.scale.name());
        sink.meta("spec.paper", if self.paper_machine { "1" } else { "0" });
        sink.meta("spec.seed", &self.seed.to_string());
        if let Some(b) = self.pei_budget {
            sink.meta("spec.budget", &b.to_string());
        }
    }

    /// Reads a recipe back out of a trace's metadata. `Err` names the
    /// missing or malformed key — traces captured without a recipe
    /// (sweep cells, hand-built systems) are diffable but not
    /// replayable. Captures taken on the removed sharded engine (a
    /// `spec.shards` key) are refused too: their event order is not the
    /// sequential engine's, so a replay could never match them.
    pub fn from_trace(t: &Trace) -> Result<CaptureSpec, String> {
        fn get<'a>(t: &'a Trace, key: &str) -> Result<&'a str, String> {
            t.meta_get(key)
                .ok_or_else(|| format!("trace has no `{key}` metadata (not a replayable capture)"))
        }
        let workload = parse_workload(get(t, "spec.workload")?)
            .ok_or_else(|| "bad `spec.workload` metadata: unknown workload".to_string())?;
        let size = parse_size(get(t, "spec.size")?)
            .ok_or_else(|| "bad `spec.size` metadata: unknown size".to_string())?;
        let policy = parse_policy(get(t, "spec.policy")?)
            .ok_or_else(|| "bad `spec.policy` metadata: unknown policy".to_string())?;
        let scale = Scale::parse(get(t, "spec.scale")?)
            .ok_or_else(|| "bad `spec.scale` metadata: unknown scale".to_string())?;
        let paper_machine = match get(t, "spec.paper")? {
            "0" => false,
            "1" => true,
            _ => return Err("bad `spec.paper` metadata: expected 0 or 1".into()),
        };
        let seed: u64 = get(t, "spec.seed")?
            .parse()
            .map_err(|_| "bad `spec.seed` metadata: not an integer".to_string())?;
        let pei_budget = match t.meta_get("spec.budget") {
            None => None,
            Some(b) => Some(
                b.parse()
                    .map_err(|_| "bad `spec.budget` metadata: not an integer".to_string())?,
            ),
        };
        if t.meta_get("spec.shards").is_some() {
            return Err(
                "capture was taken on the sharded engine (`spec.shards` metadata), \
                        which has been removed; its event order cannot be replayed on the \
                        sequential engine, so re-capture it"
                    .into(),
            );
        }
        Ok(CaptureSpec {
            workload,
            size,
            policy,
            scale,
            paper_machine,
            seed,
            pei_budget,
        })
    }

    /// Runs the cell with a recorder attached and returns the result
    /// plus the finished trace, its metadata carrying both this recipe
    /// and the run's full statistics report (under the `stats` key) so
    /// [`replay`] can verify byte-identity later.
    pub fn capture(&self) -> (RunResult, Trace) {
        let (result, mut sink) = self.to_run_spec().run_traced(Box::new(Recorder::new()));
        self.write_meta(sink.as_mut());
        sink.meta("stats", &result.stats.to_string());
        let bytes = sink.to_petr().expect("a Recorder retains its capture");
        let trace = Trace::from_bytes(&bytes).expect("a Recorder round-trips its own encoding");
        (result, trace)
    }
}

/// The outcome of replaying a captured trace.
#[derive(Debug)]
pub struct Replay {
    /// The recipe that was re-executed.
    pub spec: CaptureSpec,
    /// The re-execution's result.
    pub result: RunResult,
    /// Whether the re-executed statistics report is byte-identical to
    /// the one stored in the capture's `stats` metadata.
    pub stats_match: bool,
    /// First divergence between the captured and re-recorded event
    /// streams, if any.
    pub divergence: Option<Divergence>,
}

impl Replay {
    /// Whether the replay reproduced the capture exactly.
    pub fn identical(&self) -> bool {
        self.stats_match && self.divergence.is_none()
    }
}

/// Re-executes the cell recorded in `t`'s metadata and compares both
/// the event stream and the statistics report against the capture.
/// `Err` means the trace carries no (or malformed) recipe; a
/// *divergent* replay is an `Ok` whose [`Replay::identical`] is false.
pub fn replay(t: &Trace) -> Result<Replay, String> {
    let spec = CaptureSpec::from_trace(t)?;
    let expected_stats = t
        .meta_get("stats")
        .ok_or_else(|| "trace has no `stats` metadata (not a replayable capture)".to_string())?
        .to_string();
    let (result, sink) = spec.to_run_spec().run_traced(Box::new(Recorder::new()));
    let bytes = sink.to_petr().expect("a Recorder retains its capture");
    let reexec = Trace::from_bytes(&bytes).expect("a Recorder round-trips its own encoding");
    let stats_match = result.stats.to_string() == expected_stats;
    let divergence = diff(t, &reexec);
    Ok(Replay {
        spec,
        result,
        stats_match,
        divergence,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vocabulary_round_trips() {
        for w in Workload::ALL {
            assert_eq!(parse_workload(w.label()), Some(w));
        }
        assert_eq!(parse_workload("atf"), Some(Workload::Atf));
        assert_eq!(parse_workload("nope"), None);
        for s in InputSize::ALL {
            assert_eq!(parse_size(size_name(s)), Some(s));
        }
        for p in [
            DispatchPolicy::HostOnly,
            DispatchPolicy::PimOnly,
            DispatchPolicy::LocalityAware,
            DispatchPolicy::LocalityAwareBalanced,
        ] {
            assert_eq!(parse_policy(policy_name(p)), Some(p));
        }
        for sc in [Scale::Quick, Scale::Full] {
            assert_eq!(Scale::parse(sc.name()), Some(sc));
        }
    }

    #[test]
    fn spec_meta_round_trips() {
        let spec = CaptureSpec {
            workload: Workload::Hj,
            size: InputSize::Medium,
            policy: DispatchPolicy::LocalityAwareBalanced,
            scale: Scale::Full,
            paper_machine: true,
            seed: 0xfeed,
            pei_budget: Some(1234),
        };
        let mut rec = Recorder::new();
        spec.write_meta(&mut rec);
        let t = Trace::from_bytes(&rec.to_petr().unwrap()).unwrap();
        assert_eq!(CaptureSpec::from_trace(&t).unwrap(), spec);
    }

    #[test]
    fn unreplayable_trace_is_reported() {
        let t = Trace::from_bytes(&Recorder::new().to_petr().unwrap()).unwrap();
        let err = CaptureSpec::from_trace(&t).unwrap_err();
        assert!(err.contains("spec.workload"), "{err}");
        assert!(replay(&t).is_err());

        // A capture from the removed sharded engine carries a full
        // recipe plus `spec.shards`; it is refused, not replayed on the
        // sequential engine.
        let spec = CaptureSpec {
            workload: Workload::Atf,
            size: InputSize::Small,
            policy: DispatchPolicy::LocalityAware,
            scale: Scale::Quick,
            paper_machine: false,
            seed: 1,
            pei_budget: None,
        };
        let mut rec = Recorder::new();
        spec.write_meta(&mut rec);
        rec.meta("spec.shards", "2");
        let t = Trace::from_bytes(&rec.to_petr().unwrap()).unwrap();
        let err = replay(&t).unwrap_err();
        assert!(err.contains("sharded engine"), "{err}");
    }
}
