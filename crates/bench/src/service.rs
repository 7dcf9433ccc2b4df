//! Library surface for long-lived simulator hosts (`pei-serve`).
//!
//! The batch runner in [`crate::runner`] optimizes one-shot grids: fork
//! groups are known up front, workers claim whole groups, and every
//! snapshot dies with its group. A daemon sees the same cells arrive
//! *over time* — job 7 may share a warm prefix with job 2 that finished
//! minutes ago — so this module keeps the fork machinery **resident**:
//!
//! * [`resolve_recipe`] turns a wire-format [`Recipe`] (string-typed
//!   workload/policy/size names) into a validated [`RunSpec`], reusing
//!   the `tracecap` vocabulary so daemon submissions, `.petr` captures,
//!   and figure binaries all speak the same names. Unknown names come
//!   back as descriptive errors for a structured `error` frame, never a
//!   panic.
//! * [`ForkCache`] holds warmed snapshots keyed by
//!   [`fork_key`] across jobs, with the same
//!   [`ForkPolicy`] auto-bypass as the batch runner and counters that
//!   answer the daemon's `stats` request. Results are byte-identical to
//!   [`RunSpec::run`] whichever path serves them — the daemon's
//!   byte-identity contract rests on that.
//!
//! Both sides call the same primitives
//! ([`warm_pause`](crate::runner::warm_pause),
//! [`run_from_warm`](crate::runner::run_from_warm),
//! `System::run_cancellable`), so the figure binaries and the daemon
//! are thin clients of one code path.

use crate::runner::{fork_key, ForkPolicy, ForkStats, RunSpec, Warmup};
use crate::tracecap::{parse_policy, parse_size, parse_workload, CaptureSpec};
use crate::{ExpOptions, Scale};
use pei_system::{FaultKind, FaultPlan, RunResult, Snapshot};
use pei_types::wire::Recipe;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Why [`ForkCache::run_bounded`] abandoned a run before completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stopped {
    /// The caller's cancel flag was observed set.
    Cancelled,
    /// The wall-clock deadline passed. Like cancellation, the stop
    /// lands on a slice boundary and any cached snapshot stays valid.
    DeadlineExceeded,
}

/// Wire name of a fault kind (`wedge-vault`, `leak-mshr`, …).
pub fn fault_kind_name(k: FaultKind) -> &'static str {
    match k {
        FaultKind::WedgeVault => "wedge-vault",
        FaultKind::LeakMshr => "leak-mshr",
        FaultKind::CorruptLine => "corrupt-line",
        FaultKind::LeakDirLock => "leak-dir-lock",
        FaultKind::LeakLinkCredit => "leak-link-credit",
        FaultKind::OverfillPcu => "overfill-pcu",
        FaultKind::RogueXbarMessage => "rogue-xbar-message",
        FaultKind::DropEvent => "drop-event",
        FaultKind::DelayEvent => "delay-event",
    }
}

/// Inverse of [`fault_kind_name`].
pub fn parse_fault_kind(s: &str) -> Option<FaultKind> {
    [
        FaultKind::WedgeVault,
        FaultKind::LeakMshr,
        FaultKind::CorruptLine,
        FaultKind::LeakDirLock,
        FaultKind::LeakLinkCredit,
        FaultKind::OverfillPcu,
        FaultKind::RogueXbarMessage,
        FaultKind::DropEvent,
        FaultKind::DelayEvent,
    ]
    .into_iter()
    .find(|&k| fault_kind_name(k) == s)
}

/// Validates a wire recipe into a runnable [`RunSpec`].
///
/// The vocabulary is the `tracecap` one: workloads by figure label
/// (case-insensitive), sizes `small|medium|large`, policies by long
/// name (`locality-aware`) or the short CLI aliases
/// (`host|pim|la|lab`), scales `quick|full`. Errors describe the
/// offending field and the accepted values — they become the daemon's
/// `bad-recipe` error frames.
pub fn resolve_recipe(recipe: &Recipe) -> Result<RunSpec, String> {
    let (workload, size, policy, scale) = resolve_vocabulary(recipe)?;
    let opts = ExpOptions {
        scale,
        paper_machine: recipe.paper,
        seed: recipe.seed,
        ..ExpOptions::default()
    };
    let mut params = opts.workload_params();
    if let Some(b) = recipe.budget {
        params.pei_budget = b;
    }
    let mut spec = RunSpec::sized(opts.machine(policy), params, workload, size);
    spec.check = recipe.check;
    if !recipe.fault_kinds.is_empty() {
        let mut plan = FaultPlan::new(recipe.fault_seed.unwrap_or(recipe.seed));
        for name in &recipe.fault_kinds {
            let kind = parse_fault_kind(name).ok_or_else(|| {
                format!("unknown fault kind `{name}` (e.g. wedge-vault, leak-mshr)")
            })?;
            plan = plan.with(kind);
        }
        spec.fault = Some(plan);
    } else if recipe.fault_seed.is_some() {
        return Err("`fault_seed` without `fault_kinds` arms nothing".to_owned());
    }
    Ok(spec)
}

/// Validates a wire recipe into a traceable [`CaptureSpec`] — the
/// daemon's path for submissions that request a `.petr` capture.
///
/// Checked mode and fault plans are rejected here: the `.petr`
/// metadata vocabulary (`spec.*` keys) has no channel for them, so a
/// replay could not reproduce the run.
pub fn resolve_capture(recipe: &Recipe) -> Result<CaptureSpec, String> {
    if recipe.check || recipe.fault_seed.is_some() || !recipe.fault_kinds.is_empty() {
        return Err(
            "traced runs can't use `check` or fault injection (the trace metadata has no channel for them)"
                .to_owned(),
        );
    }
    let (workload, size, policy, scale) = resolve_vocabulary(recipe)?;
    Ok(CaptureSpec {
        workload,
        size,
        policy,
        scale,
        paper_machine: recipe.paper,
        seed: recipe.seed,
        pei_budget: recipe.budget,
    })
}

/// The string→enum step shared by [`resolve_recipe`] and
/// [`resolve_capture`].
fn resolve_vocabulary(
    recipe: &Recipe,
) -> Result<
    (
        pei_workloads::Workload,
        pei_workloads::InputSize,
        pei_core::DispatchPolicy,
        Scale,
    ),
    String,
> {
    let workload = parse_workload(&recipe.workload).ok_or_else(|| {
        format!(
            "unknown workload `{}` (atf|bfs|pr|sp|wcc|hj|hg|rp|sc|svm)",
            recipe.workload
        )
    })?;
    let size = parse_size(&recipe.size)
        .ok_or_else(|| format!("unknown size `{}` (small|medium|large)", recipe.size))?;
    let policy = match recipe.policy.as_str() {
        "host" => pei_core::DispatchPolicy::HostOnly,
        "pim" => pei_core::DispatchPolicy::PimOnly,
        "la" => pei_core::DispatchPolicy::LocalityAware,
        "lab" => pei_core::DispatchPolicy::LocalityAwareBalanced,
        long => parse_policy(long).ok_or_else(|| {
            format!(
                "unknown policy `{long}` (host|pim|la|lab or host-only|pim-only|locality-aware|locality-aware-balanced)"
            )
        })?,
    };
    let scale = Scale::parse(&recipe.scale)
        .ok_or_else(|| format!("unknown scale `{}` (quick|full)", recipe.scale))?;
    Ok((workload, size, policy, scale))
}

/// What the cache holds for one fork key.
enum Resident {
    /// A warmed snapshot, shared by reference with running jobs (a
    /// restore reads it; nothing ever mutates it — which is why a
    /// cancelled job cannot corrupt the cache).
    Warm(Arc<Snapshot>),
    /// This key's prefix was measured below the policy threshold (or
    /// refused to snapshot); don't re-warm speculatively on every job.
    Bypass,
}

/// Occupancy and traffic counters of a [`ForkCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Resident warmed snapshots.
    pub entries: u64,
    /// Total bytes of resident snapshot state.
    pub bytes: u64,
    /// The byte budget eviction keeps [`bytes`](CacheStats::bytes)
    /// under (0 = unbounded).
    pub capacity_bytes: u64,
    /// Warm snapshots evicted to stay inside the budget.
    pub evictions: u64,
    /// Total bytes those evictions released.
    pub evicted_bytes: u64,
    /// Per-job hit/miss/bypass/ineligible classification (same meaning
    /// as the batch runner's [`ForkStats`]).
    pub fork: ForkStats,
}

/// One cached decision for a fork key, with the LRU stamp eviction
/// orders by (meaningful only for `Warm` residents).
struct Entry {
    resident: Resident,
    last_used: u64,
}

/// The map plus the byte/LRU accounting it must stay consistent with —
/// everything eviction reads or writes lives under one mutex.
#[derive(Default)]
struct Entries {
    map: HashMap<String, Entry>,
    /// Bytes of all `Warm` residents (kept incrementally; eviction
    /// compares this against the budget).
    resident_bytes: u64,
    /// Monotonic access counter stamping `last_used`.
    tick: u64,
    evictions: u64,
    evicted_bytes: u64,
}

impl Entries {
    fn stamp(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// Inserts (or replaces) `key`, keeping `resident_bytes` exact.
    fn insert(&mut self, key: String, resident: Resident) {
        if let Resident::Warm(s) = &resident {
            self.resident_bytes += s.as_bytes().len() as u64;
        }
        let stamp = self.stamp();
        if let Some(old) = self.map.insert(
            key,
            Entry {
                resident,
                last_used: stamp,
            },
        ) {
            if let Resident::Warm(s) = &old.resident {
                self.resident_bytes -= s.as_bytes().len() as u64;
            }
        }
    }

    /// Evicts least-recently-used `Warm` entries until `resident_bytes`
    /// fits `budget`. Evicted keys are removed outright: the next job
    /// of that key re-warms as an ordinary miss, so eviction can never
    /// change results — only where the warmup cycles are spent.
    fn evict_to(&mut self, budget: u64) {
        while self.resident_bytes > budget {
            let victim = self
                .map
                .iter()
                .filter(|(_, e)| matches!(e.resident, Resident::Warm(_)))
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone());
            let Some(key) = victim else { break };
            if let Some(Entry {
                resident: Resident::Warm(s),
                ..
            }) = self.map.remove(&key)
            {
                let bytes = s.as_bytes().len() as u64;
                self.resident_bytes -= bytes;
                self.evictions += 1;
                self.evicted_bytes += bytes;
            }
        }
    }
}

/// A process-lifetime warm-snapshot cache for daemon-style hosts.
///
/// Keyed by [`fork_key`]: the first job of a
/// key runs its warmup prefix, and — if the prefix clears the
/// [`ForkPolicy::min_prefix`] auto-bypass — leaves a snapshot behind
/// that later same-key jobs restore instead of replaying. The warmed
/// machine always continues as that first job's own run, so a miss
/// wastes nothing; short-prefix keys are remembered as bypassed so the
/// decision is made once, not per job.
///
/// All methods take `&self`; entries sit behind an internal mutex held
/// only for lookups and inserts (never across a simulation), and the
/// counters are atomics — workers run concurrently. Two concurrent
/// first-jobs of one key may both warm; the losing insert is discarded
/// and both results are still correct (warming is pure).
///
/// Residency is bounded: [`with_budget`](ForkCache::with_budget) caps
/// the bytes of `Warm` snapshots, evicting least-recently-used entries
/// when an insert overflows the cap. An evicted key is forgotten
/// entirely — its next job counts as a miss and re-warms — so eviction
/// trades warmup time for memory and never changes a single result
/// byte (pinned by test and CI).
pub struct ForkCache {
    policy: ForkPolicy,
    /// Byte budget for resident `Warm` snapshots; `None` = unbounded.
    budget: Option<u64>,
    entries: Mutex<Entries>,
    hits: AtomicU64,
    misses: AtomicU64,
    bypasses: AtomicU64,
    ineligible: AtomicU64,
}

impl ForkCache {
    /// An empty, unbounded cache running under `policy`.
    pub fn new(policy: ForkPolicy) -> ForkCache {
        ForkCache::with_budget(policy, None)
    }

    /// An empty cache whose resident `Warm` snapshots are kept under
    /// `budget` bytes by LRU eviction (`None` = unbounded). Eviction is
    /// invisible in results: an evicted key's next job re-warms cold,
    /// byte-identical — only the warmup cost comes back.
    pub fn with_budget(policy: ForkPolicy, budget: Option<u64>) -> ForkCache {
        ForkCache {
            policy,
            budget,
            entries: Mutex::new(Entries::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            bypasses: AtomicU64::new(0),
            ineligible: AtomicU64::new(0),
        }
    }

    /// Inserts under the budget: the entry lands, then LRU `Warm`
    /// entries (possibly the one just inserted) are evicted until the
    /// residency fits.
    fn insert_bounded(&self, key: String, resident: Resident) {
        let mut entries = self.entries.lock().unwrap();
        entries.insert(key, resident);
        if let Some(budget) = self.budget {
            entries.evict_to(budget);
        }
    }

    /// Executes `spec` through the cache: restore a resident snapshot
    /// on a hit, warm-and-continue (leaving the snapshot behind) on a
    /// miss, plain cold run when the spec is ineligible or its key is
    /// marked bypassed. The result is byte-identical to
    /// [`RunSpec::run`] on every path.
    pub fn run(&self, spec: &RunSpec) -> RunResult {
        let never = AtomicBool::new(false);
        self.run_cancellable(spec, u64::MAX, &never, |_| ())
            .expect("an unset cancel flag never cancels")
    }

    /// [`run`](ForkCache::run), with cooperative cancellation: the
    /// simulation is sliced into `slice`-cycle windows and `cancel` is
    /// checked between them (`System::run_cancellable`); `progress`
    /// receives the cycle reached after each slice. Returns `None` if
    /// the flag was observed set — the job's machine is dropped, and
    /// any snapshot already cached stays valid (it is immutable).
    ///
    /// Warmups are run-to-completion (they are milliseconds), so the
    /// flag is only checked before they start.
    pub fn run_cancellable(
        &self,
        spec: &RunSpec,
        slice: u64,
        cancel: &AtomicBool,
        progress: impl FnMut(u64),
    ) -> Option<RunResult> {
        let key = if self.policy.enabled {
            fork_key(spec)
        } else {
            None
        };
        let Some(key) = key else {
            self.ineligible.fetch_add(1, Ordering::Relaxed);
            return run_spec_cancellable(spec, slice, cancel, progress);
        };
        let resident = {
            let mut entries = self.entries.lock().unwrap();
            let stamp = entries.stamp();
            match entries.map.get_mut(&key) {
                Some(entry) => match &entry.resident {
                    Resident::Warm(snap) => {
                        entry.last_used = stamp;
                        Some(Some(Arc::clone(snap)))
                    }
                    Resident::Bypass => Some(None),
                },
                None => None,
            }
        };
        match resident {
            Some(Some(snap)) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                let mut sys = spec.build();
                spec.arm(&mut sys);
                if sys.restore(&snap).is_err() {
                    // A key collision that doesn't fit this machine;
                    // deterministic for the key, so remember the bypass.
                    self.insert_bounded(key, Resident::Bypass);
                    return run_spec_cancellable(spec, slice, cancel, progress);
                }
                sys.run_cancellable(spec.max_cycles, slice, cancel, progress)
            }
            Some(None) => {
                self.bypasses.fetch_add(1, Ordering::Relaxed);
                run_spec_cancellable(spec, slice, cancel, progress)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                match crate::runner::warm_pause(spec) {
                    Warmup::Done(r) => {
                        // The whole run precedes any PEI; nothing to
                        // share for this key, and `r` is the full result.
                        self.insert_bounded(key, Resident::Bypass);
                        if cancel.load(Ordering::Relaxed) {
                            return None;
                        }
                        Some(*r)
                    }
                    Warmup::Paused(mut sys, at) => {
                        let resident = if at >= self.policy.min_prefix {
                            match sys.snapshot() {
                                Ok(snap) => Resident::Warm(Arc::new(snap)),
                                Err(_) => Resident::Bypass,
                            }
                        } else {
                            Resident::Bypass
                        };
                        self.insert_bounded(key, resident);
                        // The warmed machine finishes this job itself.
                        sys.run_cancellable(spec.max_cycles, slice, cancel, progress)
                    }
                }
            }
        }
    }

    /// [`run_cancellable`](ForkCache::run_cancellable), with an
    /// additional wall-clock budget: past `deadline`, the run is
    /// abandoned at the next slice boundary exactly as a cancellation
    /// would be — the job's machine is dropped and resident snapshots
    /// stay valid. When both the flag and the deadline trip in the same
    /// slice window, cancellation wins (it is the caller's explicit
    /// request).
    ///
    /// The same caveat as cancellation applies: warmups check only
    /// before they start, so the deadline is enforced at slice
    /// granularity, not exactly.
    pub fn run_bounded(
        &self,
        spec: &RunSpec,
        slice: u64,
        cancel: &AtomicBool,
        deadline: Option<Instant>,
        mut progress: impl FnMut(u64),
    ) -> Result<RunResult, Stopped> {
        let expired = |d: Option<Instant>| d.is_some_and(|d| Instant::now() >= d);
        if cancel.load(Ordering::Relaxed) {
            return Err(Stopped::Cancelled);
        }
        if expired(deadline) {
            return Err(Stopped::DeadlineExceeded);
        }
        // The engine only understands one stop flag, so compose both
        // conditions into `halt` from inside the slice-boundary hook and
        // remember which tripped first.
        let halt = AtomicBool::new(false);
        let deadline_hit = std::cell::Cell::new(false);
        let out = self.run_cancellable(spec, slice, &halt, |cycle| {
            progress(cycle);
            if cancel.load(Ordering::Relaxed) {
                halt.store(true, Ordering::Relaxed);
            } else if expired(deadline) {
                deadline_hit.set(true);
                halt.store(true, Ordering::Relaxed);
            }
        });
        match out {
            Some(result) => Ok(result),
            None if deadline_hit.get() => Err(Stopped::DeadlineExceeded),
            None => Err(Stopped::Cancelled),
        }
    }

    /// Records a job that ran outside the cache entirely — traced runs
    /// need a tracer attached before the machine starts, so a daemon
    /// executes them cold and reports them here to keep the counters a
    /// complete partition of jobs.
    pub fn note_ineligible(&self) {
        self.ineligible.fetch_add(1, Ordering::Relaxed);
    }

    /// Current occupancy and per-job counters (the daemon's `stats`
    /// frame).
    pub fn stats(&self) -> CacheStats {
        let (entries, bytes, evictions, evicted_bytes) = {
            let e = self.entries.lock().unwrap();
            let warm = e
                .map
                .values()
                .filter(|x| matches!(x.resident, Resident::Warm(_)))
                .count() as u64;
            (warm, e.resident_bytes, e.evictions, e.evicted_bytes)
        };
        CacheStats {
            entries,
            bytes,
            capacity_bytes: self.budget.unwrap_or(0),
            evictions,
            evicted_bytes,
            fork: ForkStats {
                hits: self.hits.load(Ordering::Relaxed),
                misses: self.misses.load(Ordering::Relaxed),
                bypasses: self.bypasses.load(Ordering::Relaxed),
                ineligible: self.ineligible.load(Ordering::Relaxed),
            },
        }
    }
}

/// Cold path: build, arm, and drive `spec` cancellably.
fn run_spec_cancellable(
    spec: &RunSpec,
    slice: u64,
    cancel: &AtomicBool,
    progress: impl FnMut(u64),
) -> Option<RunResult> {
    let mut sys = spec.build();
    spec.arm(&mut sys);
    sys.run_cancellable(spec.max_cycles, slice, cancel, progress)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_recipe(policy: &str) -> Recipe {
        let mut r = Recipe::new("atf", "small", policy);
        r.seed = 7;
        r.budget = Some(2_000);
        r
    }

    #[test]
    fn recipes_resolve_through_the_shared_vocabulary() {
        let spec = resolve_recipe(&quick_recipe("la")).unwrap();
        assert_eq!(spec.cfg.policy, pei_core::DispatchPolicy::LocalityAware);
        assert_eq!(spec.params.seed, 7);
        assert_eq!(spec.params.pei_budget, 2_000);
        // Long names and case-insensitive workload labels work too.
        let spec = resolve_recipe(&quick_recipe("locality-aware-balanced")).unwrap();
        assert_eq!(
            spec.cfg.policy,
            pei_core::DispatchPolicy::LocalityAwareBalanced
        );
        let mut r = quick_recipe("host");
        r.workload = "ATF".into();
        assert!(resolve_recipe(&r).is_ok());
    }

    #[test]
    fn bad_recipes_name_the_field() {
        let mut r = quick_recipe("la");
        r.workload = "quicksort".into();
        assert!(resolve_recipe(&r).unwrap_err().contains("workload"));
        let mut r = quick_recipe("warp-speed");
        assert!(resolve_recipe(&r).unwrap_err().contains("policy"));
        r = quick_recipe("la");
        r.size = "tiny".into();
        assert!(resolve_recipe(&r).unwrap_err().contains("size"));
        r = quick_recipe("la");
        r.scale = "epic".into();
        assert!(resolve_recipe(&r).unwrap_err().contains("scale"));
        r = quick_recipe("la");
        r.fault_seed = Some(1);
        assert!(resolve_recipe(&r).unwrap_err().contains("fault_kinds"));
        r = quick_recipe("la");
        r.fault_kinds = vec!["gremlin".into()];
        assert!(resolve_recipe(&r).unwrap_err().contains("fault kind"));
    }

    #[test]
    fn fault_recipes_arm_a_plan() {
        let mut r = quick_recipe("la");
        r.check = true;
        r.fault_seed = Some(11);
        r.fault_kinds = vec!["leak-mshr".into(), "wedge-vault".into()];
        let spec = resolve_recipe(&r).unwrap();
        assert!(spec.check);
        let plan = spec.fault.expect("fault plan armed");
        assert_eq!(plan.seed(), 11);
        assert_eq!(plan.kinds(), [FaultKind::LeakMshr, FaultKind::WedgeVault]);
        // Names round-trip for every kind.
        for k in plan.kinds() {
            assert_eq!(parse_fault_kind(fault_kind_name(*k)), Some(*k));
        }
    }

    #[test]
    fn resident_cache_hits_across_jobs_and_stays_byte_identical() {
        let la = resolve_recipe(&quick_recipe("la")).unwrap();
        let lab = resolve_recipe(&quick_recipe("lab")).unwrap();
        let cold_la = la.run();
        let cold_lab = lab.run();

        // ForkPolicy::always() so the quick-scale prefix actually forks.
        let cache = ForkCache::new(ForkPolicy::always());
        let warm_la = cache.run(&la);
        let warm_lab = cache.run(&lab); // same monitor class → same key
        let again = cache.run(&la);
        assert_eq!(warm_la.stats, cold_la.stats);
        assert_eq!(warm_lab.stats, cold_lab.stats);
        assert_eq!(again.stats, cold_la.stats);
        let s = cache.stats();
        assert_eq!(s.entries, 1, "one monitor-class snapshot resident");
        assert!(s.bytes > 0);
        assert_eq!(s.fork.misses, 1, "only the first job warmed");
        assert_eq!(s.fork.hits, 2);
    }

    #[test]
    fn default_policy_remembers_the_bypass() {
        let la = resolve_recipe(&quick_recipe("la")).unwrap();
        let cache = ForkCache::new(ForkPolicy::default());
        let first = cache.run(&la);
        let second = cache.run(&la);
        assert_eq!(first.stats, la.run().stats);
        assert_eq!(first.stats, second.stats);
        let s = cache.stats();
        assert_eq!(s.entries, 0, "quick-scale prefix is below the threshold");
        assert_eq!(s.fork.misses, 1);
        assert_eq!(s.fork.bypasses, 1, "the decision is cached, not re-warmed");
    }

    #[test]
    fn cancellation_leaves_the_cache_intact() {
        let la = resolve_recipe(&quick_recipe("la")).unwrap();
        let cache = ForkCache::new(ForkPolicy::always());
        let reference = cache.run(&la); // warms + caches

        // Cancel a job mid-run (flag raised from the progress hook).
        let cancel = AtomicBool::new(false);
        let out = cache.run_cancellable(&la, 200, &cancel, |_| {
            cancel.store(true, Ordering::Relaxed);
        });
        assert!(out.is_none(), "job observed the flag and stopped");

        // The resident snapshot is untouched: the next job hits it and
        // reproduces the reference byte-for-byte.
        let after = cache.run(&la);
        assert_eq!(after.stats, reference.stats);
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn deadlines_stop_runs_like_cancellation_and_spare_the_cache() {
        let la = resolve_recipe(&quick_recipe("la")).unwrap();
        let cache = ForkCache::new(ForkPolicy::always());
        let reference = cache.run(&la); // warms + caches
        let never = AtomicBool::new(false);

        // An already-expired deadline stops the job before it builds a
        // machine — and before the cache counts it.
        let before = cache.stats().fork;
        let out = cache.run_bounded(&la, 200, &never, Some(Instant::now()), |_| ());
        assert_eq!(out.unwrap_err(), Stopped::DeadlineExceeded);
        assert_eq!(cache.stats().fork, before, "expired jobs never run");

        // A deadline tripping mid-run stops at a slice boundary; the
        // resident snapshot still reproduces the reference bytes. (50µs
        // lapses before the first 50-cycle slice retires, but only the
        // slice-boundary hook notices — the pre-check already passed.)
        let soon = Instant::now() + std::time::Duration::from_micros(50);
        let mut ticks = 0u64;
        let out = cache.run_bounded(&la, 50, &never, Some(soon), |_| ticks += 1);
        assert_eq!(out.unwrap_err(), Stopped::DeadlineExceeded);
        assert!(ticks > 0, "the run got at least one slice in");
        assert_eq!(cache.run(&la).stats, reference.stats);

        // Cancellation wins over a lapsed deadline, and no deadline at
        // all reproduces run() byte-for-byte.
        let cancelled = AtomicBool::new(true);
        let out = cache.run_bounded(&la, 200, &cancelled, Some(Instant::now()), |_| ());
        assert_eq!(out.unwrap_err(), Stopped::Cancelled);
        let out = cache.run_bounded(&la, 200, &never, None, |_| ());
        assert_eq!(out.unwrap().stats, reference.stats);
    }

    #[test]
    fn eviction_under_a_tiny_budget_stays_byte_identical_to_cold() {
        let a = resolve_recipe(&quick_recipe("la")).unwrap();
        let mut r = quick_recipe("la");
        r.seed = 8; // a different fork key
        let b = resolve_recipe(&r).unwrap();
        let (cold_a, cold_b) = (a.run(), b.run());

        // A 1-byte budget evicts every snapshot the moment it lands:
        // every job re-warms, none hit, and all stay byte-identical.
        let cache = ForkCache::with_budget(ForkPolicy::always(), Some(1));
        assert_eq!(cache.run(&a).stats, cold_a.stats);
        assert_eq!(cache.run(&b).stats, cold_b.stats);
        assert_eq!(cache.run(&a).stats, cold_a.stats);
        let s = cache.stats();
        assert_eq!(s.entries, 0, "nothing fits a 1-byte budget");
        assert_eq!(s.bytes, 0);
        assert_eq!(s.capacity_bytes, 1);
        assert_eq!(s.fork.misses, 3, "evicted keys miss again");
        assert_eq!(s.fork.hits, 0);
        assert_eq!(s.evictions, 3);
        assert!(s.evicted_bytes > 0);
    }

    #[test]
    fn lru_eviction_drops_the_coldest_key_first() {
        let a = resolve_recipe(&quick_recipe("la")).unwrap();
        let mut r = quick_recipe("la");
        r.seed = 8;
        let b = resolve_recipe(&r).unwrap();

        // Measure one resident snapshot, then budget for one-and-a-half:
        // either key fits alone (their sizes differ only marginally by
        // seed), both together never do.
        let probe = ForkCache::new(ForkPolicy::always());
        probe.run(&a);
        let one = probe.stats().bytes;
        assert!(one > 0);

        let cache = ForkCache::with_budget(ForkPolicy::always(), Some(one + one / 2));
        let cold_a = a.run();
        assert_eq!(cache.run(&a).stats, cold_a.stats); // miss, A resident
        assert_eq!(cache.run(&b).stats, b.run().stats); // miss, evicts A
        assert_eq!(cache.run(&b).stats, b.run().stats); // hit: B survived
        assert_eq!(cache.run(&a).stats, cold_a.stats); // miss: A was evicted
        let s = cache.stats();
        assert_eq!(s.fork.hits, 1, "the freshest key stayed: {s:?}");
        assert_eq!(s.fork.misses, 3);
        assert!(s.evictions >= 1);
        assert!(s.bytes <= one + one / 2, "residency respects the budget");
    }

    #[test]
    fn ineligible_specs_run_cold_through_the_cache() {
        let mut r = quick_recipe("la");
        r.check = true;
        r.fault_kinds = vec!["delay-event".into()]; // negative control: completes
        let spec = resolve_recipe(&r).unwrap();
        let cache = ForkCache::new(ForkPolicy::always());
        let through = cache.run(&spec);
        assert_eq!(through.stats, spec.run().stats);
        let s = cache.stats();
        assert_eq!(s.fork.ineligible, 1);
        assert_eq!(s.entries, 0);
    }
}
