//! Deterministic parallel execution of experiment grids.
//!
//! Every figure of the paper's evaluation (§7) is a grid of *mutually
//! independent* simulations: workloads × input sizes × machine
//! configurations, 200 multiprogrammed mixes, parameter sweeps. This
//! module turns one grid cell into a value — a [`RunSpec`] — and fans a
//! batch of them out over a [`std::thread::scope`] worker pool:
//!
//! * **Self-contained jobs.** A `RunSpec` carries everything a cell
//!   needs (machine config, workload parameters, input description,
//!   cycle limit), so running it is a pure function of the spec. Input
//!   seeds are fixed when the spec is *built*, never drawn during
//!   execution, which makes results independent of scheduling.
//! * **Work queue.** Workers claim specs from a shared atomic counter —
//!   no per-thread partitioning, so one slow cell (a large PIM-Only run)
//!   doesn't idle the rest of the pool.
//! * **Ordered collection.** Each result lands in its spec's slot, and
//!   callers print only after [`Batch::run`] returns — output tables are
//!   byte-identical for any `--jobs` value (the determinism contract,
//!   EXPERIMENTS.md).
//!
//! Workload inputs come from the process-wide cache in
//! [`pei_workloads::cache`], so the four configurations of one cell
//! share one generated graph no matter which workers execute them.
//!
//! # Examples
//!
//! ```
//! use pei_bench::runner::{Batch, RunSpec};
//! use pei_bench::ExpOptions;
//! use pei_core::DispatchPolicy;
//! use pei_workloads::{InputSize, Workload};
//!
//! let opts = ExpOptions::default();
//! let params = opts.workload_params();
//! let mut batch = Batch::new();
//! let host = batch.push(RunSpec::sized(
//!     opts.machine(DispatchPolicy::HostOnly),
//!     params,
//!     Workload::Atf,
//!     InputSize::Small,
//! ));
//! let pim = batch.push(RunSpec::sized(
//!     opts.machine(DispatchPolicy::PimOnly),
//!     params,
//!     Workload::Atf,
//!     InputSize::Small,
//! ));
//! let results = batch.run(2);
//! assert!(results[host].cycles > 0 && results[pim].cycles > 0);
//! ```

use crate::{ExpOptions, CYCLE_LIMIT};
use pei_core::DispatchPolicy;
use pei_system::{
    CheckConfig, FaultPlan, MachineConfig, PauseAt, RunResult, RunStatus, Snapshot, System,
};
use pei_workloads::{cache, InputSize, Workload, WorkloadParams};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// The input of one simulation cell.
#[derive(Debug, Clone)]
pub enum SpecInput {
    /// A workload at one of the paper's three input sizes (§7.1).
    Sized {
        /// Which workload.
        workload: Workload,
        /// Which input size.
        size: InputSize,
    },
    /// A graph workload on an explicitly sized power-law graph (the
    /// Fig. 2 / Fig. 8 nine-graph series).
    OnGraph {
        /// Which (graph) workload.
        workload: Workload,
        /// Vertex count.
        vertices: usize,
        /// Average out-degree.
        avg_deg: usize,
        /// Graph generation seed.
        graph_seed: u64,
    },
    /// Two co-scheduled workloads splitting the machine's cores in half
    /// (the Fig. 9 multiprogrammed mixes, §7.3). Workload `b` builds
    /// with its own parameters (disjoint heap, derived seed).
    Mix {
        /// First workload and its input size (cores `0..n/2`).
        a: (Workload, InputSize),
        /// Second workload and its input size (cores `n/2..n`).
        b: (Workload, InputSize),
        /// Build parameters for workload `b`.
        params_b: WorkloadParams,
    },
}

/// One simulation cell: everything needed to run it, fixed up front.
///
/// The per-spec seed lives in `params.seed` (and, for graph series, in
/// the explicit `graph_seed`); specs never draw randomness while
/// running, so a batch's results depend only on its specs — not on
/// `--jobs`, scheduling, or which worker picks up which cell.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// The machine to simulate (policy, scale, and any sweep overrides
    /// are all baked into the config — it is `Copy`, so sweeps mutate a
    /// local copy before pushing the spec).
    pub cfg: MachineConfig,
    /// Workload build parameters (threads, footprint, budget, seed).
    pub params: WorkloadParams,
    /// What to simulate.
    pub input: SpecInput,
    /// Upper bound on simulated cycles. A run that exceeds it reports a
    /// `CycleLimit` outcome rather than panicking; the batch runner
    /// surfaces the failure and keeps sibling cells running.
    pub max_cycles: u64,
    /// Checked mode: sweep the invariant auditors during the run (see
    /// `pei_system::check`). Off by default; [`Batch::run_with`] sets it
    /// from `--check`.
    pub check: bool,
    /// Deterministic fault injection for this cell (test harness and
    /// checked-mode validation; `None` in every real experiment).
    pub fault: Option<FaultPlan>,
    /// Always `None`: the in-run sharded engine was removed (DESIGN.md
    /// §10), and `Infallible` has no value, so nothing can set this.
    /// The field stays only because the repository benchmark
    /// (`perfbench/`) still reads it; drop it together with that read.
    pub shards: Option<std::convert::Infallible>,
}

impl RunSpec {
    /// A cell running `workload` at `size` on `cfg`.
    pub fn sized(
        cfg: MachineConfig,
        params: WorkloadParams,
        workload: Workload,
        size: InputSize,
    ) -> RunSpec {
        RunSpec {
            cfg,
            params,
            input: SpecInput::Sized { workload, size },
            max_cycles: CYCLE_LIMIT,
            check: false,
            fault: None,
            shards: None,
        }
    }

    /// A cell running a graph `workload` on an explicit power-law graph.
    pub fn on_graph(
        cfg: MachineConfig,
        params: WorkloadParams,
        workload: Workload,
        vertices: usize,
        avg_deg: usize,
        graph_seed: u64,
    ) -> RunSpec {
        RunSpec {
            cfg,
            params,
            input: SpecInput::OnGraph {
                workload,
                vertices,
                avg_deg,
                graph_seed,
            },
            max_cycles: CYCLE_LIMIT,
            check: false,
            fault: None,
            shards: None,
        }
    }

    /// A multiprogrammed cell: `a` on the lower half of the cores with
    /// `params`, `b` on the upper half with `params_b`.
    pub fn mix(
        cfg: MachineConfig,
        params: WorkloadParams,
        params_b: WorkloadParams,
        a: (Workload, InputSize),
        b: (Workload, InputSize),
    ) -> RunSpec {
        RunSpec {
            cfg,
            params,
            input: SpecInput::Mix { a, b, params_b },
            max_cycles: CYCLE_LIMIT,
            check: false,
            fault: None,
            shards: None,
        }
    }

    /// Builds the simulated machine for this cell — workload inputs
    /// generated, threads mapped to cores — without running it. Callers
    /// that want the plain result use [`run`](RunSpec::run); callers
    /// that attach observers (a [`pei_trace::TraceSink`], say) build
    /// first and drive [`System::run`] themselves.
    pub fn build(&self) -> System {
        match &self.input {
            SpecInput::Sized { workload, size } => {
                let (store, trace) = workload.build(*size, &self.params);
                let mut sys = System::new(self.cfg, store);
                sys.add_workload(trace, (0..self.cfg.cores).collect());
                sys
            }
            SpecInput::OnGraph {
                workload,
                vertices,
                avg_deg,
                graph_seed,
            } => {
                let g = cache::shared_power_law(*vertices, *avg_deg, *graph_seed);
                let (store, trace) = workload.build_on_graph(g, &self.params);
                let mut sys = System::new(self.cfg, store);
                sys.add_workload(trace, (0..self.cfg.cores).collect());
                sys
            }
            SpecInput::Mix { a, b, params_b } => {
                let half = self.cfg.cores / 2;
                let (mut store, trace_a) = a.0.build(a.1, &self.params);
                let (store_b, trace_b) = b.0.build(b.1, params_b);
                store.merge_from(&store_b);
                let mut sys = System::new(self.cfg, store);
                sys.add_workload(trace_a, (0..half).collect());
                sys.add_workload(trace_b, (half..self.cfg.cores).collect());
                sys
            }
        }
    }

    /// Applies the spec's fault plan and checked-mode flag to a freshly
    /// built machine (fault injection first, so the auditors observe
    /// the broken state).
    pub(crate) fn arm(&self, sys: &mut System) {
        if let Some(plan) = &self.fault {
            sys.inject_faults(plan);
        }
        if self.check {
            sys.enable_checks(CheckConfig::default());
        }
    }

    /// Executes this cell to completion. Pure in the spec: equal specs
    /// produce equal results, on any thread, in any order.
    pub fn run(&self) -> RunResult {
        let mut sys = self.build();
        self.arm(&mut sys);
        sys.run(self.max_cycles)
    }

    /// Executes this cell with `sink` attached as an event tracer,
    /// returning the result and the detached sink. The simulated
    /// outcome is identical to [`run`](RunSpec::run) — tracing observes,
    /// never steers (see DESIGN.md §8).
    pub fn run_traced(
        &self,
        sink: Box<dyn pei_trace::TraceSink>,
    ) -> (RunResult, Box<dyn pei_trace::TraceSink>) {
        let mut sys = self.build();
        sys.attach_tracer(sink);
        self.arm(&mut sys);
        let result = sys.run(self.max_cycles);
        let sink = sys.detach_tracer().expect("tracer was just attached");
        (result, sink)
    }

    /// One-line description for failure summaries.
    fn describe(&self) -> String {
        let input = match &self.input {
            SpecInput::Sized { workload, size } => format!("{workload:?}/{size:?}"),
            SpecInput::OnGraph {
                workload, vertices, ..
            } => format!("{workload:?}/graph{vertices}"),
            SpecInput::Mix { a, b, .. } => format!("{:?}+{:?}", a.0, b.0),
        };
        format!(
            "{input} on {:?} (seed {})",
            self.cfg.policy, self.params.seed
        )
    }
}

/// An ordered batch of [`RunSpec`]s with slot-indexed results.
///
/// Build the batch first (recording each cell's index), run it once,
/// then print from the returned `Vec` — the index returned by
/// [`Batch::push`] addresses that spec's result regardless of which
/// worker executed it or when it finished.
#[derive(Debug, Default)]
pub struct Batch {
    specs: Vec<RunSpec>,
}

impl Batch {
    /// An empty batch.
    pub fn new() -> Batch {
        Batch::default()
    }

    /// Queues a spec, returning the index of its result slot.
    pub fn push(&mut self, spec: RunSpec) -> usize {
        self.specs.push(spec);
        self.specs.len() - 1
    }

    /// Number of queued specs.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// Runs every spec on up to `jobs` worker threads and returns the
    /// results in push order. `jobs == 1` runs inline on the calling
    /// thread; results are identical either way.
    pub fn run(self, jobs: usize) -> Vec<RunResult> {
        run_specs(&self.specs, jobs)
    }

    /// Like [`run`](Batch::run), but driven by the shared command-line
    /// options: `--jobs` picks the worker count and `--check` turns on
    /// checked mode for every cell. The one-line change that gives a
    /// figure binary the full sanitizer surface.
    ///
    /// Cells that differ only in dispatch policy (within one PMU monitor
    /// class) share a warmed snapshot instead of each replaying the
    /// pre-PEI prefix (see [`run_specs_forked`]); `--no-fork` falls back
    /// to cold runs. Results are identical either way.
    pub fn run_with(mut self, opts: &ExpOptions) -> Vec<RunResult> {
        for spec in &mut self.specs {
            if opts.check {
                spec.check = true;
            }
        }
        run_specs_forked(&self.specs, opts.jobs, !opts.no_fork)
    }
}

/// Runs `specs` on up to `jobs` worker threads, returning results in
/// spec order. The workers share an atomic cursor over the spec list;
/// each claimed cell writes its result into its own slot, so the output
/// is a pure function of `specs` for every `jobs >= 1`.
///
/// A cell that stalls, hits its cycle limit, or fails an invariant
/// check does **not** take the batch down: its failure outcome lands in
/// its slot like any result, sibling cells keep running, and a summary
/// of every failed cell (spec description plus its
/// [`pei_system::FailureReport`]) goes to stderr before this returns.
///
/// # Panics
///
/// Panics if `jobs == 0`, or propagates the panic of any failed cell.
pub fn run_specs(specs: &[RunSpec], jobs: usize) -> Vec<RunResult> {
    assert!(jobs > 0, "--jobs must be at least 1");
    let workers = jobs.min(specs.len());
    let results: Vec<RunResult> = if workers <= 1 {
        specs.iter().map(RunSpec::run).collect()
    } else {
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<RunResult>>> = specs.iter().map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(spec) = specs.get(i) else { break };
                    let result = spec.run();
                    *slots[i].lock().unwrap() = Some(result);
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("worker panicked; result slot poisoned")
                    .expect("every spec gets exactly one result")
            })
            .collect()
    };
    report_failures(specs, &results);
    results
}

/// When (and whether) the batch runner forks warmed snapshots across a
/// fork group instead of cold-running every member.
///
/// PR 7 measured forking at 0.93× on quick-scale cells: the trace-driven
/// warmup prefix is only a few thousand cycles there, so serializing and
/// restoring the whole machine costs more than the replay it saves
/// (EXPERIMENTS.md, "Warm-state forking"). The fix is a *prefix-cycle
/// threshold*: after warming a group's first member to the first PEI,
/// the runner checks how long the shared prefix actually was, and below
/// [`min_prefix`](ForkPolicy::min_prefix) it skips the snapshot — the
/// already-warm machine simply continues as the first member's run (no
/// work wasted) and the remaining members run cold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ForkPolicy {
    /// Master switch; `false` is the `--no-fork` escape hatch and
    /// degrades to [`run_specs`] exactly.
    pub enabled: bool,
    /// Fork only groups whose warmup prefix reaches at least this many
    /// cycles; shorter prefixes are cheaper to replay than to snapshot.
    pub min_prefix: u64,
}

/// Default auto-bypass threshold, in warmup-prefix cycles.
///
/// Chosen from in-container measurement (EXPERIMENTS.md): today's
/// trace-driven workloads dispatch their first PEI after only 12–27
/// cycles at *every* input size, while one snapshot costs 0.5–32 ms
/// (0.3–18 MB of machine state) — which is why PR 7 measured forking
/// as a 0.93× net *slowdown*. At the engine's measured 4–7 M events/s
/// a snapshot+restore round-trip only breaks even once the shared
/// prefix is worth on the order of 10⁵ cycles of replay, so that is
/// the default gate; workloads with a real pre-PEI warmup phase clear
/// it, everything current bypasses automatically.
pub const FORK_MIN_PREFIX_CYCLES: u64 = 100_000;

impl Default for ForkPolicy {
    fn default() -> ForkPolicy {
        ForkPolicy {
            enabled: true,
            min_prefix: FORK_MIN_PREFIX_CYCLES,
        }
    }
}

impl ForkPolicy {
    /// Never fork (`--no-fork`).
    pub fn disabled() -> ForkPolicy {
        ForkPolicy {
            enabled: false,
            min_prefix: 0,
        }
    }

    /// Fork every eligible group regardless of prefix length — the
    /// identity-pinning tests and `sim_throughput --fork-bench` use
    /// this so the fork path is actually exercised at quick scale.
    pub fn always() -> ForkPolicy {
        ForkPolicy {
            enabled: true,
            min_prefix: 0,
        }
    }

    fn from_flag(fork: bool) -> ForkPolicy {
        if fork {
            ForkPolicy::default()
        } else {
            ForkPolicy::disabled()
        }
    }
}

/// Per-cell accounting of a forked batch (and of `pei-serve`'s resident
/// fork cache): every cell lands in exactly one of the four counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ForkStats {
    /// Cells completed from a restored warm snapshot.
    pub hits: u64,
    /// Cells that executed a warmup prefix themselves (one per group
    /// that attempted to fork; the warmed machine always finishes that
    /// member's run itself, so a miss wastes nothing).
    pub misses: u64,
    /// Cells cold-run because the [`ForkPolicy::min_prefix`]
    /// auto-bypass judged their group's prefix too short to snapshot.
    pub bypasses: u64,
    /// Cells that can never fork: no fork key (fault plan), singleton
    /// groups, forking disabled, or nothing
    /// shareable (the group's run completes before any PEI).
    pub ineligible: u64,
}

impl ForkStats {
    /// Fraction of fork-attempting cells served by a restored snapshot:
    /// `hits / (hits + misses)`, `0.0` when nothing attempted.
    pub fn hit_rate(&self) -> f64 {
        let attempts = self.hits + self.misses;
        if attempts == 0 {
            0.0
        } else {
            self.hits as f64 / attempts as f64
        }
    }
}

/// Internal thread-shared tally behind [`ForkStats`].
#[derive(Default)]
struct ForkCounters {
    hits: AtomicU64,
    misses: AtomicU64,
    bypasses: AtomicU64,
    ineligible: AtomicU64,
}

impl ForkCounters {
    fn snapshot(&self) -> ForkStats {
        ForkStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            bypasses: self.bypasses.load(Ordering::Relaxed),
            ineligible: self.ineligible.load(Ordering::Relaxed),
        }
    }
}

/// Like [`run_specs`], but with warm-state forking under the default
/// [`ForkPolicy`]: see [`run_specs_forked_with`]. `fork == false`
/// degrades to [`run_specs`] exactly.
///
/// # Panics
///
/// Panics if `jobs == 0`, or propagates the panic of any failed cell.
pub fn run_specs_forked(specs: &[RunSpec], jobs: usize, fork: bool) -> Vec<RunResult> {
    run_specs_forked_with(specs, jobs, ForkPolicy::from_flag(fork)).0
}

/// Runs `specs` with warm-state forking: cells that share everything
/// except dispatch policy — and whose policies fall in the same PMU
/// monitor class (`DispatchPolicy::uses_monitor`, DESIGN.md §11) — run
/// the pre-PEI warmup prefix **once**, snapshot the machine at the
/// first PEI ([`PauseAt::FirstPei`]), and restore that snapshot per
/// cell instead of replaying the prefix. Until the first PEI no policy
/// decision has been taken and the locality monitor has shadowed the
/// same L3 traffic for every policy in the class, so the forked results
/// are byte-identical to cold runs.
///
/// `policy` controls when the snapshot is worth taking: below
/// [`ForkPolicy::min_prefix`] warmup cycles the runner bypasses the
/// fork — the warmed machine continues as the first member's run and
/// the rest run cold — because at that scale snapshotting is a
/// measured net loss. Cells that cannot share (fault plans, singleton
/// groups) and groups whose warmup completes the
/// whole run or fails to snapshot fall back to cold runs per cell —
/// forking is an optimization, never a requirement. Workers claim
/// whole groups, so a group's snapshot lives on one worker's stack and
/// is dropped before the next claim.
///
/// The returned [`ForkStats`] classify every cell (hit / miss / bypass
/// / ineligible); `sim_throughput --fork-bench` records the hit rate so
/// BENCH_sim_throughput.json says *why* a speedup did or didn't appear.
///
/// # Panics
///
/// Panics if `jobs == 0`, or propagates the panic of any failed cell.
pub fn run_specs_forked_with(
    specs: &[RunSpec],
    jobs: usize,
    policy: ForkPolicy,
) -> (Vec<RunResult>, ForkStats) {
    assert!(jobs > 0, "--jobs must be at least 1");
    if !policy.enabled {
        let results = run_specs(specs, jobs);
        let stats = ForkStats {
            ineligible: specs.len() as u64,
            ..ForkStats::default()
        };
        return (results, stats);
    }
    // Group cells by warm prefix, preserving first-occurrence order so
    // the schedule (and any fallback stderr output) is deterministic.
    let mut key_to_group: HashMap<String, usize> = HashMap::new();
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for (i, spec) in specs.iter().enumerate() {
        match fork_key(spec) {
            Some(key) => match key_to_group.entry(key) {
                Entry::Occupied(e) => groups[*e.get()].push(i),
                Entry::Vacant(e) => {
                    e.insert(groups.len());
                    groups.push(vec![i]);
                }
            },
            None => groups.push(vec![i]),
        }
    }
    let counters = ForkCounters::default();
    let workers = jobs.min(groups.len());
    let results: Vec<RunResult> = if workers <= 1 {
        let mut slots: Vec<Option<RunResult>> = specs.iter().map(|_| None).collect();
        for group in &groups {
            for (i, result) in run_group(specs, group, policy, &counters) {
                slots[i] = Some(result);
            }
        }
        slots
            .into_iter()
            .map(|slot| slot.expect("every spec is in exactly one group"))
            .collect()
    } else {
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<RunResult>>> = specs.iter().map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let g = next.fetch_add(1, Ordering::Relaxed);
                    let Some(group) = groups.get(g) else { break };
                    for (i, result) in run_group(specs, group, policy, &counters) {
                        *slots[i].lock().unwrap() = Some(result);
                    }
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("worker panicked; result slot poisoned")
                    .expect("every spec is in exactly one group")
            })
            .collect()
    };
    report_failures(specs, &results);
    (results, counters.snapshot())
}

/// The warm-prefix sharing key of a spec: `Some` iff the cell is
/// eligible for forking, with two specs sharing a warmed snapshot iff
/// their keys are equal. The key is the spec with its policy collapsed
/// to a monitor-class representative — everything before the first PEI
/// is policy-independent within a class, so that is exactly the state
/// the cells may share. `pei-serve` keys its resident fork cache on
/// this same string, so daemon jobs and batch cells share one grouping
/// rule.
pub fn fork_key(spec: &RunSpec) -> Option<String> {
    if spec.fault.is_some() {
        // Faults arm at build time, and snapshots refuse armed faults.
        return None;
    }
    let mut cfg = spec.cfg;
    cfg.policy = if cfg.policy.uses_monitor() {
        DispatchPolicy::LocalityAware
    } else {
        DispatchPolicy::HostOnly
    };
    Some(format!(
        "{cfg:?}|{:?}|{:?}|{}|{}",
        spec.params, spec.input, spec.max_cycles, spec.check
    ))
}

/// Outcome of executing a spec's warmup prefix ([`warm_pause`]).
pub enum Warmup {
    /// The run finished (or failed) before the first PEI — there is no
    /// shareable prefix, and the result is the cell's complete result.
    Done(Box<RunResult>),
    /// Paused just before the first PEI at the given cycle; the machine
    /// is quiescent and ready to snapshot or to continue.
    Paused(Box<System>, u64),
}

/// Runs the warmup prefix of `spec` — build, arm, execute up to the
/// first PEI — and returns the paused machine with its pause cycle, or
/// the completed result if no PEI was ever dispatched. Callers decide
/// whether the prefix is long enough to be worth snapshotting
/// ([`ForkPolicy::min_prefix`]); eligibility ([`fork_key`]) is theirs
/// to check too.
pub fn warm_pause(spec: &RunSpec) -> Warmup {
    let mut sys = spec.build();
    spec.arm(&mut sys);
    match sys.run_paused(spec.max_cycles, Some(PauseAt::FirstPei)) {
        RunStatus::Paused { at } => Warmup::Paused(Box::new(sys), at),
        RunStatus::Completed(r) => Warmup::Done(Box::new(r)),
    }
}

/// Runs the warmup prefix of `spec` — build, arm, execute up to the
/// first PEI — and snapshots the paused machine. `None` when the cell
/// is ineligible (its fork key is `None`), when the run completes
/// without ever issuing a PEI, or when the paused machine refuses to
/// snapshot; callers fall back to cold runs.
pub fn warm_snapshot(spec: &RunSpec) -> Option<Snapshot> {
    fork_key(spec)?;
    match warm_pause(spec) {
        Warmup::Paused(mut sys, _) => sys.snapshot().ok(),
        Warmup::Done(_) => None,
    }
}

/// Finishes `spec` from a warmed snapshot: builds the cell's machine
/// (the restore target must carry the same workload and backing store),
/// restores `snap` over it, and runs to completion. Falls back to a
/// cold [`RunSpec::run`] if the snapshot doesn't fit this spec.
pub fn run_from_warm(spec: &RunSpec, snap: &Snapshot) -> RunResult {
    let mut sys = spec.build();
    spec.arm(&mut sys);
    match sys.restore(snap) {
        Ok(()) => sys.run(spec.max_cycles),
        Err(_) => spec.run(),
    }
}

/// Runs one fork group under `policy`, tallying into `counters`.
/// Groups of two or more warm the first member's machine to the first
/// PEI, then either snapshot-and-restore per member (prefix at or above
/// the threshold) or bypass (below it): the warmed machine continues as
/// the first member's own run — restoring a paused machine's state is
/// non-perturbing, so nothing is wasted — and the remaining members run
/// cold. Returns `(spec index, result)` pairs.
fn run_group(
    specs: &[RunSpec],
    members: &[usize],
    policy: ForkPolicy,
    counters: &ForkCounters,
) -> Vec<(usize, RunResult)> {
    if members.len() >= 2 {
        counters.misses.fetch_add(1, Ordering::Relaxed);
        match warm_pause(&specs[members[0]]) {
            Warmup::Paused(mut sys, at) => {
                if at >= policy.min_prefix {
                    if let Ok(snap) = sys.snapshot() {
                        counters
                            .hits
                            .fetch_add(members.len() as u64 - 1, Ordering::Relaxed);
                        // The snapshotted machine finishes the first
                        // member itself; siblings restore the snapshot.
                        let first = &specs[members[0]];
                        let mut out = vec![(members[0], sys.run(first.max_cycles))];
                        out.extend(
                            members[1..]
                                .iter()
                                .map(|&i| (i, run_from_warm(&specs[i], &snap))),
                        );
                        return out;
                    }
                }
                // Auto-bypass (prefix below the threshold) or snapshot
                // refusal: the warm machine is the first member's run;
                // siblings run cold.
                counters
                    .bypasses
                    .fetch_add(members.len() as u64 - 1, Ordering::Relaxed);
                let first = &specs[members[0]];
                let mut out = vec![(members[0], sys.run(first.max_cycles))];
                out.extend(members[1..].iter().map(|&i| (i, specs[i].run())));
                return out;
            }
            Warmup::Done(r) => {
                // The whole run preceded any PEI; the "warmup" result is
                // the first member's complete result, and there is no
                // shareable prefix for the rest.
                counters
                    .ineligible
                    .fetch_add(members.len() as u64 - 1, Ordering::Relaxed);
                let mut out = vec![(members[0], *r)];
                out.extend(members[1..].iter().map(|&i| (i, specs[i].run())));
                return out;
            }
        }
    }
    counters
        .ineligible
        .fetch_add(members.len() as u64, Ordering::Relaxed);
    members.iter().map(|&i| (i, specs[i].run())).collect()
}

/// Prints each failed cell's spec and failure report to stderr; silent
/// when every cell completed.
fn report_failures(specs: &[RunSpec], results: &[RunResult]) {
    for (spec, result) in specs.iter().zip(results) {
        let Some(report) = result.outcome.report() else {
            continue;
        };
        eprintln!(
            "warning: cell failed: {}: {}",
            spec.describe(),
            report.summary()
        );
        for v in &report.violations {
            eprintln!("  {v}");
        }
        if !report.diagnosis.is_empty() {
            eprintln!("  diagnosis: {}", report.diagnosis.trim_end());
        }
        for (name, n) in &report.occupancies {
            eprintln!("  {name} = {n}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExpOptions;
    use pei_core::DispatchPolicy;

    fn tiny_specs() -> Vec<RunSpec> {
        let opts = ExpOptions {
            seed: 7,
            ..ExpOptions::default()
        };
        let mut params = opts.workload_params();
        params.pei_budget = 2_000;
        let mut specs = Vec::new();
        for w in [Workload::Atf, Workload::Hj] {
            for policy in [DispatchPolicy::HostOnly, DispatchPolicy::LocalityAware] {
                specs.push(RunSpec::sized(
                    opts.machine(policy),
                    params,
                    w,
                    InputSize::Small,
                ));
            }
        }
        specs
    }

    #[test]
    fn parallel_matches_serial() {
        let serial = run_specs(&tiny_specs(), 1);
        let parallel = run_specs(&tiny_specs(), 4);
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.cycles, p.cycles);
            assert_eq!(s.instructions, p.instructions);
            assert_eq!(s.offchip_bytes, p.offchip_bytes);
        }
    }

    #[test]
    fn batch_indices_address_results() {
        let mut batch = Batch::new();
        let idx: Vec<usize> = tiny_specs().into_iter().map(|s| batch.push(s)).collect();
        assert_eq!(batch.len(), idx.len());
        let results = batch.run(2);
        assert_eq!(results.len(), idx.len());
        assert_eq!(idx, (0..results.len()).collect::<Vec<_>>());
    }

    /// A four-policy grid: both monitor classes are populated with two
    /// policies each, so forking shares two warmed snapshots per
    /// workload instead of running four cold prefixes.
    fn policy_grid() -> Vec<RunSpec> {
        let opts = ExpOptions {
            seed: 7,
            ..ExpOptions::default()
        };
        let mut params = opts.workload_params();
        params.pei_budget = 2_000;
        let mut specs = Vec::new();
        for w in [Workload::Atf, Workload::Hj] {
            for policy in [
                DispatchPolicy::HostOnly,
                DispatchPolicy::PimOnly,
                DispatchPolicy::LocalityAware,
                DispatchPolicy::LocalityAwareBalanced,
            ] {
                specs.push(RunSpec::sized(
                    opts.machine(policy),
                    params,
                    w,
                    InputSize::Small,
                ));
            }
        }
        specs
    }

    #[test]
    fn forked_matches_cold_cell_for_cell() {
        // ForkPolicy::always() so quick-scale prefixes (below the
        // default auto-bypass threshold) still exercise the fork path.
        let specs = policy_grid();
        let (cold, off) = run_specs_forked_with(&specs, 1, ForkPolicy::disabled());
        let (forked, stats) = run_specs_forked_with(&specs, 2, ForkPolicy::always());
        assert_eq!(cold.len(), forked.len());
        for (c, f) in cold.iter().zip(&forked) {
            assert_eq!(c.cycles, f.cycles);
            assert_eq!(c.instructions, f.instructions);
            assert_eq!(c.peis, f.peis);
            assert_eq!(c.stats, f.stats);
        }
        // 2 workloads × 2 monitor classes = 4 groups of 2: one warmup
        // (miss) and one restored sibling (hit) each.
        assert_eq!(
            stats,
            ForkStats {
                hits: 4,
                misses: 4,
                bypasses: 0,
                ineligible: 0
            }
        );
        assert_eq!(stats.hit_rate(), 0.5);
        assert_eq!(off.ineligible, specs.len() as u64);
        assert_eq!(off.hit_rate(), 0.0);
    }

    #[test]
    fn auto_bypass_skips_the_snapshot_and_stays_identical() {
        // An unreachable threshold forces the bypass path everywhere:
        // the first member of each group continues its warmed machine,
        // siblings run cold, and results still match cold runs exactly.
        let specs = policy_grid();
        let (cold, _) = run_specs_forked_with(&specs, 1, ForkPolicy::disabled());
        let policy = ForkPolicy {
            enabled: true,
            min_prefix: u64::MAX,
        };
        let (bypassed, stats) = run_specs_forked_with(&specs, 2, policy);
        for (c, b) in cold.iter().zip(&bypassed) {
            assert_eq!(c.cycles, b.cycles);
            assert_eq!(c.stats, b.stats);
        }
        assert_eq!(
            stats,
            ForkStats {
                hits: 0,
                misses: 4,
                bypasses: 4,
                ineligible: 0
            }
        );
    }

    #[test]
    fn default_policy_bypasses_quick_scale_prefixes() {
        // The satellite contract: at quick scale the warmup prefix is
        // tiny, so the *default* policy must choose bypass over the
        // measured-0.93× snapshot path — while --no-fork stays the
        // manual override.
        let specs = policy_grid();
        let (_, stats) = run_specs_forked_with(&specs, 1, ForkPolicy::default());
        assert_eq!(stats.hits, 0, "quick-scale cells must not fork");
        assert_eq!(stats.bypasses, 4);
    }

    #[test]
    fn fork_keys_group_by_monitor_class() {
        let specs = policy_grid();
        // Per workload: HostOnly+PimOnly share one key, the two
        // locality-aware policies share another.
        assert_eq!(fork_key(&specs[0]), fork_key(&specs[1]));
        assert_eq!(fork_key(&specs[2]), fork_key(&specs[3]));
        assert_ne!(fork_key(&specs[0]), fork_key(&specs[2]));
        assert_ne!(fork_key(&specs[0]), fork_key(&specs[4]));
        // Faulted cells never fork.
        let mut faulted = specs[0].clone();
        faulted.fault = Some(FaultPlan::new(1));
        assert_eq!(fork_key(&faulted), None);
    }

    #[test]
    fn warm_snapshot_feeds_every_policy_in_its_class() {
        let specs = policy_grid();
        let snap = warm_snapshot(&specs[2]).expect("warmup reaches a PEI");
        let warm_la = run_from_warm(&specs[2], &snap);
        let warm_lab = run_from_warm(&specs[3], &snap);
        let cold_la = specs[2].run();
        let cold_lab = specs[3].run();
        assert_eq!(warm_la.stats, cold_la.stats);
        assert_eq!(warm_lab.stats, cold_lab.stats);
        assert_eq!(warm_la.cycles, cold_la.cycles);
        assert_eq!(warm_lab.cycles, cold_lab.cycles);
    }

    #[test]
    #[should_panic(expected = "--jobs must be at least 1")]
    fn zero_jobs_rejected() {
        run_specs(&[], 0);
    }
}
