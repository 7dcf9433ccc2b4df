//! The `cell-cold` and `grid-sweep` workloads, and the spanned cell
//! path the traced runs (and the `serve-open` replay) share.

use crate::host::{self, cpu_time, median, mix, quantile};
use crate::span::{self, Span};
use crate::{measure, setup_samples, Args, CellOut, Gate, Report, WARMUP_SEED};
use pei_bench::runner::{run_specs_forked_with, Batch, ForkPolicy, RunSpec, SpecInput};
use pei_bench::tracecap::{policy_name, size_name};
use pei_bench::{ExpOptions, Scale};
use pei_core::DispatchPolicy;
use pei_cpu::trace::{Op, PhasedTrace};
use pei_system::{CheckConfig, RunResult, System};
use pei_workloads::{cache, InputSize, Workload};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A `pei-sim` user waits on one cell; past this it misses its limit.
pub const CELL_LIMIT_MS: f64 = 5_000.0;
/// A figure user waits on the whole grid; past this it misses its limit.
pub const GRID_LIMIT_MS: f64 = 60_000.0;

const POLICIES: [DispatchPolicy; 4] = [
    DispatchPolicy::HostOnly,
    DispatchPolicy::PimOnly,
    DispatchPolicy::LocalityAware,
    DispatchPolicy::LocalityAwareBalanced,
];

/// The one-shot cells of `cell-cold`, run under Locality-Aware at the
/// default (quick) budget: large graph and ML inputs on the scaled
/// machine, and large analytics and ML inputs on the paper machine —
/// cells whose input generation outweighs their event loop.
const COLD_CELLS: [(Workload, InputSize, bool); 6] = [
    (Workload::Atf, InputSize::Large, false),
    (Workload::Pr, InputSize::Large, false),
    (Workload::Wcc, InputSize::Large, false),
    (Workload::Sc, InputSize::Large, false),
    (Workload::Hj, InputSize::Large, true),
    (Workload::Svm, InputSize::Large, true),
];

/// The fig6-style grid of `grid-sweep`: these workloads × all four
/// policies at medium size, on the scaled machine.
const GRID_WORKLOADS: [Workload; 3] = [Workload::Atf, Workload::Pr, Workload::Hg];

fn opts(seed: u64, paper: bool) -> ExpOptions {
    ExpOptions {
        scale: Scale::Quick,
        paper_machine: paper,
        seed,
        jobs: 1,
        ..ExpOptions::default()
    }
}

fn sized(w: Workload, size: InputSize, policy: DispatchPolicy, seed: u64, paper: bool) -> RunSpec {
    let o = opts(seed, paper);
    RunSpec::sized(o.machine(policy), o.workload_params(), w, size)
}

pub fn cold_specs(seed: u64) -> Vec<RunSpec> {
    COLD_CELLS
        .iter()
        .enumerate()
        .map(|(i, &(w, size, paper))| {
            sized(
                w,
                size,
                DispatchPolicy::LocalityAware,
                mix(seed, i as u64),
                paper,
            )
        })
        .collect()
}

pub fn grid_specs(seed: u64) -> Vec<RunSpec> {
    let mut specs = Vec::new();
    for (i, &w) in GRID_WORKLOADS.iter().enumerate() {
        for p in POLICIES {
            specs.push(sized(
                w,
                InputSize::Medium,
                p,
                mix(seed, 100 + i as u64),
                false,
            ));
        }
    }
    specs
}

/// Times the set-up is repeated in one run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

/// The set-up's warm-up cell: ATF medium at a fixed seed, so every run
/// warms up alike. With a small cell (about 20 ms) `setup_s` swung by
/// half between runs; this one takes about 100 ms.
fn warmup_spec() -> RunSpec {
    sized(
        Workload::Atf,
        InputSize::Medium,
        DispatchPolicy::LocalityAware,
        WARMUP_SEED,
        false,
    )
}

/// Identifies a cell for the output gate and `pinned.txt`.
pub fn spec_key(spec: &RunSpec) -> String {
    let SpecInput::Sized { workload, size } = &spec.input else {
        panic!("the benchmark only runs sized cells");
    };
    format!(
        "{}/{}/{}/cores={}/seed={}/budget={}/check={}",
        workload.label(),
        size_name(*size),
        policy_name(spec.cfg.policy),
        spec.cfg.cores,
        spec.params.seed,
        spec.params.pei_budget,
        spec.check
    )
}

/// Gates one in-process result; returns its counts.
pub fn gate_result(gate: &mut Gate, spec: &RunSpec, r: &RunResult) -> (bool, CellOut) {
    let out = CellOut::from_stats_text(&r.stats.to_string(), r.cycles);
    (gate.check(&spec_key(spec), r.ok(), &out), out)
}

/// Counts the spanned path gathers beside its spans.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerCounts {
    pub graph_hits: u64,
    pub graph_misses: u64,
    pub phases: u64,
}

/// Wraps a workload's trace generator so each `next_phase` call —
/// which `System::run` makes from inside its event loop — is a span.
struct TimedTrace {
    inner: Box<dyn PhasedTrace>,
    cell: u64,
    phases: Arc<AtomicU64>,
}

impl PhasedTrace for TimedTrace {
    fn threads(&self) -> usize {
        self.inner.threads()
    }

    fn next_phase(&mut self) -> Option<Vec<Vec<Op>>> {
        let phase = span::time("workloads.tracegen", self.cell, || self.inner.next_phase());
        if phase.is_some() {
            self.phases.fetch_add(1, Ordering::Relaxed);
        }
        phase
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// Runs one sized cell through the same public calls `RunSpec::run`
/// makes, each inside a span: `Workload::build` (input generation),
/// `System::new` + `add_workload` (machine build) and `System::run`
/// (event loop, with trace generation as child spans).
pub fn run_spanned(spec: &RunSpec, id: u64, counts: &mut LayerCounts) -> RunResult {
    let SpecInput::Sized { workload, size } = &spec.input else {
        panic!("the benchmark only runs sized cells");
    };
    assert!(spec.fault.is_none() && spec.shards.is_none());
    let cell = span::enter("cell", id);
    let before = cache::len();
    let (store, trace) = span::time("workloads.input", id, || {
        workload.build(*size, &spec.params)
    });
    if Workload::GRAPH.contains(workload) {
        if cache::len() > before {
            counts.graph_misses += 1;
        } else {
            counts.graph_hits += 1;
        }
    }
    let phases = Arc::new(AtomicU64::new(0));
    let mut sys = span::time("system.build", id, || {
        let mut sys = System::new(spec.cfg, store);
        let timed = TimedTrace {
            inner: trace,
            cell: id,
            phases: Arc::clone(&phases),
        };
        sys.add_workload(Box::new(timed), (0..spec.cfg.cores).collect());
        if spec.check {
            sys.enable_checks(CheckConfig::default());
        }
        sys
    });
    let r = span::time("system.run", id, || sys.run(spec.max_cycles));
    span::exit(cell);
    counts.phases += phases.load(Ordering::Relaxed);
    r
}

/// Per-layer figures of one traced unit, from its cell spans.
/// `weight(id)` scales a cell's spans (the daemon replay runs each
/// distinct recipe once but reports per job).
pub fn layer_sample(
    spans: &[Span],
    weight: impl Fn(u64) -> f64,
    counts: &LayerCounts,
    out: &CellOut,
) -> Vec<(&'static str, f64)> {
    let mut child = vec![0.0; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child[p] += s.ms();
        }
    }
    let mut own = std::collections::BTreeMap::new();
    let mut total = std::collections::BTreeMap::new();
    for (s, c) in spans.iter().zip(&child) {
        let w = weight(s.id);
        *own.entry(s.name).or_insert(0.0) += (s.ms() - c) * w;
        *total.entry(s.name).or_insert(0.0) += s.ms() * w;
    }
    let get = |m: &std::collections::BTreeMap<&str, f64>, k: &str| m.get(k).copied().unwrap_or(0.0);
    let cell_ms = get(&total, "cell");
    let loop_ms = get(&own, "system.run");
    let input_ms = get(&own, "workloads.input");
    let looked_up = (counts.graph_hits + counts.graph_misses).max(1) as f64;
    vec![
        ("workloads.input_ms", input_ms),
        ("workloads.input_share", input_ms / cell_ms),
        ("workloads.tracegen_ms", get(&own, "workloads.tracegen")),
        ("workloads.graph_cache_hits", counts.graph_hits as f64),
        ("workloads.graph_cache_misses", counts.graph_misses as f64),
        (
            "workloads.graph_cache_hit_ratio",
            counts.graph_hits as f64 / looked_up,
        ),
        ("workloads.phases", counts.phases as f64),
        ("system.build_ms", get(&own, "system.build")),
        ("system.loop_ms", loop_ms),
        ("system.loop_share", loop_ms / cell_ms),
        (
            "system.ns_per_event",
            loop_ms * 1e6 / out.events.max(1) as f64,
        ),
        ("bench.cell_ms", cell_ms),
        ("bench.unattributed_ms", get(&own, "cell")),
    ]
}

/// Exact per-component counts of one unit of work.
pub fn count_metrics(report: &mut Report, out: &CellOut) {
    report.one("system.events", "count", out.events as f64);
    report.one("system.sim_cycles", "cycles", out.cycles as f64);
    report.one("system.stats_digest", "hash", out.digest as f64);
    report.one("system.l3_accesses", "count", out.l3_accesses as f64);
    report.one("system.dram_accesses", "count", out.dram_accesses as f64);
    report.one("system.link_flits", "count", out.link_flits as f64);
    report.one("system.pmu_host_dispatched", "count", out.pmu_host as f64);
    report.one("system.pmu_mem_dispatched", "count", out.pmu_mem as f64);
}

/// Collects per-unit layer samples into the report as medians.
#[derive(Default)]
pub struct LayerSamples(std::collections::BTreeMap<&'static str, Vec<f64>>);

impl LayerSamples {
    pub fn push(&mut self, sample: Vec<(&'static str, f64)>) {
        for (k, v) in sample {
            self.0.entry(k).or_default().push(v);
        }
    }

    pub fn into_report(self, report: &mut Report) {
        for (k, v) in self.0 {
            let unit = if k.ends_with("_ms") {
                "ms"
            } else if k.ends_with("_share") || k.ends_with("_ratio") {
                "ratio"
            } else if k.ends_with("_per_event") {
                "ns"
            } else {
                "count"
            };
            report.samples(k, unit, v);
        }
    }
}

/// Layer metrics of the serving path, zero where a workload has none.
pub const SERVE_ZEROES: [(&str, &str); 14] = [
    ("serve.ack_ms_p50", "ms"),
    ("serve.queue_wait_ms_p50", "ms"),
    ("serve.queue_wait_ms_p95", "ms"),
    ("serve.queue_high_water", "count"),
    ("serve.backlog_trend", "count"),
    ("serve.gen_lag_ms_p90", "ms"),
    ("serve.worker_busy_ms", "ms"),
    ("serve.worker_util", "ratio"),
    ("serve.service_ms_mean", "ms"),
    ("serve.jobs", "count"),
    ("serve.refused", "count"),
    ("wire.encode_us", "us"),
    ("wire.decode_us", "us"),
    ("wire.frames", "count"),
];

/// A run's end-to-end figures as measured, one entry per unit.
#[derive(Default)]
pub struct UnitTimes {
    /// Per sample: the index of the measured unit it came from.
    pub unit: Vec<usize>,
    pub wall_s: Vec<f64>,
    pub cpu_s: Vec<f64>,
    pub cycles: Vec<f64>,
    /// Per unit: the latency of each job in it that passed the gate.
    pub job_ms: Vec<Vec<f64>>,
}

impl UnitTimes {
    /// Files the figures as reference-host times (see `host::Calib`); a
    /// job counts toward goodput when its scaled latency is within
    /// `limit_ms`. When the units are open-loop sessions (`open_loop`),
    /// their wall time is set by the schedule, not by host work, and is
    /// filed as measured, and the 90th percentile is taken over every job
    /// of the run, so that more than ten jobs lie beyond it; otherwise it
    /// is each unit's, reported as the median over units like the rest.
    pub fn into_report(
        self,
        report: &mut Report,
        setup_s: Vec<f64>,
        limit_ms: f64,
        open_loop: bool,
    ) {
        let calib = &report.calib;
        let k: Vec<f64> = self.unit.iter().map(|&u| calib.factor(u)).collect();
        let wall_k = |i: usize| if open_loop { 1.0 } else { k[i] };
        let setup_k = calib.factor(0);
        let setup_s = setup_s.iter().map(|s| s * setup_k).collect();
        let wall_s = (0..k.len()).map(|i| self.wall_s[i] * wall_k(i)).collect();
        let cpu_s = (0..k.len()).map(|i| self.cpu_s[i] * k[i]).collect();
        let cycles_per_s = (0..k.len())
            .map(|i| self.cycles[i] / (self.cpu_s[i] * k[i]))
            .collect();
        let latency = |q| -> Vec<f64> {
            (0..k.len())
                .map(|i| quantile(&self.job_ms[i], q) * k[i])
                .collect()
        };
        let goodput = (0..k.len())
            .map(|i| {
                let within = self.job_ms[i].iter().filter(|&&ms| ms * k[i] <= limit_ms);
                within.count() as f64 / (self.wall_s[i] * wall_k(i))
            })
            .collect();
        report.samples("setup_s", "s", setup_s);
        report.samples("wall_s", "s", wall_s);
        report.samples("cpu_s", "s", cpu_s);
        report.samples("sim_cycles_per_s", "1/s", cycles_per_s);
        let pooled: Vec<f64> = (0..k.len())
            .flat_map(|i| self.job_ms[i].iter().map(|ms| ms * k[i]).collect::<Vec<_>>())
            .collect();
        let pooled_p90 = quantile(&pooled, 0.9);
        let unit_p90 = latency(0.9);
        println!(
            "latency: jobs={} pooled_p90_ms={pooled_p90:.3} beyond_pooled_p90={} per-unit p90_ms={unit_p90:.1?} (scaled)",
            pooled.len(),
            pooled.iter().filter(|&&ms| ms > pooled_p90).count(),
        );
        report.samples("job_ms_p50", "ms", latency(0.5));
        if open_loop {
            report.one("job_ms_p90", "ms", pooled_p90);
        } else {
            report.samples("job_ms_p90", "ms", unit_p90);
        }
        report.samples("goodput_jobs_per_s", "1/s", goodput);
    }
}

/// Set-up of the in-process workloads: everything before the first
/// measured unit, which is building the run's specs and one warm-up cell
/// (so code and allocator are warm). It is repeated `SETUP_REPEATS`
/// times; each repeat is one sample.
fn setup(seed: u64, specs: impl Fn(u64) -> Vec<RunSpec>) -> Vec<f64> {
    setup_samples(SETUP_REPEATS, || {
        std::hint::black_box(specs(seed));
        cache::clear();
        let r = warmup_spec().run();
        assert!(r.ok(), "the warm-up cell completes");
    })
}

/// `cell-cold`: one-shot cells run one after another, the graph cache
/// cleared before each so every cell pays input generation the way a
/// fresh `pei-sim` process does. One unit is one pass over the cells.
pub fn cell_cold(args: &Args, gate: &mut Gate) -> Report {
    let mut report = Report::default();
    let setup = setup(args.seed, cold_specs);
    let specs = cold_specs(args.seed);
    let mut times = UnitTimes::default();
    let mut traced_walls = Vec::new();
    let mut layers = LayerSamples::default();
    let mut unit_out = CellOut::default();
    let mut all_spans = Vec::new();
    let mut calib = std::mem::take(&mut report.calib);
    let units = measure(args.seconds, if args.trace { 4 } else { 3 }, &mut calib, |unit| {
        let traced = args.trace && unit % 2 == 1;
        span::set_enabled(traced);
        let mut job_ms = Vec::new();
        let mut counts = LayerCounts::default();
        let (mut wall, mut cpu, mut cycles) = (0.0, 0.0, 0u64);
        let mut out = CellOut::default();
        for (i, spec) in specs.iter().enumerate() {
            cache::clear();
            let (t0, c0) = (Instant::now(), cpu_time());
            let r = if traced {
                run_spanned(spec, i as u64, &mut counts)
            } else {
                spec.run()
            };
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            cpu += (cpu_time() - c0).as_secs_f64();
            wall += ms / 1e3;
            cycles += r.cycles;
            report.attempted += 1;
            let (ok, cell) = gate_result(gate, spec, &r);
            if ok {
                job_ms.push(ms);
            } else {
                report.failed += 1;
            }
            out.add(&cell);
        }
        if traced {
            let spans = span::take();
            layers.push(layer_sample(&spans, |_| 1.0, &counts, &out));
            append_spans(&mut all_spans, spans);
            traced_walls.push(wall);
        } else {
            times.unit.push(unit);
            times.wall_s.push(wall);
            times.cpu_s.push(cpu);
            times.cycles.push(cycles as f64);
            times.job_ms.push(job_ms);
        }
        unit_out = out;
        wall
    });
    report.calib = calib;
    span::set_enabled(false);
    report.one("peak_rss_mb", "MiB", host::peak_rss_mb());
    let overhead_ms = (median(&traced_walls) - median(&times.wall_s)) * 1e3;
    times.into_report(&mut report, setup, CELL_LIMIT_MS, false);
    if args.trace {
        finish_trace(&mut report, args, layers, &all_spans);
        report.one("bench.tracing_overhead_ms", "ms", overhead_ms);
        report.zero(&[
            ("bench.runner_overhead_ms", "ms"),
            ("bench.fork_hits", "count"),
            ("bench.fork_misses", "count"),
            ("bench.fork_bypasses", "count"),
        ]);
    }
    count_metrics(&mut report, &unit_out);
    report.one("bench.units", "count", units as f64);
    report.zero(&SERVE_ZEROES);
    report
}

/// `grid-sweep`: a fig6-style policy grid through `Batch::run_with` at
/// `--jobs 1`, inputs shared across each workload's four policies. The
/// graph cache is cleared before each grid, as a figure process starts
/// with an empty one. One unit is one grid.
///
/// A traced unit runs the grid through `run_specs_forked_with` (the
/// call `Batch::run_with` makes, returning its `ForkStats`) inside a
/// `bench.batch` span, then replays each cell through the spanned path
/// for the layer split; the runner's own cost is the batch span minus
/// the replayed cells.
pub fn grid_sweep(args: &Args, gate: &mut Gate) -> Report {
    let mut report = Report::default();
    let setup = setup(args.seed, grid_specs);
    let specs = grid_specs(args.seed);
    let mut times = UnitTimes::default();
    let mut batch_walls = Vec::new();
    let mut runner_overhead = Vec::new();
    let mut fork = [Vec::new(), Vec::new(), Vec::new()];
    let mut layers = LayerSamples::default();
    let mut unit_out = CellOut::default();
    let mut all_spans = Vec::new();
    let mut calib = std::mem::take(&mut report.calib);
    let units = measure(args.seconds, if args.trace { 2 } else { 3 }, &mut calib, |unit| {
        let traced = args.trace && unit % 2 == 1;
        cache::clear();
        let (t0, c0) = (Instant::now(), cpu_time());
        let results = if traced {
            span::set_enabled(true);
            let s = span::enter("bench.batch", unit as u64);
            let (results, stats) = run_specs_forked_with(&specs, 1, ForkPolicy::default());
            span::exit(s);
            for (v, n) in fork
                .iter_mut()
                .zip([stats.hits, stats.misses, stats.bypasses])
            {
                v.push(n as f64);
            }
            results
        } else {
            let mut batch = Batch::new();
            for s in &specs {
                batch.push(s.clone());
            }
            batch.run_with(&opts(args.seed, false))
        };
        let wall = t0.elapsed().as_secs_f64();
        let cpu = (cpu_time() - c0).as_secs_f64();
        let mut out = CellOut::default();
        let mut failed = 0;
        for (spec, r) in specs.iter().zip(&results) {
            let (ok, cell) = gate_result(gate, spec, r);
            failed += u64::from(!ok);
            out.add(&cell);
        }
        report.attempted += specs.len() as u64;
        report.failed += failed;
        if traced {
            batch_walls.push(wall);
            cache::clear();
            let mut counts = LayerCounts::default();
            for (i, spec) in specs.iter().enumerate() {
                let r = run_spanned(spec, i as u64, &mut counts);
                report.attempted += 1;
                report.failed += u64::from(!gate_result(gate, spec, &r).0);
            }
            span::set_enabled(false);
            let spans = span::take();
            let sample = layer_sample(&spans, |_| 1.0, &counts, &out);
            let cells_ms = sample
                .iter()
                .find(|(k, _)| *k == "bench.cell_ms")
                .map_or(0.0, |&(_, v)| v);
            runner_overhead.push(wall * 1e3 - cells_ms);
            layers.push(sample);
            append_spans(&mut all_spans, spans);
        } else {
            // A figure user has every cell when the grid ends.
            let ok = (specs.len() as u64 - failed) as usize;
            times.unit.push(unit);
            times.wall_s.push(wall);
            times.cpu_s.push(cpu);
            times.cycles.push(out.cycles as f64);
            times.job_ms.push(vec![wall * 1e3; ok]);
        }
        unit_out = out;
        wall
    });
    report.calib = calib;
    report.one("peak_rss_mb", "MiB", host::peak_rss_mb());
    let overhead_ms = (median(&batch_walls) - median(&times.wall_s)) * 1e3;
    times.into_report(&mut report, setup, GRID_LIMIT_MS, false);
    if args.trace {
        finish_trace(&mut report, args, layers, &all_spans);
        report.samples("bench.runner_overhead_ms", "ms", runner_overhead);
        report.one("bench.tracing_overhead_ms", "ms", overhead_ms);
        let [hits, misses, bypasses] = fork;
        report.samples("bench.fork_hits", "count", hits);
        report.samples("bench.fork_misses", "count", misses);
        report.samples("bench.fork_bypasses", "count", bypasses);
    }
    count_metrics(&mut report, &unit_out);
    report.one("bench.units", "count", units as f64);
    report.zero(&SERVE_ZEROES);
    report
}

/// Appends one unit's spans to the run's log, re-basing parent indices.
pub fn append_spans(all: &mut Vec<Span>, spans: Vec<Span>) {
    let base = all.len();
    all.extend(spans.into_iter().map(|mut s| {
        s.parent = s.parent.map(|p| p + base);
        s
    }));
}

/// Files the layer samples and writes the run's spans out under the
/// build directory.
pub fn finish_trace(report: &mut Report, args: &Args, layers: LayerSamples, spans: &[Span]) {
    layers.into_report(report);
    let dir = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "perfbench/target".into());
    let path = std::path::Path::new(&dir).join(format!(
        "perfbench-spans-{:?}-seed{}.tsv",
        args.workload, args.seed
    ));
    match span::write_tsv(&path, spans) {
        Ok(()) => println!("spans: {} written to {}", spans.len(), path.display()),
        Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
    }
}
