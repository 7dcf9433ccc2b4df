//! The repository benchmark: one command per workload, printing every
//! end-to-end metric (untraced run) or every per-layer metric (traced
//! run) with its unit, and gating the simulator's outputs.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload cell-cold|grid-sweep|serve-open --seed <n> --seconds <s> --trace 0|1
//! ```
//!
//! Run it from the repository root. The last line of standard output is
//! one JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//! Lines before it stamp the host and give each metric's median,
//! quartiles and sample count. Workload choice, metric definitions and
//! the layer predictions are recorded in `perfbench/DESIGN.md`.

mod cells;
mod host;
mod serve;
mod span;

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::time::Instant;

const USAGE: &str = "usage: perfbench --workload cell-cold|grid-sweep|serve-open --seed <n> --seconds <s> --trace 0|1 [--write-pins <file>]";

/// Metrics of the untraced run, in `BENCHMARK.json` order.
const END_TO_END: [&str; 6] = [
    "setup_s",
    "wall_s",
    "cpu_s",
    "sim_cycles_per_s",
    "peak_rss_mb",
    "goodput_jobs_per_s",
];

/// Metrics of the traced run, in `BENCHMARK.json` order.
const PER_LAYER: [&str; 45] = [
    "job_ms_p50",
    "job_ms_p90",
    "workloads.input_ms",
    "workloads.input_share",
    "workloads.graph_cache_hits",
    "workloads.graph_cache_misses",
    "workloads.graph_cache_hit_ratio",
    "workloads.tracegen_ms",
    "workloads.phases",
    "system.build_ms",
    "system.loop_ms",
    "system.loop_share",
    "system.ns_per_event",
    "system.events",
    "system.sim_cycles",
    "system.stats_digest",
    "system.l3_accesses",
    "system.dram_accesses",
    "system.link_flits",
    "system.pmu_host_dispatched",
    "system.pmu_mem_dispatched",
    "bench.cell_ms",
    "bench.runner_overhead_ms",
    "bench.unattributed_ms",
    "bench.tracing_overhead_ms",
    "bench.fork_hits",
    "bench.fork_misses",
    "bench.fork_bypasses",
    "bench.failed_frac",
    "bench.units",
    "serve.ack_ms_p50",
    "serve.queue_wait_ms_p50",
    "serve.queue_wait_ms_p95",
    "serve.queue_high_water",
    "serve.backlog_trend",
    "serve.gen_lag_ms_p90",
    "serve.worker_busy_ms",
    "serve.worker_util",
    "serve.service_ms_mean",
    "serve.jobs",
    "serve.refused",
    "wire.encode_us",
    "wire.decode_us",
    "wire.frames",
    "host.calib_ms",
];

/// The seed whose cell outputs `pinned.txt` records.
const DEFAULT_SEED: u64 = 1;

/// Seed of the set-up's warm-up cells: fixed, not drawn from `--seed`.
pub const WARMUP_SEED: u64 = 0x5eed;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    CellCold,
    GridSweep,
    ServeOpen,
}

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub write_pins: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut write_pins = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "cell-cold" => Workload::CellCold,
                    "grid-sweep" => Workload::GridSweep,
                    "serve-open" => Workload::ServeOpen,
                    other => return Err(format!("unknown workload `{other}`")),
                })
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--write-pins" => write_pins = Some(value),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(DEFAULT_SEED),
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        write_pins,
    })
}

/// What one cell produced: the exact counts the gate compares and the
/// per-component counts reported beside them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CellOut {
    pub events: u64,
    pub cycles: u64,
    pub digest: u64,
    pub l3_accesses: u64,
    pub dram_accesses: u64,
    pub link_flits: u64,
    pub pmu_host: u64,
    pub pmu_mem: u64,
}

impl CellOut {
    /// Reads the counts from a run's statistics text (the form both an
    /// in-process result and a daemon `result` frame carry).
    pub fn from_stats_text(text: &str, cycles: u64) -> CellOut {
        let stat = |name: &str| -> u64 {
            text.lines()
                .find_map(|l| {
                    let mut parts = l.split_whitespace();
                    (parts.next() == Some(name)).then(|| parts.next())?
                })
                .and_then(|v| v.parse::<f64>().ok())
                .map_or(0, |v| v as u64)
        };
        CellOut {
            events: stat("sim.events"),
            cycles,
            digest: host::digest48(text),
            l3_accesses: stat("l3.hits") + stat("l3.misses"),
            dram_accesses: stat("dram.reads") + stat("dram.writes"),
            link_flits: stat("link.req_flits") + stat("link.res_flits"),
            pmu_host: stat("pmu.host_dispatched"),
            pmu_mem: stat("pmu.mem_dispatched"),
        }
    }

    pub fn add(&mut self, o: &CellOut) {
        self.events += o.events;
        self.cycles += o.cycles;
        self.digest = (self.digest + o.digest) & ((1 << 48) - 1);
        self.l3_accesses += o.l3_accesses;
        self.dram_accesses += o.dram_accesses;
        self.link_flits += o.link_flits;
        self.pmu_host += o.pmu_host;
        self.pmu_mem += o.pmu_mem;
    }
}

/// The output gate: a cell fails when its run did not complete, or its
/// `(events, cycles, stats digest)` differs from the value pinned for
/// the default seed, or from an earlier repeat of the same cell.
pub struct Gate {
    pinned: HashMap<String, (u64, u64, u64)>,
    seen: BTreeMap<String, (u64, u64, u64)>,
    pub problems: Vec<String>,
}

impl Gate {
    fn new() -> Gate {
        let pinned = include_str!("../pinned.txt")
            .lines()
            .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
            .map(|l| {
                let f: Vec<&str> = l.split('\t').collect();
                assert_eq!(f.len(), 4, "pinned.txt line `{l}` needs 4 fields");
                let n = |s: &str| s.parse::<u64>().expect("pinned.txt counts are integers");
                (f[0].to_owned(), (n(f[1]), n(f[2]), n(f[3])))
            })
            .collect();
        Gate {
            pinned,
            seen: BTreeMap::new(),
            problems: Vec::new(),
        }
    }

    /// Checks one cell; returns whether it passed.
    pub fn check(&mut self, key: &str, completed: bool, out: &CellOut) -> bool {
        let got = (out.events, out.cycles, out.digest);
        let problem = if !completed {
            Some("did not complete".to_owned())
        } else if let Some(want) = self.pinned.get(key).filter(|&&w| w != got) {
            Some(format!("got {got:?}, pinned {want:?}"))
        } else {
            match self.seen.get(key) {
                Some(&first) if first != got => {
                    Some(format!("got {got:?}, earlier repeat {first:?}"))
                }
                _ => {
                    self.seen.insert(key.to_owned(), got);
                    None
                }
            }
        };
        if let Some(p) = problem {
            self.problems.push(format!("{key}: {p}"));
            return false;
        }
        true
    }

    pub fn fail(&mut self, what: String) {
        self.problems.push(what);
    }

    fn write_pins(&self, path: &str) -> std::io::Result<()> {
        let mut all: BTreeMap<String, (u64, u64, u64)> = std::fs::read_to_string(path)
            .unwrap_or_default()
            .lines()
            .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
            .filter_map(|l| {
                let f: Vec<&str> = l.split('\t').collect();
                let n = |i: usize| f.get(i)?.parse::<u64>().ok();
                Some((f[0].to_owned(), (n(1)?, n(2)?, n(3)?)))
            })
            .collect();
        all.extend(self.seen.iter().map(|(k, v)| (k.clone(), *v)));
        let mut text = String::from(
            "# cell key\tsim.events\tsim.cycles\tstats digest (FNV-1a, low 48 bits)\n",
        );
        for (k, (e, c, d)) in &all {
            let _ = writeln!(text, "{k}\t{e}\t{c}\t{d}");
        }
        std::fs::write(path, text)
    }
}

/// Metrics of one run: each is a list of samples (one per measured
/// unit, or a single exact count) reported as its median.
#[derive(Default)]
pub struct Report {
    /// Host-speed shots taken between the run's measured units.
    pub calib: host::Calib,
    pub attempted: u64,
    pub failed: u64,
    /// Reasons the run's figures are not valid measurements.
    pub invalid: Vec<String>,
    metrics: BTreeMap<&'static str, (&'static str, Vec<f64>)>,
}

impl Report {
    pub fn samples(&mut self, name: &'static str, unit: &'static str, samples: Vec<f64>) {
        self.metrics.insert(name, (unit, samples));
    }

    pub fn one(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.samples(name, unit, vec![value]);
    }

    /// Per-layer metrics that stay zero on this workload (its layer is
    /// not on the path), so every workload prints the full list.
    pub fn zero(&mut self, names: &[(&'static str, &'static str)]) {
        for &(name, unit) in names {
            self.metrics.entry(name).or_insert((unit, vec![0.0]));
        }
    }
}

/// Runs units of fixed work until `seconds` would be exceeded by the
/// next one (at least `min_units`); `unit(i)` returns its wall seconds.
/// Calibration shots go before the first unit and after each one.
pub fn measure(
    seconds: f64,
    min_units: usize,
    calib: &mut host::Calib,
    mut unit: impl FnMut(usize) -> f64,
) -> usize {
    let start = Instant::now();
    let mut walls = Vec::new();
    calib.after_unit(0.0);
    loop {
        let i = walls.len();
        walls.push(unit(i));
        calib.after_unit(walls[i]);
        let next = start.elapsed().as_secs_f64() + host::median(&walls);
        if walls.len() >= min_units && next > seconds {
            return walls.len();
        }
    }
}

/// Times `setup` `times` times and returns each duration in seconds.
pub fn setup_samples(times: usize, mut setup: impl FnMut()) -> Vec<f64> {
    (0..times)
        .map(|_| {
            let t0 = Instant::now();
            setup();
            t0.elapsed().as_secs_f64()
        })
        .collect()
}

fn emit(args: &Args, mut report: Report, gate: &Gate) -> bool {
    let calib_ms = report.calib.median_ms();
    report.one("host.calib_ms", "ms", calib_ms);
    println!("{}", host::stamp());
    println!(
        "calib: shots={} median_ms={calib_ms:.3} ref_ms={} (end-to-end times are measured times x ref_ms / median of the shots around each unit)",
        report.calib.shots(),
        host::CALIB_REF_MS,
    );
    println!(
        "run: workload={:?} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace
    );
    let failed_frac = report.failed as f64 / report.attempted.max(1) as f64;
    report.one("bench.failed_frac", "ratio", failed_frac);
    let names: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    println!("metric\tunit\tmedian\tq1\tq3\tn");
    let mut json = String::new();
    for (i, name) in names.iter().enumerate() {
        let (unit, samples) = report
            .metrics
            .get(name)
            .unwrap_or_else(|| panic!("metric `{name}` was not measured"));
        let med = host::median(samples);
        println!(
            "{name}\t{unit}\t{med}\t{}\t{}\t{}",
            host::quantile(samples, 0.25),
            host::quantile(samples, 0.75),
            samples.len()
        );
        let value = if med.is_finite() { med } else { 0.0 };
        let _ = write!(
            json,
            "{}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}",
            if i == 0 { "" } else { ", " }
        );
    }
    for p in gate.problems.iter().take(10) {
        println!("FAILED: {p}");
    }
    for p in &report.invalid {
        println!("INVALID: {p}");
    }
    let correct = gate.problems.is_empty() && report.failed == 0 && report.invalid.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        report.attempted.max(1),
        report.failed
    );
    correct
}

fn main() {
    if std::env::args().nth(1).as_deref() == Some(host::CALIB_FLAG) {
        println!("{}", host::calib_kernel_ms());
        return;
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if !std::path::Path::new("crates").is_dir() {
        eprintln!("perfbench: run from the repository root (no `crates/` here)");
        std::process::exit(2);
    }
    let mut gate = Gate::new();
    let report = match args.workload {
        Workload::CellCold => cells::cell_cold(&args, &mut gate),
        Workload::GridSweep => cells::grid_sweep(&args, &mut gate),
        Workload::ServeOpen => serve::serve_open(&args, &mut gate),
    };
    if let Some(path) = &args.write_pins {
        gate.write_pins(path)
            .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    }
    if !emit(&args, report, &gate) {
        eprintln!("perfbench: output check failed");
        std::process::exit(1);
    }
}
