//! Experiment harness: shared machinery for the figure-reproduction
//! binaries (`fig2` … `fig12`, `pmu_overhead`, `ablations`).
//!
//! Every binary accepts:
//!
//! * `--scale quick|full` — PEI budget per run (quick ≈ 40 K, full ≈
//!   200 K; the paper's analog is its fixed 2-billion-instruction window);
//! * `--paper` — use the paper-scale machine (16 cores, 16 MB L3,
//!   8 HMCs) instead of the proportionally scaled default (4 cores,
//!   1 MB L3, 1 HMC);
//! * `--seed <n>` — RNG seed;
//! * `--jobs <n>` — worker threads for the experiment grid (default:
//!   available parallelism). Tables are byte-identical for every value —
//!   see [`runner`] and the determinism contract in EXPERIMENTS.md;
//! * `--check` — checked mode: every run sweeps the simulator's
//!   cross-component invariant auditors (MESI, MSHR leaks, flit/credit
//!   conservation, operand accounting, event population; see
//!   `pei_system::check` and DESIGN.md §9), and failed cells surface
//!   structured failure reports on stderr while sibling cells keep
//!   running;
//! * `--no-fork` — run every grid cell cold instead of forking a warmed
//!   snapshot across cells that share a pre-PEI prefix (see
//!   [`runner::run_specs_forked`] and DESIGN.md §11). Results are
//!   byte-identical either way; forking only saves wall-clock time.
//!
//! A bad argument prints the error and [`USAGE`] to stderr and exits
//! with status 2 (see [`ExpOptions::parse`]).
//!
//! Binaries describe their grid as [`runner::RunSpec`]s collected into a
//! [`runner::Batch`], run it once, and print from the ordered results.
//! Results print as aligned text tables whose rows mirror the series of
//! the corresponding paper figure; EXPERIMENTS.md records a measured run
//! against the paper's claims.
//!
//! This crate's place in the workspace is mapped in DESIGN.md §5.

#![warn(missing_docs)]

pub mod bisect;
pub mod runner;
pub mod service;
pub mod tracecap;

use pei_core::DispatchPolicy;
use pei_system::{MachineConfig, RunResult, System};
use pei_workloads::{InputSize, Workload, WorkloadParams};

/// Simulation effort per run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// ~40 K PEIs per run: the full figure suite in minutes.
    Quick,
    /// ~200 K PEIs per run.
    Full,
}

impl Scale {
    /// Command-line / trace-metadata name (`quick` or `full`).
    pub fn name(self) -> &'static str {
        match self {
            Scale::Quick => "quick",
            Scale::Full => "full",
        }
    }

    /// Inverse of [`name`](Scale::name).
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "quick" => Some(Scale::Quick),
            "full" => Some(Scale::Full),
            _ => None,
        }
    }
}

/// Parsed command-line options shared by all figure binaries.
#[derive(Debug, Clone)]
pub struct ExpOptions {
    /// Simulation effort.
    pub scale: Scale,
    /// Paper-scale machine instead of the scaled default.
    pub paper_machine: bool,
    /// RNG seed.
    pub seed: u64,
    /// Worker threads for the experiment grid (`>= 1`). Affects
    /// wall-clock time only, never results.
    pub jobs: usize,
    /// If set, also capture the binary's representative cell as an
    /// event trace (`.petr`, see [`tracecap`]) at this path.
    pub trace: Option<std::path::PathBuf>,
    /// Checked mode: every run sweeps the cross-component invariant
    /// auditors (`pei_system::check`) and failed cells surface
    /// structured reports instead of panicking. Results are
    /// byte-identical to unchecked runs unless a checker fires.
    pub check: bool,
    /// Disable warm-state forking: run every cell cold instead of
    /// letting policy siblings share a snapshot taken at the first PEI
    /// (see [`runner::run_specs_forked`]). Results are byte-identical
    /// either way; this is the escape hatch for timing the warmup
    /// itself or isolating a suspected fork bug.
    pub no_fork: bool,
}

impl Default for ExpOptions {
    /// Quick scale, scaled machine, the default seed, one worker per
    /// available hardware thread, and no trace capture.
    fn default() -> Self {
        ExpOptions {
            scale: Scale::Quick,
            paper_machine: false,
            seed: 0x5eed,
            jobs: default_jobs(),
            trace: None,
            check: false,
            no_fork: false,
        }
    }
}

/// The default `--jobs` value: available hardware parallelism.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The flags every figure binary accepts, as printed after `usage:`
/// and the program name.
pub const USAGE: &str = "[--scale quick|full] [--paper] [--seed <n>] [--jobs <n>] \
                         [--trace <out.petr>] [--check] [--no-fork]";

impl ExpOptions {
    /// Parses `std::env::args()`. On a bad argument, prints the error
    /// and the usage line to stderr and exits with status 2.
    pub fn from_args() -> Self {
        let mut args = std::env::args();
        let prog = args.next().unwrap_or_default();
        ExpOptions::parse(args).unwrap_or_else(|e| {
            let prog = std::path::Path::new(&prog)
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or(&prog);
            eprintln!("error: {e}");
            eprintln!("usage: {prog} {USAGE}");
            std::process::exit(2)
        })
    }

    /// Parses figure-binary arguments (without the program name).
    ///
    /// # Errors
    ///
    /// Names the offending argument: an unknown flag, a missing or
    /// malformed value, or `--jobs 0`.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        fn value(args: &mut impl Iterator<Item = String>, flag: &str) -> Result<String, String> {
            args.next().ok_or_else(|| format!("{flag} needs a value"))
        }
        fn number<T: std::str::FromStr>(
            args: &mut impl Iterator<Item = String>,
            flag: &str,
        ) -> Result<T, String> {
            let v = value(args, flag)?;
            v.parse()
                .map_err(|_| format!("{flag} needs an integer, got `{v}`"))
        }
        let mut opts = ExpOptions::default();
        let mut args = args.into_iter();
        while let Some(a) = args.next() {
            match a.as_str() {
                "--scale" => {
                    let v = value(&mut args, "--scale")?;
                    opts.scale =
                        Scale::parse(&v).ok_or(format!("unknown scale `{v}` (quick|full)"))?;
                }
                "--paper" => opts.paper_machine = true,
                "--seed" => opts.seed = number(&mut args, "--seed")?,
                "--jobs" => {
                    opts.jobs = number(&mut args, "--jobs")?;
                    if opts.jobs == 0 {
                        return Err("--jobs must be at least 1".to_owned());
                    }
                }
                "--trace" => opts.trace = Some(value(&mut args, "--trace")?.into()),
                "--check" => opts.check = true,
                "--no-fork" => opts.no_fork = true,
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        Ok(opts)
    }

    /// The Ideal-Host reference machine (§7) at the chosen scale.
    pub fn ideal_machine(&self) -> MachineConfig {
        self.machine(DispatchPolicy::HostOnly).ideal_host()
    }

    /// The machine config for `policy` at the chosen machine scale.
    pub fn machine(&self, policy: DispatchPolicy) -> MachineConfig {
        if self.paper_machine {
            MachineConfig::paper(policy)
        } else {
            MachineConfig::scaled(policy)
        }
    }

    /// Workload parameters matched to the machine.
    pub fn workload_params(&self) -> WorkloadParams {
        let m = self.machine(DispatchPolicy::HostOnly);
        WorkloadParams {
            threads: m.cores,
            l3_bytes: m.mem.l3.capacity,
            pei_budget: match self.scale {
                Scale::Quick => 40_000,
                Scale::Full => 200_000,
            },
            phase_chunk: 8_192,
            seed: self.seed,
            heap_base: WorkloadParams::DEFAULT_HEAP_BASE,
        }
    }
}

/// Upper bound on simulated cycles before declaring a run stuck.
pub const CYCLE_LIMIT: u64 = 50_000_000_000;

/// Runs `workload` at `size` under `policy`, returning the result.
pub fn run_one(
    opts: &ExpOptions,
    workload: Workload,
    size: InputSize,
    policy: DispatchPolicy,
) -> RunResult {
    let params = opts.workload_params();
    let (store, trace) = workload.build(size, &params);
    run_trace(opts, store, trace, policy)
}

/// Runs a prepared `(store, trace)` pair under `policy`.
pub fn run_trace(
    opts: &ExpOptions,
    store: pei_mem::BackingStore,
    trace: Box<dyn pei_cpu::trace::PhasedTrace>,
    policy: DispatchPolicy,
) -> RunResult {
    let cfg = opts.machine(policy);
    let mut sys = System::new(cfg, store);
    sys.add_workload(trace, (0..cfg.cores).collect());
    if opts.check {
        sys.enable_checks(pei_system::CheckConfig::default());
    }
    sys.run(CYCLE_LIMIT)
}

/// If `--trace <path>` was given, captures the binary's representative
/// cell — `workload` at `size` under `policy`, at the options' scale and
/// seed — as a replayable `.petr` event trace at that path (see
/// [`tracecap`]). Call once, after printing the figure, with the cell
/// that best characterizes the figure's behavior. No-op without
/// `--trace`.
pub fn write_trace_if_requested(
    opts: &ExpOptions,
    workload: Workload,
    size: InputSize,
    policy: DispatchPolicy,
) {
    let Some(path) = &opts.trace else { return };
    let spec = tracecap::CaptureSpec {
        workload,
        size,
        policy,
        scale: opts.scale,
        paper_machine: opts.paper_machine,
        seed: opts.seed,
        pei_budget: None,
    };
    let (_, trace) = spec.capture();
    std::fs::write(path, trace.to_bytes())
        .unwrap_or_else(|e| panic!("cannot write trace {}: {e}", path.display()));
    eprintln!(
        "captured {} records ({} dropped) from {} to {}",
        trace.records.len(),
        trace.dropped,
        spec,
        path.display()
    );
}

/// Runs with the Ideal-Host reference configuration (§7).
pub fn run_ideal_host(opts: &ExpOptions, workload: Workload, size: InputSize) -> RunResult {
    let params = opts.workload_params();
    let (store, trace) = workload.build(size, &params);
    let cfg = opts.machine(DispatchPolicy::HostOnly).ideal_host();
    let mut sys = System::new(cfg, store);
    sys.add_workload(trace, (0..cfg.cores).collect());
    if opts.check {
        sys.enable_checks(pei_system::CheckConfig::default());
    }
    sys.run(CYCLE_LIMIT)
}

/// Geometric mean.
///
/// # Panics
///
/// Panics if `xs` is empty or contains non-positive values.
pub fn geomean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "geomean of empty slice");
    let log_sum: f64 = xs
        .iter()
        .map(|&x| {
            assert!(x > 0.0, "geomean requires positive values");
            x.ln()
        })
        .sum();
    (log_sum / xs.len() as f64).exp()
}

/// Prints a header line for a figure table.
pub fn print_title(title: &str) {
    println!("\n# {title}");
    println!("{}", "=".repeat(title.len() + 2));
}

/// Formats a row of right-aligned f64 cells after a left-aligned label.
pub fn print_row(label: &str, cells: &[f64]) {
    print!("{label:<22}");
    for c in cells {
        print!(" {c:>10.3}");
    }
    println!();
}

/// Prints column headers aligned with [`print_row`].
pub fn print_cols(first: &str, cols: &[&str]) {
    print!("{first:<22}");
    for c in cols {
        print!(" {c:>10}");
    }
    println!();
}

/// The nine-graph series of Figs. 2 and 8: synthetic stand-ins for the
/// paper's nine real-world graphs, ordered by vertex count (the paper
/// sorts its x-axis the same way). Returns `(name, vertices)`.
pub fn nine_graphs(l3_bytes: usize) -> Vec<(&'static str, usize)> {
    // Vertex counts span ~L3/3 to ~14×L3 of PEI-visible data (~48 B per
    // vertex) with a 1.6× ladder, mirroring the paper's 62 K – 5 M vertex
    // range (~77×) around its 16 MB L3.
    let base = (l3_bytes / 48 / 3).max(256);
    let names = [
        "syn-p2p-Gnutella31",
        "syn-email-EuAll",
        "syn-soc-Slashdot",
        "syn-web-Stanford",
        "syn-amazon-2008",
        "syn-frwiki-2013",
        "syn-wiki-Talk",
        "syn-cit-Patents",
        "syn-soc-LiveJournal",
    ];
    names
        .iter()
        .enumerate()
        .map(|(i, &n)| (n, (base as f64 * 1.6f64.powi(i as i32)) as usize))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_of_constants() {
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn nine_graphs_grow_monotonically() {
        let g = nine_graphs(1 << 20);
        assert_eq!(g.len(), 9);
        for w in g.windows(2) {
            assert!(w[1].1 > w[0].1);
        }
        // Smallest well under L3, largest far above it.
        assert!(g[0].1 * 48 < (1 << 20) / 2);
        assert!(g[8].1 * 48 > 8 * (1 << 20));
    }

    fn parse(args: &[&str]) -> Result<ExpOptions, String> {
        ExpOptions::parse(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn parse_reads_every_flag() {
        let o = parse(&[
            "--scale",
            "full",
            "--paper",
            "--seed",
            "7",
            "--jobs",
            "3",
            "--trace",
            "t.petr",
            "--check",
            "--no-fork",
        ])
        .expect("valid arguments");
        assert_eq!(o.scale, Scale::Full);
        assert!(o.paper_machine && o.check && o.no_fork);
        assert_eq!((o.seed, o.jobs), (7, 3));
        assert_eq!(o.trace.as_deref(), Some(std::path::Path::new("t.petr")));
    }

    #[test]
    fn parse_rejects_bad_arguments_with_a_message() {
        for (args, want) in [
            (&["--shards", "4"][..], "unknown argument `--shards`"),
            (&["--jobs", "0"][..], "--jobs must be at least 1"),
            (&["--jobs"][..], "--jobs needs a value"),
            (
                &["--jobs", "many"][..],
                "--jobs needs an integer, got `many`",
            ),
            (&["--scale", "bogus"][..], "unknown scale `bogus`"),
        ] {
            match parse(args) {
                Err(e) => assert!(e.contains(want), "{args:?}: got `{e}`, want `{want}`"),
                Ok(o) => panic!("{args:?} parsed as {o:?}"),
            }
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn geomean_rejects_nonpositive() {
        geomean(&[1.0, 0.0]);
    }
}
