//! Simulator-throughput benchmark: host events/sec and sim-cycles/sec
//! over a fixed workload mix, recorded to `BENCH_sim_throughput.json`.
//!
//! Unlike the figure binaries this measures the *simulator*, not the
//! simulated machine: the same mix run on the same hardware gives a
//! perf trajectory for the event kernel across PRs (see EXPERIMENTS.md
//! §"Simulator throughput" for the methodology and JSON schema).
//!
//! ```text
//! cargo run -p pei-bench --release --bin sim_throughput -- \
//!     [--scale quick|full] [--paper] [--seed <n>] [--repeat <n>] [--label <s>] [--out <path>] \
//!     [--traced] [--checked]
//! ```
//!
//! Runs are strictly serial (`jobs` is fixed at 1) so wall-clock time
//! divides cleanly into per-run throughput. The new record is spliced
//! into the JSON array at `--out` (a missing file starts a new array),
//! so the checked-in file accumulates a history; a file that is not a
//! JSON array is left untouched and the run exits with an error.
//! `--paper` selects the paper-scale machine.
//!
//! `--traced` attaches a [`pei_trace::NullSink`] to every measured run:
//! the simulator takes the full per-event capture path (interning
//! lookups, one virtual call per event) but retains nothing, so the
//! throughput delta against an untraced run isolates the cost of
//! tracing itself (EXPERIMENTS.md §"Tracing overhead"). Simulated
//! results are identical either way — tracing observes, never steers.
//!
//! `--checked` enables checked mode (`pei_system::check`) on every
//! measured run: the invariant auditors sweep the whole machine at the
//! default interval, so the delta against an unchecked run measures the
//! sanitizer's overhead (EXPERIMENTS.md §"Checked-mode overhead").
//! Simulated results are likewise identical — sweeps observe only.
//!
//! `--fork-bench` measures warm-state forking instead of the per-cell
//! mix: a four-policy × three-workload grid is run twice — once cold
//! (every cell replays its warmup prefix) and once with snapshot
//! forking (`pei_bench::runner::run_specs_forked`, DESIGN.md §11) —
//! and the record's two rows carry the whole-grid wall-clock pair
//! (EXPERIMENTS.md §"Warm-fork speedup"). The two grids' simulated
//! results are asserted identical before anything is recorded.

use std::fmt::Write as _;
use std::time::Instant;

use pei_bench::runner::RunSpec;
use pei_bench::{ExpOptions, Scale};
use pei_core::DispatchPolicy;
use pei_trace::NullSink;
use pei_workloads::{InputSize, Workload};

/// The fixed mix: one graph, one analytics, and one ML workload, each
/// under the host-only and locality-aware policies at medium size —
/// exercising the core/cache path, the PMU/PCU path, and both.
const MIX: [(Workload, DispatchPolicy); 6] = [
    (Workload::Atf, DispatchPolicy::HostOnly),
    (Workload::Atf, DispatchPolicy::LocalityAware),
    (Workload::Hj, DispatchPolicy::HostOnly),
    (Workload::Hj, DispatchPolicy::LocalityAware),
    (Workload::Sc, DispatchPolicy::HostOnly),
    (Workload::Sc, DispatchPolicy::LocalityAware),
];

fn policy_name(p: DispatchPolicy) -> &'static str {
    match p {
        DispatchPolicy::HostOnly => "host-only",
        DispatchPolicy::PimOnly => "pim-only",
        DispatchPolicy::LocalityAware => "locality-aware",
        DispatchPolicy::LocalityAwareBalanced => "locality-aware-balanced",
    }
}

struct Args {
    opts: ExpOptions,
    repeat: usize,
    label: String,
    out: String,
    traced: bool,
    checked: bool,
    fork_bench: bool,
}

fn parse_args() -> Args {
    let mut opts = ExpOptions {
        jobs: 1,
        ..ExpOptions::default()
    };
    let mut repeat = 3;
    let mut label = String::from("dev");
    let mut out = String::from("BENCH_sim_throughput.json");
    let mut traced = false;
    let mut checked = false;
    let mut fork_bench = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--scale" => {
                let v = args.next().expect("--scale needs quick|full");
                opts.scale = match v.as_str() {
                    "quick" => Scale::Quick,
                    "full" => Scale::Full,
                    other => panic!("unknown scale `{other}` (quick|full)"),
                };
            }
            "--seed" => {
                opts.seed = args
                    .next()
                    .expect("--seed needs a number")
                    .parse()
                    .expect("seed must be an integer");
            }
            "--repeat" => {
                repeat = args
                    .next()
                    .expect("--repeat needs a number")
                    .parse()
                    .expect("repeat must be an integer");
                assert!(repeat >= 1, "--repeat must be at least 1");
            }
            "--label" => label = args.next().expect("--label needs a string"),
            "--out" => out = args.next().expect("--out needs a path"),
            "--traced" => traced = true,
            "--checked" => checked = true,
            "--fork-bench" => fork_bench = true,
            "--paper" => opts.paper_machine = true,
            other => panic!(
                "unknown argument `{other}` (--scale, --paper, --seed, --repeat, --label, --out, --traced, --checked, --fork-bench)"
            ),
        }
    }
    Args {
        opts,
        repeat,
        label,
        out,
        traced,
        checked,
        fork_bench,
    }
}

struct Measured {
    workload: &'static str,
    policy: &'static str,
    events: u64,
    sim_cycles: u64,
    wall_s: f64,
    /// Fork-cache accounting of this row's grid (`--fork-bench` only):
    /// records *why* the wall-clock pair did or didn't show a speedup.
    fork: Option<pei_bench::runner::ForkStats>,
}

fn record_json(args: &Args, runs: &[Measured]) -> String {
    let scale = match args.opts.scale {
        Scale::Quick => "quick",
        Scale::Full => "full",
    };
    let mut s = String::new();
    let _ = write!(
        s,
        "  {{\n    \"label\": \"{}\",\n    \"scale\": \"{scale}\",\n    \"paper\": {},\n    \"seed\": {},\n    \"traced\": {},\n    \"checked\": {},\n    \"runs\": [",
        args.label,
        args.opts.paper_machine,
        args.opts.seed,
        args.traced,
        args.checked,
    );
    let (mut ev_tot, mut cy_tot, mut wall_tot) = (0u64, 0u64, 0f64);
    for (i, r) in runs.iter().enumerate() {
        ev_tot += r.events;
        cy_tot += r.sim_cycles;
        wall_tot += r.wall_s;
        let fork = match &r.fork {
            None => String::new(),
            Some(f) => format!(
                ", \"fork_hit_rate\": {:.3}, \"fork_hits\": {}, \"fork_misses\": {}, \"fork_bypasses\": {}",
                f.hit_rate(),
                f.hits,
                f.misses,
                f.bypasses
            ),
        };
        let _ = write!(
            s,
            "{}\n      {{\"workload\": \"{}\", \"policy\": \"{}\", \"events\": {}, \"sim_cycles\": {}, \"wall_s\": {:.3}, \"events_per_s\": {:.0}, \"sim_cycles_per_s\": {:.0}{fork}}}",
            if i == 0 { "" } else { "," },
            r.workload,
            r.policy,
            r.events,
            r.sim_cycles,
            r.wall_s,
            r.events as f64 / r.wall_s,
            r.sim_cycles as f64 / r.wall_s,
        );
    }
    let _ = write!(
        s,
        "\n    ],\n    \"total\": {{\"events\": {ev_tot}, \"sim_cycles\": {cy_tot}, \"wall_s\": {wall_tot:.3}, \"events_per_s\": {:.0}, \"sim_cycles_per_s\": {:.0}}}\n  }}",
        ev_tot as f64 / wall_tot,
        cy_tot as f64 / wall_tot,
    );
    s
}

/// The `--fork-bench` grid: every workload of the mix under all four
/// policies, so each workload contributes two fork groups (host/pim and
/// the two locality-aware policies) of two cells each.
fn fork_bench_specs(args: &Args) -> Vec<RunSpec> {
    let mut specs = Vec::new();
    for w in [Workload::Atf, Workload::Hj, Workload::Sc] {
        for policy in [
            DispatchPolicy::HostOnly,
            DispatchPolicy::PimOnly,
            DispatchPolicy::LocalityAware,
            DispatchPolicy::LocalityAwareBalanced,
        ] {
            let mut spec = RunSpec::sized(
                args.opts.machine(policy),
                args.opts.workload_params(),
                w,
                InputSize::Medium,
            );
            spec.check = args.checked;
            specs.push(spec);
        }
    }
    specs
}

/// Times the fork-bench grid cold and forked, asserts the two result
/// sets identical, and returns one row per mode with whole-grid totals.
fn run_fork_bench(args: &Args) -> Vec<Measured> {
    assert!(
        !args.traced,
        "--fork-bench measures the plain runner (no --traced)"
    );
    let specs = fork_bench_specs(args);
    let mut rows = Vec::new();
    let mut reference: Option<Vec<pei_system::RunResult>> = None;
    // ForkPolicy::always() for the forked grid: the bench exists to
    // time the fork machinery itself, so the auto-bypass threshold
    // (which would skip forking at these prefix lengths) is overridden
    // — the recorded hit rate then says how much sharing happened.
    for (mode, policy) in [
        ("cold-grid", pei_bench::runner::ForkPolicy::disabled()),
        ("forked-grid", pei_bench::runner::ForkPolicy::always()),
    ] {
        let mut wall_s = f64::INFINITY;
        let mut measured: Option<(Vec<pei_system::RunResult>, _)> = None;
        for _ in 0..args.repeat {
            let t0 = Instant::now();
            let r = pei_bench::runner::run_specs_forked_with(&specs, 1, policy);
            wall_s = wall_s.min(t0.elapsed().as_secs_f64().max(1e-9));
            measured = Some(r);
        }
        let (results, fork_stats) = measured.expect("repeat >= 1");
        match &reference {
            None => reference = Some(results.clone()),
            Some(cold) => {
                for (c, f) in cold.iter().zip(&results) {
                    assert_eq!(c.cycles, f.cycles, "forked grid diverged from cold grid");
                    assert_eq!(c.stats, f.stats, "forked grid diverged from cold grid");
                }
            }
        }
        let (events, sim_cycles) = results.iter().fold((0u64, 0u64), |(e, c), r| {
            (e + r.stats.expect("sim.events") as u64, c + r.cycles)
        });
        rows.push(Measured {
            workload: "atf+hj+sc x4pol",
            policy: mode,
            events,
            sim_cycles,
            wall_s,
            fork: Some(fork_stats),
        });
    }
    rows
}

/// Prints the header line shared by both tables.
fn print_header() {
    println!(
        "{:<16} {:>15} {:>12} {:>12} {:>9} {:>12} {:>14}",
        "workload", "policy", "events", "sim_cycles", "wall_s", "events/s", "sim_cycles/s"
    );
}

/// Prints one measured row.
fn print_row(m: &Measured) {
    println!(
        "{:<16} {:>15} {:>12} {:>12} {:>9.3} {:>12.0} {:>14.0}",
        m.workload,
        m.policy,
        m.events,
        m.sim_cycles,
        m.wall_s,
        m.events as f64 / m.wall_s,
        m.sim_cycles as f64 / m.wall_s,
    );
}

/// Splices `record` into the JSON array at `path`, creating the file
/// (a one-record array) if it does not exist. Refuses, leaving the file
/// as it is, when the file is not a JSON array.
fn append_record(path: &str, record: &str) -> Result<(), String> {
    let body = match std::fs::read_to_string(path) {
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => format!("[\n{record}\n]\n"),
        Err(e) => return Err(format!("cannot read {path}: {e}")),
        Ok(existing) => {
            let items = pei_types::json::Json::parse(&existing)
                .ok()
                .and_then(|j| j.as_arr().map(<[_]>::len))
                .ok_or(format!("{path} is not a JSON array; not overwriting it"))?;
            let head = existing
                .trim_end()
                .strip_suffix(']')
                .expect("parsed as an array");
            if items == 0 {
                format!("[\n{record}\n]\n")
            } else {
                format!("{},\n{record}\n]\n", head.trim_end())
            }
        }
    };
    std::fs::write(path, body).map_err(|e| format!("cannot write {path}: {e}"))
}

/// Serializes the record and appends it to `--out`.
fn write_record(args: &Args, runs: &[Measured]) {
    if let Err(e) = append_record(&args.out, &record_json(args, runs)) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
    println!("wrote {}", args.out);
}

fn main() {
    let args = parse_args();
    if args.fork_bench {
        let runs = run_fork_bench(&args);
        print_header();
        for m in &runs {
            print_row(m);
        }
        let speedup = runs[0].wall_s / runs[1].wall_s;
        println!(
            "fork speedup: {speedup:.2}x (cold {:.3}s / forked {:.3}s)",
            runs[0].wall_s, runs[1].wall_s
        );
        write_record(&args, &runs);
        return;
    }
    let mut runs = Vec::new();
    print_header();
    for (w, policy) in MIX {
        let mut spec = RunSpec::sized(
            args.opts.machine(policy),
            args.opts.workload_params(),
            w,
            InputSize::Medium,
        );
        spec.check = args.checked;
        // Best-of-N wall time: simulated results are identical across
        // repeats (determinism contract), so the minimum isolates the
        // simulator's speed from scheduler noise on a shared host.
        let mut wall_s = f64::INFINITY;
        let mut res = None;
        for _ in 0..args.repeat {
            let t0 = Instant::now();
            let r = if args.traced {
                spec.run_traced(Box::new(NullSink::new())).0
            } else {
                spec.run()
            };
            wall_s = wall_s.min(t0.elapsed().as_secs_f64().max(1e-9));
            res = Some(r);
        }
        let res = res.expect("repeat >= 1");
        let events = res.stats.expect("sim.events") as u64;
        let m = Measured {
            workload: w.label(),
            policy: policy_name(policy),
            events,
            sim_cycles: res.cycles,
            wall_s,
            fork: None,
        };
        print_row(&m);
        runs.push(m);
    }
    let (ev, cy, wall) = runs.iter().fold((0u64, 0u64, 0f64), |(e, c, w), r| {
        (e + r.events, c + r.sim_cycles, w + r.wall_s)
    });
    println!(
        "{:<16} {:>15} {:>12} {:>12} {:>9.3} {:>12.0} {:>14.0}",
        "TOTAL",
        "",
        ev,
        cy,
        wall,
        ev as f64 / wall,
        cy as f64 / wall,
    );
    write_record(&args, &runs);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_accumulate_instead_of_replacing() {
        let dir = std::env::temp_dir().join(format!("sim-throughput-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bench.json");
        let path = path.to_str().unwrap();
        let _ = std::fs::remove_file(path);
        append_record(path, r#"  {"label": "a"}"#).unwrap();
        append_record(path, r#"  {"label": "b"}"#).unwrap();
        let body = std::fs::read_to_string(path).unwrap();
        let records = pei_types::json::Json::parse(&body).unwrap();
        let labels: Vec<_> = records
            .as_arr()
            .unwrap()
            .iter()
            .map(|r| r.get("label").and_then(|l| l.as_str()).unwrap().to_owned())
            .collect();
        assert_eq!(labels, ["a", "b"]);

        // A file that is not an array is refused and left as it was.
        std::fs::write(path, "not json").unwrap();
        assert!(append_record(path, r#"  {"label": "c"}"#).is_err());
        assert_eq!(std::fs::read_to_string(path).unwrap(), "not json");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
