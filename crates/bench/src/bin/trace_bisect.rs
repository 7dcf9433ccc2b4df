//! `trace_bisect` — binary-search the first divergent cycle between two
//! variants of one simulation cell.
//!
//! ```text
//! cargo run -p pei-bench --release --bin trace_bisect -- \
//!     -w atf -s small --seed 7 --budget 2000 \
//!     --a policy=la --b policy=bd [--grain 4096] [--check]
//! ```
//!
//! The base cell (workload, size, seed, budget, machine scale) is fixed
//! by the top-level flags; `--a` and `--b` each apply a comma-separated
//! override list (`policy=host|pim|la|bd`, `budget=N`, `seed=N`) to it.
//! The search advances both variants from shared snapshots
//! (`System::snapshot`, DESIGN.md §11), comparing machine state at each
//! midpoint, and only traces the final window — so it names the exact
//! first divergent record without ever holding a full trace (see
//! `pei_bench::bisect`).
//!
//! Exit status: 0 when the variants are identical, 3 when a divergence
//! was found, 2 on usage errors.

use pei_bench::bisect::{bisect, BisectOutcome};
use pei_bench::runner::RunSpec;
use pei_bench::{ExpOptions, Scale};
use pei_core::DispatchPolicy;
use pei_workloads::{InputSize, Workload};

const USAGE: &str = "\
trace_bisect — first divergent cycle between two run variants

USAGE:
  trace_bisect -w <W> [-s SIZE] [--seed N] [--budget N] [--paper]
               --a KEY=V[,KEY=V...] --b KEY=V[,KEY=V...]
               [--grain N] [--check] [--scale quick|full]

VARIANT KEYS:
  policy=host|pim|la|bd    dispatch policy
  budget=N                 PEI budget
  seed=N                   workload seed
";

struct Cli {
    workload: Workload,
    size: InputSize,
    opts: ExpOptions,
    budget: Option<u64>,
    a: String,
    b: String,
    grain: u64,
}

fn parse_cli() -> Result<Cli, String> {
    let mut cli = Cli {
        workload: Workload::Atf,
        size: InputSize::Small,
        opts: ExpOptions {
            jobs: 1,
            ..ExpOptions::default()
        },
        budget: None,
        a: String::new(),
        b: String::new(),
        grain: 4_096,
    };
    let mut saw_workload = false;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match arg.as_str() {
            "-w" | "--workload" => {
                cli.workload = pei_bench::tracecap::parse_workload(&value("--workload")?)
                    .ok_or("unknown workload")?;
                saw_workload = true;
            }
            "-s" | "--size" => {
                cli.size =
                    pei_bench::tracecap::parse_size(&value("--size")?).ok_or("unknown size")?;
            }
            "--seed" => cli.opts.seed = value("--seed")?.parse().map_err(|e| format!("{e}"))?,
            "--budget" => {
                cli.budget = Some(value("--budget")?.parse().map_err(|e| format!("{e}"))?)
            }
            "--scale" => {
                cli.opts.scale =
                    Scale::parse(&value("--scale")?).ok_or("unknown scale (quick|full)")?;
            }
            "--paper" => cli.opts.paper_machine = true,
            "--check" => cli.opts.check = true,
            "--a" => cli.a = value("--a")?,
            "--b" => cli.b = value("--b")?,
            "--grain" => cli.grain = value("--grain")?.parse().map_err(|e| format!("{e}"))?,
            "-h" | "--help" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !saw_workload {
        return Err("--workload is required".into());
    }
    Ok(cli)
}

/// Applies one `KEY=V[,KEY=V...]` override list to the base spec.
fn apply_overrides(cli: &Cli, overrides: &str) -> Result<RunSpec, String> {
    let mut policy = DispatchPolicy::LocalityAware;
    let mut params = cli.opts.workload_params();
    if let Some(b) = cli.budget {
        params.pei_budget = b;
    }
    for kv in overrides.split(',').filter(|s| !s.is_empty()) {
        let (k, v) = kv
            .split_once('=')
            .ok_or_else(|| format!("bad override `{kv}` (expected KEY=V)"))?;
        match k {
            "policy" => {
                policy = match v {
                    "host" => DispatchPolicy::HostOnly,
                    "pim" => DispatchPolicy::PimOnly,
                    "la" => DispatchPolicy::LocalityAware,
                    "bd" => DispatchPolicy::LocalityAwareBalanced,
                    other => return Err(format!("unknown policy `{other}`")),
                };
            }
            "budget" => params.pei_budget = v.parse().map_err(|e| format!("bad budget: {e}"))?,
            "seed" => params.seed = v.parse().map_err(|e| format!("bad seed: {e}"))?,
            other => return Err(format!("unknown override key `{other}`")),
        }
    }
    let mut spec = RunSpec::sized(cli.opts.machine(policy), params, cli.workload, cli.size);
    spec.check = cli.opts.check;
    Ok(spec)
}

fn main() {
    let cli = match parse_cli() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            std::process::exit(2);
        }
    };
    let (a, b) = match (apply_overrides(&cli, &cli.a), apply_overrides(&cli, &cli.b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}\n\n{USAGE}");
            std::process::exit(2);
        }
    };
    eprintln!(
        "bisecting {:?}/{:?}: a=[{}] vs b=[{}] (grain {})...",
        cli.workload, cli.size, cli.a, cli.b, cli.grain
    );
    let r = match bisect(&a, &b, cli.grain) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    for p in &r.probes {
        eprintln!(
            "  probe cycle {:>12}: {}",
            p.at,
            if p.equal {
                "states equal"
            } else {
                "states differ"
            }
        );
    }
    match r.outcome {
        BisectOutcome::Identical => {
            println!("identical: final machine states are byte-equal");
        }
        BisectOutcome::Trace { cycle, divergence } => {
            println!("first divergence at cycle {cycle}");
            println!("{divergence}");
            std::process::exit(3);
        }
        BisectOutcome::StateOnly { window } => {
            println!(
                "state diverges in ({}, {}] with no trace divergence in that window",
                window.0, window.1
            );
            std::process::exit(3);
        }
    }
}
