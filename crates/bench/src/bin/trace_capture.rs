//! Captures, replays, and exports `.petr` event traces (DESIGN.md §8).
//!
//! Three modes:
//!
//! ```text
//! # Capture one cell, writing a replayable trace (and optionally a
//! # Perfetto/Chrome trace_event JSON next to it):
//! trace_capture --workload ATF --size medium --policy locality-aware \
//!     [--scale quick|full] [--paper] [--seed <n>] [--budget <n>] \
//!     -o out.petr [--perfetto out.json]
//!
//! # Re-execute a capture's recipe and verify byte-identity of both the
//! # event stream and the statistics report (exit 1 on divergence):
//! trace_capture --replay in.petr
//!
//! # Convert an existing capture for chrome://tracing / ui.perfetto.dev:
//! trace_capture --export in.petr --perfetto out.json
//! ```

use pei_bench::tracecap::{self, CaptureSpec};
use pei_bench::Scale;
use pei_core::DispatchPolicy;
use pei_trace::{perfetto, Trace};

const USAGE: &str = "trace_capture --workload <W> --size <S> --policy <P> \
     [--scale quick|full] [--paper] [--seed <n>] [--budget <n>] -o <out.petr> \
     [--perfetto <out.json>] | --replay <in.petr> | --export <in.petr> --perfetto <out.json>";

struct Args {
    spec: CaptureSpec,
    out: Option<String>,
    perfetto: Option<String>,
    replay: Option<String>,
    export: Option<String>,
}

fn parse_args() -> Args {
    let mut spec = CaptureSpec {
        workload: pei_workloads::Workload::Atf,
        size: pei_workloads::InputSize::Medium,
        policy: DispatchPolicy::LocalityAware,
        scale: Scale::Quick,
        paper_machine: false,
        seed: 0x5eed,
        pei_budget: None,
    };
    let mut out = None;
    let mut perfetto = None;
    let mut replay = None;
    let mut export = None;
    let mut args = std::env::args().skip(1);
    let next = |args: &mut dyn Iterator<Item = String>, flag: &str| -> String {
        args.next()
            .unwrap_or_else(|| panic!("{flag} needs a value\nusage: {USAGE}"))
    };
    while let Some(a) = args.next() {
        match a.as_str() {
            "--workload" => {
                let v = next(&mut args, "--workload");
                spec.workload = tracecap::parse_workload(&v)
                    .unwrap_or_else(|| panic!("unknown workload `{v}` (ATF, BFS, …, SVM)"));
            }
            "--size" => {
                let v = next(&mut args, "--size");
                spec.size = tracecap::parse_size(&v)
                    .unwrap_or_else(|| panic!("unknown size `{v}` (small|medium|large)"));
            }
            "--policy" => {
                let v = next(&mut args, "--policy");
                spec.policy = tracecap::parse_policy(&v).unwrap_or_else(|| {
                    panic!("unknown policy `{v}` (host-only|pim-only|locality-aware|locality-aware-balanced)")
                });
            }
            "--scale" => {
                let v = next(&mut args, "--scale");
                spec.scale =
                    Scale::parse(&v).unwrap_or_else(|| panic!("unknown scale `{v}` (quick|full)"));
            }
            "--paper" => spec.paper_machine = true,
            "--seed" => {
                spec.seed = next(&mut args, "--seed")
                    .parse()
                    .expect("seed must be an integer");
            }
            "--budget" => {
                spec.pei_budget = Some(
                    next(&mut args, "--budget")
                        .parse()
                        .expect("budget must be an integer"),
                );
            }
            "-o" | "--out" => out = Some(next(&mut args, "-o")),
            "--perfetto" => perfetto = Some(next(&mut args, "--perfetto")),
            "--replay" => replay = Some(next(&mut args, "--replay")),
            "--export" => export = Some(next(&mut args, "--export")),
            other => panic!("unknown argument `{other}`\nusage: {USAGE}"),
        }
    }
    Args {
        spec,
        out,
        perfetto,
        replay,
        export,
    }
}

fn load(path: &str) -> Trace {
    Trace::load(std::path::Path::new(path))
        .unwrap_or_else(|e| panic!("cannot load trace {path}: {e}"))
}

fn main() {
    let args = parse_args();

    if let Some(path) = &args.replay {
        let t = load(path);
        let r = tracecap::replay(&t).unwrap_or_else(|e| panic!("cannot replay {path}: {e}"));
        println!("replayed {}: {} records", r.spec, t.records.len());
        if let Some(d) = &r.divergence {
            println!("event stream DIVERGED: {d}");
        } else {
            println!("event stream identical");
        }
        println!(
            "statistics report {}",
            if r.stats_match {
                "byte-identical"
            } else {
                "DIVERGED"
            }
        );
        if !r.identical() {
            std::process::exit(1);
        }
        return;
    }

    if let Some(path) = &args.export {
        let json_path = args
            .perfetto
            .as_deref()
            .unwrap_or_else(|| panic!("--export needs --perfetto <out.json>\nusage: {USAGE}"));
        let t = load(path);
        let json = perfetto::chrome_trace_json(&t);
        std::fs::write(json_path, json).unwrap_or_else(|e| panic!("cannot write {json_path}: {e}"));
        println!("exported {} records to {json_path}", t.records.len());
        return;
    }

    let out = args
        .out
        .as_deref()
        .unwrap_or_else(|| panic!("capture mode needs -o <out.petr>\nusage: {USAGE}"));
    let (result, trace) = args.spec.capture();
    std::fs::write(out, trace.to_bytes()).unwrap_or_else(|e| panic!("cannot write {out}: {e}"));
    println!(
        "captured {}: {} records ({} dropped), {} cycles, wrote {out}",
        args.spec,
        trace.records.len(),
        trace.dropped,
        result.cycles
    );
    if let Some(json_path) = &args.perfetto {
        let json = perfetto::chrome_trace_json(&trace);
        std::fs::write(json_path, json).unwrap_or_else(|e| panic!("cannot write {json_path}: {e}"));
        println!("exported Perfetto JSON to {json_path}");
    }
}
