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
use pei_bench::{flag_number, flag_value, parse_args_or_exit, Scale};
use pei_core::DispatchPolicy;
use pei_trace::{perfetto, Trace};

const USAGE: &str = "--workload <W> --size <S> --policy <P> \
     [--scale quick|full] [--paper] [--seed <n>] [--budget <n>] -o <out.petr> \
     [--perfetto <out.json>] | --replay <in.petr> | --export <in.petr> --perfetto <out.json>";

struct Args {
    spec: CaptureSpec,
    out: Option<String>,
    perfetto: Option<String>,
    replay: Option<String>,
    export: Option<String>,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
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
    let mut args = args.into_iter();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--workload" => {
                let v = flag_value(&mut args, "--workload")?;
                spec.workload = tracecap::parse_workload(&v)
                    .ok_or(format!("unknown workload `{v}` (ATF, BFS, …, SVM)"))?;
            }
            "--size" => {
                let v = flag_value(&mut args, "--size")?;
                spec.size = tracecap::parse_size(&v)
                    .ok_or(format!("unknown size `{v}` (small|medium|large)"))?;
            }
            "--policy" => {
                let v = flag_value(&mut args, "--policy")?;
                spec.policy = tracecap::parse_policy(&v).ok_or(format!(
                    "unknown policy `{v}` (host-only|pim-only|locality-aware|locality-aware-balanced)"
                ))?;
            }
            "--scale" => {
                let v = flag_value(&mut args, "--scale")?;
                spec.scale = Scale::parse(&v).ok_or(format!("unknown scale `{v}` (quick|full)"))?;
            }
            "--paper" => spec.paper_machine = true,
            "--seed" => spec.seed = flag_number(&mut args, "--seed")?,
            "--budget" => spec.pei_budget = Some(flag_number(&mut args, "--budget")?),
            "-o" | "--out" => out = Some(flag_value(&mut args, "-o")?),
            "--perfetto" => perfetto = Some(flag_value(&mut args, "--perfetto")?),
            "--replay" => replay = Some(flag_value(&mut args, "--replay")?),
            "--export" => export = Some(flag_value(&mut args, "--export")?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if export.is_some() && perfetto.is_none() {
        return Err("--export needs --perfetto <out.json>".to_owned());
    }
    if replay.is_none() && export.is_none() && out.is_none() {
        return Err("capture mode needs -o <out.petr>".to_owned());
    }
    Ok(Args {
        spec,
        out,
        perfetto,
        replay,
        export,
    })
}

fn load(path: &str) -> Trace {
    Trace::load(std::path::Path::new(path))
        .unwrap_or_else(|e| panic!("cannot load trace {path}: {e}"))
}

fn main() {
    let args = parse_args_or_exit(USAGE, parse_args);

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
        let json_path = args.perfetto.as_deref().expect("checked by parse_args");
        let t = load(path);
        let json = perfetto::chrome_trace_json(&t);
        std::fs::write(json_path, json).unwrap_or_else(|e| panic!("cannot write {json_path}: {e}"));
        println!("exported {} records to {json_path}", t.records.len());
        return;
    }

    let out = args.out.as_deref().expect("checked by parse_args");
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
