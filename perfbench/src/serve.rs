//! The `serve-open` workload: an in-process `pei-serve` daemon driven by
//! one client connection with an open-loop Poisson schedule.

use crate::cells::{append_spans, count_metrics, finish_trace, layer_sample, run_spanned};
use crate::cells::{spec_key, LayerCounts, LayerSamples, UnitTimes};
use crate::host::{cpu_time, mix, quantile};
use crate::span;
use crate::{setup_samples, Args, CellOut, Gate, Report, WARMUP_SEED};
use pei_bench::service::resolve_recipe;
use pei_serve::{Daemon, ServeConfig};
use pei_types::wire::{Recipe, Request, Response, StatsFrame};
use pei_workloads::{cache, Workload};
use std::collections::HashMap;
use std::io::{BufReader, Read, Write};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::time::{Duration, Instant};

/// A job whose terminal frame arrives later than this after its due
/// time, in reference-host milliseconds, missed its latency limit
/// (refused and failed jobs always miss). It sits about 1.5 times above
/// the highest 90th percentile of runs of identical code (110–210 ms),
/// so goodput falls once the tail grows past it.
pub const JOB_LIMIT_MS: f64 = 300.0;
/// Arrival rate of the open-loop schedule, jobs per second.
const RATE_PER_S: f64 = 6.0;
const WORKERS: usize = 2;
/// Daemon set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// Sessions per run, each one measured unit. Their schedules fill four
/// fifths of `--seconds`, leaving the rest for each session to drain and
/// for the calibration shots between sessions.
const SESSIONS: usize = 4;
/// A run whose generator sent its submissions later than this (90th
/// percentile) past their due times measured the generator, not the
/// daemon: it is marked invalid.
const GEN_LAG_LIMIT_MS: f64 = 25.0;
/// How long the client waits for any frame before giving up.
const FRAME_TIMEOUT: Duration = Duration::from_secs(60);

const POLICIES: [&str; 4] = ["host", "pim", "la", "lab"];

/// Input sets whose (workload, size, seed) repeat across policy
/// siblings, so they hit the resident graph cache and share fork keys:
/// a small one and a medium one (about 20 and 170 ms of service on a
/// 2-vCPU Xeon host).
const SMALL_SIBLING: (&str, &str) = ("atf", "small");
const MEDIUM_SIBLING: (&str, &str) = ("atf", "medium");

/// The graph input submitted with a fresh seed each time: every such
/// job pays cold input generation and a fork-cache miss (about 35 ms
/// end to end on the same host). ATF's cost barely varies with the graph seed;
/// BFS would not do: it runs 25–300 ms depending on the source
/// vertex's component, which makes the latency tail a draw of the seed.
const FRESH: (&str, &str) = ("atf", "small");

struct Planned {
    recipe: Recipe,
    tenant: &'static str,
    due: Duration,
}

fn recipe(workload: &str, size: &str, policy: &str, seed: u64, check: bool) -> Recipe {
    let mut r = Recipe::new(workload, size, policy);
    r.seed = seed;
    r.check = check;
    r
}

/// One session's jobs: a fixed mix in a seeded order, due at the
/// arrival times of a Poisson process conditioned on the job count
/// (sorted uniform times over `seconds`). Per ten arrivals: two small
/// siblings and one checked small sibling (the fastest class, 30 %),
/// five fresh-seed jobs (50 %) and two medium siblings (the slowest,
/// 20 %). The median then falls inside the fresh class and the 90th
/// percentile inside the medium one, not on the edge between two
/// classes, where a percentile jumps from run to run. Siblings use
/// `sibling_seed`, shared by every session of a run; fresh jobs draw
/// their seeds from `seed`, which differs per session.
fn plan(seed: u64, sibling_seed: u64, seconds: f64) -> Vec<Planned> {
    let n = ((RATE_PER_S * seconds).round() as usize).max(10);
    let sibling = |(w, size): (&str, &str), j: usize, check: bool| {
        recipe(w, size, POLICIES[j % POLICIES.len()], sibling_seed, check)
    };
    let mut jobs: Vec<(Recipe, &'static str)> = (0..n)
        .map(|k| {
            let (round, slot) = (k / 10, k % 10);
            match slot {
                0..=4 => {
                    let (w, size) = FRESH;
                    (
                        recipe(w, size, "la", mix(seed, 3000 + k as u64), false),
                        "explore",
                    )
                }
                5 | 6 => (sibling(SMALL_SIBLING, round * 2 + slot - 5, false), "sweep"),
                7 => (sibling(SMALL_SIBLING, round, true), "audit"),
                _ => (
                    sibling(MEDIUM_SIBLING, round * 2 + slot - 8, false),
                    "sweep",
                ),
            }
        })
        .collect();
    let mut state = mix(seed, 4000);
    let mut next = || {
        state = mix(state, 1);
        state
    };
    // Shuffle within each block of ten consecutive arrivals, so every
    // block carries the same mix: medium jobs then collide by the
    // arrival times alone, not also by where a whole-session shuffle
    // happened to bunch them.
    for block in jobs.chunks_mut(10) {
        for i in (1..block.len()).rev() {
            block.swap(i, (next() % (i as u64 + 1)) as usize);
        }
    }
    let mut dues: Vec<f64> = (0..n)
        .map(|_| (next() >> 11) as f64 / (1u64 << 53) as f64 * seconds)
        .collect();
    dues.sort_by(f64::total_cmp);
    jobs.into_iter()
        .zip(dues)
        .map(|((recipe, tenant), due)| Planned {
            recipe,
            tenant,
            due: Duration::from_secs_f64(due),
        })
        .collect()
}

/// The daemon's request side: bytes the client sends, read as a stream.
struct ChanReader {
    rx: Receiver<Vec<u8>>,
    buf: Vec<u8>,
    pos: usize,
}

impl Read for ChanReader {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        if self.pos == self.buf.len() {
            match self.rx.recv() {
                Ok(b) => (self.buf, self.pos) = (b, 0),
                Err(_) => return Ok(0),
            }
        }
        let n = (self.buf.len() - self.pos).min(out.len());
        out[..n].copy_from_slice(&self.buf[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// The daemon's response side: every write goes to the client.
struct ChanWriter(Sender<Vec<u8>>);

impl Write for ChanWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0
            .send(buf.to_vec())
            .map_err(|_| std::io::Error::from(std::io::ErrorKind::BrokenPipe))?;
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// What the client saw of one session.
struct Session {
    /// Per submission: when it was sent.
    sent: Vec<Instant>,
    /// Per submission: when its ack (or refusal) arrived.
    acked: Vec<Option<Instant>>,
    /// Per submission: its terminal frame and when it arrived.
    terminal: Vec<Option<(Instant, Response)>>,
    encode_us: Vec<f64>,
    decode_us: Vec<f64>,
    depth_samples: Vec<f64>,
    /// Codec spans (`wire.encode` on the sending side, `wire.decode` on
    /// the receiving side) when traced.
    spans: Vec<span::Span>,
    start: Instant,
    end: Instant,
    error: Option<String>,
}

/// Reads frames until every submission has its terminal frame, mapping
/// acks and refusals to submissions in order and terminal frames by job
/// id. Returns the frames with their arrival times, and decode times.
fn read_frames(
    rx: Receiver<Vec<u8>>,
    expected: usize,
) -> (Vec<(Instant, Response)>, Vec<f64>, Option<String>) {
    let mut frames = Vec::new();
    let mut decode_us = Vec::new();
    let mut pending: Vec<u8> = Vec::new();
    let mut terminals = 0;
    while terminals < expected {
        let chunk = match rx.recv_timeout(FRAME_TIMEOUT) {
            Ok(c) => c,
            Err(RecvTimeoutError::Timeout) => {
                return (frames, decode_us, Some("no frame for 60 s".into()))
            }
            Err(RecvTimeoutError::Disconnected) => {
                return (frames, decode_us, Some("daemon closed the session".into()))
            }
        };
        let at = Instant::now();
        pending.extend_from_slice(&chunk);
        while let Some(nl) = pending.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = pending.drain(..=nl).collect();
            let text = String::from_utf8_lossy(&line[..nl]);
            let t = Instant::now();
            let decoded = span::time("wire.decode", 0, || Response::decode(&text));
            let us = t.elapsed().as_secs_f64() * 1e6;
            match decoded {
                Ok(r) => {
                    // Result frames carry the statistics text and dominate
                    // decoding; acks and progress frames are a few bytes.
                    if matches!(r, Response::Result(_)) {
                        decode_us.push(us);
                    }
                    if matches!(
                        r,
                        Response::Result(_) | Response::Cancelled { .. } | Response::Error { .. }
                    ) {
                        terminals += 1;
                    }
                    frames.push((at, r));
                }
                Err(e) => return (frames, decode_us, Some(format!("undecodable frame: {e}"))),
            }
        }
    }
    (frames, decode_us, None)
}

/// Runs one client session against `daemon`: submits each planned job
/// at its due time, waits for every terminal frame, then closes.
fn run_session(daemon: &Daemon, jobs: &[Planned], trace: bool) -> Session {
    let (req_tx, req_rx) = channel::<Vec<u8>>();
    let (resp_tx, resp_rx) = channel::<Vec<u8>>();
    let (stop_tx, stop_rx) = channel::<()>();
    let n = jobs.len();
    std::thread::scope(|s| {
        let server = s.spawn(|| {
            let reader = ChanReader {
                rx: req_rx,
                buf: Vec::new(),
                pos: 0,
            };
            daemon.serve(BufReader::new(reader), ChanWriter(resp_tx));
        });
        let reader = s.spawn(move || {
            span::set_enabled(trace);
            let out = read_frames(resp_rx, n);
            span::set_enabled(false);
            (out, span::take())
        });
        let sampler = s.spawn(move || {
            let mut depth = Vec::new();
            // Sample every 50 ms until the client hangs up `stop`.
            while let Err(RecvTimeoutError::Timeout) =
                stop_rx.recv_timeout(Duration::from_millis(50))
            {
                depth.push(daemon.stats().queue_depth as f64);
            }
            depth
        });
        span::set_enabled(trace);
        let start = Instant::now() + Duration::from_millis(5);
        let mut sent = Vec::with_capacity(n);
        let mut encode_us = Vec::with_capacity(n);
        for job in jobs {
            let due = start + job.due;
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let t = Instant::now();
            let req = Request::Submit {
                recipe: job.recipe.clone(),
                trace: None,
                tenant: Some(job.tenant.to_owned()),
                priority: Default::default(),
                deadline_ms: None,
            };
            let mut line = span::time("wire.encode", 0, || req.encode());
            encode_us.push(t.elapsed().as_secs_f64() * 1e6);
            line.push('\n');
            sent.push(Instant::now());
            if req_tx.send(line.into_bytes()).is_err() {
                break;
            }
        }
        span::set_enabled(false);
        let mut spans = span::take();
        let ((frames, decode_us, error), reader_spans) =
            reader.join().expect("the frame reader does not panic");
        crate::cells::append_spans(&mut spans, reader_spans);
        let end = frames.last().map_or_else(Instant::now, |f| f.0);
        drop(stop_tx);
        drop(req_tx);
        server.join().expect("the daemon session does not panic");
        let depth_samples = sampler.join().expect("the depth sampler does not panic");
        let mut acked = vec![None; n];
        let mut terminal: Vec<Option<(Instant, Response)>> = vec![None; n];
        let mut by_job = HashMap::new();
        let mut next_ack = 0;
        for (at, frame) in frames {
            match frame {
                Response::Ack { job } => {
                    if next_ack < n {
                        acked[next_ack] = Some(at);
                        by_job.insert(job, next_ack);
                    }
                    next_ack += 1;
                }
                Response::Error { job: None, .. } => {
                    if next_ack < n {
                        acked[next_ack] = Some(at);
                        terminal[next_ack] = Some((at, frame));
                    }
                    next_ack += 1;
                }
                Response::Result(ref r) => {
                    if let Some(&k) = by_job.get(&r.job) {
                        terminal[k] = Some((at, frame));
                    }
                }
                Response::Cancelled { job, .. } | Response::Error { job: Some(job), .. } => {
                    if let Some(&k) = by_job.get(&job) {
                        terminal[k] = Some((at, frame));
                    }
                }
                _ => {}
            }
        }
        Session {
            sent,
            acked,
            terminal,
            encode_us,
            decode_us,
            depth_samples,
            spans,
            start,
            end,
            error,
        }
    })
}

/// The set-up of `serve-open`: `Daemon::start` and one warm-up job
/// (the in-process workloads' warm-up cell, ATF medium at a fixed seed)
/// through its own session.
fn start_daemon() -> Daemon {
    let daemon = Daemon::start(ServeConfig {
        workers: WORKERS,
        ..ServeConfig::default()
    });
    let warm = Planned {
        recipe: recipe("atf", "medium", "la", WARMUP_SEED, false),
        tenant: "warmup",
        due: Duration::ZERO,
    };
    let s = run_session(&daemon, &[warm], false);
    assert!(
        matches!(s.terminal[0], Some((_, Response::Result(_)))),
        "warm-up job completes: {:?}",
        s.terminal[0]
    );
    daemon
}

fn busy_ms(st: &StatsFrame) -> f64 {
    st.workers.iter().map(|w| w.busy_ms as f64).sum()
}

/// What the client measured of one session, beside its frames.
struct Measured {
    jobs: Vec<Planned>,
    session: Session,
    cpu_s: f64,
}

/// `serve-open`: see `perfbench/DESIGN.md`. One unit is one session on
/// the same warm daemon.
pub fn serve_open(args: &Args, gate: &mut Gate) -> Report {
    let mut report = Report::default();
    let mut daemon = None;
    let setup = setup_samples(SETUP_REPEATS, || {
        drop(daemon.take());
        daemon = Some(start_daemon());
    });
    let daemon = daemon.expect("set-up started a daemon");
    let session_s = args.seconds / (SESSIONS + 1) as f64;
    let sibling_seed = mix(args.seed, 2000);

    let graphs_before = cache::len();
    let st0 = daemon.stats();
    let mut runs: Vec<Measured> = Vec::new();
    report.calib.after_unit(0.0);
    for i in 0..SESSIONS {
        let t0 = Instant::now();
        let jobs = plan(mix(args.seed, 5000 + i as u64), sibling_seed, session_s);
        let c0 = cpu_time();
        let session = run_session(&daemon, &jobs, args.trace);
        let cpu_s = (cpu_time() - c0).as_secs_f64();
        runs.push(Measured {
            jobs,
            session,
            cpu_s,
        });
        report.calib.after_unit(t0.elapsed().as_secs_f64());
    }
    let st1 = daemon.stats();
    let graph_misses = (cache::len() - graphs_before) as u64;
    drop(daemon);
    report.one("peak_rss_mb", "MiB", crate::host::peak_rss_mb());

    // Reference runs, outside the timed window: each distinct recipe
    // once through `RunSpec::run`, in first-use order.
    let mut distinct: Vec<(Recipe, u64)> = Vec::new();
    for j in runs.iter().flat_map(|m| &m.jobs) {
        match distinct.iter_mut().find(|(r, _)| *r == j.recipe) {
            Some((_, count)) => *count += 1,
            None => distinct.push((j.recipe.clone(), 1)),
        }
    }
    cache::clear();
    let replay_t0 = Instant::now();
    let reference: Vec<Option<String>> = distinct
        .iter()
        .map(|(r, _)| {
            let spec = resolve_recipe(r).ok()?;
            Some(spec.run().stats.to_string())
        })
        .collect();
    let plain_replay_s = replay_t0.elapsed().as_secs_f64();

    let mut times = UnitTimes::default();
    let mut out = CellOut::default();
    let mut refused = 0u64;
    let mut graph_jobs = 0u64;
    for (i, m) in runs.iter().enumerate() {
        let session = &m.session;
        if let Some(e) = &session.error {
            gate.fail(format!("session: {e}"));
        }
        let mut latency_ms = Vec::new();
        let mut cycles = 0u64;
        for (k, job) in m.jobs.iter().enumerate() {
            report.attempted += 1;
            let spec = resolve_recipe(&job.recipe).expect("planned recipes resolve");
            let key = spec_key(&spec);
            let due = session.start + job.due;
            let ok = match &session.terminal[k] {
                Some((at, Response::Result(frame))) => {
                    let cell = CellOut::from_stats_text(&frame.stats, frame.cycles);
                    let idx = distinct.iter().position(|(r, _)| *r == job.recipe);
                    let same =
                        idx.and_then(|i| reference[i].as_deref()) == Some(frame.stats.as_str());
                    if !same {
                        gate.fail(format!("{key}: daemon stats differ from RunSpec::run"));
                    }
                    let ok = gate.check(&key, true, &cell) && same;
                    if ok {
                        out.add(&cell);
                        cycles += cell.cycles;
                        latency_ms.push(at.saturating_duration_since(due).as_secs_f64() * 1e3);
                    }
                    ok
                }
                Some((
                    _,
                    Response::Error {
                        job: None, kind, ..
                    },
                )) => {
                    refused += 1;
                    gate.fail(format!("{key}: refused ({kind})"));
                    false
                }
                other => {
                    let what = other
                        .as_ref()
                        .map_or("no terminal frame".to_owned(), |f| format!("{:?}", f.1));
                    gate.fail(format!(
                        "{key}: {}",
                        what.chars().take(200).collect::<String>()
                    ));
                    false
                }
            };
            report.failed += u64::from(!ok);
            if let Some(w) = pei_bench::tracecap::parse_workload(&job.recipe.workload) {
                graph_jobs += u64::from(Workload::GRAPH.contains(&w));
            }
        }
        times.unit.push(i);
        times.wall_s.push((session.end - session.start).as_secs_f64());
        times.cpu_s.push(m.cpu_s);
        times.cycles.push(cycles as f64);
        times.job_ms.push(latency_ms);
    }

    let gen_lag: Vec<f64> = runs
        .iter()
        .flat_map(|m| {
            m.jobs.iter().zip(&m.session.sent).map(|(j, &sent)| {
                sent.saturating_duration_since(m.session.start + j.due)
                    .as_secs_f64()
                    * 1e3
            })
        })
        .collect();
    let gen_lag_p90 = quantile(&gen_lag, 0.9);
    if gen_lag_p90 > GEN_LAG_LIMIT_MS {
        report.invalid.push(format!(
            "the generator ran {gen_lag_p90:.1} ms late (p90), over the {GEN_LAG_LIMIT_MS} ms limit"
        ));
    }
    let jobs: usize = runs.iter().map(|m| m.jobs.len()).sum();
    let completed: usize = times.job_ms.iter().map(Vec::len).sum();
    let session_wall_s: f64 = times.wall_s.iter().sum();
    times.into_report(&mut report, setup, JOB_LIMIT_MS, true);
    println!(
        "serve: sessions={} jobs={jobs} completed={completed} refused={refused} rate={RATE_PER_S}/s limit={JOB_LIMIT_MS}ms",
        runs.len()
    );

    if args.trace {
        // Layer split of the same jobs: each distinct recipe once more
        // through the spanned path, weighted by how often it ran.
        cache::clear();
        span::set_enabled(true);
        let mut counts = LayerCounts::default();
        let mut weights = Vec::new();
        let replay_t0 = Instant::now();
        for (i, (r, count)) in distinct.iter().enumerate() {
            let before = counts.phases;
            let spec = resolve_recipe(r).expect("planned recipes resolve");
            let res = run_spanned(&spec, i as u64, &mut counts);
            counts.phases = before + (counts.phases - before) * count;
            report.attempted += 1;
            report.failed += u64::from(!crate::cells::gate_result(gate, &spec, &res).0);
            weights.push(*count as f64);
        }
        let spanned_replay_s = replay_t0.elapsed().as_secs_f64();
        span::set_enabled(false);
        let spans = span::take();
        counts.graph_misses = graph_misses;
        counts.graph_hits = graph_jobs.saturating_sub(graph_misses);
        let mut layers = LayerSamples::default();
        layers.push(layer_sample(
            &spans,
            |id| weights[id as usize],
            &counts,
            &out,
        ));
        let mut all = Vec::new();
        for m in &mut runs {
            append_spans(&mut all, std::mem::take(&mut m.session.spans));
        }
        append_spans(&mut all, spans);
        finish_trace(&mut report, args, layers, &all);

        let ack_ms: Vec<f64> = runs
            .iter()
            .flat_map(|m| m.session.sent.iter().zip(&m.session.acked))
            .filter_map(|(s, a)| {
                Some(a.as_ref()?.saturating_duration_since(*s).as_secs_f64() * 1e3)
            })
            .collect();
        let tenants: Vec<_> = st1
            .tenants
            .iter()
            .filter(|t| t.tenant != "warmup")
            .collect();
        let weighted = |f: &dyn Fn(&pei_types::wire::TenantStat) -> u64| {
            let total: u64 = tenants.iter().map(|t| t.submitted).sum();
            tenants
                .iter()
                .map(|t| f(t) as f64 * t.submitted as f64)
                .sum::<f64>()
                / total.max(1) as f64
        };
        let mean = |s: &[f64]| s.iter().sum::<f64>() / s.len().max(1) as f64;
        let trend: Vec<f64> = runs
            .iter()
            .map(|m| {
                let d = &m.session.depth_samples;
                let third = d.len() / 3;
                mean(&d[d.len() - third..]) - mean(&d[..third])
            })
            .collect();
        let pooled = |f: fn(&Session) -> &Vec<f64>| -> Vec<f64> {
            runs.iter().flat_map(|m| f(&m.session).iter().copied()).collect()
        };
        let busy = busy_ms(&st1) - busy_ms(&st0);
        report.one("serve.ack_ms_p50", "ms", quantile(&ack_ms, 0.5));
        report.one(
            "serve.queue_wait_ms_p50",
            "ms",
            weighted(&|t| t.wait_p50_ms),
        );
        report.one(
            "serve.queue_wait_ms_p95",
            "ms",
            weighted(&|t| t.wait_p95_ms),
        );
        report.one(
            "serve.queue_high_water",
            "count",
            st1.queue_high_water as f64,
        );
        report.samples("serve.backlog_trend", "count", trend);
        report.one("serve.gen_lag_ms_p90", "ms", gen_lag_p90);
        report.one("serve.worker_busy_ms", "ms", busy);
        report.one(
            "serve.worker_util",
            "ratio",
            busy / (WORKERS as f64 * session_wall_s * 1e3),
        );
        report.one(
            "serve.service_ms_mean",
            "ms",
            busy / (completed.max(1) as f64),
        );
        report.one("serve.jobs", "count", jobs as f64);
        report.one("serve.refused", "count", refused as f64);
        let encode_us = pooled(|s| &s.encode_us);
        let decode_us = pooled(|s| &s.decode_us);
        report.one("wire.encode_us", "us", quantile(&encode_us, 0.5));
        report.one("wire.decode_us", "us", quantile(&decode_us, 0.5));
        report.one("wire.frames", "count", decode_us.len() as f64);
        let f0 = &st0.fork_cache;
        let f1 = &st1.fork_cache;
        report.one("bench.fork_hits", "count", (f1.hits - f0.hits) as f64);
        report.one("bench.fork_misses", "count", (f1.misses - f0.misses) as f64);
        report.one(
            "bench.fork_bypasses",
            "count",
            (f1.bypasses - f0.bypasses) as f64,
        );
        report.one(
            "bench.tracing_overhead_ms",
            "ms",
            (spanned_replay_s - plain_replay_s) * 1e3,
        );
        report.one("bench.runner_overhead_ms", "ms", 0.0);
    }
    count_metrics(&mut report, &out);
    report.one("bench.units", "count", runs.len() as f64);
    report
}
