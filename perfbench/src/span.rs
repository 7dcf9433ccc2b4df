//! In-memory spans around the calls the benchmark makes into each layer.
//!
//! Every thread keeps its own log; a span records its name, start, end,
//! the span open around it when it began (its parent) and the id of the
//! cell or job it belongs to. Recording is off until [`set_enabled`]
//! turns it on, so the untraced runs pay one thread-local read per call.
//! A layer's self time is its spans' durations minus the part covered by
//! their child spans (`cells::layer_sample`).

use std::cell::RefCell;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: Option<usize>,
    pub start: Duration,
    pub end: Duration,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }
}

#[derive(Default)]
struct Log {
    on: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

thread_local! {
    static LOG: RefCell<Log> = RefCell::new(Log::default());
}

fn origin() -> Instant {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    *ORIGIN.get_or_init(Instant::now)
}

/// Turns recording on or off for the calling thread.
pub fn set_enabled(on: bool) {
    origin();
    LOG.with(|l| l.borrow_mut().on = on);
}

/// Opens a span; returns its index, or `None` when recording is off.
pub fn enter(name: &'static str, id: u64) -> Option<usize> {
    LOG.with(|l| {
        let mut l = l.borrow_mut();
        if !l.on {
            return None;
        }
        let at = origin().elapsed();
        let parent = l.open.last().copied();
        let idx = l.spans.len();
        l.spans.push(Span {
            name,
            id,
            parent,
            start: at,
            end: at,
        });
        l.open.push(idx);
        Some(idx)
    })
}

/// Closes the span [`enter`] opened.
pub fn exit(idx: Option<usize>) {
    let Some(idx) = idx else { return };
    let at = origin().elapsed();
    LOG.with(|l| {
        let mut l = l.borrow_mut();
        l.spans[idx].end = at;
        let top = l.open.pop();
        debug_assert_eq!(top, Some(idx), "spans close in reverse order");
    });
}

/// Runs `f` inside a span.
pub fn time<T>(name: &'static str, id: u64, f: impl FnOnce() -> T) -> T {
    let s = enter(name, id);
    let out = f();
    exit(s);
    out
}

/// Takes the calling thread's finished spans, leaving its log empty.
pub fn take() -> Vec<Span> {
    LOG.with(|l| {
        let mut l = l.borrow_mut();
        assert!(l.open.is_empty(), "spans taken while one is open");
        std::mem::take(&mut l.spans)
    })
}

/// Writes spans as tab-separated lines: name, id, parent, start and end
/// in microseconds from the process's first span.
pub fn write_tsv(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    use std::fmt::Write as _;
    let mut text = String::from("name\tid\tparent\tstart_us\tend_us\n");
    for s in spans {
        let parent = s.parent.map_or(String::from("-"), |p| p.to_string());
        let _ = writeln!(
            text,
            "{}\t{}\t{}\t{}\t{}",
            s.name,
            s.id,
            parent,
            s.start.as_micros(),
            s.end.as_micros()
        );
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, text)
}
