//! Process clocks, peak memory, the host stamp, and order statistics.

use std::time::{Duration, Instant};

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID`: user + system time of all threads.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time (user + system, all threads) this process has used.
pub fn cpu_time() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark builds for), and
    // the clock id is a constant the kernel always accepts.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// One line naming the host and the code measured: CPU count and
/// model, the git revision when the checkout is a repository, and a
/// digest of the simulator's sources that identifies the code either
/// way.
pub fn stamp() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map_or("unknown", |v| v.trim_start_matches([' ', '\t', ':']).trim());
    // Only a checkout that is itself a repository has a revision; git
    // is not asked to search the directories above it.
    let rev = std::path::Path::new(".git")
        .exists()
        .then(|| {
            std::process::Command::new("git")
                .args(["rev-parse", "--short=12", "HEAD"])
                .stderr(std::process::Stdio::null())
                .output()
                .ok()
        })
        .flatten()
        .filter(|o| o.status.success())
        .map_or_else(
            || "none".to_owned(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_owned(),
        );
    format!(
        "host: nproc={nproc} cpu=\"{model}\" git={rev} sources={:016x}",
        source_digest()
    )
}

/// FNV-1a over the paths and bytes of the simulator's sources (the
/// root manifest and lock file, `src/` and `crates/`), in path order.
fn source_digest() -> u64 {
    fn walk(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else {
                out.push(p);
            }
        }
    }
    let mut files = vec!["Cargo.toml".into(), "Cargo.lock".into()];
    walk("src".as_ref(), &mut files);
    walk("crates".as_ref(), &mut files);
    files.sort();
    let mut h = Fnv::new();
    for f in files {
        if let Ok(bytes) = std::fs::read(&f) {
            h.write(f.to_string_lossy().as_bytes());
            h.write(&bytes);
        }
    }
    h.0
}

/// Milliseconds one calibration shot takes on the reference host (about
/// the 2-vCPU Xeon of `perfbench/DESIGN.md` in a quiet state). End-to-end
/// times are reported as reference-host times: scaled by this over the
/// median of the shots around them.
pub const CALIB_REF_MS: f64 = 100.0;

/// Share of each unit's wall time spent on calibration shots after it.
const CALIB_SHARE: f64 = 0.08;

/// The calibration kernel, timed in milliseconds: a fixed job that
/// shares no code with the simulator but allocates and scatters the way
/// its input generation does: 1 000 000 random edges pushed onto 200 000
/// adjacency lists, each list sorted, then 200 000 random keys put in an
/// ordered map. It does the same work on every host, so it drifts with
/// the host's speed and not with the repository.
pub fn calib_kernel_ms() -> f64 {
    let t0 = Instant::now();
    let mut s = 0x1234_5678u64;
    let vertices = 200_000;
    let mut adj: Vec<Vec<u32>> = vec![Vec::new(); vertices];
    for _ in 0..1_000_000 {
        s = mix(s, 3);
        adj[s as usize % vertices].push((s >> 32) as u32);
    }
    for list in &mut adj {
        list.sort_unstable();
    }
    let mut map = std::collections::BTreeMap::new();
    for i in 0..200_000u64 {
        s = mix(s, i);
        map.insert(s, i);
    }
    std::hint::black_box((adj.len(), map.len()));
    t0.elapsed().as_secs_f64() * 1e3
}

/// One calibration shot: the kernel run in a fresh child process (this
/// binary with `CALIB_FLAG`), so its timing depends on the host and not
/// on the heap the measured work left behind in this process.
pub fn calib_shot_ms() -> f64 {
    let exe = std::env::current_exe().expect("the benchmark finds its own binary");
    let out = std::process::Command::new(exe)
        .arg(CALIB_FLAG)
        .output()
        .expect("the calibration child runs");
    assert!(out.status.success(), "the calibration child succeeds");
    String::from_utf8_lossy(&out.stdout)
        .trim()
        .parse()
        .expect("the calibration child prints its time")
}

/// The flag that makes this binary time the kernel once and exit.
pub const CALIB_FLAG: &str = "--calib-shot";

/// The calibration shots of one run, taken between its measured units so
/// each unit is scaled by the host's speed around it. A shared virtual
/// host can change speed by up to 2x within minutes as other tenants
/// load its memory system; the same slowdown stretches the shots, so
/// dividing by them takes much of it out of the end-to-end times
/// (`perfbench/DESIGN.md` gives the measured effect).
#[derive(Default)]
pub struct Calib {
    /// Shots per gap: gap `i` comes right before unit `i`.
    gaps: Vec<Vec<f64>>,
}

impl Calib {
    /// Takes shots for about `CALIB_SHARE` of a unit that took `unit_s`
    /// seconds, and at least two.
    pub fn after_unit(&mut self, unit_s: f64) {
        let mut shots = Vec::new();
        while shots.len() < 2 || shots.iter().sum::<f64>() < CALIB_SHARE * unit_s * 1e3 {
            shots.push(calib_shot_ms());
        }
        self.gaps.push(shots);
    }

    fn all(&self) -> Vec<f64> {
        self.gaps.concat()
    }

    pub fn median_ms(&self) -> f64 {
        median(&self.all())
    }

    pub fn shots(&self) -> usize {
        self.all().len()
    }

    /// Reference-host seconds per second measured in unit `i`, from the
    /// shots on either side of it: multiply a time by it, divide a rate
    /// by it. The shots taken before the first unit (gap 0) also scale
    /// the set-up, which ran just before them.
    pub fn factor(&self, i: usize) -> f64 {
        let near = self.gaps[i..(i + 2).min(self.gaps.len())].concat();
        CALIB_REF_MS / median(&near)
    }
}

/// 64-bit FNV-1a.
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// FNV-1a of `text`, cut to 48 bits so it survives a JSON number.
pub fn digest48(text: &str) -> u64 {
    let mut h = Fnv::new();
    h.write(text.as_bytes());
    h.0 & ((1 << 48) - 1)
}

/// The `q`-quantile (0..=1) by linear interpolation between order
/// statistics; NaN for no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// SplitMix64: derives independent sub-seeds from the benchmark seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
