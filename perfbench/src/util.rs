//! Small shared pieces: quantiles, a stable hash, the in-memory span
//! log of the traced run, the no-hang watchdog, and peak memory.

use std::io::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Nearest-rank quantile of `samples` (`q` in `[0, 1]`); 0 when empty.
pub fn quantile(samples: &[u64], q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of a list of floats (mean of the middle pair for even sizes).
pub fn median_f64(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

pub fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

static EPOCH: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();

/// Microseconds since the process's first stamp: a four-byte time, so
/// per-request samples keep the benchmark's own memory small next to
/// the program's in `peak_rss_mb`.
pub fn stamp(t: Instant) -> u32 {
    let epoch = *EPOCH.get_or_init(Instant::now);
    t.saturating_duration_since(epoch)
        .as_micros()
        .min(u128::from(u32::MAX)) as u32
}

/// A duration in nanoseconds, saturating at about 4.3 s.
pub fn ns32(d: std::time::Duration) -> u32 {
    d.as_nanos().min(u128::from(u32::MAX)) as u32
}

/// FNV-1a, 64 bit: a hash that is the same on every run and platform,
/// unlike the standard library's randomly keyed `HashMap` hasher.
#[derive(Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

// ---------------------------------------------------------------------
// Spans of the traced run
// ---------------------------------------------------------------------

/// One timed call into a layer's public entry point, recorded by the
/// benchmark around the call (the program itself is not instrumented).
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub id: u32,
    /// The span that caused this one (0 for a root).
    pub parent: u32,
    /// Request id within the replayed stream; spans of one request share it.
    pub trace: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

static NEXT_SPAN: AtomicU32 = AtomicU32::new(1);

/// A per-thread span buffer; buffers are merged when their phase ends
/// and every span is written out once, when the run ends.
pub struct SpanLog {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(epoch: Instant) -> SpanLog {
        SpanLog {
            epoch,
            spans: Vec::new(),
        }
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u32,
        trace: u64,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let id = NEXT_SPAN.fetch_add(1, Ordering::Relaxed);
        self.spans.push(Span {
            id,
            parent,
            trace,
            name,
            start_ns: self.at(start),
            end_ns: self.at(end),
        });
        id
    }

    /// Reserves an id for a parent span recorded after its children.
    pub fn reserve(&self) -> u32 {
        NEXT_SPAN.fetch_add(1, Ordering::Relaxed)
    }

    pub fn record_as(
        &mut self,
        id: u32,
        name: &'static str,
        trace: u64,
        start: Instant,
        end: Instant,
    ) {
        self.spans.push(Span {
            id,
            parent: 0,
            trace,
            name,
            start_ns: self.at(start),
            end_ns: self.at(end),
        });
    }

    /// Durations (ns) of every span with this name.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ns)
            .collect()
    }

    /// Writes the first `per_name` spans of each name as one JSON line
    /// each; returns how many were written.
    pub fn write_jsonl(&self, path: &std::path::Path, per_name: usize) -> std::io::Result<usize> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let mut counts: std::collections::HashMap<&str, usize> = std::collections::HashMap::new();
        let mut written = 0;
        for s in &self.spans {
            let n = counts.entry(s.name).or_default();
            if *n == per_name {
                continue;
            }
            *n += 1;
            written += 1;
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"trace\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.trace, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()?;
        Ok(written)
    }
}

// ---------------------------------------------------------------------
// Watchdog
// ---------------------------------------------------------------------

static PROGRESS: AtomicU64 = AtomicU64::new(0);
static STAGE: Mutex<&str> = Mutex::new("start");

/// Names the layer the run is in now; the watchdog reports it on a stall.
pub fn stage(name: &'static str) {
    *STAGE.lock().unwrap_or_else(PoisonError::into_inner) = name;
    progress();
}

/// Marks forward progress (an answered request, a finished step).
pub fn progress() {
    PROGRESS.fetch_add(1, Ordering::Relaxed);
}

/// Exits the process with code 3 when no progress is made for `stall`
/// or the whole run exceeds `total`, naming the layer it stalled in, so
/// a hung stack never leaves the run without an outcome.
pub struct Watchdog {
    stop: &'static AtomicBool,
    handle: Option<JoinHandle<()>>,
}

impl Watchdog {
    pub fn start(stall: Duration, total: Duration) -> Watchdog {
        let stop: &'static AtomicBool = Box::leak(Box::new(AtomicBool::new(false)));
        let handle = std::thread::Builder::new()
            .name("perfbench-watchdog".into())
            .spawn(move || {
                let begin = Instant::now();
                let mut last = PROGRESS.load(Ordering::Relaxed);
                let mut last_change = Instant::now();
                while !stop.load(Ordering::Relaxed) {
                    std::thread::sleep(Duration::from_millis(100));
                    let now = PROGRESS.load(Ordering::Relaxed);
                    if now != last {
                        last = now;
                        last_change = Instant::now();
                    }
                    let stage = *STAGE.lock().unwrap_or_else(PoisonError::into_inner);
                    let why = if last_change.elapsed() > stall {
                        Some(format!("no progress for {:.0}s", stall.as_secs_f64()))
                    } else if begin.elapsed() > total {
                        Some(format!("run exceeded {:.0}s", total.as_secs_f64()))
                    } else {
                        None
                    };
                    if let Some(why) = why {
                        eprintln!("perfbench: stalled in layer `{stage}`: {why}; aborting");
                        std::process::exit(3);
                    }
                }
            })
            .expect("spawn watchdog thread");
        Watchdog {
            stop,
            handle: Some(handle),
        }
    }

    pub fn stop(mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            h.join().expect("watchdog thread panicked");
        }
    }
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
