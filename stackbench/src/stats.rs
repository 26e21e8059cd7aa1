//! Sample statistics, process measurements and the JSON writer the
//! benchmark's output lines are built with.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Arithmetic mean of `v` (NaN when empty).
pub fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len() as f64
}

/// Median of `v` (NaN when empty). Sorts a copy.
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` of `v` (NaN when empty).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// The cost of one unit of work measured in several repetitions spread
/// over the run: the fastest sample. Interference from other tenants of a
/// shared host (preemption, cache and core contention) only ever slows a
/// sample down, so the fastest sample is the steady estimate of what the
/// program itself costs.
pub fn undisturbed(v: &[f64]) -> f64 {
    quantile(v, 0.0)
}

/// Percentiles the tail metric may report, highest first.
const TAIL_LADDER: [f64; 7] = [99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0];

/// The highest ladder percentile with at least ten samples beyond it, and
/// the value there. Falls back to the maximum when even p75 has fewer than
/// ten samples beyond it.
pub fn tail(v: &[f64]) -> (f64, f64) {
    let n = v.len() as f64;
    for p in TAIL_LADDER {
        // n * (100 - p) / 100 >= 10, kept exact for whole-number n * (100 - p).
        if n * (100.0 - p) >= 1000.0 - 1e-6 {
            return (p, quantile(v, p / 100.0));
        }
    }
    (100.0, quantile(v, 1.0))
}

/// Summary of repeated samples of one metric.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(v: &[f64]) -> Self {
        Summary { median: median(v), q1: quantile(v, 0.25), q3: quantile(v, 0.75), n: v.len() }
    }

    /// `value` computed robustly from all samples, with the quartiles of
    /// the per-repetition values `reps` beside it.
    pub fn robust(value: f64, reps: &[f64]) -> Self {
        Summary { median: value, ..Summary::of(reps) }
    }

    /// A single exact value (deterministic counts and simulated QoE).
    pub fn exact(x: f64) -> Self {
        Summary::single(x, 1)
    }

    /// One value computed over `n` samples (a percentile of all of them).
    pub fn single(x: f64, n: usize) -> Self {
        Summary { median: x, q1: x, q3: x, n }
    }
}

/// A CPU set as `sched_{get,set}affinity` take it (`cpu_set_t`, 1024 bits).
#[cfg(target_os = "linux")]
type CpuSet = [u64; 16];

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// The CPUs this thread may run on (empty when unknown).
pub fn allowed_cpus() -> Vec<usize> {
    #[cfg(target_os = "linux")]
    {
        let mut set: CpuSet = [0; 16];
        // SAFETY: `set` is a live, writable `cpu_set_t` of the size passed,
        // and pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
        if rc == 0 {
            return (0..1024).filter(|&c| set[c / 64] >> (c % 64) & 1 == 1).collect();
        }
    }
    Vec::new()
}

/// Restrict the calling thread to `cpus`. Best effort: a refusal leaves
/// it where it is, which only costs steadiness.
pub fn pin(cpus: &[usize]) {
    #[cfg(target_os = "linux")]
    {
        let mut set: CpuSet = [0; 16];
        for &c in cpus.iter().filter(|&&c| c < 1024) {
            set[c / 64] |= 1 << (c % 64);
        }
        // SAFETY: `set` is a live `cpu_set_t` of the size passed, and pid 0
        // names the calling thread.
        let _ = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) };
    }
    #[cfg(not(target_os = "linux"))]
    let _ = cpus;
}

/// Resident set size of this process now, in MiB (`VmRSS`), 0 if unknown.
pub fn rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Counts heap allocations while [`count_allocs`] is on. Off, the wrapper
/// costs one relaxed load per allocation.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`; the counters are
// statistics and never influence layout, pointers or aliasing.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this wrapper.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: `ptr` came from `System` through this wrapper, and the
        // caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Turn allocation counting on or off.
pub fn count_allocs(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Allocations counted so far.
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// A tiny JSON object writer: keys in insertion order, numbers written
/// with all their digits.
#[derive(Default)]
pub struct Obj {
    buf: String,
}

impl Obj {
    pub fn new() -> Self {
        Obj::default()
    }

    fn key(&mut self, k: &str) {
        self.buf.push(if self.buf.is_empty() { '{' } else { ',' });
        push_str(&mut self.buf, k);
        self.buf.push(':');
    }

    pub fn num(&mut self, k: &str, v: f64) -> &mut Self {
        self.key(k);
        push_num(&mut self.buf, v);
        self
    }

    pub fn int(&mut self, k: &str, v: u64) -> &mut Self {
        self.key(k);
        let _ = write!(self.buf, "{v}");
        self
    }

    pub fn str(&mut self, k: &str, v: &str) -> &mut Self {
        self.key(k);
        push_str(&mut self.buf, v);
        self
    }

    pub fn bool(&mut self, k: &str, v: bool) -> &mut Self {
        self.key(k);
        self.buf.push_str(if v { "true" } else { "false" });
        self
    }

    /// Insert an already-serialized JSON value.
    pub fn raw(&mut self, k: &str, json: &str) -> &mut Self {
        self.key(k);
        self.buf.push_str(json);
        self
    }

    pub fn finish(&self) -> String {
        if self.buf.is_empty() {
            "{}".to_string()
        } else {
            format!("{}}}", self.buf)
        }
    }
}

/// A JSON array of strings.
pub fn str_array(items: &[String]) -> String {
    let mut s = String::from("[");
    for (i, it) in items.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        push_str(&mut s, it);
    }
    s.push(']');
    s
}

fn push_num(buf: &mut String, v: f64) {
    if v.is_finite() {
        // `{:?}` prints the shortest representation that round-trips.
        let _ = write!(buf, "{v:?}");
    } else {
        buf.push_str("null");
    }
}

fn push_str(buf: &mut String, s: &str) {
    buf.push('"');
    for c in s.chars() {
        match c {
            '"' => buf.push_str("\\\""),
            '\\' => buf.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(buf, "\\u{:04x}", c as u32);
            }
            c => buf.push(c),
        }
    }
    buf.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(tail(&v).0, 99.0);
        let v: Vec<f64> = (0..300).map(f64::from).collect();
        assert_eq!(tail(&v).0, 95.0);
        let v: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(tail(&v).0, 90.0);
    }

    #[test]
    fn json_escapes() {
        let mut o = Obj::new();
        o.str("a\"b", "x\ny").num("n", 1.5).int("i", 3);
        assert_eq!(o.finish(), r#"{"a\"b":"x\u000ay","n":1.5,"i":3}"#);
    }
}
