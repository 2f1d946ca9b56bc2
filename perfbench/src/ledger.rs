//! The benchmark's ledger: metric names and units, the percentile rule,
//! process counters, span accumulators and the counting allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// End-to-end metrics every untraced run prints, with their units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("epochs_per_s", "1/s"),
    ("epoch_p50_ms", "ms"),
    ("epoch_p90_ms", "ms"),
    ("cpu_ms_per_epoch", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics every traced run prints, with their units. A layer a
/// workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.build_s", "s"),
    ("gpu_sim.warmup_s", "s"),
    ("gpu_sim.epoch_s", "s"),
    ("gpu_sim.insts", "count"),
    ("gpu_sim.ns_per_inst", "ns"),
    ("gpu_sim.l1_hit_ratio", "ratio"),
    ("gpu_sim.allocs_per_epoch", "count"),
    ("oracle.sample_s", "s"),
    ("oracle.forks", "count"),
    ("oracle.fork_insts", "count"),
    ("oracle.ns_per_fork_inst", "ns"),
    ("oracle.allocs_per_sample", "count"),
    ("pcstall.decide_s", "s"),
    ("pcstall.decisions", "count"),
    ("pcstall.table_hit_ratio", "ratio"),
    ("pcstall.allocs_per_decide", "count"),
    ("harness.observe_s", "s"),
    ("harness.residual_s", "s"),
    ("wire.submit_s", "s"),
    ("wire.tick_s", "s"),
    ("wire.fetch_s", "s"),
    ("wire.frames_per_decision", "count"),
    ("wire.overhead_s", "s"),
    ("wire.retries", "count"),
    ("wire.rejects", "count"),
    ("wire.tcp_rtt_p50_ms", "ms"),
    ("wire.tcp_rtt_p99_ms", "ms"),
    ("serve.submit_s", "s"),
    ("serve.run_epoch_s", "s"),
    ("serve.decisions", "count"),
    ("serve.evictions", "count"),
    ("serve.restores", "count"),
    ("serve.shed", "count"),
    ("serve.rung_hold", "count"),
    ("serve.rung_stall", "count"),
    ("serve.rung_safe", "count"),
    ("serve.allocs_per_epoch", "count"),
    ("trace.epoch_s", "s"),
    ("trace.overhead_s", "s"),
    ("pred_accuracy", "ratio"),
    ("ed2p_geomean", "J.s2"),
    ("cap_met_ratio", "ratio"),
];

/// Whether `name` is a legal metric name: 1–64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let b = name.as_bytes();
    !b.is_empty()
        && b.len() <= 64
        && b[0].is_ascii_alphanumeric()
        && b.iter().all(|&c| c.is_ascii_alphanumeric() || c == b'_' || c == b'.' || c == b'-')
}

/// A tail percentile is reported only with at least this many samples
/// beyond it.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (in `(0, 1)`) of `samples`, or `None` when
/// fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let rank = ((p * n as f64).ceil() as usize).max(1);
    if n < rank + MIN_BEYOND {
        return None;
    }
    Some(v[rank - 1])
}

/// Median of `samples` (the mean of the middle pair for even counts).
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// CPU time the main thread has run, in seconds (`/proc/self/schedstat`,
/// nanosecond resolution). Untraced runs do all their work on that thread.
pub fn cpu_seconds() -> Result<f64, String> {
    let text = std::fs::read_to_string("/proc/self/schedstat")
        .map_err(|e| format!("reading /proc/self/schedstat: {e}"))?;
    let ns: u64 = text
        .split_whitespace()
        .next()
        .and_then(|f| f.parse().ok())
        .ok_or("malformed /proc/self/schedstat")?;
    Ok(ns as f64 * 1e-9)
}

/// Peak resident set size of the process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let text = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb: u64 = text
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb as f64 / 1024.0)
}

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// The system allocator, tallying every allocation and reallocation while
/// [`count_allocs`] is on. Traced runs turn it on; untraced runs leave it
/// off, so they pay one relaxed load per allocation.
#[derive(Debug)]
pub struct CountingAlloc;

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the tally touches only atomics and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: `ptr` came from `System`; the caller upholds the rest.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Turns allocation counting on or off.
pub fn count_allocs(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Allocations counted so far.
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Accumulated self time, allocations and calls of one span name.
#[derive(Debug, Default, Clone, Copy)]
pub struct Span {
    /// Seconds spent inside the span.
    pub secs: f64,
    /// Allocations counted inside the span.
    pub allocs: u64,
    /// Times the span was entered.
    pub calls: u64,
}

impl Span {
    /// Runs `f` inside the span.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let a0 = allocs();
        let t0 = Instant::now();
        let r = f();
        self.secs += t0.elapsed().as_secs_f64();
        self.allocs += allocs() - a0;
        self.calls += 1;
        r
    }

    /// Allocations per call (0 when never entered).
    pub fn allocs_per_call(&self) -> f64 {
        ratio(self.allocs as f64, self.calls as f64)
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Nominal time of one [`HostRef::tick`], in seconds: a round figure for
/// the 2-vCPU Xeon container whose spreads `README.md` lists, where a tick
/// took 100–180 µs as the host's load came and went. It only sets the
/// scale of the normalised timings.
pub const HOST_REF_NOMINAL_S: f64 = 150e-6;

/// Keys and operations of the reference kernel.
const HOST_REF_KEYS: u64 = 3_000;
const HOST_REF_OPS: usize = 600;
/// Ticks run before timing, so the kernel's map reaches its steady size.
const HOST_REF_WARM: usize = 400;
/// Epochs normalised by the same slowdown: the mean of their ticks.
const HOST_BLOCK: usize = 32;

/// The host's speed, read from a fixed reference kernel run between the
/// program's epochs (never inside one).
///
/// On a shared machine, neighbours change the speed of every instruction
/// stream on a core by tens of percent for seconds to minutes at a time,
/// which no statistic over one 30 s run can remove. The kernel is ordered-map churn with small heap allocations
/// (insert with a 1–24 word allocation, remove, short range scan), the
/// pointer-chasing and allocator traffic that dominates both the simulator
/// and the served fleet, so it slows with them. It is the benchmark's own
/// code: a change to the program leaves its work unchanged.
#[derive(Debug)]
pub struct HostRef {
    tree: std::collections::BTreeMap<u64, Vec<u64>>,
    state: u64,
    /// Seconds of each tick since the last [`HostRef::take_ticks`].
    ticks: Vec<f64>,
}

impl HostRef {
    /// A warmed-up kernel.
    pub fn new() -> HostRef {
        let mut h = HostRef { tree: Default::default(), state: 1, ticks: Vec::new() };
        for _ in 0..HOST_REF_WARM {
            h.tick();
        }
        h.ticks.clear();
        h
    }

    /// Runs the kernel once, timed.
    #[inline(never)]
    pub fn tick(&mut self) {
        let t0 = Instant::now();
        for _ in 0..HOST_REF_OPS {
            self.state = self
                .state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let key = (self.state >> 33) % HOST_REF_KEYS;
            if self.state >> 63 == 0 {
                let len = (self.state >> 50) % 24 + 1;
                self.tree.insert(key, (0..len).collect());
            } else if let Some(v) = self.tree.remove(&key) {
                std::hint::black_box(v.iter().sum::<u64>());
            }
            let scan: u64 = self.tree.range(key..).take(4).map(|(k, v)| k ^ v.len() as u64).sum();
            std::hint::black_box(scan);
        }
        self.ticks.push(t0.elapsed().as_secs_f64());
    }

    /// The tick times (s) since the last call, oldest first.
    pub fn take_ticks(&mut self) -> Vec<f64> {
        std::mem::take(&mut self.ticks)
    }
}

/// Host slowdown over `ticks` (s): their mean over the nominal tick time,
/// or 1 when there are none.
fn slowdown(ticks: &[f64]) -> f64 {
    match ticks.len() {
        0 => 1.0,
        n => ticks.iter().sum::<f64>() / n as f64 / HOST_REF_NOMINAL_S,
    }
}

/// One replica's raw measurements.
#[derive(Debug)]
pub struct Replica {
    /// Set-up before the measured phase.
    pub setup_s: f64,
    /// Host time of each measured epoch, in ms.
    pub epoch_ms: Vec<f64>,
    /// [`HostRef`] tick after each epoch (s).
    pub tick_s: Vec<f64>,
    /// Wall and CPU time of the measured phase.
    pub wall_s: f64,
    pub cpu_s: f64,
}

/// Identical replicas of the same sequence of epochs: the same inputs, the
/// same simulated work, bit-identical outputs, spread over the run. Every
/// timing is first divided by the host slowdown ([`HostRef`]) around it:
/// each block of 32 epochs by that of its own ticks, set-up and CPU time by
/// that of the whole replica. Then each epoch's time is its median over
/// the replicas, and set-up and CPU time are medians over replicas. What
/// the host does to only some replicas drops out in the median, what it
/// does to all of them in the normalisation, while a cost the program pays
/// every time stays in.
#[derive(Debug, Default)]
pub struct Replicas {
    epoch_ms: Vec<Vec<f64>>,
    setup_s: Vec<f64>,
    /// CPU time per replica: `/proc/self/schedstat` advances only at
    /// scheduler ticks, too coarse to read per epoch.
    cpu_s: Vec<f64>,
    /// Raw wall time and slowdown per replica, for the notes.
    wall_s: Vec<f64>,
    slowdown: Vec<f64>,
}

impl Replicas {
    /// How many replicas fill `seconds` when one takes about `nominal_s`;
    /// at least three. Fixed per `seconds`, not measured, so a slow host
    /// does not change the estimator.
    pub fn count(seconds: f64, nominal_s: f64) -> usize {
        ((seconds / nominal_s).round() as usize).max(3)
    }

    /// Adds one replica, normalised to the nominal host speed.
    pub fn push(&mut self, r: Replica) {
        assert_eq!(r.tick_s.len(), r.epoch_ms.len(), "one tick after each epoch");
        let whole = slowdown(&r.tick_s);
        let blocks = r.epoch_ms.chunks(HOST_BLOCK).zip(r.tick_s.chunks(HOST_BLOCK));
        self.epoch_ms
            .push(blocks.flat_map(|(e, t)| e.iter().map(move |ms| ms / slowdown(t))).collect());
        self.setup_s.push(r.setup_s / whole);
        self.cpu_s.push(r.cpu_s / whole);
        self.wall_s.push(r.wall_s);
        self.slowdown.push(whole);
    }

    /// Whether every replica ran the same number of epochs.
    pub fn aligned(&self) -> bool {
        self.epoch_ms.windows(2).all(|w| w[0].len() == w[1].len())
    }

    /// Each epoch's median time over the replicas.
    pub fn typical(&self) -> Vec<f64> {
        let n = self.epoch_ms.first().map_or(0, Vec::len);
        (0..n).map(|i| median(&self.epoch_ms.iter().map(|r| r[i]).collect::<Vec<_>>())).collect()
    }

    /// Records the end-to-end timing metrics (all but `peak_rss_mb`) and
    /// notes on how they were taken.
    pub fn report(&self, report: &mut Report) -> Result<(), String> {
        let typical = self.typical();
        let n = typical.len();
        let p50 = percentile(&typical, 0.5).ok_or("too few epochs for p50")?;
        let p90 = percentile(&typical, 0.9).ok_or("too few epochs for p90")?;
        let wall: f64 = self.wall_s.iter().sum();
        report.notes.push(format!(
            "{} replicas x {n} epochs; raw replica wall times {:.3?} s; raw throughput {:.2} \
             epochs/s; host slowdown per replica {:.3?} (median {:.3})",
            self.wall_s.len(),
            self.wall_s,
            (n * self.wall_s.len()) as f64 / wall,
            self.slowdown,
            median(&self.slowdown),
        ));
        let p99 = percentile(&typical, 0.99).map_or("n/a".into(), |p| p.to_string());
        report.notes.push(format!(
            "normalised per-epoch median of replicas: p50 {p50} ms, p90 {p90} ms, p99 {p99} ms \
             (n={n})"
        ));
        report.set("setup_s", median(&self.setup_s));
        report.set("epochs_per_s", n as f64 / (typical.iter().sum::<f64>() * 1e-3));
        report.set("epoch_p50_ms", p50);
        report.set("epoch_p90_ms", p90);
        report.set("cpu_ms_per_epoch", median(&self.cpu_s) * 1e3 / n as f64);
        Ok(())
    }
}

/// What one run found: its metrics plus the checks it made.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (sessions run, or fleet requests made).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Output checks that did not hold.
    pub violations: Vec<String>,
    /// Metric values by name.
    pub values: Vec<(&'static str, f64)>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Report {
    /// Records `value` for the metric `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.values.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name, value)),
        }
    }

    /// A report for a traced run: every per-layer metric starts at 0, so a
    /// layer the workload does not exercise reads 0.
    pub fn traced() -> Report {
        Report { values: PER_LAYER.iter().map(|&(n, _)| (n, 0.0)).collect(), ..Report::default() }
    }

    /// Records a violated check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }

    /// Whether every output check held and no operation failed.
    pub fn correct(&self) -> bool {
        self.violations.is_empty() && self.failed == 0
    }

    /// The result line: exactly the metrics of `schema`, in its order.
    /// Panics if the run did not record each of them once, finitely —
    /// that is a bug in the workload, not a measurement.
    pub fn to_json(&self, schema: &[(&str, &str)]) -> String {
        assert_eq!(self.values.len(), schema.len(), "metric set differs from the schema");
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, unit)) in schema.iter().enumerate() {
            let hits: Vec<f64> =
                self.values.iter().filter(|(n, _)| n == name).map(|&(_, v)| v).collect();
            assert_eq!(hits.len(), 1, "metric {name} recorded {} times", hits.len());
            assert!(valid_name(name), "metric name {name} breaks the charset");
            assert!(hits[0].is_finite(), "metric {name} is not finite: {}", hits[0]);
            let sep = if i == 0 { "" } else { ", " };
            write!(out, "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", hits[0])
                .expect("writing to a String cannot fail");
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentiles_need_ten_samples_beyond() {
        let v: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.9), None, "99 samples leave only 9 beyond p90");
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.9), Some(90.0));
        assert_eq!(percentile(&v, 0.99), None);
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), Some(990.0));
        assert_eq!(percentile(&v[..19], 0.5), None, "p50 of 19 leaves 9 beyond");
        assert_eq!(percentile(&v[..20], 0.5), Some(10.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn percentile_ignores_sample_order() {
        let v: Vec<f64> = (0..200).map(|i| f64::from((i * 37) % 200)).collect();
        assert_eq!(percentile(&v, 0.5), Some(99.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn replicas_keep_each_epochs_median_time() {
        let nominal = HOST_REF_NOMINAL_S;
        let rep = |epoch_ms: Vec<f64>, tick_s: Vec<f64>| Replica {
            setup_s: 1.0,
            epoch_ms,
            tick_s,
            wall_s: 9.0,
            cpu_s: 8.0,
        };
        let mut r = Replicas::default();
        r.push(rep(vec![1.0, 5.0, 3.0], vec![nominal; 3]));
        r.push(rep(vec![4.0, 8.0, 7.0], vec![2.0 * nominal; 3]));
        r.push(rep(vec![9.0, 4.5, 3.2], vec![nominal; 3]));
        assert!(r.aligned());
        assert_eq!(r.typical(), vec![2.0, 4.5, 3.2], "timings are divided by the slowdown");
        assert_eq!(r.setup_s, vec![1.0, 0.5, 1.0]);
        // Each block of epochs has its own slowdown.
        let mut epoch_ms = vec![1.0; HOST_BLOCK + 1];
        epoch_ms[HOST_BLOCK] = 4.0;
        let mut tick_s = vec![nominal; HOST_BLOCK + 1];
        tick_s[HOST_BLOCK] = 4.0 * nominal;
        let mut b = Replicas::default();
        b.push(rep(epoch_ms, tick_s));
        assert_eq!(b.typical(), vec![1.0; HOST_BLOCK + 1]);
        let whole = (HOST_BLOCK as f64 + 4.0) / (HOST_BLOCK as f64 + 1.0);
        assert!((b.slowdown[0] - whole).abs() < 1e-12, "set-up and CPU use the whole replica's");
        r.push(rep(vec![1.0], vec![nominal]));
        assert!(!r.aligned());
        assert_eq!(Replicas::count(20.0, 5.0), 4);
        assert_eq!(Replicas::count(0.0, 5.0), 3);
    }

    #[test]
    fn host_reference_logs_one_time_per_tick() {
        let mut h = HostRef::new();
        assert!(h.take_ticks().is_empty(), "warm-up ticks are not kept");
        for _ in 0..4 {
            h.tick();
        }
        let ticks = h.take_ticks();
        assert_eq!(ticks.len(), 4);
        assert!(ticks.iter().all(|&t| t > 0.0));
        assert!(h.take_ticks().is_empty());
        assert_eq!(slowdown(&[]), 1.0);
        assert_eq!(slowdown(&[HOST_REF_NOMINAL_S, 3.0 * HOST_REF_NOMINAL_S]), 2.0);
    }

    #[test]
    fn metric_names_use_the_allowed_charset() {
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "{name}");
            assert!(!unit.is_empty() && unit.len() <= 16, "{unit}");
        }
        assert!(valid_name("gpu_sim.ns_per_inst"));
        assert!(valid_name("9lives-ok"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("bad name"));
        assert!(!valid_name("bad/name"));
        assert!(!valid_name(&"x".repeat(65)));
        let all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|&(n, _)| n).collect();
        let mut dedup = all.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), all.len(), "metric names are unique");
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let declared = text.matches("\"unit\":").count();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len(), "BENCHMARK.json declares extras");
    }

    #[test]
    fn report_renders_the_schema_in_order() {
        let mut r = Report { attempted: 3, ..Report::default() };
        r.set("b", 0.5);
        r.set("a", 2.0);
        let json = r.to_json(&[("a", "s"), ("b", "ms")]);
        assert_eq!(
            json,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\
             \"a\": {\"value\": 2, \"unit\": \"s\"}, \"b\": {\"value\": 0.5, \"unit\": \"ms\"}}}"
        );
        r.check(false, || "broken".into());
        assert!(!r.correct());
    }
}
