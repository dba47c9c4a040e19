//! The metric primitives: monotonic counters, signed gauges, log-bucketed
//! histograms, and scoped stage timers.
//!
//! Everything on the record path is lock-free atomics with `Relaxed`
//! ordering — instrumentation must be cheap enough to leave on in the
//! extraction inner loop and the serving hot path. The only lock in the
//! module guards the bounded per-call span log of [`Stage`], which is
//! touched once per *stage* (a pipeline phase or an extraction round),
//! not once per record.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Increment by one.
    pub fn inc(&self) {
        self.value.fetch_add(1, Relaxed);
    }

    /// Increment by `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Relaxed)
    }
}

/// A signed gauge for quantities that go up *and* down (queue depth,
/// open connections).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Increment by one.
    pub fn inc(&self) {
        self.value.fetch_add(1, Relaxed);
    }

    /// Decrement by one.
    pub fn dec(&self) {
        self.value.fetch_sub(1, Relaxed);
    }

    /// Set to an absolute value.
    pub fn set(&self, v: i64) {
        self.value.store(v, Relaxed);
    }

    /// Current value (racy reads can transiently observe inc/dec out of
    /// order; callers that need a floor clamp it themselves).
    pub fn get(&self) -> i64 {
        self.value.load(Relaxed)
    }
}

/// Sub-bucket resolution of the HDR-style histogram: each power-of-two
/// octave above the linear region splits into `2^SUB_BUCKET_BITS` linear
/// sub-buckets, bounding the relative quantile error at
/// `1 / 2^SUB_BUCKET_BITS` (≈ 3.1%).
pub const SUB_BUCKET_BITS: usize = 5;

/// Sub-buckets per octave (see [`SUB_BUCKET_BITS`]).
pub const SUB_BUCKETS: usize = 1 << SUB_BUCKET_BITS;

/// Values below this are recorded exactly (one bucket per integer).
const LINEAR_MAX: u64 = 2 * SUB_BUCKETS as u64;

/// Number of power-of-two octaves above the linear region: `[2^6, 2^7)`
/// through `[2^63, 2^64)`.
const OCTAVES: usize = 64 - (SUB_BUCKET_BITS + 1);

/// Total bucket count: the exact linear region plus `SUB_BUCKETS` slots
/// per octave. More range than any latency in microseconds or payload
/// size in bytes will ever need, at ~3% worst-case resolution.
pub const BUCKETS: usize = 2 * SUB_BUCKETS + OCTAVES * SUB_BUCKETS;

/// An HDR-style log-bucketed histogram over `u64` values.
///
/// One type serves both latencies (record microseconds via
/// [`Histogram::record_duration`]) and sizes (record raw values via
/// [`Histogram::record`]). Values below [`LINEAR_MAX`] land in
/// per-integer buckets (exact quantiles — small-sample percentile math
/// cannot be off-by-one); larger values use the HdrHistogram bucketing:
/// the octave `[2^e, 2^(e+1))` splits into [`SUB_BUCKETS`] equal slots,
/// so every quantile is within `1/SUB_BUCKETS` of exact — tight enough
/// to gate p99/p99.9 SLOs on, unlike one-bucket power-of-two resolution
/// where "p99" could be 2× the truth. The true maximum is additionally
/// tracked exactly ([`Histogram::max`]).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            // `[T; N]: Default` stops at N = 32, so build the slots by hand.
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

/// Bucket index for `value` (see the type docs for the layout).
fn bucket_index(value: u64) -> usize {
    if value < LINEAR_MAX {
        value as usize
    } else {
        let e = 63 - value.leading_zeros() as usize;
        let sub = ((value >> (e - SUB_BUCKET_BITS)) as usize) & (SUB_BUCKETS - 1);
        2 * SUB_BUCKETS + (e - (SUB_BUCKET_BITS + 1)) * SUB_BUCKETS + sub
    }
}

/// The largest value that lands in bucket `idx` — what [`Histogram::quantile`]
/// reports, so the estimate never understates the true quantile.
fn bucket_high(idx: usize) -> u64 {
    if idx < 2 * SUB_BUCKETS {
        idx as u64
    } else {
        let j = idx - 2 * SUB_BUCKETS;
        let e = SUB_BUCKET_BITS + 1 + j / SUB_BUCKETS;
        let sub = (j % SUB_BUCKETS) as u64;
        let width = 1u64 << (e - SUB_BUCKET_BITS);
        (1u64 << e) + sub * width + (width - 1)
    }
}

impl Histogram {
    /// Record one observation.
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Relaxed);
        self.sum.fetch_add(value, Relaxed);
        self.max.fetch_max(value, Relaxed);
    }

    /// Record a duration in microseconds.
    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_micros().min(u64::MAX as u128) as u64);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Relaxed)).sum()
    }

    /// Sum of all recorded values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Relaxed)
    }

    /// Largest recorded value, tracked exactly (0 when empty).
    pub fn max(&self) -> u64 {
        self.max.load(Relaxed)
    }

    /// Mean value (0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    /// Nearest-rank `q`-quantile estimate: the highest value of the
    /// bucket holding the target rank (0 when empty). Exact below
    /// [`LINEAR_MAX`]; within `1/SUB_BUCKETS` above, never understating.
    pub fn quantile(&self, q: f64) -> u64 {
        let counts: Vec<u64> = self.buckets.iter().map(|b| b.load(Relaxed)).collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &c) in counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return bucket_high(i);
            }
        }
        bucket_high(BUCKETS - 1)
    }
}

/// How many individual span durations a [`Stage`] keeps verbatim. The
/// pipeline stages this exists for (extraction rounds, merge phases) run
/// a handful to a dozen times; anything chattier only keeps aggregates.
const MAX_RECORDED_SPANS: usize = 256;

/// A named pipeline stage: call count, total wall time, and the first
/// [`MAX_RECORDED_SPANS`] per-call durations (so an extraction run's
/// per-iteration wall times survive into the report verbatim).
#[derive(Debug, Default)]
pub struct Stage {
    calls: AtomicU64,
    total_ns: AtomicU64,
    spans_ns: Mutex<Vec<u64>>,
}

impl Stage {
    /// Start a scoped timer; the elapsed time records when the returned
    /// [`StageSpan`] drops.
    pub fn span(&self) -> StageSpan<'_> {
        StageSpan {
            stage: self,
            start: Instant::now(),
        }
    }

    /// Time a closure as one call of this stage.
    pub fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let _span = self.span();
        f()
    }

    /// Record one completed call of `elapsed` wall time.
    pub fn record(&self, elapsed: Duration) {
        let ns = elapsed.as_nanos().min(u64::MAX as u128) as u64;
        self.calls.fetch_add(1, Relaxed);
        self.total_ns.fetch_add(ns, Relaxed);
        let mut spans = self.spans_ns.lock().expect("stage span log poisoned");
        if spans.len() < MAX_RECORDED_SPANS {
            spans.push(ns);
        }
    }

    /// Number of completed calls.
    pub fn calls(&self) -> u64 {
        self.calls.load(Relaxed)
    }

    /// Total wall time across all calls.
    pub fn total(&self) -> Duration {
        Duration::from_nanos(self.total_ns.load(Relaxed))
    }

    /// The retained per-call durations, in call order.
    pub fn spans(&self) -> Vec<Duration> {
        self.spans_ns
            .lock()
            .expect("stage span log poisoned")
            .iter()
            .map(|&ns| Duration::from_nanos(ns))
            .collect()
    }
}

/// A scoped stage timer; records its elapsed time on drop.
#[must_use = "a StageSpan records on drop; binding it to _ ends the span immediately"]
pub struct StageSpan<'a> {
    stage: &'a Stage,
    start: Instant,
}

impl Drop for StageSpan<'_> {
    fn drop(&mut self) {
        self.stage.record(self.start.elapsed());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::default();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::default();
        g.inc();
        g.inc();
        g.dec();
        assert_eq!(g.get(), 1);
        g.set(-7);
        assert_eq!(g.get(), -7);
    }

    #[test]
    fn histogram_bucket_boundaries() {
        // The linear region is exact: every value below LINEAR_MAX is its
        // own bucket.
        for v in [0u64, 1, 7, 8, 63] {
            let h = Histogram::default();
            h.record(v);
            assert_eq!(h.quantile(0.5), v, "value {v} must be exact");
        }
        // First octave bucket: 64 and 65 share [64, 66); the estimate is
        // the bucket's highest value.
        let h = Histogram::default();
        h.record(64);
        assert_eq!(h.quantile(0.5), 65);
        // u64::MAX clamps into the last bucket without panicking.
        let h = Histogram::default();
        h.record(u64::MAX);
        assert_eq!(h.count(), 1);
        assert_eq!(h.quantile(0.99), u64::MAX);
        assert_eq!(h.max(), u64::MAX);
    }

    #[test]
    fn histogram_index_and_high_agree() {
        // Every probe value must land in a bucket whose [index → high]
        // round trip contains it, and bucket highs must be monotone.
        let probes = [
            0u64,
            1,
            63,
            64,
            65,
            100,
            127,
            128,
            1_000,
            65_535,
            100_000,
            1 << 32,
            (1 << 40) + 12345,
            u64::MAX,
        ];
        for &v in &probes {
            let idx = bucket_index(v);
            let high = bucket_high(idx);
            assert!(high >= v, "high({idx}) = {high} < value {v}");
            // Within one bucket: high - v < max(1, v / SUB_BUCKETS + 1).
            assert!(
                high - v <= v / SUB_BUCKETS as u64 + 1,
                "value {v}: bucket high {high} too loose"
            );
        }
        for idx in 1..BUCKETS {
            assert!(bucket_high(idx) > bucket_high(idx - 1), "idx {idx}");
        }
    }

    #[test]
    fn histogram_quantiles_and_mean() {
        let h = Histogram::default();
        for _ in 0..99 {
            h.record(10); // linear region: exact
        }
        h.record(100_000); // octave [2^16, 2^17), sub-bucket width 2048
        assert_eq!(h.count(), 100);
        assert_eq!(h.quantile(0.50), 10);
        assert_eq!(h.quantile(0.95), 10);
        let top = h.quantile(1.0);
        assert!(
            (100_000..=100_000 + 100_000 / SUB_BUCKETS as u64 + 1).contains(&top),
            "{top}"
        );
        assert_eq!(h.max(), 100_000);
        assert!((h.mean() - (99.0 * 10.0 + 100_000.0) / 100.0).abs() < 1e-9);
        let empty = Histogram::default();
        assert_eq!(empty.quantile(0.5), 0);
        assert_eq!(empty.mean(), 0.0);
        assert_eq!(empty.max(), 0);
    }

    /// Regression for a raw-vector percentile, `round(p * (len - 1))`,
    /// which returned the 6th element as the p50 of 10 samples.
    /// Nearest-rank over the exact linear region returns the 5th.
    #[test]
    fn histogram_small_sample_p50_is_not_off_by_one() {
        let h = Histogram::default();
        for v in 1..=10u64 {
            h.record(v);
        }
        assert_eq!(h.quantile(0.5), 5, "p50 of 1..=10 is the 5th sample");
        assert_eq!(h.quantile(0.0), 1);
        assert_eq!(h.quantile(1.0), 10);
        assert_eq!(h.quantile(0.9), 9);
    }

    #[test]
    fn histogram_duration_records_micros() {
        let h = Histogram::default();
        h.record_duration(Duration::from_micros(10));
        assert_eq!(h.sum(), 10);
        h.record_duration(Duration::from_nanos(10)); // rounds to 0 µs
        assert_eq!(h.count(), 2);
    }

    #[test]
    fn stage_span_records_on_drop() {
        let s = Stage::default();
        {
            let _span = s.span();
            std::thread::sleep(Duration::from_millis(2));
        }
        s.time(|| ());
        assert_eq!(s.calls(), 2);
        assert!(s.total() >= Duration::from_millis(2));
        let spans = s.spans();
        assert_eq!(spans.len(), 2);
        assert!(spans[0] >= Duration::from_millis(2));
    }

    #[test]
    fn stage_span_log_is_bounded() {
        let s = Stage::default();
        for _ in 0..(MAX_RECORDED_SPANS + 10) {
            s.record(Duration::from_nanos(1));
        }
        assert_eq!(s.calls() as usize, MAX_RECORDED_SPANS + 10);
        assert_eq!(s.spans().len(), MAX_RECORDED_SPANS);
    }

    #[test]
    fn concurrent_counter_increments() {
        let c = Counter::default();
        let h = Histogram::default();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for i in 0..10_000u64 {
                        c.inc();
                        h.record(i % 1024);
                    }
                });
            }
        });
        assert_eq!(c.get(), 80_000);
        assert_eq!(h.count(), 80_000);
    }
}
