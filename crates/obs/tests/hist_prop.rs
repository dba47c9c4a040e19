//! Property tests for the HDR-style histogram: the log-bucketed
//! quantile must stay within one bucket of the exact nearest-rank
//! quantile on arbitrary inputs, never understating it. Every latency
//! percentile the `stats` endpoint reports trusts these numbers, so
//! "within 1/SUB_BUCKETS above the truth" is a load-bearing guarantee,
//! not a nicety.

use probase_obs::metric::{Histogram, SUB_BUCKETS};
use probase_testkit::prop::{check, int, unit_inclusive, vec_of, DEFAULT_CASES};

/// Exact nearest-rank quantile over raw samples: the smallest value
/// whose rank is ≥ `ceil(q · n)` (rank ≥ 1).
fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
    let target = ((q * sorted.len() as f64).ceil() as usize).max(1);
    sorted[target - 1]
}

/// For any sample set and quantile, the histogram estimate `h`
/// brackets the exact nearest-rank value `x`:
/// `x <= h <= x + x/SUB_BUCKETS + 1` — i.e. within one bucket,
/// and never an underestimate.
#[test]
fn quantile_within_one_bucket_of_exact() {
    check(
        DEFAULT_CASES,
        |r| {
            (
                vec_of(r, 1..500, |r| int(r, 0..100_000_000)),
                unit_inclusive(r),
            )
        },
        |(mut values, q)| {
            let h = Histogram::default();
            for &v in &values {
                h.record(v);
            }
            values.sort_unstable();
            let exact = exact_quantile(&values, q);
            let est = h.quantile(q);
            assert!(est >= exact, "estimate {est} understates exact {exact}");
            assert!(
                est <= exact + exact / SUB_BUCKETS as u64 + 1,
                "estimate {est} more than one bucket above exact {exact}"
            );
        },
    );
}

/// Count, sum, and max are exact regardless of bucketing.
#[test]
fn count_sum_max_are_exact() {
    check(
        DEFAULT_CASES,
        |r| vec_of(r, 1..200, |r| int(r, 0..1_000_000)),
        |values| {
            let h = Histogram::default();
            for &v in &values {
                h.record(v);
            }
            assert_eq!(h.count(), values.len() as u64);
            assert_eq!(h.sum(), values.iter().sum::<u64>());
            assert_eq!(h.max(), *values.iter().max().unwrap());
        },
    );
}

/// Quantiles are monotone in `q`.
#[test]
fn quantiles_are_monotone() {
    check(
        DEFAULT_CASES,
        |r| vec_of(r, 1..200, |r| int(r, 0..10_000_000)),
        |values| {
            let h = Histogram::default();
            for &v in &values {
                h.record(v);
            }
            let qs = [0.0, 0.5, 0.9, 0.99, 0.999, 1.0];
            for w in qs.windows(2) {
                assert!(h.quantile(w[0]) <= h.quantile(w[1]));
            }
        },
    );
}
