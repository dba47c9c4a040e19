//! The open-loop arrival schedule behind perfbench's load driver:
//! Poisson offsets at a fixed offered rate, drawn from a seed. A driver
//! measures each latency from the offset a request was scheduled at, so
//! the offered-rate claim of a run rests on these properties.

use probase::loadgen::{engine, SeededRng};
use probase_testkit::prop::{check, float, int};
use std::time::Duration;

/// Poisson arrivals: over a long horizon the mean inter-arrival gap
/// must converge to `1/rate` (±10%), for arbitrary rates and seeds.
#[test]
fn poisson_mean_inter_arrival_matches_rate() {
    check(
        32,
        |r| (float(r, 50.0..2000.0), int(r, 0..u64::MAX)),
        |(rate, seed)| {
            let mut rng = SeededRng::new(seed);
            let horizon = Duration::from_secs(20);
            let offsets = engine::poisson_offsets(rate, horizon, &mut rng);
            // Expected arrivals: rate × 20; Poisson sd is sqrt of that.
            let expected = rate * 20.0;
            let sd = expected.sqrt();
            assert!(
                (offsets.len() as f64 - expected).abs() < 6.0 * sd,
                "arrivals {} vs expected {expected}",
                offsets.len()
            );
            // Mean gap over ≥1000 samples: within 20% of 1/rate (the
            // standard error of the mean is under 1/(rate·√1000), so this
            // is a ≥6-sigma bound — tight enough to catch a wrong rate
            // constant, loose enough to never flake).
            let gaps: Vec<f64> = offsets
                .windows(2)
                .map(|w| (w[1] - w[0]).as_secs_f64())
                .collect();
            let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
            assert!(
                (mean - 1.0 / rate).abs() < 0.2 / rate,
                "mean gap {mean} vs 1/rate {}",
                1.0 / rate
            );
        },
    );
}

/// Offsets are sorted, within the horizon, and the same for the same
/// seed, for any rate/seed.
#[test]
fn poisson_offsets_sorted_and_bounded() {
    check(
        32,
        |r| (float(r, 1.0..500.0), int(r, 0..u64::MAX)),
        |(rate, seed)| {
            let mut rng = SeededRng::new(seed);
            let horizon = Duration::from_secs(2);
            let offsets = engine::poisson_offsets(rate, horizon, &mut rng);
            let again = engine::poisson_offsets(rate, horizon, &mut SeededRng::new(seed));
            assert_eq!(offsets, again, "same seed must yield the same schedule");
            assert!(offsets.windows(2).all(|w| w[0] <= w[1]));
            assert!(offsets.iter().all(|o| *o < horizon));
        },
    );
}
