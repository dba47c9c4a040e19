//! The open-loop arrival schedule: Poisson offsets drawn from a seed.
//!
//! The schedule is fixed up front, so a driver that drains it measures
//! each latency from the *intended* send time and a server stall
//! surfaces as the tail-latency cliff it really is, instead of silently
//! reducing the offered load (coordinated omission).

use super::SeededRng;
use std::time::Duration;

/// Draw a Poisson arrival schedule: offsets from run start, one per
/// arrival, covering `duration` at `rate` requests/second. The mean
/// inter-arrival gap converges to `1/rate` (property-tested in
/// `tests/loadgen_open_loop.rs`).
pub fn poisson_offsets(rate: f64, duration: Duration, rng: &mut SeededRng) -> Vec<Duration> {
    assert!(rate > 0.0, "offered rate must be positive");
    let horizon = duration.as_secs_f64();
    let mut offsets = Vec::with_capacity((rate * horizon) as usize + 1);
    let mut t = 0.0;
    loop {
        // Inverse-CDF exponential inter-arrival. `1 - u` keeps the log
        // argument in (0, 1] so the draw is always finite.
        let u = rng.next_unit();
        t += -(1.0 - u).ln() / rate;
        if t >= horizon {
            return offsets;
        }
        offsets.push(Duration::from_secs_f64(t));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_offsets_are_deterministic_sorted_and_bounded() {
        let mut a = SeededRng::new(99);
        let mut b = SeededRng::new(99);
        let one = poisson_offsets(200.0, Duration::from_secs(2), &mut a);
        let two = poisson_offsets(200.0, Duration::from_secs(2), &mut b);
        assert_eq!(one, two, "same seed must yield the same schedule");
        assert!(
            one.windows(2).all(|w| w[0] <= w[1]),
            "offsets must be sorted"
        );
        assert!(one.iter().all(|o| *o < Duration::from_secs(2)));
        // ~400 expected arrivals; Poisson sd is ±20, allow 5 sd.
        assert!((300..500).contains(&one.len()), "got {}", one.len());
    }

    #[test]
    fn poisson_mean_rate_matches_offered_rate() {
        for seed in [1u64, 42, 0xCAFE_BABE] {
            let mut rng = SeededRng::new(seed);
            let rate = 1000.0;
            let offsets = poisson_offsets(rate, Duration::from_secs(10), &mut rng);
            let achieved = offsets.len() as f64 / 10.0;
            assert!(
                (achieved - rate).abs() / rate < 0.05,
                "seed {seed}: achieved {achieved} vs offered {rate}"
            );
        }
    }
}
