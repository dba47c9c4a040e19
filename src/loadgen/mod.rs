//! Request streams for load generation: what perfbench's open-loop
//! driver and the booted-binary test send to a server.
//!
//! Probase's serving claims (§6: applications driven by Bing query-log
//! traffic) only mean something under realistic load. This module holds
//! the seeded pieces a load generator draws from; the driver that sends
//! and times them lives in `perfbench/`:
//!
//! * **Poisson arrivals** ([`engine::poisson_offsets`]) — an open-loop
//!   schedule at a fixed offered rate. A driver measures each latency
//!   from the request's *intended* send time, so a server stall is
//!   charged to every request scheduled into it instead of hiding as one
//!   slow sample (coordinated omission).
//! * **Named workload profiles** ([`profile`]) — `read-heavy`,
//!   `write-heavy`, `mixed`, and `conceptualize` mixes over the wire
//!   protocol's endpoints, modeled on the paper's query-log
//!   substitution, with zipfian key skew so caches are exercised
//!   honestly.
//!
//! Randomness is a self-contained xorshift64* / SplitMix64 pair — the
//! same generators `probase-testkit` and the client's retry jitter use —
//! so a seed replays the whole request stream exactly.
//!
//! See DESIGN.md §15 for the methodology.

pub mod engine;
pub mod profile;

pub use profile::{Profile, Vocab, Zipf};

/// Seeded xorshift64* generator, mixed through SplitMix64 — the exact
/// pair `probase-testkit` uses, so loadgen runs replay like chaos runs.
#[derive(Debug, Clone)]
pub struct SeededRng(u64);

impl SeededRng {
    /// A generator seeded with `seed` (any value, including 0).
    pub fn new(seed: u64) -> SeededRng {
        SeededRng(splitmix64(seed).max(1))
    }

    /// Fork an independent substream: worker `i` gets its own stream so
    /// thread scheduling cannot reorder the global request sequence.
    pub fn fork(&self, stream: u64) -> SeededRng {
        SeededRng(splitmix64(self.0.wrapping_add(splitmix64(stream))).max(1))
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Next value in `[0, 1)`, with 53 bits of precision.
    pub fn next_unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Next index in `[0, n)` (`n` must be positive).
    pub fn next_index(&mut self, n: usize) -> usize {
        debug_assert!(n > 0);
        ((self.next_unit() * n as f64) as usize).min(n - 1)
    }
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic_and_forked_streams_differ() {
        let mut a = SeededRng::new(7);
        let mut b = SeededRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let base = SeededRng::new(7);
        let mut f0 = base.fork(0);
        let mut f1 = base.fork(1);
        let same = (0..64).filter(|_| f0.next_u64() == f1.next_u64()).count();
        assert!(same < 4, "forked streams should diverge ({same}/64 equal)");
    }

    #[test]
    fn next_unit_in_range_and_next_index_in_bounds() {
        let mut rng = SeededRng::new(0); // zero seed must still work
        for _ in 0..10_000 {
            let u = rng.next_unit();
            assert!((0.0..1.0).contains(&u), "{u}");
            let i = rng.next_index(17);
            assert!(i < 17);
        }
        let mut one = SeededRng::new(3);
        assert_eq!(one.next_index(1), 0);
    }
}
