//! Seeded open-loop arrival schedules.
//!
//! An open-loop generator decides *when* requests arrive before it
//! knows how the server will cope: a Poisson process with the requested
//! mean rate, materialized as cumulative microsecond offsets from the
//! worker's start. Each client session sleeps to its own schedule
//! and charges each query's latency from its scheduled arrival, so a
//! server that falls behind pays the queueing delay in the histogram
//! instead of silently slowing the generator down (the classic
//! coordinated-omission mistake of closed loops).

use crate::gen::SimRng;

/// Cumulative arrival offsets in microseconds for `n` queries at
/// `rate_per_sec` mean arrivals/second: exponential inter-arrival gaps
/// drawn from a SplitMix64 stream, so the same `(seed, rate, n)` always
/// yields the same schedule. `rate_per_sec == 0` means closed loop and
/// returns an empty schedule.
pub fn arrival_offsets_us(seed: u64, rate_per_sec: u32, n: usize) -> Vec<u64> {
    if rate_per_sec == 0 {
        return Vec::new();
    }
    let mut rng = SimRng::new(seed);
    let mean_gap_us = 1_000_000.0 / f64::from(rate_per_sec);
    let mut at = 0.0f64;
    (0..n)
        .map(|_| {
            // 53 uniform bits in [0, 1); 1-u is in (0, 1] so ln() is finite.
            let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
            at += -mean_gap_us * (1.0 - u).ln();
            at as u64
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_deterministic_and_monotone() {
        let a = arrival_offsets_us(7, 1000, 256);
        let b = arrival_offsets_us(7, 1000, 256);
        assert_eq!(a, b);
        assert_eq!(a.len(), 256);
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "offsets must be sorted");
        assert_ne!(a, arrival_offsets_us(8, 1000, 256));
    }

    #[test]
    fn mean_gap_tracks_the_requested_rate() {
        // 10k arrivals at 1000/s should span roughly 10 seconds.
        let sched = arrival_offsets_us(42, 1000, 10_000);
        let span = *sched.last().unwrap() as f64 / 1_000_000.0;
        assert!(
            (7.0..13.0).contains(&span),
            "10k arrivals at 1000/s spanned {span:.2}s"
        );
    }

    #[test]
    fn zero_rate_means_closed_loop() {
        assert!(arrival_offsets_us(1, 0, 100).is_empty());
    }
}
