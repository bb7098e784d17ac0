//! Host speed reference. The shared hosts this benchmark runs on change
//! speed by tens of percent over minutes, for every kind of work alike
//! (CPU-bound verification and scheduler-bound session runs move
//! together). A run therefore also times a fixed piece of
//! benchmark-owned work — no code of the program under test — between
//! its rounds, and end-to-end metrics are reported at the reference
//! speed (see [`crate::report::Outcome::set_speed`]).

use crate::common::THREADS;
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// What the reference work takes at nominal host speed: its median on
/// the 2-vCPU Intel Xeon VM (kernel 6.18, rustc 1.95) the benchmark was
/// defined on.
pub const REFERENCE: Duration = Duration::from_micros(6_650);

/// One reference unit: the same work on every worker thread at once.
pub fn probe() -> Duration {
    let t = Instant::now();
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..THREADS as u64)
            .map(|i| s.spawn(move || reference_work(i)))
            .collect();
        for w in workers {
            black_box(w.join().expect("reference work panicked"));
        }
    });
    t.elapsed()
}

/// Allocation, hashing, ordered-map updates, sorting and string
/// formatting — the operations the runtime and the verifier spend their
/// time in. Returns a checksum so that none of it is optimized away.
fn reference_work(salt: u64) -> u64 {
    let mut x = salt.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut buckets: HashMap<u64, Vec<u32>> = HashMap::new();
    let mut ordered = BTreeMap::new();
    let mut names = Vec::with_capacity(2_000);
    for i in 0..20_000u32 {
        let r = next();
        buckets.entry(r % 1_024).or_default().push(i);
        ordered.insert(r % 8_192, i);
        if i % 10 == 0 {
            names.push(format!("p{}@{}", r % 97, i));
        }
    }
    let mut v: Vec<u64> = (0..40_000).map(|_| next()).collect();
    v.sort_unstable();
    names.sort();
    buckets.values().map(|b| b.len() as u64).sum::<u64>()
        + ordered.values().map(|&i| i as u64).sum::<u64>()
        + v[v.len() / 2]
        + names.iter().map(|n| n.len() as u64).sum::<u64>()
}

/// Reference probes taken through a run.
#[derive(Default)]
pub struct Speed {
    probes: Vec<f64>,
}

impl Speed {
    pub fn probe(&mut self) {
        self.probes.push(probe().as_secs_f64());
    }

    /// Reference ÷ the median probe: below 1 when the host runs slow,
    /// whether because it withholds the CPU or because it executes
    /// slower.
    pub fn factor(&self) -> f64 {
        REFERENCE.as_secs_f64() / crate::stats::median(&self.probes)
    }

    pub fn probes(&self) -> usize {
        self.probes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_work_is_deterministic() {
        assert_eq!(reference_work(3), reference_work(3));
        assert_ne!(reference_work(3), reference_work(4));
    }

    #[test]
    fn factor_is_reference_over_median_probe() {
        let s = Speed {
            probes: vec![0.02, 0.04, 0.03, 0.05],
        };
        assert!((s.factor() - REFERENCE.as_secs_f64() / 0.035).abs() < 1e-12);
    }
}
