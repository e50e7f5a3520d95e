//! Inputs generated from the workload seed. The simulator receives only
//! what these functions build, never the seed itself.

use pels_sim::Rng;
use pels_soc::SensorKind;

/// The seeded analog source every scenario of a run samples: a slowly
/// rising, noisy level that stays above the 1.6 V threshold for the
/// longest simulated horizon the benchmark uses (start ≥ 2.1 V, noise
/// σ ≤ 0.04 V), so every readout actuates and no operation fails.
pub fn sensor(seed: u64) -> SensorKind {
    let mut rng = Rng::seed_from_u64(seed);
    SensorKind::NoisyRamp {
        start: 2.1 + 0.5 * rng.f64(),
        slope_per_us: 1e-5 * rng.f64(),
        sigma: 0.01 + 0.03 * rng.f64(),
        seed: u64::from(rng.next_u32()),
    }
}

/// A second independent stream from the same seed (fuzzer seeds,
/// register images), kept apart from the sensor stream.
pub fn stream(seed: u64, salt: u64) -> Rng {
    Rng::seed_from_u64(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}
