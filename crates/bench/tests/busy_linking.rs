//! Laws of the busy-linking throughput workload that hold without a
//! clock: every CPU cycle is either a retirement or a stall cycle, and
//! the fused tier really carries the work. These are the noise-free
//! counterparts of the `linking_fused` /
//! `linking_superblock_single_step` wall-clock rows.

use pels_bench::throughput::{busy_linking_soc, BusyTier};
use pels_soc::Soc;

fn cpu_metric(soc: &Soc, key: &str) -> u64 {
    let mut reg = pels_obs::MetricsRegistry::new();
    soc.publish_metrics(&mut reg);
    reg.snapshot().get(key).expect("published")
}

#[test]
fn busy_linking_cycles_partition_into_retired_and_stall() {
    // No memory op, no interrupt and no sleep: every CPU cycle either
    // retires an instruction or burns one stall cycle, on every tier.
    let mut naive = busy_linking_soc(BusyTier::SingleStep);
    naive.set_naive_scheduling(true);
    naive.cpu_mut().set_decode_cache_enabled(false);
    let tiers = [
        ("fused", busy_linking_soc(BusyTier::Fused)),
        ("single_step", busy_linking_soc(BusyTier::SingleStep)),
        ("naive", naive),
    ];
    for (name, mut soc) in tiers {
        soc.run(100_000);
        let cycles = cpu_metric(&soc, "cpu.cycles");
        let retired = cpu_metric(&soc, "cpu.retired");
        let stall = cpu_metric(&soc, "cpu.stall_cycles");
        assert_eq!(cycles, 100_000, "{name}");
        assert_eq!(cycles, retired + stall, "{name}: retired {retired} + stall {stall}");
    }
}

#[test]
fn busy_linking_runs_on_the_fused_tier() {
    // The fused tier must carry the busy workload, fuse pairs and never
    // abort a block.
    let mut soc = busy_linking_soc(BusyTier::Fused);
    soc.run(100_000);
    let s = soc.superblock_stats();
    let retired = soc.cpu().retired();
    assert!(
        s.block_instrs as f64 / retired as f64 >= 0.95,
        "block share {} / {retired}",
        s.block_instrs
    );
    assert!(s.fused_pairs > 0, "{s:?}");
    assert_eq!(s.verify_aborts, 0, "{s:?}");
}
