//! Decoded-instruction cache correctness.
//!
//! The cache is a host-side accelerator only: every test here runs the
//! same program with the cache enabled and disabled and demands
//! bit-identical architectural state, cycle counts and fetch traffic.
//! Self-modifying code is the adversarial case — a cached decode of an
//! instruction the program has since overwritten must never execute.

use pels_cpu::{asm, Cpu, HaltCause, SimpleBus};

fn pack16(lo: u16, hi: u16) -> u32 {
    u32::from(lo) | (u32::from(hi) << 16)
}

fn fresh(program: &[u32], cache: bool) -> (Cpu, SimpleBus) {
    let mut bus = SimpleBus::new(64 * 1024);
    bus.load(0, program);
    let mut cpu = Cpu::new(0);
    cpu.set_decode_cache_enabled(cache);
    (cpu, bus)
}

/// Executes a target instruction, patches it through a store, issues
/// `fence.i`, and re-executes it. Layout (word addresses):
///
/// ```text
/// 0x00 li32 x1, 0x60          target address
/// 0x08 li32 x2, <patched>     addi x5, x0, 99
/// 0x10 jal  0x60              first execution of the original target
/// 0x14 bne  x6, x0, 0x28      second return → done
/// 0x18 addi x6, x0, 1
/// 0x1C sw   x2, 0(x1)         patch the target
/// 0x20 fence.i
/// 0x24 jal  0x60              re-execute the (patched) target
/// 0x28 ecall
/// 0x60 addi x5, x0, 1         the target (overwritten with x5 ← 99)
/// 0x64 jal  0x14              back to the return site
/// ```
fn self_modifying_program(with_fence: bool) -> Vec<u32> {
    let mut p = vec![0u32; 0x68 / 4];
    let mut at = |addr: usize, words: &[u32]| {
        for (i, &w) in words.iter().enumerate() {
            p[addr / 4 + i] = w;
        }
    };
    at(0x00, &asm::li32(1, 0x60));
    at(0x08, &asm::li32(2, asm::addi(5, 0, 99)));
    at(0x10, &[asm::jal(0, 0x60 - 0x10)]);
    at(0x14, &[asm::bne(6, 0, 0x28 - 0x14)]);
    at(0x18, &[asm::addi(6, 0, 1)]);
    at(0x1C, &[asm::sw(1, 2, 0)]);
    at(
        0x20,
        &[if with_fence {
            asm::fence_i()
        } else {
            asm::addi(0, 0, 0) // nop placeholder: same length, no fence
        }],
    );
    at(0x24, &[asm::jal(0, 0x60 - 0x24)]);
    at(0x28, &[asm::ecall()]);
    at(0x60, &[asm::addi(5, 0, 1)]);
    at(0x64, &[asm::jal(0, 0x14 - 0x64)]);
    p
}

#[test]
fn self_modifying_code_with_fence_i_executes_patched_instruction() {
    let p = self_modifying_program(true);
    for cache in [true, false] {
        let (mut cpu, mut bus) = fresh(&p, cache);
        cpu.run(&mut bus, 0, 200);
        assert_eq!(cpu.halt_cause(), Some(HaltCause::Ecall), "cache={cache}");
        assert_eq!(cpu.reg(5), 99, "patched instruction ran (cache={cache})");
    }
}

#[test]
fn self_modifying_code_is_safe_even_without_fence_i() {
    // Raw-bits re-verification on every hit means a stale decode can
    // never replay, fence or not — the fence is belt-and-braces, not a
    // correctness requirement of the model.
    let p = self_modifying_program(false);
    let (mut cpu, mut bus) = fresh(&p, true);
    cpu.run(&mut bus, 0, 200);
    assert_eq!(cpu.reg(5), 99);
}

#[test]
fn self_modifying_run_is_cycle_identical_with_cache_on_and_off() {
    let p = self_modifying_program(true);
    let (mut on, mut bus_on) = fresh(&p, true);
    on.run(&mut bus_on, 0, 200);
    let (mut off, mut bus_off) = fresh(&p, false);
    off.run(&mut bus_off, 0, 200);
    assert_eq!(on.cycles(), off.cycles());
    assert_eq!(on.retired(), off.retired());
    assert_eq!(bus_on.fetches, bus_off.fetches, "fetch traffic identical");
    for r in 0..32 {
        assert_eq!(on.reg(r), off.reg(r), "x{r}");
    }
    let (_, misses) = on.decode_cache_stats();
    assert!(misses > 0, "the run populated the cache");
    let (off_hits, off_misses) = off.decode_cache_stats();
    assert_eq!((off_hits, off_misses), (0, 0), "disabled cache stays cold");
}

/// A loop mixing a compressed parcel, a 32-bit instruction straddling
/// the word boundary (second fetch), a realigning c.nop and a backward
/// branch — the prefetch-buffer accounting cases. Loops until
/// `x7 == x8`.
fn compressed_straddling_loop() -> [u32; 5] {
    let addi6 = asm::addi(6, 6, 1);
    [
        // 0x0: c.addi x5,1 | 0x2: addi x6,x6,1 (straddles into word 1)
        pack16(0x0285, (addi6 & 0xFFFF) as u16),
        // 0x6: c.nop
        pack16((addi6 >> 16) as u16, 0x0001),
        asm::addi(7, 7, 1),   // 0x8
        asm::bne(7, 8, -0xC), // 0xC: loop while x7 != x8
        asm::ecall(),         // 0x10
    ]
}

#[test]
fn compressed_and_straddling_loop_identical_with_cache_on_and_off() {
    // Ten iterations give the cache plenty of hits.
    let p = compressed_straddling_loop();
    let run = |cache: bool| {
        let (mut cpu, mut bus) = fresh(&p, cache);
        // The hit-rate assertion below is about the decode cache, which
        // only sees single-stepped instructions — block-mode execution
        // bypasses it (superblock coverage lives in the tests further
        // down).
        cpu.set_superblocks_enabled(false);
        cpu.set_reg(8, 10); // loop bound
        cpu.run(&mut bus, 0, 1_000);
        assert_eq!(cpu.halt_cause(), Some(HaltCause::Ecall));
        assert_eq!((cpu.reg(5), cpu.reg(6), cpu.reg(7)), (10, 10, 10));
        let stats = cpu.decode_cache_stats();
        (cpu.cycles(), cpu.retired(), bus.fetches, stats)
    };
    let (cycles_on, retired_on, fetches_on, (hits, misses)) = run(true);
    let (cycles_off, retired_off, fetches_off, _) = run(false);
    assert_eq!(cycles_on, cycles_off, "per-instruction timing identical");
    assert_eq!(retired_on, retired_off);
    assert_eq!(
        fetches_on, fetches_off,
        "fetch count (incl. straddling second fetch) identical"
    );
    assert!(hits > misses, "loop body hits after the first iteration");
}

/// Lockstep differential: the same program advanced in ragged cycle
/// budgets with superblocks on and off must agree on every observable
/// at every budget boundary — including boundaries that land mid-block
/// and mid-stall.
#[test]
fn superblock_execution_matches_single_step_at_every_budget_boundary() {
    // A loop mixing a chainable ALU run, a store/load pair (block
    // breakers), and a backward branch (block closer).
    let p = [
        asm::addi(5, 5, 1),      // 0x00
        asm::addi(6, 6, 2),      // 0x04
        asm::xor(7, 5, 6),       // 0x08
        asm::add(7, 7, 5),       // 0x0C
        asm::sw(0, 7, 0x100),    // 0x10
        asm::lw(9, 0, 0x100),    // 0x14
        asm::addi(10, 10, 1),    // 0x18
        asm::bne(10, 8, -0x1C),  // 0x1C
        asm::ecall(),            // 0x20
    ];
    let (mut on, mut bus_on) = fresh(&p, true);
    let (mut off, mut bus_off) = fresh(&p, true);
    off.set_superblocks_enabled(false);
    on.set_reg(8, 25);
    off.set_reg(8, 25);
    let budgets = [1u64, 2, 3, 5, 7, 1, 4, 32, 2, 9, 64, 1, 1, 3, 128];
    'outer: loop {
        for &k in &budgets {
            on.run(&mut bus_on, 0, k);
            off.run(&mut bus_off, 0, k);
            assert_eq!(on.cycles(), off.cycles(), "cycles at budget {k}");
            assert_eq!(on.retired(), off.retired(), "retired at budget {k}");
            assert_eq!(on.pc(), off.pc(), "pc at budget {k}");
            assert_eq!(on.halt_cause(), off.halt_cause(), "halt at budget {k}");
            assert_eq!(bus_on.fetches, bus_off.fetches, "fetches at budget {k}");
            for r in 0..32 {
                assert_eq!(on.reg(r), off.reg(r), "x{r} at budget {k}");
            }
            if on.halt_cause().is_some() {
                break 'outer;
            }
        }
    }
    assert_eq!(on.halt_cause(), Some(HaltCause::Ecall));
    assert!(
        on.superblock_stats().block_runs > 0,
        "the fast side actually exercised block execution"
    );
    assert_eq!(off.superblock_stats().block_runs, 0, "single-step stays cold");
}

/// Patches the *middle* of a sealed superblock through a store. Layout
/// (word addresses):
///
/// ```text
/// 0x00 li32 x1, 0x68          patch address (mid-block)
/// 0x08 li32 x2, <patched>     addi x5, x0, 99
/// 0x10 jal  0x60              first execution seals the block
/// 0x14 bne  x6, x0, 0x28      second return → done
/// 0x18 addi x6, x0, 1
/// 0x1C sw   x2, 0(x1)         patch the block's third step
/// 0x20 fence.i | nop
/// 0x24 jal  0x60              re-execute the (patched) block
/// 0x28 ecall
/// 0x60 addi x5, x5, 1         ┐
/// 0x64 addi x5, x5, 2         │ the sealed block
/// 0x68 addi x5, x5, 4         │ (overwritten with x5 ← 99)
/// 0x6C jal  0x14              ┘
/// ```
fn block_patch_program(with_fence: bool) -> Vec<u32> {
    let mut p = vec![0u32; 0x70 / 4];
    let mut at = |addr: usize, words: &[u32]| {
        for (i, &w) in words.iter().enumerate() {
            p[addr / 4 + i] = w;
        }
    };
    at(0x00, &asm::li32(1, 0x68));
    at(0x08, &asm::li32(2, asm::addi(5, 0, 99)));
    at(0x10, &[asm::jal(0, 0x60 - 0x10)]);
    at(0x14, &[asm::bne(6, 0, 0x28 - 0x14)]);
    at(0x18, &[asm::addi(6, 0, 1)]);
    at(0x1C, &[asm::sw(1, 2, 0)]);
    at(
        0x20,
        &[if with_fence {
            asm::fence_i()
        } else {
            asm::addi(0, 0, 0)
        }],
    );
    at(0x24, &[asm::jal(0, 0x60 - 0x24)]);
    at(0x28, &[asm::ecall()]);
    at(0x60, &[asm::addi(5, 5, 1)]);
    at(0x64, &[asm::addi(5, 5, 2)]);
    at(0x68, &[asm::addi(5, 5, 4)]);
    at(0x6C, &[asm::jal(0, 0x14 - 0x6C)]);
    p
}

#[test]
fn self_modifying_code_across_block_boundary_with_fence_i() {
    let p = block_patch_program(true);
    let (mut cpu, mut bus) = fresh(&p, true);
    cpu.run(&mut bus, 0, 300);
    assert_eq!(cpu.halt_cause(), Some(HaltCause::Ecall));
    assert_eq!(cpu.reg(5), 99, "patched mid-block instruction ran");
    assert_eq!(
        cpu.superblock_stats().verify_aborts,
        0,
        "fence.i flushed the block, so no stale entry survived to abort"
    );
}

#[test]
fn self_modifying_code_across_block_boundary_without_fence_i() {
    // No fence: the stale sealed block is only caught by the block's
    // raw-bits verify, which must drop the block rather than replay the
    // overwritten decode.
    let p = block_patch_program(false);
    let (mut cpu, mut bus) = fresh(&p, true);
    cpu.run(&mut bus, 0, 300);
    assert_eq!(cpu.halt_cause(), Some(HaltCause::Ecall));
    assert_eq!(cpu.reg(5), 99, "patched mid-block instruction ran");
    assert!(
        cpu.superblock_stats().verify_aborts >= 1,
        "the stale block entry was caught by re-verify"
    );
}

#[test]
fn block_patch_retires_identical_streams_in_both_modes() {
    for with_fence in [true, false] {
        let p = block_patch_program(with_fence);
        let (mut on, mut bus_on) = fresh(&p, true);
        on.run(&mut bus_on, 0, 300);
        let (mut off, mut bus_off) = fresh(&p, true);
        off.set_superblocks_enabled(false);
        off.run(&mut bus_off, 0, 300);
        let ctx = format!("fence={with_fence}");
        assert_eq!(on.cycles(), off.cycles(), "{ctx}: cycles");
        assert_eq!(on.retired(), off.retired(), "{ctx}: retired");
        assert_eq!(bus_on.fetches, bus_off.fetches, "{ctx}: fetch traffic");
        for r in 0..32 {
            assert_eq!(on.reg(r), off.reg(r), "{ctx}: x{r}");
        }
        assert_eq!(on.halt_cause(), off.halt_cause(), "{ctx}: halt cause");
        // Ragged budgets: a stale word can lie past a budget's horizon.
        let on = fused_lockstep(&p, 0);
        assert_eq!(on.reg(5), 99, "{ctx}: patched mid-block instruction ran");
        if !with_fence {
            assert!(
                on.superblock_stats().verify_aborts >= 1,
                "{ctx}: stale block dropped"
            );
        }
    }
}

#[test]
fn disabling_superblocks_flushes_and_resets_stats() {
    let p = [
        asm::addi(1, 0, 7),
        asm::addi(2, 1, 1),
        asm::addi(3, 2, 1),
        asm::jal(0, -0xC),
    ];
    let (mut cpu, mut bus) = fresh(&p, true);
    cpu.run(&mut bus, 0, 100);
    assert!(cpu.superblocks_enabled());
    assert!(cpu.superblock_stats().block_runs > 0);
    cpu.set_superblocks_enabled(false);
    assert!(!cpu.superblocks_enabled());
    assert_eq!(cpu.superblock_stats(), pels_cpu::SuperblockStats::default());
}

#[test]
fn disabling_flushes_and_resets_stats() {
    let p = [asm::addi(1, 0, 7), asm::addi(2, 1, 1), asm::ecall()];
    let (mut cpu, mut bus) = fresh(&p, true);
    cpu.run(&mut bus, 0, 50);
    assert!(cpu.decode_cache_enabled());
    let (_, misses) = cpu.decode_cache_stats();
    assert!(misses > 0);
    cpu.set_decode_cache_enabled(false);
    assert!(!cpu.decode_cache_enabled());
    assert_eq!(cpu.decode_cache_stats(), (0, 0));
}

/// Ragged cycle budgets for the lockstep differentials.
const RAGGED_BUDGETS: [u64; 15] = [1, 2, 3, 5, 7, 1, 4, 32, 2, 9, 64, 1, 1, 3, 128];

/// Advances `p` with fused superblocks and single-stepped, in lockstep
/// over [`RAGGED_BUDGETS`] until it halts, with register `x8` (the
/// programs' loop bound) preset on both cores. Every observable must
/// agree at every budget boundary. Returns the fused core.
fn fused_lockstep(p: &[u32], x8: u32) -> Cpu {
    let (mut fused, mut bus_fused) = fresh(p, true);
    let (mut single, mut bus_single) = fresh(p, true);
    single.set_superblocks_enabled(false);
    for cpu in [&mut fused, &mut single] {
        cpu.set_reg(8, x8);
    }
    'outer: loop {
        for &k in &RAGGED_BUDGETS {
            fused.run(&mut bus_fused, 0, k);
            single.run(&mut bus_single, 0, k);
            assert_eq!(fused.cycles(), single.cycles(), "cycles at {k}");
            assert_eq!(fused.retired(), single.retired(), "retired at {k}");
            assert_eq!(fused.pc(), single.pc(), "pc at {k}");
            assert_eq!(fused.halt_cause(), single.halt_cause(), "halt at {k}");
            assert_eq!(bus_fused.fetches, bus_single.fetches, "fetches at {k}");
            for r in 0..32 {
                assert_eq!(fused.reg(r), single.reg(r), "x{r} at {k}");
            }
            if fused.halt_cause().is_some() {
                break 'outer;
            }
        }
    }
    fused
}

/// Lockstep: fused superblocks and single-stepping advanced in ragged
/// cycle budgets must agree on every observable at every budget
/// boundary — including boundaries that land on a fused pair's head
/// (one cycle left: the pair is left to `tick`), mid-stall inside a
/// `div`, right after a straddling 32-bit step, and inside a word that
/// two compressed parcels share (where a block prefix's fetch charge is
/// hardest to get right).
#[test]
fn fused_execution_matches_single_step_at_every_budget() {
    // Dense in fusable patterns: a lui+addi pair, a same-rd ALU-imm
    // chain, a compare-and-branch pair, plus mul/div stall cases.
    let p = [
        asm::lui(5, 0x1000),    // 0x00 ┐ LuiAddi pair
        asm::addi(5, 5, 37),    // 0x04 ┘
        asm::addi(6, 6, 3),     // 0x08 ┐ AluImmPair (same rd)
        asm::addi(6, 6, 5),     // 0x0C ┘
        asm::xor(7, 5, 6),      // 0x10
        asm::mul(9, 6, 7),      // 0x14
        asm::div(11, 9, 6),     // 0x18: a 37-cycle step inside the block
        asm::addi(10, 10, 1),   // 0x1C
        asm::slt(12, 10, 8),    // 0x20 ┐ CmpBranch pair
        asm::bne(12, 0, -0x24), // 0x24 ┘ loop while x10 < x8
        asm::ecall(),           // 0x28
    ];
    let fused = fused_lockstep(&p, 21);
    assert_eq!(fused.halt_cause(), Some(HaltCause::Ecall));
    let s = fused.superblock_stats();
    assert!(s.fused_pairs > 0, "the workload exercised pair fusion: {s:?}");
    assert!(s.fused_ops > s.fused_pairs, "single fused ops ran too: {s:?}");
    let fused = fused_lockstep(&compressed_straddling_loop(), 10);
    assert_eq!(fused.halt_cause(), Some(HaltCause::Ecall));
    assert_eq!((fused.reg(5), fused.reg(6), fused.reg(7)), (10, 10, 10));
    assert!(fused.superblock_stats().block_instrs > 0, "blocks ran");
}

/// Patches the *second half* of a fused lui+addi pair through a store,
/// with no `fence.i`. Layout (word addresses):
///
/// ```text
/// 0x00 li32 x1, 0x64          patch address (the pair's second half)
/// 0x08 li32 x2, <patched>     addi x5, x5, 99
/// 0x10 jal  0x60              first execution seals + fuses the block
/// 0x14 bne  x6, x0, 0x28      second return → done
/// 0x18 addi x6, x0, 1
/// 0x1C sw   x2, 0(x1)         patch the pair's second half
/// 0x20 nop
/// 0x24 jal  0x60              re-execute the (patched) block
/// 0x28 ecall
/// 0x60 lui  x5, 0x1000        ┐ the fused pair
/// 0x64 addi x5, x5, 7         ┘ (overwritten with x5 ← x5 + 99)
/// 0x68 jal  0x14
/// ```
///
/// The block's verify must catch the stale second half before anything
/// runs and drop the block, leaving the still-valid `lui` and the
/// patched `addi` to single-stepping — bit-identical to single-stepped
/// execution. The patched instruction accumulates into `x5`, so the
/// final value proves the head executed exactly once on the aborting
/// run: 0x1000 (the re-run `lui`) + 99.
fn pair_patch_program() -> Vec<u32> {
    let mut p = vec![0u32; 0x6C / 4];
    let mut at = |addr: usize, words: &[u32]| {
        for (i, &w) in words.iter().enumerate() {
            p[addr / 4 + i] = w;
        }
    };
    at(0x00, &asm::li32(1, 0x64));
    at(0x08, &asm::li32(2, asm::addi(5, 5, 99)));
    at(0x10, &[asm::jal(0, 0x60 - 0x10)]);
    at(0x14, &[asm::bne(6, 0, 0x28 - 0x14)]);
    at(0x18, &[asm::addi(6, 0, 1)]);
    at(0x1C, &[asm::sw(1, 2, 0)]);
    at(0x20, &[asm::nop()]);
    at(0x24, &[asm::jal(0, 0x60 - 0x24)]);
    at(0x28, &[asm::ecall()]);
    at(0x60, &[asm::lui(5, 0x1000)]);
    at(0x64, &[asm::addi(5, 5, 7)]);
    at(0x68, &[asm::jal(0, 0x14 - 0x68)]);
    p
}

#[test]
fn self_modifying_code_over_a_fused_pair_aborts_bit_exactly() {
    let p = pair_patch_program();
    let (mut cpu, mut bus) = fresh(&p, true);
    cpu.run(&mut bus, 0, 300);
    assert_eq!(cpu.halt_cause(), Some(HaltCause::Ecall));
    assert_eq!(
        cpu.reg(5),
        0x1000 + 99,
        "the pair's head retired exactly once, then the patched half ran"
    );
    assert!(
        cpu.superblock_stats().verify_aborts >= 1,
        "the stale pair half was caught by re-verify"
    );
}

#[test]
fn pair_patch_retires_identical_streams_fused_and_single_step() {
    let p = pair_patch_program();
    let (mut fused, mut bus_fused) = fresh(&p, true);
    fused.run(&mut bus_fused, 0, 300);
    let (mut single, mut bus_single) = fresh(&p, true);
    single.set_superblocks_enabled(false);
    single.run(&mut bus_single, 0, 300);
    assert_eq!(fused.cycles(), single.cycles(), "cycles");
    assert_eq!(fused.retired(), single.retired(), "retired");
    assert_eq!(bus_fused.fetches, bus_single.fetches, "fetch traffic");
    assert_eq!(fused.halt_cause(), single.halt_cause(), "halt cause");
    for r in 0..32 {
        assert_eq!(fused.reg(r), single.reg(r), "x{r}");
    }
    // Ragged budgets: a stale word can lie past a budget's horizon.
    let fused = fused_lockstep(&p, 0);
    assert_eq!(fused.reg(5), 0x1000 + 99, "ragged budgets");
    assert!(
        fused.superblock_stats().verify_aborts >= 1,
        "stale block dropped"
    );
}
