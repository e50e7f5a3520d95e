//! The cycle-stepped Ibex-class core.

use crate::bus::{CpuBus, DataReq, DataResult};
use crate::compressed::{decode_compressed, is_compressed};
use crate::csr::CsrFile;
use crate::decode::{decode, DecodeError};
use crate::instr::{AluOp, BranchOp, CsrOp, CsrSrc, Instr, LoadOp, MulDivOp, StoreOp};
use crate::regs::RegFile;
use crate::timing;
use pels_sim::{ActivityKind, ActivitySet, ComponentId};

/// Why the core stopped executing (tests and scenarios use [`Instr::Ecall`]
/// / [`Instr::Ebreak`] as a program-exit convention).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HaltCause {
    /// `ecall` executed.
    Ecall,
    /// `ebreak` executed.
    Ebreak,
    /// An undecodable instruction word.
    IllegalInstruction(DecodeError),
    /// A data access faulted on the bus.
    BusFault {
        /// The faulting address.
        addr: u32,
    },
}

/// Pipeline state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CpuState {
    /// Fetching and executing.
    Running,
    /// Stalled on an in-flight peripheral-bus access.
    MemWait,
    /// Asleep in `wfi`, clock gated.
    Sleeping,
    /// Stopped (see [`HaltCause`]).
    Halted,
}

#[derive(Debug, Clone, Copy)]
struct PendingLoad {
    rd: u8,
    op: LoadOp,
    byte_in_word: u32,
    is_load: bool,
    addr: u32,
}

/// Entries in the direct-mapped decoded-instruction cache, indexed by
/// `pc` bits `[1..]` (the pc is always halfword-aligned).
const DECODE_CACHE_ENTRIES: usize = 512;

/// One decoded-instruction cache line.
///
/// `raw` holds the exact instruction bits the decode came from (16-bit
/// parcels zero-extended) and is re-verified against the freshly fetched
/// bits on every hit, so the cache can never replay a stale decode —
/// stores into the instruction stream are caught without any explicit
/// invalidation traffic. `pc` doubles as the tag; an odd value can never
/// match a real (even) pc, so it marks the line invalid.
#[derive(Debug, Clone, Copy)]
struct DecodedLine {
    pc: u32,
    raw: u32,
    instr: Instr,
}

const INVALID_LINE: DecodedLine = DecodedLine {
    pc: 1,
    raw: 0,
    instr: Instr::Fence,
};

/// Entries in the direct-mapped superblock cache, indexed by the block's
/// start pc bits `[1..]`.
const SUPERBLOCK_ENTRIES: usize = 64;

/// Maximum instructions chained into one superblock.
const SUPERBLOCK_MAX_LEN: usize = 32;

/// One decoded instruction of a superblock chain: the decode plus the raw
/// bits it came from, which sealing compiles into the block's verify plan
/// (the same stale-decode defence as [`DecodedLine`]).
#[derive(Debug, Clone, Copy)]
struct BlockStep {
    pc: u32,
    raw: u32,
    size: u32,
    instr: Instr,
}

const INVALID_STEP: BlockStep = BlockStep {
    pc: 1,
    raw: 0,
    size: 0,
    instr: Instr::Fence,
};

/// A specialized host-level operation compiled from one or two sealed
/// block steps: register indices and immediates are pre-resolved out of
/// [`Instr`], pcs (fallthroughs, jump/branch targets, `auipc` results)
/// are constant-folded, and a small set of two-instruction patterns is
/// collapsed into single ops. Execution skips the general
/// decode/`execute` dispatch entirely.
#[derive(Debug, Clone, Copy)]
enum FusedOp {
    /// `lui`/`auipc`: the result is a seal-time constant.
    SetImm { rd: u8, value: u32 },
    /// `rd = rs1 op imm`.
    AluImm { op: AluOp, rd: u8, rs1: u8, imm: u32 },
    /// `rd = rs1 op rs2`.
    Alu { op: AluOp, rd: u8, rs1: u8, rs2: u8 },
    /// M-extension op with its extra stall precomputed.
    MulDiv {
        op: MulDivOp,
        rd: u8,
        rs1: u8,
        rs2: u8,
        extra: u32,
    },
    /// `jal` with link and target constant-folded.
    Jal { rd: u8, link: u32, target: u32 },
    /// `jalr` (target depends on `rs1`; link is constant).
    Jalr {
        rd: u8,
        rs1: u8,
        offset: u32,
        link: u32,
    },
    /// Conditional branch with both successor pcs constant-folded.
    Branch {
        op: BranchOp,
        rs1: u8,
        rs2: u8,
        taken: u32,
        fallthrough: u32,
    },
    /// Fused `lui rd, hi` + `addi rd, rd, lo`: the folded constant is
    /// materialised in one write (the intermediate value is dead).
    LuiAddi { rd: u8, value: u32 },
    /// Fused ALU-immediate chain through one live destination
    /// (`op1 rd, rs1, imm1` + `op2 rd, rd, imm2`, `rd != x0`).
    AluImmPair {
        rd: u8,
        rs1: u8,
        op1: AluOp,
        imm1: u32,
        op2: AluOp,
        imm2: u32,
    },
    /// Fused compare + sealing branch (`slt[u] rd, rs1, rs2` +
    /// `beq`/`bne` of `rd` against `x0`): the comparison feeds the
    /// branch decision directly.
    CmpBranch {
        rd: u8,
        rs1: u8,
        rs2: u8,
        unsigned: bool,
        /// Branch taken when the comparison result is this value.
        taken_if_set: bool,
        taken: u32,
        fallthrough: u32,
    },
}

/// One element of a block's fused program: the op, how many sealed steps
/// it covers, the pc it retires to, and how much of the block's verify
/// plan sequential execution has fetched once it retires.
#[derive(Debug, Clone, Copy)]
struct FusedEntry {
    op: FusedOp,
    /// Architectural instructions covered (1 or 2).
    n: u8,
    /// Words of `BlockLine::words` fetched through the end of this entry:
    /// a program prefix ending here charges exactly these fetches.
    words_end: u8,
    /// pc after the entry retires (control-flow ops override it).
    next_pc: u32,
}

const INVALID_FUSED: FusedEntry = FusedEntry {
    op: FusedOp::SetImm { rd: 0, value: 0 },
    n: 1,
    words_end: 0,
    next_pc: 0,
};

/// Upper bound on distinct aligned words a block's sequential execution
/// fetches: one per 4-byte step plus one for a trailing straddle.
const SUPERBLOCK_MAX_WORDS: usize = SUPERBLOCK_MAX_LEN + 1;

/// One word of a block's verify plan: which bits of the word belong
/// to instruction parcels, and what they must still hold. Bits outside
/// `mask` (e.g. the unused half past a final compressed step) may change
/// freely without staling the block.
#[derive(Debug, Clone, Copy)]
struct VerifyWord {
    aligned: u32,
    expected: u32,
    mask: u32,
}

const INVALID_WORD: VerifyWord = VerifyWord {
    aligned: 1,
    expected: 0,
    mask: 0,
};

/// One superblock cache line: the fused program and verify plan compiled
/// at seal time from up to [`SUPERBLOCK_MAX_LEN`] consecutive decoded
/// instructions starting at `start`. As with the decode cache, an odd
/// `start` can never match a real pc and marks the line invalid.
#[derive(Debug, Clone, Copy)]
struct BlockLine {
    start: u32,
    /// Raw bits of the first step, so single-stepping can tell that an
    /// up-to-date block already starts at its pc.
    first_raw: u32,
    /// Entries of the fused program (each covers 1–2 steps).
    fused_len: u32,
    fused: [FusedEntry; SUPERBLOCK_MAX_LEN],
    /// Words of the verify plan, in fetch order.
    words_len: u32,
    words: [VerifyWord; SUPERBLOCK_MAX_WORDS],
}

// `Cpu::new` writes all `SUPERBLOCK_ENTRIES` lines eagerly, so the line
// size is construction cost: the noise-free counterpart of perfbench's
// `soc.build` timing.
const _: () = assert!(std::mem::size_of::<BlockLine>() <= 1_200);

const INVALID_BLOCK: BlockLine = BlockLine {
    start: 1,
    first_raw: 0,
    fused_len: 0,
    fused: [INVALID_FUSED; SUPERBLOCK_MAX_LEN],
    words_len: 0,
    words: [INVALID_WORD; SUPERBLOCK_MAX_WORDS],
};

/// In-progress superblock accumulator, grown as a side effect of
/// single-step execution (so chaining costs no extra fetches or decodes).
#[derive(Debug)]
struct BlockChain {
    start: u32,
    next_pc: u32,
    len: u32,
    steps: [BlockStep; SUPERBLOCK_MAX_LEN],
}

/// How an instruction participates in superblock chaining.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StepClass {
    /// Register-only: chains, and the block continues past it.
    Chain,
    /// Branch/jump: executes inside a block but terminates it.
    Close,
    /// Bus access, CSR/system, `fence`, or trap-capable: never enters a
    /// block; the chain ends just before it.
    Break,
}

fn classify(instr: &Instr) -> StepClass {
    match instr {
        Instr::Lui { .. }
        | Instr::Auipc { .. }
        | Instr::AluImm { .. }
        | Instr::Alu { .. }
        | Instr::MulDiv { .. } => StepClass::Chain,
        Instr::Jal { .. } | Instr::Jalr { .. } | Instr::Branch { .. } => StepClass::Close,
        _ => StepClass::Break,
    }
}

/// Compiles sealed block steps into the block's fused program, returning
/// the entry count. Each entry covers one step, or two when a fusable
/// pattern matches (see [`fuse_pair`]); `words_end[i]` is the verify-plan
/// word count through step `i` (see [`compile_words`]).
fn compile_fused(
    steps: &[BlockStep],
    words_end: &[u8; SUPERBLOCK_MAX_LEN],
    out: &mut [FusedEntry; SUPERBLOCK_MAX_LEN],
) -> u32 {
    let mut n = 0usize;
    let mut i = 0usize;
    while i < steps.len() {
        let (op, covered) = match steps
            .get(i + 1)
            .and_then(|b| fuse_pair(&steps[i], b))
        {
            Some(op) => (op, 2usize),
            None => (fuse_one(&steps[i]), 1usize),
        };
        let last = i + covered - 1;
        out[n] = FusedEntry {
            op,
            n: covered as u8,
            words_end: words_end[last],
            next_pc: steps[last].pc.wrapping_add(steps[last].size),
        };
        n += 1;
        i += covered;
    }
    n as u32
}

/// Compiles a block's verify plan: every aligned word its sequential
/// execution fetches, in fetch order, with the bits covered by
/// instruction parcels. Returns the word count and stores, per step, how
/// many words execution has fetched once that step is fetched.
fn compile_words(
    steps: &[BlockStep],
    out: &mut [VerifyWord; SUPERBLOCK_MAX_WORDS],
    words_end: &mut [u8; SUPERBLOCK_MAX_LEN],
) -> u32 {
    fn push(
        out: &mut [VerifyWord; SUPERBLOCK_MAX_WORDS],
        n: &mut usize,
        aligned: u32,
        expected: u32,
        mask: u32,
    ) {
        // Sequential steps revisit a word only consecutively, exactly
        // like the prefetch buffer: merge into the open word.
        if *n > 0 && out[*n - 1].aligned == aligned {
            out[*n - 1].expected |= expected;
            out[*n - 1].mask |= mask;
        } else {
            out[*n] = VerifyWord {
                aligned,
                expected,
                mask,
            };
            *n += 1;
        }
    }
    let mut n = 0usize;
    for (i, step) in steps.iter().enumerate() {
        let aligned = step.pc & !3;
        match (step.pc & 2 == 0, step.size) {
            // 32-bit instruction, word aligned.
            (true, 4) => push(out, &mut n, aligned, step.raw, 0xFFFF_FFFF),
            // 16-bit parcel in the low half of its word.
            (true, _) => push(out, &mut n, aligned, step.raw, 0xFFFF),
            // 16-bit parcel in the high half of its word.
            (false, 2) => push(out, &mut n, aligned, step.raw << 16, 0xFFFF_0000),
            // 32-bit instruction straddling a word boundary.
            (false, _) => {
                push(out, &mut n, aligned, (step.raw & 0xFFFF) << 16, 0xFFFF_0000);
                push(out, &mut n, aligned + 4, step.raw >> 16, 0xFFFF);
            }
        }
        words_end[i] = n as u8;
    }
    n as u32
}

/// Specializes one block step: register indices and immediates lifted
/// out of [`Instr`], pcs (`auipc` results, link values, jump/branch
/// targets, fallthroughs) constant-folded, M-extension stall
/// precomputed.
fn fuse_one(step: &BlockStep) -> FusedOp {
    let pc = step.pc;
    let next_pc = pc.wrapping_add(step.size);
    match step.instr {
        Instr::Lui { rd, imm } => FusedOp::SetImm { rd, value: imm },
        Instr::Auipc { rd, imm } => FusedOp::SetImm {
            rd,
            value: pc.wrapping_add(imm),
        },
        Instr::AluImm { op, rd, rs1, imm } => FusedOp::AluImm {
            op,
            rd,
            rs1,
            imm: imm as u32,
        },
        Instr::Alu { op, rd, rs1, rs2 } => FusedOp::Alu { op, rd, rs1, rs2 },
        Instr::MulDiv { op, rd, rs1, rs2 } => {
            let cost = match op {
                MulDivOp::Mul | MulDivOp::Mulh | MulDivOp::Mulhsu | MulDivOp::Mulhu => timing::MUL,
                _ => timing::DIV,
            };
            FusedOp::MulDiv {
                op,
                rd,
                rs1,
                rs2,
                extra: cost - 1,
            }
        }
        Instr::Jal { rd, offset } => FusedOp::Jal {
            rd,
            link: next_pc,
            target: pc.wrapping_add(offset as u32),
        },
        Instr::Jalr { rd, rs1, offset } => FusedOp::Jalr {
            rd,
            rs1,
            offset: offset as u32,
            link: next_pc,
        },
        Instr::Branch {
            op,
            rs1,
            rs2,
            offset,
        } => FusedOp::Branch {
            op,
            rs1,
            rs2,
            taken: pc.wrapping_add(offset as u32),
            fallthrough: next_pc,
        },
        // `classify` admits only the arms above into blocks.
        _ => unreachable!("non-chainable instruction inside a sealed block"),
    }
}

/// Tries to fuse two adjacent steps into one op. Every pattern has a
/// zero-stall ALU head writing `rd != x0` (so only the second
/// constituent bills a stall, and the `x0` discard special case can't
/// change semantics):
///
/// - `lui rd, hi` + `addi rd, rd, lo`: the folded 32-bit constant;
/// - `op1 rd, rs1, imm1` + `op2 rd, rd, imm2`: an ALU-immediate chain
///   through one live destination (the intermediate value is dead);
/// - `slt`/`sltu rd, rs1, rs2` + `beq`/`bne` of `rd` against `x0`
///   (either operand order): the comparison feeds the branch directly.
fn fuse_pair(a: &BlockStep, b: &BlockStep) -> Option<FusedOp> {
    match (a.instr, b.instr) {
        (
            Instr::Lui { rd, imm },
            Instr::AluImm {
                op: AluOp::Add,
                rd: rd2,
                rs1,
                imm: lo,
            },
        ) if rd != 0 && rd2 == rd && rs1 == rd => Some(FusedOp::LuiAddi {
            rd,
            value: imm.wrapping_add(lo as u32),
        }),
        (
            Instr::AluImm {
                op: op1,
                rd,
                rs1,
                imm: imm1,
            },
            Instr::AluImm {
                op: op2,
                rd: rd2,
                rs1: rs1b,
                imm: imm2,
            },
        ) if rd != 0 && rd2 == rd && rs1b == rd => Some(FusedOp::AluImmPair {
            rd,
            rs1,
            op1,
            imm1: imm1 as u32,
            op2,
            imm2: imm2 as u32,
        }),
        (
            Instr::Alu {
                op: cmp,
                rd,
                rs1,
                rs2,
            },
            Instr::Branch {
                op: br,
                rs1: b1,
                rs2: b2,
                offset,
            },
        ) if rd != 0
            && matches!(cmp, AluOp::Slt | AluOp::Sltu)
            && matches!(br, BranchOp::Eq | BranchOp::Ne)
            && ((b1 == rd && b2 == 0) || (b1 == 0 && b2 == rd)) =>
        {
            Some(FusedOp::CmpBranch {
                rd,
                rs1,
                rs2,
                unsigned: cmp == AluOp::Sltu,
                taken_if_set: br == BranchOp::Ne,
                taken: b.pc.wrapping_add(offset as u32),
                fallthrough: b.pc.wrapping_add(b.size),
            })
        }
        _ => None,
    }
}

/// Cumulative superblock-layer counters (see [`Cpu::superblock_stats`]).
///
/// Like the decode-cache hit/miss counts, these describe the *host-side
/// accelerator*, not the modelled hardware — they legitimately differ
/// between superblock and single-step runs of the same workload, so
/// differential tests must not compare them across modes.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SuperblockStats {
    /// Blocks sealed into the block cache.
    pub blocks_built: u64,
    /// Block-cache entries executed by [`Cpu::run_block`].
    pub block_runs: u64,
    /// Instructions retired from inside blocks.
    pub block_instrs: u64,
    /// Cycles billed in bulk by [`Cpu::run_block`].
    pub block_cycles: u64,
    /// Stale blocks dropped by [`Cpu::run_block`]'s verify: a raw-bits
    /// mismatch against memory (self-modified code). The instruction is
    /// then left to [`Cpu::tick`].
    pub verify_aborts: u64,
    /// Fused ops executed by the fused tier (each covers 1–2 retired
    /// instructions).
    pub fused_ops: u64,
    /// Fused ops covering two architectural instructions.
    pub fused_pairs: u64,
}

/// The Ibex-class RV32IM core.
///
/// Drive it with one [`Cpu::tick`] per clock cycle, passing the sampled
/// interrupt lines. All architectural effects (register/memory updates)
/// happen in the first cycle of an instruction; the remaining cycles of a
/// multi-cycle instruction are modelled as stall.
#[derive(Debug)]
pub struct Cpu {
    id: ComponentId,
    pc: u32,
    regs: RegFile,
    /// Machine-mode CSRs (public: scenarios preset `mtvec`/`mie`).
    pub csrs: CsrFile,
    state: CpuState,
    halt_cause: Option<HaltCause>,
    stall: u32,
    pending: Option<PendingLoad>,
    last_irq_ack: Option<u32>,
    /// Core cycle of the most recent `mret`, for the causal-flow layer
    /// (polled by the SoC only when flow tracing is on).
    mret_taken: Option<u64>,
    /// One-word prefetch buffer (Ibex-style): consecutive 16-bit parcels
    /// of the same word cost a single memory fetch.
    fetch_buf: Option<(u32, u32)>,
    /// Direct-mapped decoded-instruction cache. Purely a host-side
    /// accelerator: fetch traffic, timing and architectural effects are
    /// identical with the cache on or off (see [`Cpu::fetch_decode`]).
    dcache: Box<[DecodedLine; DECODE_CACHE_ENTRIES]>,
    dcache_enabled: bool,
    dcache_hits: u64,
    dcache_misses: u64,
    /// Direct-mapped superblock cache: chains of decoded instructions
    /// executed and billed in bulk by [`Cpu::run_block`]. Like the decode
    /// cache, purely a host-side accelerator — a block's raw bits are
    /// verified against memory before it runs, so execution is
    /// bit-identical with blocks on or off.
    blocks: Box<[BlockLine; SUPERBLOCK_ENTRIES]>,
    /// Superblock under construction (grown during single-step execution).
    chain: Box<BlockChain>,
    sb_enabled: bool,
    sb: SuperblockStats,
    // Statistics / activity.
    cycles: u64,
    retired: u64,
    fetches: u64,
    irq_entries: u64,
    irq_overhead_cycles: u64,
    sleep_cycles: u64,
    stall_cycles: u64,
}

impl Cpu {
    /// Creates a core that will start fetching at `reset_pc`.
    pub fn new(reset_pc: u32) -> Self {
        Self::with_name("ibex", reset_pc)
    }

    /// Creates a core with an explicit activity/trace name.
    pub fn with_name(name: impl AsRef<str>, reset_pc: u32) -> Self {
        Cpu {
            id: ComponentId::intern(name.as_ref()),
            pc: reset_pc,
            regs: RegFile::new(),
            csrs: CsrFile::new(),
            state: CpuState::Running,
            halt_cause: None,
            stall: 0,
            pending: None,
            last_irq_ack: None,
            mret_taken: None,
            fetch_buf: None,
            dcache: Box::new([INVALID_LINE; DECODE_CACHE_ENTRIES]),
            dcache_enabled: true,
            dcache_hits: 0,
            dcache_misses: 0,
            blocks: Box::new([INVALID_BLOCK; SUPERBLOCK_ENTRIES]),
            chain: Box::new(BlockChain {
                start: 1,
                next_pc: 1,
                len: 0,
                steps: [INVALID_STEP; SUPERBLOCK_MAX_LEN],
            }),
            sb_enabled: true,
            sb: SuperblockStats::default(),
            cycles: 0,
            retired: 0,
            fetches: 0,
            irq_entries: 0,
            irq_overhead_cycles: 0,
            sleep_cycles: 0,
            stall_cycles: 0,
        }
    }

    /// Current program counter.
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// Reads an architectural register.
    pub fn reg(&self, r: u8) -> u32 {
        self.regs.get(r)
    }

    /// Writes an architectural register (test/bring-up convenience).
    pub fn set_reg(&mut self, r: u8, v: u32) {
        self.regs.set(r, v);
    }

    /// Pipeline state.
    pub fn state(&self) -> CpuState {
        self.state
    }

    /// Whether the core is in `wfi` sleep.
    pub fn is_sleeping(&self) -> bool {
        self.state == CpuState::Sleeping
    }

    /// Whether the core halted, and why.
    pub fn halt_cause(&self) -> Option<HaltCause> {
        self.halt_cause
    }

    /// Elapsed core cycles.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Retired instructions.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Interrupt entries taken.
    pub fn irq_entries(&self) -> u64 {
        self.irq_entries
    }

    /// Takes the line of the most recent interrupt entry — the
    /// claim/acknowledge signal a platform interrupt controller uses to
    /// clear an edge-latched pending bit.
    pub fn take_irq_ack(&mut self) -> Option<u32> {
        self.last_irq_ack.take()
    }

    /// Takes the core cycle of the most recent `mret`, if one retired
    /// since the last poll — the handler-exit observation point of the
    /// causal-flow layer.
    pub fn take_mret(&mut self) -> Option<u64> {
        self.mret_taken.take()
    }

    /// Cycles spent asleep in `wfi`.
    pub fn sleep_cycles(&self) -> u64 {
        self.sleep_cycles
    }

    /// Enables or disables the decoded-instruction cache. The cache is a
    /// host-side accelerator only — both settings execute bit-identically
    /// (same fetch counts, timing and architectural effects); differential
    /// tests run the same workload under both to prove it. Disabling also
    /// flushes, so re-enabling starts cold with clean statistics.
    pub fn set_decode_cache_enabled(&mut self, enabled: bool) {
        if !enabled {
            self.flush_decode_cache();
            self.dcache_hits = 0;
            self.dcache_misses = 0;
        }
        self.dcache_enabled = enabled;
    }

    /// Whether the decoded-instruction cache is active.
    pub fn decode_cache_enabled(&self) -> bool {
        self.dcache_enabled
    }

    /// Decoded-instruction cache `(hits, misses)` since reset/disable.
    /// Block-level counters for the superblock layer built on top of the
    /// cache live in [`Cpu::superblock_stats`].
    pub fn decode_cache_stats(&self) -> (u64, u64) {
        (self.dcache_hits, self.dcache_misses)
    }

    /// Selects between the two CPU tiers: fused superblock execution
    /// ([`Cpu::run_block`], the default) or one instruction per
    /// [`Cpu::tick`]. Like the decode cache, superblocks are a host-side
    /// accelerator only — both settings execute bit-identically (same
    /// fetch counts, timing and architectural effects); the differential
    /// suites in `tests/active_path.rs` and
    /// `crates/cpu/tests/decode_cache.rs` run the same workloads under
    /// both to prove it. Disabling also flushes the block cache and
    /// clears the statistics.
    pub fn set_superblocks_enabled(&mut self, enabled: bool) {
        if !enabled {
            self.flush_superblocks();
            self.sb = SuperblockStats::default();
        }
        self.sb_enabled = enabled;
    }

    /// Whether superblock execution is active.
    pub fn superblocks_enabled(&self) -> bool {
        self.sb_enabled
    }

    /// Cumulative superblock counters since reset/disable.
    pub fn superblock_stats(&self) -> SuperblockStats {
        self.sb
    }

    /// Publishes the core's cumulative counters into an observability
    /// registry under the `cpu.` prefix. Gauges (overwrite semantics), so
    /// publishing is idempotent at any given point in a run.
    pub fn publish_metrics(&self, reg: &mut pels_obs::MetricsRegistry) {
        reg.set_named("cpu.cycles", self.cycles);
        reg.set_named("cpu.retired", self.retired);
        reg.set_named("cpu.fetches", self.fetches);
        reg.set_named("cpu.decode_cache.hits", self.dcache_hits);
        reg.set_named("cpu.decode_cache.misses", self.dcache_misses);
        reg.set_named("cpu.irq.entries", self.irq_entries);
        reg.set_named("cpu.irq.overhead_cycles", self.irq_overhead_cycles);
        reg.set_named("cpu.sleep_cycles", self.sleep_cycles);
        reg.set_named("cpu.stall_cycles", self.stall_cycles);
        reg.set_named("cpu.superblock.blocks_built", self.sb.blocks_built);
        reg.set_named("cpu.superblock.runs", self.sb.block_runs);
        reg.set_named("cpu.superblock.instrs", self.sb.block_instrs);
        reg.set_named("cpu.superblock.cycles", self.sb.block_cycles);
        reg.set_named("cpu.superblock.verify_aborts", self.sb.verify_aborts);
        reg.set_named("cpu.fused.ops", self.sb.fused_ops);
        reg.set_named("cpu.fused.pairs", self.sb.fused_pairs);
    }

    /// Invalidates every decoded-instruction cache line and superblock
    /// (the `fence.i` path; stores need no invalidation because decode
    /// hits and blocks verify the raw instruction bits).
    fn flush_decode_cache(&mut self) {
        self.dcache.fill(INVALID_LINE);
        self.flush_superblocks();
    }

    /// Invalidates every superblock line and abandons the chain under
    /// construction.
    fn flush_superblocks(&mut self) {
        for line in self.blocks.iter_mut() {
            line.start = 1;
        }
        self.chain.len = 0;
    }

    /// Accounts `k` cycles of WFI sleep (or halt) in one step, exactly as
    /// `k` calls to [`Cpu::tick`] would: `mcycle`/cycle/sleep counters
    /// advance, nothing else changes. Returns `false` — with no state
    /// mutated beyond mirroring `irq` into `mip`, which every tick does
    /// anyway — when the core is running, stalled, or a pending enabled
    /// interrupt would wake it, in which case the caller must tick
    /// normally.
    pub fn skip_idle_cycles(&mut self, k: u64, irq: u32) -> bool {
        self.csrs.mip = irq;
        match self.state {
            CpuState::Halted => {}
            CpuState::Sleeping => {
                if self.csrs.pending_interrupt().is_some() {
                    return false;
                }
                self.sleep_cycles += k;
            }
            _ => return false,
        }
        self.cycles += k;
        self.csrs.mcycle += k;
        true
    }

    /// Advances one clock cycle. `irq` carries the sampled interrupt
    /// lines (wired into `mip`).
    pub fn tick(&mut self, bus: &mut impl CpuBus, irq: u32) {
        self.cycles += 1;
        self.csrs.mcycle += 1;
        self.csrs.mip = irq;

        match self.state {
            CpuState::Halted => {}
            CpuState::Sleeping => {
                // WFI wakes on pending & mie-enabled interrupts regardless
                // of mstatus.MIE (RISC-V priv. spec; Ibex behaviour).
                if self.csrs.pending_interrupt().is_some() {
                    self.state = CpuState::Running;
                    self.stall = timing::WFI_WAKE;
                } else {
                    self.sleep_cycles += 1;
                }
            }
            _ if self.stall > 0 => {
                self.stall -= 1;
                self.stall_cycles += 1;
            }
            CpuState::MemWait => {
                if let Some(result) = bus.poll() {
                    let p = self.pending.take().expect("memwait without pending op");
                    match result {
                        Ok(rdata) => {
                            if p.is_load {
                                let v = extract_load(p.op, rdata, p.byte_in_word);
                                self.regs.set(p.rd, v);
                            }
                            self.state = CpuState::Running;
                        }
                        Err(()) => self.halt(HaltCause::BusFault { addr: p.addr }),
                    }
                } else {
                    self.stall_cycles += 1;
                }
            }
            CpuState::Running => {
                if self.csrs.interrupts_enabled() {
                    if let Some(line) = self.csrs.pending_interrupt() {
                        self.pc = self.csrs.enter_interrupt(self.pc, line);
                        self.stall = timing::IRQ_ENTRY - 1;
                        self.irq_entries += 1;
                        self.irq_overhead_cycles += u64::from(timing::IRQ_ENTRY);
                        self.last_irq_ack = Some(line);
                        return;
                    }
                }
                match self.fetch_decode(bus) {
                    Ok((instr, raw, size)) => {
                        if self.sb_enabled {
                            self.superblock_note(instr, raw, size);
                        }
                        self.execute(instr, size, bus);
                    }
                    Err(e) => self.halt(HaltCause::IllegalInstruction(e)),
                }
            }
        }
    }

    /// Runs until the core halts or sleeps, up to `max_cycles`. Returns
    /// the cycles consumed. Interrupt lines are held at `irq`.
    ///
    /// Uses [`Cpu::run_block`] opportunistically; the result is
    /// bit-identical to ticking `max_cycles` times.
    pub fn run(&mut self, bus: &mut impl CpuBus, irq: u32, max_cycles: u64) -> u64 {
        let start = self.cycles;
        while self.cycles - start < max_cycles {
            if self.state == CpuState::Halted || self.state == CpuState::Sleeping {
                break;
            }
            let remaining = max_cycles - (self.cycles - start);
            if self.run_block(bus, irq, remaining) == 0 {
                self.tick(bus, irq);
            }
        }
        self.cycles - start
    }

    /// Executes cached superblocks starting at the current pc, billing
    /// their cycles in bulk, for at most `budget` cycles. Returns the
    /// cycles consumed (0 when nothing could run in bulk — the caller
    /// must then [`Cpu::tick`] normally).
    ///
    /// The contract is exact equivalence: after `run_block` returns `k`,
    /// every architectural and accounting observable (registers, pc,
    /// CSRs, fetch traffic and prefetch-buffer state, `retired`,
    /// `stall_cycles`, pipeline state) matches what `k` consecutive
    /// [`Cpu::tick`] calls with the same `irq` image would have produced.
    /// That holds because:
    ///
    /// - blocks contain only register-only and branch/jump instructions
    ///   (see [`StepClass`]) — nothing that can touch the bus, CSRs,
    ///   `mie`/`mstatus`, or trap — so one interrupt-deliverability check
    ///   on entry covers the whole span;
    /// - each block is verified word by word in one side-effect-free
    ///   sweep; a stale block (self-modified code) is dropped, and `tick`
    ///   fetches and runs its first instruction as single-stepping does;
    /// - a verified block runs the longest prefix of its fused program
    ///   the budget covers, then charges exactly the fetches of that
    ///   prefix (`FusedEntry::words_end`); whatever does not fit is left
    ///   to `tick`;
    /// - an instruction's trailing stall is converted to bulk cycles only
    ///   up to the budget; any remainder stays in `stall` for the
    ///   per-cycle path, exactly as if the budget boundary had fallen
    ///   mid-stall.
    pub fn run_block(&mut self, bus: &mut impl CpuBus, irq: u32, budget: u64) -> u64 {
        if !self.sb_enabled || budget == 0 || self.state != CpuState::Running {
            return 0;
        }
        self.csrs.mip = irq;
        let mut used: u64 = 0;
        // Leftover multi-cycle-instruction stall: burn it in bulk,
        // exactly as that many stall ticks would.
        if self.stall > 0 {
            let take = u64::from(self.stall).min(budget);
            self.stall -= take as u32;
            self.stall_cycles += take;
            used = take;
        }
        // One interrupt check per entry: `mip` is pinned for the whole
        // span and block instructions cannot write `mie`/`mstatus`, so
        // deliverability cannot change until the block path exits.
        let irq_deliverable =
            self.csrs.interrupts_enabled() && self.csrs.pending_interrupt().is_some();
        if !irq_deliverable {
            // Verified blocks, by cache index: nothing inside `run_block`
            // can write memory (block steps are register-only or control
            // flow), so a block verified once stays verified for the
            // whole call and repeat iterations of a hot loop skip the
            // sweep.
            let mut verified: u64 = 0;
            while used < budget {
                let idx = (self.pc >> 1) as usize & (SUPERBLOCK_ENTRIES - 1);
                if self.blocks[idx].start != self.pc {
                    break;
                }
                self.sb.block_runs += 1;
                if verified & (1 << idx) == 0 {
                    if !self.verify_block(idx, bus) {
                        break;
                    }
                    verified |= 1 << idx;
                }
                let flen = self.blocks[idx].fused_len as usize;
                let mut ran = 0;
                let mut words_end = 0;
                while ran < flen {
                    let entry = self.blocks[idx].fused[ran];
                    if budget - used < u64::from(entry.n) {
                        break;
                    }
                    used += self.execute_fused(&entry, budget - used);
                    words_end = entry.words_end;
                    ran += 1;
                }
                self.charge_words(idx, words_end, bus);
                if ran < flen {
                    break;
                }
            }
        }
        self.sb.block_cycles += used;
        self.cycles += used;
        self.csrs.mcycle += used;
        used
    }

    /// Checks every covered instruction bit of the sealed block at `idx`
    /// with no side effects: the first word against the prefetch buffer
    /// when the buffer still holds it (its contents are what
    /// `fetch_decode` would use), every other word against memory. A
    /// stale block is dropped and counted in `verify_aborts`; nothing was
    /// fetched, so the next [`Cpu::tick`] fetches and decodes exactly as
    /// single-stepping would.
    fn verify_block(&mut self, idx: usize, bus: &impl CpuBus) -> bool {
        let line = &self.blocks[idx];
        let buf = self.fetch_buf;
        let stale = line.words[..line.words_len as usize]
            .iter()
            .enumerate()
            .any(|(w, vw)| {
                let word = match buf {
                    // Only the first fetch can hit the buffer: every
                    // later word is read right after its predecessor
                    // replaced it.
                    Some((a, v)) if w == 0 && a == vw.aligned => v,
                    _ => bus.peek_fetch(vw.aligned),
                };
                (word ^ vw.expected) & vw.mask != 0
            });
        if stale {
            self.sb.verify_aborts += 1;
            self.blocks[idx].start = 1;
        }
        !stale
    }

    /// Charges the fetch accounting of a block prefix that sequential
    /// execution covers with the first `words_end` words of the verify
    /// plan: one fetch per word, except a first word still in the
    /// prefetch buffer. The buffer ends holding the last charged word
    /// (unchanged when nothing was fetched).
    fn charge_words(&mut self, idx: usize, words_end: u8, bus: &mut impl CpuBus) {
        if words_end == 0 {
            return;
        }
        let words = &self.blocks[idx].words;
        let first = words[0].aligned;
        let last = words[usize::from(words_end) - 1].aligned;
        let hit0 = matches!(self.fetch_buf, Some((a, _)) if a == first);
        let misses = u32::from(words_end) - u32::from(hit0);
        if misses > 0 {
            self.fetches += u64::from(misses);
            bus.charge_fetches(misses);
            self.fetch_buf = Some((last, bus.peek_fetch(last)));
        }
    }

    /// Executes one fused entry, updating architectural state and
    /// accounting exactly as its constituent instructions would through
    /// `execute` + stall ticks, and returns the cycles consumed
    /// (`>= entry.n`; a stall remainder past `remaining` stays in
    /// `stall` for the per-cycle path). The caller guarantees
    /// `remaining >= entry.n`. Fused ops are register-only or
    /// block-sealing control flow, so the pipeline stays `Running`.
    fn execute_fused(&mut self, entry: &FusedEntry, remaining: u64) -> u64 {
        let mut extra: u32 = 0;
        let mut next_pc = entry.next_pc;
        match entry.op {
            FusedOp::SetImm { rd, value } => self.regs.set(rd, value),
            FusedOp::AluImm { op, rd, rs1, imm } => {
                let a = self.regs.read(rs1);
                self.regs.set(rd, alu(op, a, imm));
            }
            FusedOp::Alu { op, rd, rs1, rs2 } => {
                let a = self.regs.read(rs1);
                let b = self.regs.read(rs2);
                self.regs.set(rd, alu(op, a, b));
            }
            FusedOp::MulDiv {
                op,
                rd,
                rs1,
                rs2,
                extra: e,
            } => {
                let a = self.regs.read(rs1);
                let b = self.regs.read(rs2);
                self.regs.set(rd, muldiv(op, a, b));
                extra = e;
            }
            FusedOp::Jal { rd, link, target } => {
                self.regs.set(rd, link);
                next_pc = target;
                extra = timing::JUMP - 1;
            }
            FusedOp::Jalr {
                rd,
                rs1,
                offset,
                link,
            } => {
                let target = self.regs.read(rs1).wrapping_add(offset) & !1;
                self.regs.set(rd, link);
                next_pc = target;
                extra = timing::JUMP - 1;
            }
            FusedOp::Branch {
                op,
                rs1,
                rs2,
                taken,
                fallthrough,
            } => {
                let a = self.regs.read(rs1);
                let b = self.regs.read(rs2);
                let t = match op {
                    BranchOp::Eq => a == b,
                    BranchOp::Ne => a != b,
                    BranchOp::Lt => (a as i32) < (b as i32),
                    BranchOp::Ge => (a as i32) >= (b as i32),
                    BranchOp::Ltu => a < b,
                    BranchOp::Geu => a >= b,
                };
                if t {
                    next_pc = taken;
                    extra = timing::BRANCH_TAKEN - 1;
                } else {
                    next_pc = fallthrough;
                    extra = timing::BRANCH_NOT_TAKEN - 1;
                }
            }
            FusedOp::LuiAddi { rd, value } => {
                // `lui` writes rd; `addi` reads it and writes it again.
                // The intermediate value is dead but its port activity
                // is architectural.
                self.regs.set(rd, value);
                self.regs.count_ports(1, 1);
            }
            FusedOp::AluImmPair {
                rd,
                rs1,
                op1,
                imm1,
                op2,
                imm2,
            } => {
                let a = self.regs.read(rs1);
                self.regs.set(rd, alu(op2, alu(op1, a, imm1), imm2));
                self.regs.count_ports(1, 1);
            }
            FusedOp::CmpBranch {
                rd,
                rs1,
                rs2,
                unsigned,
                taken_if_set,
                taken,
                fallthrough,
            } => {
                let a = self.regs.read(rs1);
                let b = self.regs.read(rs2);
                let cond = if unsigned {
                    a < b
                } else {
                    (a as i32) < (b as i32)
                };
                self.regs.set(rd, u32::from(cond));
                // The sealing branch reads rd and x0.
                self.regs.count_ports(2, 0);
                if cond == taken_if_set {
                    next_pc = taken;
                    extra = timing::BRANCH_TAKEN - 1;
                } else {
                    next_pc = fallthrough;
                    extra = timing::BRANCH_NOT_TAKEN - 1;
                }
            }
        }
        self.pc = next_pc;
        let n = u64::from(entry.n);
        self.retired += n;
        self.csrs.minstret += n;
        self.sb.block_instrs += n;
        self.sb.fused_ops += 1;
        if entry.n == 2 {
            self.sb.fused_pairs += 1;
        }
        // Burn the last constituent's trailing stall in bulk up to the
        // budget; the remainder stays in `stall` for the per-cycle path,
        // which counts it as it burns. Pair heads are zero-stall, so only
        // the last constituent ever contributes.
        let take = u64::from(extra).min(remaining - n);
        self.stall = extra - take as u32;
        self.stall_cycles += take;
        n + take
    }

    /// Grows the superblock chain with the instruction about to execute
    /// at the current pc. Called from the single-step path, so chaining
    /// is a free side effect of normal execution — no extra fetches or
    /// decodes ever happen on a block's behalf.
    fn superblock_note(&mut self, instr: Instr, raw: u32, size: u32) {
        let pc = self.pc;
        if self.chain.len > 0 && pc != self.chain.next_pc {
            // Control arrived from elsewhere (interrupt entry, a partial
            // block run): the accumulated prefix is still a valid block.
            self.seal_chain();
        }
        let class = classify(&instr);
        if self.chain.len > 0 {
            match class {
                StepClass::Chain => {
                    self.chain_push(pc, raw, size, instr);
                    if self.chain.len as usize == SUPERBLOCK_MAX_LEN {
                        self.seal_chain();
                    }
                }
                StepClass::Close => {
                    self.chain_push(pc, raw, size, instr);
                    self.seal_chain();
                }
                StepClass::Break => self.seal_chain(),
            }
        } else if class == StepClass::Chain {
            // Start a new chain — unless a fresh block already starts
            // here (a hot loop would otherwise rebuild its block on every
            // single-stepped iteration).
            let idx = (pc >> 1) as usize & (SUPERBLOCK_ENTRIES - 1);
            let line = &self.blocks[idx];
            if line.start == pc && line.first_raw == raw {
                return;
            }
            self.chain.start = pc;
            self.chain.len = 0;
            self.chain_push(pc, raw, size, instr);
        }
    }

    fn chain_push(&mut self, pc: u32, raw: u32, size: u32, instr: Instr) {
        let c = &mut self.chain;
        c.steps[c.len as usize] = BlockStep { pc, raw, size, instr };
        c.len += 1;
        c.next_pc = pc.wrapping_add(size);
    }

    /// Stores the accumulated chain into the block cache (if it is long
    /// enough to be worth executing in bulk) and resets the accumulator.
    fn seal_chain(&mut self) {
        let len = self.chain.len;
        self.chain.len = 0;
        if len < 2 {
            return;
        }
        let start = self.chain.start;
        let idx = (start >> 1) as usize & (SUPERBLOCK_ENTRIES - 1);
        let steps = &self.chain.steps[..len as usize];
        let line = &mut self.blocks[idx];
        line.start = start;
        line.first_raw = steps[0].raw;
        let mut words_end = [0u8; SUPERBLOCK_MAX_LEN];
        line.words_len = compile_words(steps, &mut line.words, &mut words_end);
        line.fused_len = compile_fused(steps, &words_end, &mut line.fused);
        self.sb.blocks_built += 1;
    }

    fn halt(&mut self, cause: HaltCause) {
        self.state = CpuState::Halted;
        self.halt_cause = Some(cause);
    }

    /// Fetches and decodes the instruction at `pc`, handling 16-bit
    /// (compressed) parcels and 32-bit instructions straddling a word
    /// boundary (which costs a second fetch, as in Ibex's prefetch
    /// buffer).
    ///
    /// The fetch itself always runs — `fetches` accounting and
    /// prefetch-buffer state stay bit-identical whether the decode cache
    /// hits or not; a hit only replaces the `decode`/`decode_compressed`
    /// work with a tag + raw-bits compare against the fetched word.
    ///
    /// Returns `(instr, raw, size)`; the raw bits feed the superblock
    /// chain builder.
    fn fetch_decode(&mut self, bus: &mut impl CpuBus) -> Result<(Instr, u32, u32), DecodeError> {
        let pc = self.pc;
        let aligned = pc & !3;
        let word = self.fetch_word(aligned, bus);
        let low_half = if pc & 2 == 0 {
            (word & 0xFFFF) as u16
        } else {
            (word >> 16) as u16
        };
        let idx = (pc >> 1) as usize & (DECODE_CACHE_ENTRIES - 1);
        if is_compressed(low_half) {
            let raw = u32::from(low_half);
            if self.dcache_enabled {
                let line = self.dcache[idx];
                if line.pc == pc && line.raw == raw {
                    self.dcache_hits += 1;
                    return Ok((line.instr, raw, 2));
                }
            }
            let instr = decode_compressed(low_half, pc)?;
            self.fill_decode_cache(idx, pc, raw, instr);
            return Ok((instr, raw, 2));
        }
        let full = if pc & 2 == 0 {
            word
        } else {
            // 32-bit instruction straddling the word boundary.
            let next = self.fetch_word(aligned + 4, bus);
            u32::from(low_half) | (next << 16)
        };
        if self.dcache_enabled {
            let line = self.dcache[idx];
            if line.pc == pc && line.raw == full {
                self.dcache_hits += 1;
                return Ok((line.instr, full, 4));
            }
        }
        let instr = decode(full, pc)?;
        self.fill_decode_cache(idx, pc, full, instr);
        Ok((instr, full, 4))
    }

    fn fill_decode_cache(&mut self, idx: usize, pc: u32, raw: u32, instr: Instr) {
        if self.dcache_enabled {
            self.dcache_misses += 1;
            self.dcache[idx] = DecodedLine { pc, raw, instr };
        }
    }

    /// Reads an instruction word through the prefetch buffer.
    fn fetch_word(&mut self, aligned: u32, bus: &mut impl CpuBus) -> u32 {
        if let Some((addr, word)) = self.fetch_buf {
            if addr == aligned {
                return word;
            }
        }
        let word = bus.fetch(aligned);
        self.fetches += 1;
        self.fetch_buf = Some((aligned, word));
        word
    }

    /// Retires one instruction. Its `extra_stall` trailing cycles are
    /// counted in `stall_cycles` as they burn (stall ticks or a bulk
    /// take in [`Cpu::run_block`]), never here.
    fn retire(&mut self, extra_stall: u32) {
        self.retired += 1;
        self.csrs.minstret += 1;
        self.stall = extra_stall;
    }

    fn execute(&mut self, instr: Instr, size: u32, bus: &mut impl CpuBus) {
        let next_pc = self.pc.wrapping_add(size);
        match instr {
            Instr::Lui { rd, imm } => {
                self.regs.set(rd, imm);
                self.pc = next_pc;
                self.retire(timing::ALU - 1);
            }
            Instr::Auipc { rd, imm } => {
                self.regs.set(rd, self.pc.wrapping_add(imm));
                self.pc = next_pc;
                self.retire(timing::ALU - 1);
            }
            Instr::Jal { rd, offset } => {
                self.regs.set(rd, next_pc);
                self.pc = self.pc.wrapping_add(offset as u32);
                self.retire(timing::JUMP - 1);
            }
            Instr::Jalr { rd, rs1, offset } => {
                let target = self.regs.read(rs1).wrapping_add(offset as u32) & !1;
                self.regs.set(rd, next_pc);
                self.pc = target;
                self.retire(timing::JUMP - 1);
            }
            Instr::Branch {
                op,
                rs1,
                rs2,
                offset,
            } => {
                let a = self.regs.read(rs1);
                let b = self.regs.read(rs2);
                let taken = match op {
                    BranchOp::Eq => a == b,
                    BranchOp::Ne => a != b,
                    BranchOp::Lt => (a as i32) < (b as i32),
                    BranchOp::Ge => (a as i32) >= (b as i32),
                    BranchOp::Ltu => a < b,
                    BranchOp::Geu => a >= b,
                };
                if taken {
                    self.pc = self.pc.wrapping_add(offset as u32);
                    self.retire(timing::BRANCH_TAKEN - 1);
                } else {
                    self.pc = next_pc;
                    self.retire(timing::BRANCH_NOT_TAKEN - 1);
                }
            }
            Instr::Load { op, rd, rs1, offset } => {
                let addr = self.regs.read(rs1).wrapping_add(offset as u32);
                if misaligned(op_width_load(op), addr) {
                    self.halt(HaltCause::BusFault { addr });
                    return;
                }
                let word_addr = addr & !3;
                let byte = addr & 3;
                match bus.data(DataReq::read(word_addr)) {
                    DataResult::Done { value, extra_cycles } => {
                        self.regs.set(rd, extract_load(op, value, byte));
                        self.pc = next_pc;
                        self.retire(timing::LOAD_BASE - 1 + extra_cycles);
                    }
                    DataResult::Pending => {
                        self.pending = Some(PendingLoad {
                            rd,
                            op,
                            byte_in_word: byte,
                            is_load: true,
                            addr,
                        });
                        self.pc = next_pc;
                        self.retired += 1;
                        self.csrs.minstret += 1;
                        self.state = CpuState::MemWait;
                    }
                    DataResult::Fault => self.halt(HaltCause::BusFault { addr }),
                }
            }
            Instr::Store {
                op,
                rs1,
                rs2,
                offset,
            } => {
                // A store may hit the instruction stream: drop the
                // prefetch buffer (trivially conservative).
                self.fetch_buf = None;
                let addr = self.regs.read(rs1).wrapping_add(offset as u32);
                if misaligned(op_width_store(op), addr) {
                    self.halt(HaltCause::BusFault { addr });
                    return;
                }
                let word_addr = addr & !3;
                let byte = addr & 3;
                let value = self.regs.read(rs2);
                let (wdata, strobe) = merge_store(op, value, byte);
                match bus.data(DataReq::write(word_addr, wdata, strobe)) {
                    DataResult::Done { extra_cycles, .. } => {
                        self.pc = next_pc;
                        self.retire(timing::STORE_BASE - 1 + extra_cycles);
                    }
                    DataResult::Pending => {
                        self.pending = Some(PendingLoad {
                            rd: 0,
                            op: LoadOp::Word,
                            byte_in_word: 0,
                            is_load: false,
                            addr,
                        });
                        self.pc = next_pc;
                        self.retired += 1;
                        self.csrs.minstret += 1;
                        self.state = CpuState::MemWait;
                    }
                    DataResult::Fault => self.halt(HaltCause::BusFault { addr }),
                }
            }
            Instr::AluImm { op, rd, rs1, imm } => {
                let a = self.regs.read(rs1);
                self.regs.set(rd, alu(op, a, imm as u32));
                self.pc = next_pc;
                self.retire(timing::ALU - 1);
            }
            Instr::Alu { op, rd, rs1, rs2 } => {
                let a = self.regs.read(rs1);
                let b = self.regs.read(rs2);
                self.regs.set(rd, alu(op, a, b));
                self.pc = next_pc;
                self.retire(timing::ALU - 1);
            }
            Instr::MulDiv { op, rd, rs1, rs2 } => {
                let a = self.regs.read(rs1);
                let b = self.regs.read(rs2);
                self.regs.set(rd, muldiv(op, a, b));
                self.pc = next_pc;
                let cost = match op {
                    MulDivOp::Mul | MulDivOp::Mulh | MulDivOp::Mulhsu | MulDivOp::Mulhu => {
                        timing::MUL
                    }
                    _ => timing::DIV,
                };
                self.retire(cost - 1);
            }
            Instr::Csr { op, rd, src, csr } => {
                let old = self.csrs.read(csr);
                let operand = match src {
                    CsrSrc::Reg(rs1) => self.regs.read(rs1),
                    CsrSrc::Imm(i) => u32::from(i),
                };
                let write_needed = match src {
                    // csrrs/csrrc with x0 / imm 0 must not write.
                    CsrSrc::Reg(0) | CsrSrc::Imm(0) => op == CsrOp::ReadWrite,
                    _ => true,
                };
                if write_needed {
                    let new = match op {
                        CsrOp::ReadWrite => operand,
                        CsrOp::ReadSet => old | operand,
                        CsrOp::ReadClear => old & !operand,
                    };
                    self.csrs.write(csr, new);
                }
                self.regs.set(rd, old);
                self.pc = next_pc;
                self.retire(timing::ALU - 1);
            }
            Instr::Fence => {
                // Covers both `fence` and `fence.i` (the decoder folds the
                // whole MISC-MEM opcode into one instruction): any fence
                // re-synchronises the instruction stream, so drop every
                // cached decode.
                self.flush_decode_cache();
                self.pc = next_pc;
                self.retire(timing::ALU - 1);
            }
            Instr::Ecall => self.halt(HaltCause::Ecall),
            Instr::Ebreak => self.halt(HaltCause::Ebreak),
            Instr::Mret => {
                self.pc = self.csrs.exit_interrupt();
                self.mret_taken = Some(self.cycles);
                self.retire(timing::MRET - 1);
            }
            Instr::Wfi => {
                self.pc = next_pc;
                self.retired += 1;
                self.csrs.minstret += 1;
                self.state = CpuState::Sleeping;
            }
        }
    }

    /// Drains accumulated activity (fetches, retired instructions,
    /// register-file ports, interrupt overhead) into `into`.
    pub fn drain_activity(&mut self, into: &mut ActivitySet) {
        into.record(self.id, ActivityKind::InstrFetch, self.fetches);
        into.record(self.id, ActivityKind::InstrRetired, self.retired);
        into.record(
            self.id,
            ActivityKind::IrqOverhead,
            self.irq_overhead_cycles,
        );
        let (r, w) = self.regs.take_port_counts();
        into.record(self.id, ActivityKind::RegRead, r);
        into.record(self.id, ActivityKind::RegWrite, w);
        self.fetches = 0;
        self.retired = 0;
        self.irq_overhead_cycles = 0;
    }
}

fn misaligned(width: u32, addr: u32) -> bool {
    !addr.is_multiple_of(width)
}

fn op_width_load(op: LoadOp) -> u32 {
    match op {
        LoadOp::Byte | LoadOp::ByteU => 1,
        LoadOp::Half | LoadOp::HalfU => 2,
        LoadOp::Word => 4,
    }
}

fn op_width_store(op: StoreOp) -> u32 {
    match op {
        StoreOp::Byte => 1,
        StoreOp::Half => 2,
        StoreOp::Word => 4,
    }
}

fn extract_load(op: LoadOp, word: u32, byte: u32) -> u32 {
    match op {
        LoadOp::Word => word,
        LoadOp::Byte => (((word >> (byte * 8)) & 0xFF) as i8) as i32 as u32,
        LoadOp::ByteU => (word >> (byte * 8)) & 0xFF,
        LoadOp::Half => (((word >> (byte * 8)) & 0xFFFF) as i16) as i32 as u32,
        LoadOp::HalfU => (word >> (byte * 8)) & 0xFFFF,
    }
}

fn merge_store(op: StoreOp, value: u32, byte: u32) -> (u32, u8) {
    match op {
        StoreOp::Word => (value, 0b1111),
        StoreOp::Half => ((value & 0xFFFF) << (byte * 8), 0b0011 << byte),
        StoreOp::Byte => ((value & 0xFF) << (byte * 8), 1 << byte),
    }
}

fn alu(op: AluOp, a: u32, b: u32) -> u32 {
    match op {
        AluOp::Add => a.wrapping_add(b),
        AluOp::Sub => a.wrapping_sub(b),
        AluOp::Slt => u32::from((a as i32) < (b as i32)),
        AluOp::Sltu => u32::from(a < b),
        AluOp::Xor => a ^ b,
        AluOp::Or => a | b,
        AluOp::And => a & b,
        AluOp::Sll => a.wrapping_shl(b & 31),
        AluOp::Srl => a.wrapping_shr(b & 31),
        AluOp::Sra => ((a as i32).wrapping_shr(b & 31)) as u32,
    }
}

fn muldiv(op: MulDivOp, a: u32, b: u32) -> u32 {
    match op {
        MulDivOp::Mul => a.wrapping_mul(b),
        MulDivOp::Mulh => (((a as i32 as i64) * (b as i32 as i64)) >> 32) as u32,
        MulDivOp::Mulhsu => (((a as i32 as i64) * b as i64) >> 32) as u32,
        MulDivOp::Mulhu => ((u64::from(a) * u64::from(b)) >> 32) as u32,
        MulDivOp::Div => {
            if b == 0 {
                u32::MAX
            } else if a == 0x8000_0000 && b == u32::MAX {
                a
            } else {
                ((a as i32) / (b as i32)) as u32
            }
        }
        MulDivOp::Divu => a.checked_div(b).unwrap_or(u32::MAX),
        MulDivOp::Rem => {
            if b == 0 {
                a
            } else if a == 0x8000_0000 && b == u32::MAX {
                0
            } else {
                ((a as i32) % (b as i32)) as u32
            }
        }
        MulDivOp::Remu => a.checked_rem(b).unwrap_or(a),
    }
}

#[cfg(test)]
#[allow(clippy::vec_init_then_push)]
mod tests {
    use super::*;
    use crate::asm;
    use crate::bus::SimpleBus;

    fn run_program(program: &[u32], max: u64) -> (Cpu, SimpleBus) {
        let mut bus = SimpleBus::new(64 * 1024);
        bus.load(0, program);
        let mut cpu = Cpu::new(0);
        cpu.run(&mut bus, 0, max);
        (cpu, bus)
    }

    #[test]
    fn arithmetic_program() {
        let mut p = vec![];
        p.extend(asm::li32(1, 100));
        p.extend(asm::li32(2, 42));
        p.push(asm::sub(3, 1, 2)); // 58
        p.push(asm::slli(4, 3, 2)); // 232
        p.push(asm::xori(5, 4, 0xFF)); // 232 ^ 255 = 23
        p.push(asm::ecall());
        let (cpu, _) = run_program(&p, 100);
        assert_eq!(cpu.halt_cause(), Some(HaltCause::Ecall));
        assert_eq!(cpu.reg(3), 58);
        assert_eq!(cpu.reg(4), 232);
        assert_eq!(cpu.reg(5), 23);
    }

    #[test]
    fn loads_and_stores_all_widths() {
        let mut p = vec![];
        p.extend(asm::li32(1, 0x1000)); // base
        p.extend(asm::li32(2, 0xDEAD_BEEF));
        p.push(asm::sw(1, 2, 0));
        p.push(asm::lw(3, 1, 0));
        p.push(asm::lb(4, 1, 0)); // 0xEF sign-extended
        p.push(asm::lbu(5, 1, 0));
        p.push(asm::lh(6, 1, 2)); // 0xDEAD sign-extended
        p.push(asm::lhu(7, 1, 2));
        p.push(asm::sb(1, 2, 4)); // byte 0xEF at 0x1004
        p.push(asm::sh(1, 2, 8)); // half 0xBEEF at 0x1008
        p.push(asm::ecall());
        let (cpu, bus) = run_program(&p, 100);
        assert_eq!(cpu.reg(3), 0xDEAD_BEEF);
        assert_eq!(cpu.reg(4), 0xFFFF_FFEF);
        assert_eq!(cpu.reg(5), 0xEF);
        assert_eq!(cpu.reg(6), 0xFFFF_DEAD);
        assert_eq!(cpu.reg(7), 0xDEAD);
        assert_eq!(bus.word(0x1004) & 0xFF, 0xEF);
        assert_eq!(bus.word(0x1008) & 0xFFFF, 0xBEEF);
    }

    #[test]
    fn branch_loop_counts() {
        // for (i = 0; i != 5; i++) sum += i;  => sum = 10
        let mut p = vec![];
        p.push(asm::addi(1, 0, 0)); // i
        p.push(asm::addi(2, 0, 0)); // sum
        p.push(asm::addi(3, 0, 5)); // limit
        // loop:
        p.push(asm::add(2, 2, 1));
        p.push(asm::addi(1, 1, 1));
        p.push(asm::bne(1, 3, -8));
        p.push(asm::ecall());
        let (cpu, _) = run_program(&p, 200);
        assert_eq!(cpu.reg(2), 10);
    }

    #[test]
    fn jal_and_jalr_link() {
        let mut p = vec![];
        p.push(asm::jal(1, 12)); // skip two instructions
        p.push(asm::addi(2, 0, 99)); // skipped
        p.push(asm::ecall()); // skipped
        p.push(asm::jalr(3, 1, 0)); // jump back to pc=4
        let (cpu, _) = run_program(&p, 100);
        assert_eq!(cpu.halt_cause(), Some(HaltCause::Ecall));
        assert_eq!(cpu.reg(1), 4);
        assert_eq!(cpu.reg(2), 99);
        assert_eq!(cpu.reg(3), 16);
    }

    #[test]
    fn muldiv_results() {
        let mut p = vec![];
        p.extend(asm::li32(1, 7));
        p.extend(asm::li32(2, 0xFFFF_FFFD)); // -3
        p.push(asm::mul(3, 1, 2)); // -21
        p.push(asm::div(4, 2, 1)); // -3 / 7 = 0
        p.push(asm::rem(5, 2, 1)); // -3 % 7 = -3
        p.push(asm::divu(6, 2, 1)); // big / 7
        p.push(asm::mulhu(7, 2, 2));
        p.push(asm::ecall());
        let (cpu, _) = run_program(&p, 200);
        assert_eq!(cpu.reg(3) as i32, -21);
        assert_eq!(cpu.reg(4), 0);
        assert_eq!(cpu.reg(5) as i32, -3);
        assert_eq!(cpu.reg(6), 0xFFFF_FFFD / 7);
        assert_eq!(cpu.reg(7), ((0xFFFF_FFFDu64 * 0xFFFF_FFFDu64) >> 32) as u32);
    }

    #[test]
    fn division_by_zero_follows_spec() {
        let mut p = vec![];
        p.extend(asm::li32(1, 10));
        p.push(asm::div(2, 1, 0));
        p.push(asm::rem(3, 1, 0));
        p.push(asm::ecall());
        let (cpu, _) = run_program(&p, 100);
        assert_eq!(cpu.reg(2), u32::MAX);
        assert_eq!(cpu.reg(3), 10);
    }

    #[test]
    fn timing_alu_is_one_cycle() {
        let p = [asm::addi(1, 0, 1), asm::addi(2, 0, 2), asm::ecall()];
        let mut bus = SimpleBus::new(4096);
        bus.load(0, &p);
        let mut cpu = Cpu::new(0);
        cpu.tick(&mut bus, 0);
        assert_eq!(cpu.reg(1), 1);
        cpu.tick(&mut bus, 0);
        assert_eq!(cpu.reg(2), 2);
    }

    #[test]
    fn timing_load_takes_two_cycles() {
        let p = [asm::lw(1, 0, 0x100), asm::addi(2, 0, 1), asm::ecall()];
        let mut bus = SimpleBus::new(4096);
        bus.load(0, &p);
        bus.load(0x100, &[77]);
        let mut cpu = Cpu::new(0);
        cpu.tick(&mut bus, 0); // load issues + completes, stall 1
        assert_eq!(cpu.reg(1), 77);
        cpu.tick(&mut bus, 0); // stall cycle
        assert_eq!(cpu.reg(2), 0);
        cpu.tick(&mut bus, 0); // addi
        assert_eq!(cpu.reg(2), 1);
    }

    #[test]
    fn timing_taken_branch_three_cycles() {
        let p = [
            asm::beq(0, 0, 8), // taken: 3 cycles
            asm::ecall(),
            asm::addi(1, 0, 1),
            asm::ecall(),
        ];
        let mut bus = SimpleBus::new(4096);
        bus.load(0, &p);
        let mut cpu = Cpu::new(0);
        cpu.tick(&mut bus, 0);
        cpu.tick(&mut bus, 0);
        cpu.tick(&mut bus, 0);
        assert_eq!(cpu.reg(1), 0, "target not yet executed");
        cpu.tick(&mut bus, 0);
        assert_eq!(cpu.reg(1), 1);
    }

    #[test]
    fn stall_cycles_count_each_burned_cycle_once() {
        // A taken `beq` retires in its issue cycle; its two trailing
        // cycles are stall, counted as they burn and never at retire.
        let p = [asm::beq(0, 0, 8), asm::ecall(), asm::addi(1, 0, 1)];
        let mut bus = SimpleBus::new(4096);
        bus.load(0, &p);
        let mut cpu = Cpu::new(0);
        cpu.set_superblocks_enabled(false);
        for _ in 0..3 {
            cpu.tick(&mut bus, 0);
        }
        assert_eq!((cpu.cycles(), cpu.retired(), cpu.stall_cycles), (3, 1, 2));
    }

    #[test]
    fn wfi_wake_stall_is_counted_once() {
        let mut bus = SimpleBus::new(4096);
        bus.load(0, &[asm::wfi()]);
        let mut cpu = Cpu::new(0);
        cpu.csrs.mie = 1 << 11;
        cpu.run(&mut bus, 0, 10);
        assert!(cpu.is_sleeping());
        let before = cpu.stall_cycles;
        // The wake cycle arms the stall; the stall ticks burn it.
        for _ in 0..=timing::WFI_WAKE {
            cpu.tick(&mut bus, 1 << 11);
        }
        assert_eq!(cpu.stall_cycles - before, u64::from(timing::WFI_WAKE));
    }

    #[test]
    fn slow_region_stalls_pipeline() {
        let p = [asm::lw(1, 0, 0x200), asm::addi(2, 0, 5), asm::ecall()];
        let mut bus = SimpleBus::new(4096);
        bus.load(0, &p);
        bus.load(0x200, &[123]);
        bus.set_slow_region(0x200, 4, 3);
        let mut cpu = Cpu::new(0);
        let used = cpu.run(&mut bus, 0, 100);
        assert_eq!(cpu.reg(1), 123);
        assert_eq!(cpu.reg(2), 5);
        assert!(used > 5, "waited on the slow bus ({used} cycles)");
    }

    #[test]
    fn wfi_sleeps_until_interrupt_then_vectors() {
        // mtvec = 0x100 (vectored); enable line 11; wfi; after wake the
        // handler at 0x100 + 4*11 runs and writes x5.
        let mut p = vec![];
        p.extend(asm::li32(1, 0x100));
        p.push(asm::csrrw(0, crate::csr::addr::MTVEC, 1));
        p.extend(asm::li32(2, 1 << 11));
        p.push(asm::csrrw(0, crate::csr::addr::MIE, 2));
        p.push(asm::csrrsi(0, crate::csr::addr::MSTATUS, 8)); // MIE
        p.push(asm::wfi());
        let mut bus = SimpleBus::new(4096);
        bus.load(0, &p);
        bus.load(0x100 + 4 * 11, &[asm::jal(0, 0x100)]); // vector: jump to 0x22C
        bus.load(0x22C, &[asm::addi(5, 0, 42), asm::mret()]);
        let mut cpu = Cpu::new(0);
        cpu.run(&mut bus, 0, 100);
        assert!(cpu.is_sleeping());
        let slept_at = cpu.cycles();
        // Hold the line high; core wakes, vectors, runs the handler.
        for _ in 0..40 {
            cpu.tick(&mut bus, 1 << 11);
        }
        assert_eq!(cpu.reg(5), 42);
        // Level-triggered line held high: the handler re-enters after each
        // mret, so at least one entry must have happened.
        assert!(cpu.irq_entries() >= 1);
        assert!(cpu.cycles() > slept_at);
        // mret returned after the wfi; with the line still pending the
        // handler re-enters (level-triggered), which is fine — what
        // matters here is that state was restored.
        assert!(cpu.csrs.mepc > 0);
    }

    #[test]
    fn interrupt_not_taken_when_disabled() {
        let p = [asm::addi(1, 1, 1), asm::jal(0, -4)];
        let mut bus = SimpleBus::new(4096);
        bus.load(0, &p);
        let mut cpu = Cpu::new(0);
        for _ in 0..50 {
            cpu.tick(&mut bus, 0xFFFF_FFFF);
        }
        assert_eq!(cpu.irq_entries(), 0);
    }

    #[test]
    fn illegal_instruction_halts_with_cause() {
        let (cpu, _) = run_program(&[0xFFFF_FFFF], 10);
        assert!(matches!(
            cpu.halt_cause(),
            Some(HaltCause::IllegalInstruction(_))
        ));
    }

    #[test]
    fn misaligned_word_access_faults() {
        let mut p = vec![];
        p.extend(asm::li32(1, 0x1001));
        p.push(asm::lw(2, 1, 0));
        let (cpu, _) = run_program(&p, 10);
        assert_eq!(
            cpu.halt_cause(),
            Some(HaltCause::BusFault { addr: 0x1001 })
        );
    }

    #[test]
    fn csr_set_clear_semantics() {
        let mut p = vec![];
        p.push(asm::csrrwi(0, crate::csr::addr::MSCRATCH, 0b1010));
        p.push(asm::csrrsi(1, crate::csr::addr::MSCRATCH, 0b0101)); // old in x1
        p.push(asm::csrrci(2, crate::csr::addr::MSCRATCH, 0b0011)); // old in x2
        p.push(asm::csrrs(3, crate::csr::addr::MSCRATCH, 0)); // read-only
        p.push(asm::ecall());
        let (cpu, _) = run_program(&p, 50);
        assert_eq!(cpu.reg(1), 0b1010);
        assert_eq!(cpu.reg(2), 0b1111);
        assert_eq!(cpu.reg(3), 0b1100);
    }

    #[test]
    fn activity_drain_reports_fetches_and_retires() {
        let (mut cpu, _) = run_program(&[asm::addi(1, 0, 1), asm::ecall()], 10);
        let mut a = ActivitySet::new();
        cpu.drain_activity(&mut a);
        assert_eq!(a.count("ibex", ActivityKind::InstrFetch), 2);
        assert!(a.count("ibex", ActivityKind::RegWrite) >= 1);
    }

    /// Packs two 16-bit parcels into a little-endian program word.
    fn pack16(lo: u16, hi: u16) -> u32 {
        u32::from(lo) | (u32::from(hi) << 16)
    }

    #[test]
    fn compressed_program_executes_with_halfword_pc() {
        // c.li a0, 5 ; c.li a1, 7 ; c.add a0, a1 ; c.ebreak
        let p = [
            pack16(0x4515, 0x459D), // c.li a0,5 | c.li a1,7
            pack16(0x952E, 0x9002), // c.add a0,a1 | c.ebreak
        ];
        let mut bus = SimpleBus::new(4096);
        bus.load(0, &p);
        let mut cpu = Cpu::new(0);
        cpu.run(&mut bus, 0, 50);
        assert_eq!(cpu.halt_cause(), Some(HaltCause::Ebreak));
        assert_eq!(cpu.reg(10), 12);
        assert_eq!(cpu.retired(), 3);
    }

    #[test]
    fn straddling_32bit_instruction_costs_extra_fetch() {
        // c.nop, then a 32-bit addi straddling the word boundary.
        let addi = asm::addi(1, 0, 42);
        let p = [
            pack16(0x0001, (addi & 0xFFFF) as u16),
            pack16((addi >> 16) as u16, 0x9002), // ...addi hi | c.ebreak
        ];
        let mut bus = SimpleBus::new(4096);
        bus.load(0, &p);
        let mut cpu = Cpu::new(0);
        cpu.run(&mut bus, 0, 50);
        assert_eq!(cpu.reg(1), 42);
        assert_eq!(cpu.halt_cause(), Some(HaltCause::Ebreak));
        // With the prefetch buffer: c.nop fetches word 0; the straddling
        // addi reuses word 0 and fetches word 1; c.ebreak reuses word 1.
        assert_eq!(bus.fetches, 2);
    }

    #[test]
    fn compressed_branch_and_jump_use_halfword_offsets() {
        // 0x0: c.beqz a0, +6  (a0 == 0 -> taken, to 0x6)
        // 0x2: c.li a1, 1     (skipped)
        // 0x4: c.li a2, 2     (skipped)
        // 0x6: c.li a3, 3
        // 0x8: c.ebreak
        let p = [
            pack16(0xC119, 0x4585), // c.beqz a0,+6 | c.li a1,1
            pack16(0x4609, 0x468D), // c.li a2,2 | c.li a3,3
            pack16(0x9002, 0x0001),
        ];
        let mut bus = SimpleBus::new(4096);
        bus.load(0, &p);
        let mut cpu = Cpu::new(0);
        cpu.run(&mut bus, 0, 50);
        assert_eq!(cpu.reg(11), 0, "skipped");
        assert_eq!(cpu.reg(12), 0, "skipped");
        assert_eq!(cpu.reg(13), 3, "branch target executed");
    }

    #[test]
    fn compressed_code_halves_fetch_traffic() {
        // The same loop body in compressed form issues ~half the fetch
        // words of the 32-bit form (the memory-activity argument for C).
        // 32-bit: addi x5,x5,1 x20; ecall.
        let mut wide = vec![];
        for _ in 0..20 {
            wide.push(asm::addi(5, 5, 1));
        }
        wide.push(asm::ecall());
        let mut bus_w = SimpleBus::new(4096);
        bus_w.load(0, &wide);
        let mut cpu_w = Cpu::new(0);
        cpu_w.run(&mut bus_w, 0, 200);
        // Compressed: c.addi x5, 1 = 0x0285.
        let mut narrow = vec![];
        for _ in 0..10 {
            narrow.push(pack16(0x0285, 0x0285));
        }
        narrow.push(pack16(0x9002, 0x0001)); // c.ebreak
        let mut bus_n = SimpleBus::new(4096);
        bus_n.load(0, &narrow);
        let mut cpu_n = Cpu::new(0);
        cpu_n.run(&mut bus_n, 0, 200);
        assert_eq!(cpu_w.reg(5), 20);
        assert_eq!(cpu_n.reg(5), 20);
        assert!(
            bus_n.fetches <= bus_w.fetches / 2 + 2,
            "compressed {} vs wide {}",
            bus_n.fetches,
            bus_w.fetches
        );
    }

    #[test]
    fn minstret_counts_retired() {
        let (cpu, _) = run_program(
            &[asm::addi(1, 0, 1), asm::addi(2, 0, 2), asm::ecall()],
            10,
        );
        assert_eq!(cpu.csrs.minstret, 2); // ecall halts without retiring
        assert_eq!(cpu.retired(), 2);
    }
}
