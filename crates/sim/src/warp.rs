//! Warp (sub-workgroup) state: registers, the SIMT reconvergence stack, and
//! functional execution of scalar/control instructions.
//!
//! Divergence follows the classic immediate-post-dominator scheme (§2.1):
//! a divergent branch pushes both sides onto the stack with the branch
//! block's ipdom as reconvergence point; reaching the reconvergence block
//! pops one side and resumes the other, and the merged continuation runs
//! once both sides arrive.

use gpushield_isa::{
    AddrExpr, BinOp, BlockId, CmpOp, Instr, Kernel, MemSpace, Operand, ReconvergenceTable, Special,
    TaggedPtr, UnOp, VReg,
};

/// The simulated virtual-address width: global lane addresses wrap here.
pub(crate) const VA_MASK: u64 = (1 << 48) - 1;

/// Per-launch uniform values needed to evaluate operands.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ExecCtx<'a> {
    pub args: &'a [u64],
    pub local_bases: &'a [u64],
    pub block_dim: u64,
    pub grid_dim: u64,
}

#[derive(Debug, Clone)]
pub(crate) struct StackEntry {
    /// Next instruction; `None` means "finished, pop me".
    pub pc: Option<(BlockId, usize)>,
    pub mask: u64,
    /// Reconvergence block: arriving here pops this entry.
    pub rpc: Option<BlockId>,
}

/// What `exec_simple` asks the core to do next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SimpleOutcome {
    /// Instruction fully handled; pc already advanced.
    Done,
    /// Warp retired (all stack entries popped).
    Retired,
    /// A memory / barrier / heap instruction: the core must handle it (pc
    /// has *not* been advanced).
    NeedsCore,
}

#[derive(Debug, Clone)]
pub(crate) struct Warp {
    pub launch_idx: usize,
    pub wg: u64,
    pub warp_in_wg: usize,
    pub width: usize,
    pub regs: Vec<u64>,
    pub stack: Vec<StackEntry>,
    pub ready_at: u64,
    pub at_barrier: bool,
    /// Blocked forever on an exhausted device-heap allocator (only set
    /// under `GpuConfig::malloc_blocks_on_exhaustion`); the deadlock
    /// detector reports these as `HeapDeadlock` rather than spinning.
    pub blocked: bool,
    pub done: bool,
    /// Monotonic dispatch sequence for greedy-then-oldest scheduling.
    pub age: u64,
}

/// Widest warp the `u64` lane masks can describe.
pub(crate) const MAX_LANES: usize = 64;

/// The mask with the low `width` lanes set.
pub(crate) fn full_mask(width: usize) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

/// Applies `f` lane-wise: `a[l] = f(a[l], b[l])`.
#[inline(always)]
fn zip_lanes(a: &mut [u64], b: &[u64], f: impl Fn(u64, u64) -> u64) {
    for (x, &y) in a.iter_mut().zip(b) {
        *x = f(*x, y);
    }
}

impl Warp {
    pub fn new(
        launch_idx: usize,
        wg: u64,
        warp_in_wg: usize,
        width: usize,
        lanes: usize,
        num_regs: u16,
        age: u64,
    ) -> Self {
        debug_assert!(width <= MAX_LANES && lanes <= width);
        Warp {
            launch_idx,
            wg,
            warp_in_wg,
            width,
            regs: vec![0; usize::from(num_regs) * width],
            stack: vec![StackEntry {
                pc: Some((BlockId(0), 0)),
                mask: full_mask(lanes),
                rpc: None,
            }],
            ready_at: 0,
            at_barrier: false,
            blocked: false,
            done: false,
            age,
        }
    }

    pub fn active_mask(&self) -> u64 {
        self.stack.last().map(|e| e.mask).unwrap_or(0)
    }

    pub fn pc(&self) -> Option<(BlockId, usize)> {
        self.stack.last().and_then(|e| e.pc)
    }

    /// Register `r` across all lanes.
    pub fn row(&self, r: VReg) -> &[u64] {
        let base = usize::from(r.0) * self.width;
        &self.regs[base..base + self.width]
    }

    pub fn row_mut(&mut self, r: VReg) -> &mut [u64] {
        let base = usize::from(r.0) * self.width;
        &mut self.regs[base..base + self.width]
    }

    pub fn set_reg(&mut self, r: VReg, lane: usize, v: u64) {
        self.regs[usize::from(r.0) * self.width + lane] = v;
    }

    /// Resolves `op` for every lane into `out` (`width` long): a register
    /// is a row copy, uniform values a fill, thread and lane ids an iota.
    pub fn load(&self, op: Operand, ctx: &ExecCtx<'_>, out: &mut [u64]) {
        let uniform = match op {
            Operand::Reg(r) => return out.copy_from_slice(self.row(r)),
            Operand::Special(s @ (Special::ThreadId | Special::LaneId)) => {
                let first = match s {
                    Special::ThreadId => (self.warp_in_wg * self.width) as u64,
                    _ => 0,
                };
                for (lane, v) in out.iter_mut().enumerate() {
                    *v = first + lane as u64;
                }
                return;
            }
            Operand::Imm(i) => i as u64,
            Operand::Param(p) => ctx.args[usize::from(p)],
            Operand::LocalBase(v) => ctx.local_bases[usize::from(v)],
            Operand::Special(Special::BlockId) => self.wg,
            Operand::Special(Special::BlockDim) => ctx.block_dim,
            Operand::Special(Special::GridDim) => ctx.grid_dim,
        };
        out.fill(uniform);
    }

    /// Writes `vals` (`width` long) into `dst` for the lanes in `mask`: a
    /// full warp is one row copy, a partial one walks the set bits.
    pub fn write_masked(&mut self, dst: VReg, mask: u64, vals: &[u64]) {
        let full = full_mask(self.width);
        let row = self.row_mut(dst);
        if mask & full == full {
            row.copy_from_slice(vals);
            return;
        }
        let mut m = mask & full;
        while m != 0 {
            let lane = m.trailing_zeros() as usize;
            row[lane] = vals[lane];
            m &= m - 1;
        }
    }

    /// The AGU: the effective address of every active lane (`None` for
    /// masked-off lanes) into `vas`, and the tagged base pointer of the
    /// first active lane. Shared memory is addressed by plain offsets;
    /// global addresses drop the pointer tag.
    pub fn lane_addrs(
        &self,
        addr: AddrExpr,
        space: MemSpace,
        ctx: &ExecCtx<'_>,
        vas: &mut Vec<Option<u64>>,
    ) -> TaggedPtr {
        let w = self.width;
        let (mut base, mut off) = ([0u64; MAX_LANES], [0u64; MAX_LANES]);
        let (base, off) = (&mut base[..w], &mut off[..w]);
        match addr {
            AddrExpr::Flat { addr } => self.load(addr, ctx, base),
            AddrExpr::BaseOffset { base: b, offset } => {
                self.load(b, ctx, base);
                self.load(offset, ctx, off);
            }
            AddrExpr::BindingTable { bti, offset } => {
                base.fill(ctx.args[usize::from(bti)]);
                self.load(offset, ctx, off);
            }
        }
        let mask = self.active_mask() & full_mask(w);
        let lane_va = |lane: usize| {
            if space == MemSpace::Shared {
                base[lane].wrapping_add(off[lane])
            } else {
                TaggedPtr::from_raw(base[lane]).va().wrapping_add(off[lane]) & VA_MASK
            }
        };
        vas.clear();
        vas.extend((0..w).map(|lane| (mask >> lane & 1 != 0).then(|| lane_va(lane))));
        if mask == 0 {
            TaggedPtr::from_raw(0)
        } else {
            TaggedPtr::from_raw(base[mask.trailing_zeros() as usize])
        }
    }

    /// Advances the program counter past a non-terminator instruction.
    pub fn advance_pc(&mut self) {
        if let Some(e) = self.stack.last_mut() {
            if let Some((b, i)) = e.pc {
                e.pc = Some((b, i + 1));
            }
        }
    }

    /// Transfers control to `target`, honouring reconvergence pops.
    fn enter_block(&mut self, target: BlockId) {
        let pops = self
            .stack
            .last()
            .map(|e| e.rpc == Some(target))
            .unwrap_or(false);
        if pops {
            self.stack.pop();
            self.drain_finished();
        } else if let Some(e) = self.stack.last_mut() {
            e.pc = Some((target, 0));
        }
    }

    /// Pops continuation entries whose pc is `None` (exit continuations).
    fn drain_finished(&mut self) {
        while matches!(self.stack.last(), Some(e) if e.pc.is_none()) {
            self.stack.pop();
        }
        if self.stack.is_empty() {
            self.done = true;
        }
    }

    /// Executes one scalar/control instruction functionally, for all lanes
    /// at once: operands resolve into lane buffers, the opcode is matched
    /// outside the lane loop, and the result is written back under the
    /// active mask. Returns [`SimpleOutcome::NeedsCore`] for memory,
    /// barrier, and heap instructions, which the core handles with timing.
    pub fn exec_simple(
        &mut self,
        kernel: &Kernel,
        recon: &ReconvergenceTable,
        ctx: &ExecCtx<'_>,
    ) -> SimpleOutcome {
        let (block, idx) = match self.pc() {
            Some(pc) => pc,
            None => {
                self.drain_finished();
                return SimpleOutcome::Retired;
            }
        };
        let instr = kernel.block(block).instrs()[idx];
        let mask = self.active_mask();
        let w = self.width;
        let (mut a, mut b) = ([0u64; MAX_LANES], [0u64; MAX_LANES]);
        let (a, b) = (&mut a[..w], &mut b[..w]);
        let dst = match instr {
            Instr::Mov { dst, src } => {
                self.load(src, ctx, a);
                dst
            }
            Instr::Un { op, dst, a: x } => {
                self.load(x, ctx, a);
                un_lanes(op, a);
                dst
            }
            Instr::Bin {
                op,
                dst,
                a: x,
                b: y,
            } => {
                self.load(x, ctx, a);
                self.load(y, ctx, b);
                bin_lanes(op, a, b);
                dst
            }
            Instr::Cmp {
                op,
                dst,
                a: x,
                b: y,
            } => {
                self.load(x, ctx, a);
                self.load(y, ctx, b);
                cmp_lanes(op, a, b);
                dst
            }
            Instr::Sel {
                dst,
                cond,
                a: x,
                b: y,
            } => {
                let mut c = [0u64; MAX_LANES];
                self.load(cond, ctx, &mut c[..w]);
                self.load(x, ctx, a);
                self.load(y, ctx, b);
                for ((x, &pick_x), &y) in a.iter_mut().zip(&c[..w]).zip(b.iter()) {
                    if pick_x == 0 {
                        *x = y;
                    }
                }
                dst
            }
            Instr::Jmp { target } => {
                self.enter_block(target);
                return self.control_outcome();
            }
            Instr::Bra {
                cond,
                taken,
                not_taken,
            } => {
                self.load(cond, ctx, a);
                let t_mask = a
                    .iter()
                    .enumerate()
                    .fold(0u64, |m, (lane, &c)| m | (u64::from(c != 0) << lane))
                    & mask;
                let nt_mask = mask & !t_mask;
                if nt_mask == 0 {
                    self.enter_block(taken);
                } else if t_mask == 0 {
                    self.enter_block(not_taken);
                } else {
                    // Divergence: convert the current entry into the merged
                    // continuation at the reconvergence point, then push the
                    // not-taken and taken sides. A side whose entry block
                    // *is* the reconvergence point has already reconverged
                    // and is not pushed (its lanes are covered by the
                    // continuation's mask).
                    let rpc = recon.reconvergence_point(block);
                    {
                        let top = self.stack.last_mut().expect("running warp has stack");
                        top.pc = rpc.map(|b| (b, 0));
                    }
                    if Some(not_taken) != rpc {
                        self.stack.push(StackEntry {
                            pc: Some((not_taken, 0)),
                            mask: nt_mask,
                            rpc,
                        });
                    }
                    if Some(taken) != rpc {
                        self.stack.push(StackEntry {
                            pc: Some((taken, 0)),
                            mask: t_mask,
                            rpc,
                        });
                    }
                    self.drain_finished();
                }
                return self.control_outcome();
            }
            Instr::Ret => {
                self.stack.pop();
                self.drain_finished();
                return self.control_outcome();
            }
            Instr::Ld { .. }
            | Instr::St { .. }
            | Instr::AtomAdd { .. }
            | Instr::Bar
            | Instr::Malloc { .. }
            | Instr::Free { .. } => return SimpleOutcome::NeedsCore,
        };
        self.write_masked(dst, mask, a);
        self.advance_pc();
        SimpleOutcome::Done
    }

    fn control_outcome(&self) -> SimpleOutcome {
        if self.done {
            SimpleOutcome::Retired
        } else {
            SimpleOutcome::Done
        }
    }
}

/// `a[l] = op(a[l])` for every lane, with the opcode matched once.
fn un_lanes(op: UnOp, a: &mut [u64]) {
    macro_rules! arms {
        ($($v:ident)*) => {
            match op { $(UnOp::$v => a.iter_mut().for_each(|x| *x = eval_un(UnOp::$v, *x)),)* }
        };
    }
    arms!(Not Neg Abs)
}

/// `a[l] = op(a[l], b[l])` for every lane, with the opcode matched once.
fn bin_lanes(op: BinOp, a: &mut [u64], b: &[u64]) {
    macro_rules! arms {
        ($($v:ident)*) => {
            match op { $(BinOp::$v => zip_lanes(a, b, |x, y| eval_bin(BinOp::$v, x, y)),)* }
        };
    }
    arms!(Add Sub Mul Div Rem And Or Xor Shl Shr Min Max)
}

/// `a[l] = op(a[l], b[l]) as u64` for every lane, with the opcode matched
/// once.
fn cmp_lanes(op: CmpOp, a: &mut [u64], b: &[u64]) {
    macro_rules! arms {
        ($($v:ident)*) => {
            match op { $(CmpOp::$v => zip_lanes(a, b, |x, y| u64::from(eval_cmp(CmpOp::$v, x, y))),)* }
        };
    }
    arms!(Eq Ne Lt Le Gt Ge)
}

pub(crate) fn eval_un(op: UnOp, x: u64) -> u64 {
    match op {
        UnOp::Not => !x,
        UnOp::Neg => (x as i64).wrapping_neg() as u64,
        UnOp::Abs => (x as i64).wrapping_abs() as u64,
    }
}

pub(crate) fn eval_bin(op: BinOp, x: u64, y: u64) -> u64 {
    let (sx, sy) = (x as i64, y as i64);
    match op {
        BinOp::Add => x.wrapping_add(y),
        BinOp::Sub => x.wrapping_sub(y),
        BinOp::Mul => x.wrapping_mul(y),
        BinOp::Div => {
            if sy == 0 {
                0
            } else {
                sx.wrapping_div(sy) as u64
            }
        }
        BinOp::Rem => {
            if sy == 0 {
                0
            } else {
                sx.wrapping_rem(sy) as u64
            }
        }
        BinOp::And => x & y,
        BinOp::Or => x | y,
        BinOp::Xor => x ^ y,
        BinOp::Shl => x << (y & 63),
        BinOp::Shr => x >> (y & 63),
        BinOp::Min => sx.min(sy) as u64,
        BinOp::Max => sx.max(sy) as u64,
    }
}

pub(crate) fn eval_cmp(op: CmpOp, x: u64, y: u64) -> bool {
    let (sx, sy) = (x as i64, y as i64);
    match op {
        CmpOp::Eq => x == y,
        CmpOp::Ne => x != y,
        CmpOp::Lt => sx < sy,
        CmpOp::Le => sx <= sy,
        CmpOp::Gt => sx > sy,
        CmpOp::Ge => sx >= sy,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpushield_isa::{KernelBuilder, ValidateError};
    use gpushield_runtime::rng::StdRng;

    /// One lane's operand value, evaluated on its own: the oracle every
    /// whole-warp result is checked against.
    fn eval_lane(w: &Warp, op: Operand, lane: usize, ctx: &ExecCtx<'_>) -> u64 {
        match op {
            Operand::Reg(r) => w.row(r)[lane],
            Operand::Imm(i) => i as u64,
            Operand::Param(p) => ctx.args[usize::from(p)],
            Operand::LocalBase(v) => ctx.local_bases[usize::from(v)],
            Operand::Special(Special::ThreadId) => (w.warp_in_wg * w.width + lane) as u64,
            Operand::Special(Special::BlockId) => w.wg,
            Operand::Special(Special::BlockDim) => ctx.block_dim,
            Operand::Special(Special::GridDim) => ctx.grid_dim,
            Operand::Special(Special::LaneId) => lane as u64,
        }
    }

    /// Edge values for the signed/shift/divide corner cases, plus noise.
    fn value(rng: &mut StdRng) -> u64 {
        match rng.gen_range(0..7u32) {
            0 => 0,
            1 => u64::MAX,
            2 => i64::MIN as u64,
            3 => 1,
            4 => rng.gen_range(0..70u64),
            _ => rng.next_u64(),
        }
    }

    fn operand(rng: &mut StdRng, regs: [VReg; 3]) -> Operand {
        match rng.gen_range(0..8u32) {
            0..=3 => Operand::Reg(regs[rng.gen_range(0..3usize)]),
            4 => Operand::Imm(value(rng) as i64),
            5 => Operand::Param(0),
            6 => Operand::LocalBase(0),
            _ => Operand::Special(
                [
                    Special::ThreadId,
                    Special::BlockId,
                    Special::BlockDim,
                    Special::GridDim,
                    Special::LaneId,
                ][rng.gen_range(0..5usize)],
            ),
        }
    }

    /// The three registers every test kernel defines first.
    const REGS: [VReg; 3] = [VReg(0), VReg(1), VReg(2)];

    /// A kernel whose block 0 defines [`REGS`] and then runs the
    /// instruction `emit` adds (index 3); returns it with `emit`'s result.
    fn kernel_with(
        emit: impl FnOnce(&mut KernelBuilder) -> VReg,
    ) -> Result<(Kernel, VReg), ValidateError> {
        let mut b = KernelBuilder::new("lanes");
        b.param_scalar("k");
        b.local_var("l", 8);
        assert_eq!([0, 0, 0].map(|_| b.mov(Operand::Imm(0))), REGS);
        let dst = emit(&mut b);
        b.ret();
        Ok((b.finish()?, dst))
    }

    /// A warp of `width` lanes parked at (block 0, index 3) with random
    /// registers: sometimes partial (fewer live lanes than the width),
    /// sometimes inside a divergent region (a continuation entry below
    /// the running entry, which holds a random subset of the lanes).
    fn random_warp(rng: &mut StdRng, width: usize, num_regs: u16) -> Warp {
        let lanes = if rng.gen_bool(0.3) {
            rng.gen_range(1..=width)
        } else {
            width
        };
        let mut w = Warp::new(
            0,
            rng.gen_range(0..9u64),
            rng.gen_range(0..4usize),
            width,
            lanes,
            num_regs,
            0,
        );
        for v in &mut w.regs {
            *v = value(rng);
        }
        let live = w.active_mask();
        let mask = match live & rng.next_u64() {
            m if m != 0 && rng.gen_bool(0.5) => m,
            _ => live,
        };
        if mask != live {
            w.stack[0].pc = None;
            w.stack.push(StackEntry {
                pc: None,
                mask,
                rpc: None,
            });
        }
        let top = w.stack.len() - 1;
        w.stack[top].pc = Some((BlockId(0), 3));
        w
    }

    /// Runs the instruction at (0, 3) on `w` and on a per-lane oracle copy
    /// where `expect(lane)` gives each active lane's new `dst` value.
    fn check_alu(
        k: &Kernel,
        mut w: Warp,
        dst: VReg,
        ctx: &ExecCtx<'_>,
        expect: impl Fn(&Warp, usize) -> u64,
    ) {
        let mut oracle = w.clone();
        for lane in 0..w.width {
            if w.active_mask() & (1 << lane) != 0 {
                oracle.set_reg(dst, lane, expect(&w, lane));
            }
        }
        oracle.advance_pc();
        let recon = ReconvergenceTable::build(k);
        assert_eq!(w.exec_simple(k, &recon, ctx), SimpleOutcome::Done);
        assert_eq!(
            w.regs,
            oracle.regs,
            "{:?} at width {}",
            k.block(BlockId(0)).instrs()[3],
            w.width
        );
        assert_eq!(format!("{:?}", w.stack), format!("{:?}", oracle.stack));
    }

    #[test]
    fn lane_vector_alu_matches_per_lane_oracle() -> Result<(), ValidateError> {
        let mut rng = StdRng::seed_from_u64(0x1a9e);
        #[rustfmt::skip]
        let bins = [
            BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div, BinOp::Rem, BinOp::And,
            BinOp::Or, BinOp::Xor, BinOp::Shl, BinOp::Shr, BinOp::Min, BinOp::Max,
        ];
        let cmps = [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ];
        for width in [4, 8, 32] {
            for _ in 0..25 {
                let (args, locals) = ([value(&mut rng)], [value(&mut rng)]);
                let ctx = ExecCtx {
                    args: &args,
                    local_bases: &locals,
                    block_dim: rng.gen_range(1..512u64),
                    grid_dim: rng.gen_range(1..64u64),
                };
                let [x, y, z] = [0, 1, 2].map(|_| operand(&mut rng, REGS));
                let lane = |w: &Warp, op, l| eval_lane(w, op, l, &ctx);
                let mut check = |(k, dst): (Kernel, VReg), expect: &dyn Fn(&Warp, usize) -> u64| {
                    check_alu(
                        &k,
                        random_warp(&mut rng, width, k.num_regs()),
                        dst,
                        &ctx,
                        expect,
                    )
                };
                for op in bins {
                    let expect = |w: &Warp, l| eval_bin(op, lane(w, x, l), lane(w, y, l));
                    check(kernel_with(|b| b.bin(op, x, y))?, &expect);
                }
                for op in cmps {
                    let expect =
                        |w: &Warp, l| u64::from(eval_cmp(op, lane(w, x, l), lane(w, y, l)));
                    check(kernel_with(|b| b.cmp(op, x, y))?, &expect);
                }
                for op in [UnOp::Not, UnOp::Neg, UnOp::Abs] {
                    check(kernel_with(|b| b.un(op, x))?, &|w, l| {
                        eval_un(op, lane(w, x, l))
                    });
                }
                let sel = |w: &Warp, l| lane(w, if lane(w, x, l) != 0 { y } else { z }, l);
                check(kernel_with(|b| b.sel(x, y, z))?, &sel);
                check(kernel_with(|b| b.mov(x))?, &|w, l| lane(w, x, l));
            }
        }
        Ok(())
    }

    #[test]
    fn lane_vector_branch_masks_match_per_lane_oracle() -> Result<(), ValidateError> {
        let mut rng = StdRng::seed_from_u64(0xb7a);
        for width in [4, 8, 32] {
            for _ in 0..200 {
                let [cond, out, _] = REGS;
                let (k, _) = kernel_with(|b| {
                    let (one, two) = (Operand::Imm(1), Operand::Imm(2));
                    b.if_then_else(cond, |b| b.assign(out, one), |b| b.assign(out, two));
                    out
                })?;
                let Instr::Bra {
                    taken, not_taken, ..
                } = k.block(BlockId(0)).instrs()[3]
                else {
                    panic!("if_then_else ends block 0 with a branch");
                };
                let mut w = random_warp(&mut rng, width, k.num_regs());
                // Sparse non-zero lanes so uniform and divergent cases both occur.
                for lane in 0..width {
                    let v = if rng.gen_bool(0.5) {
                        0
                    } else {
                        value(&mut rng) | 1
                    };
                    w.set_reg(cond, lane, v);
                }
                let mask = w.active_mask();
                let taken_mask = (0..width)
                    .filter(|&l| mask & (1 << l) != 0 && w.row(cond)[l] != 0)
                    .fold(0u64, |m, l| m | 1 << l);
                let depth = w.stack.len();
                let recon = ReconvergenceTable::build(&k);
                let ctx = ctx(&[0]);
                let ctx = ExecCtx {
                    local_bases: &[0],
                    ..ctx
                };
                assert_eq!(w.exec_simple(&k, &recon, &ctx), SimpleOutcome::Done);
                let top = &w.stack[w.stack.len() - 1];
                if taken_mask == mask {
                    assert_eq!((w.stack.len(), top.pc), (depth, Some((taken, 0))));
                } else if taken_mask == 0 {
                    assert_eq!((w.stack.len(), top.pc), (depth, Some((not_taken, 0))));
                } else {
                    assert_eq!(w.stack.len(), depth + 2);
                    assert_eq!((top.mask, top.pc), (taken_mask, Some((taken, 0))));
                    let below = &w.stack[depth];
                    assert_eq!(
                        (below.mask, below.pc),
                        (mask & !taken_mask, Some((not_taken, 0)))
                    );
                }
            }
        }
        Ok(())
    }

    #[test]
    fn lane_vector_agu_matches_per_lane_oracle() {
        let mut rng = StdRng::seed_from_u64(0xa6e);
        for width in [4, 8, 32] {
            for _ in 0..100 {
                let (args, locals) = ([value(&mut rng)], [value(&mut rng)]);
                let c = ExecCtx {
                    args: &args,
                    local_bases: &locals,
                    ..ctx(&[])
                };
                let (base, off) = (operand(&mut rng, REGS), operand(&mut rng, REGS));
                let addr = match rng.gen_range(0..3u32) {
                    0 => AddrExpr::Flat { addr: base },
                    1 => AddrExpr::BaseOffset { base, offset: off },
                    _ => AddrExpr::BindingTable {
                        bti: 0,
                        offset: off,
                    },
                };
                let space = if rng.gen_bool(0.3) {
                    MemSpace::Shared
                } else {
                    MemSpace::Global
                };
                let w = random_warp(&mut rng, width, 3);
                let mut vas = Vec::new();
                let ptr = w.lane_addrs(addr, space, &c, &mut vas);
                let lane_parts = |l| match addr {
                    AddrExpr::Flat { addr } => (eval_lane(&w, addr, l, &c), 0),
                    AddrExpr::BaseOffset { base, offset } => {
                        (eval_lane(&w, base, l, &c), eval_lane(&w, offset, l, &c))
                    }
                    AddrExpr::BindingTable { offset, .. } => {
                        (args[0], eval_lane(&w, offset, l, &c))
                    }
                };
                let active: Vec<usize> = (0..width)
                    .filter(|l| w.active_mask() & (1 << l) != 0)
                    .collect();
                assert_eq!(ptr, TaggedPtr::from_raw(lane_parts(active[0]).0));
                assert_eq!(vas.len(), width);
                for (l, got) in vas.iter().enumerate() {
                    let (b, o) = lane_parts(l);
                    let va = match space {
                        MemSpace::Shared => b.wrapping_add(o),
                        _ => TaggedPtr::from_raw(b).va().wrapping_add(o) & VA_MASK,
                    };
                    assert_eq!(*got, active.contains(&l).then_some(va), "lane {l}");
                }
            }
        }
    }

    fn ctx<'a>(args: &'a [u64]) -> ExecCtx<'a> {
        ExecCtx {
            args,
            local_bases: &[],
            block_dim: 8,
            grid_dim: 2,
        }
    }

    fn run_warp(kernel: &Kernel, width: usize, args: &[u64]) -> Warp {
        let recon = ReconvergenceTable::build(kernel);
        let mut w = Warp::new(0, 0, 0, width, width, kernel.num_regs(), 0);
        let c = ctx(args);
        let mut fuel = 100_000;
        while !w.done {
            match w.exec_simple(kernel, &recon, &c) {
                SimpleOutcome::Done => {}
                SimpleOutcome::Retired => break,
                SimpleOutcome::NeedsCore => panic!("test kernels must be ALU-only"),
            }
            fuel -= 1;
            assert!(fuel > 0, "kernel did not terminate");
        }
        w
    }

    #[test]
    fn divergent_if_else_merges_lane_results() {
        // r = tid < 2 ? 100 : 200, via real divergence.
        let mut b = KernelBuilder::new("div");
        let t = b.mov(b.thread_id());
        let c = b.lt(t, Operand::Imm(2));
        let out = b.mov(Operand::Imm(0));
        b.if_then_else(
            c,
            |b| b.assign(out, Operand::Imm(100)),
            |b| b.assign(out, Operand::Imm(200)),
        );
        // Post-join arithmetic executes with the full mask again.
        let fin = b.add(out, Operand::Imm(5));
        b.ret();
        let k = b.finish().unwrap();
        let w = run_warp(&k, 4, &[]);
        let vals: Vec<u64> = (0..4).map(|l| w.row(fin)[l]).collect();
        assert_eq!(vals, vec![105, 105, 205, 205]);
    }

    #[test]
    fn data_dependent_loop_trip_counts() {
        // acc = sum over i in 0..tid of 1 → acc == tid, divergent loop exit.
        let mut b = KernelBuilder::new("loop");
        let t = b.mov(b.thread_id());
        let acc = b.mov(Operand::Imm(0));
        b.for_loop(Operand::Imm(0), t, 1, |b, _i| {
            let n = b.add(acc, Operand::Imm(1));
            b.assign(acc, n);
        });
        let fin = b.mov(acc);
        b.ret();
        let k = b.finish().unwrap();
        let w = run_warp(&k, 4, &[]);
        let vals: Vec<u64> = (0..4).map(|l| w.row(fin)[l]).collect();
        assert_eq!(vals, vec![0, 1, 2, 3]);
    }

    #[test]
    fn nested_divergence() {
        // out = (tid<2) ? ((tid<1) ? 1 : 2) : 3
        let mut b = KernelBuilder::new("nest");
        let t = b.mov(b.thread_id());
        let out = b.mov(Operand::Imm(0));
        let outer = b.lt(t, Operand::Imm(2));
        b.if_then_else(
            outer,
            |b| {
                let inner = b.lt(t, Operand::Imm(1));
                b.if_then_else(
                    inner,
                    |b| b.assign(out, Operand::Imm(1)),
                    |b| b.assign(out, Operand::Imm(2)),
                );
            },
            |b| b.assign(out, Operand::Imm(3)),
        );
        let fin = b.mov(out);
        b.ret();
        let k = b.finish().unwrap();
        let w = run_warp(&k, 4, &[]);
        let vals: Vec<u64> = (0..4).map(|l| w.row(fin)[l]).collect();
        assert_eq!(vals, vec![1, 2, 3, 3]);
    }

    #[test]
    fn partial_warp_masks_missing_lanes() {
        let mut b = KernelBuilder::new("partial");
        let t = b.mov(b.thread_id());
        let _ = b.add(t, Operand::Imm(1));
        b.ret();
        let k = b.finish().unwrap();
        let mut w = Warp::new(0, 0, 0, 4, 2, k.num_regs(), 0);
        assert_eq!(w.active_mask(), 0b0011);
        let recon = ReconvergenceTable::build(&k);
        let c = ctx(&[]);
        while !w.done {
            if w.exec_simple(&k, &recon, &c) == SimpleOutcome::Retired {
                break;
            }
        }
        assert!(w.done);
    }

    #[test]
    fn select_is_predication_not_divergence() {
        let mut b = KernelBuilder::new("sel");
        let t = b.mov(b.thread_id());
        let c = b.lt(t, Operand::Imm(2));
        let v = b.sel(c, Operand::Imm(7), Operand::Imm(9));
        b.ret();
        let k = b.finish().unwrap();
        let w = run_warp(&k, 4, &[]);
        let vals: Vec<u64> = (0..4).map(|l| w.row(v)[l]).collect();
        assert_eq!(vals, vec![7, 7, 9, 9]);
    }
}
