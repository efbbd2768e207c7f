//! The LSU lane front end both engines share. One warp-level memory
//! instruction flows through the same steps in the sequential engine, in
//! a quantum phase and at the quantum drain: decode, AGU, the translation
//! pre-check, coalesced L1 TLB/L1D timing, the BCU's view of the access,
//! and the functional lane commit. Only where the L1 misses go (the real
//! shared system or the quantum-start snapshot) and where the counters
//! land differ between the callers.

use super::{Core, HeapRun};
use crate::config::GpuConfig;
use crate::guard::{GuardCheck, MemAccess};
use crate::launch::{HeapDesc, SiteCheck};
use crate::warp::{full_mask, ExecCtx, Warp, MAX_LANES};
use gpushield_isa::{AddrExpr, BlockId, Instr, MemSpace, Operand, TaggedPtr, VReg};
use gpushield_mem::coalesce::warp_address_range;
use gpushield_mem::{coalesce_warp_into, MemFault, Transaction, VirtualMemorySpace};
use gpushield_telemetry::flight::FlightEvent;

/// A decoded warp-level memory instruction (`Ld`, `St` or `AtomAdd`).
#[derive(Debug, Clone, Copy)]
pub(super) struct MemOp {
    pub addr: AddrExpr,
    pub space: MemSpace,
    /// Access width in bytes.
    pub width: u64,
    /// Load result or atomic old value.
    pub dst: Option<VReg>,
    /// Store value or atomic addend.
    pub src: Option<Operand>,
    /// Stores and atomics write memory.
    pub is_store: bool,
    pub is_atomic: bool,
}

impl MemOp {
    pub fn decode(instr: Instr) -> Self {
        let (addr, space, width, dst, src) = match instr {
            Instr::Ld {
                dst,
                addr,
                space,
                width,
            } => (addr, space, width, Some(dst), None),
            Instr::St {
                src,
                addr,
                space,
                width,
            } => (addr, space, width, None, Some(src)),
            Instr::AtomAdd {
                dst,
                addr,
                space,
                width,
                src,
            } => (addr, space, width, Some(dst), Some(src)),
            _ => unreachable!("only Ld/St/AtomAdd reach the LSU"),
        };
        MemOp {
            addr,
            space,
            width: width.bytes(),
            dst,
            src,
            is_store: src.is_some(),
            is_atomic: matches!(instr, Instr::AtomAdd { .. }),
        }
    }
}

/// Where an L1 miss goes next: the shared TLB, or L2/DRAM.
#[derive(Debug, Clone, Copy)]
pub(super) enum Miss {
    /// An L1-TLB miss for the transaction at this VA.
    Xlate(u64),
    /// An L1D miss for the transaction at this PA.
    Data(u64),
}

/// Reusable per-core lane buffers for the LSU/AGU path. Taken out of the
/// core with `mem::take` for the duration of one memory instruction and
/// put back afterwards, so the steady-state hot path performs no heap
/// allocation — the vectors keep their capacity across instructions.
#[derive(Default)]
pub(super) struct WarpScratch {
    /// Per-lane effective addresses (`None` = masked-off lane).
    pub lane_vas: Vec<Option<u64>>,
    /// Per-lane store/addend values (empty for loads).
    pub store_vals: Vec<u64>,
    /// Per-lane `malloc` request sizes.
    lane_sizes: Vec<u64>,
    /// Per-lane `malloc` result pointers.
    results: Vec<Option<u64>>,
    /// Coalesced transactions of the current access.
    pub txs: Vec<Transaction>,
}

impl WarpScratch {
    /// The AGU: lane addresses and store values from whole-warp operand
    /// loads. Returns the tagged pointer of the first active lane.
    pub fn agu(&mut self, warp: &Warp, op: &MemOp, ctx: &ExecCtx<'_>) -> TaggedPtr {
        let ptr = warp.lane_addrs(op.addr, op.space, ctx, &mut self.lane_vas);
        self.store_vals.clear();
        if let Some(s) = op.src {
            self.store_vals.resize(warp.width, 0);
            warp.load(s, ctx, &mut self.store_vals);
        }
        ptr
    }

    /// Coalesces the lanes into transactions and runs the translation
    /// pre-check (once per distinct page). Returns the first failing
    /// lane's fault.
    pub fn translate(&mut self, vm: &VirtualMemorySpace, width: u64) -> Option<MemFault> {
        coalesce_warp_into(&self.lane_vas, width, &mut self.txs);
        vm.translate_lanes(&self.lane_vas).err().map(|e| e.fault)
    }

    /// L1 TLB ∥ L1D timing of the coalesced transactions issued at
    /// `start`. `miss(kind, at)` times an L1 miss beyond the core and
    /// returns its completion cycle. Returns the access's completion cycle
    /// and whether every transaction hit the L1D.
    pub fn timing(
        &self,
        core: &mut Core,
        vm: &VirtualMemorySpace,
        start: u64,
        l1_hit: u64,
        mut miss: impl FnMut(Miss, u64) -> u64,
    ) -> (u64, bool) {
        let mut done_at = start + l1_hit;
        let mut all_l1_hit = true;
        for tx in &self.txs {
            let Ok(pa) = vm.translate_bypass(tx.base) else {
                continue;
            };
            let t_ready = if core.l1tlb.access(tx.base) {
                start
            } else {
                miss(Miss::Xlate(tx.base), start)
            };
            let tx_done = if core.l1d.access(pa) {
                (start + l1_hit).max(t_ready + 1)
            } else {
                all_l1_hit = false;
                miss(Miss::Data(pa), (start + l1_hit).max(t_ready))
            };
            done_at = done_at.max(tx_done);
        }
        (done_at, all_l1_hit)
    }

    /// Active lanes in this access.
    pub fn active_lanes(&self) -> u64 {
        self.lane_vas.iter().flatten().count() as u64
    }

    /// The BCU's view of the access, or `None` when every lane is masked
    /// off.
    #[allow(clippy::too_many_arguments)]
    pub fn access(
        &self,
        core: usize,
        kernel_id: u16,
        op: &MemOp,
        pointer: TaggedPtr,
        site: (BlockId, usize),
        site_check: SiteCheck,
        l1d_all_hit: bool,
    ) -> Option<MemAccess> {
        Some(MemAccess {
            core,
            kernel_id,
            is_store: op.is_store,
            space: op.space,
            pointer,
            site,
            range: warp_address_range(&self.lane_vas, op.width)?,
            site_check,
            transactions: self.txs.len(),
            active_lanes: self.active_lanes() as usize,
            l1d_all_hit,
        })
    }

    /// The functional global access of the active lanes, in lane order:
    /// loads fill `dst`, stores write memory, atomics read-modify-write
    /// one lane at a time. Lanes before a fault have taken effect.
    pub fn commit(
        &self,
        warp: &mut Warp,
        op: &MemOp,
        vm: &VirtualMemorySpace,
    ) -> Result<(), MemFault> {
        let (vas, w) = (&self.lane_vas, op.width);
        match (op.dst, op.is_atomic) {
            (None, _) => vm
                .write_lanes(vas, w, &self.store_vals)
                .map_err(|e| e.fault),
            (Some(d), false) => vm.read_lanes(vas, w, warp.row_mut(d)).map_err(|e| e.fault),
            (Some(d), true) => {
                // Real hardware serializes same-address atomics; lane order
                // keeps it deterministic.
                for (lane, va) in vas.iter().enumerate() {
                    let Some(va) = *va else { continue };
                    let old = vm.read_uint(va, w)?;
                    vm.write_uint(va, w, old.wrapping_add(self.store_vals[lane]))?;
                    warp.set_reg(d, lane, old);
                }
                Ok(())
            }
        }
    }

    /// A shared-memory access by warp `wi`, issued at `t`: on-chip, no VM,
    /// no bounds checking, done one L1 hit time after the LSU frees up.
    /// Out-of-bounds offsets wrap inside the workgroup's allocation
    /// (GPUShield does not protect on-chip scratch; Table 1 lists
    /// shared-memory overflow as possible); a kernel that declared no
    /// shared memory reads zero and drops its writes.
    pub fn shared(&self, core: &mut Core, wi: usize, t: u64, l1_hit: u64, op: &MemOp) {
        let start = t.max(core.lsu_busy_until);
        let warp = &mut core.warps[wi];
        let sh = &mut (core.wgs.iter_mut())
            .find(|g| g.launch_idx == warp.launch_idx && g.wg == warp.wg)
            .expect("warp's workgroup is resident")
            .shared;
        let (n, w) = (sh.len() as u64, op.width as usize);
        for (lane, va) in self.lane_vas.iter().enumerate() {
            let Some(va) = *va else { continue };
            let mut old = [0u8; 8];
            if n > 0 {
                let at = |i: usize| ((va + i as u64) % n) as usize;
                for (i, b) in old[..w].iter_mut().enumerate() {
                    *b = sh[at(i)];
                }
                let new = match op.src {
                    Some(_) if op.is_atomic => {
                        Some(u64::from_le_bytes(old).wrapping_add(self.store_vals[lane]))
                    }
                    Some(_) => Some(self.store_vals[lane]),
                    None => None,
                };
                if let Some(v) = new {
                    for (i, b) in v.to_le_bytes()[..w].iter().enumerate() {
                        sh[at(i)] = *b;
                    }
                }
            }
            if let Some(d) = op.dst {
                warp.set_reg(d, lane, u64::from_le_bytes(old));
            }
        }
        core.lsu_busy_until = start + 1;
        warp.ready_at = start + l1_hit;
        warp.advance_pc();
    }

    /// One warp's device-heap `malloc` (`dst` set) or `free` (`dst` unset)
    /// at cycle `now`. The allocator is a serialized global resource: each
    /// active lane's request takes its turn (§5.2.1 footnote 2). Writes
    /// the result pointers (NULL when the heap is out of space) and
    /// returns the completion cycle, or `None` without writing anything
    /// when the heap is exhausted and `malloc_blocks_on_exhaustion` parks
    /// the warp.
    #[allow(clippy::too_many_arguments)]
    pub fn heap(
        &mut self,
        cfg: &GpuConfig,
        warp: &mut Warp,
        ctx: &ExecCtx<'_>,
        heap: HeapDesc,
        entry: &mut HeapRun,
        now: u64,
        dst: Option<VReg>,
        size: Operand,
    ) -> Option<u64> {
        let w = warp.width;
        let mask = warp.active_mask() & full_mask(w);
        self.lane_sizes.resize(w, 0);
        warp.load(size, ctx, &mut self.lane_sizes);
        self.results.clear();
        self.results.resize(w, None);
        let mut done_at = now;
        for lane in (0..w).filter(|l| mask >> l & 1 != 0) {
            let start = entry.lock_until.max(now);
            entry.lock_until = start + cfg.heap_alloc_cycles;
            done_at = done_at.max(entry.lock_until);
            if dst.is_some() {
                let aligned = self.lane_sizes[lane].div_ceil(16).max(1) * 16;
                if entry.cursor + aligned <= heap.size {
                    self.results[lane] = Some(heap.tagged_base.raw() + entry.cursor);
                    entry.cursor += aligned;
                } else if cfg.malloc_blocks_on_exhaustion {
                    return None;
                } else {
                    self.results[lane] = Some(0); // CUDA malloc returns NULL
                }
            }
        }
        if let Some(d) = dst {
            for (lane, r) in self.results.iter().enumerate() {
                if let Some(v) = r {
                    warp.set_reg(d, lane, *v);
                }
            }
        }
        Some(done_at)
    }
}

/// A squashed violation: loads return zero on every active lane and stores
/// are dropped (§5.5.2).
pub(super) fn squash(warp: &mut Warp, op: &MemOp) {
    if let Some(d) = op.dst {
        let zeros = [0u64; MAX_LANES];
        warp.write_masked(d, warp.active_mask(), &zeros[..warp.width]);
    }
}

/// The flight-recorder record of one performed bounds check.
pub(super) fn verdict_event(a: &MemAccess, warp: &Warp, chk: &GuardCheck) -> FlightEvent {
    FlightEvent::CheckVerdict {
        kernel_id: a.kernel_id,
        wg: warp.wg as u32,
        warp: warp.warp_in_wg as u16,
        block: a.site.0 .0,
        idx: a.site.1 as u32,
        path: chk.path.code(),
        verdict: chk.verdict.code(),
        is_store: a.is_store,
        lo: a.range.0,
        hi: a.range.1,
    }
}
