//! Deterministic cycle-quantum parallel engine.
//!
//! [`run_engine`] advances the GPU in fixed *quanta* of [`QUANTUM`]
//! simulated cycles. Inside a quantum, every SIMT core is advanced
//! independently — a crew of worker threads claims cores from a shared
//! counter — against an **immutable snapshot** of the shared memory
//! system: per-core L1/L1-TLB state mutates live (it is core-private),
//! while L2/L2-TLB hits are *predicted* with side-effect-free probes and
//! DRAM timing with a private per-core [`DramView`]. Every side effect
//! that crosses core boundaries (L2/DRAM state, flight-recorder events,
//! launch counters, aborts) is buffered in a per-core outbox with a `(cycle,
//! core, seq)` key.
//!
//! At the quantum barrier the driver thread *drains* the outboxes: it
//! merges counters in core order, sorts the buffered events by their
//! canonical key, and replays them against the real shared memory system.
//! Because the canonical order is a pure function of simulated time — not
//! of which worker ran first — every scheduling decision, cache state
//! transition, verdict and cycle count is identical for every worker
//! count, including one.
//!
//! Three operations are not executed inside the phase at all because they
//! touch globally shared *mutable* state: device-heap `malloc`/`free`
//! (the serialized allocator lock) and global-memory atomics (read-
//! modify-write ordering). Issuing one *parks* the warp (`ready_at =
//! u64::MAX`, pc not advanced); the drain re-derives the instruction from
//! the frozen warp state and executes it with the legacy sequential
//! semantics at its recorded issue cycle, in canonical order.
//!
//! Model deltas vs. the sequential engine (all deterministic): workgroup
//! dispatch happens at quantum boundaries; an abort strips the launch at
//! the end of its quantum, so other cores may execute up to one quantum
//! of extra instructions for an aborting launch; L2/L2-TLB/DRAM timing
//! seen by a warp is the quantum-start prediction rather than the
//! serially-interleaved value. Plain (non-atomic) global accesses by
//! *different* cores to the *same* location inside one quantum are data
//! races in the programming model and take no defined interleaving.

use super::lsu::{self, MemOp, Miss};
use super::{
    build_launch_states, dispatch_round_robin, l1_totals, run_report, Core, GpuConfig, HeapRun,
    LaunchState, MultiKernelMode, RunError,
};
use crate::guard::{CoreGuard, GuardCheck, GuardVerdict, MemAccess, MemGuard};
use crate::launch::{KernelLaunch, SiteCheck};
use crate::schedule::space_code;
use crate::stats::{AbortReason, LaunchReport, RunReport, SimProfile, StallAttribution};
use crate::warp::{SimpleOutcome, Warp};
use gpushield_isa::{BlockId, Instr, MemSpace, Operand, VReg};
use gpushield_mem::{DramView, SharedMemorySystem, VirtualMemorySpace};
use gpushield_runtime::with_crew;
use gpushield_telemetry::flight::{FlightEvent, FlightRecorder};
use gpushield_telemetry::{MetricId, Registry};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{LockResult, Mutex, RwLock};

/// Simulated cycles per parallel phase. Large enough to amortize the
/// barrier + drain, small enough that the boundary-only dispatch and the
/// quantum-granular abort stay close to the sequential model.
const QUANTUM: u64 = 64;

/// Unwraps a lock result, adopting the data on poisoning. A poisoned lock
/// here means a worker panicked mid-quantum; the crew re-raises that
/// panic on the driver thread, so pressing on with the inner data never
/// publishes results built from the poisoned state.
fn lock_ok<G>(r: LockResult<G>) -> G {
    match r {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    }
}

/// Per-launch counter deltas accumulated core-locally during a phase and
/// folded into the real [`LaunchReport`]s at the drain, in core order.
#[derive(Default)]
struct LaunchAcc {
    instructions: u64,
    mem_instructions: u64,
    transactions: u64,
    checks_performed: u64,
    checks_skipped: u64,
    checks_certified: u64,
    guard_stall_cycles: u64,
    violations_squashed: u64,
    stall_attribution: StallAttribution,
}

impl LaunchAcc {
    fn drain_into(&mut self, r: &mut LaunchReport) {
        r.instructions += self.instructions;
        r.mem_instructions += self.mem_instructions;
        r.transactions += self.transactions;
        r.checks_performed += self.checks_performed;
        r.checks_skipped += self.checks_skipped;
        r.checks_certified += self.checks_certified;
        r.guard_stall_cycles += self.guard_stall_cycles;
        r.violations_squashed += self.violations_squashed;
        r.stall_attribution.merge(&self.stall_attribution);
        *self = LaunchAcc::default();
    }
}

/// One buffered cross-core side effect, stamped with its issue cycle and
/// a per-core sequence number so the drain can replay the quantum in a
/// canonical total order.
#[derive(Clone, Copy)]
struct QEv {
    t: u64,
    seq: u32,
    ev: Ev,
}

#[derive(Clone, Copy)]
enum Ev {
    /// An L1-missing data transaction to replay against the real L2/DRAM.
    Data(u64),
    /// An L1-TLB-missing translation to replay against the real shared TLB.
    Xlate(u64),
    /// A warp parked on a serialized operation (malloc/free/global atomic),
    /// identified by (launch, workgroup, warp-in-wg) because warp indices
    /// shift when workgroups retire.
    Parked { li: u32, wg: u64, win: u32 },
    /// A workgroup of launch `li` fully retired on its core.
    Retired { li: u32 },
    /// The launch must abort (bounds violation or translation fault).
    Abort(AbortReq),
    /// A buffered flight-recorder event, replayed into the recorder in
    /// canonical order so the stream is identical for every worker count.
    Flight(FlightEvent),
}

/// What the phase functions buffer for the flight recorder: nothing,
/// check verdicts, or check verdicts plus the scheduling kinds (for a
/// recorder built with [`FlightRecorder::with_schedule`]).
#[derive(Clone, Copy, PartialEq, Eq)]
enum Obs {
    Off,
    Checks,
    Schedule,
}

/// A drained event: [`QEv`] plus its core, forming the canonical sort key
/// `(t, core, seq)`.
struct DrainKey {
    t: u64,
    core: u32,
    seq: u32,
    ev: Ev,
}

/// Everything a core accumulates during one phase; cleared (capacity
/// kept) by the drain, so steady-state quanta allocate nothing.
#[derive(Default)]
struct Outbox {
    evs: Vec<QEv>,
    seq: u32,
    profile: SimProfile,
    accs: Vec<LaunchAcc>,
    /// Visible bounds-check stalls, in issue order, for the telemetry
    /// histogram (observed at the drain in core order).
    stalls: Vec<u64>,
    no_issue: u64,
    /// Instructions issued (including parks) this quantum.
    issued: u64,
    /// Cycles with at least one issue this quantum — the per-core load
    /// signal behind `sim.parallel.*` skew telemetry.
    busy: u64,
}

impl Outbox {
    /// An outbox with its buffers sized for a full quantum up front, so a
    /// run pays one warm-up allocation per buffer instead of replaying the
    /// `Vec` doubling ladder — workloads made of many short launches
    /// (one `run` each) would otherwise pay that ladder per launch.
    fn for_run(n_launches: usize) -> Self {
        let mut out = Outbox {
            evs: Vec::with_capacity(QUANTUM as usize * 24),
            stalls: Vec::with_capacity(QUANTUM as usize * 2),
            ..Outbox::default()
        };
        out.accs.resize_with(n_launches, LaunchAcc::default);
        out
    }
}

/// One core's share of the machine: the simulated core itself, its
/// outbox, its forked guard shard (when the guard supports forking), and
/// its private DRAM timing view (refreshed from the real DRAM after every
/// drain).
struct CoreSlot<'g> {
    core: Core,
    out: Outbox,
    shard: Option<Box<dyn CoreGuard + Send + 'g>>,
    dram_view: DramView,
}

/// How a phase consults the bounds-check guard. Forked guards hand each
/// core an independent shard; a non-forkable guard is shared behind a
/// mutex, and the engine then runs single-worker so the check order stays
/// canonical (core-major), which keeps results identical to the forked
/// layout's per-core sequences.
enum PhaseCheck<'a, 's, 'w, 'g> {
    None,
    Shard(&'a mut (dyn CoreGuard + Send + 's)),
    Whole(&'a Mutex<&'w mut (dyn MemGuard + 'g)>),
}

impl PhaseCheck<'_, '_, '_, '_> {
    fn some(&self) -> bool {
        !matches!(self, PhaseCheck::None)
    }

    fn check(&mut self, access: &MemAccess, vm: &VirtualMemorySpace) -> GuardCheck {
        match self {
            PhaseCheck::None => GuardCheck::allow_free(),
            PhaseCheck::Shard(g) => g.check(access, vm),
            PhaseCheck::Whole(m) => lock_ok(m.lock()).check(access, vm),
        }
    }
}

/// Hot-loop telemetry hooks: the registry plus pre-resolved metric
/// handles, so instrumented runs record in O(1) and uninstrumented runs
/// pay exactly one `Option` branch per hook site. The per-core series
/// (busy-cycle gauges, worst per-quantum busy-cycle skew) are keyed per
/// *core*, not per worker, so the published values are independent of
/// how cores were claimed by threads.
struct ParTele<'t> {
    reg: &'t mut Registry,
    /// Next cycle at or after which the occupancy series sample fires
    /// (stride-bucket crossing; robust to event-skip cycle jumps).
    next_sample: u64,
    resident_warps: MetricId,
    ready_warps: MetricId,
    no_issue_slots: MetricId,
    idle_skip_cycles: MetricId,
    visible_stall: MetricId,
    quantum_count: MetricId,
    max_skew: MetricId,
    busy: Vec<MetricId>,
}

impl<'t> ParTele<'t> {
    fn new(reg: &'t mut Registry, num_cores: usize) -> Self {
        let quantum_count = reg.counter("sim.parallel.quantum_count");
        let max_skew = reg.gauge("sim.parallel.max_skew_cycles");
        let busy = (0..num_cores)
            .map(|i| reg.gauge(&format!("sim.parallel.cluster.{i}.busy_cycles")))
            .collect();
        ParTele {
            resident_warps: reg.series("sim.series.resident_warps"),
            ready_warps: reg.series("sim.series.ready_warps"),
            no_issue_slots: reg.counter("sim.sched.no_issue_slots"),
            idle_skip_cycles: reg.counter("sim.sched.idle_skip_cycles"),
            visible_stall: reg.histogram("sim.hist.visible_stall_cycles"),
            reg,
            next_sample: 0,
            quantum_count,
            max_skew,
            busy,
        }
    }
}

fn push_ev(out: &mut Outbox, t: u64, ev: Ev) {
    let seq = out.seq;
    out.seq += 1;
    out.evs.push(QEv { t, seq, ev });
}

/// Buffers the scheduling event `ev()` when the recorder keeps them.
fn push_sched(out: &mut Outbox, obs: Obs, t: u64, ev: impl FnOnce() -> FlightEvent) {
    if obs == Obs::Schedule {
        push_ev(out, t, Ev::Flight(ev()));
    }
}

/// The scheduling event of warp `w` on core `core` issuing a memory
/// instruction.
fn mem_issue(
    core: usize,
    w: &Warp,
    space: MemSpace,
    is_store: bool,
    transactions: usize,
    stall: u64,
    site: Option<(BlockId, usize)>,
) -> FlightEvent {
    FlightEvent::MemIssue {
        core: core as u16,
        wg: w.wg as u32,
        warp: w.warp_in_wg as u16,
        space: space_code(space),
        is_store,
        transactions: transactions.min(255) as u8,
        stall: stall.min(255) as u8,
        site: site.map(|(b, i)| (b.0, i as u32)),
    }
}

/// Timing prediction for a translation that missed the core's L1 TLB:
/// the sequential `SharedMemorySystem::translate` arithmetic, with the
/// snapshot probe standing in for the L2 TLB access and the core's
/// private DRAM view standing in for the shared channels.
fn predict_translate(shared: &SharedMemorySystem, dv: &mut DramView, va: u64, now: u64) -> u64 {
    let tm = shared.timings();
    let at_l2 = now + tm.l2_tlb_hit;
    if shared.l2_tlb().probe(va) {
        at_l2
    } else {
        dv.access((va >> 12) * 8, at_l2 + tm.walk)
    }
}

/// Timing prediction for a data transaction that missed the core's L1
/// Dcache (sequential `access_data` arithmetic against the snapshot).
fn predict_data(shared: &SharedMemorySystem, dv: &mut DramView, pa: u64, now: u64) -> u64 {
    let tm = shared.timings();
    let at_l2 = now + tm.l2_hit;
    if shared.l2().probe(pa) {
        at_l2
    } else {
        dv.access(pa, at_l2)
    }
}

/// Advances one core from `t0` to `t1`: the per-cycle issue loop of the
/// sequential engine, restricted to core-local state + the snapshot.
#[allow(clippy::too_many_arguments)]
fn advance_core(
    cfg: &GpuConfig,
    t0: u64,
    t1: u64,
    core: &mut Core,
    out: &mut Outbox,
    check: &mut PhaseCheck<'_, '_, '_, '_>,
    dram_view: &mut DramView,
    launches: &[LaunchState],
    shared: &SharedMemorySystem,
    vm: &VirtualMemorySpace,
    core_idx: usize,
    obs: Obs,
) {
    if out.accs.len() != launches.len() {
        out.accs.resize_with(launches.len(), LaunchAcc::default);
    }
    let mut t = t0;
    while t < t1 {
        if core.next_ready_at > t {
            if core.next_ready_at >= t1 {
                break;
            }
            t = core.next_ready_at;
            continue;
        }
        let mut issued = false;
        for _ in 0..cfg.issue_width {
            match core.pick_warp(t) {
                Some(wi) => {
                    core.last_issued = Some(wi);
                    exec_warp_phase(
                        cfg, t, core, out, check, dram_view, launches, shared, vm, core_idx, obs,
                        wi,
                    );
                    out.issued += 1;
                    issued = true;
                }
                None => {
                    out.no_issue += 1;
                    core.next_ready_at = core.next_ready();
                    break;
                }
            }
        }
        if issued {
            out.busy += 1;
        }
        t += 1;
    }
}

/// Parks a warp on a serialized operation: frozen in place (pc not
/// advanced) until the drain re-derives and executes the instruction.
fn park_warp(out: &mut Outbox, t: u64, core: &mut Core, wi: usize) {
    let w = &mut core.warps[wi];
    w.ready_at = u64::MAX;
    push_ev(
        out,
        t,
        Ev::Parked {
            li: w.launch_idx as u32,
            wg: w.wg,
            win: w.warp_in_wg as u32,
        },
    );
}

/// Freezes a warp that triggered an abort verdict; the drain strips the
/// whole launch when (and only when) this event is first in canonical
/// order for that launch.
fn freeze_abort(
    out: &mut Outbox,
    t: u64,
    core: &mut Core,
    wi: usize,
    li: usize,
    reason: AbortReason,
) {
    let (wg, win) = {
        let w = &mut core.warps[wi];
        w.ready_at = u64::MAX;
        (w.wg, w.warp_in_wg as u32)
    };
    let li = li as u32;
    push_ev(
        out,
        t,
        Ev::Abort(AbortReq {
            li,
            wg,
            win,
            reason,
        }),
    );
}

#[allow(clippy::too_many_arguments)]
fn exec_warp_phase(
    cfg: &GpuConfig,
    t: u64,
    core: &mut Core,
    out: &mut Outbox,
    check: &mut PhaseCheck<'_, '_, '_, '_>,
    dram_view: &mut DramView,
    launches: &[LaunchState],
    shared: &SharedMemorySystem,
    vm: &VirtualMemorySpace,
    core_idx: usize,
    obs: Obs,
    wi: usize,
) {
    let li = core.warps[wi].launch_idx;
    let outcome = {
        let ls = &launches[li];
        core.warps[wi].exec_simple(&ls.launch.kernel, &ls.recon, &ls.ctx())
    };
    match outcome {
        SimpleOutcome::Done => {
            out.profile.alu_issues += 1;
            out.accs[li].instructions += 1;
            core.warps[wi].ready_at = t + cfg.alu_latency;
        }
        SimpleOutcome::Retired => {
            out.profile.alu_issues += 1;
            out.accs[li].instructions += 1;
            retire_warp_phase(cfg, t, core, out, launches, core_idx, obs, wi);
        }
        SimpleOutcome::NeedsCore => {
            let pc = core.warps[wi].pc().expect("NeedsCore implies a live pc");
            let instr = launches[li].launch.kernel.block(pc.0).instrs()[pc.1];
            match instr {
                Instr::Bar => {
                    let (li, wg, win) = core.arrive_at_barrier(wi, t);
                    out.profile.barrier_issues += 1;
                    out.accs[li].instructions += 1;
                    push_sched(out, obs, t, || FlightEvent::BarrierArrive {
                        core: core_idx as u16,
                        wg: wg as u32,
                        warp: win as u16,
                    });
                }
                Instr::Malloc { .. } | Instr::Free { .. } => park_warp(out, t, core, wi),
                Instr::Ld { .. } | Instr::St { .. } | Instr::AtomAdd { .. } => {
                    exec_mem_phase(
                        cfg, t, core, out, check, dram_view, launches, shared, vm, core_idx, obs,
                        wi, li, pc, instr,
                    );
                }
                _ => unreachable!("exec_simple handles all other instructions"),
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn retire_warp_phase(
    cfg: &GpuConfig,
    t: u64,
    core: &mut Core,
    out: &mut Outbox,
    launches: &[LaunchState],
    core_idx: usize,
    obs: Obs,
    wi: usize,
) {
    let (li, wg, win) = {
        let w = &core.warps[wi];
        (w.launch_idx, w.wg, w.warp_in_wg)
    };
    push_sched(out, obs, t, || FlightEvent::WarpRetire {
        core: core_idx as u16,
        wg: wg as u32,
        warp: win as u16,
    });
    core.release_barrier(li, wg, t);
    if core.retire_wg_if_done(li, wg, launches[li].regs_per_wg(cfg)) {
        push_ev(out, t, Ev::Retired { li: li as u32 });
    }
}

/// The LSU pipeline for one warp-level memory instruction inside a phase.
/// Shared-memory accesses are entirely core-local and run to completion;
/// global loads/stores run functionally against the (lock-free) VM with
/// snapshot-predicted timing; global atomics park for the drain.
#[allow(clippy::too_many_arguments)]
fn exec_mem_phase(
    cfg: &GpuConfig,
    t: u64,
    core: &mut Core,
    out: &mut Outbox,
    check: &mut PhaseCheck<'_, '_, '_, '_>,
    dram_view: &mut DramView,
    launches: &[LaunchState],
    shared: &SharedMemorySystem,
    vm: &VirtualMemorySpace,
    core_idx: usize,
    obs: Obs,
    wi: usize,
    li: usize,
    site: (BlockId, usize),
    instr: Instr,
) {
    let op = MemOp::decode(instr);
    if op.is_atomic && op.space != MemSpace::Shared {
        // Global read-modify-writes are serialized machine-wide; the
        // drain executes them in canonical order.
        park_warp(out, t, core, wi);
        return;
    }
    let mut scratch = std::mem::take(&mut core.scratch);
    let ptr = scratch.agu(&core.warps[wi], &op, &launches[li].ctx());

    if op.space == MemSpace::Shared {
        out.profile.shared_issues += 1;
        scratch.shared(core, wi, t, cfg.timings.l1_hit, &op);
        core.scratch = scratch;
        let w = &core.warps[wi];
        push_sched(out, obs, t, || {
            mem_issue(core_idx, w, MemSpace::Shared, op.is_store, 1, 0, None)
        });
        let acc = &mut out.accs[li];
        acc.instructions += 1;
        acc.mem_instructions += 1;
        return;
    }

    // ---- Translate + timing against the quantum-start snapshot ----------
    let translation_fault = scratch.translate(vm, op.width);
    let start = t.max(core.lsu_busy_until);
    let (done_at, all_l1_hit) =
        scratch.timing(core, vm, start, cfg.timings.l1_hit, |miss, at| match miss {
            Miss::Xlate(va) => {
                push_ev(out, at, Ev::Xlate(va));
                predict_translate(shared, dram_view, va, at)
            }
            Miss::Data(pa) => {
                push_ev(out, at, Ev::Data(pa));
                predict_data(shared, dram_view, pa, at)
            }
        });

    // ---- Bounds check via the core's shard (or the whole guard) ---------
    let ls = &launches[li];
    let decision = ls.launch.plan.get(site);
    let mut stall = 0u64;
    let mut verdict = GuardVerdict::Allow;
    if check.some() {
        let acc = &mut out.accs[li];
        if decision == SiteCheck::Static {
            acc.checks_skipped += 1;
            if ls.launch.plan.certified(site) {
                acc.checks_certified += 1;
            }
        } else if let Some(access) = scratch.access(
            core_idx,
            ls.launch.kernel_id,
            &op,
            ptr,
            site,
            decision,
            all_l1_hit,
        ) {
            let chk = check.check(&access, vm);
            stall = chk.stall_cycles;
            verdict = chk.verdict;
            acc.checks_performed += 1;
            acc.stall_attribution.record(chk.path, chk.stall_cycles);
            out.profile.bcu_checks += 1;
            if obs != Obs::Off {
                let ev = lsu::verdict_event(&access, &core.warps[wi], &chk);
                push_ev(out, t, Ev::Flight(ev));
            }
        }
    }

    // ---- Outcome --------------------------------------------------------
    let fault = match verdict {
        GuardVerdict::Fault => Some(AbortReason::BoundsViolation),
        GuardVerdict::Squash => {
            out.accs[li].violations_squashed += 1;
            lsu::squash(&mut core.warps[wi], &op);
            None
        }
        // The pre-check translated every lane's first byte, so a commit
        // fault is a lane straddling into an unmapped page — the same
        // typed abort, never a panic.
        GuardVerdict::Allow => match translation_fault {
            Some(f) => Some(AbortReason::MemFault(f)),
            None => scratch
                .commit(&mut core.warps[wi], &op, vm)
                .err()
                .map(AbortReason::MemFault),
        },
    };
    if let Some(reason) = fault {
        core.scratch = scratch;
        freeze_abort(out, t, core, wi, li, reason);
        return;
    }

    // ---- Timing commit --------------------------------------------------
    push_sched(out, obs, t, || {
        let (w, n) = (&core.warps[wi], scratch.txs.len());
        mem_issue(core_idx, w, op.space, op.is_store, n, stall, Some(site))
    });
    let n_txs = scratch.txs.len() as u64;
    core.lsu_busy_until = start + n_txs + stall;
    let warp = &mut core.warps[wi];
    warp.ready_at = done_at + stall;
    warp.advance_pc();
    core.scratch = scratch;
    out.profile.mem_issues += 1;
    out.profile.lsu_transactions += n_txs;
    out.profile.bcu_stall_cycles += stall;
    out.stalls.push(stall);
    let acc = &mut out.accs[li];
    acc.instructions += 1;
    acc.mem_instructions += 1;
    acc.transactions += n_txs;
    acc.guard_stall_cycles += stall;
}

/// Runs `launches` to completion on the cycle-quantum engine: the engine
/// behind [`super::Gpu::run_with`], except for fault-injected and
/// range-recording runs, which keep the sequential reference engine.
#[allow(clippy::too_many_arguments)]
pub(super) fn run_engine(
    cfg: &GpuConfig,
    vm: &mut VirtualMemorySpace,
    shared: &mut SharedMemorySystem,
    launches: &[KernelLaunch],
    mode: MultiKernelMode,
    mut guard: Option<&mut dyn MemGuard>,
    registry: Option<&mut Registry>,
    flight: Option<&mut FlightRecorder>,
) -> Result<RunReport, RunError> {
    let ls = build_launch_states(cfg, launches)?;
    let n = cfg.num_cores;
    let vm: &VirtualMemorySpace = vm;

    // A forkable guard always runs sharded — even single-threaded — so the
    // per-core check sequences are the same for every worker count. A
    // non-forkable guard is shared behind a mutex and forces one worker,
    // which keeps its global check order canonical (core-major).
    let (forked, whole) = match guard.as_deref_mut() {
        Some(g) if g.supports_fork(n) => (
            Some(
                g.fork_cores(n)
                    .expect("supports_fork implies fork_cores succeeds"),
            ),
            None,
        ),
        Some(g) => (None, Some(Mutex::new(g))),
        None => (None, None),
    };
    let workers = if whole.is_some() {
        1
    } else {
        cfg.sim_threads.clamp(1, n)
    };

    let mut shards: Vec<Option<Box<dyn CoreGuard + Send + '_>>> = forked.map_or_else(
        || (0..n).map(|_| None).collect(),
        |v| v.into_iter().map(Some).collect(),
    );
    let slots: Vec<Mutex<CoreSlot<'_>>> = (0..n)
        .map(|i| {
            Mutex::new(CoreSlot {
                core: Core::new(cfg),
                out: Outbox::for_run(launches.len()),
                shard: shards[i].take(),
                dram_view: shared.dram().view(),
            })
        })
        .collect();
    drop(shards); // all `None` now; ends its borrow of the guard
    let launches_lk = RwLock::new(ls);
    let shared_lk = RwLock::new(&mut *shared);
    let t0a = AtomicU64::new(0);
    let t1a = AtomicU64::new(0);
    let claim = AtomicUsize::new(0);
    let obs = match flight.as_deref() {
        None => Obs::Off,
        Some(f) if f.records_schedule() => Obs::Schedule,
        Some(_) => Obs::Checks,
    };

    let work = |_w: usize| {
        let t0 = t0a.load(Ordering::Relaxed);
        let t1 = t1a.load(Ordering::Relaxed);
        loop {
            let i = claim.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            let mut slot = lock_ok(slots[i].lock());
            let CoreSlot {
                core,
                out,
                shard,
                dram_view,
            } = &mut *slot;
            let lr = lock_ok(launches_lk.read());
            let sr = lock_ok(shared_lk.read());
            let mut check = match (shard.as_deref_mut(), whole.as_ref()) {
                (Some(s), _) => PhaseCheck::Shard(s),
                (None, Some(m)) => PhaseCheck::Whole(m),
                (None, None) => PhaseCheck::None,
            };
            advance_core(
                cfg, t0, t1, core, out, &mut check, dram_view, &lr, &sr, vm, i, obs,
            );
        }
    };

    let driver = |ctl: &gpushield_runtime::CrewCtl| -> Result<(u64, SimProfile), RunError> {
        let mut cycle: u64 = 0;
        let mut age_seq: u64 = 0;
        let mut rr_cursor: usize = 0;
        let mut quanta: u64 = 0;
        let mut d = Drainer {
            cfg,
            slots: &slots,
            vm,
            whole: &whole,
            heaps: HashMap::new(),
            profile: SimProfile::default(),
            tele: registry.map(|reg| ParTele::new(reg, n)),
            flight,
            keys: Vec::with_capacity(n * QUANTUM as usize * 4),
            busy_totals: vec![0; n],
            max_skew: 0,
        };
        loop {
            if cycle >= cfg.max_cycles {
                let budget = cfg.max_cycles;
                d.record(cycle, FlightEvent::WatchdogTrip { budget });
                return Err(RunError::CycleBudgetExceeded {
                    cycle,
                    budget: cfg.max_cycles,
                });
            }
            {
                let mut lw = lock_ok(launches_lk.write());
                // Round-robin workgroup dispatch at the quantum boundary.
                let rr = &mut rr_cursor;
                dispatch_round_robin(cfg, mode, &mut lw, rr, |lw, core_idx, li| {
                    let mut slot = lock_ok(slots[core_idx].lock());
                    let placed = slot.core.dispatch(cfg, lw, li, cycle, &mut age_seq);
                    if let Some(wg) = placed {
                        let (core, wg) = (core_idx as u16, wg as u32);
                        d.record(cycle, FlightEvent::WgDispatch { core, wg });
                    }
                    placed.is_some()
                });
                if lw.iter().all(|l| l.finished()) {
                    break;
                }
            }
            sample_occupancy_par(&mut d.tele, cycle, &slots);
            let t1 = cycle.saturating_add(QUANTUM).min(cfg.max_cycles);
            t0a.store(cycle, Ordering::Relaxed);
            t1a.store(t1, Ordering::Relaxed);
            claim.store(0, Ordering::Relaxed);
            ctl.round();
            quanta += 1;
            let issued = d.drain(&launches_lk, &shared_lk)?;
            if lock_ok(launches_lk.read()).iter().all(|l| l.finished()) {
                break;
            }
            if issued > 0 {
                cycle = t1;
            } else {
                d.profile.idle_skips += 1;
                // Event skip: jump to the next cycle anything becomes ready.
                // Blocked warps (exhausted heap) never wake; warps at a
                // barrier wake only through peers, which issue first.
                let mut next: Option<u64> = None;
                let mut alloc_blocked = false;
                {
                    let lr = lock_ok(launches_lk.read());
                    for slot in &slots {
                        let s = lock_ok(slot.lock());
                        for w in &s.core.warps {
                            if w.done || lr[w.launch_idx].aborted {
                                continue;
                            }
                            if w.blocked {
                                alloc_blocked = true;
                                continue;
                            }
                            if w.at_barrier || w.ready_at == u64::MAX {
                                continue;
                            }
                            next = Some(next.map_or(w.ready_at, |m| m.min(w.ready_at)));
                        }
                    }
                }
                match next {
                    Some(nr) => {
                        // Clamp to the watchdog budget so the error reports
                        // the budget cycle, not a far-future wakeup.
                        let target = nr.max(t1).min(cfg.max_cycles);
                        if let Some(t) = d.tele.as_mut() {
                            t.reg.add(t.idle_skip_cycles, target - cycle);
                        }
                        cycle = target;
                    }
                    None => {
                        if alloc_blocked {
                            return Err(RunError::HeapDeadlock { cycle });
                        }
                        return Err(RunError::BarrierDeadlock { cycle });
                    }
                }
            }
        }
        let final_cycles = lock_ok(launches_lk.read())
            .iter()
            .map(|l| l.report.end_cycle)
            .max()
            .unwrap_or(0);
        if let Some(t) = d.tele.as_mut() {
            let qc = t.quantum_count;
            let ms = t.max_skew;
            t.reg.add(qc, quanta);
            t.reg.set(ms, d.max_skew);
            for (i, id) in t.busy.iter().enumerate() {
                t.reg.set(*id, d.busy_totals[i]);
            }
        }
        Ok((final_cycles, d.profile))
    };

    let crew_result = with_crew(workers, work, driver);

    let _ = whole; // end the serialized-guard borrow before merging forks
    let l1 = l1_totals(slots.into_iter().map(|slot| {
        let s = lock_ok(slot.into_inner());
        (s.core.l1d.stats(), s.core.l1tlb.stats())
    }));
    if let Some(g) = guard {
        g.merge_forked();
    }
    let (final_cycles, profile) = crew_result?;
    let ls = lock_ok(launches_lk.into_inner());
    let _ = shared_lk; // end the shared-system borrow before reading stats
    let launches = ls.into_iter().map(|l| l.report).collect();
    Ok(run_report(final_cycles, launches, l1, shared, profile))
}

/// Stride-bucket occupancy sampling at a quantum boundary (the sequential
/// rule, evaluated over all cores by the driver thread).
fn sample_occupancy_par(tele: &mut Option<ParTele<'_>>, cycle: u64, slots: &[Mutex<CoreSlot<'_>>]) {
    let Some(t) = tele.as_mut() else {
        return;
    };
    if cycle < t.next_sample {
        return;
    }
    let stride = t.reg.stride();
    t.next_sample = (cycle / stride + 1) * stride;
    let (resident, ready) = (slots.iter())
        .map(|s| lock_ok(s.lock()).core.occupancy(cycle))
        .fold((0, 0), |(a, b), (r, q)| (a + r, b + q));
    t.reg.sample(t.resident_warps, cycle, resident);
    t.reg.sample(t.ready_warps, cycle, ready);
}

/// The driver thread's drain state for one run: the cores and the
/// unforked guard the drain acts on, the device heaps, the run's profile
/// and observers, the reusable sort buffer and the per-core busy totals.
struct Drainer<'a, 's, 'w, 'g, 'o> {
    cfg: &'a GpuConfig,
    slots: &'a [Mutex<CoreSlot<'s>>],
    vm: &'a VirtualMemorySpace,
    whole: &'a Option<Mutex<&'w mut (dyn MemGuard + 'g)>>,
    heaps: HashMap<u64, HeapRun>,
    profile: SimProfile,
    tele: Option<ParTele<'o>>,
    flight: Option<&'o mut FlightRecorder>,
    keys: Vec<DrainKey>,
    busy_totals: Vec<u64>,
    max_skew: u64,
}

/// A launch abort: the launch and the guilty warp's identity, which the
/// flight recorder attributes it to (the warp itself is stripped by the
/// time the drain applies the abort).
#[derive(Clone, Copy)]
struct AbortReq {
    li: u32,
    wg: u64,
    win: u32,
    reason: AbortReason,
}

impl Drainer<'_, '_, '_, '_, '_> {
    /// Records `ev` at cycle `t` when a flight recorder is attached.
    fn record(&mut self, t: u64, ev: FlightEvent) {
        if let Some(f) = self.flight.as_mut() {
            f.record(t, ev);
        }
    }

    /// The quantum drain. Pass 1 collects every outbox (counters merge in
    /// core order; events gain their core in the sort key); pass 2 replays
    /// the events against the real shared system in canonical `(t, core,
    /// seq)` order; pass 3 refreshes each core's private DRAM timing view
    /// from the post-drain channel state. Returns the number of
    /// instructions issued across the quantum.
    fn drain(
        &mut self,
        launches_lk: &RwLock<Vec<LaunchState>>,
        shared_lk: &RwLock<&mut SharedMemorySystem>,
    ) -> Result<u64, RunError> {
        let mut keys = std::mem::take(&mut self.keys);
        keys.clear();
        let mut issued_total = 0u64;
        let (mut busy_min, mut busy_max) = (u64::MAX, 0u64);
        {
            let mut lw = lock_ok(launches_lk.write());
            for (ci, slot) in self.slots.iter().enumerate() {
                let mut s = lock_ok(slot.lock());
                let out = &mut s.out;
                for q in out.evs.drain(..) {
                    keys.push(DrainKey {
                        t: q.t,
                        core: ci as u32,
                        seq: q.seq,
                        ev: q.ev,
                    });
                }
                out.seq = 0;
                self.profile.merge(&out.profile);
                out.profile = SimProfile::default();
                for (li, acc) in out.accs.iter_mut().enumerate() {
                    acc.drain_into(&mut lw[li].report);
                }
                if let Some(t) = self.tele.as_mut() {
                    t.reg.add(t.no_issue_slots, out.no_issue);
                    for &st in &out.stalls {
                        t.reg.observe(t.visible_stall, st);
                    }
                }
                out.no_issue = 0;
                out.stalls.clear();
                issued_total += out.issued;
                self.busy_totals[ci] += out.busy;
                busy_min = busy_min.min(out.busy);
                busy_max = busy_max.max(out.busy);
                out.issued = 0;
                out.busy = 0;
            }
        }
        if busy_max > busy_min {
            self.max_skew = self.max_skew.max(busy_max - busy_min);
        }
        keys.sort_unstable_by_key(|k| (k.t, k.core, k.seq));

        {
            let mut lw = lock_ok(launches_lk.write());
            let mut sw = lock_ok(shared_lk.write());
            let shared: &mut SharedMemorySystem = &mut sw;
            for k in &keys {
                match k.ev {
                    Ev::Data(pa) => {
                        shared.access_data(pa, k.t);
                    }
                    Ev::Xlate(va) => {
                        shared.translate(va, k.t);
                    }
                    Ev::Flight(fe) => self.record(k.t, fe),
                    Ev::Retired { li } => {
                        let lstate = &mut lw[li as usize];
                        lstate.wgs_retired += 1;
                        if lstate.finished() {
                            lstate.report.end_cycle = k.t;
                            let kernel_id = lstate.launch.kernel_id;
                            self.record(k.t, FlightEvent::KernelComplete { kernel_id });
                            self.kernel_end(kernel_id);
                        }
                    }
                    Ev::Abort(req) => self.abort(&mut lw, req, k.t),
                    Ev::Parked { li, wg, win } => {
                        let (ci, li, win) = (k.core as usize, li as usize, win as usize);
                        if let Some(req) = self.parked(&mut lw, shared, k.t, ci, li, wg, win)? {
                            self.abort(&mut lw, req, k.t);
                        }
                    }
                }
            }
        }
        self.keys = keys;

        let sr = lock_ok(shared_lk.read());
        for slot in self.slots {
            let mut s = lock_ok(slot.lock());
            sr.dram().refresh_view(&mut s.dram_view);
        }
        Ok(issued_total)
    }

    /// Executes a parked serialized operation at the drain. The warp is
    /// re-found by its stable `(launch, wg, warp-in-wg)` identity (indices
    /// shift when workgroups retire); a missing warp means its launch
    /// aborted earlier in canonical order and the park is moot. Returns a
    /// pending abort to apply after the slot lock drops.
    #[allow(clippy::too_many_arguments)]
    fn parked(
        &mut self,
        lw: &mut [LaunchState],
        shared: &mut SharedMemorySystem,
        t: u64,
        ci: usize,
        li: usize,
        wg: u64,
        win: usize,
    ) -> Result<Option<AbortReq>, RunError> {
        let slots = self.slots;
        let mut slot = lock_ok(slots[ci].lock());
        let sl = &mut *slot;
        let Some(wi) = sl
            .core
            .warps
            .iter()
            .position(|w| w.launch_idx == li && w.wg == wg && w.warp_in_wg == win && !w.done)
        else {
            return Ok(None);
        };
        let Some(pc) = sl.core.warps[wi].pc() else {
            return Ok(None);
        };
        let instr = lw[li].launch.kernel.block(pc.0).instrs()[pc.1];
        match instr {
            Instr::Malloc { dst, size } => self
                .malloc(sl, lw, t, wi, li, Some(dst), size)
                .map(|()| None),
            Instr::Free { .. } => {
                let size = Operand::Imm(0);
                self.malloc(sl, lw, t, wi, li, None, size).map(|()| None)
            }
            Instr::AtomAdd { .. } => Ok(self.atom(sl, lw, shared, t, ci, wi, li, pc, instr)),
            _ => unreachable!("only malloc/free/global atomics park"),
        }
    }

    /// Device-heap `malloc`/`free` at the drain: the sequential allocator
    /// semantics at the park's issue cycle, against the (driver-owned)
    /// global heap cursor map.
    #[allow(clippy::too_many_arguments)]
    fn malloc(
        &mut self,
        sl: &mut CoreSlot<'_>,
        lw: &mut [LaunchState],
        t: u64,
        wi: usize,
        li: usize,
        dst: Option<VReg>,
        size: Operand,
    ) -> Result<(), RunError> {
        let heap = match lw[li].launch.heap {
            Some(h) => h,
            None => {
                return Err(RunError::NoHeap {
                    kernel: lw[li].launch.kernel.name().to_string(),
                })
            }
        };
        lw[li].report.instructions += 1;
        self.profile.malloc_issues += 1;
        let core = &mut sl.core;
        let warp = &mut core.warps[wi];
        let entry = self.heaps.entry(heap.tagged_base.va()).or_default();
        let ctx = lw[li].ctx();
        match core
            .scratch
            .heap(self.cfg, warp, &ctx, heap, entry, t, dst, size)
        {
            Some(done_at) => {
                warp.ready_at = done_at;
                warp.advance_pc();
                core.next_ready_at = core.next_ready_at.min(done_at);
            }
            None => {
                warp.blocked = true;
                warp.ready_at = t;
            }
        }
        Ok(())
    }

    /// A global-memory atomic at the drain: the sequential LSU/BCU
    /// pipeline verbatim at the park's issue cycle, against the *real*
    /// shared memory system — canonical order makes the read-modify-write
    /// sequence and its timing identical for every worker count.
    #[allow(clippy::too_many_arguments)]
    fn atom(
        &mut self,
        sl: &mut CoreSlot<'_>,
        lw: &mut [LaunchState],
        shared: &mut SharedMemorySystem,
        t: u64,
        ci: usize,
        wi: usize,
        li: usize,
        site: (BlockId, usize),
        instr: Instr,
    ) -> Option<AbortReq> {
        let (cfg, vm, whole) = (self.cfg, self.vm, self.whole);
        let op = MemOp::decode(instr);
        let CoreSlot { core, shard, .. } = sl;

        // ---- AGU + translate + real shared-system timing ----------------
        // (global-space path; shared atomics never park)
        let mut scratch = std::mem::take(&mut core.scratch);
        let ptr = scratch.agu(&core.warps[wi], &op, &lw[li].ctx());
        let translation_fault = scratch.translate(vm, op.width);
        let start = t.max(core.lsu_busy_until);
        let (done_at, all_l1_hit) =
            scratch.timing(core, vm, start, cfg.timings.l1_hit, |miss, at| match miss {
                Miss::Xlate(va) => shared.translate(va, at),
                Miss::Data(pa) => shared.access_data(pa, at),
            });

        // ---- Bounds check ------------------------------------------------
        let ls = &mut lw[li];
        let decision = ls.launch.plan.get(site);
        let mut stall = 0u64;
        let mut verdict = GuardVerdict::Allow;
        if shard.is_some() || whole.is_some() {
            if decision == SiteCheck::Static {
                ls.report.checks_skipped += 1;
                if ls.launch.plan.certified(site) {
                    ls.report.checks_certified += 1;
                }
            } else if let Some(access) = scratch.access(
                ci,
                ls.launch.kernel_id,
                &op,
                ptr,
                site,
                decision,
                all_l1_hit,
            ) {
                let chk = match (shard.as_deref_mut(), whole.as_ref()) {
                    (Some(s), _) => s.check(&access, vm),
                    (None, Some(m)) => lock_ok(m.lock()).check(&access, vm),
                    (None, None) => GuardCheck::allow_free(),
                };
                stall = chk.stall_cycles;
                verdict = chk.verdict;
                self.profile.bcu_checks += 1;
                ls.report.checks_performed += 1;
                ls.report
                    .stall_attribution
                    .record(chk.path, chk.stall_cycles);
                self.record(t, lsu::verdict_event(&access, &core.warps[wi], &chk));
            }
        }

        // ---- Outcome -----------------------------------------------------
        let fault = match verdict {
            GuardVerdict::Fault => Some(AbortReason::BoundsViolation),
            GuardVerdict::Squash => {
                ls.report.violations_squashed += 1;
                lsu::squash(&mut core.warps[wi], &op);
                None
            }
            // As in the load/store path: a commit fault is a lane
            // straddling into an unmapped page — the typed abort, never a
            // panic.
            GuardVerdict::Allow => match translation_fault {
                Some(f) => Some(AbortReason::MemFault(f)),
                None => scratch
                    .commit(&mut core.warps[wi], &op, vm)
                    .err()
                    .map(AbortReason::MemFault),
            },
        };
        if let Some(reason) = fault {
            core.scratch = scratch;
            let w = &core.warps[wi];
            let (li, win) = (li as u32, w.warp_in_wg as u32);
            return Some(AbortReq {
                li,
                wg: w.wg,
                win,
                reason,
            });
        }

        // ---- Timing commit -----------------------------------------------
        let (w, n) = (&core.warps[wi], scratch.txs.len());
        self.record(t, mem_issue(ci, w, op.space, true, n, stall, Some(site)));
        let atomic_serial = scratch.active_lanes();
        let n_txs = scratch.txs.len() as u64;
        core.lsu_busy_until = start + n_txs + stall + atomic_serial;
        let warp = &mut core.warps[wi];
        warp.ready_at = done_at + stall + atomic_serial;
        warp.advance_pc();
        core.next_ready_at = core.next_ready_at.min(done_at + stall + atomic_serial);
        core.scratch = scratch;
        self.profile.mem_issues += 1;
        self.profile.lsu_transactions += n_txs;
        self.profile.bcu_stall_cycles += stall;
        if let Some(t) = self.tele.as_mut() {
            t.reg.observe(t.visible_stall, stall);
        }
        let report = &mut lw[li].report;
        report.instructions += 1;
        report.mem_instructions += 1;
        report.transactions += n_txs;
        report.guard_stall_cycles += stall;
        None
    }

    /// Strips an aborting launch from the whole machine at the drain —
    /// the sequential `abort_launch` semantics at the abort's issue cycle.
    /// Only the canonically-first abort per launch takes effect.
    fn abort(&mut self, lw: &mut [LaunchState], req: AbortReq, t: u64) {
        let li = req.li as usize;
        let lstate = &mut lw[li];
        if lstate.aborted {
            return;
        }
        lstate.aborted = true;
        lstate.report.abort = Some(req.reason);
        lstate.report.end_cycle = t;
        let kernel_id = lstate.launch.kernel_id;
        let (wg, warp, reason) = (req.wg as u32, req.win as u16, req.reason.code());
        self.record(
            t,
            FlightEvent::KernelAbort {
                kernel_id,
                wg,
                warp,
                reason,
            },
        );
        for slot in self.slots {
            let mut s = lock_ok(slot.lock());
            s.core.strip_launch(li, lw);
            s.core.next_ready_at = s.core.next_ready();
        }
        self.kernel_end(kernel_id);
    }

    /// RCache flush on kernel end: every shard (core order) plus the
    /// whole guard when running unsharded.
    fn kernel_end(&self, kernel_id: u16) {
        for slot in self.slots {
            let mut s = lock_ok(slot.lock());
            if let Some(sh) = s.shard.as_deref_mut() {
                sh.on_kernel_end(kernel_id);
            }
        }
        if let Some(m) = self.whole {
            lock_ok(m.lock()).on_kernel_end(kernel_id);
        }
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn outbox_entries_fit_a_cache_line() {
        assert!(std::mem::size_of::<super::QEv>() <= 64);
    }
}
