//! The GPU device: workgroup dispatcher, shader cores with
//! greedy-then-oldest warp scheduling, the LSU memory pipeline, and
//! multi-kernel execution modes (§6.2).

use crate::config::GpuConfig;
use crate::fault::{self, FaultKind, FaultSession};
use crate::guard::{GuardVerdict, MemGuard};
use crate::launch::{KernelLaunch, SiteCheck};
use crate::stats::{self, AbortReason, LaunchReport, RunReport, SimProfile};
use crate::warp::{ExecCtx, SimpleOutcome, Warp};
use gpushield_isa::{Instr, MemSpace, ReconvergenceTable, TaggedPtr};
use gpushield_mem::{Cache, CacheStats, Replacement, SharedMemorySystem, Tlb, VirtualMemorySpace};
use gpushield_telemetry::flight::{FlightEvent, FlightRecorder};
use gpushield_telemetry::Registry;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// The deterministic cycle-quantum parallel engine. A child module of
/// `gpu` (not a sibling) so it can reuse every private piece of the
/// sequential model — `Core`, `LaunchState`, scheduling and LSU helpers —
/// without widening their visibility.
#[path = "par.rs"]
mod par;

/// The LSU lane front end both engines share.
#[path = "lsu.rs"]
mod lsu;

use lsu::{MemOp, Miss, WarpScratch};

/// How concurrent kernels share the GPU (§6.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MultiKernelMode {
    /// Fine-grained core slicing: every kernel may occupy any core.
    #[default]
    IntraCore,
    /// Core partitioning: kernel *i* of *n* runs on the *i*-th slice of the
    /// cores.
    InterCore,
}

/// Host-visible simulation errors (distinct from in-kernel faults, which
/// abort the offending launch and are reported in its [`LaunchReport`]).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RunError {
    /// A workgroup cannot fit on an empty core (threads, registers, or
    /// shared memory).
    WorkgroupTooLarge {
        /// Offending kernel name.
        kernel: String,
    },
    /// All live warps are blocked at a barrier and nothing can unblock them.
    BarrierDeadlock {
        /// Cycle at which the deadlock was detected.
        cycle: u64,
    },
    /// A kernel executed `malloc` but the launch carried no heap region.
    NoHeap {
        /// Offending kernel name.
        kernel: String,
    },
    /// The cycle counter reached the configured hard budget
    /// (`GpuConfig::max_cycles`): the watchdog terminated a hang
    /// deterministically instead of simulating forever.
    CycleBudgetExceeded {
        /// Cycle at which the watchdog fired.
        cycle: u64,
        /// The configured budget.
        budget: u64,
    },
    /// All remaining live warps are blocked on an exhausted device-heap
    /// allocator and no warp that could free memory is left (only
    /// reachable under `GpuConfig::malloc_blocks_on_exhaustion`).
    HeapDeadlock {
        /// Cycle at which the deadlock was detected.
        cycle: u64,
    },
    /// The batch held no launches.
    NoLaunches,
    /// The reference engine, which fault-injected and range-recording
    /// runs take, was asked for a hook it cannot serve.
    UnsupportedHook {
        /// The hook: `"schedule"` (a recorder that keeps the scheduling
        /// kinds), `"registry"` or `"InterCore mode"`.
        hook: &'static str,
    },
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::WorkgroupTooLarge { kernel } => {
                write!(f, "workgroup of kernel {kernel} cannot fit on a core")
            }
            RunError::BarrierDeadlock { cycle } => {
                write!(f, "barrier deadlock detected at cycle {cycle}")
            }
            RunError::NoHeap { kernel } => {
                write!(f, "kernel {kernel} uses malloc but no heap was configured")
            }
            RunError::CycleBudgetExceeded { cycle, budget } => {
                write!(f, "cycle budget of {budget} exceeded at cycle {cycle}")
            }
            RunError::HeapDeadlock { cycle } => {
                write!(f, "heap-allocation deadlock detected at cycle {cycle}")
            }
            RunError::NoLaunches => write!(f, "no launches given"),
            RunError::UnsupportedHook { hook } => write!(
                f,
                "fault-injected and range-recording runs cannot serve the {hook} hook"
            ),
        }
    }
}

impl Error for RunError {}

struct ResidentWg {
    launch_idx: usize,
    wg: u64,
    shared: Vec<u8>,
}

struct Core {
    l1d: Cache,
    l1tlb: Tlb,
    lsu_busy_until: u64,
    warps: Vec<Warp>,
    wgs: Vec<ResidentWg>,
    last_issued: Option<usize>,
    /// Registers held by resident warps — kept in sync incrementally so the
    /// per-cycle dispatch fit check does not walk every warp.
    regs_used: usize,
    /// Shared-memory bytes held by resident workgroups, cached for the same
    /// reason as `regs_used`.
    shared_used: u64,
    /// Conservative lower bound on the earliest cycle any resident warp can
    /// issue. The scheduler skips the whole core while `cycle` is below it;
    /// every `ready_at` write and barrier release lowers it, and a failed
    /// warp pick recomputes it exactly.
    next_ready_at: u64,
    scratch: WarpScratch,
}

impl Core {
    fn new(cfg: &GpuConfig) -> Self {
        Core {
            l1d: Cache::new(cfg.l1_bytes, 128, cfg.l1_ways, Replacement::Lru),
            l1tlb: Tlb::new(cfg.l1_tlb_entries, 0),
            lsu_busy_until: 0,
            warps: Vec::new(),
            wgs: Vec::new(),
            last_issued: None,
            regs_used: 0,
            shared_used: 0,
            next_ready_at: 0,
            scratch: WarpScratch::default(),
        }
    }

    fn resident_warps(&self) -> usize {
        self.warps.len()
    }

    fn regs_in_use(&self, launches: &[LaunchState]) -> usize {
        self.warps
            .iter()
            .map(|w| usize::from(launches[w.launch_idx].launch.kernel.num_regs()) * w.width)
            .sum()
    }

    fn shared_in_use(&self) -> u64 {
        self.wgs.iter().map(|w| w.shared.len() as u64).sum()
    }

    /// Whether one more workgroup of launch `li` fits beside the resident
    /// ones.
    fn fits(&self, cfg: &GpuConfig, launches: &[LaunchState], li: usize) -> bool {
        debug_assert_eq!(self.regs_used, self.regs_in_use(launches));
        debug_assert_eq!(self.shared_used, self.shared_in_use());
        let ls = &launches[li];
        self.resident_warps() + ls.warps_per_wg <= cfg.max_warps_per_core()
            && self.regs_used + ls.regs_per_wg(cfg) <= cfg.regs_per_core
            && self.shared_used + ls.launch.kernel.shared_bytes() <= cfg.shared_per_core
    }

    /// Places workgroup `wg` of launch `li`: its warps are ready at `cycle`
    /// and take the next ages from `age_seq`.
    fn place_wg(
        &mut self,
        cfg: &GpuConfig,
        (li, ls): (usize, &LaunchState),
        wg: u64,
        cycle: u64,
        age_seq: &mut u64,
    ) {
        let (num_regs, shared_bytes) =
            (ls.launch.kernel.num_regs(), ls.launch.kernel.shared_bytes());
        self.wgs.push(ResidentWg {
            launch_idx: li,
            wg,
            shared: vec![0u8; shared_bytes as usize],
        });
        self.regs_used += ls.regs_per_wg(cfg);
        self.shared_used += shared_bytes;
        // The new warps are ready now; wake the core if it was parked on a
        // later `next_ready_at`.
        self.next_ready_at = self.next_ready_at.min(cycle);
        let block = ls.launch.launch.block as usize;
        for w in 0..ls.warps_per_wg {
            let lanes = (block - w * cfg.warp_width).min(cfg.warp_width);
            let mut warp = Warp::new(li, wg, w, cfg.warp_width, lanes, num_regs, *age_seq);
            warp.ready_at = cycle;
            *age_seq += 1;
            self.warps.push(warp);
        }
    }

    /// Places the next workgroup of launch `li` at `cycle` if it fits
    /// beside the resident ones; returns the workgroup placed.
    fn dispatch(
        &mut self,
        cfg: &GpuConfig,
        launches: &mut [LaunchState],
        li: usize,
        cycle: u64,
        age_seq: &mut u64,
    ) -> Option<u64> {
        if !self.fits(cfg, launches, li) {
            return None;
        }
        let ls = &mut launches[li];
        let wg = ls.next_wg;
        ls.next_wg += 1;
        if ls.report.start_cycle == 0 && ls.report.instructions == 0 {
            ls.report.start_cycle = cycle;
        }
        self.place_wg(cfg, (li, ls), wg, cycle, age_seq);
        Some(wg)
    }

    /// Greedy-then-oldest warp pick at cycle `t`: the last-issued warp
    /// while it stays ready, else the oldest ready one. Warps are appended
    /// in age order and only ever removed, so the first ready one is the
    /// oldest.
    fn pick_warp(&self, t: u64) -> Option<usize> {
        let ready = |w: &Warp| !w.done && !w.at_barrier && !w.blocked && w.ready_at <= t;
        if let Some(i) = self.last_issued {
            if self.warps.get(i).is_some_and(ready) {
                return Some(i);
            }
        }
        debug_assert!(ages_ascend(&self.warps));
        self.warps.iter().position(ready)
    }

    /// Live warps and, of those, the ones ready to issue at cycle `t`.
    fn occupancy(&self, t: u64) -> (u64, u64) {
        let live = self.warps.iter().filter(|w| !w.done);
        let ready = live
            .clone()
            .filter(|w| !w.at_barrier && !w.blocked && w.ready_at <= t);
        (live.count() as u64, ready.count() as u64)
    }

    /// The earliest cycle any resident warp can issue (`u64::MAX` if none).
    fn next_ready(&self) -> u64 {
        self.warps
            .iter()
            .filter(|w| !w.done && !w.at_barrier && !w.blocked)
            .map(|w| w.ready_at)
            .min()
            .unwrap_or(u64::MAX)
    }

    /// Releases workgroup `wg` of launch `li` from its barrier at cycle
    /// `t` once every live warp has arrived.
    fn release_barrier(&mut self, li: usize, wg: u64, t: u64) {
        let member = |w: &Warp| w.launch_idx == li && w.wg == wg;
        let members = || self.warps.iter().filter(|w| member(w));
        let all_arrived = members().filter(|w| !w.done).all(|w| w.at_barrier);
        if all_arrived && members().any(|w| w.at_barrier) {
            for w in self.warps.iter_mut().filter(|w| member(w) && w.at_barrier) {
                w.at_barrier = false;
                w.ready_at = t + 1;
            }
        }
    }

    /// Warp `wi` arrives at its workgroup's barrier at cycle `t`, which
    /// releases the barrier if it was the last. Returns the warp's
    /// (launch, workgroup, warp-in-workgroup).
    fn arrive_at_barrier(&mut self, wi: usize, t: u64) -> (usize, u64, usize) {
        let w = &mut self.warps[wi];
        w.at_barrier = true;
        w.advance_pc();
        let (li, wg, win) = (w.launch_idx, w.wg, w.warp_in_wg);
        self.release_barrier(li, wg, t);
        (li, wg, win)
    }

    /// Frees workgroup `wg` of launch `li` once all its warps are done,
    /// returning `freed_regs` registers and its shared memory. Returns
    /// whether the workgroup retired.
    fn retire_wg_if_done(&mut self, li: usize, wg: u64, freed_regs: usize) -> bool {
        let ours = |l: usize, g: u64| l == li && g == wg;
        if !self
            .warps
            .iter()
            .filter(|w| ours(w.launch_idx, w.wg))
            .all(|w| w.done)
        {
            return false;
        }
        let freed_shared: u64 = (self.wgs.iter())
            .filter(|g| ours(g.launch_idx, g.wg))
            .map(|g| g.shared.len() as u64)
            .sum();
        self.warps.retain(|w| !ours(w.launch_idx, w.wg));
        self.wgs.retain(|g| !ours(g.launch_idx, g.wg));
        self.last_issued = None;
        self.regs_used = self.regs_used.saturating_sub(freed_regs);
        self.shared_used = self.shared_used.saturating_sub(freed_shared);
        true
    }

    /// Strips every warp and workgroup of aborted launch `li`. Aborts are
    /// rare: the occupancy caches are recomputed from scratch.
    fn strip_launch(&mut self, li: usize, launches: &[LaunchState]) {
        self.warps.retain(|w| w.launch_idx != li);
        self.wgs.retain(|g| g.launch_idx != li);
        self.last_issued = None;
        self.regs_used = self.regs_in_use(launches);
        self.shared_used = self.shared_in_use();
    }
}

/// Whether `core_idx` may host launch `launch_idx` of `n_launches` (§6.2:
/// inter-core mode partitions the cores between the launches).
fn launch_allowed_on_core(
    cfg: &GpuConfig,
    mode: MultiKernelMode,
    n_launches: usize,
    launch_idx: usize,
    core_idx: usize,
) -> bool {
    match mode {
        MultiKernelMode::IntraCore => true,
        MultiKernelMode::InterCore => {
            let per = cfg.num_cores.div_ceil(n_launches);
            core_idx / per == launch_idx.min(cfg.num_cores / per)
        }
    }
}

/// Round-robin workgroup dispatch, shared by both engines. Workgroups
/// spread across cores (at most one new workgroup per core per round), as
/// real dispatchers balance occupancy instead of packing one SM full
/// first. `place(launches, core, li)` places launch `li`'s next workgroup
/// on `core` if it fits and reports whether it did. Inlined: the
/// reference engine calls it every cycle, mostly to take the fast path.
#[inline(always)]
fn dispatch_round_robin(
    cfg: &GpuConfig,
    mode: MultiKernelMode,
    launches: &mut [LaunchState],
    rr_cursor: &mut usize,
    mut place: impl FnMut(&mut [LaunchState], usize, usize) -> bool,
) {
    let pending = |l: &LaunchState| !l.aborted && l.next_wg < u64::from(l.launch.launch.grid);
    // Fast path: nothing left to place (the common case once every grid
    // is fully dispatched) — skip the per-core fit probing.
    if !launches.iter().any(pending) {
        return;
    }
    let n = launches.len();
    loop {
        let mut any = false;
        for core_idx in 0..cfg.num_cores {
            for k in 0..n {
                let li = (*rr_cursor + k) % n;
                if pending(&launches[li])
                    && launch_allowed_on_core(cfg, mode, n, li, core_idx)
                    && place(launches, core_idx, li)
                {
                    *rr_cursor = (li + 1) % n;
                    any = true;
                    break;
                }
            }
        }
        if !any {
            break;
        }
    }
}

/// The per-core L1D and L1-TLB statistics summed over `cores`.
fn l1_totals(cores: impl Iterator<Item = (CacheStats, CacheStats)>) -> (CacheStats, CacheStats) {
    let (mut l1d, mut l1_tlb) = (CacheStats::default(), CacheStats::default());
    for (d, t) in cores {
        for (sum, s) in [(&mut l1d, d), (&mut l1_tlb, t)] {
            sum.hits += s.hits;
            sum.misses += s.misses;
            sum.evictions += s.evictions;
        }
    }
    (l1d, l1_tlb)
}

/// Assembles a run report from the launch reports, the summed L1
/// statistics and the shared memory system; the DRAM request count is
/// folded into `profile`.
fn run_report(
    cycles: u64,
    launches: Vec<LaunchReport>,
    (l1d, l1_tlb): (CacheStats, CacheStats),
    shared: &SharedMemorySystem,
    mut profile: SimProfile,
) -> RunReport {
    let dram = shared.dram_stats();
    profile.dram_accesses = dram.requests;
    RunReport {
        cycles,
        launches,
        l1d,
        l1_tlb,
        l2: shared.l2_stats(),
        l2_tlb: shared.l2_tlb_stats(),
        dram,
        profile,
    }
}

/// The scheduler's invariant: a core's warps sit in dispatch (age) order.
fn ages_ascend(warps: &[Warp]) -> bool {
    warps.windows(2).all(|p| p[0].age < p[1].age)
}

struct LaunchState {
    launch: KernelLaunch,
    recon: ReconvergenceTable,
    warps_per_wg: usize,
    next_wg: u64,
    wgs_retired: u64,
    aborted: bool,
    report: LaunchReport,
    /// Per-site attempted-address extremes, populated only under
    /// [`RunHooks::record_ranges`] (`None` keeps the default hot path
    /// allocation-free).
    observed: Option<HashMap<(gpushield_isa::BlockId, usize), (u64, u64)>>,
}

impl LaunchState {
    /// Registers one of the launch's workgroups occupies.
    fn regs_per_wg(&self, cfg: &GpuConfig) -> usize {
        self.warps_per_wg * usize::from(self.launch.kernel.num_regs()) * cfg.warp_width
    }

    /// The uniform values the launch's warps evaluate operands against.
    fn ctx(&self) -> ExecCtx<'_> {
        ExecCtx {
            args: &self.launch.args,
            local_bases: &self.launch.local_bases,
            block_dim: u64::from(self.launch.launch.block),
            grid_dim: u64::from(self.launch.launch.grid),
        }
    }

    fn finished(&self) -> bool {
        self.aborted || self.wgs_retired == u64::from(self.launch.launch.grid)
    }
}

#[derive(Debug, Default)]
struct HeapRun {
    cursor: u64,
    lock_until: u64,
}

/// The simulated GPU device.
///
/// The shared L2/L2-TLB stay warm across `run` calls (as on real hardware,
/// where kernel boundaries flush per-core L1s and GPUShield's RCaches but
/// not the chip-level cache); DRAM channel timing and statistics restart
/// with each run's cycle 0.
pub struct Gpu {
    cfg: GpuConfig,
    shared: SharedMemorySystem,
}

impl Gpu {
    /// Creates a GPU with the given hardware configuration.
    pub fn new(cfg: GpuConfig) -> Self {
        let shared =
            SharedMemorySystem::new(cfg.l2_bytes, cfg.l2_tlb_entries, cfg.dram, cfg.timings);
        Gpu { cfg, shared }
    }

    /// The hardware configuration.
    pub fn config(&self) -> &GpuConfig {
        &self.cfg
    }

    /// Runs `launches` to completion concurrently in
    /// [`MultiKernelMode::IntraCore`] and returns the run report.
    ///
    /// `guard` is the bounds-checking mechanism consulted on every memory
    /// access; `None` simulates an unprotected GPU.
    ///
    /// # Errors
    ///
    /// See [`Gpu::run_with`].
    pub fn run(
        &mut self,
        vm: &mut VirtualMemorySpace,
        launches: &[KernelLaunch],
        guard: Option<&mut dyn MemGuard>,
    ) -> Result<RunReport, RunError> {
        self.run_with(vm, launches, guard, RunHooks::default())
    }

    /// Like [`Gpu::run`], additionally recording flight events into
    /// `flight` (see [`RunHooks::flight`]).
    ///
    /// # Errors
    ///
    /// See [`Gpu::run_with`].
    pub fn run_observed(
        &mut self,
        vm: &mut VirtualMemorySpace,
        launches: &[KernelLaunch],
        guard: Option<&mut dyn MemGuard>,
        flight: &mut FlightRecorder,
    ) -> Result<RunReport, RunError> {
        let hooks = RunHooks {
            flight: Some(flight),
            ..RunHooks::default()
        };
        self.run_with(vm, launches, guard, hooks)
    }

    /// Like [`Gpu::run`], additionally recording the attempted address
    /// range of every memory site (see [`RunHooks::record_ranges`]).
    ///
    /// # Errors
    ///
    /// See [`Gpu::run_with`].
    pub fn run_recorded(
        &mut self,
        vm: &mut VirtualMemorySpace,
        launches: &[KernelLaunch],
        guard: Option<&mut dyn MemGuard>,
    ) -> Result<RunReport, RunError> {
        let hooks = RunHooks {
            record_ranges: true,
            ..RunHooks::default()
        };
        self.run_with(vm, launches, guard, hooks)
    }

    /// Runs `launches` to completion with the optional inputs in `hooks`
    /// and returns the run report. Every other `run*` method is a
    /// one-line call to this one.
    ///
    /// The run takes the cycle-quantum engine unless `hooks` carries a
    /// non-empty fault session or asks for range recording; those take
    /// the sequential reference engine, which serves the flight recorder
    /// but not its scheduling kinds, an enabled registry or
    /// [`MultiKernelMode::InterCore`].
    ///
    /// # Errors
    ///
    /// See [`RunError`]: [`RunError::NoLaunches`] for an empty batch and
    /// [`RunError::UnsupportedHook`] for a hook the chosen engine cannot
    /// serve. In-kernel faults (illegal accesses, bounds violations) do
    /// *not* produce an `Err`; they abort the offending launch and
    /// surface in its [`LaunchReport`].
    pub fn run_with(
        &mut self,
        vm: &mut VirtualMemorySpace,
        launches: &[KernelLaunch],
        guard: Option<&mut dyn MemGuard>,
        hooks: RunHooks<'_>,
    ) -> Result<RunReport, RunError> {
        let RunHooks {
            mode,
            flight,
            mut registry,
            faults,
            record_ranges,
        } = hooks;
        if launches.is_empty() {
            return Err(RunError::NoLaunches);
        }
        let faults = faults.filter(|s| !s.is_empty());
        let report = if faults.is_some() || record_ranges {
            let unsupported = if flight.as_ref().is_some_and(|f| f.records_schedule()) {
                Some("schedule")
            } else if registry.as_ref().is_some_and(|r| r.enabled()) {
                Some("registry")
            } else if mode == MultiKernelMode::InterCore {
                Some("InterCore mode")
            } else {
                None
            };
            if let Some(hook) = unsupported {
                return Err(RunError::UnsupportedHook { hook });
            }
            self.shared.begin_run();
            let mut st = RunState::new(&self.cfg, vm, &mut self.shared, launches, guard)?;
            if record_ranges {
                for l in &mut st.launches {
                    l.observed = Some(HashMap::new());
                }
            }
            st.fault = faults;
            st.flight = flight;
            st.run()?;
            st.into_report()
        } else {
            self.shared.begin_run();
            let tele = registry.as_deref_mut().filter(|r| r.enabled());
            par::run_engine(
                &self.cfg,
                vm,
                &mut self.shared,
                launches,
                mode,
                guard,
                tele,
                flight,
            )?
        };
        if let Some(reg) = registry {
            stats::publish_run_report(reg, &report);
            gpushield_mem::publish_dram_channels(reg, "mem.dram", self.shared.dram());
        }
        Ok(report)
    }
}

/// The optional inputs of one [`Gpu::run_with`] call;
/// `RunHooks::default()` is a plain [`Gpu::run`].
#[derive(Default)]
pub struct RunHooks<'h> {
    /// How concurrent launches share the cores (§6.2).
    pub mode: MultiKernelMode,
    /// Records structured flight events (kernel lifecycle, check
    /// verdicts, aborts, watchdog trips, injected faults), plus dispatch,
    /// memory-issue, barrier and retire events when the recorder was built
    /// with `FlightRecorder::with_schedule`. Events are buffered per core
    /// and drained in canonical `(cycle, core, seq)` order, so the stream
    /// is identical for every `sim_threads` setting.
    pub flight: Option<&'h mut FlightRecorder>,
    /// Publishes the full telemetry of the run: scheduler counters and
    /// stride-sampled occupancy series while running, then launch totals,
    /// per-path stall attribution (`sim.stall.*`), the hot-path profile
    /// (`sim.profile.*` gauges) and memory-hierarchy statistics (`mem.*`,
    /// including per-channel DRAM occupancy). A [`Registry::disabled`]
    /// registry is behaviourally and allocation-identical to none.
    pub registry: Option<&'h mut Registry>,
    /// A deterministic fault-injection session (see [`FaultSession`])
    /// corrupting protection metadata mid-run. Its injection log survives
    /// the call; an empty plan is behaviourally identical to no session.
    pub faults: Option<&'h mut FaultSession>,
    /// Records, for every static memory instruction outside shared memory,
    /// the lowest and highest byte address any lane *attempted* to access
    /// (after address generation, before the bounds-check verdict), into
    /// each [`LaunchReport`]'s `observed_ranges`, sorted by site. This is
    /// the measurement side of the BAT soundness audit: comparing the
    /// observed ranges against the driver's static claims detects any
    /// elided or size-embedded check whose declared window the kernel
    /// escaped.
    pub record_ranges: bool,
}

/// Validates the launches and builds their per-run bookkeeping. Shared by
/// the sequential [`RunState`] and the quantum engine in [`par`].
fn build_launch_states(
    cfg: &GpuConfig,
    launches: &[KernelLaunch],
) -> Result<Vec<LaunchState>, RunError> {
    let mut ls = Vec::with_capacity(launches.len());
    for l in launches {
        l.assert_bound();
        let warps_per_wg = (l.launch.block as usize).div_ceil(cfg.warp_width);
        // Reject workgroups that cannot fit an empty core.
        let regs_needed = warps_per_wg * usize::from(l.kernel.num_regs()) * cfg.warp_width;
        if warps_per_wg > cfg.max_warps_per_core()
            || regs_needed > cfg.regs_per_core
            || l.kernel.shared_bytes() > cfg.shared_per_core
        {
            return Err(RunError::WorkgroupTooLarge {
                kernel: l.kernel.name().to_string(),
            });
        }
        ls.push(LaunchState {
            recon: ReconvergenceTable::build(&l.kernel),
            warps_per_wg,
            next_wg: 0,
            wgs_retired: 0,
            aborted: false,
            report: LaunchReport {
                kernel: l.kernel.name().to_string(),
                kernel_id: l.kernel_id,
                ..LaunchReport::default()
            },
            launch: l.clone(),
            observed: None,
        });
    }
    Ok(ls)
}

struct RunState<'c, 'v, 'g, 't> {
    cfg: &'c GpuConfig,
    vm: &'v mut VirtualMemorySpace,
    guard: Option<&'g mut (dyn MemGuard + 'g)>,
    shared: &'c mut SharedMemorySystem,
    cores: Vec<Core>,
    launches: Vec<LaunchState>,
    heaps: HashMap<u64, HeapRun>,
    cycle: u64,
    age_seq: u64,
    rr_cursor: usize,
    fault: Option<&'t mut FaultSession>,
    flight: Option<&'t mut FlightRecorder>,
    profile: SimProfile,
}

impl<'c, 'v, 'g, 't> RunState<'c, 'v, 'g, 't> {
    fn new(
        cfg: &'c GpuConfig,
        vm: &'v mut VirtualMemorySpace,
        shared: &'c mut SharedMemorySystem,
        launches: &[KernelLaunch],
        guard: Option<&'g mut (dyn MemGuard + 'g)>,
    ) -> Result<Self, RunError> {
        let ls = build_launch_states(cfg, launches)?;
        Ok(RunState {
            cfg,
            vm,
            guard,
            shared,
            cores: (0..cfg.num_cores).map(|_| Core::new(cfg)).collect(),
            launches: ls,
            heaps: HashMap::new(),
            cycle: 0,
            age_seq: 0,
            rr_cursor: 0,
            fault: None,
            flight: None,
            profile: SimProfile::default(),
        })
    }

    fn try_dispatch(&mut self) {
        let (cores, cycle, age_seq) = (&mut self.cores, self.cycle, &mut self.age_seq);
        let mode = MultiKernelMode::IntraCore;
        let rr = &mut self.rr_cursor;
        dispatch_round_robin(self.cfg, mode, &mut self.launches, rr, |ls, c, li| {
            cores[c]
                .dispatch(self.cfg, ls, li, cycle, age_seq)
                .is_some()
        });
    }

    fn run(&mut self) -> Result<(), RunError> {
        loop {
            // Watchdog: a hard cycle budget turns hangs (injected faults
            // squashing a loop's exit condition, adversarial kernels) into
            // a deterministic, classifiable error.
            if self.cycle >= self.cfg.max_cycles {
                let (cycle, budget) = (self.cycle, self.cfg.max_cycles);
                if let Some(f) = self.flight.as_mut() {
                    f.record(cycle, FlightEvent::WatchdogTrip { budget });
                }
                return Err(RunError::CycleBudgetExceeded { cycle, budget });
            }
            self.try_dispatch();
            if self.launches.iter().all(|l| l.finished()) {
                break;
            }
            let mut any_issue = false;
            for core_idx in 0..self.cores.len() {
                if self.cores[core_idx].next_ready_at > self.cycle {
                    continue;
                }
                for _ in 0..self.cfg.issue_width {
                    // No aborted-launch check: `abort_launch` strips the
                    // launch's warps from every core immediately.
                    match self.cores[core_idx].pick_warp(self.cycle) {
                        Some(wi) => {
                            self.cores[core_idx].last_issued = Some(wi);
                            self.exec_warp(core_idx, wi)?;
                            any_issue = true;
                        }
                        None => {
                            // Nothing issuable: remember exactly when the
                            // next warp wakes so the scans above are skipped
                            // until then.
                            let core = &mut self.cores[core_idx];
                            core.next_ready_at = core.next_ready();
                            break;
                        }
                    }
                }
            }
            if self.launches.iter().all(|l| l.finished()) {
                break;
            }
            if any_issue {
                self.cycle += 1;
            } else {
                self.profile.idle_skips += 1;
                // Event skip: jump to the next cycle anything becomes ready.
                // An aborted launch has no resident warps (`abort_launch`
                // strips them), so every resident warp counts.
                let next = self.cores.iter().map(Core::next_ready).min();
                match next.filter(|&n| n != u64::MAX) {
                    // Clamp the skip to the watchdog budget so the error
                    // reports the budget cycle, not a far-future wakeup.
                    Some(n) => self.cycle = n.max(self.cycle + 1).min(self.cfg.max_cycles),
                    // Live warps exist but none can ever become ready.
                    // Distinguish warps parked on the exhausted device heap
                    // from barrier waits that can never complete (or
                    // workgroups that remain but made no dispatch progress,
                    // impossible given the fit pre-check).
                    None => {
                        let mut warps = self.cores.iter().flat_map(|c| &c.warps);
                        let cycle = self.cycle;
                        return Err(if warps.any(|w| !w.done && w.blocked) {
                            RunError::HeapDeadlock { cycle }
                        } else {
                            RunError::BarrierDeadlock { cycle }
                        });
                    }
                }
            }
        }
        Ok(())
    }

    fn exec_warp(&mut self, core_idx: usize, warp_idx: usize) -> Result<(), RunError> {
        let li = self.cores[core_idx].warps[warp_idx].launch_idx;
        // Disjoint field borrows: the kernel stays interned in its launch
        // (no per-issue `Arc` clone) while the warp mutates.
        let outcome = {
            let lstate = &self.launches[li];
            let warp = &mut self.cores[core_idx].warps[warp_idx];
            warp.exec_simple(&lstate.launch.kernel, &lstate.recon, &lstate.ctx())
        };
        match outcome {
            SimpleOutcome::Done => {
                self.profile.alu_issues += 1;
                self.launches[li].report.instructions += 1;
                let warp = &mut self.cores[core_idx].warps[warp_idx];
                warp.ready_at = self.cycle + self.cfg.alu_latency;
            }
            SimpleOutcome::Retired => {
                self.profile.alu_issues += 1;
                self.launches[li].report.instructions += 1;
                self.retire_warp(core_idx, warp_idx);
            }
            SimpleOutcome::NeedsCore => {
                let pc = self.cores[core_idx].warps[warp_idx]
                    .pc()
                    .expect("NeedsCore implies a live pc");
                let instr = self.launches[li].launch.kernel.block(pc.0).instrs()[pc.1];
                match instr {
                    Instr::Bar => self.exec_barrier(core_idx, warp_idx),
                    Instr::Malloc { dst, size } => {
                        self.exec_malloc(core_idx, warp_idx, Some(dst), size)?
                    }
                    Instr::Free { ptr: _ } => {
                        // Timing-equivalent to an allocation round-trip.
                        self.exec_malloc(core_idx, warp_idx, None, gpushield_isa::Operand::Imm(0))?
                    }
                    Instr::Ld { .. } | Instr::St { .. } | Instr::AtomAdd { .. } => {
                        self.exec_mem(core_idx, warp_idx, li, pc, instr);
                    }
                    _ => unreachable!("exec_simple handles all other instructions"),
                }
            }
        }
        Ok(())
    }

    fn retire_warp(&mut self, core_idx: usize, warp_idx: usize) {
        let (li, wg) = {
            let w = &self.cores[core_idx].warps[warp_idx];
            (w.launch_idx, w.wg)
        };
        // Release peers blocked on a barrier this warp will never reach:
        // a barrier above divergent exits would deadlock; well-formed
        // kernels place barriers in uniform control flow, so the remaining
        // warps simply reconverge among themselves.
        self.cores[core_idx].release_barrier(li, wg, self.cycle);
        if self.cores[core_idx].retire_wg_if_done(li, wg, self.launches[li].regs_per_wg(self.cfg)) {
            let cycle = self.cycle;
            let lstate = &mut self.launches[li];
            lstate.wgs_retired += 1;
            if lstate.finished() {
                lstate.report.end_cycle = cycle;
                let kid = lstate.launch.kernel_id;
                if let Some(f) = self.flight.as_mut() {
                    f.record(cycle, FlightEvent::KernelComplete { kernel_id: kid });
                }
                if let Some(g) = self.guard.as_mut() {
                    g.on_kernel_end(kid);
                }
            }
        }
    }

    fn exec_barrier(&mut self, core_idx: usize, warp_idx: usize) {
        let (li, _, _) = self.cores[core_idx].arrive_at_barrier(warp_idx, self.cycle);
        self.profile.barrier_issues += 1;
        self.launches[li].report.instructions += 1;
    }

    fn exec_malloc(
        &mut self,
        core_idx: usize,
        warp_idx: usize,
        dst: Option<gpushield_isa::VReg>,
        size: gpushield_isa::Operand,
    ) -> Result<(), RunError> {
        let li = self.cores[core_idx].warps[warp_idx].launch_idx;
        let lstate = &mut self.launches[li];
        let Some(heap) = lstate.launch.heap else {
            return Err(RunError::NoHeap {
                kernel: lstate.launch.kernel.name().to_string(),
            });
        };
        lstate.report.instructions += 1;
        self.profile.malloc_issues += 1;
        let core = &mut self.cores[core_idx];
        let entry = self.heaps.entry(heap.tagged_base.va()).or_default();
        let warp = &mut core.warps[warp_idx];
        let ctx = self.launches[li].ctx();
        match core
            .scratch
            .heap(self.cfg, warp, &ctx, heap, entry, self.cycle, dst, size)
        {
            Some(done_at) => {
                warp.ready_at = done_at;
                warp.advance_pc();
            }
            // The allocator parks the whole warp until memory is freed;
            // with nothing freeing, the deadlock detector reports
            // HeapDeadlock instead of spinning forever.
            None => warp.blocked = true,
        }
        Ok(())
    }

    /// Applies every injected fault scheduled for the current access (see
    /// [`crate::fault`]): pointer-tag mangling and site-check falsification
    /// act on the in-flight access, RBT bit flips and RCache poisoning
    /// corrupt the metadata the bounds check will consult. Returns the
    /// (possibly mangled) pointer and (possibly falsified) decision.
    fn apply_due_faults(
        &mut self,
        core_idx: usize,
        mut ptr: TaggedPtr,
        mut decision: SiteCheck,
    ) -> (TaggedPtr, SiteCheck) {
        let Some(fs) = self.fault.as_mut() else {
            return (ptr, decision);
        };
        let seq = fs.begin_access();
        while let Some(spec) = fs.take_due(seq) {
            let applied = match spec.kind {
                FaultKind::TagMangle => {
                    ptr = fault::mangle_pointer(ptr, spec.entropy);
                    true
                }
                FaultKind::SiteCheckFalsify => {
                    decision = match decision {
                        SiteCheck::Static => SiteCheck::Runtime,
                        _ => SiteCheck::Static,
                    };
                    true
                }
                FaultKind::RbtBitFlip => {
                    fault::flip_rbt_bit(&mut *self.vm, fs.targets(), spec.entropy)
                }
                FaultKind::RcachePoison => self
                    .guard
                    .as_mut()
                    .is_some_and(|g| g.inject_metadata_fault(core_idx, spec.entropy)),
            };
            let cycle = self.cycle;
            fs.record(spec, cycle, seq, applied);
            if applied {
                if let Some(f) = self.flight.as_mut() {
                    f.record(
                        cycle,
                        FlightEvent::FaultInjected {
                            kind: spec.kind.code(),
                        },
                    );
                }
            }
        }
        (ptr, decision)
    }

    /// The full LSU + BCU pipeline for one warp-level memory instruction.
    fn exec_mem(
        &mut self,
        core_idx: usize,
        warp_idx: usize,
        li: usize,
        site: (gpushield_isa::BlockId, usize),
        instr: Instr,
    ) {
        let op = MemOp::decode(instr);
        // All per-lane buffers live in the core's reusable scratch; it is
        // moved out here and must be moved back on every exit path.
        let mut scratch = std::mem::take(&mut self.cores[core_idx].scratch);
        let ptr = scratch.agu(
            &self.cores[core_idx].warps[warp_idx],
            &op,
            &self.launches[li].ctx(),
        );

        // ---- Shared memory: on-chip, no VM, no bounds checking -----------
        if op.space == MemSpace::Shared {
            self.profile.shared_issues += 1;
            let core = &mut self.cores[core_idx];
            scratch.shared(core, warp_idx, self.cycle, self.cfg.timings.l1_hit, &op);
            core.scratch = scratch;
            let report = &mut self.launches[li].report;
            report.instructions += 1;
            report.mem_instructions += 1;
            return;
        }

        // ---- Soundness-audit recording (range-recording runs only) -------
        // Capture the attempted per-lane extremes *before* any verdict so
        // that a squashed or aborted out-of-bounds access is still visible
        // to the auditor.
        if let Some(obs) = self.launches[li].observed.as_mut() {
            for va in scratch.lane_vas.iter().flatten() {
                let end = va.saturating_add(op.width);
                let e = obs.entry(site).or_insert((*va, end));
                e.0 = e.0.min(*va);
                e.1 = e.1.max(end);
            }
        }

        // ---- Translate + cache/TLB timing --------------------------------
        let translation_fault = scratch.translate(self.vm, op.width);
        let start = self.cycle.max(self.cores[core_idx].lsu_busy_until);
        let shared = &mut *self.shared;
        let (done_at, all_l1_hit) = scratch.timing(
            &mut self.cores[core_idx],
            self.vm,
            start,
            self.cfg.timings.l1_hit,
            |miss, at| match miss {
                Miss::Xlate(va) => shared.translate(va, at),
                Miss::Data(pa) => shared.access_data(pa, at),
            },
        );

        // ---- Bounds check (GPUShield BCU or baseline guard) --------------
        let mut ptr = ptr;
        let mut decision = self.launches[li].launch.plan.get(site);
        if self.fault.is_some() {
            (ptr, decision) = self.apply_due_faults(core_idx, ptr, decision);
        }
        let mut stall = 0u64;
        let mut verdict = GuardVerdict::Allow;
        if let Some(g) = self.guard.as_mut() {
            let ls = &mut self.launches[li];
            if decision == SiteCheck::Static {
                ls.report.checks_skipped += 1;
                if ls.launch.plan.certified(site) {
                    ls.report.checks_certified += 1;
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
                let chk = g.check(&access, self.vm);
                stall = chk.stall_cycles;
                verdict = chk.verdict;
                self.profile.bcu_checks += 1;
                ls.report.checks_performed += 1;
                ls.report
                    .stall_attribution
                    .record(chk.path, chk.stall_cycles);
                if let Some(f) = self.flight.as_mut() {
                    let w = &self.cores[core_idx].warps[warp_idx];
                    f.record(self.cycle, lsu::verdict_event(&access, w, &chk));
                }
            }
        }

        // ---- Outcome ------------------------------------------------------
        let fault = match verdict {
            GuardVerdict::Fault => Some(AbortReason::BoundsViolation),
            GuardVerdict::Squash => {
                self.launches[li].report.violations_squashed += 1;
                lsu::squash(&mut self.cores[core_idx].warps[warp_idx], &op);
                None
            }
            // A translation fault aborts before any lane takes effect; a
            // fault in the commit itself (a lane straddling into an
            // unmapped page) after the lanes before it did.
            GuardVerdict::Allow => match translation_fault {
                Some(f) => Some(AbortReason::MemFault(f)),
                None => scratch
                    .commit(&mut self.cores[core_idx].warps[warp_idx], &op, self.vm)
                    .err()
                    .map(AbortReason::MemFault),
            },
        };
        if let Some(reason) = fault {
            // Recorded while the guilty warp is still resident:
            // `abort_launch` strips every warp of the launch.
            if let Some(f) = self.flight.as_mut() {
                let w = &self.cores[core_idx].warps[warp_idx];
                let abort = FlightEvent::KernelAbort {
                    kernel_id: self.launches[li].launch.kernel_id,
                    wg: w.wg as u32,
                    warp: w.warp_in_wg as u16,
                    reason: reason.code(),
                };
                f.record(self.cycle, abort);
            }
            self.cores[core_idx].scratch = scratch;
            self.abort_launch(li, reason);
            return;
        }

        // ---- Timing commit ------------------------------------------------
        let atomic_serial = if op.is_atomic {
            scratch.active_lanes()
        } else {
            0
        };
        let n_txs = scratch.txs.len() as u64;
        let core = &mut self.cores[core_idx];
        core.lsu_busy_until = start + n_txs + stall + atomic_serial;
        let warp = &mut core.warps[warp_idx];
        warp.ready_at = done_at + stall + atomic_serial;
        warp.advance_pc();
        core.scratch = scratch;
        self.profile.mem_issues += 1;
        self.profile.lsu_transactions += n_txs;
        self.profile.bcu_stall_cycles += stall;
        let report = &mut self.launches[li].report;
        report.instructions += 1;
        report.mem_instructions += 1;
        report.transactions += n_txs;
        report.guard_stall_cycles += stall;
    }

    fn abort_launch(&mut self, li: usize, reason: AbortReason) {
        let kernel_id = {
            let lstate = &mut self.launches[li];
            lstate.aborted = true;
            lstate.report.abort = Some(reason);
            lstate.report.end_cycle = self.cycle;
            lstate.launch.kernel_id
        };
        for core in &mut self.cores {
            core.strip_launch(li, &self.launches);
        }
        if let Some(g) = self.guard.as_mut() {
            g.on_kernel_end(kernel_id);
        }
    }

    fn into_report(self) -> RunReport {
        let l1 = l1_totals(self.cores.iter().map(|c| (c.l1d.stats(), c.l1tlb.stats())));
        let launches = (self.launches.into_iter())
            .map(|mut l| {
                if let Some(obs) = l.observed.take() {
                    let mut v: Vec<_> = obs
                        .into_iter()
                        .map(|(site, (lo, hi))| crate::stats::ObservedRange { site, lo, hi })
                        .collect();
                    v.sort_unstable_by_key(|r| r.site);
                    l.report.observed_ranges = v;
                }
                l.report
            })
            .collect();
        run_report(self.cycle, launches, l1, self.shared, self.profile)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::launch::{KernelLaunch, LaunchConfig};
    use gpushield_isa::{KernelBuilder, MemWidth, Operand};
    use gpushield_mem::{AllocPolicy, MemFault};
    use std::sync::Arc;

    fn write_iota_kernel() -> Arc<gpushield_isa::Kernel> {
        let mut b = KernelBuilder::new("iota");
        let out = b.param_buffer("out", false);
        let tid = b.global_thread_id();
        let off = b.shl(tid, Operand::Imm(2));
        b.st(MemSpace::Global, MemWidth::W4, b.base_offset(out, off), tid);
        b.ret();
        Arc::new(b.finish().unwrap())
    }

    #[test]
    fn end_to_end_write_iota_kernel() {
        let mut vm = VirtualMemorySpace::new();
        let buf = vm.alloc(256 * 4, AllocPolicy::Device512).unwrap();
        let mut gpu = Gpu::new(GpuConfig::test_tiny());
        let launch = KernelLaunch::new(write_iota_kernel(), LaunchConfig::new(16, 16))
            .arg(TaggedPtr::unprotected(buf.va).raw());
        let report = gpu.run(&mut vm, &[launch], None).unwrap();
        assert!(report.completed());
        for i in 0..256u64 {
            assert_eq!(vm.read_uint(buf.va + i * 4, 4).unwrap(), i, "element {i}");
        }
        assert!(report.cycles > 0);
        assert_eq!(report.launches[0].mem_instructions, 16 * 4); // 16 wgs × 4 warps
    }

    #[test]
    fn load_store_roundtrip_through_gpu() {
        // out[i] = in[i] * 2
        let mut b = KernelBuilder::new("dbl");
        let inp = b.param_buffer("in", true);
        let out = b.param_buffer("out", false);
        let tid = b.global_thread_id();
        let off = b.shl(tid, Operand::Imm(2));
        let x = b.ld(MemSpace::Global, MemWidth::W4, b.base_offset(inp, off));
        let y = b.mul(x, Operand::Imm(2));
        b.st(MemSpace::Global, MemWidth::W4, b.base_offset(out, off), y);
        b.ret();
        let k = Arc::new(b.finish().unwrap());

        let mut vm = VirtualMemorySpace::new();
        let a = vm.alloc(64 * 4, AllocPolicy::Device512).unwrap();
        let o = vm.alloc(64 * 4, AllocPolicy::Device512).unwrap();
        for i in 0..64u64 {
            vm.write_uint(a.va + i * 4, 4, i + 100).unwrap();
        }
        let mut gpu = Gpu::new(GpuConfig::test_tiny());
        let launch = KernelLaunch::new(k, LaunchConfig::new(4, 16))
            .arg(TaggedPtr::unprotected(a.va).raw())
            .arg(TaggedPtr::unprotected(o.va).raw());
        let report = gpu.run(&mut vm, &[launch], None).unwrap();
        assert!(report.completed());
        for i in 0..64u64 {
            assert_eq!(vm.read_uint(o.va + i * 4, 4).unwrap(), (i + 100) * 2);
        }
        assert!(report.l1d.accesses() > 0);
    }

    #[test]
    fn unmapped_access_aborts_launch() {
        let mut b = KernelBuilder::new("wild");
        let out = b.param_buffer("out", false);
        // Store far outside any mapped region.
        b.st(
            MemSpace::Global,
            MemWidth::W4,
            b.base_offset(out, Operand::Imm(1 << 40)),
            Operand::Imm(1),
        );
        b.ret();
        let k = Arc::new(b.finish().unwrap());
        let mut vm = VirtualMemorySpace::new();
        let buf = vm.alloc(64, AllocPolicy::Device512).unwrap();
        let mut gpu = Gpu::new(GpuConfig::test_tiny());
        let launch =
            KernelLaunch::new(k, LaunchConfig::new(1, 4)).arg(TaggedPtr::unprotected(buf.va).raw());
        let report = gpu.run(&mut vm, &[launch], None).unwrap();
        assert!(!report.completed());
        assert!(matches!(
            report.abort(),
            Some(AbortReason::MemFault(MemFault::Unmapped { .. }))
        ));
    }

    #[test]
    fn barrier_synchronizes_workgroup() {
        // shared[tid] = tid; bar; out[tid] = shared[tid ^ 1]
        let mut b = KernelBuilder::new("bar");
        let out = b.param_buffer("out", false);
        b.shared_mem(64 * 8);
        let tid = b.mov(b.thread_id());
        let soff = b.shl(tid, Operand::Imm(3));
        b.st(MemSpace::Shared, MemWidth::W8, b.flat(soff), tid);
        b.bar();
        let mate = b.xor(tid, Operand::Imm(1));
        let moff = b.shl(mate, Operand::Imm(3));
        let v = b.ld(MemSpace::Shared, MemWidth::W8, b.flat(moff));
        let goff = b.shl(tid, Operand::Imm(3));
        b.st(MemSpace::Global, MemWidth::W8, b.base_offset(out, goff), v);
        b.ret();
        let k = Arc::new(b.finish().unwrap());

        let mut vm = VirtualMemorySpace::new();
        let buf = vm.alloc(16 * 8, AllocPolicy::Device512).unwrap();
        let mut gpu = Gpu::new(GpuConfig::test_tiny());
        let launch = KernelLaunch::new(k, LaunchConfig::new(1, 16))
            .arg(TaggedPtr::unprotected(buf.va).raw());
        let report = gpu.run(&mut vm, &[launch], None).unwrap();
        assert!(report.completed());
        for i in 0..16u64 {
            assert_eq!(vm.read_uint(buf.va + i * 8, 8).unwrap(), i ^ 1);
        }
    }

    #[test]
    fn device_malloc_returns_tagged_heap_pointers() {
        let mut b = KernelBuilder::new("heapuser");
        let out = b.param_buffer("out", false);
        let p = b.malloc(Operand::Imm(16));
        // Store through the heap pointer, then record it.
        b.st(
            MemSpace::Global,
            MemWidth::W4,
            b.base_offset(p, Operand::Imm(0)),
            Operand::Imm(0x5A),
        );
        let tid = b.global_thread_id();
        let off = b.shl(tid, Operand::Imm(3));
        b.st(MemSpace::Global, MemWidth::W8, b.base_offset(out, off), p);
        b.ret();
        let k = Arc::new(b.finish().unwrap());

        let mut vm = VirtualMemorySpace::new();
        let buf = vm.alloc(8 * 8, AllocPolicy::Device512).unwrap();
        let heap = vm.alloc(1 << 16, AllocPolicy::Isolated).unwrap();
        let tagged_heap = TaggedPtr::with_region_id(heap.va, 0x77);
        let mut gpu = Gpu::new(GpuConfig::test_tiny());
        let launch = KernelLaunch::new(k, LaunchConfig::new(1, 8))
            .arg(TaggedPtr::unprotected(buf.va).raw())
            .heap(crate::launch::HeapDesc {
                tagged_base: tagged_heap,
                size: 1 << 16,
            });
        let report = gpu.run(&mut vm, &[launch], None).unwrap();
        assert!(report.completed());
        let mut seen = std::collections::HashSet::new();
        for i in 0..8u64 {
            let raw = vm.read_uint(buf.va + i * 8, 8).unwrap();
            let p = TaggedPtr::from_raw(raw);
            assert_eq!(p.info(), 0x77, "heap tag propagates to malloc results");
            assert!(p.va() >= heap.va && p.va() < heap.va + (1 << 16));
            assert!(seen.insert(p.va()), "allocations must not overlap");
            assert_eq!(vm.read_uint(p.va(), 4).unwrap(), 0x5A);
        }
    }

    #[test]
    fn malloc_without_heap_is_an_error() {
        let mut b = KernelBuilder::new("noheap");
        let _p = b.malloc(Operand::Imm(16));
        b.ret();
        let k = Arc::new(b.finish().unwrap());
        let mut vm = VirtualMemorySpace::new();
        let mut gpu = Gpu::new(GpuConfig::test_tiny());
        let launch = KernelLaunch::new(k, LaunchConfig::new(1, 4));
        assert!(matches!(
            gpu.run(&mut vm, &[launch], None),
            Err(RunError::NoHeap { .. })
        ));
    }

    #[test]
    fn oversized_workgroup_rejected() {
        let mut vm = VirtualMemorySpace::new();
        let buf = vm.alloc(1 << 20, AllocPolicy::Device512).unwrap();
        let mut gpu = Gpu::new(GpuConfig::test_tiny());
        // test_tiny allows 64 threads per core; ask for 256.
        let launch = KernelLaunch::new(write_iota_kernel(), LaunchConfig::new(1, 256))
            .arg(TaggedPtr::unprotected(buf.va).raw());
        assert!(matches!(
            gpu.run(&mut vm, &[launch], None),
            Err(RunError::WorkgroupTooLarge { .. })
        ));
    }

    /// Runs an iota launch on a tiny GPU with a recorder of `capacity`
    /// events that keeps the scheduling kinds.
    fn iota_schedule(grid: u32, block: u32, capacity: usize) -> FlightRecorder {
        let mut vm = VirtualMemorySpace::new();
        let buf = vm.alloc(256 * 4, AllocPolicy::Device512).unwrap();
        let launch = KernelLaunch::new(write_iota_kernel(), LaunchConfig::new(grid, block))
            .arg(TaggedPtr::unprotected(buf.va).raw());
        let mut fr = FlightRecorder::with_schedule(capacity);
        let hooks = RunHooks {
            flight: Some(&mut fr),
            ..RunHooks::default()
        };
        let mut gpu = Gpu::new(GpuConfig::test_tiny());
        let report = gpu.run_with(&mut vm, &[launch], None, hooks).unwrap();
        assert!(report.completed());
        fr
    }

    #[test]
    fn schedule_records_lifecycle_in_order() {
        let fr = iota_schedule(2, 16, 10_000);
        assert_eq!(fr.events_dropped(), 0);
        let events: Vec<FlightEvent> = fr.iter().map(|r| r.ev).collect();
        let is_dispatch = |e: &FlightEvent| matches!(e, FlightEvent::WgDispatch { .. });
        let is_mem = |e: &FlightEvent| matches!(e, FlightEvent::MemIssue { .. });
        let is_retire = |e: &FlightEvent| matches!(e, FlightEvent::WarpRetire { .. });
        let count = |f: &dyn Fn(&FlightEvent) -> bool| events.iter().filter(|e| f(e)).count();
        // 2 dispatches, one mem + retire per warp (2 wgs x 4 warps).
        assert_eq!(count(&is_dispatch), 2);
        assert_eq!(count(&is_mem), 8);
        assert_eq!(count(&is_retire), 8);
        // Cycles are non-decreasing.
        assert!(fr.iter().zip(fr.iter().skip(1)).all(|(a, b)| a.t <= b.t));
        // A workgroup's dispatch precedes all of its events (both exist,
        // per the counts above).
        let first = |f: &dyn Fn(&FlightEvent) -> bool| events.iter().position(f);
        assert!(first(&is_dispatch) < first(&is_mem));
        // The lifecycle kinds share the stream: completion comes last.
        let complete = FlightEvent::KernelComplete { kernel_id: 0 };
        assert_eq!(events.last(), Some(&complete));
    }

    #[test]
    fn a_short_recorder_keeps_the_newest_schedule_events() {
        let whole = iota_schedule(16, 16, 10_000);
        let (n, cap) = (whole.len(), 16);
        assert!(n > cap && whole.events_dropped() == 0);
        let tail = iota_schedule(16, 16, cap);
        assert_eq!(tail.events_dropped(), (n - cap) as u64);
        let newest: Vec<_> = whole.iter().skip(n - cap).copied().collect();
        assert_eq!(tail.iter().copied().collect::<Vec<_>>(), newest);
        let chrome = crate::schedule::to_chrome(&tail);
        let cuts: Vec<_> = (chrome.events.iter())
            .filter(|e| e.name == "trace-truncated")
            .collect();
        assert_eq!(cuts.len(), 1);
        assert_eq!(cuts[0].args, [("dropped".into(), (n - cap).to_string())]);
        let cut = format!(" trace-truncated dropped={}\n", n - cap);
        assert!(crate::schedule::render(&tail).contains(&cut));
    }

    #[test]
    fn dispatch_retire_and_abort_keep_warp_ages_ascending() -> Result<(), Box<dyn Error>> {
        // Two launches share both cores, so dispatch alternates between
        // them; workgroups retire in whatever order they finish, new ones
        // fill the freed slots, and launch 1 aborts mid-run. The
        // scheduler's first-ready pick relies on every core's warps
        // staying in dispatch (age) order through all of it.
        let mut vm = VirtualMemorySpace::new();
        let mut launches = Vec::new();
        for _ in 0..2 {
            let buf = vm.alloc(256 * 4, AllocPolicy::Device512)?;
            launches.push(
                KernelLaunch::new(write_iota_kernel(), LaunchConfig::new(16, 16))
                    .arg(TaggedPtr::unprotected(buf.va).raw()),
            );
        }
        let mut gpu = Gpu::new(GpuConfig::test_tiny());
        let mut st = RunState::new(&gpu.cfg, &mut vm, &mut gpu.shared, &launches, None)?;
        let ascending = |st: &RunState| st.cores.iter().all(|c| ages_ascend(&c.warps));
        let (mut retires, mut redispatches) = (0, 0);
        while !st.launches.iter().all(|l| l.finished()) {
            let resident: usize = st.cores.iter().map(|c| c.warps.len()).sum();
            st.try_dispatch();
            let now: usize = st.cores.iter().map(|c| c.warps.len()).sum();
            redispatches += usize::from(st.cycle > 0 && now > resident);
            assert!(ascending(&st), "dispatch broke age order");
            for ci in 0..st.cores.len() {
                if let Some(wi) = st.cores[ci].pick_warp(st.cycle) {
                    let before = st.cores[ci].warps.len();
                    st.cores[ci].last_issued = Some(wi);
                    st.exec_warp(ci, wi)?;
                    retires += usize::from(st.cores[ci].warps.len() < before);
                    assert!(ascending(&st), "retire broke age order");
                }
            }
            if st.cycle == 40 {
                assert!(st
                    .cores
                    .iter()
                    .any(|c| c.warps.iter().any(|w| w.launch_idx == 1)));
                st.abort_launch(1, AbortReason::BoundsViolation);
                assert!(ascending(&st), "abort broke age order");
            }
            st.cycle += 1;
        }
        assert!(retires > 0 && redispatches > 0);
        assert!(st.launches[0].report.abort.is_none() && st.launches[1].aborted);
        Ok(())
    }

    #[test]
    fn two_kernels_intercore_partition() {
        let mut vm = VirtualMemorySpace::new();
        let b1 = vm.alloc(256 * 4, AllocPolicy::Device512).unwrap();
        let b2 = vm.alloc(256 * 4, AllocPolicy::Device512).unwrap();
        let mut gpu = Gpu::new(GpuConfig::test_tiny());
        let l1 = KernelLaunch::new(write_iota_kernel(), LaunchConfig::new(16, 16))
            .arg(TaggedPtr::unprotected(b1.va).raw());
        let l2 = KernelLaunch::new(write_iota_kernel(), LaunchConfig::new(16, 16))
            .arg(TaggedPtr::unprotected(b2.va).raw());
        let hooks = RunHooks {
            mode: MultiKernelMode::InterCore,
            ..RunHooks::default()
        };
        let report = gpu.run_with(&mut vm, &[l1, l2], None, hooks).unwrap();
        assert!(report.completed());
        assert_eq!(vm.read_uint(b1.va + 4 * 255, 4).unwrap(), 255);
        assert_eq!(vm.read_uint(b2.va + 4 * 255, 4).unwrap(), 255);
    }

    #[test]
    fn divergent_kernel_writes_correct_lanes() {
        // if (tid % 2 == 0) out[tid] = 7 else out[tid] = 9
        let mut b = KernelBuilder::new("parity");
        let out = b.param_buffer("out", false);
        let tid = b.global_thread_id();
        let bit = b.and(tid, Operand::Imm(1));
        let is_even = b.eq(bit, Operand::Imm(0));
        let off = b.shl(tid, Operand::Imm(2));
        b.if_then_else(
            is_even,
            |b| {
                b.st(
                    MemSpace::Global,
                    MemWidth::W4,
                    b.base_offset(out, off),
                    Operand::Imm(7),
                );
            },
            |b| {
                b.st(
                    MemSpace::Global,
                    MemWidth::W4,
                    b.base_offset(out, off),
                    Operand::Imm(9),
                );
            },
        );
        b.ret();
        let k = Arc::new(b.finish().unwrap());

        let mut vm = VirtualMemorySpace::new();
        let buf = vm.alloc(32 * 4, AllocPolicy::Device512).unwrap();
        let mut gpu = Gpu::new(GpuConfig::test_tiny());
        let launch = KernelLaunch::new(k, LaunchConfig::new(2, 16))
            .arg(TaggedPtr::unprotected(buf.va).raw());
        let report = gpu.run(&mut vm, &[launch], None).unwrap();
        assert!(report.completed());
        for i in 0..32u64 {
            let expect = if i % 2 == 0 { 7 } else { 9 };
            assert_eq!(vm.read_uint(buf.va + i * 4, 4).unwrap(), expect, "lane {i}");
        }
    }

    #[test]
    fn workgroups_spread_across_cores() {
        // 2 small workgroups on a 2-core GPU must land on different cores.
        let fr = iota_schedule(2, 8, 64);
        let cores: std::collections::HashSet<u16> = (fr.iter())
            .filter_map(|r| match r.ev {
                FlightEvent::WgDispatch { core, .. } => Some(core),
                _ => None,
            })
            .collect();
        assert_eq!(cores.len(), 2, "round-robin dispatch");
    }

    #[test]
    fn shared_memory_capacity_serializes_workgroups() {
        // Each WG wants all of the core's shared memory, so resident WGs
        // are limited to one per core at a time — but all complete.
        let mut b = KernelBuilder::new("sharedhog");
        b.shared_mem(4096); // == test_tiny's shared_per_core
        let out = b.param_buffer("out", false);
        let tid = b.global_thread_id();
        let soff = b.shl(b.thread_id(), Operand::Imm(2));
        b.st(MemSpace::Shared, MemWidth::W4, b.flat(soff), tid);
        b.bar();
        let off = b.shl(tid, Operand::Imm(2));
        b.st(MemSpace::Global, MemWidth::W4, b.base_offset(out, off), tid);
        b.ret();
        let k = Arc::new(b.finish().unwrap());
        let mut vm = VirtualMemorySpace::new();
        let buf = vm.alloc(64 * 4, AllocPolicy::Device512).unwrap();
        let mut gpu = Gpu::new(GpuConfig::test_tiny());
        let launch =
            KernelLaunch::new(k, LaunchConfig::new(8, 8)).arg(TaggedPtr::unprotected(buf.va).raw());
        let r = gpu.run(&mut vm, &[launch], None).unwrap();
        assert!(r.completed());
        for i in 0..64u64 {
            assert_eq!(vm.read_uint(buf.va + i * 4, 4).unwrap(), i);
        }
    }

    #[test]
    fn intel_config_runs_end_to_end() {
        let mut vm = VirtualMemorySpace::new();
        let buf = vm.alloc(512 * 4, AllocPolicy::Device512).unwrap();
        let mut gpu = Gpu::new(GpuConfig::intel());
        let launch = KernelLaunch::new(write_iota_kernel(), LaunchConfig::new(2, 256))
            .arg(TaggedPtr::unprotected(buf.va).raw());
        let r = gpu.run(&mut vm, &[launch], None).unwrap();
        assert!(r.completed());
        assert_eq!(vm.read_uint(buf.va + 511 * 4, 4).unwrap(), 511);
    }

    #[test]
    fn atomic_serialization_costs_more_than_plain_stores() {
        fn cycles(atomic: bool) -> u64 {
            let mut b = KernelBuilder::new("atomcost");
            let out = b.param_buffer("out", false);
            let tid = b.global_thread_id();
            let off = b.shl(tid, Operand::Imm(2));
            if atomic {
                let _ = b.atom_add(
                    MemSpace::Global,
                    MemWidth::W4,
                    b.base_offset(out, off),
                    Operand::Imm(1),
                );
            } else {
                b.st(MemSpace::Global, MemWidth::W4, b.base_offset(out, off), tid);
            }
            b.ret();
            let k = Arc::new(b.finish().unwrap());
            let mut vm = VirtualMemorySpace::new();
            let buf = vm.alloc(256 * 4, AllocPolicy::Device512).unwrap();
            let mut gpu = Gpu::new(GpuConfig::test_tiny());
            let launch = KernelLaunch::new(k, LaunchConfig::new(4, 16))
                .arg(TaggedPtr::unprotected(buf.va).raw());
            gpu.run(&mut vm, &[launch], None).unwrap().cycles
        }
        assert!(
            cycles(true) > cycles(false),
            "atomics must pay lane serialization"
        );
    }

    #[test]
    fn report_cycles_match_launch_span() {
        let mut vm = VirtualMemorySpace::new();
        let buf = vm.alloc(64 * 4, AllocPolicy::Device512).unwrap();
        let mut gpu = Gpu::new(GpuConfig::test_tiny());
        let launch = KernelLaunch::new(write_iota_kernel(), LaunchConfig::new(2, 8))
            .arg(TaggedPtr::unprotected(buf.va).raw());
        let r = gpu.run(&mut vm, &[launch], None).unwrap();
        let l = &r.launches[0];
        assert!(l.end_cycle >= l.start_cycle);
        assert!(l.cycles() <= r.cycles);
        assert!(l.instructions >= l.mem_instructions);
    }
}
