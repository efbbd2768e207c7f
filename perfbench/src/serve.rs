//! `serve`: a closed loop with one client over a multi-tenant GPU. Eight
//! tenants own disjoint 16-ID region slices and admission weights 1–4 in
//! seeded order; each tenant's queue holds a fixed mix in seeded order
//! (84% benign iota/copy jobs, 16% cross-tenant probes over the four
//! attack vectors, seeded victims). Jobs are admitted weighted-fair, one
//! `System::launch_tenant` call at a time with the full flight recorder,
//! and every violating launch builds a post-mortem. One operation is one
//! launch (plus its post-mortem). A session is 400 jobs on a fresh system;
//! sessions replay the same plan until the time is up, which keeps the
//! driver's per-launch host memory bounded.

use crate::pace::Pace;
use crate::stack::{report_key, Stack, Traced};
use crate::stats::{self, Sample};
use crate::trace::Tracer;
use crate::{
    add_bcu, engine_fixed_cost_us, OpTime, Opts, Pass, Report, SimAgg, LATENCY_SAMPLES, SETUP_REPS,
};
use gpushield::{
    Arg, BcuConfig, BcuStats, BufferHandle, DriverConfig, DriverError, GpuConfig, ObserveMode,
    RunReport, System, SystemConfig, SystemError, TenantId, TenantTable, ViolationRecord,
};
use gpushield_bench::serving::{iota_kernel, JobKind, SECRET_WORDS, WORK_WORDS};
use gpushield_isa::{Kernel, KernelBuilder, MemSpace, MemWidth, Operand, TaggedPtr};
use gpushield_runtime::rng::StdRng;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

const TENANTS: usize = 8;
/// Jobs per tenant and session: 8 probes (16%) and 42 benign jobs.
const JOBS_PER_TENANT: usize = 50;
const ATTACKS_PER_VECTOR: usize = 2;
const SLICE_IDS: u16 = 16;
const MAX_CYCLES: u64 = 200_000;

/// One session's seeded plan: `(lo, hi, weight)` slices and job queues.
struct Plan {
    slices: Vec<(u16, u16, u64)>,
    queues: Vec<Vec<JobKind>>,
}

fn plan(seed: u64) -> Plan {
    let mut rng = StdRng::stream(seed, "perfbench/serve");
    let mut weights: Vec<u64> = (0..TENANTS as u64).map(|t| 1 + t / 2).collect();
    rng.shuffle(&mut weights);
    let slices = weights
        .iter()
        .enumerate()
        .map(|(t, &w)| {
            let lo = 1 + t as u16 * SLICE_IDS;
            (lo, lo + SLICE_IDS, w)
        })
        .collect();
    // A fixed mix per tenant in seeded order: each attack vector
    // ATTACKS_PER_VECTOR times against seeded victims, the rest split
    // between iota and copy jobs.
    let queues = (0..TENANTS)
        .map(|t| {
            let mut q = Vec::with_capacity(JOBS_PER_TENANT);
            for _ in 0..ATTACKS_PER_VECTOR {
                for vector in 0..4 {
                    let victim = (t + rng.gen_range(1..TENANTS)) % TENANTS;
                    q.push(match vector {
                        0 => JobKind::AttackRawVa { victim },
                        1 => JobKind::AttackRegionOob { victim },
                        2 => JobKind::AttackForgedId { victim },
                        _ => JobKind::AttackForgedType3 { victim },
                    });
                }
            }
            let benign = JOBS_PER_TENANT - q.len();
            q.extend((0..benign).map(|i| {
                if i < benign / 2 {
                    JobKind::Benign
                } else {
                    JobKind::BenignWide
                }
            }));
            rng.shuffle(&mut q);
            q
        })
        .collect();
    Plan { slices, queues }
}

/// The `multi_tenant` exhibit's strict serving configuration.
fn sys_config() -> SystemConfig {
    SystemConfig {
        gpu: GpuConfig {
            max_cycles: MAX_CYCLES,
            sim_threads: gpushield_bench::runner::sim_threads(),
            ..GpuConfig::nvidia()
        },
        driver: DriverConfig {
            enable_static_analysis: false,
            enable_type3: false,
            ..DriverConfig::default()
        },
        bcu: BcuConfig {
            strict_runtime_tags: true,
            ..BcuConfig::default()
        },
        seed: 0x6057_5E1D,
    }
}

fn kernel(name: &str, build: impl FnOnce(&mut KernelBuilder)) -> Arc<Kernel> {
    let mut b = KernelBuilder::new(name);
    build(&mut b);
    b.ret();
    Arc::new(b.finish().expect("valid kernel"))
}

/// The serving kernels: iota, a two-region copy, a store through a
/// loaded pointer, and a store at a loaded offset.
struct Kernels {
    iota: Arc<Kernel>,
    copy: Arc<Kernel>,
    deref: Arc<Kernel>,
    indirect: Arc<Kernel>,
}

impl Kernels {
    fn new() -> Self {
        Kernels {
            iota: iota_kernel(),
            copy: kernel("serve_copy", |b| {
                let src = b.param_buffer("in", true);
                let dst = b.param_buffer("out", false);
                let tid = b.global_thread_id();
                let off = b.shl(tid, Operand::Imm(2));
                let v = b.ld(MemSpace::Global, MemWidth::W4, b.base_offset(src, off));
                b.st(MemSpace::Global, MemWidth::W4, b.base_offset(dst, off), v);
            }),
            deref: kernel("serve_deref_loaded", |b| {
                let a = b.param_buffer("A", false);
                let p = b.ld(
                    MemSpace::Global,
                    MemWidth::W8,
                    b.base_offset(a, Operand::Imm(0)),
                );
                b.st(
                    MemSpace::Global,
                    MemWidth::W4,
                    b.base_offset(p, Operand::Imm(0)),
                    Operand::Imm(0xBAD),
                );
            }),
            indirect: kernel("serve_indirect_offset", |b| {
                let a = b.param_buffer("A", false);
                let off = b.ld(
                    MemSpace::Global,
                    MemWidth::W8,
                    b.base_offset(a, Operand::Imm(8)),
                );
                b.st(
                    MemSpace::Global,
                    MemWidth::W4,
                    b.base_offset(a, off),
                    Operand::Imm(0xBAD),
                );
            }),
        }
    }
}

/// The calls a serving session makes, on either launch path.
trait Gpu {
    fn alloc(&mut self, bytes: u64) -> BufferHandle;
    fn write(&mut self, h: BufferHandle, offset: u64, bytes: &[u8]);
    fn read_u32(&mut self, h: BufferHandle, offset: u64) -> u64;
    fn va(&self, h: BufferHandle) -> u64;
    fn launch(
        &mut self,
        tenants: &mut TenantTable,
        t: TenantId,
        kernel: Arc<Kernel>,
        block: u32,
        args: &[Arg],
    ) -> Result<(RunReport, Vec<ViolationRecord>), SystemError>;
    /// The rendered post-mortem of the resident anomaly, if any.
    fn post_mortem(&mut self) -> Option<String>;
}

impl Gpu for System {
    fn alloc(&mut self, bytes: u64) -> BufferHandle {
        System::alloc(self, bytes).expect("serving buffer")
    }
    fn write(&mut self, h: BufferHandle, offset: u64, bytes: &[u8]) {
        self.write_buffer(h, offset, bytes);
    }
    fn read_u32(&mut self, h: BufferHandle, offset: u64) -> u64 {
        self.read_uint(h, offset, 4)
    }
    fn va(&self, h: BufferHandle) -> u64 {
        self.driver().buffer_va(h)
    }
    fn launch(
        &mut self,
        tenants: &mut TenantTable,
        t: TenantId,
        kernel: Arc<Kernel>,
        block: u32,
        args: &[Arg],
    ) -> Result<(RunReport, Vec<ViolationRecord>), SystemError> {
        self.launch_tenant(tenants, t, kernel, 1, block, args)
    }
    fn post_mortem(&mut self) -> Option<String> {
        System::post_mortem(self).map(|p| p.render_json())
    }
}

impl Gpu for Traced<'_> {
    fn alloc(&mut self, bytes: u64) -> BufferHandle {
        self.stack
            .alloc(self.tracer, bytes)
            .expect("serving buffer")
    }
    fn write(&mut self, h: BufferHandle, offset: u64, bytes: &[u8]) {
        self.stack.write_buffer(self.tracer, h, offset, bytes);
    }
    fn read_u32(&mut self, h: BufferHandle, offset: u64) -> u64 {
        self.stack.read_uint(self.tracer, h, offset, 4)
    }
    fn va(&self, h: BufferHandle) -> u64 {
        self.stack.driver().buffer_va(h)
    }
    fn launch(
        &mut self,
        tenants: &mut TenantTable,
        t: TenantId,
        kernel: Arc<Kernel>,
        block: u32,
        args: &[Arg],
    ) -> Result<(RunReport, Vec<ViolationRecord>), SystemError> {
        self.stack
            .launch_tenant(self.tracer, tenants, t, kernel, 1, block, args)
    }
    fn post_mortem(&mut self) -> Option<String> {
        self.stack.post_mortem_json(self.tracer)
    }
}

fn secret_word(tenant: usize, i: u64) -> u32 {
    0xA5A5_0000 ^ ((tenant as u32) << 8) ^ (i as u32)
}

fn secret_bytes(tenant: usize) -> Vec<u8> {
    (0..SECRET_WORDS)
        .flat_map(|i| secret_word(tenant, i).to_le_bytes())
        .collect()
}

/// What one job produced.
struct Job {
    report: Option<RunReport>,
    violations: Vec<ViolationRecord>,
    post_mortem: Option<String>,
    latency_us: f64,
    probe: bool,
    detected: bool,
    failure: Option<String>,
}

/// One serving session's state.
struct Session<G> {
    gpu: G,
    tenants: TenantTable,
    queues: Vec<VecDeque<JobKind>>,
    work: Vec<BufferHandle>,
    secret: Vec<BufferHandle>,
    forged_guess: Vec<u16>,
}

impl<G: Gpu> Session<G> {
    fn new(mut gpu: G, plan: &Plan) -> Self {
        let mut work = Vec::with_capacity(TENANTS);
        let mut secret = Vec::with_capacity(TENANTS);
        for t in 0..TENANTS {
            work.push(gpu.alloc(WORK_WORDS * 4));
            let s = gpu.alloc(SECRET_WORDS * 4);
            gpu.write(s, 0, &secret_bytes(t));
            secret.push(s);
        }
        Session {
            gpu,
            tenants: TenantTable::with_slices(plan.slices.iter().copied()),
            queues: plan
                .queues
                .iter()
                .map(|q| q.iter().copied().collect())
                .collect(),
            work,
            secret,
            forged_guess: plan.slices.iter().map(|s| s.0).collect(),
        }
    }

    fn secret_intact(&mut self, tenant: usize) -> bool {
        let h = self.secret[tenant];
        (0..SECRET_WORDS).all(|i| self.gpu.read_u32(h, i * 4) == u64::from(secret_word(tenant, i)))
    }

    /// Weighted-fair pick: the non-empty queue with the least
    /// `cycles_consumed / weight`, ties to the lowest index.
    fn pick(&self) -> Option<usize> {
        let mut best: Option<(usize, u128)> = None;
        let mut best_w = 1u128;
        for (i, q) in self.queues.iter().enumerate() {
            if q.is_empty() {
                continue;
            }
            let t = TenantId(i as u16);
            let used = u128::from(
                self.tenants
                    .stats(t)
                    .map(|s| s.cycles_consumed)
                    .unwrap_or(0),
            );
            let w = u128::from(self.tenants.weight(t).unwrap_or(1));
            if best.is_none_or(|(_, bu)| used * best_w < bu * w) {
                best = Some((i, used));
                best_w = w;
            }
        }
        best.map(|(i, _)| i)
    }

    /// Admits and runs the next job, or `None` when every queue is empty.
    fn step(&mut self, k: &Kernels) -> Option<Job> {
        let t = self.pick()?;
        let kind = self.queues[t].pop_front()?;
        let work = self.work[t];
        let (kernel, args) = match kind {
            JobKind::Benign => (k.iota.clone(), vec![Arg::Buffer(work)]),
            JobKind::BenignWide => (k.copy.clone(), vec![Arg::Buffer(work), Arg::Buffer(work)]),
            JobKind::AttackRawVa { victim } => {
                let raw = self.gpu.va(self.secret[victim]);
                self.gpu.write(work, 0, &raw.to_le_bytes());
                (k.deref.clone(), vec![Arg::Buffer(work)])
            }
            JobKind::AttackRegionOob { victim } => {
                let delta = self
                    .gpu
                    .va(self.secret[victim])
                    .wrapping_sub(self.gpu.va(work));
                self.gpu.write(work, 8, &delta.to_le_bytes());
                (k.indirect.clone(), vec![Arg::Buffer(work)])
            }
            JobKind::AttackForgedId { victim } => {
                let va = self.gpu.va(self.secret[victim]);
                let raw = TaggedPtr::with_region_id(va, self.forged_guess[victim]).raw();
                self.gpu.write(work, 0, &raw.to_le_bytes());
                (k.deref.clone(), vec![Arg::Buffer(work)])
            }
            JobKind::AttackForgedType3 { victim } => {
                let raw = TaggedPtr::with_log2_size(self.gpu.va(self.secret[victim]), 40).raw();
                self.gpu.write(work, 0, &raw.to_le_bytes());
                (k.deref.clone(), vec![Arg::Buffer(work)])
            }
        };
        let block = if kind.is_attack() {
            1
        } else {
            WORK_WORDS as u32
        };
        let tenant = TenantId(t as u16);

        let start = Instant::now();
        let result = self
            .gpu
            .launch(&mut self.tenants, tenant, kernel, block, &args);
        let violating = match &result {
            Ok((r, v)) => !r.completed() || !v.is_empty(),
            Err(_) => false,
        };
        let post_mortem = if violating {
            self.gpu.post_mortem()
        } else {
            None
        };
        let latency_us = start.elapsed().as_secs_f64() * 1e6;

        let mut job = Job {
            report: None,
            violations: Vec::new(),
            post_mortem,
            latency_us,
            probe: kind.is_attack(),
            detected: false,
            failure: None,
        };
        let fail = |why: &str| Some(format!("{} job of tenant {t}: {why}", kind.name()));
        match result {
            Err(SystemError::Driver(DriverError::RegionIdsExhausted { .. })) => {
                job.failure = fail("rejected at admission");
            }
            Err(e) => job.failure = fail(&format!("launch error {e}")),
            Ok((report, violations)) => {
                if violations
                    .iter()
                    .any(|v| self.tenants.owner_of_kernel(v.kernel_id) != Some(tenant))
                {
                    job.failure = fail("violation misattributed");
                } else if violating && job.post_mortem.is_none() {
                    job.failure = fail("no post-mortem for a violating launch");
                } else if let Some(victim) = kind.victim() {
                    if !self.secret_intact(victim) {
                        self.gpu
                            .write(self.secret[victim], 0, &secret_bytes(victim));
                        job.failure = fail("silent corruption of the victim's secret");
                    } else if violating {
                        job.detected = true;
                    } else {
                        job.failure = fail("probe masked");
                    }
                } else if violating {
                    job.failure = fail("false fault on a benign job");
                } else if kind == JobKind::Benign
                    && (0..WORK_WORDS).any(|i| self.gpu.read_u32(work, i * 4) != i)
                {
                    job.failure = fail("wrong iota output");
                }
                if job.probe {
                    let _ = self.tenants.note_probe(tenant, job.detected);
                }
                job.report = Some(report);
                job.violations = violations;
            }
        }
        Some(job)
    }

    /// End-of-session check: every secret holds its pattern.
    fn secrets_intact(&mut self) -> bool {
        (0..TENANTS).all(|t| self.secret_intact(t))
    }
}

/// Setup: the job plan, the kernels, the tenant table and the first
/// system.
fn setup(opts: &Opts, pace: &mut Pace) -> (Plan, Kernels, Vec<OpTime>) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut built = None;
    for _ in 0..SETUP_REPS {
        let seg = pace.segment();
        let start = Instant::now();
        let p = plan(opts.seed);
        let k = Kernels::new();
        let mut sys = System::new(sys_config());
        sys.enable_observation(ObserveMode::Full);
        std::hint::black_box(Session::new(sys, &p));
        times.push((start.elapsed().as_secs_f64(), seg));
        built = Some((p, k));
    }
    pace.close();
    let (p, k) = built.expect("at least one setup repetition");
    (p, k, times)
}

fn plain_session(plan: &Plan) -> Session<System> {
    let mut sys = System::new(sys_config());
    sys.enable_observation(ObserveMode::Full);
    Session::new(sys, plan)
}

/// Runs the workload.
pub fn run(opts: &Opts) -> Report {
    let mut pace = Pace::new();
    let (plan, kernels, setup_s) = setup(opts, &mut pace);
    if opts.trace {
        return run_traced(opts, &plan, &kernels);
    }
    let mut report = Report::default();
    let deadline = opts.deadline();
    let mut passes = Vec::new();
    let (mut probes, mut detected) = (0u64, 0u64);
    let mut session_cycles: Option<u64> = None;
    let mut latencies = Sample::new(LATENCY_SAMPLES);
    while passes.is_empty() || Instant::now() < deadline {
        let first_seg = pace.segment();
        let mut s = plain_session(&plan);
        let mut pass = Pass::default();
        let mut cycles = 0u64;
        while let Some(job) = s.step(&kernels) {
            report.tally.record(job.failure);
            pass.ops += 1;
            latencies.push((job.latency_us, pace.segment()));
            pace.tick();
            if let Some(r) = &job.report {
                pass.instructions += r.instructions();
                cycles += r.cycles;
            }
            probes += u64::from(job.probe);
            detected += u64::from(job.detected);
        }
        if !s.secrets_intact() {
            report.tally.fail("a tenant secret changed".into());
        }
        pace.close();
        pass.segs = first_seg..pace.segment();
        // Sessions replay the same plan, so they must repeat exactly.
        if *session_cycles.get_or_insert(cycles) != cycles {
            report
                .tally
                .fail(format!("session {} ran {cycles} cycles", passes.len()));
        }
        passes.push(pass);
    }
    report.end_to_end(
        &pace,
        &setup_s,
        &passes,
        &latencies,
        session_cycles.unwrap_or(0),
    );
    report.extra(
        "detect_share",
        stats::share(detected as f64, probes as f64),
        "ratio",
        probes,
    );
    report
}

fn run_traced(opts: &Opts, plan: &Plan, kernels: &Kernels) -> Report {
    let mut report = Report::default();
    let mut tracer = Tracer::new();
    let mut agg = SimAgg::default();
    let mut bcu = BcuStats::default();
    let (mut traced_wall, mut plain_wall) = (0.0, 0.0);
    let (mut recorded, mut dropped, mut rbt_allocs) = (0u64, 0u64, 0u64);
    let mut rss_slope_kb = None;
    let deadline = opts.deadline();
    let mut sessions = 0u64;
    while sessions == 0 || Instant::now() < deadline {
        let mut plain = plain_session(plan);
        let mut stack = Stack::new(&mut tracer, &sys_config());
        stack.observe_full();
        let mut traced = Session::new(
            Traced {
                stack,
                tracer: &mut tracer,
            },
            plan,
        );
        let mut jobs = 0u64;
        let mut rss_half = 0u64;
        loop {
            let t0 = Instant::now();
            let a = plain.step(kernels);
            let t1 = Instant::now();
            traced.gpu.tracer.enter("bench.op");
            let b = traced.step(kernels);
            traced.gpu.tracer.exit();
            plain_wall += (t1 - t0).as_secs_f64();
            traced_wall += t1.elapsed().as_secs_f64();
            let (a, b) = match (a, b) {
                (Some(a), Some(b)) => (a, b),
                (None, None) => break,
                _ => {
                    report
                        .tally
                        .fail("traced session ran a different job count".into());
                    break;
                }
            };
            jobs += 1;
            if jobs == (TENANTS * JOBS_PER_TENANT / 2) as u64 {
                rss_half = stats::rss_kb().1;
            }
            let same = a.report.as_ref().map(report_key) == b.report.as_ref().map(report_key)
                && a.violations == b.violations
                && a.post_mortem == b.post_mortem
                && a.failure == b.failure;
            report.tally.record(b.failure);
            if !same {
                report.tally.fail(format!(
                    "job {jobs}: traced launch differs from System::launch_tenant"
                ));
            }
            if let Some(r) = &b.report {
                agg.add(r);
            }
        }
        if sessions == 0 {
            // Both paths prepare every job, so each half-session step is
            // two `prepare_launch` calls.
            let half_jobs = jobs - (TENANTS * JOBS_PER_TENANT / 2) as u64;
            let grown = stats::rss_kb().1.saturating_sub(rss_half) as f64;
            rss_slope_kb = Some(grown / (2 * half_jobs.max(1)) as f64);
        }
        if !traced.secrets_intact() || !plain.secrets_intact() {
            report.tally.fail("a tenant secret changed".into());
        }
        let stack = &mut traced.gpu.stack;
        add_bcu(&mut bcu, &stack.bcu_stats());
        rbt_allocs += stack.driver().stats().rbt_allocs;
        if let Some(f) = stack.flight() {
            recorded += f.events_recorded();
            dropped += f.events_dropped();
        }
        sessions += 1;
    }

    let fixed_us = engine_fixed_cost_us(&sys_config());
    report.layer_times(&mut tracer, traced_wall, plain_wall, fixed_us);
    report.sim_metrics(&mut tracer, &agg);
    report.core_metrics(&bcu, agg.launches);
    report.per_launch(
        "driver.rbt_allocs",
        rbt_allocs,
        agg.launches,
        "count/launch",
    );
    report.metric(
        "driver.rss_per_launch_kb",
        rss_slope_kb.unwrap_or(0.0),
        "KB",
        1,
    );
    report.per_launch(
        "telemetry.events_recorded",
        recorded,
        agg.launches,
        "count/launch",
    );
    report.per_launch(
        "telemetry.events_dropped",
        dropped,
        agg.launches,
        "count/launch",
    );
    report.tracer = Some(tracer);
    report
}
