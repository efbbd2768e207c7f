//! `detect`: the fuzz-scoreboard pipeline on a seeded corpus. Each
//! specimen is verified, launched on a fresh system with static analysis,
//! Type 3 pointers and proof-carrying elision on (plus an unshared
//! sentinel buffer), run through `launch_audited`, and judged against its
//! planted-bug oracle. One operation is one judged specimen; the corpus is
//! judged pass after pass until the time is up.

use crate::pace::Pace;
use crate::stack::{report_key, Stack, Traced};
use crate::stats::{self, Sample};
use crate::trace::Tracer;
use crate::{
    add_bcu, engine_fixed_cost_us, OpTime, Opts, Pass, Report, SimAgg, LATENCY_SAMPLES, SETUP_REPS,
};
use gpushield::{
    Arg, BcuStats, BufferHandle, RunError, RunReport, System, SystemConfig, SystemError,
    ViolationRecord,
};
use gpushield_compiler::{
    analyze, discharge, prove_sites, AnalysisConfig, ArgInfo, LaunchKnowledge, PassManager,
    Severity,
};
use gpushield_fuzzgen::{corpus, BugClass, Expected, Specimen, VictimRef};
use gpushield_isa::{BlockId, Instr, SiteCheck};
use std::time::Instant;

/// Specimens per bug class in one corpus pass (nine classes).
const PER_CLASS: usize = 400;
/// Watchdog budget per specimen launch.
const MAX_CYCLES: u64 = 200_000;
/// Unshared sentinel allocated after every specimen's buffers.
const SENTINEL_BYTES: u64 = 256;
const SENTINEL_WORD: u32 = 0x53E7_71E1;

/// The fuzz scoreboard's everything-on audit configuration.
fn sweep_config() -> SystemConfig {
    let mut cfg = SystemConfig::nvidia_protected();
    cfg.driver.enable_type3 = true;
    cfg.driver.enable_elision = true;
    cfg.gpu.max_cycles = MAX_CYCLES;
    cfg.gpu.sim_threads = gpushield_bench::runner::sim_threads();
    cfg
}

/// How a specimen degraded (the scoreboard's taxonomy).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    Detected,
    FalseFault,
    SilentCorruption,
    Masked,
    Completed,
    Hang,
}

impl Outcome {
    fn conforms(self, expected: Expected) -> bool {
        matches!(
            (self, expected),
            (Outcome::Detected, Expected::Detected)
                | (Outcome::Masked, Expected::Masked)
                | (Outcome::SilentCorruption, Expected::SilentCorruption)
                | (Outcome::Completed, Expected::Completed)
        )
    }
}

/// The calls the pipeline makes, on either launch path.
trait Audit {
    /// Runs the verifier passes; true when any raised a warning.
    fn verify(&mut self, s: &Specimen) -> bool;
    fn alloc(&mut self, bytes: u64) -> Result<BufferHandle, SystemError>;
    fn set_heap(&mut self, bytes: u64) -> Result<(), SystemError>;
    fn write(&mut self, h: BufferHandle, offset: u64, bytes: &[u8]);
    fn read_u32(&mut self, h: BufferHandle, offset: u64) -> u64;
    fn va(&self, h: BufferHandle) -> u64;
    fn heap_window(&self) -> Option<(u64, u64)>;
    fn launch(&mut self, s: &Specimen, args: &[Arg]) -> Result<RunReport, SystemError>;
    fn statically_flagged(&self) -> bool;
    fn violations(&self) -> &[ViolationRecord];
}

impl Audit for System {
    fn verify(&mut self, s: &Specimen) -> bool {
        verify(s)
    }
    fn alloc(&mut self, bytes: u64) -> Result<BufferHandle, SystemError> {
        System::alloc(self, bytes)
    }
    fn set_heap(&mut self, bytes: u64) -> Result<(), SystemError> {
        self.set_heap_limit(bytes)
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
    fn heap_window(&self) -> Option<(u64, u64)> {
        System::heap_window(self)
    }
    fn launch(&mut self, s: &Specimen, args: &[Arg]) -> Result<RunReport, SystemError> {
        self.launch_audited(s.kernel.clone(), s.grid, s.block, args)
            .map(|(r, _)| r)
    }
    fn statically_flagged(&self) -> bool {
        self.last_bat().is_some_and(|b| !b.violations.is_empty())
    }
    fn violations(&self) -> &[ViolationRecord] {
        System::violations(self)
    }
}

impl Audit for Traced<'_> {
    fn verify(&mut self, s: &Specimen) -> bool {
        self.tracer.time("compiler.verify", || verify(s))
    }
    fn alloc(&mut self, bytes: u64) -> Result<BufferHandle, SystemError> {
        self.stack.alloc(self.tracer, bytes)
    }
    fn set_heap(&mut self, bytes: u64) -> Result<(), SystemError> {
        self.stack.set_heap_limit(self.tracer, bytes)
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
    fn heap_window(&self) -> Option<(u64, u64)> {
        self.stack.driver().heap_window()
    }
    fn launch(&mut self, s: &Specimen, args: &[Arg]) -> Result<RunReport, SystemError> {
        self.stack
            .launch_audited(self.tracer, s.kernel.clone(), s.grid, s.block, args)
            .map(|(r, _)| r)
    }
    fn statically_flagged(&self) -> bool {
        self.stack
            .last_bat()
            .is_some_and(|b| !b.violations.is_empty())
    }
    fn violations(&self) -> &[ViolationRecord] {
        self.stack.violations()
    }
}

/// The launch-time knowledge the driver derives for a specimen.
fn knowledge(s: &Specimen) -> LaunchKnowledge {
    let threads = u64::from(s.grid) * u64::from(s.block);
    LaunchKnowledge {
        args: s
            .buffers
            .iter()
            .map(|&size| ArgInfo::Buffer { size })
            .collect(),
        local_sizes: s
            .kernel
            .locals()
            .iter()
            .map(|l| l.bytes_per_thread() * threads)
            .collect(),
        block: s.block,
        grid: s.grid,
        heap_size: (s.heap_limit > 0).then_some(s.heap_limit),
    }
}

/// The instruction site the oracle's `mem_ordinal` names.
fn planted_site(s: &Specimen) -> Option<(BlockId, usize)> {
    let ord = s.bug.mem_ordinal?;
    s.kernel
        .iter_instrs()
        .filter(|(_, _, i)| {
            matches!(
                i,
                Instr::Ld { .. } | Instr::St { .. } | Instr::AtomAdd { .. }
            )
        })
        .nth(ord)
        .map(|(b, idx, _)| (b, idx))
}

/// What one judged specimen produced.
struct Judged {
    outcome: Outcome,
    run: Option<RunReport>,
    violations: Vec<ViolationRecord>,
    verify_flagged: bool,
    static_flagged: bool,
}

/// Verifies, launches and judges one specimen on `sys`.
fn judge<A: Audit>(s: &Specimen, mut sys: A) -> (Judged, A) {
    let verify_flagged = sys.verify(s);
    let bufs: Vec<BufferHandle> = s
        .buffers
        .iter()
        .map(|&b| sys.alloc(b).expect("specimen buffer"))
        .collect();
    let sentinel = sys.alloc(SENTINEL_BYTES).expect("sentinel buffer");
    let pattern: Vec<u8> = (0..SENTINEL_BYTES / 4)
        .flat_map(|_| SENTINEL_WORD.to_le_bytes())
        .collect();
    sys.write(sentinel, 0, &pattern);
    if s.heap_limit > 0 {
        sys.set_heap(s.heap_limit).expect("heap limit");
    }
    let args: Vec<Arg> = bufs.iter().map(|&h| Arg::Buffer(h)).collect();
    let launched = sys.launch(s, &args);
    let mut judged = Judged {
        outcome: Outcome::Hang,
        run: None,
        violations: sys.violations().to_vec(),
        verify_flagged,
        static_flagged: sys.statically_flagged(),
    };
    let completed = match launched {
        Ok(r) => {
            let completed = r.completed();
            judged.run = Some(r);
            completed
        }
        Err(SystemError::Run(
            RunError::CycleBudgetExceeded { .. } | RunError::HeapDeadlock { .. },
        )) => {
            return (judged, sys);
        }
        // A refusal with nothing logged is a spurious rejection.
        Err(_) => false,
    };

    let site = planted_site(s);
    let window = match s.bug.victim {
        VictimRef::BufferEnd { param, lo, hi } => {
            let end = sys.va(bufs[param]) + s.buffers[param];
            Some(((end as i64 + lo) as u64, (end as i64 + hi) as u64))
        }
        VictimRef::HeapEnd { lo, hi } => sys
            .heap_window()
            .map(|(va, size)| (va + size + lo, va + size + hi)),
        _ => None,
    };
    let vs = &judged.violations;
    let planted_hit = vs.iter().any(|v| {
        Some(v.site) == site && window.is_none_or(|(lo, hi)| v.range.0 < hi && v.range.1 > lo)
    });
    let stray = vs.iter().any(|v| Some(v.site) != site);
    let no_violations = vs.is_empty();
    let sentinel_clean =
        (0..SENTINEL_BYTES / 4).all(|w| sys.read_u32(sentinel, w * 4) == u64::from(SENTINEL_WORD));
    let probe_clean = s
        .probe
        .map(|p| sys.read_u32(bufs[p.param], p.offset) == p.clean)
        .unwrap_or(true);
    judged.outcome = if s.bug.class == BugClass::Benign {
        if completed && no_violations && sentinel_clean {
            Outcome::Completed
        } else {
            Outcome::FalseFault
        }
    } else if planted_hit {
        Outcome::Detected
    } else if stray || !completed {
        Outcome::FalseFault
    } else if !probe_clean || !sentinel_clean {
        Outcome::SilentCorruption
    } else {
        Outcome::Masked
    };
    (judged, sys)
}

fn verify(s: &Specimen) -> bool {
    PassManager::with_default_passes()
        .verify(&s.kernel, &knowledge(s))
        .at_least(Severity::Warning)
        .next()
        .is_some()
}

fn failure(s: &Specimen, j: &Judged) -> Option<String> {
    let expected = s.bug.class.expected();
    (!j.outcome.conforms(expected))
        .then(|| format!("{}: {:?}, expected {:?}", s.name, j.outcome, expected))
}

/// Setup: the corpus and the first system.
fn setup(opts: &Opts, pace: &mut Pace) -> (Vec<Specimen>, Vec<OpTime>, Vec<f64>) {
    let (mut total, mut gen) = (Vec::new(), Vec::new());
    let mut specs = Vec::new();
    for _ in 0..SETUP_REPS {
        let seg = pace.segment();
        let start = Instant::now();
        specs = corpus(opts.seed, PER_CLASS);
        gen.push(start.elapsed().as_secs_f64());
        std::hint::black_box(System::new(sweep_config()));
        total.push((start.elapsed().as_secs_f64(), seg));
    }
    pace.close();
    (specs, total, gen)
}

/// Runs the workload.
pub fn run(opts: &Opts) -> Report {
    let mut pace = Pace::new();
    let (specs, setup_s, corpus_s) = setup(opts, &mut pace);
    if opts.trace {
        return run_traced(opts, &specs, &corpus_s);
    }
    let mut report = Report::default();
    let deadline = opts.deadline();
    let mut passes = Vec::new();
    let (mut detectable, mut detected) = (0u64, 0u64);
    let mut pass_cycles: Option<u64> = None;
    let mut latencies = Sample::new(LATENCY_SAMPLES);
    while passes.is_empty() || Instant::now() < deadline {
        let first_seg = pace.segment();
        let mut pass = Pass::default();
        let mut cycles = 0u64;
        for s in &specs {
            let t = Instant::now();
            let (j, _) = judge(s, System::new(sweep_config()));
            pass.ops += 1;
            latencies.push((t.elapsed().as_secs_f64() * 1e6, pace.segment()));
            pace.tick();
            report.tally.record(failure(s, &j));
            if let Some(r) = &j.run {
                pass.instructions += r.instructions();
                cycles += r.cycles;
            }
            if s.bug.class.expected() == Expected::Detected {
                detectable += 1;
                detected += u64::from(j.outcome == Outcome::Detected);
            }
        }
        pace.close();
        pass.segs = first_seg..pace.segment();
        // Every pass judges the same corpus, so it must repeat exactly.
        if *pass_cycles.get_or_insert(cycles) != cycles {
            report
                .tally
                .fail(format!("pass {} ran {cycles} cycles", passes.len()));
        }
        passes.push(pass);
    }
    report.end_to_end(
        &pace,
        &setup_s,
        &passes,
        &latencies,
        pass_cycles.unwrap_or(0),
    );
    report.extra(
        "detect_share",
        stats::share(detected as f64, detectable as f64),
        "ratio",
        detectable,
    );
    report.extra("specimens_per_pass", specs.len() as f64, "count", 1);
    report
}

/// Re-runs the compiler calls the driver makes inside `prepare_launch`
/// (interval analysis, relational proofs and their discharge) so they can
/// be timed from outside. The replays are extra work: they go to their own
/// recorder and are not part of the traced wall time.
fn replay_compiler(
    s: &Specimen,
    replay: &mut Tracer,
    type1: &mut (u64, u64),
    iterations: &mut u64,
) {
    let know = knowledge(s);
    let cfg = AnalysisConfig {
        enable_type3: true,
        enable_elision: true,
    };
    let bat = replay.time("compiler.analyze", || analyze(&s.kernel, &know, cfg));
    let certified = replay.time("compiler.prove", || {
        prove_sites(&s.kernel, &know.value_less())
            .iter()
            .filter(|p| bat.plan.get(p.site) == SiteCheck::Runtime)
            .filter(|p| discharge(p, &s.kernel, &know).is_some())
            .count()
    });
    type1.0 += (bat.sites_static + certified) as u64;
    type1.1 += bat.sites_total as u64;
    *iterations += bat.fixpoint_iterations as u64;
}

fn run_traced(opts: &Opts, specs: &[Specimen], corpus_s: &[f64]) -> Report {
    let mut report = Report::default();
    let mut tracer = Tracer::new();
    let mut replay = Tracer::new();
    let mut agg = SimAgg::default();
    let mut bcu = BcuStats::default();
    let (mut traced_wall, mut plain_wall) = (0.0, 0.0);
    let (mut rbt_allocs, mut certs, mut discharged) = (0u64, 0u64, 0u64);
    let (mut type1, mut iterations) = ((0u64, 0u64), 0u64);
    let deadline = opts.deadline();
    for (i, s) in specs.iter().cycle().enumerate() {
        if i > 0 && Instant::now() >= deadline {
            break;
        }
        let t0 = Instant::now();
        let (plain, _) = judge(s, System::new(sweep_config()));
        let t1 = Instant::now();
        tracer.enter("bench.op");
        let stack = Stack::new(&mut tracer, &sweep_config());
        let sys = Traced {
            stack,
            tracer: &mut tracer,
        };
        let (traced, mut sys) = judge(s, sys);
        sys.tracer.exit();
        plain_wall += (t1 - t0).as_secs_f64();
        traced_wall += t1.elapsed().as_secs_f64();

        replay_compiler(s, &mut replay, &mut type1, &mut iterations);
        report.tally.record(failure(s, &traced));
        let same = plain.outcome == traced.outcome
            && plain.run.as_ref().map(report_key) == traced.run.as_ref().map(report_key)
            && plain.violations == traced.violations
            && plain.verify_flagged == traced.verify_flagged
            && plain.static_flagged == traced.static_flagged;
        if !same {
            report.tally.fail(format!(
                "{}: traced launch differs from System::launch_audited",
                s.name
            ));
        }
        let stack = &mut sys.stack;
        add_bcu(&mut bcu, &stack.bcu_stats());
        let d = stack.driver().stats();
        rbt_allocs += d.rbt_allocs;
        certs += d.certs_emitted;
        discharged += d.certs_discharged;
        if let Some(r) = &traced.run {
            agg.add(r);
        }
    }

    let fixed_us = engine_fixed_cost_us(&sweep_config());
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
        "driver.certs_discharged_share",
        stats::share(discharged as f64, certs as f64),
        "ratio",
        certs,
    );
    let n = replay.total("compiler.analyze").count;
    report.metric(
        "compiler.analyze_s",
        replay.self_s("compiler.analyze"),
        "s",
        n,
    );
    report.metric("compiler.prove_s", replay.self_s("compiler.prove"), "s", n);
    report.metric(
        "compiler.type1_share",
        stats::share(type1.0 as f64, type1.1 as f64),
        "ratio",
        n,
    );
    report.metric(
        "compiler.fixpoint_iterations",
        stats::share(iterations as f64, n as f64),
        "count/op",
        n,
    );
    report.metric(
        "fuzzgen.corpus_s",
        stats::median(corpus_s).unwrap_or(0.0),
        "s",
        corpus_s.len() as u64,
    );
    report.tracer = Some(tracer);
    report
}
