//! Benchmark driver for one workload: runs it for a fixed time, checks
//! every output, and prints a JSON result document on stdout.
//!
//! ```text
//! perfbench --workload fig14|serve|detect [--seed N] [--seconds S]
//!           [--trace 0|1] [--spans FILE] [--write-golden]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics through the untraced
//! `System` API. `--trace 1` runs every operation twice, once untraced and
//! once through [`stack::Stack`] with a span around each layer call, checks
//! that both give the same reports, and prints the per-layer metrics.
//! `perfbench/run.py` builds this binary, adds host facts and prints the
//! report; see `perfbench/README.md`.

mod detect;
mod fig14;
mod pace;
mod serve;
mod stack;
mod stats;
mod trace;

use gpushield::{BcuStats, RunReport, SystemConfig};
use gpushield_isa::KernelBuilder;
use gpushield_runtime::report::Json;
use pace::Pace;
use stats::{Sample, Tally};
use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::Tracer;

/// Set-up repetitions; the reported set-up time is their median.
pub const SETUP_REPS: usize = 51;

/// The documented default workload seed.
pub const DEFAULT_SEED: u64 = 0xF022;

/// Options shared by every workload.
pub struct Opts {
    /// Workload seed (ignored by `fig14`).
    pub seed: u64,
    /// Measured time.
    pub seconds: f64,
    /// Traced run.
    pub trace: bool,
    /// Rewrite the `fig14` golden file instead of checking against it.
    pub write_golden: bool,
}

impl Opts {
    /// `--seconds` from now.
    pub fn deadline(&self) -> Instant {
        Instant::now() + Duration::from_secs_f64(self.seconds)
    }
}

/// Operation host times a run keeps for its latency percentiles.
pub const LATENCY_SAMPLES: usize = 1 << 17;

/// Raw host time of one operation, µs, and the [`Pace`] segment it ran in.
pub type OpTime = (f64, usize);

/// One pass over a workload's fixed inputs: a `fig14` sweep, a `serve`
/// session or a `detect` corpus pass. The [`Pace`] segments it spans give
/// its host time.
#[derive(Default)]
pub struct Pass {
    /// The pace segments the pass spans, all closed.
    pub segs: Range<usize>,
    /// Simulated warp instructions.
    pub instructions: u64,
    /// Operations completed.
    pub ops: u64,
}

/// One reported metric.
pub struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    samples: u64,
}

/// What a workload run produced.
#[derive(Default)]
pub struct Report {
    /// Operation and failure counts.
    pub tally: Tally,
    /// End-to-end (untraced) or per-layer (traced) metrics.
    pub metrics: Vec<Metric>,
    /// Workload-specific figures for the human report only.
    pub extra: Vec<Metric>,
    /// The traced run's spans.
    pub tracer: Option<Tracer>,
}

impl Report {
    /// Adds a metric measured over `samples` samples.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, samples: u64) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    /// Adds a count as a mean per launch.
    pub fn per_launch(&mut self, name: &str, total: u64, launches: u64, unit: &'static str) {
        self.metric(
            name,
            stats::share(total as f64, launches as f64),
            unit,
            launches,
        );
    }

    /// Adds a human-report figure.
    pub fn extra(&mut self, name: &str, value: f64, unit: &'static str, samples: u64) {
        self.extra.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    /// Adds the end-to-end metrics every workload reports. Every host time
    /// is scaled by the [`Pace`] segment it fell in: `setup` holds the
    /// set-up times, `latencies` a sample of the passes' operation times.
    /// Rates are medians over the passes.
    pub fn end_to_end(
        &mut self,
        pace: &Pace,
        setup: &[OpTime],
        passes: &[Pass],
        latencies: &Sample<OpTime>,
        sim_cycles: u64,
    ) {
        let n = passes.len() as u64;
        let walls: Vec<f64> = passes
            .iter()
            .map(|p| pace.seconds(p.segs.clone()))
            .collect();
        let median_rate = |f: &dyn Fn(&Pass) -> f64| {
            let rs: Vec<f64> = passes.iter().zip(&walls).map(|(p, w)| f(p) / w).collect();
            stats::median(&rs).unwrap_or(0.0)
        };
        let latencies_us: Vec<f64> = latencies
            .kept()
            .iter()
            .map(|&(us, seg)| us * pace.scale(seg))
            .collect();
        let ops = latencies_us.len() as u64;
        let setup_s: Vec<f64> = setup.iter().map(|&(s, seg)| s * pace.scale(seg)).collect();
        let (peak_kb, _) = stats::rss_kb();
        self.metric(
            "setup_s",
            stats::median(&setup_s).unwrap_or(0.0),
            "s",
            setup_s.len() as u64,
        );
        self.metric(
            "sim_instrs_per_s",
            median_rate(&|p| p.instructions as f64),
            "instr/s",
            n,
        );
        self.metric("ops_per_s", median_rate(&|p| p.ops as f64), "1/s", n);
        self.metric(
            "op_latency_p50_us",
            stats::smoothed_percentile(&latencies_us, 50.0).unwrap_or(0.0),
            "us",
            ops,
        );
        // A p99 with fewer than ten samples beyond it is not reported.
        self.metric(
            "op_latency_p99_us",
            stats::smoothed_percentile(&latencies_us, 99.0).unwrap_or(0.0),
            "us",
            ops,
        );
        self.metric("peak_rss_mb", peak_kb as f64 / 1024.0, "MB", 1);
        self.metric("sim_cycles", sim_cycles as f64, "cycles", n);
        self.extra("passes", n as f64, "count", n);
        self.extra(
            "fail_share",
            self.tally.fail_share(),
            "ratio",
            self.tally.attempted,
        );
        if let Some(p) = stats::highest_tail_percentile(latencies_us.len()) {
            self.extra(
                &format!("op_latency_p{p}_us"),
                stats::smoothed_percentile(&latencies_us, p).unwrap_or(0.0),
                "us",
                ops,
            );
        }
        self.extra("host_speed", pace.host_speed(), "ratio", pace.samples());
        let raw_wall: f64 = passes
            .iter()
            .map(|p| pace.raw_seconds(p.segs.clone()))
            .sum();
        let all_ops: u64 = passes.iter().map(|p| p.ops).sum();
        self.extra("unscaled_ops_per_s", all_ops as f64 / raw_wall, "1/s", n);
    }

    /// Adds the per-layer metrics every traced run reports from its spans:
    /// layer self times, the fixed per-call engine cost, the wall time no
    /// layer span covers (the recorder's own bookkeeping excluded), and the
    /// tracing overhead measured against the untraced runs of the same
    /// operations.
    pub fn layer_times(
        &mut self,
        t: &mut Tracer,
        traced_wall_s: f64,
        untraced_wall_s: f64,
        fixed_engine_us: f64,
    ) {
        for (metric, span) in [
            ("sim.run_s", "sim.run"),
            ("driver.prepare_s", "driver.prepare"),
            ("driver.alloc_s", "driver.alloc"),
            ("driver.new_s", "driver.new"),
            ("driver.host_io_s", "driver.host_io"),
            ("driver.tenant_s", "driver.tenant"),
            ("core.register_s", "core.register"),
            ("compiler.verify_s", "compiler.verify"),
            ("telemetry.record_s", "telemetry.record"),
            ("telemetry.post_mortem_s", "telemetry.post_mortem"),
        ] {
            let total = t.total(span);
            self.metric(metric, t.self_s(span), "s", total.count);
        }
        self.metric(
            "sim.run_per_launch_us",
            fixed_engine_us,
            "us",
            ENGINE_PROBES,
        );
        let bookkeeping_s = t.bookkeeping_s();
        let layer_s: f64 = t
            .totals()
            .iter()
            .filter(|(name, _)| !name.starts_with("bench."))
            .map(|(_, x)| x.self_ns as f64 / 1e9)
            .sum();
        self.metric("bench.wall_s", traced_wall_s, "s", 1);
        self.metric(
            "bench.residual_s",
            (traced_wall_s - bookkeeping_s - layer_s).max(0.0),
            "s",
            1,
        );
        self.metric(
            "trace.overhead_pct",
            (traced_wall_s / untraced_wall_s - 1.0) * 100.0,
            "%",
            self.tally.attempted,
        );
    }
}

/// Calls timed by [`engine_fixed_cost_us`].
pub const ENGINE_PROBES: u64 = 201;

/// The engine's fixed cost per call: the median `Gpu::run` time of a
/// one-warp kernel that only returns, prepared by the driver on a system
/// built from `cfg`. It is measured after the traced loop and is not part
/// of the traced wall time.
pub fn engine_fixed_cost_us(cfg: &SystemConfig) -> f64 {
    let mut b = KernelBuilder::new("null");
    b.ret();
    let kernel = Arc::new(b.finish().expect("valid kernel"));
    let mut t = Tracer::new();
    let mut stack = stack::Stack::new(&mut t, cfg);
    for _ in 0..ENGINE_PROBES {
        if let Err(e) = stack.launch(&mut t, kernel.clone(), 1, 32, &[]) {
            eprintln!("perfbench: engine probe failed: {e}");
            return 0.0;
        }
    }
    stats::median(&stack.run_ns).unwrap_or(0.0) / 1e3
}

/// Simulator and memory-hierarchy counters summed over run reports.
#[derive(Default)]
pub struct SimAgg {
    /// Launches added.
    pub launches: u64,
    instructions: u64,
    cycles: u64,
    alu: u64,
    mem: u64,
    idle: u64,
    lsu: u64,
    dram: u64,
    l1d: (u64, u64),
    l2: (u64, u64),
    l1_tlb: (u64, u64),
}

impl SimAgg {
    /// Adds one run report.
    pub fn add(&mut self, r: &RunReport) {
        self.launches += r.launches.len() as u64;
        self.instructions += r.instructions();
        self.cycles += r.cycles;
        self.alu += r.profile.alu_issues;
        self.mem += r.profile.mem_issues;
        self.idle += r.profile.idle_skips;
        self.lsu += r.profile.lsu_transactions;
        self.dram += r.dram.requests;
        self.l1d.0 += r.l1d.hits;
        self.l1d.1 += r.l1d.misses;
        self.l2.0 += r.l2.hits;
        self.l2.1 += r.l2.misses;
        self.l1_tlb.0 += r.l1_tlb.hits;
        self.l1_tlb.1 += r.l1_tlb.misses;
    }
}

impl Report {
    /// Adds the simulator and memory metrics of the traced reports.
    pub fn sim_metrics(&mut self, t: &mut Tracer, a: &SimAgg) {
        let n = a.launches;
        let rate = |(h, m): (u64, u64)| stats::share(h as f64, (h + m) as f64);
        self.metric(
            "sim.ns_per_instr",
            t.self_s("sim.run") * 1e9 / a.instructions.max(1) as f64,
            "ns",
            n,
        );
        self.per_launch("sim.alu_issues", a.alu, n, "count/launch");
        self.per_launch("sim.mem_issues", a.mem, n, "count/launch");
        self.per_launch("sim.idle_skips", a.idle, n, "count/launch");
        self.metric(
            "sim.ipc",
            stats::share(a.instructions as f64, a.cycles as f64),
            "instr/cycle",
            n,
        );
        self.per_launch("mem.lsu_transactions", a.lsu, n, "count/launch");
        self.per_launch("mem.dram.requests", a.dram, n, "count/launch");
        self.metric("mem.l1d.hit_rate", rate(a.l1d), "ratio", n);
        self.metric("mem.l2.hit_rate", rate(a.l2), "ratio", n);
        self.metric("mem.l1_tlb.hit_rate", rate(a.l1_tlb), "ratio", n);
    }

    /// Adds the BCU metrics of `n` traced launches.
    pub fn core_metrics(&mut self, b: &BcuStats, n: u64) {
        self.per_launch("core.checks", b.checks, n, "count/launch");
        self.metric("core.l1_hit_rate", b.l1_hit_rate(), "ratio", n);
        self.metric(
            "core.l2_hit_rate",
            stats::share(b.l2_hits as f64, (b.l2_hits + b.rbt_fetches) as f64),
            "ratio",
            n,
        );
        self.per_launch("core.rbt_fetches", b.rbt_fetches, n, "count/launch");
        self.per_launch("core.stall_cycles", b.stall_cycles, n, "cycles/launch");
        self.per_launch("core.violations", b.violations, n, "count/launch");
    }
}

/// Adds `o` into `acc` field by field.
pub fn add_bcu(acc: &mut BcuStats, o: &BcuStats) {
    acc.checks += o.checks;
    acc.l1_hits += o.l1_hits;
    acc.l2_hits += o.l2_hits;
    acc.rbt_fetches += o.rbt_fetches;
    acc.type3_checks += o.type3_checks;
    acc.unprotected += o.unprotected;
    acc.violations += o.violations;
    acc.stall_cycles += o.stall_cycles;
    acc.rcache_evictions += o.rcache_evictions;
    acc.cross_kernel_evictions += o.cross_kernel_evictions;
}

/// Every per-layer metric, in report order, with its unit. Counters are
/// means per traced launch (or operation), so runs of different lengths
/// compare. A workload that does not exercise a layer reports 0 for it.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sim.run_s", "s"),
    ("sim.ns_per_instr", "ns"),
    ("sim.alu_issues", "count/launch"),
    ("sim.mem_issues", "count/launch"),
    ("sim.idle_skips", "count/launch"),
    ("sim.ipc", "instr/cycle"),
    ("sim.run_per_launch_us", "us"),
    ("mem.lsu_transactions", "count/launch"),
    ("mem.dram.requests", "count/launch"),
    ("mem.l1d.hit_rate", "ratio"),
    ("mem.l2.hit_rate", "ratio"),
    ("mem.l1_tlb.hit_rate", "ratio"),
    ("core.checks", "count/launch"),
    ("core.l1_hit_rate", "ratio"),
    ("core.l2_hit_rate", "ratio"),
    ("core.rbt_fetches", "count/launch"),
    ("core.stall_cycles", "cycles/launch"),
    ("core.violations", "count/launch"),
    ("core.bcu_host_s", "s"),
    ("core.register_s", "s"),
    ("driver.prepare_s", "s"),
    ("driver.alloc_s", "s"),
    ("driver.new_s", "s"),
    ("driver.host_io_s", "s"),
    ("driver.tenant_s", "s"),
    ("driver.rbt_allocs", "count/launch"),
    ("driver.certs_discharged_share", "ratio"),
    ("driver.rss_per_launch_kb", "KB"),
    ("compiler.verify_s", "s"),
    ("compiler.analyze_s", "s"),
    ("compiler.prove_s", "s"),
    ("compiler.type1_share", "ratio"),
    ("compiler.fixpoint_iterations", "count/op"),
    ("telemetry.events_recorded", "count/launch"),
    ("telemetry.events_dropped", "count/launch"),
    ("telemetry.record_s", "s"),
    ("telemetry.post_mortem_s", "s"),
    ("fuzzgen.corpus_s", "s"),
    ("workloads.build_s", "s"),
    ("bench.wall_s", "s"),
    ("bench.residual_s", "s"),
    ("trace.overhead_pct", "%"),
];

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload fig14|serve|detect [--seed N] [--seconds S] \
         [--trace 0|1] [--spans FILE] [--write-golden]"
    );
    std::process::exit(2);
}

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn main() {
    let mut workload = None;
    let mut spans = None;
    let mut opts = Opts {
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        write_golden: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--write-golden" {
            opts.write_golden = true;
            continue;
        }
        let Some(value) = args.next() else { usage() };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => opts.seed = parse_u64(&value).unwrap_or_else(|| usage()),
            "--seconds" => {
                opts.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .unwrap_or_else(|| usage())
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--spans" => spans = Some(value),
            _ => usage(),
        }
    }
    let workload = workload.unwrap_or_else(|| usage());
    let mut report = match workload.as_str() {
        "fig14" => fig14::run(&opts),
        "serve" => serve::run(&opts),
        "detect" => detect::run(&opts),
        _ => usage(),
    };
    if opts.trace {
        for (name, unit) in PER_LAYER {
            if !report.metrics.iter().any(|m| m.name == *name) {
                report.metric(name, 0.0, unit, 0);
            }
        }
    }
    if let (Some(path), Some(t)) = (spans, report.tracer.as_mut()) {
        if let Err(e) = std::fs::write(&path, t.render_tsv()) {
            eprintln!("perfbench: cannot write spans to {path}: {e}");
            report.tally.fail(format!("span file {path} not written"));
        }
    }
    let metrics = |ms: &[Metric]| {
        Json::Obj(
            ms.iter()
                .map(|m| {
                    let mut o = Json::obj();
                    o.set("value", Json::Float(m.value))
                        .set("unit", Json::Str(m.unit.into()))
                        .set("samples", Json::UInt(m.samples));
                    (m.name.clone(), o)
                })
                .collect(),
        )
    };
    let mut doc = Json::obj();
    doc.set("workload", Json::Str(workload))
        .set("seed", Json::UInt(opts.seed))
        .set("seconds", Json::Float(opts.seconds))
        .set("trace", Json::Bool(opts.trace))
        .set("correct", Json::Bool(report.tally.failed == 0))
        .set("attempted", Json::UInt(report.tally.attempted))
        .set("failed", Json::UInt(report.tally.failed))
        .set(
            "failures",
            Json::Arr(
                report
                    .tally
                    .reasons
                    .iter()
                    .cloned()
                    .map(Json::Str)
                    .collect(),
            ),
        )
        .set(
            "config_fingerprint",
            Json::Str(gpushield_bench::runner::config_fingerprint()),
        )
        .set(
            "sim_threads",
            Json::UInt(gpushield_bench::runner::sim_threads() as u64),
        )
        .set("metrics", metrics(&report.metrics))
        .set("extra", metrics(&report.extra));
    print!("{}", doc.render());
}
