//! `fig14`: the paper's Fig. 14 sweep. Every `cuda_set()` workload runs
//! on the Nvidia preset under the no-check baseline and two GPUShield
//! RCache latency points, each on a fresh system with the recorder off.
//! One operation is one kernel launch. The workload takes no seed.

use crate::pace::Pace;
use crate::stack::{report_key, Stack};
use crate::stats::{self, Sample};
use crate::trace::Tracer;
use crate::{
    add_bcu, engine_fixed_cost_us, OpTime, Opts, Pass, Report, SimAgg, LATENCY_SAMPLES, SETUP_REPS,
};
use gpushield::{Arg, BcuStats, BufferHandle, RunReport, System, SystemConfig};
use gpushield_bench::runner::{config, Protection, Target};
use gpushield_isa::Kernel;
use gpushield_runtime::report::Json;
use gpushield_workloads::{cuda_set, BufId, HostApi, WArg, Workload};
use std::sync::Arc;
use std::time::Instant;

/// Per-(workload, protection) reference results, compared exactly.
const GOLDEN: &str = "perfbench/fig14_golden.json";
/// The committed Fig. 14 exhibit whose geomean row the sweep must match.
const EXHIBIT: &str = "results/fig14.txt";

/// The three protection points of Fig. 14, in row order.
fn protections() -> [(&'static str, Protection); 3] {
    [
        ("baseline", Protection::baseline()),
        ("l1_1_l2_3", Protection::shield_lat(1, 3)),
        ("l1_2_l2_5", Protection::shield_lat(2, 5)),
    ]
}

/// What one (workload, protection) row produced.
#[derive(Default)]
struct Row {
    reports: Vec<RunReport>,
    /// Host time of each launch, µs, and its pace segment.
    ops: Vec<OpTime>,
    bcu: BcuStats,
    rbt_allocs: u64,
    errors: Vec<String>,
    wall_s: f64,
    sim_run_s: f64,
}

impl Row {
    fn cycles(&self) -> u64 {
        self.reports.iter().map(|r| r.cycles).sum()
    }

    fn instructions(&self) -> u64 {
        self.reports.iter().map(RunReport::instructions).sum()
    }

    fn golden(&self, workload: &str, protection: &str) -> Json {
        let b = &self.bcu;
        let mut bcu = Json::obj();
        for (k, v) in [
            ("checks", b.checks),
            ("l1_hits", b.l1_hits),
            ("l2_hits", b.l2_hits),
            ("rbt_fetches", b.rbt_fetches),
            ("type3_checks", b.type3_checks),
            ("unprotected", b.unprotected),
            ("violations", b.violations),
            ("stall_cycles", b.stall_cycles),
            ("rcache_evictions", b.rcache_evictions),
            ("cross_kernel_evictions", b.cross_kernel_evictions),
        ] {
            bcu.set(k, Json::UInt(v));
        }
        let mut o = Json::obj();
        o.set("workload", Json::Str(workload.into()))
            .set("protection", Json::Str(protection.into()))
            .set("cycles", Json::UInt(self.cycles()))
            .set("instructions", Json::UInt(self.instructions()))
            .set("launches", Json::UInt(self.reports.len() as u64))
            .set("bcu", bcu);
        o
    }
}

/// Untraced host: the workload's program against `System`, timing each
/// `System::launch` call.
struct PlainHost<'p> {
    sys: System,
    bufs: Vec<BufferHandle>,
    row: Row,
    pace: &'p mut Pace,
}

impl<'p> PlainHost<'p> {
    fn new(cfg: SystemConfig, pace: &'p mut Pace) -> Self {
        PlainHost {
            sys: System::new(cfg),
            bufs: Vec::new(),
            row: Row::default(),
            pace,
        }
    }
}

fn map_args(bufs: &[BufferHandle], args: &[WArg]) -> Vec<Arg> {
    args.iter()
        .map(|a| match a {
            WArg::Buf(b) => Arg::Buffer(bufs[*b]),
            WArg::Scalar(v) => Arg::Scalar(*v),
        })
        .collect()
}

fn le_bytes(data: &[u32]) -> Vec<u8> {
    data.iter().flat_map(|v| v.to_le_bytes()).collect()
}

impl HostApi for PlainHost<'_> {
    fn alloc(&mut self, bytes: u64) -> BufId {
        let h = self.sys.alloc(bytes).expect("workload allocation");
        self.bufs.push(h);
        self.bufs.len() - 1
    }

    fn upload_u32(&mut self, buf: BufId, offset_bytes: u64, data: &[u32]) {
        self.sys
            .write_buffer(self.bufs[buf], offset_bytes, &le_bytes(data));
    }

    fn set_heap(&mut self, bytes: u64) {
        self.sys.set_heap_limit(bytes).expect("heap limit");
    }

    fn launch(&mut self, kernel: &Arc<Kernel>, grid: u32, block: u32, args: &[WArg]) {
        let args = map_args(&self.bufs, args);
        let start = Instant::now();
        let result = self.sys.launch(kernel.clone(), grid, block, &args);
        self.row
            .ops
            .push((start.elapsed().as_secs_f64() * 1e6, self.pace.segment()));
        self.pace.tick();
        match result {
            Ok(r) => self.row.reports.push(r),
            Err(e) => self.row.errors.push(format!("{}: {e}", kernel.name())),
        }
    }
}

/// Traced host: the same program against [`Stack`].
struct TracedHost<'t> {
    stack: Stack,
    tracer: &'t mut Tracer,
    bufs: Vec<BufferHandle>,
    row: Row,
}

impl HostApi for TracedHost<'_> {
    fn alloc(&mut self, bytes: u64) -> BufId {
        let h = self
            .stack
            .alloc(self.tracer, bytes)
            .expect("workload allocation");
        self.bufs.push(h);
        self.bufs.len() - 1
    }

    fn upload_u32(&mut self, buf: BufId, offset_bytes: u64, data: &[u32]) {
        let h = self.bufs[buf];
        self.stack
            .write_buffer(self.tracer, h, offset_bytes, &le_bytes(data));
    }

    fn set_heap(&mut self, bytes: u64) {
        self.stack
            .set_heap_limit(self.tracer, bytes)
            .expect("heap limit");
    }

    fn launch(&mut self, kernel: &Arc<Kernel>, grid: u32, block: u32, args: &[WArg]) {
        let args = map_args(&self.bufs, args);
        let result = self
            .stack
            .launch(self.tracer, kernel.clone(), grid, block, &args);
        match result {
            Ok(r) => self.row.reports.push(r),
            Err(e) => self.row.errors.push(format!("{}: {e}", kernel.name())),
        }
    }
}

fn run_plain(w: &Workload, prot: Protection, pace: &mut Pace) -> Row {
    let start = Instant::now();
    let mut host = PlainHost::new(config(Target::Nvidia, prot), pace);
    w.run(&mut host);
    host.row.bcu = host.sys.bcu_stats();
    host.row.rbt_allocs = host.sys.driver().stats().rbt_allocs;
    host.row.wall_s = start.elapsed().as_secs_f64();
    host.row
}

fn run_traced(w: &Workload, prot: Protection, tracer: &mut Tracer) -> Row {
    let start = Instant::now();
    let stack = Stack::new(tracer, &config(Target::Nvidia, prot));
    let mut host = TracedHost {
        stack,
        tracer,
        bufs: Vec::new(),
        row: Row::default(),
    };
    w.run(&mut host);
    host.row.bcu = host.stack.bcu_stats();
    host.row.rbt_allocs = host.stack.driver().stats().rbt_allocs;
    host.row.sim_run_s = host.stack.run_ns.iter().sum::<f64>() / 1e9;
    host.row.wall_s = start.elapsed().as_secs_f64();
    host.row
}

/// Failures of one row: launch errors, aborts (the suite is benign), and
/// any difference from the golden record.
fn check_row(row: &Row, w: &Workload, prot: &str, golden: Option<&Json>) -> Option<String> {
    if let Some(e) = row.errors.first() {
        return Some(format!("{}/{prot}: launch error {e}", w.name()));
    }
    if row.reports.iter().any(|r| !r.completed()) {
        return Some(format!(
            "{}/{prot}: false positive (launch aborted)",
            w.name()
        ));
    }
    let want = golden?.as_arr()?.iter().find(|r| {
        r.get("workload").and_then(Json::as_str) == Some(w.name())
            && r.get("protection").and_then(Json::as_str) == Some(prot)
    });
    match want {
        None => Some(format!("{}/{prot}: no golden record", w.name())),
        Some(g) if g.render() != row.golden(w.name(), prot).render() => Some(format!(
            "{}/{prot}: differs from golden ({} cycles, {} instructions)",
            w.name(),
            row.cycles(),
            row.instructions()
        )),
        Some(_) => None,
    }
}

/// The geomean row of the committed exhibit, as printed (3 decimals).
fn exhibit_geomeans() -> Option<(String, String)> {
    let text = std::fs::read_to_string(EXHIBIT).ok()?;
    let line = text.lines().find(|l| l.starts_with("geomean"))?;
    let mut cols = line.split_whitespace().skip(1);
    Some((cols.next()?.to_string(), cols.next()?.to_string()))
}

/// Build cost of the sweep's inputs: every workload's host program
/// against a metadata probe (kernels and input data, no simulation),
/// plus the first system.
fn setup(pace: &mut Pace) -> (Vec<Workload>, Vec<OpTime>) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut set = Vec::new();
    for _ in 0..SETUP_REPS {
        let seg = pace.segment();
        let start = Instant::now();
        set = cuda_set();
        for w in &set {
            std::hint::black_box(w.probe());
        }
        std::hint::black_box(System::new(config(Target::Nvidia, Protection::baseline())));
        times.push((start.elapsed().as_secs_f64(), seg));
    }
    pace.close();
    (set, times)
}

/// Runs the workload.
pub fn run(opts: &Opts) -> Report {
    let mut pace = Pace::new();
    let (set, setup_s) = setup(&mut pace);
    let prots = protections();
    let rows: Vec<(usize, usize)> = (0..set.len())
        .flat_map(|w| (0..prots.len()).map(move |p| (w, p)))
        .collect();
    let golden_doc = std::fs::read_to_string(GOLDEN)
        .ok()
        .and_then(|t| Json::parse(&t).ok());
    let golden = golden_doc.as_ref().and_then(|d| d.get("rows"));
    let mut report = Report::default();
    if golden.is_none() && !opts.write_golden {
        report.tally.fail(format!("{GOLDEN} missing or unreadable"));
    }
    if opts.trace {
        run_traced_rows(opts, &set, &rows, golden, setup_s, report)
    } else {
        run_plain_rows(opts, &set, &rows, golden, (pace, setup_s), report)
    }
}

fn run_plain_rows(
    opts: &Opts,
    set: &[Workload],
    rows: &[(usize, usize)],
    golden: Option<&Json>,
    (mut pace, setup_s): (Pace, Vec<OpTime>),
    mut report: Report,
) -> Report {
    let prots = protections();
    let deadline = opts.deadline();
    let mut passes = Vec::new();
    let mut first: Vec<Row> = Vec::new();
    let mut latencies = Sample::new(LATENCY_SAMPLES);
    // Whole sweeps until the time is up: a partial sweep would weight the
    // rates and latencies toward whichever rows it happened to reach.
    while passes.is_empty() || (Instant::now() < deadline && !opts.write_golden) {
        let first_seg = pace.segment();
        let mut pass = Pass::default();
        let mut ran = Vec::with_capacity(rows.len());
        for &(w, p) in rows {
            let row = run_plain(&set[w], prots[p].1, &mut pace);
            for _ in &row.ops {
                report.tally.record(None);
            }
            pass.instructions += row.instructions();
            pass.ops += row.ops.len() as u64;
            row.ops.iter().for_each(|&op| latencies.push(op));
            if !opts.write_golden {
                if let Some(why) = check_row(&row, &set[w], prots[p].0, golden) {
                    report.tally.fail(why);
                }
            }
            ran.push(row);
        }
        pace.close();
        pass.segs = first_seg..pace.segment();
        passes.push(pass);
        if first.is_empty() {
            first = ran;
        }
    }
    if opts.write_golden {
        let written = rows
            .iter()
            .zip(&first)
            .map(|(&(w, p), row)| row.golden(set[w].name(), prots[p].0))
            .collect();
        let mut doc = Json::obj();
        doc.set("rows", Json::Arr(written));
        if let Err(e) = std::fs::write(GOLDEN, doc.render()) {
            report.tally.fail(format!("cannot write {GOLDEN}: {e}"));
        }
    }

    // Fig. 14 figures from the first sweep.
    let per_workload: Vec<[u64; 3]> = first
        .chunks(3)
        .map(|c| [c[0].cycles(), c[1].cycles(), c[2].cycles()])
        .collect();
    let ratio =
        |k: usize| -> Vec<(u64, u64)> { per_workload.iter().map(|c| (c[k], c[0])).collect() };
    let default_g = 1.0 + stats::geomean_overhead_pct(&ratio(1)) / 100.0;
    let slow_pct = stats::geomean_overhead_pct(&ratio(2));
    match exhibit_geomeans() {
        Some((d, s))
            if d == format!("{default_g:.3}") && s == format!("{:.3}", 1.0 + slow_pct / 100.0) => {}
        Some((d, s)) => report.tally.fail(format!(
            "geomeans {default_g:.3}/{:.3} differ from {EXHIBIT} ({d}/{s})",
            1.0 + slow_pct / 100.0
        )),
        None => report
            .tally
            .fail(format!("{EXHIBIT} missing or without a geomean row")),
    }
    let sim_cycles: u64 = first.iter().map(Row::cycles).sum();
    report.end_to_end(&pace, &setup_s, &passes, &latencies, sim_cycles);
    report.extra(
        "shield_overhead_pct",
        slow_pct,
        "%",
        per_workload.len() as u64,
    );
    report.extra(
        "geomean_default",
        default_g,
        "ratio",
        per_workload.len() as u64,
    );
    report
}

fn run_traced_rows(
    opts: &Opts,
    set: &[Workload],
    rows: &[(usize, usize)],
    golden: Option<&Json>,
    setup_s: Vec<OpTime>,
    mut report: Report,
) -> Report {
    let prots = protections();
    let mut tracer = Tracer::new();
    let mut off = Pace::off();
    let (mut traced_wall, mut plain_wall) = (0.0, 0.0);
    let mut traced: Vec<Row> = Vec::new();
    let deadline = opts.deadline();
    // Whole workloads (all three protection rows), so the BCU's host cost
    // can be read as shield rows minus their baseline.
    for chunk in rows.chunks(3) {
        if Instant::now() >= deadline && !traced.is_empty() {
            break;
        }
        for &(w, p) in chunk {
            let plain = run_plain(&set[w], prots[p].1, &mut off);
            let row = run_traced(&set[w], prots[p].1, &mut tracer);
            plain_wall += plain.wall_s;
            traced_wall += row.wall_s;
            let same = plain.reports.len() == row.reports.len()
                && plain
                    .reports
                    .iter()
                    .zip(&row.reports)
                    .all(|(a, b)| report_key(a) == report_key(b))
                && plain.bcu == row.bcu;
            for _ in &row.reports {
                report.tally.record(None);
            }
            if !same {
                report.tally.fail(format!(
                    "{}/{}: traced reports differ from System::launch",
                    set[w].name(),
                    prots[p].0
                ));
            }
            if let Some(why) = check_row(&row, &set[w], prots[p].0, golden) {
                report.tally.fail(why);
            }
            traced.push(row);
        }
    }

    let fixed_us = engine_fixed_cost_us(&config(Target::Nvidia, Protection::shield_default()));
    report.layer_times(&mut tracer, traced_wall, plain_wall, fixed_us);
    let mut agg = SimAgg::default();
    traced
        .iter()
        .flat_map(|r| &r.reports)
        .for_each(|r| agg.add(r));
    report.sim_metrics(&mut tracer, &agg);

    // Shield rows only: the baseline rows bypass the BCU, so the BCU's host
    // cost is what the shield rows' engine time adds over their baseline.
    let mut bcu = BcuStats::default();
    let mut bcu_host_s = 0.0;
    let mut shield_launches = 0u64;
    for c in traced.chunks(3) {
        for r in &c[1..] {
            add_bcu(&mut bcu, &r.bcu);
            shield_launches += r.reports.len() as u64;
        }
        bcu_host_s += (c[1].sim_run_s + c[2].sim_run_s) / 2.0 - c[0].sim_run_s;
    }
    report.core_metrics(&bcu, shield_launches);
    report.metric(
        "core.bcu_host_s",
        bcu_host_s,
        "s",
        (traced.len() / 3) as u64,
    );
    let rbt_allocs = traced.iter().map(|r| r.rbt_allocs).sum();
    report.per_launch(
        "driver.rbt_allocs",
        rbt_allocs,
        agg.launches,
        "count/launch",
    );
    let setup_s: Vec<f64> = setup_s.iter().map(|&(s, _)| s).collect();
    report.metric(
        "workloads.build_s",
        stats::median(&setup_s).unwrap_or(0.0),
        "s",
        setup_s.len() as u64,
    );
    report.tracer = Some(tracer);
    report
}
