//! Simulator-core throughput harness: how many simulated warp instructions
//! per wall-clock second the hot path sustains on the Fig. 14 workload set.
//!
//! ```text
//! throughput                                # full fig14 sweep, print summary
//! throughput --out BENCH_simcore.json       # also write the JSON document
//! throughput --baseline pre.json            # embed a prior run + speedup
//! throughput --smoke                        # quick single-workload measure
//! throughput --smoke --check BENCH_simcore.json   # CI gate: fail if the
//!                                           # smoke rate regressed >30%
//! --tolerance 0.30                          # override the gate threshold
//! throughput --sim-threads 4 --out BENCH_parcore.json   # cycle-quantum
//!                                           # engine sharded over 4 workers
//! ```
//!
//! A full run (anything but `--smoke`/`--check`) measures both sweeps
//! [`REPS`] times, interleaved, and reports the median repetition of each,
//! with every repetition's rate and the host's facts (CPU model, load
//! average before and after; the CPU count is `host_parallelism`)
//! alongside.
//!
//! At `--sim-threads 1` (the default) the quantity tracked is the
//! sequential simulation rate of the cycle-quantum engine (committed as
//! `BENCH_simcore.json`); at higher counts it is the parallel-engine
//! throughput with the simulated GPU's cores sharded across worker
//! threads (committed as `BENCH_parcore.json` at 4). Simulated results
//! are byte-identical either way. Wall-clock numbers are
//! machine-dependent; the committed documents record the container that
//! produced them via the config fingerprint, and the CI gates use
//! generous tolerances so only real regressions trip them.

use gpushield_bench::runner::{config_fingerprint, run_workload, Protection, Target};
use gpushield_runtime::report::Json;
use gpushield_sim::SimProfile;
use gpushield_workloads::{by_name, cuda_set, Workload};
use std::process::ExitCode;
use std::time::Instant;

/// Repetitions of a full run; the document reports the median one.
const REPS: usize = 3;

/// The three protection points Fig. 14 sweeps per workload.
fn protections() -> [(&'static str, Protection); 3] {
    [
        ("baseline", Protection::baseline()),
        ("shield-l1:1-l2:3", Protection::shield_lat(1, 3)),
        ("shield-l1:2-l2:5", Protection::shield_lat(2, 5)),
    ]
}

/// One measured sweep: total simulated instructions/cycles and wall time.
struct Measure {
    instructions: u64,
    sim_cycles: u64,
    wall_seconds: f64,
    profile: SimProfile,
}

impl Measure {
    fn instrs_per_sec(&self) -> f64 {
        if self.wall_seconds <= 0.0 {
            0.0
        } else {
            self.instructions as f64 / self.wall_seconds
        }
    }
}

fn sweep(workloads: &[Workload]) -> Measure {
    let start = Instant::now();
    let mut instructions = 0u64;
    let mut sim_cycles = 0u64;
    let mut profile = SimProfile::default();
    for w in workloads {
        for (_, prot) in protections() {
            let r = run_workload(w, Target::Nvidia, prot);
            instructions += r.instructions;
            sim_cycles += r.cycles;
            profile.merge(&r.profile);
        }
    }
    Measure {
        instructions,
        sim_cycles,
        wall_seconds: start.elapsed().as_secs_f64(),
        profile,
    }
}

/// The smoke workload: small, allocation-and-check heavy enough to exercise
/// the whole LSU/BCU path, fast enough for CI.
fn smoke_sweep() -> Measure {
    let w = by_name("vectoradd").expect("vectoradd registered");
    // Repeat to get a wall time long enough to be stable on CI machines.
    let start = Instant::now();
    let mut instructions = 0u64;
    let mut sim_cycles = 0u64;
    let mut profile = SimProfile::default();
    for _ in 0..20 {
        for (_, prot) in protections() {
            let r = run_workload(&w, Target::Nvidia, prot);
            instructions += r.instructions;
            sim_cycles += r.cycles;
            profile.merge(&r.profile);
        }
    }
    Measure {
        instructions,
        sim_cycles,
        wall_seconds: start.elapsed().as_secs_f64(),
        profile,
    }
}

/// The median-rate repetition, plus every repetition's rate in run order.
fn median(mut reps: Vec<Measure>) -> (Measure, Vec<f64>) {
    let rates = reps.iter().map(Measure::instrs_per_sec).collect();
    reps.sort_by(|a, b| a.instrs_per_sec().total_cmp(&b.instrs_per_sec()));
    let mid = reps.swap_remove(reps.len() / 2);
    (mid, rates)
}

/// The 1-minute load average, when the host exposes one.
fn loadavg() -> Json {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .map_or(Json::Null, Json::Float)
}

/// The CPU model, one of the host facts beside a wall-clock rate.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split_once(':')?.1.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn measure_json(m: &Measure) -> Json {
    let mut doc = Json::obj();
    doc.set("instructions", Json::UInt(m.instructions));
    doc.set("sim_cycles", Json::UInt(m.sim_cycles));
    doc.set("wall_seconds", Json::Float(m.wall_seconds));
    doc.set("instrs_per_sec", Json::Float(m.instrs_per_sec()));
    doc.set("profile", profile_json(&m.profile));
    doc
}

/// The profile section comes from the telemetry registry — the same
/// publish path the `experiments` binary and the instrumented simulator
/// use — so every consumer sees one metric namespace (`sim.profile.*`).
fn profile_json(p: &SimProfile) -> Json {
    let mut reg = gpushield_telemetry::Registry::new();
    p.publish(&mut reg);
    Json::parse(&reg.render_json()).expect("registry renders valid JSON")
}

fn print_measure(label: &str, m: &Measure) {
    eprintln!(
        "{label}: {} instrs, {} sim-cycles, {:.2}s wall, {:.0} instrs/sec",
        m.instructions,
        m.sim_cycles,
        m.wall_seconds,
        m.instrs_per_sec()
    );
    let p = &m.profile;
    eprintln!(
        "  phases: alu {} | mem {} (shared {}) | bar {} | malloc {} | txs {} | checks {} (stall {}) | dram {} | idle-skips {}",
        p.alu_issues,
        p.mem_issues,
        p.shared_issues,
        p.barrier_issues,
        p.malloc_issues,
        p.lsu_transactions,
        p.bcu_checks,
        p.bcu_stall_cycles,
        p.dram_accesses,
        p.idle_skips
    );
}

fn main() -> ExitCode {
    let mut out: Option<String> = None;
    let mut baseline: Option<String> = None;
    let mut check: Option<String> = None;
    let mut smoke = false;
    let mut tolerance = 0.30f64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out = args.next(),
            "--baseline" => baseline = args.next(),
            "--check" => check = args.next(),
            "--smoke" => smoke = true,
            "--sim-threads" => match args.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n >= 1 => gpushield_bench::runner::set_sim_threads(n),
                _ => {
                    eprintln!("--sim-threads needs a positive integer");
                    return ExitCode::FAILURE;
                }
            },
            "--tolerance" => match args.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(t) if (0.0..1.0).contains(&t) => tolerance = t,
                _ => {
                    eprintln!("--tolerance needs a fraction in [0, 1)");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("unknown argument {other}");
                return ExitCode::FAILURE;
            }
        }
    }

    // CI gate: compare the smoke rate against the committed document.
    if let Some(path) = check {
        let smoke_m = smoke_sweep();
        print_measure("smoke (vectoradd x3 prot x20)", &smoke_m);
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let doc = match Json::parse(&text) {
            Ok(d) => d,
            Err(e) => {
                eprintln!("cannot parse {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let reference = doc
            .get("smoke")
            .and_then(|s| s.get("instrs_per_sec"))
            .and_then(Json::as_f64);
        let Some(reference) = reference else {
            eprintln!("{path} carries no smoke.instrs_per_sec");
            return ExitCode::FAILURE;
        };
        let floor = reference * (1.0 - tolerance);
        let rate = smoke_m.instrs_per_sec();
        if rate < floor {
            eprintln!(
                "THROUGHPUT REGRESSION: {rate:.0} instrs/sec < floor {floor:.0} \
                 ({reference:.0} reference, {:.0}% tolerance)",
                tolerance * 100.0
            );
            return ExitCode::FAILURE;
        }
        eprintln!("throughput gate OK: {rate:.0} >= floor {floor:.0} instrs/sec");
        return ExitCode::SUCCESS;
    }
    if smoke {
        print_measure("smoke (vectoradd x3 prot x20)", &smoke_sweep());
        return ExitCode::SUCCESS;
    }

    let mut host = Json::obj();
    host.set("cpu", Json::Str(cpu_model()));
    host.set("loadavg_before", loadavg());
    let (mut smokes, mut fulls) = (Vec::new(), Vec::new());
    for _ in 0..REPS {
        smokes.push(smoke_sweep());
        print_measure("smoke (vectoradd x3 prot x20)", &smokes[smokes.len() - 1]);
        fulls.push(sweep(&cuda_set()));
        print_measure("fig14 set (cuda_set x3 prot)", &fulls[fulls.len() - 1]);
    }
    host.set("loadavg_after", loadavg());
    let ((smoke_m, smoke_rates), (full, full_rates)) = (median(smokes), median(fulls));
    eprintln!(
        "median of {REPS}: smoke {:.0}, fig14 set {:.0} instrs/sec",
        smoke_m.instrs_per_sec(),
        full.instrs_per_sec()
    );

    let mut doc = Json::obj();
    let st = gpushield_bench::runner::sim_threads();
    doc.set(
        "bench",
        Json::Str(
            if st > 1 {
                "parcore-throughput"
            } else {
                "simcore-throughput"
            }
            .to_string(),
        ),
    );
    doc.set(
        "workload_set",
        Json::Str(format!(
            "fig14: cuda_set x {{baseline, shield(1,3), shield(2,5)}}, sim_threads={st}"
        )),
    );
    doc.set("sim_threads", Json::UInt(st as u64));
    // Wall-clock rates only mean something relative to the machine that
    // produced them; the CI speedup gate compares parcore vs simcore only
    // when the producer actually had the cores to run the workers on.
    doc.set(
        "host_parallelism",
        Json::UInt(gpushield_runtime::pool::available_parallelism() as u64),
    );
    doc.set("config_fingerprint", Json::Str(config_fingerprint()));
    doc.set("host", host);
    let rep_rates = |rates: Vec<f64>| Json::Arr(rates.into_iter().map(Json::Float).collect());
    doc.set("full", {
        let mut f = measure_json(&full);
        f.set("rep_instrs_per_sec", rep_rates(full_rates));
        f
    });
    doc.set("smoke", {
        let mut s = measure_json(&smoke_m);
        s.set("rep_instrs_per_sec", rep_rates(smoke_rates));
        s.set("workload", Json::Str("vectoradd x3 prot x20".to_string()));
        s
    });
    if let Some(path) = baseline {
        match std::fs::read_to_string(&path).map_err(|e| e.to_string()) {
            Ok(text) => match Json::parse(&text) {
                Ok(prior) => {
                    let prior_rate = prior
                        .get("full")
                        .and_then(|f| f.get("instrs_per_sec"))
                        .and_then(Json::as_f64);
                    if let Some(prior_rate) = prior_rate {
                        let speedup = full.instrs_per_sec() / prior_rate.max(1e-9);
                        eprintln!("speedup vs baseline: {speedup:.2}x");
                        doc.set("speedup_vs_baseline", Json::Float(speedup));
                    }
                    doc.set("baseline", prior);
                }
                Err(e) => {
                    eprintln!("cannot parse baseline {path}: {e}");
                    return ExitCode::FAILURE;
                }
            },
            Err(e) => {
                eprintln!("cannot read baseline {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(path) = out {
        if let Err(e) = std::fs::write(&path, doc.render()) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {path}");
    }
    ExitCode::SUCCESS
}
