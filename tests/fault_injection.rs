//! Fault-injection integration tests: the deterministic corruption harness
//! must produce byte-identical outcomes regardless of worker count, the
//! watchdog and heap-deadlock detectors must convert injected livelocks
//! into structured errors, and an empty plan must be indistinguishable
//! from a plain launch.

use gpushield::{
    Arg, DriverConfig, DriverError, FaultKind, FaultPlan, FaultSession, FaultTargets, FlightEvent,
    FlightRecorder, Gpu, GpuConfig, KernelLaunch, MultiKernelMode, Registry, RunError, RunHooks,
    RunReport, System, SystemConfig, SystemError, TenantTable,
};
use gpushield_isa::{CmpOp, Kernel, KernelBuilder, MemSpace, MemWidth, Operand, TaggedPtr};
use gpushield_mem::{AllocPolicy, VirtualMemorySpace};
use gpushield_runtime::pool;
use gpushield_sim::LaunchConfig;
use std::sync::Arc;

fn shielded_config() -> SystemConfig {
    let mut cfg = SystemConfig::nvidia_protected();
    cfg.driver = DriverConfig {
        enable_static_analysis: false,
        ..cfg.driver
    };
    cfg
}

/// `out[tid] = tid` — the benign store workload.
fn store_kernel() -> Arc<Kernel> {
    let mut b = KernelBuilder::new("fi_store");
    let out = b.param_buffer("out", false);
    let tid = b.global_thread_id();
    let off = b.shl(tid, Operand::Imm(2));
    b.st(MemSpace::Global, MemWidth::W4, b.base_offset(out, off), tid);
    b.ret();
    Arc::new(b.finish().unwrap())
}

/// Spins while `flag[0] == 0`; with the flag left at zero this never
/// terminates on its own.
fn spin_kernel() -> Arc<Kernel> {
    let mut b = KernelBuilder::new("fi_spin");
    let flag = b.param_buffer("flag", false);
    b.while_loop(
        |b| {
            let v = b.ld(
                MemSpace::Global,
                MemWidth::W4,
                b.base_offset(flag, Operand::Imm(0)),
            );
            Operand::Reg(b.cmp(CmpOp::Eq, v, Operand::Imm(0)))
        },
        |_| {},
    );
    b.ret();
    Arc::new(b.finish().unwrap())
}

/// One full injected run, summarised as a comparable string: the launch
/// outcome, the violation log, the injection log, and the output bytes.
fn injected_run_fingerprint(seed: u64) -> String {
    let mut sys = System::new(shielded_config());
    let buf = sys.alloc(128 * 4).expect("alloc");
    let plan = FaultPlan::generate(seed, &FaultKind::ALL, 3, 4);
    let outcome = sys.launch_with_faults(store_kernel(), 4, 32, &[Arg::Buffer(buf)], plan);
    let mut out = String::new();
    match outcome {
        Ok((report, injected)) => {
            out.push_str(&format!(
                "completed={} cycles={} injected={:?}\n",
                report.completed(),
                report.cycles,
                injected
            ));
        }
        Err(e) => out.push_str(&format!("error={e}\n")),
    }
    out.push_str(&format!("violations={:?}\n", sys.violations()));
    for i in 0..128 {
        out.push_str(&format!("{:x} ", sys.read_uint(buf, i * 4, 4)));
    }
    out
}

#[test]
fn same_seed_and_plan_give_identical_outcomes() {
    let a = injected_run_fingerprint(7);
    for _ in 0..3 {
        assert_eq!(a, injected_run_fingerprint(7));
    }
    assert_ne!(
        injected_run_fingerprint(7),
        injected_run_fingerprint(8),
        "different seeds should perturb different accesses"
    );
}

#[test]
fn outcomes_are_identical_across_worker_counts() {
    let seeds: Vec<u64> = (0..12).collect();
    let run = |workers: usize| -> Vec<String> {
        let tasks: Vec<_> = seeds
            .iter()
            .map(|&s| move || injected_run_fingerprint(s))
            .collect();
        pool::run_all(tasks, workers)
    };
    assert_eq!(run(1), run(8), "fan-out must not change any trial");
}

#[test]
fn watchdog_converts_livelock_into_cycle_budget_error() {
    let mut cfg = shielded_config();
    cfg.gpu = GpuConfig {
        max_cycles: 5_000,
        ..cfg.gpu
    };
    let mut sys = System::new(cfg);
    let flag = sys.alloc(64).expect("alloc");
    // flag[0] stays 0: the spin never exits without the watchdog.
    let err = sys
        .launch(spin_kernel(), 1, 32, &[Arg::Buffer(flag)])
        .expect_err("watchdog must fire");
    match err {
        SystemError::Run(RunError::CycleBudgetExceeded { cycle, budget }) => {
            assert_eq!(budget, 5_000);
            assert!(cycle >= budget, "terminated at cycle {cycle}");
        }
        other => panic!("expected CycleBudgetExceeded, got {other:?}"),
    }
}

#[test]
fn blocking_malloc_exhaustion_is_reported_as_heap_deadlock() {
    let mut cfg = shielded_config();
    cfg.gpu = GpuConfig {
        malloc_blocks_on_exhaustion: true,
        ..cfg.gpu
    };
    let mut sys = System::new(cfg);
    sys.set_heap_limit(256).unwrap();
    let mut b = KernelBuilder::new("fi_malloc");
    b.malloc(Operand::Imm(1024));
    b.ret();
    let kernel = Arc::new(b.finish().unwrap());
    let err = sys
        .launch(kernel, 1, 32, &[])
        .expect_err("exhausted blocking malloc must deadlock");
    assert!(
        matches!(err, SystemError::Run(RunError::HeapDeadlock { .. })),
        "expected HeapDeadlock, got {err:?}"
    );
}

#[test]
fn empty_plan_matches_a_plain_launch() {
    let run_plain = |with_faults: bool| -> (bool, u64, Vec<u64>) {
        let mut sys = System::new(shielded_config());
        let buf = sys.alloc(128 * 4).expect("alloc");
        let report = if with_faults {
            let (r, injected) = sys
                .launch_with_faults(
                    store_kernel(),
                    4,
                    32,
                    &[Arg::Buffer(buf)],
                    FaultPlan::empty(),
                )
                .expect("launch");
            assert!(injected.is_empty());
            r
        } else {
            sys.launch(store_kernel(), 4, 32, &[Arg::Buffer(buf)])
                .expect("launch")
        };
        let words = (0..128).map(|i| sys.read_uint(buf, i * 4, 4)).collect();
        (report.completed(), report.cycles, words)
    };
    assert_eq!(run_plain(false), run_plain(true));

    // One layer down: `Gpu::run_with` given an empty session returns
    // exactly the report of a plain `Gpu::run`.
    let gpu_run = |session: Option<&mut FaultSession>| {
        let mut vm = VirtualMemorySpace::new();
        let launch = raw_store_launch(&mut vm);
        let mut gpu = Gpu::new(GpuConfig::test_tiny());
        let report = match session {
            Some(s) => {
                let hooks = RunHooks {
                    faults: Some(s),
                    ..RunHooks::default()
                };
                gpu.run_with(&mut vm, &[launch], None, hooks)
            }
            None => gpu.run(&mut vm, &[launch], None),
        };
        format!("{:?}", report.expect("run"))
    };
    let mut empty = FaultSession::new(FaultPlan::empty(), FaultTargets::default());
    assert_eq!(gpu_run(None), gpu_run(Some(&mut empty)));
}

/// `store_kernel` over a fresh unprotected buffer, launched on a raw GPU.
fn raw_store_launch(vm: &mut VirtualMemorySpace) -> KernelLaunch {
    let buf = vm.alloc(128 * 4, AllocPolicy::Device512).expect("alloc");
    KernelLaunch::new(store_kernel(), LaunchConfig::new(4, 32))
        .arg(TaggedPtr::unprotected(buf.va).raw())
}

/// Runs the raw store launch under `hooks`, plus a fault session of
/// `faults` harmless (guard-less) site-check falsifications when given.
fn routed_run(faults: Option<usize>, hooks: RunHooks<'_>) -> Result<RunReport, RunError> {
    let mut vm = VirtualMemorySpace::new();
    let launch = raw_store_launch(&mut vm);
    let mut session = faults.map(|n| {
        let plan = FaultPlan::generate(11, &[FaultKind::SiteCheckFalsify], n, 64);
        FaultSession::new(plan, FaultTargets::default())
    });
    let hooks = RunHooks {
        faults: session.as_mut(),
        ..hooks
    };
    Gpu::new(GpuConfig::test_tiny()).run_with(&mut vm, &[launch], None, hooks)
}

/// Which engine `Gpu::run_with` takes for each hook combination. A
/// recorder that keeps the scheduling kinds tells the two apart: the
/// cycle-quantum engine fills it, the reference engine (fault injection,
/// range recording) refuses it with a typed error. Both honour a plain
/// flight recorder.
#[test]
fn run_with_routes_each_hook_combination_to_one_engine() {
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Engine {
        Quantum,
        Reference,
    }
    use Engine::{Quantum, Reference};
    // (faults in the session, record ranges, expected engine)
    let table = [
        (None, false, Quantum),
        (Some(0), false, Quantum),
        (Some(3), false, Reference),
        (None, true, Reference),
        (Some(3), true, Reference),
    ];
    for (faults, record_ranges, expect) in table {
        let row = format!("faults={faults:?} record_ranges={record_ranges}");
        let mut probe_rec = FlightRecorder::with_schedule(1 << 12);
        let probe = RunHooks {
            flight: Some(&mut probe_rec),
            record_ranges,
            ..RunHooks::default()
        };
        let retire = |e: &FlightEvent| matches!(e, FlightEvent::WarpRetire { .. });
        let engine = match routed_run(faults, probe) {
            Ok(_) if probe_rec.iter().any(|r| retire(&r.ev)) => Quantum,
            Err(RunError::UnsupportedHook { hook: "schedule" }) => Reference,
            other => panic!("{row}: schedule probe gave {other:?}"),
        };
        assert_eq!(engine, expect, "{row}");

        let mut flight = FlightRecorder::full();
        let hooks = RunHooks {
            flight: Some(&mut flight),
            record_ranges,
            ..RunHooks::default()
        };
        let report = routed_run(faults, hooks).expect("unprobed run");
        assert!(report.completed(), "{row}");
        let complete = |e: &FlightEvent| matches!(e, FlightEvent::KernelComplete { .. });
        assert!(flight.iter().any(|r| complete(&r.ev)), "{row}: flight");
        assert!(
            !flight.iter().any(|r| r.ev.is_schedule()),
            "{row}: schedule"
        );
        let ranges = &report.launches[0].observed_ranges;
        assert_eq!(!ranges.is_empty(), record_ranges, "{row}");
        assert!(ranges.windows(2).all(|w| w[0].site < w[1].site), "{row}");

        if engine == Reference {
            let mut reg = Registry::new();
            let registry = RunHooks {
                registry: Some(&mut reg),
                record_ranges,
                ..RunHooks::default()
            };
            let intercore = RunHooks {
                mode: MultiKernelMode::InterCore,
                record_ranges,
                ..RunHooks::default()
            };
            for (hooks, hook) in [(registry, "registry"), (intercore, "InterCore mode")] {
                let err = routed_run(faults, hooks).expect_err(&row);
                assert_eq!(err, RunError::UnsupportedHook { hook }, "{row}");
            }
            // A disabled registry records nothing, so the reference
            // engine serves it.
            let mut off = Registry::disabled();
            let disabled = RunHooks {
                registry: Some(&mut off),
                record_ranges,
                ..RunHooks::default()
            };
            assert!(routed_run(faults, disabled).is_ok(), "{row}");
        }
    }
}

#[test]
fn empty_batch_is_a_structured_error_in_gpu_run() {
    let mut vm = VirtualMemorySpace::new();
    let mut gpu = Gpu::new(GpuConfig::test_tiny());
    let err = gpu.run(&mut vm, &[], None).unwrap_err();
    assert_eq!(err, RunError::NoLaunches);
}

#[test]
fn empty_batch_is_a_structured_error_in_gpu_run_observed() {
    let mut vm = VirtualMemorySpace::new();
    let mut gpu = Gpu::new(GpuConfig::test_tiny());
    let mut flight = FlightRecorder::full();
    let err = gpu.run_observed(&mut vm, &[], None, &mut flight);
    assert_eq!(err.unwrap_err(), RunError::NoLaunches);
    assert!(flight.is_empty());
}

#[test]
fn empty_batch_is_a_structured_error_in_gpu_run_recorded() {
    let mut vm = VirtualMemorySpace::new();
    let mut gpu = Gpu::new(GpuConfig::test_tiny());
    let err = gpu.run_recorded(&mut vm, &[], None).unwrap_err();
    assert_eq!(err, RunError::NoLaunches);
}

#[test]
fn empty_batch_is_a_structured_error_in_gpu_run_with() {
    let mut vm = VirtualMemorySpace::new();
    let mut gpu = Gpu::new(GpuConfig::test_tiny());
    let mut session = FaultSession::new(FaultPlan::empty(), FaultTargets::default());
    let hooks = RunHooks {
        faults: Some(&mut session),
        ..RunHooks::default()
    };
    let err = gpu.run_with(&mut vm, &[], None, hooks).unwrap_err();
    assert_eq!(err, RunError::NoLaunches);
}

#[test]
fn empty_batch_is_a_structured_error_in_launch_concurrent() {
    let mut sys = System::new(shielded_config());
    let err = sys.launch_concurrent(vec![], MultiKernelMode::InterCore);
    assert_eq!(err.unwrap_err(), SystemError::Run(RunError::NoLaunches));
}

#[test]
fn empty_batch_is_a_structured_error_in_launch_tenant_concurrent() {
    let mut sys = System::new(shielded_config());
    let mut tenants = TenantTable::new(2);
    let err = sys.launch_tenant_concurrent(&mut tenants, vec![], MultiKernelMode::IntraCore);
    assert_eq!(err.unwrap_err(), SystemError::Run(RunError::NoLaunches));
}

#[test]
fn degenerate_launch_geometry_is_a_structured_error() {
    let mut sys = System::new(shielded_config());
    for (grid, block) in [(0, 32), (4, 0), (0, 0)] {
        let err = sys
            .launch(store_kernel(), grid, block, &[])
            .expect_err("degenerate geometry must be rejected");
        match err {
            SystemError::Driver(DriverError::DegenerateLaunch { grid: g, block: b }) => {
                assert_eq!((g, b), (grid, block));
            }
            other => panic!("expected DegenerateLaunch, got {other:?}"),
        }
        assert!(err.to_string().contains("degenerate launch geometry"));
    }
}
