//! Allocation profile of the simulator hot path.
//!
//! The workspace crates all `forbid(unsafe_code)`; the root integration
//! tests are the one place a counting `#[global_allocator]` can live. The
//! steady-state simulation loop (scheduling, ALU issue, the LSU/BCU
//! pipeline, address translation) is designed to be allocation-free:
//! decoded kernels are interned behind `Arc` and issued as `Copy`
//! instructions, the page table is a flat radix tree, and per-access lane
//! buffers live in per-core reusable scratch. What still allocates is
//! per-workgroup state (register files, shared memory) at dispatch — a
//! bounded, per-kilocycle-small amount this test pins.
//!
//! The counter is per thread: libtest runs these tests concurrently, and a
//! process-wide count would charge each test with the others'
//! allocations. Every measured run uses `sim_threads = 1`, which runs the
//! engine inline on the test's own thread, so nothing it allocates escapes
//! the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    // Const-initialised and drop-free: reading it never allocates.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations made so far by the calling thread.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

#[test]
fn hot_path_allocations_per_kilocycle_stay_bounded() {
    use gpushield_bench::runner::{run_workload, Protection, Target};
    use gpushield_workloads::by_name;

    // The longest-running registry workload (~300k cycles), so per-run
    // setup (host, caches, buffers) amortises away and the measurement
    // reflects the steady-state loop.
    let w = by_name("streamcluster").expect("streamcluster registered");
    // The engine must run inline for the per-thread count to see it.
    assert_eq!(gpushield_bench::runner::sim_threads(), 1);

    // Warm-up run: one-time lazies (workload construction, registry
    // strings) don't count against the steady state.
    let warm = run_workload(&w, Target::Nvidia, Protection::shield_lat(1, 3));
    assert!(warm.cycles > 0);

    let before = allocs();
    let r = run_workload(&w, Target::Nvidia, Protection::shield_lat(1, 3));
    let during = allocs() - before;

    let per_kilocycle = during as f64 * 1000.0 / r.cycles as f64;
    // Pre-rewrite this was dominated by per-instruction clones and
    // per-access lane vectors (thousands per kilocycle). Post-rewrite the
    // remaining ~110/kilocycle are per-launch setup and per-workgroup
    // dispatch (register files, SIMT stacks) across streamcluster's 150
    // small launches; a reintroduced per-access allocation lands at
    // 1000+/kilocycle, far above this bound.
    assert!(
        per_kilocycle < 150.0,
        "hot path regressed to {per_kilocycle:.1} allocations per kilocycle \
         ({during} allocations over {} cycles)",
        r.cycles
    );
}

/// The telemetry disabled path costs nothing: running through the
/// instrumented entry point with a [`Registry::disabled`] registry must
/// satisfy the same allocation bound as the plain hot-path run above —
/// registration returns `MetricId::NONE` without allocating and every
/// recording hook degenerates to one early-returning branch.
#[test]
fn disabled_telemetry_keeps_the_hot_path_allocation_free() {
    use gpushield::Registry;
    use gpushield_bench::adapter::SystemHost;
    use gpushield_bench::runner::{config, Protection, Target};
    use gpushield_workloads::by_name;

    let w = by_name("streamcluster").expect("streamcluster registered");
    assert_eq!(gpushield_bench::runner::sim_threads(), 1);
    let run = || {
        let mut host = SystemHost::new(config(Target::Nvidia, Protection::shield_lat(1, 3)));
        host.attach_registry(Registry::disabled());
        w.run(&mut host);
        host
    };

    // Warm-up run, as in the plain-path test.
    let warm = run();
    assert!(warm.total_cycles() > 0);

    let before = allocs();
    let mut host = run();
    let during = allocs() - before;

    let reg = host.take_registry().expect("registry attached");
    assert!(!reg.enabled());
    assert!(reg.is_empty(), "a disabled registry must register nothing");

    let cycles = host.total_cycles();
    let per_kilocycle = during as f64 * 1000.0 / cycles as f64;
    assert!(
        per_kilocycle < 150.0,
        "disabled-telemetry path regressed to {per_kilocycle:.1} allocations \
         per kilocycle ({during} allocations over {cycles} cycles)"
    );
}

/// Publishing into a disabled registry builds no label strings: the
/// `driver.*`, `driver.tenant.*`, and `driver.audit.*` surfaces all pass
/// their labels as lazy closures, so the disabled early-return fires
/// before any `format!` runs. Zero allocations, not just "few".
#[test]
fn disabled_registry_publish_builds_no_label_strings() {
    use gpushield::Registry;
    use gpushield_driver::{Driver, DriverConfig, TenantId, TenantTable};

    let driver = Driver::new(DriverConfig::default(), 7);
    let mut table = TenantTable::new(2);
    let _ = table.record_launch(TenantId(0), 1);
    let _ = table.note_probe(TenantId(1), true);

    let mut reg = Registry::disabled();
    // Warm-up: nothing to warm, but keep symmetry with the other tests.
    driver.publish_telemetry(&mut reg);
    table.publish_telemetry(&mut reg);

    let before = allocs();
    driver.publish_telemetry(&mut reg);
    table.publish_telemetry(&mut reg);
    table.audit().publish(&mut reg);
    let during = allocs() - before;

    assert!(reg.is_empty(), "a disabled registry must register nothing");
    assert_eq!(
        during, 0,
        "disabled-registry publish allocated {during} times: a label \
         string is being formatted eagerly"
    );
}
