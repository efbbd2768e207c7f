//! Execution tracing: watch a kernel's dispatch, memory traffic, barriers,
//! and retirement cycle by cycle through the flight recorder's scheduling
//! events — and see exactly where a bounds violation fired.
//!
//! ```text
//! cargo run --release --example trace_debug
//! ```

use gpushield::{schedule, Arg, FlightEvent, FlightRecorder, Registry, System, SystemConfig};
use gpushield_isa::{KernelBuilder, MemSpace, MemWidth, Operand};
use std::error::Error;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn Error>> {
    // A two-phase kernel: stage values in shared memory, synchronize,
    // then write reversed within the workgroup.
    let mut b = KernelBuilder::new("reverse");
    let out = b.param_buffer("out", false);
    b.shared_mem(64 * 4);
    let tid = b.mov(b.thread_id());
    let soff = b.shl(tid, Operand::Imm(2));
    b.st(MemSpace::Shared, MemWidth::W4, b.flat(soff), tid);
    b.bar();
    let mate = b.sub(Operand::Imm(63), tid);
    let moff = b.shl(mate, Operand::Imm(2));
    let v = b.ld(MemSpace::Shared, MemWidth::W4, b.flat(moff));
    let g = b.global_thread_id();
    let goff = b.shl(g, Operand::Imm(2));
    b.st(MemSpace::Global, MemWidth::W4, b.base_offset(out, goff), v);
    b.ret();
    let kernel = Arc::new(b.finish()?);

    let mut sys = System::new(SystemConfig::nvidia_protected());
    let buf = sys.alloc(128 * 4)?;
    let mut flight = FlightRecorder::with_schedule(4096);
    let mut reg = Registry::disabled();
    let args = [Arg::Buffer(buf)];
    let report = sys.launch_instrumented(kernel, 2, 64, &args, &mut reg, Some(&mut flight))?;
    assert!(report.completed());
    assert_eq!(
        sys.read_uint(buf, 0, 4),
        63,
        "reversed within the workgroup"
    );

    println!("== first 20 events ==");
    let log = schedule::render(&flight);
    for line in log.lines().take(20) {
        println!("{line}");
    }
    let count = |f: fn(&FlightEvent) -> bool| flight.iter().filter(|r| f(&r.ev)).count();
    let barriers = count(|e| matches!(e, FlightEvent::BarrierArrive { .. }));
    let mems = count(|e| matches!(e, FlightEvent::MemIssue { .. }));
    println!(
        "\n{} events total: {barriers} barrier arrivals, {mems} memory instructions",
        log.lines().count()
    );

    // Now trace an out-of-bounds kernel and find the abort.
    let mut bad = KernelBuilder::new("oob");
    let p = bad.param_buffer("p", false);
    bad.st(
        MemSpace::Global,
        MemWidth::W4,
        bad.base_offset(p, Operand::Imm(1 << 20)),
        Operand::Imm(1),
    );
    bad.ret();
    let bad = Arc::new(bad.finish()?);
    let small = sys.alloc(64)?;
    let mut flight = FlightRecorder::with_schedule(256);
    let args = [Arg::Buffer(small)];
    let report = sys.launch_instrumented(bad, 1, 1, &args, &mut reg, Some(&mut flight))?;
    assert!(!report.completed());
    println!("\n== violating launch ==");
    print!("{}", schedule::render(&flight));
    println!("\n{}", sys.error_report());
    Ok(())
}
