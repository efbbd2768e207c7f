//! Chrome trace-event format export: the JSON the `profile --trace` path
//! writes must be valid JSON carrying the viewer's required keys (`ph`,
//! `ts`, `pid`, `tid`, `name`) on every event.

use gpushield::{schedule, Arg, FlightEvent, FlightRecorder, Registry, System, SystemConfig};
use gpushield_isa::{KernelBuilder, MemSpace, MemWidth, Operand};
use gpushield_runtime::report::Json;
use std::sync::Arc;

fn iota() -> Arc<gpushield_isa::Kernel> {
    let mut b = KernelBuilder::new("iota");
    let out = b.param_buffer("out", false);
    let tid = b.global_thread_id();
    let off = b.shl(tid, Operand::Imm(2));
    b.st(MemSpace::Global, MemWidth::W4, b.base_offset(out, off), tid);
    b.ret();
    Arc::new(b.finish().expect("valid kernel"))
}

#[test]
fn chrome_export_carries_required_keys_on_every_event() {
    let mut sys = System::new(SystemConfig::nvidia_protected());
    let buf = sys.alloc(256 * 4).expect("alloc");
    let mut reg = Registry::new();
    let mut flight = FlightRecorder::with_schedule(4096);
    let report = sys
        .launch_instrumented(
            iota(),
            8,
            32,
            &[Arg::Buffer(buf)],
            &mut reg,
            Some(&mut flight),
        )
        .expect("launch");
    assert!(report.completed());
    assert!(!flight.is_empty(), "the run produced events");

    let mut chrome = schedule::to_chrome(&flight);
    chrome.push_span("launch 0", "launch", 0, report.cycles, u32::MAX, 0);
    let rendered = chrome.render();

    let doc = Json::parse(&rendered).expect("chrome trace is valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    assert_eq!(events.len(), chrome.len());
    assert!(!events.is_empty());
    for (i, e) in events.iter().enumerate() {
        for key in ["ph", "ts", "pid", "tid", "name"] {
            assert!(
                e.get(key).is_some(),
                "event {i} is missing required key {key}"
            );
        }
        let ph = e.get("ph").and_then(Json::as_str).expect("ph is a string");
        assert!(
            ["X", "B", "E", "i"].contains(&ph),
            "event {i} has unexpected phase {ph}"
        );
        if ph == "X" {
            assert!(e.get("dur").is_some(), "complete event {i} needs dur");
        }
    }
    // The launch span rendered as a begin/end pair.
    let names: Vec<&str> = events
        .iter()
        .filter_map(|e| e.get("name").and_then(Json::as_str))
        .collect();
    assert!(names.contains(&"launch 0"));
    let phases: Vec<&str> = events
        .iter()
        .filter(|e| e.get("name").and_then(Json::as_str) == Some("launch 0"))
        .filter_map(|e| e.get("ph").and_then(Json::as_str))
        .collect();
    assert_eq!(phases, ["B", "E"]);
}

#[test]
fn instrumented_launch_populates_registry_and_trace_together() {
    let mut sys = System::new(SystemConfig::nvidia_protected());
    let buf = sys.alloc(256 * 4).expect("alloc");
    let mut reg = Registry::new();
    let mut flight = FlightRecorder::with_schedule(16);
    let report = sys
        .launch_instrumented(
            iota(),
            8,
            32,
            &[Arg::Buffer(buf)],
            &mut reg,
            Some(&mut flight),
        )
        .expect("launch");
    assert!(report.completed());
    // Both feeds saw the same run.
    assert_eq!(
        reg.value("sim.launch.instructions"),
        Some(report.instructions())
    );
    assert_eq!(reg.value("sim.run.launches"), Some(1));
    // Driver metadata gauges arrived through the same entry point.
    assert_eq!(reg.value("driver.launches_prepared"), Some(1));
    assert!(reg.value("driver.rbt_allocs").unwrap_or(0) >= 1);
    // The short ring kept the newest events, ending in the completion.
    assert!(flight.events_dropped() > 0);
    let last = flight.iter().last().map(|r| r.ev);
    assert!(matches!(last, Some(FlightEvent::KernelComplete { .. })));
}

#[test]
fn an_aborting_launch_marks_the_guilty_warp() {
    // Only global thread 3*128 + 2*32 + 5 (workgroup 3, warp 2) stores
    // 1 MiB past its slot; the BCU aborts the launch on that access.
    let mut b = KernelBuilder::new("one_oob");
    let out = b.param_buffer("out", false);
    let tid = b.global_thread_id();
    let guilty = b.eq(tid, Operand::Imm(3 * 128 + 2 * 32 + 5));
    let jump = b.shl(guilty, Operand::Imm(20));
    let slot = b.shl(tid, Operand::Imm(2));
    let off = b.add(slot, jump);
    b.st(MemSpace::Global, MemWidth::W4, b.base_offset(out, off), tid);
    b.ret();
    let kernel = Arc::new(b.finish().expect("valid kernel"));

    let mut sys = System::new(SystemConfig::nvidia_protected());
    let buf = sys.alloc(8 * 128 * 4).expect("alloc");
    let mut flight = FlightRecorder::with_schedule(4096);
    let args = [Arg::Buffer(buf)];
    let reg = &mut Registry::disabled();
    let report = sys
        .launch_instrumented(kernel, 8, 128, &args, reg, Some(&mut flight))
        .expect("launch");
    assert!(!report.completed());

    let chrome = schedule::to_chrome(&flight);
    let aborts: Vec<_> = chrome.events.iter().filter(|e| e.name == "abort").collect();
    assert_eq!(aborts.len(), 1);
    assert_eq!((aborts[0].pid, aborts[0].tid), (0, (3 << 6) | 2));
    let text = schedule::render(&flight);
    let guilty = "core  0 wg    3 warp  2 abort kernel=1 reason=bounds-violation";
    assert!(text.contains(guilty), "{text}");
}
