//! Views over a flight recorder's scheduling events: what every core and
//! warp did, cycle by cycle, as a Chrome trace or a text log.
//!
//! A recorder built with [`FlightRecorder::with_schedule`] receives the
//! engine's scheduling kinds (workgroup dispatch, memory issue, barrier
//! arrival, warp retire) in the same canonical `(cycle, core, seq)` order
//! as its lifecycle and check events. The views render the scheduling
//! kinds plus launch aborts and skip every other kind. The ring keeps the
//! newest events, so a run longer than the capacity shows its tail after
//! a `trace-truncated` mark carrying the recorder's dropped-event count.

use crate::stats::AbortReason;
use gpushield_isa::MemSpace;
use gpushield_telemetry::chrome::ChromeTrace;
use gpushield_telemetry::flight::{FlightEvent, FlightRecorder};
use std::fmt::Write as _;

/// Memory spaces indexed by their flight-recorder code.
const SPACES: [MemSpace; 5] = [
    MemSpace::Global,
    MemSpace::Local,
    MemSpace::Shared,
    MemSpace::Const,
    MemSpace::Texture,
];

/// The flight-recorder code of `space`: its index in [`SPACES`].
pub(crate) fn space_code(space: MemSpace) -> u8 {
    match space {
        MemSpace::Global => 0,
        MemSpace::Local => 1,
        MemSpace::Shared => 2,
        MemSpace::Const => 3,
        MemSpace::Texture => 4,
    }
}

/// The Chrome `tid` of a warp: `(wg << 6) | warp`.
fn tid(wg: u32, warp: u16) -> u32 {
    (wg << 6) | (u32::from(warp) & 0x3f)
}

/// Converts the recorder's scheduling events to Chrome trace-event
/// format, mapping cores to `pid` and warps to `tid` so the viewer groups
/// lanes per SM and per warp. Memory issues become complete (`X`) slices
/// lasting `transactions + stall` cycles; dispatch, barrier, retire and
/// abort become instants. An abort carries no core: it sits on `pid` 0
/// at the guilty warp's `tid`. When the ring dropped events, the trace
/// opens with one `trace-truncated` instant carrying the dropped count.
pub fn to_chrome(fr: &FlightRecorder) -> ChromeTrace {
    let mut chrome = ChromeTrace::new();
    if fr.events_dropped() > 0 {
        let ts = fr.iter().next().map_or(0, |r| r.t);
        chrome.push_instant("trace-truncated", "trace", ts, 0, 0);
        chrome.arg("dropped", &fr.events_dropped().to_string());
    }
    for r in fr.iter() {
        match r.ev {
            FlightEvent::WgDispatch { core, wg } => {
                chrome.push_instant("dispatch", "sched", r.t, core.into(), tid(wg, 0));
                chrome.arg("wg", &wg.to_string());
            }
            FlightEvent::MemIssue {
                core,
                wg,
                warp,
                space,
                is_store,
                transactions,
                stall,
                site,
            } => {
                let dir = if is_store { "st" } else { "ld" };
                let name = match SPACES.get(usize::from(space)) {
                    Some(s) => format!("{dir} {s}"),
                    None => format!("{dir} space{space}"),
                };
                let dur = u64::from(transactions) + u64::from(stall);
                chrome.push_complete(&name, "mem", r.t, dur, core.into(), tid(wg, warp));
                chrome.arg("transactions", &transactions.to_string());
                chrome.arg("stall", &stall.to_string());
                if let Some((b, i)) = site {
                    chrome.arg("site", &format!("bb{b}:{i}"));
                }
            }
            FlightEvent::BarrierArrive { core, wg, warp } => {
                chrome.push_instant("barrier", "sched", r.t, core.into(), tid(wg, warp));
            }
            FlightEvent::WarpRetire { core, wg, warp } => {
                chrome.push_instant("retire", "sched", r.t, core.into(), tid(wg, warp));
            }
            FlightEvent::KernelAbort {
                kernel_id,
                wg,
                warp,
                reason,
            } => {
                chrome.push_instant("abort", "sched", r.t, 0, tid(wg, warp));
                chrome.arg("kernel", &kernel_id.to_string());
                chrome.arg("reason", AbortReason::code_name(reason));
            }
            _ => {}
        }
    }
    chrome
}

/// Renders [`to_chrome`]'s events one per line: timestamp, core, warp,
/// name and `key=value` args.
pub fn render(fr: &FlightRecorder) -> String {
    let mut out = String::new();
    for e in to_chrome(fr).events {
        let (t, core, wg, warp) = (e.ts, e.pid, e.tid >> 6, e.tid & 0x3f);
        let _ = write!(
            out,
            "[{t:>8}] core {core:>2} wg {wg:>4} warp {warp:>2} {}",
            e.name
        );
        for (k, v) in &e.args {
            let _ = write!(out, " {k}={v}");
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn views_render_scheduling_kinds_and_aborts_only() {
        assert!((SPACES.iter().enumerate()).all(|(i, s)| usize::from(space_code(*s)) == i));
        let mut fr = FlightRecorder::with_schedule(8);
        let mem = FlightEvent::MemIssue {
            core: 1,
            wg: 3,
            warp: 2,
            space: space_code(MemSpace::Global),
            is_store: true,
            transactions: 2,
            stall: 1,
            site: Some((1, 4)),
        };
        fr.record(42, mem);
        fr.record(43, FlightEvent::KernelComplete { kernel_id: 9 });
        let reason = AbortReason::BoundsViolation.code();
        let abort = FlightEvent::KernelAbort {
            kernel_id: 9,
            wg: 5,
            warp: 3,
            reason,
        };
        fr.record(44, abort);
        assert_eq!(
            render(&fr),
            "[      42] core  1 wg    3 warp  2 st global transactions=2 stall=1 site=bb1:4\n\
             [      44] core  0 wg    5 warp  3 abort kernel=9 reason=bounds-violation\n"
        );
        let chrome = to_chrome(&fr);
        let lanes: Vec<_> = (chrome.events.iter())
            .map(|e| (e.name.as_str(), e.pid, e.tid))
            .collect();
        assert_eq!(
            lanes,
            [("st global", 1, 3 << 6 | 2), ("abort", 0, 5 << 6 | 3)]
        );
    }
}
