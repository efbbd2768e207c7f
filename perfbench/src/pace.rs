//! The host-speed reference that host times are scaled by.
//!
//! A shared host runs this program at different speeds from one second to
//! the next: other tenants' work slows it by up to 40% in spells of one to
//! a few seconds, and by up to half for minutes at a time, so a whole run
//! can fall into one. So the benchmark cuts its measured work into
//! segments of about [`SEGMENT`], times a fixed reference loop after each,
//! and scales every host time by [`NOMINAL_NS`] over the reference time
//! around it: a spell that slows the program slows the reference too, so
//! scaled times move much less than unscaled ones. Scaled times read as
//! host seconds on a host where the reference takes [`NOMINAL_NS`] (about
//! a 2-CPU Intel Xeon KVM guest that is not contended). On a quiet,
//! dedicated host the scale is a constant.
//!
//! The reference is a small register-machine interpreter, the same kind of
//! work as the simulator's issue loop (a dispatch on the opcode,
//! register-file and scratch-memory traffic, data-dependent branches). It
//! runs twice: once with its loads confined to 2 KiB, which feels what
//! other tenants do to the core, and once with its loads spread over an
//! 8 MiB table, larger than a core's L2, which also feels what they do to
//! the shared cache and memory. The reference time is the geometric mean
//! of the two: either alone tracked the program's mix of compute-bound and
//! allocation-heavy work worse, one too little and one too much, depending
//! on what the other tenants did. It is the benchmark's own code, and on
//! x86-64 it is written in assembly with its loops aligned to
//! 64 bytes: a compiled loop runs up to 10% faster or slower depending on
//! where the linker happens to place it, which a change anywhere in the
//! program would move, so only a loop whose placement is fixed makes scaled
//! times comparable between builds.

use std::ops::Range;
use std::time::{Duration, Instant};

/// Measured work between two reference timings.
pub const SEGMENT: Duration = Duration::from_millis(10);

/// Reference time the scaled host times are expressed at.
pub const NOMINAL_NS: f64 = 120_000.0;

/// Reference timings on each side of a segment whose median sets its
/// scale: one timing is noisy, a spell of contention spans many.
const HALF_WINDOW: usize = 4;

/// Interpreter rounds of the reference's core-bound run (about 0.12 ms).
const CORE_ROUNDS: u64 = 750;

/// Interpreter rounds of the reference's cache-bound run (about 0.11 ms).
const CACHE_ROUNDS: u64 = 250;

/// Words in the table the reference loads from (8 MiB).
const TABLE_WORDS: usize = 1 << 20;

/// Table words the core-bound run loads from (2 KiB).
const CORE_WORDS: usize = 256;

/// The reference program's register file and scratch memory, on a cache
/// line boundary of their own.
#[repr(C, align(64))]
struct Scratch {
    regs: [u64; 16],
    mem: [u64; 256],
}

/// Segments of measured work and the reference time after each.
pub struct Pace {
    /// The reference program: one instruction per word, the opcode (0–5)
    /// in the low byte and the byte offsets of registers a, b and c into
    /// the register file in the next three.
    program: Vec<u32>,
    scratch: Box<Scratch>,
    /// What the reference's loads read: [`TABLE_WORDS`] pseudo-random words
    /// (empty when the pace is off).
    table: Vec<u64>,
    enabled: bool,
    start: Instant,
    seg_s: Vec<f64>,
    ref_ns: Vec<f64>,
}

impl Pace {
    /// Starts segment 0.
    pub fn new() -> Self {
        let mut pace = Pace::with(true);
        for _ in 0..8 {
            pace.reference_ns();
        }
        pace.start = Instant::now();
        pace
    }

    /// A pace that never times the reference and scales nothing, for work
    /// that is measured but not reported as an end-to-end metric.
    pub fn off() -> Self {
        Pace::with(false)
    }

    fn with(enabled: bool) -> Self {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let program = (0..64)
            .map(|_| {
                let x = next();
                let r = |shift: u32| ((x >> shift) & 15) as u32 * 8;
                (x % 6) as u32 | r(8) << 8 | r(16) << 16 | r(24) << 24
            })
            .collect();
        let table_words = if enabled { TABLE_WORDS } else { 0 };
        Pace {
            program,
            scratch: Box::new(Scratch {
                regs: [0; 16],
                mem: [0; 256],
            }),
            table: (0..table_words).map(|_| next()).collect(),
            enabled,
            start: Instant::now(),
            seg_s: Vec::new(),
            ref_ns: Vec::new(),
        }
    }

    /// Index of the open segment.
    pub fn segment(&self) -> usize {
        self.seg_s.len()
    }

    /// Closes the open segment once it has lasted [`SEGMENT`].
    pub fn tick(&mut self) {
        if self.enabled && self.start.elapsed() >= SEGMENT {
            self.close();
        }
    }

    /// Closes the open segment: records its host time, times the reference
    /// and opens the next segment.
    pub fn close(&mut self) {
        if !self.enabled {
            return;
        }
        self.seg_s.push(self.start.elapsed().as_secs_f64());
        let r = self.reference_ns();
        self.ref_ns.push(r);
        self.start = Instant::now();
    }

    /// Scale of closed segment `seg`: [`NOMINAL_NS`] over the median
    /// reference time of the segments around it. 1 when the pace is off.
    pub fn scale(&self, seg: usize) -> f64 {
        let n = self.ref_ns.len();
        if n == 0 {
            return 1.0;
        }
        let seg = seg.min(n - 1);
        let window = &self.ref_ns[seg.saturating_sub(HALF_WINDOW)..(seg + HALF_WINDOW + 1).min(n)];
        NOMINAL_NS / crate::stats::median(window).unwrap_or(NOMINAL_NS)
    }

    /// Scaled host seconds of closed segments `segs`.
    pub fn seconds(&self, segs: Range<usize>) -> f64 {
        segs.map(|s| self.seg_s[s] * self.scale(s)).sum()
    }

    /// Unscaled host seconds of closed segments `segs`.
    pub fn raw_seconds(&self, segs: Range<usize>) -> f64 {
        self.seg_s[segs].iter().sum()
    }

    /// [`NOMINAL_NS`] over the median of every reference time: how fast the
    /// host ran the reference during the run (1 when the pace is off).
    pub fn host_speed(&self) -> f64 {
        crate::stats::median(&self.ref_ns).map_or(1.0, |r| NOMINAL_NS / r)
    }

    /// Reference timings taken.
    pub fn samples(&self) -> u64 {
        self.ref_ns.len() as u64
    }

    /// Runs the reference program core-bound and cache-bound; the geometric
    /// mean of their host times, in ns.
    fn reference_ns(&mut self) -> f64 {
        let mut run = |words: usize, rounds: u64| {
            let start = Instant::now();
            self.scratch.regs = [1; 16];
            self.scratch.mem = [0; 256];
            interpret(
                std::hint::black_box(&self.program),
                &mut self.scratch,
                &self.table[..words],
                std::hint::black_box(rounds),
            );
            std::hint::black_box(&self.scratch);
            start.elapsed().as_nanos() as f64
        };
        (run(CORE_WORDS, CORE_ROUNDS) * run(TABLE_WORDS, CACHE_ROUNDS)).sqrt()
    }

    /// A pace with the given segment times and reference timings.
    #[cfg(test)]
    fn from_samples(seg_s: Vec<f64>, ref_ns: Vec<f64>) -> Self {
        Pace {
            seg_s,
            ref_ns,
            ..Pace::off()
        }
    }
}

/// Runs `program` `rounds` times over `s` and `table`, register 0 holding
/// the rounds left. Opcodes: 0 `a = b + c`, 1 `a = b ^ rotl(c, 3)`,
/// 2 `a = b * (c | 1)`, 3 `mem[b & 255] = c`,
/// 4 `a = table[b & (table.len() - 1)]`, 5 `if b is even { a = c >> 1 }`.
/// `table.len()` is a power of two.
#[cfg(target_arch = "x86_64")]
fn interpret(program: &[u32], s: &mut Scratch, table: &[u64], rounds: u64) {
    assert!(table.len().is_power_of_two());
    if program.is_empty() || rounds == 0 {
        return;
    }
    let range = program.as_ptr_range();
    // SAFETY: the loop reads only `program` and `table` (indices masked to
    // its length minus one, a power of two, checked above), and reads and
    // writes only the register file (offsets up to 120 bytes, within its
    // 128) and the scratch memory (indices masked to 255, within its 256
    // words), all of which the borrows here own for the call.
    unsafe {
        std::arch::asm!(
            ".p2align 6",
            "2:",
            "mov qword ptr [{regs}], {round}",
            "mov {p}, {first}",
            ".p2align 6",
            "3:",
            "movzx {op:e}, byte ptr [{p}]",
            "movzx {a:e}, byte ptr [{p} + 1]",
            "movzx {x:e}, byte ptr [{p} + 2]",
            "movzx {y:e}, byte ptr [{p} + 3]",
            "add {p}, 4",
            "mov {x}, qword ptr [{regs} + {x}]",
            "mov {y}, qword ptr [{regs} + {y}]",
            "cmp {op:e}, 2",
            "ja 5f",
            "je 4f",
            "test {op:e}, {op:e}",
            "jnz 6f",
            "add {x}, {y}",
            "mov qword ptr [{regs} + {a}], {x}",
            "jmp 9f",
            "6:",
            "rol {y}, 3",
            "xor {x}, {y}",
            "mov qword ptr [{regs} + {a}], {x}",
            "jmp 9f",
            "4:",
            "or {y}, 1",
            "imul {x}, {y}",
            "mov qword ptr [{regs} + {a}], {x}",
            "jmp 9f",
            "5:",
            "cmp {op:e}, 4",
            "ja 8f",
            "je 7f",
            "and {x:e}, 255",
            "mov qword ptr [{mem} + {x} * 8], {y}",
            "jmp 9f",
            "7:",
            "and {x}, {mask}",
            "mov {x}, qword ptr [{table} + {x} * 8]",
            "mov qword ptr [{regs} + {a}], {x}",
            "jmp 9f",
            "8:",
            "test {x:e}, 1",
            "jnz 9f",
            "shr {y}, 1",
            "mov qword ptr [{regs} + {a}], {y}",
            "9:",
            "cmp {p}, {end}",
            "jb 3b",
            "sub {round}, 1",
            "jnz 2b",
            regs = in(reg) s.regs.as_mut_ptr(),
            mem = in(reg) s.mem.as_mut_ptr(),
            table = in(reg) table.as_ptr(),
            mask = in(reg) table.len() - 1,
            first = in(reg) range.start,
            end = in(reg) range.end,
            round = inout(reg) rounds => _,
            p = out(reg) _,
            op = out(reg) _,
            a = out(reg) _,
            x = out(reg) _,
            y = out(reg) _,
            options(nostack),
        );
    }
}

/// The same interpreter in Rust, for other targets (and to check the
/// assembly against).
#[cfg(any(test, not(target_arch = "x86_64")))]
fn interpret_portable(program: &[u32], s: &mut Scratch, table: &[u64], rounds: u64) {
    for round in (1..=rounds).rev() {
        s.regs[0] = round;
        for &w in program {
            let [op, a, b, c] = w.to_le_bytes().map(|v| v as usize);
            let (a, x, y) = (a / 8, s.regs[b / 8], s.regs[c / 8]);
            match op {
                0 => s.regs[a] = x.wrapping_add(y),
                1 => s.regs[a] = x ^ y.rotate_left(3),
                2 => s.regs[a] = x.wrapping_mul(y | 1),
                3 => s.mem[(x & 255) as usize] = y,
                4 => s.regs[a] = table[x as usize & (table.len() - 1)],
                _ => {
                    if x & 1 == 0 {
                        s.regs[a] = y >> 1;
                    }
                }
            }
        }
    }
}

#[cfg(not(target_arch = "x86_64"))]
use interpret_portable as interpret;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_follows_the_median_reference_around_a_segment() {
        // Twelve 1 s segments: the host runs at nominal speed for six, then
        // at half speed (the reference takes twice as long) for six, with
        // one stray timing in each half.
        let mut refs = vec![NOMINAL_NS; 6];
        refs.extend(vec![2.0 * NOMINAL_NS; 6]);
        refs[1] = 5.0 * NOMINAL_NS;
        refs[10] = 0.1 * NOMINAL_NS;
        let pace = Pace::from_samples(vec![1.0; 12], refs);
        // The stray timings are outvoted by their neighbours.
        assert_eq!(pace.scale(1), 1.0);
        assert_eq!(pace.scale(10), 0.5);
        // Segments past the end use the last window.
        assert_eq!(pace.scale(99), 0.5);
        // Three seconds at nominal speed count as three; three seconds at
        // half speed count as one and a half.
        assert_eq!(pace.seconds(0..3), 3.0);
        assert_eq!(pace.seconds(9..12), 1.5);
        assert_eq!(pace.raw_seconds(9..12), 3.0);
    }

    #[test]
    fn the_reference_computes_what_its_rust_twin_does() {
        let pace = Pace::new();
        let fresh = || {
            Box::new(Scratch {
                regs: [1; 16],
                mem: [0; 256],
            })
        };
        let (mut a, mut b) = (fresh(), fresh());
        interpret(&pace.program, &mut a, &pace.table, 300);
        interpret_portable(&pace.program, &mut b, &pace.table, 300);
        let (mut c, mut d) = (fresh(), fresh());
        interpret(&pace.program, &mut c, &pace.table[..CORE_WORDS], 300);
        interpret_portable(&pace.program, &mut d, &pace.table[..CORE_WORDS], 300);
        assert_eq!(c.regs, d.regs);
        assert_ne!(a.regs, c.regs, "the table size changes what loads read");
        assert_eq!(a.regs, b.regs);
        assert_eq!(a.mem, b.mem);
        assert!(a.mem.iter().any(|&w| w != 0), "the program stores");
    }

    #[test]
    fn an_off_pace_scales_nothing() {
        let mut pace = Pace::off();
        pace.tick();
        pace.close();
        assert_eq!(pace.segment(), 0);
        assert_eq!(pace.scale(0), 1.0);
        assert_eq!(pace.host_speed(), 1.0);
    }
}
