//! Virtual memory with GPU-driver allocation semantics.
//!
//! The paper's Fig. 4 exploit hinges on three properties of Nvidia's
//! allocator that this module reproduces:
//!
//! 1. buffers are 512-byte aligned and packed consecutively, so a small
//!    out-of-bounds write inside the same 512-byte slot is *suppressed*
//!    (it lands in the victim buffer's own padding);
//! 2. consecutive allocations share 2 MB mapped regions, so larger
//!    out-of-bounds writes *silently corrupt neighbouring buffers*;
//! 3. only accesses that leave every mapped region *fault*.
//!
//! Allocation policies also include power-of-two alignment with padding,
//! which GPUShield's Type 3 pointers require (§5.3.3).

use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::OnceLock;

/// Translation granularity (bytes).
pub const PAGE_SIZE: u64 = 4096;
/// Mapped-region (VMA) granularity: Nvidia GPUs use 2 MB pages for device
/// memory, producing the 2 MB protection granularity observed in §3.1.
pub const REGION_SIZE: u64 = 2 * 1024 * 1024;

const ALLOC_ALIGN: u64 = 512;

/// How a buffer is aligned and padded inside the address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocPolicy {
    /// Nvidia-style: 512-byte alignment, consecutive packing in 2 MB
    /// regions.
    Device512,
    /// Power-of-two size padding *and* alignment (GPUShield Type 3
    /// pointers). The wasted padding bytes are the memory-fragmentation
    /// cost §5.3.3 discusses; the driver can lay a canary in them.
    PowerOfTwo,
    /// Isolated: the buffer gets its own mapped region(s), so any
    /// out-of-bounds access faults (used for the RBT's own pages, which the
    /// driver makes inaccessible to normal translation, §5.4).
    Isolated,
}

/// A successful allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Allocation {
    /// Base virtual address.
    pub va: u64,
    /// Requested size in bytes.
    pub size: u64,
    /// Size actually reserved (≥ `size`; differs under
    /// [`AllocPolicy::PowerOfTwo`]).
    pub reserved: u64,
}

impl Allocation {
    /// One past the last requested byte.
    pub fn end(&self) -> u64 {
        self.va + self.size
    }

    /// One past the last reserved byte.
    pub fn reserved_end(&self) -> u64 {
        self.va + self.reserved
    }
}

/// A memory-access fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemFault {
    /// The virtual address is not covered by any mapped region — the GPU
    /// aborts the kernel with an illegal-memory-access error (Fig. 4 case 3).
    Unmapped {
        /// Faulting virtual address.
        va: u64,
    },
    /// The address belongs to a page the driver made inaccessible (the RBT
    /// pages, §5.4).
    Protected {
        /// Faulting virtual address.
        va: u64,
    },
    /// An integer access asked for a width outside 1..=8 bytes — malformed
    /// input (e.g. a corrupted kernel image), not a memory condition.
    BadWidth {
        /// The rejected width.
        width: u64,
    },
}

impl fmt::Display for MemFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemFault::Unmapped { va } => write!(f, "illegal memory access at 0x{va:x}"),
            MemFault::Protected { va } => write!(f, "access to protected page at 0x{va:x}"),
            MemFault::BadWidth { width } => {
                write!(f, "unsupported integer access width {width}")
            }
        }
    }
}

impl Error for MemFault {}

/// The first fault of a warp-wide access: the failing lane and its fault.
/// Lanes before it were delivered (loads) or written (stores).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneFault {
    /// Index of the faulting lane.
    pub lane: usize,
    /// The fault that lane's per-lane access raised.
    pub fault: MemFault,
}

#[derive(Debug, Clone, Copy)]
struct Region {
    start: u64,
    end: u64,
    protected: bool,
}

/// A per-context GPU virtual address space with a functional backing store.
///
/// # Example
///
/// ```
/// use gpushield_mem::{AllocPolicy, VirtualMemorySpace};
///
/// let mut vm = VirtualMemorySpace::new();
/// let a = vm.alloc(64, AllocPolicy::Device512).unwrap();
/// let b = vm.alloc(64, AllocPolicy::Device512).unwrap();
/// assert_eq!(b.va - a.va, 512); // 512B-aligned consecutive packing
/// vm.write(a.va, &42u64.to_le_bytes()).unwrap();
/// let mut buf = [0u8; 8];
/// vm.read(a.va, &mut buf).unwrap();
/// assert_eq!(u64::from_le_bytes(buf), 42);
/// ```
#[derive(Debug, Default)]
pub struct VirtualMemorySpace {
    regions: Vec<Region>,
    /// Two-level (radix) page table: the root is indexed by the high bits
    /// of the VA page number, each leaf by the low [`LEAF_BITS`] bits.
    /// Entries store *frame number + 1* (0 = unmapped), so a zeroed leaf is
    /// all-invalid. Allocations are carved from a monotonically increasing
    /// cursor, so the root stays small and dense — the common load/store
    /// translation is two array indexes.
    page_root: Vec<Option<Box<[u64; LEAF_ENTRIES]>>>,
    /// PA frame number → data, lazily populated (untouched pages read as
    /// zero without materializing a frame). Frames are atomic bytes behind
    /// a `OnceLock` so the *run-time* data path (`read`, `write`,
    /// `read_uint`, `write_uint`, the bypass pair) works through `&self`:
    /// simulated cores on different worker threads share one address space
    /// with no lock. Relaxed per-byte atomics deliberately model GPU global
    /// memory: racing same-byte plain accesses from different cores within
    /// one cycle quantum have no ordering guarantee (real GPUs give none
    /// either); programs that need cross-core ordering use atomics, which
    /// the simulator serialises at the quantum drain.
    frames: Vec<OnceLock<Box<[AtomicU8]>>>,
    next_frame: u64,
    /// Bump cursor inside the current shared region.
    cursor: u64,
    /// End of the current shared region.
    cursor_region_end: u64,
    /// Next unmapped VA (regions are carved from here).
    next_region_va: u64,
    /// Last successful [`VirtualMemorySpace::translate`], packed as
    /// `(page number + 1) << XLATE_FRAME_BITS | frame` (0 = empty; see
    /// [`xlate_pack`]). A single word so concurrent readers can share it
    /// without tearing: the cache is pure memoization — a hit returns
    /// exactly what the radix walk would — so cross-thread races only
    /// affect *which* translation is remembered, never the result.
    /// Invalidated by [`VirtualMemorySpace::protect`] (mappings are never
    /// removed, so new regions cannot stale it).
    last_xlate: AtomicU64,
    /// Last successful bypass translation; protection changes do not affect
    /// the bypass path, so this cache never needs invalidation.
    last_bypass: AtomicU64,
}

/// Bits of the packed translation-cache word holding the frame number.
/// VAs are ≤ 48 bits (pn + 1 < 2³⁷), leaving room for 26 frame bits —
/// 256 GB of backing store; larger spaces simply skip the one-entry cache.
const XLATE_FRAME_BITS: u32 = 26;

/// Packs a translation-cache entry, or `None` when it does not fit.
#[inline]
fn xlate_pack(pn: u64, frame: u64) -> Option<u64> {
    let tag = pn + 1;
    (frame < (1 << XLATE_FRAME_BITS) && tag < (1 << (64 - XLATE_FRAME_BITS)))
        .then_some((tag << XLATE_FRAME_BITS) | frame)
}

/// Probes a packed translation cache for `pn`, returning the PA page base.
#[inline]
fn xlate_probe(cache: &AtomicU64, pn: u64) -> Option<u64> {
    let packed = cache.load(Ordering::Relaxed);
    (packed >> XLATE_FRAME_BITS == pn + 1)
        .then(|| (packed & ((1 << XLATE_FRAME_BITS) - 1)) * PAGE_SIZE)
}

/// Copies frame bytes out into a plain buffer (relaxed per-byte loads
/// compile down to plain byte copies).
#[inline]
fn copy_out(src: &[AtomicU8], dst: &mut [u8]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d = s.load(Ordering::Relaxed);
    }
}

/// Copies a plain buffer into frame bytes.
#[inline]
fn copy_in(src: &[u8], dst: &[AtomicU8]) {
    for (s, d) in src.iter().zip(dst) {
        d.store(*s, Ordering::Relaxed);
    }
}

/// The in-page offset of a `width`-byte access at `va`, or `None` when it
/// straddles a page or the width is outside 1..=8.
#[inline]
fn in_page(va: u64, width: u64) -> Option<usize> {
    let off = va % PAGE_SIZE;
    ((1..=8).contains(&width) && off + width <= PAGE_SIZE).then_some(off as usize)
}

/// Pages per page-table leaf (512 × 4 KB = one 2 MB region per leaf).
const LEAF_BITS: u32 = 9;
const LEAF_ENTRIES: usize = 1 << LEAF_BITS;

impl VirtualMemorySpace {
    /// Creates an empty address space. Region 0 is left unmapped so that
    /// null-ish pointers always fault.
    pub fn new() -> Self {
        VirtualMemorySpace {
            next_region_va: REGION_SIZE,
            ..VirtualMemorySpace::default()
        }
    }

    fn map_region(&mut self, bytes: u64, protected: bool) -> u64 {
        let nregions = bytes.div_ceil(REGION_SIZE).max(1);
        let start = self.next_region_va;
        let end = start + nregions * REGION_SIZE;
        self.next_region_va = end;
        self.regions.push(Region {
            start,
            end,
            protected,
        });
        // Install translations eagerly: the GPU driver backs device
        // allocations with physical memory up front.
        let mut va = start;
        while va < end {
            let pn = va / PAGE_SIZE;
            let root_idx = (pn >> LEAF_BITS) as usize;
            if root_idx >= self.page_root.len() {
                self.page_root.resize_with(root_idx + 1, || None);
            }
            let leaf =
                self.page_root[root_idx].get_or_insert_with(|| Box::new([0u64; LEAF_ENTRIES]));
            leaf[pn as usize & (LEAF_ENTRIES - 1)] = self.next_frame + 1;
            self.next_frame += 1;
            va += PAGE_SIZE;
        }
        self.frames
            .resize_with(self.next_frame as usize, OnceLock::new);
        start
    }

    /// Two-index page-table walk: VA page number → PA frame number.
    #[inline]
    fn lookup_frame(&self, pn: u64) -> Option<u64> {
        let leaf = self.page_root.get((pn >> LEAF_BITS) as usize)?.as_ref()?;
        leaf[pn as usize & (LEAF_ENTRIES - 1)].checked_sub(1)
    }

    /// Allocates `size` bytes under `policy`.
    ///
    /// # Errors
    ///
    /// Returns [`MemFault::Unmapped`] only in the degenerate `size == 0`
    /// case is *not* an error — zero-size allocations reserve one alignment
    /// slot, matching CUDA. This method currently cannot fail but returns
    /// `Result` to keep the driver-facing API uniform with `read`/`write`.
    pub fn alloc(&mut self, size: u64, policy: AllocPolicy) -> Result<Allocation, MemFault> {
        match policy {
            AllocPolicy::Device512 => {
                let reserved = size.max(1).div_ceil(ALLOC_ALIGN) * ALLOC_ALIGN;
                if self.cursor + reserved > self.cursor_region_end {
                    let start = self.map_region(reserved, false);
                    self.cursor = start;
                    self.cursor_region_end = self.regions.last().expect("just mapped").end;
                }
                let va = self.cursor;
                self.cursor += reserved;
                Ok(Allocation { va, size, reserved })
            }
            AllocPolicy::PowerOfTwo => {
                let reserved = size.max(1).next_power_of_two().max(ALLOC_ALIGN);
                // Align the cursor itself to the reserved size.
                let aligned = self.cursor.div_ceil(reserved) * reserved;
                if aligned + reserved > self.cursor_region_end {
                    let start = self.map_region(reserved, false);
                    self.cursor = start;
                    self.cursor_region_end = self.regions.last().expect("just mapped").end;
                }
                let va = self.cursor.div_ceil(reserved) * reserved;
                self.cursor = va + reserved;
                Ok(Allocation { va, size, reserved })
            }
            AllocPolicy::Isolated => {
                let va = self.map_region(size.max(1), false);
                Ok(Allocation {
                    va,
                    size,
                    reserved: size.max(1).div_ceil(REGION_SIZE).max(1) * REGION_SIZE,
                })
            }
        }
    }

    /// Marks every page overlapping `[va, va+len)` as driver-protected;
    /// normal accesses then fault with [`MemFault::Protected`].
    pub fn protect(&mut self, va: u64, len: u64) {
        for r in &mut self.regions {
            if va < r.end && va + len > r.start {
                r.protected = true;
            }
        }
        // The normal-path translation cache may hold a page that just became
        // protected; drop it. (The bypass cache ignores protection.)
        self.last_xlate.store(0, Ordering::Relaxed);
    }

    fn region_of(&self, va: u64) -> Option<&Region> {
        // Regions are carved from a monotonically increasing cursor, so the
        // list is sorted by start address; binary search keeps the hot
        // functional-access path cheap.
        let idx = self.regions.partition_point(|r| r.start <= va);
        let r = self.regions.get(idx.checked_sub(1)?)?;
        (va < r.end).then_some(r)
    }

    /// Translates a virtual address, honouring protection.
    ///
    /// # Errors
    ///
    /// [`MemFault::Unmapped`] outside every region, [`MemFault::Protected`]
    /// inside a protected one.
    pub fn translate(&self, va: u64) -> Result<u64, MemFault> {
        let pn = va / PAGE_SIZE;
        if let Some(pa_base) = xlate_probe(&self.last_xlate, pn) {
            return Ok(pa_base + va % PAGE_SIZE);
        }
        match self.region_of(va) {
            None => Err(MemFault::Unmapped { va }),
            Some(r) if r.protected => Err(MemFault::Protected { va }),
            Some(_) => {
                let frame = self.lookup_frame(pn).ok_or(MemFault::Unmapped { va })?;
                if let Some(packed) = xlate_pack(pn, frame) {
                    self.last_xlate.store(packed, Ordering::Relaxed);
                }
                Ok(frame * PAGE_SIZE + va % PAGE_SIZE)
            }
        }
    }

    /// Like [`VirtualMemorySpace::translate`] but ignores protection — the
    /// hardware path GPU cores use for RBT fetches (§5.4: "RBT accesses in
    /// GPU cores will bypass the address translation").
    pub fn translate_bypass(&self, va: u64) -> Result<u64, MemFault> {
        let pn = va / PAGE_SIZE;
        if let Some(pa_base) = xlate_probe(&self.last_bypass, pn) {
            return Ok(pa_base + va % PAGE_SIZE);
        }
        match self.region_of(va) {
            None => Err(MemFault::Unmapped { va }),
            Some(_) => {
                let frame = self.lookup_frame(pn).ok_or(MemFault::Unmapped { va })?;
                if let Some(packed) = xlate_pack(pn, frame) {
                    self.last_bypass.store(packed, Ordering::Relaxed);
                }
                Ok(frame * PAGE_SIZE + va % PAGE_SIZE)
            }
        }
    }

    /// The frame's backing bytes, or `None` while it is still all-zero.
    #[inline]
    fn frame(&self, frame: u64) -> Option<&[AtomicU8]> {
        self.frames.get(frame as usize)?.get().map(|f| &f[..])
    }

    /// The frame's backing bytes, materializing the zero-filled page on
    /// first touch. Lock-free after initialization; losers of a racing
    /// first touch drop their page and use the winner's (both are zero).
    #[inline]
    fn frame_init(&self, frame: u64) -> &[AtomicU8] {
        self.frames[frame as usize]
            .get_or_init(|| (0..PAGE_SIZE).map(|_| AtomicU8::new(0)).collect())
    }

    /// Reads `buf.len()` bytes starting at `va`.
    ///
    /// # Errors
    ///
    /// Faults as [`VirtualMemorySpace::translate`] does, at the first
    /// untranslatable byte.
    pub fn read(&self, va: u64, buf: &mut [u8]) -> Result<(), MemFault> {
        let mut done = 0usize;
        while done < buf.len() {
            let cur = va + done as u64;
            let pa = self.translate(cur)?;
            let in_page = (PAGE_SIZE - pa % PAGE_SIZE) as usize;
            let take = in_page.min(buf.len() - done);
            match self.frame(pa / PAGE_SIZE) {
                Some(f) => {
                    let off = (pa % PAGE_SIZE) as usize;
                    copy_out(&f[off..off + take], &mut buf[done..done + take]);
                }
                None => buf[done..done + take].fill(0),
            }
            done += take;
        }
        Ok(())
    }

    /// Writes `buf` starting at `va`.
    ///
    /// # Errors
    ///
    /// Faults as [`VirtualMemorySpace::translate`] does; bytes before the
    /// fault are written (device stores are not transactional).
    pub fn write(&self, va: u64, buf: &[u8]) -> Result<(), MemFault> {
        let mut done = 0usize;
        while done < buf.len() {
            let cur = va + done as u64;
            let pa = self.translate(cur)?;
            let in_page = (PAGE_SIZE - pa % PAGE_SIZE) as usize;
            let take = in_page.min(buf.len() - done);
            let off = (pa % PAGE_SIZE) as usize;
            copy_in(
                &buf[done..done + take],
                &self.frame_init(pa / PAGE_SIZE)[off..off + take],
            );
            done += take;
        }
        Ok(())
    }

    /// Reads a little-endian unsigned integer of `width` ∈ 1..=8 bytes.
    ///
    /// # Errors
    ///
    /// Faults as [`VirtualMemorySpace::read`] does, plus
    /// [`MemFault::BadWidth`] for widths outside 1..=8.
    pub fn read_uint(&self, va: u64, width: u64) -> Result<u64, MemFault> {
        if width == 0 || width > 8 {
            return Err(MemFault::BadWidth { width });
        }
        let mut buf = [0u8; 8];
        self.read(va, &mut buf[..width as usize])?;
        Ok(u64::from_le_bytes(buf))
    }

    /// Writes the low `width` bytes of `value` little-endian at `va`.
    ///
    /// # Errors
    ///
    /// Faults as [`VirtualMemorySpace::write`] does, plus
    /// [`MemFault::BadWidth`] for widths outside 1..=8.
    pub fn write_uint(&self, va: u64, width: u64, value: u64) -> Result<(), MemFault> {
        if width == 0 || width > 8 {
            return Err(MemFault::BadWidth { width });
        }
        let bytes = value.to_le_bytes();
        self.write(va, &bytes[..width as usize])
    }

    /// Translates every active lane's address (`None` = masked-off lane)
    /// in lane order, walking each run of same-page lanes once: a page that
    /// translated cannot fault for another address on it.
    ///
    /// # Errors
    ///
    /// The first failing lane, with the fault
    /// [`VirtualMemorySpace::translate`] raises for its address.
    pub fn translate_lanes(&self, lane_vas: &[Option<u64>]) -> Result<(), LaneFault> {
        let mut ok_page = u64::MAX;
        for (lane, va) in lane_vas.iter().enumerate() {
            let Some(va) = *va else { continue };
            if va / PAGE_SIZE != ok_page {
                self.translate(va)
                    .map_err(|fault| LaneFault { lane, fault })?;
                ok_page = va / PAGE_SIZE;
            }
        }
        Ok(())
    }

    /// Warp-wide [`VirtualMemorySpace::read_uint`]: reads `width` bytes at
    /// every active lane's address into `out[lane]`, in lane order. The
    /// current page's frame is kept across lanes; a page-straddling lane
    /// (or a bad width) takes the per-lane path.
    ///
    /// # Errors
    ///
    /// The first faulting lane, with exactly the fault `read_uint` raises
    /// for it; every earlier lane has been delivered.
    pub fn read_lanes(
        &self,
        lane_vas: &[Option<u64>],
        width: u64,
        out: &mut [u64],
    ) -> Result<(), LaneFault> {
        let mut page: Option<(u64, Option<&[AtomicU8]>)> = None;
        for (lane, va) in lane_vas.iter().enumerate() {
            let Some(va) = *va else { continue };
            let err = |fault| LaneFault { lane, fault };
            let Some(off) = in_page(va, width) else {
                out[lane] = self.read_uint(va, width).map_err(err)?;
                continue;
            };
            let frame = match page {
                Some((pn, frame)) if pn == va / PAGE_SIZE => frame,
                _ => {
                    let pa = self.translate(va).map_err(err)?;
                    let frame = self.frame(pa / PAGE_SIZE);
                    page = Some((va / PAGE_SIZE, frame));
                    frame
                }
            };
            let mut buf = [0u8; 8];
            if let Some(f) = frame {
                copy_out(&f[off..off + width as usize], &mut buf[..width as usize]);
            }
            out[lane] = u64::from_le_bytes(buf);
        }
        Ok(())
    }

    /// Warp-wide [`VirtualMemorySpace::write_uint`]: writes the low `width`
    /// bytes of `vals[lane]` at every active lane's address, in lane order
    /// (a later lane wins a shared address), keeping the current page's
    /// frame across lanes as [`VirtualMemorySpace::read_lanes`] does.
    ///
    /// # Errors
    ///
    /// The first faulting lane, with exactly the fault `write_uint` raises
    /// for it; every earlier lane (and, as with `write_uint`, the bytes of
    /// a straddling lane before its fault) has been written.
    pub fn write_lanes(
        &self,
        lane_vas: &[Option<u64>],
        width: u64,
        vals: &[u64],
    ) -> Result<(), LaneFault> {
        let mut page: Option<(u64, &[AtomicU8])> = None;
        for (lane, va) in lane_vas.iter().enumerate() {
            let Some(va) = *va else { continue };
            let err = |fault| LaneFault { lane, fault };
            let Some(off) = in_page(va, width) else {
                self.write_uint(va, width, vals[lane]).map_err(err)?;
                continue;
            };
            let frame = match page {
                Some((pn, frame)) if pn == va / PAGE_SIZE => frame,
                _ => {
                    let pa = self.translate(va).map_err(err)?;
                    let frame = self.frame_init(pa / PAGE_SIZE);
                    page = Some((va / PAGE_SIZE, frame));
                    frame
                }
            };
            let bytes = vals[lane].to_le_bytes();
            copy_in(&bytes[..width as usize], &frame[off..off + width as usize]);
        }
        Ok(())
    }

    /// Bypass-translation write used by the driver/hardware for RBT pages.
    ///
    /// # Errors
    ///
    /// Faults only when the address is wholly unmapped.
    pub fn write_bypass(&self, va: u64, buf: &[u8]) -> Result<(), MemFault> {
        let mut done = 0usize;
        while done < buf.len() {
            let cur = va + done as u64;
            let pa = self.translate_bypass(cur)?;
            let in_page = (PAGE_SIZE - pa % PAGE_SIZE) as usize;
            let take = in_page.min(buf.len() - done);
            let off = (pa % PAGE_SIZE) as usize;
            copy_in(
                &buf[done..done + take],
                &self.frame_init(pa / PAGE_SIZE)[off..off + take],
            );
            done += take;
        }
        Ok(())
    }

    /// Bypass-translation read used by the hardware for RBT fetches.
    ///
    /// # Errors
    ///
    /// Faults only when the address is wholly unmapped.
    pub fn read_bypass(&self, va: u64, buf: &mut [u8]) -> Result<(), MemFault> {
        let mut done = 0usize;
        while done < buf.len() {
            let cur = va + done as u64;
            let pa = self.translate_bypass(cur)?;
            let in_page = (PAGE_SIZE - pa % PAGE_SIZE) as usize;
            let take = in_page.min(buf.len() - done);
            match self.frame(pa / PAGE_SIZE) {
                Some(f) => {
                    let off = (pa % PAGE_SIZE) as usize;
                    copy_out(&f[off..off + take], &mut buf[done..done + take]);
                }
                None => buf[done..done + take].fill(0),
            }
            done += take;
        }
        Ok(())
    }

    /// Number of distinct 4 KB pages covering `[va, va+size)` — the Fig. 11
    /// quantity.
    pub fn pages_spanned(va: u64, size: u64) -> u64 {
        if size == 0 {
            return 0;
        }
        (va + size - 1) / PAGE_SIZE - va / PAGE_SIZE + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consecutive_allocs_are_512_apart() {
        let mut vm = VirtualMemorySpace::new();
        let a = vm.alloc(64, AllocPolicy::Device512).unwrap();
        let b = vm.alloc(64, AllocPolicy::Device512).unwrap();
        assert_eq!(a.va % 512, 0);
        assert_eq!(b.va, a.va + 512);
    }

    #[test]
    fn oob_within_region_corrupts_neighbour() {
        // Fig. 4 case 2: a write past A's end lands in B without faulting.
        let mut vm = VirtualMemorySpace::new();
        let a = vm.alloc(64, AllocPolicy::Device512).unwrap();
        let b = vm.alloc(64, AllocPolicy::Device512).unwrap();
        vm.write_uint(a.va + 512, 4, 0xBAD).unwrap();
        assert_eq!(vm.read_uint(b.va, 4).unwrap(), 0xBAD);
    }

    #[test]
    fn degenerate_widths_fault_instead_of_panicking() {
        let mut vm = VirtualMemorySpace::new();
        let a = vm.alloc(64, AllocPolicy::Device512).unwrap();
        assert_eq!(vm.read_uint(a.va, 0), Err(MemFault::BadWidth { width: 0 }));
        assert_eq!(vm.read_uint(a.va, 9), Err(MemFault::BadWidth { width: 9 }));
        assert_eq!(
            vm.write_uint(a.va, 16, 1),
            Err(MemFault::BadWidth { width: 16 })
        );
        assert_eq!(
            MemFault::BadWidth { width: 9 }.to_string(),
            "unsupported integer access width 9"
        );
    }

    #[test]
    fn oob_crossing_region_faults() {
        // Fig. 4 case 3: crossing the 2MB mapped region aborts.
        let mut vm = VirtualMemorySpace::new();
        let a = vm.alloc(64, AllocPolicy::Device512).unwrap();
        let err = vm.write_uint(a.va + 4 * REGION_SIZE, 4, 0xBAD).unwrap_err();
        assert!(matches!(err, MemFault::Unmapped { .. }));
    }

    #[test]
    fn power_of_two_policy_aligns_and_pads() {
        let mut vm = VirtualMemorySpace::new();
        let a = vm.alloc(100, AllocPolicy::PowerOfTwo).unwrap();
        assert_eq!(a.reserved, 512); // max(next_pow2(100)=128, 512)
        assert_eq!(a.va % a.reserved, 0);
        let b = vm.alloc(5000, AllocPolicy::PowerOfTwo).unwrap();
        assert_eq!(b.reserved, 8192);
        assert_eq!(b.va % 8192, 0);
    }

    #[test]
    fn protected_pages_fault_but_bypass_works() {
        let mut vm = VirtualMemorySpace::new();
        let a = vm.alloc(4096, AllocPolicy::Isolated).unwrap();
        vm.write_uint(a.va, 8, 7).unwrap();
        vm.protect(a.va, a.size);
        assert!(matches!(
            vm.read_uint(a.va, 8),
            Err(MemFault::Protected { .. })
        ));
        let mut buf = [0u8; 8];
        vm.read_bypass(a.va, &mut buf).unwrap();
        assert_eq!(u64::from_le_bytes(buf), 7);
    }

    #[test]
    fn rw_roundtrip_across_page_boundary() {
        let mut vm = VirtualMemorySpace::new();
        let a = vm.alloc(2 * PAGE_SIZE, AllocPolicy::Device512).unwrap();
        let va = a.va + PAGE_SIZE - 3;
        vm.write_uint(va, 8, 0x1122_3344_5566_7788).unwrap();
        assert_eq!(vm.read_uint(va, 8).unwrap(), 0x1122_3344_5566_7788);
    }

    #[test]
    fn pages_spanned_counts() {
        assert_eq!(VirtualMemorySpace::pages_spanned(0, 4096), 1);
        assert_eq!(VirtualMemorySpace::pages_spanned(4095, 2), 2);
        assert_eq!(VirtualMemorySpace::pages_spanned(0, 0), 0);
        assert_eq!(VirtualMemorySpace::pages_spanned(512, 8192), 3);
    }

    /// The per-lane reference for [`VirtualMemorySpace::read_lanes`].
    fn read_per_lane(
        vm: &VirtualMemorySpace,
        vas: &[Option<u64>],
        width: u64,
        out: &mut [u64],
    ) -> Result<(), LaneFault> {
        for (lane, va) in vas.iter().enumerate() {
            if let Some(va) = *va {
                out[lane] = vm
                    .read_uint(va, width)
                    .map_err(|fault| LaneFault { lane, fault })?;
            }
        }
        Ok(())
    }

    /// The per-lane reference for [`VirtualMemorySpace::write_lanes`].
    fn write_per_lane(
        vm: &VirtualMemorySpace,
        vas: &[Option<u64>],
        width: u64,
        vals: &[u64],
    ) -> Result<(), LaneFault> {
        for (lane, va) in vas.iter().enumerate() {
            if let Some(va) = *va {
                vm.write_uint(va, width, vals[lane])
                    .map_err(|fault| LaneFault { lane, fault })?;
            }
        }
        Ok(())
    }

    /// A space with a two-page buffer whose first page holds a byte
    /// pattern and whose second page was never touched, followed by a
    /// protected isolated page; returns (space, buffer, protected VA).
    fn lanes_space() -> Result<(VirtualMemorySpace, Allocation, u64), MemFault> {
        let mut vm = VirtualMemorySpace::new();
        let a = vm.alloc(2 * PAGE_SIZE, AllocPolicy::Device512)?;
        let bytes: Vec<u8> = (0..PAGE_SIZE).map(|i| (i * 37 + 11) as u8).collect();
        vm.write(a.va, &bytes)?;
        let p = vm.alloc(PAGE_SIZE, AllocPolicy::Isolated)?;
        vm.protect(p.va, p.size);
        Ok((vm, a, p.va))
    }

    /// Lane layouts covering: page-straddling lanes, the never-touched
    /// (zero) page, repeated addresses, masked-off lanes, an unmapped lane
    /// mid-warp, a protected lane, and a lane straddling off the end of
    /// the mapped region.
    fn lane_layouts(a: &Allocation, protected: u64) -> Vec<Vec<Option<u64>>> {
        let page2 = a.va + PAGE_SIZE;
        let region_end = (a.va / REGION_SIZE + 1) * REGION_SIZE;
        let mut layouts = vec![
            (0..32).map(|l| Some(a.va + 4 * l)).collect(),
            (0..32).map(|l| Some(page2 - 64 + 3 * l)).collect(),
            (0..32)
                .map(|l| (l % 3 != 0).then_some(page2 + 8 * l))
                .collect(),
            vec![
                Some(a.va),
                Some(a.va + 1),
                Some(a.va),
                None,
                Some(page2 - 2),
            ],
        ];
        for wild in [0x10, a.va + 64 * REGION_SIZE, protected, region_end - 2] {
            let mut l: Vec<Option<u64>> = (0..8).map(|l| Some(a.va + 8 * l)).collect();
            l[5] = Some(wild);
            layouts.push(l);
        }
        layouts
    }

    #[test]
    fn read_lanes_matches_per_lane_reads() -> Result<(), MemFault> {
        let (vm, a, protected) = lanes_space()?;
        for vas in lane_layouts(&a, protected) {
            for width in [0, 1, 2, 4, 8, 9] {
                let (mut got, mut want) = (vec![0xAAu64; vas.len()], vec![0xAAu64; vas.len()]);
                let r = vm.read_lanes(&vas, width, &mut got);
                assert_eq!(
                    r,
                    read_per_lane(&vm, &vas, width, &mut want),
                    "{vas:x?} w{width}"
                );
                assert_eq!(got, want, "{vas:x?} w{width}");
            }
        }
        // The fault is the per-lane one: first failing lane, its own VA;
        // earlier lanes delivered, later lanes untouched.
        let mut vas: Vec<Option<u64>> = (0..8).map(|l| Some(a.va + 8 * l)).collect();
        vas[5] = Some(0x10);
        vas[6] = Some(protected);
        let mut out = vec![7u64; 8];
        let err = vm.read_lanes(&vas, 4, &mut out).unwrap_err();
        assert_eq!(
            err,
            LaneFault {
                lane: 5,
                fault: MemFault::Unmapped { va: 0x10 }
            }
        );
        assert_eq!(out[4], vm.read_uint(a.va + 32, 4)?);
        assert_eq!(&out[5..], &[7, 7, 7]);
        // A never-touched page reads zero and stays unmaterialized.
        let mut z = [1u64; 2];
        let page2 = [Some(a.va + PAGE_SIZE), Some(a.va + PAGE_SIZE + 100)];
        assert_eq!(vm.read_lanes(&page2, 8, &mut z), Ok(()));
        assert_eq!(z, [0, 0]);
        let pa = vm.translate(a.va + PAGE_SIZE)?;
        assert!(vm.frame(pa / PAGE_SIZE).is_none());
        assert_eq!(
            vm.read_lanes(&[None, Some(a.va)], 9, &mut z),
            Err(LaneFault {
                lane: 1,
                fault: MemFault::BadWidth { width: 9 }
            })
        );
        assert_eq!(vm.read_lanes(&[None, None], 0, &mut z), Ok(()));
        Ok(())
    }

    #[test]
    fn write_lanes_matches_per_lane_writes() -> Result<(), MemFault> {
        let probe = |vm: &VirtualMemorySpace, a: &Allocation| {
            let mut all = vec![0u8; (2 * PAGE_SIZE) as usize];
            let mut tail = [0u8; 2];
            let region_end = (a.va / REGION_SIZE + 1) * REGION_SIZE;
            vm.read(a.va, &mut all)?;
            vm.read(region_end - 2, &mut tail)?;
            Ok::<_, MemFault>((all, tail))
        };
        let (_, a, protected) = lanes_space()?;
        for vas in lane_layouts(&a, protected) {
            for width in [0, 1, 2, 4, 8, 9] {
                let vals: Vec<u64> = (0..vas.len() as u64)
                    .map(|l| 0x0102_0304_0506_0708u64.wrapping_mul(l + 1))
                    .collect();
                let ((got, ..), (want, ..)) = (lanes_space()?, lanes_space()?);
                let r = got.write_lanes(&vas, width, &vals);
                assert_eq!(
                    r,
                    write_per_lane(&want, &vas, width, &vals),
                    "{vas:x?} w{width}"
                );
                // Same bytes written, including a straddling lane's bytes
                // before its fault and the later of two same-address lanes.
                assert_eq!(probe(&got, &a)?, probe(&want, &a)?, "{vas:x?} w{width}");
            }
        }
        let (vm, a, _) = lanes_space()?;
        let vas = [Some(a.va), Some(0x10), Some(a.va + 8)];
        let err = vm.write_lanes(&vas, 8, &[1, 2, 3]).unwrap_err();
        assert_eq!(
            err,
            LaneFault {
                lane: 1,
                fault: MemFault::Unmapped { va: 0x10 }
            }
        );
        assert_eq!(vm.read_uint(a.va, 8), Ok(1));
        assert_ne!(vm.read_uint(a.va + 8, 8), Ok(3));
        Ok(())
    }

    #[test]
    fn translate_lanes_reports_the_first_failing_lane() -> Result<(), MemFault> {
        let (vm, a, protected) = lanes_space()?;
        for vas in lane_layouts(&a, protected) {
            let want = vas.iter().enumerate().find_map(|(lane, va)| {
                let fault = vm.translate((*va)?).err()?;
                Some(LaneFault { lane, fault })
            });
            assert_eq!(vm.translate_lanes(&vas).err(), want, "{vas:x?}");
        }
        let vas = [Some(a.va), Some(protected), Some(0x10)];
        assert_eq!(
            vm.translate_lanes(&vas),
            Err(LaneFault {
                lane: 1,
                fault: MemFault::Protected { va: protected }
            })
        );
        Ok(())
    }

    #[test]
    fn zero_addresses_fault() {
        let vm = VirtualMemorySpace::new();
        assert!(vm.translate(0).is_err());
        assert!(vm.translate(100).is_err());
    }
}
