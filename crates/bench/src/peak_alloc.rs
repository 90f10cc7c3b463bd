//! A pass-through allocator that tracks live heap bytes and their
//! high-water mark, for the bins that gate a peak (`spill`, `report`).
//! Each includes this file with `#[path]` and installs
//! [`PeakAlloc`] as its `#[global_allocator]`: the allocator must live
//! in the binary, and the library forbids `unsafe`.
//!
//! `Relaxed` plus a load-max-store peak update are sufficient: the
//! bins read and reset the counters only around single-threaded
//! regions (`jobs = 1`, direct state calls).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};
use std::time::Instant;

/// The counting allocator.
pub struct PeakAlloc;

static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

fn track(delta: i64) {
    let live = LIVE.fetch_add(delta, Ordering::Relaxed) + delta;
    if live > PEAK.load(Ordering::Relaxed) {
        PEAK.store(live, Ordering::Relaxed);
    }
}

// SAFETY: defers every operation to `System` unchanged; the counter
// updates have no effect on allocation behavior.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        track(layout.size() as i64);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(-(layout.size() as i64));
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(
        &self,
        ptr: *mut u8,
        layout: Layout,
        new_size: usize,
    ) -> *mut u8 {
        track(new_size as i64 - layout.size() as i64);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Peak live-byte growth and wall seconds of one closure run: the
/// high-water mark is reset to the current live count first, so the
/// figure is growth above entry, not process-lifetime peak.
pub fn peak_region<R>(f: impl FnOnce() -> R) -> (R, u64, f64) {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let t0 = Instant::now();
    let result = f();
    let secs = t0.elapsed().as_secs_f64();
    let peak = (PEAK.load(Ordering::Relaxed) - base).max(0) as u64;
    (result, peak, secs)
}
