//! A pass-through global allocator that counts, for the bins that gate
//! allocation figures (`hotpath`, `report`, `spill`): allocator calls
//! and requested bytes (a `realloc` counts one call of `new_size`
//! bytes) and the high-water mark of live bytes. A bin includes this
//! file with `#[path]`, which installs the allocator: it must live in
//! the binary, and the library forbids `unsafe`.
//!
//! `Relaxed` plus a load-max-store peak update are sufficient: the
//! bins read and reset the counters only around single-threaded
//! regions (`jobs = 1`, direct state calls).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::time::Instant;

struct CountingAlloc;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

/// Counts one call requesting `requested` bytes, if any, and moves the
/// live count by `live_delta`.
fn track(requested: Option<usize>, live_delta: i64) {
    if let Some(size) = requested {
        CALLS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }
    let live = LIVE.fetch_add(live_delta, Ordering::Relaxed) + live_delta;
    if live > PEAK.load(Ordering::Relaxed) {
        PEAK.store(live, Ordering::Relaxed);
    }
}

// SAFETY: defers every operation to `System` unchanged; the counter
// updates have no effect on allocation behavior.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        track(Some(layout.size()), layout.size() as i64);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(None, -(layout.size() as i64));
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(
        &self,
        ptr: *mut u8,
        layout: Layout,
        new_size: usize,
    ) -> *mut u8 {
        track(Some(new_size), new_size as i64 - layout.size() as i64);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// What one closure run cost. Each bin reads only the figures it
/// reports, so some go unread in every bin.
#[allow(dead_code)]
#[derive(Debug, Clone, Copy)]
pub struct Region {
    /// Allocator calls.
    pub allocs: u64,
    /// Bytes requested.
    pub bytes: u64,
    /// Peak live-byte growth above the live count at entry (not the
    /// process-lifetime peak).
    pub peak: u64,
    /// Wall seconds.
    pub secs: f64,
}

/// Runs `f` once and measures it; the high-water mark is reset to the
/// current live count first.
pub fn measured<R>(f: impl FnOnce() -> R) -> (R, Region) {
    let (calls, bytes) =
        (CALLS.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed));
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let t0 = Instant::now();
    let result = f();
    let secs = t0.elapsed().as_secs_f64();
    let region = Region {
        allocs: CALLS.load(Ordering::Relaxed) - calls,
        bytes: BYTES.load(Ordering::Relaxed) - bytes,
        peak: (PEAK.load(Ordering::Relaxed) - base).max(0) as u64,
        secs,
    };
    (result, region)
}
