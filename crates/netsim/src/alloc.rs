//! A counting global allocator for allocation-budget tests and peak-RSS
//! style memory reporting without any OS-specific probing.
//!
//! [`CountingAlloc`] wraps the system allocator and keeps three relaxed
//! atomic counters: total allocation calls, currently live bytes, and
//! the high-water mark of live bytes. It is a zero-sized type, so
//! installing it costs nothing beyond the counter updates.
//!
//! It is intentionally **not** installed by the library: a
//! `#[global_allocator]` in a library would be forced on every
//! downstream binary. Instead, the consumers that want numbers install
//! it themselves:
//!
//! * `tests/alloc_gate.rs` (and `tests/collective_churn.rs`) — prove
//!   the steady-state event loop performs **zero** heap allocations
//!   once pools are warm;
//! * the `xdcbench` repository benchmark — reports `peak_heap_mb` and
//!   `sim.alloc_calls` per workload.
//!
//! Counters are process-global; concurrent tests would interleave
//! their counts, which is why the allocation gate lives in its own
//! single-test integration binary.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static TRAP: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

/// System-allocator wrapper that counts calls and live/peak bytes.
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: netsim::alloc::CountingAlloc = netsim::alloc::CountingAlloc;
/// ```
pub struct CountingAlloc;

impl CountingAlloc {
    /// Total `alloc`/`realloc` calls since process start.
    pub fn alloc_calls() -> u64 {
        ALLOC_CALLS.load(Relaxed)
    }

    /// Bytes currently allocated and not yet freed.
    pub fn live_bytes() -> u64 {
        LIVE_BYTES.load(Relaxed)
    }

    /// High-water mark of [`Self::live_bytes`].
    pub fn peak_bytes() -> u64 {
        PEAK_BYTES.load(Relaxed)
    }

    /// Reset the high-water mark to the current live bytes, so the next
    /// [`Self::peak_bytes`] reads the peak of one phase in isolation
    /// (e.g. one benchmark scenario) instead of the process lifetime.
    pub fn reset_peak() {
        PEAK_BYTES.store(LIVE_BYTES.load(Relaxed), Relaxed);
    }

    /// Debugging aid: print a backtrace for each of the next `n`
    /// allocations, identifying hot-path allocation sites. Printing
    /// (not panicking) because unwinding out of the global allocator
    /// aborts the process before the backtrace is shown.
    #[doc(hidden)]
    pub fn trap_next_allocs(n: u64) {
        TRAP.store(n, Relaxed);
    }

    /// [`Self::trap_next_allocs`] for a single allocation.
    #[doc(hidden)]
    pub fn trap_next_alloc() {
        Self::trap_next_allocs(1);
    }

    fn on_alloc(bytes: u64) {
        if TRAP.load(Relaxed) > 0 && TRAP.fetch_sub(1, Relaxed) > 0 {
            // force_capture allocates; TRAP was already decremented, so
            // the capture's own allocations either consume further trap
            // budget (harmless: more backtraces of this same site) or
            // pass through.
            let armed = TRAP.swap(0, Relaxed);
            let bt = std::backtrace::Backtrace::force_capture();
            eprintln!("CountingAlloc trap ({bytes} bytes):\n{bt}");
            TRAP.store(armed, Relaxed);
        }
        ALLOC_CALLS.fetch_add(1, Relaxed);
        let live = LIVE_BYTES.fetch_add(bytes, Relaxed) + bytes;
        // Monotone max without a CAS loop: racing updates can only
        // under-report the peak by a transient amount, which is fine
        // for a single-threaded simulator measured at quiesce points.
        if live > PEAK_BYTES.load(Relaxed) {
            PEAK_BYTES.store(live, Relaxed);
        }
    }

    fn on_dealloc(bytes: u64) {
        LIVE_BYTES.fetch_sub(bytes, Relaxed);
    }
}

// SAFETY: defers all allocation to `System`; the counters are plain
// atomics and never touch the allocator themselves.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            Self::on_alloc(layout.size() as u64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        Self::on_dealloc(layout.size() as u64);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            Self::on_alloc(new_size as u64);
            Self::on_dealloc(layout.size() as u64);
        }
        p
    }
}
