//! Proves the disabled tracing path allocates nothing.
//!
//! The instrumentation sits inside per-layer executor loops and the
//! serving hot path, so when tracing is off a span probe must cost a
//! flag load — in particular, zero heap traffic. A counting global
//! allocator makes that a hard assertion rather than a benchmark.
//!
//! The count is per thread: the test harness runs tests on parallel
//! threads, and an allocation a sibling test makes inside the counted
//! window must not be charged to the thread under test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    /// Allocations made by the current thread. Const-initialised and
    /// without a destructor, so touching it from inside the allocator
    /// never allocates or fails.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Allocations the calling thread has made so far.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

// SAFETY: delegates every operation to the system allocator unchanged;
// the counter increment has no effect on allocation semantics.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: forwarded verbatim; caller upholds the layout contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; `ptr` came from this allocator's
        // `alloc` with the same layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Serializes the tests: each one flips process-wide flags (tracing
/// enabled, series enabled, sampling divisor) that would race under
/// the parallel test harness.
fn flag_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn disabled_tracing_allocates_nothing_per_span() {
    let _flags = flag_lock();
    rtoss_obs::set_enabled(false);
    // Warm up the thread-local state outside the counted window.
    drop(rtoss_obs::span("warmup"));
    rtoss_obs::emit_instant("warmup", Vec::new());

    let before = allocations();
    for i in 0..10_000u64 {
        let _guard = rtoss_obs::span("probe");
        // The lazy variants must not even run their closures when
        // disabled — these would allocate a String and a Vec if run.
        let _lazy = rtoss_obs::span_lazy(|| {
            (
                format!("expensive-{i}"),
                vec![("i", rtoss_obs::ArgValue::U64(i))],
            )
        });
        rtoss_obs::emit_instant("probe", Vec::new());
        rtoss_obs::emit_instant_lazy(|| {
            (
                format!("expensive-{i}"),
                vec![("i", rtoss_obs::ArgValue::U64(i))],
            )
        });
        std::hint::black_box(i);
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "disabled span/instant probes must not touch the heap"
    );
}

#[test]
fn suppressed_lazy_instants_allocate_nothing_with_tracing_on() {
    let _flags = flag_lock();
    rtoss_obs::set_enabled(true);
    // Keep 1 in u64::MAX sampling roots: root 0 is the only kept one,
    // so consume it outside the counted window — every scope after it
    // is a suppressing scope and must cost nothing.
    rtoss_obs::set_sample_every(u64::MAX);
    drop(rtoss_obs::batch_scope());

    let before = allocations();
    for i in 0..10_000u64 {
        let scope = rtoss_obs::batch_scope();
        assert!(!scope.recording(), "sampling must suppress this scope");
        rtoss_obs::emit_instant_lazy(|| {
            (
                format!("expensive-{i}"),
                vec![("i", rtoss_obs::ArgValue::U64(i))],
            )
        });
        std::hint::black_box(i);
    }
    let after = allocations();
    rtoss_obs::set_sample_every(1);
    rtoss_obs::set_enabled(false);
    assert_eq!(
        after - before,
        0,
        "suppressed lazy instants must not run their closures"
    );
}

#[test]
fn disabled_series_recorders_allocate_nothing_per_sample() {
    use rtoss_obs::timeseries::{
        WindowSpec, WindowedCounter, WindowedGauge, WindowedHistogram, WindowedSet,
    };
    let _flags = flag_lock();
    rtoss_obs::set_series_enabled(false);
    // Construction allocates; only the per-sample record path must not.
    let spec = WindowSpec::default();
    let counter = WindowedCounter::new(spec);
    let set = WindowedSet::new(spec, &["offered", "admitted"]);
    let gauge = WindowedGauge::new(spec);
    let histogram = WindowedHistogram::new(spec, &[100, 1_000, 10_000]);

    let before = allocations();
    for i in 0..10_000u64 {
        let ts = i * 1_000_000;
        counter.add_at(ts, i);
        set.incr_pair_at(ts, 0, 1);
        gauge.set_at(ts, i as f64);
        histogram.record_at(ts, i);
        std::hint::black_box(i);
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "disabled windowed-series probes must not touch the heap"
    );
}
