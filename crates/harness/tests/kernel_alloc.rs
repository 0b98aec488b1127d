//! Every simulator micro kernel runs allocation-free once warm
//! (DESIGN.md §14). The kernels are the bench registry's timed
//! closures: the paper's access path, DRAM timing, the on-die caches,
//! trace generation and the observability histogram. A counting global
//! allocator makes the check exact — it sees every allocation the
//! closure makes, through any call chain, on this thread.

use std::hint::black_box;
use tdc_harness::kernels::{micro_kernels, Kernel};
use tdc_util::testkit::CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Groups whose timed closures must not allocate at all.
const SIMULATOR_GROUPS: [&str; 5] = [
    "dram_controller",
    "access_path",
    "set_assoc_cache",
    "trace_gen",
    "obs",
];

/// Kernels that allocate by design: request handling (JSON in, JSON
/// out), a whole lint run, and a whole scheduler batch (threads,
/// deques, result slots). They measure those costs; they are not
/// simulator paths.
const ALLOCATING_BY_DESIGN: [&str; 3] = [
    "serve/warm_hit",
    "lint/workspace_scan",
    "pool/steal_imbalanced",
];

/// `tagless_cold_fill` touches a new page on every call, so the page
/// table, the cTLB and GIPT index maps keep growing; each growable
/// array doubles at most once over a window as long as the warm-up.
/// One allocation per fill would be `window` allocations instead.
const COLD_FILL_GROWTH_BOUND: u64 = 16;

/// Allocations made by `window` calls of `kernel`, after `window`
/// warm-up calls (the bench loop's own warm-up is `iters / 10`).
fn window_allocations(kernel: &Kernel, window: u64) -> u64 {
    let mut f = kernel.instantiate();
    for _ in 0..window {
        black_box(f());
    }
    let before = CountingAlloc::count();
    for _ in 0..window {
        black_box(f());
    }
    CountingAlloc::count() - before
}

#[test]
fn simulator_kernels_do_not_allocate_when_warm() {
    let mut checked = 0;
    for kernel in micro_kernels() {
        let id = kernel.id();
        if ALLOCATING_BY_DESIGN.contains(&id.as_str()) {
            continue;
        }
        assert!(
            SIMULATOR_GROUPS.contains(&kernel.group),
            "kernel {id} is in no known group: list it as a simulator kernel \
             or as allocating by design"
        );
        let window = kernel.iters / 10;
        let allocs = window_allocations(&kernel, window);
        if id == "access_path/tagless_cold_fill" {
            assert!(
                allocs <= COLD_FILL_GROWTH_BOUND,
                "{id}: {allocs} allocations over {window} warm calls exceed \
                 amortized growth ({COLD_FILL_GROWTH_BOUND})"
            );
        } else {
            assert_eq!(
                allocs, 0,
                "{id}: {allocs} allocations over {window} warm calls"
            );
        }
        checked += 1;
    }
    assert_eq!(checked, 12, "simulator kernel set changed");
}

#[test]
fn allocating_kernels_are_registered() {
    let ids: Vec<String> = micro_kernels().iter().map(Kernel::id).collect();
    for id in ALLOCATING_BY_DESIGN {
        assert!(ids.iter().any(|k| k == id), "{id} is no longer registered");
    }
}

#[test]
fn the_counter_sees_an_allocation() {
    let before = CountingAlloc::count();
    black_box(format!("{}", black_box(7)));
    assert!(CountingAlloc::count() > before);
}
