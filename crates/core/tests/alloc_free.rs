//! The steady-state simulation loop does not allocate (DESIGN.md §14).
//!
//! The paper's hit path is a cTLB lookup with no tag check; the model
//! of it, and of every other organization, must not pay for heap
//! traffic the hardware would not. A counting global allocator makes
//! the check exact. Each core replays a fixed prefix of its workload's
//! reference stream: the warm-up pass touches every page the trace
//! will ever touch, so page tables and index maps have done all their
//! growing. The next two passes, one `System::run` window, may then
//! allocate exactly one thing: the `Vec<CoreResult>` it returns. The
//! window is twice as long as everything before it, so even state that
//! grows by amortized doubling (a log appended to on every hit or
//! fill) must reallocate inside it and is caught.

use tdc_core::experiment::CAPACITY_SCALE;
use tdc_core::{OrgKind, System};
use tdc_dram_cache::SystemParams;
use tdc_trace::{
    profiles, MemRef, ParsecTraces, ReplaySource, SyntheticWorkload, TraceSource, WorkloadProfile,
};
use tdc_util::testkit::CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const ORGS: [OrgKind; 6] = [
    OrgKind::NoL3,
    OrgKind::BankInterleave,
    OrgKind::SramTag,
    OrgKind::Tagless,
    OrgKind::TaglessLru,
    OrgKind::Ideal,
];

const SEED: u64 = 2015;

/// A cache of `cache_mb` nominal megabytes at the simulator's capacity
/// scale (mirrors `RunConfig`'s private `params`).
fn params(cache_mb: u64, core_asid: Vec<u32>) -> SystemParams {
    let nominal = cache_mb << 20;
    let mut p = SystemParams::with_cache_capacity(nominal / CAPACITY_SCALE);
    p.tag_nominal_bytes = nominal;
    p.off_pkg.capacity_bytes /= CAPACITY_SCALE;
    p.cores = core_asid.len();
    p.core_asid = core_asid;
    p
}

fn scaled(profile: &WorkloadProfile) -> WorkloadProfile {
    let mut p = profile.clone();
    p.footprint_pages = (p.footprint_pages / CAPACITY_SCALE).max(64);
    p
}

/// The first `pass` references of each core's stream and the cores'
/// address-space ids, wired like the experiment runner's single, mix
/// and PARSEC cells.
fn workload(name: &str, pass: u64) -> (Vec<u32>, Vec<Vec<MemRef>>) {
    let prefix = |mut t: Box<dyn TraceSource>| (0..pass).map(|_| t.next_ref()).collect();
    if let Some(profile) = profiles::spec(name) {
        let t = SyntheticWorkload::new(scaled(profile), SEED, 0);
        (vec![0], vec![prefix(Box::new(t))])
    } else if let Some(four) = profiles::mix(name) {
        let traces = (0..4)
            .map(|i| {
                let seed = SEED ^ ((i as u64 + 1) << 48);
                prefix(Box::new(SyntheticWorkload::new(scaled(four[i]), seed, 0)))
            })
            .collect();
        (vec![0, 1, 2, 3], traces)
    } else {
        let profile = profiles::parsec(name).expect("known workload");
        let parsec = ParsecTraces::with_profile(scaled(profile), SEED);
        let traces = (0..parsec.threads()).map(|t| prefix(Box::new(parsec.thread(t)))).collect();
        (vec![0; 4], traces)
    }
}

/// Checks every organization on `name` with a `cache_mb` cache: after
/// one warm-up pass over `pass` references per core, a two-pass
/// `System::run` window allocates exactly its result vector. The
/// tagless organizations must fill at least `min_fills` pages inside
/// the window, so the miss path is covered, not just the hit path.
fn check(name: &str, cache_mb: u64, pass: u64, min_fills: u64) {
    let (asids, traces) = workload(name, pass);
    let p = params(cache_mb, asids);
    for org in ORGS {
        let sources = traces
            .iter()
            .map(|t| {
                Box::new(ReplaySource::new(t.clone()).expect("non-empty")) as Box<dyn TraceSource>
            })
            .collect();
        let mut sys = System::new(org.build(&p), sources);
        sys.run(pass, 0);
        let before = CountingAlloc::count();
        let cores = sys.run(pass, 2 * pass);
        let allocs = CountingAlloc::count() - before;
        assert!(cores.iter().all(|c| c.refs == 2 * pass));
        let fills = sys.l3().stats().page_fills;
        assert_eq!(
            allocs,
            1,
            "{name} at {cache_mb}MB on {}: {allocs} allocations over {} refs per core; \
             only the returned Vec<CoreResult> may allocate",
            org.label(),
            2 * pass
        );
        if matches!(org, OrgKind::Tagless | OrgKind::TaglessLru) {
            assert!(
                fills >= min_fills,
                "{name} on {}: only {fills} page fills",
                org.label()
            );
        }
    }
}

#[test]
fn mcf_window_is_allocation_free() {
    check("mcf", 1024, 25_000, 0);
}

#[test]
fn mix3_window_is_allocation_free() {
    check("mix3", 128, 25_000, 5_000);
}

#[test]
fn mix5_window_is_allocation_free() {
    check("mix5", 128, 25_000, 5_000);
}

#[test]
fn streamcluster_window_is_allocation_free() {
    check("streamcluster", 1024, 25_000, 0);
}

/// A cache far smaller than the working set: nearly every miss fills
/// a page and evicts one, so per-fill state churns constantly.
#[test]
fn thrashing_mix5_window_is_allocation_free() {
    check("mix5", 32, 4_000, 500);
}
