//! One-call experiment runners for every workload class in the paper.

use crate::energy::EnergyModel;
use crate::metrics::RunReport;
use crate::system::System;
use tdc_dram_cache::{
    BankInterleave, Ideal, L3System, NoL3, SramTagCache, SystemParams, TaglessCache, VictimPolicy,
};
use tdc_sram_cache::TagArrayModel;
use tdc_util::probe::{NoProbe, Phase, Probe};
use tdc_util::PAGE_SIZE;
use tdc_trace::{page_access_counts, profiles, ParsecTraces, SyntheticWorkload, TraceSource, WorkloadProfile};

pub use tdc_trace::TraceFeed;

/// Global capacity/footprint scale of the experiments.
///
/// The paper's testbed simulates 100M-instruction Simpoint slices
/// against a 1GB cache that was warmed over the preceding execution.
/// Running a freshly-built simulator to the same steady state at full
/// scale would require billions of references per data point, so every
/// experiment divides *all* capacities (DRAM cache, off-package memory)
/// and *all* workload footprints by this factor. Ratios — footprint vs.
/// cache size, cache vs. off-package capacity (the BI stride), reuse
/// distances vs. capacity — are preserved, which is what determines the
/// shape of every figure. The SRAM tag-array latency (Table 6) is taken
/// from the *nominal* capacity so the tag-overhead comparison remains at
/// paper scale. Documented in DESIGN.md §2.
pub const CAPACITY_SCALE: u64 = 8;

/// The organizations evaluated in the paper (§4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OrgKind {
    /// Conventional memory system, no DRAM cache (baseline).
    NoL3,
    /// Heterogeneity-oblivious bank interleaving.
    BankInterleave,
    /// 16-way SRAM-tag page cache.
    SramTag,
    /// The tagless cTLB cache, FIFO replacement (default).
    Tagless,
    /// The tagless cache with LRU replacement (Fig. 11).
    TaglessLru,
    /// All data in-package (upper bound).
    Ideal,
}

impl OrgKind {
    /// The comparison set of Figs. 7/9/12 (everything but the LRU
    /// variant), baseline first.
    pub const MAIN: [OrgKind; 5] = [
        OrgKind::NoL3,
        OrgKind::BankInterleave,
        OrgKind::SramTag,
        OrgKind::Tagless,
        OrgKind::Ideal,
    ];

    /// Display label matching the paper's legends.
    pub fn label(&self) -> &'static str {
        match self {
            OrgKind::NoL3 => "No L3",
            OrgKind::BankInterleave => "BI",
            OrgKind::SramTag => "SRAM",
            OrgKind::Tagless => "cTLB",
            OrgKind::TaglessLru => "cTLB-LRU",
            OrgKind::Ideal => "Ideal",
        }
    }

    /// Builds the organization for the given system parameters.
    pub fn build(&self, params: &SystemParams) -> Box<dyn L3System> {
        match self {
            OrgKind::NoL3 => Box::new(NoL3::new(params)),
            OrgKind::BankInterleave => Box::new(BankInterleave::new(params)),
            OrgKind::SramTag => Box::new(SramTagCache::new(params)),
            OrgKind::Tagless => Box::new(TaglessCache::new(params, VictimPolicy::Fifo)),
            OrgKind::TaglessLru => Box::new(TaglessCache::new(params, VictimPolicy::Lru)),
            OrgKind::Ideal => Box::new(Ideal::new(params)),
        }
    }
}

/// Run-length and configuration knobs shared by all experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunConfig {
    /// Master seed; every generator stream derives from it.
    pub seed: u64,
    /// DRAM cache capacity in bytes (1GB default; Fig. 10 sweeps it).
    pub cache_bytes: u64,
    /// Per-core warmup references (excluded from statistics).
    pub warmup_refs: u64,
    /// Per-core measured references.
    pub measured_refs: u64,
}

/// The largest run-length scale factor: 16× full scale is about 38M
/// references per core. `RunConfig::scaled` ignores anything above it
/// and `--scale` rejects it.
pub const MAX_SCALE: f64 = 16.0;

impl RunConfig {
    /// Fast smoke configuration (CI-friendly).
    pub fn quick(seed: u64) -> Self {
        Self {
            seed,
            cache_bytes: 1 << 30,
            warmup_refs: 50_000,
            measured_refs: 150_000,
        }
    }

    /// Full configuration used to regenerate the paper's figures.
    pub fn full(seed: u64) -> Self {
        Self {
            seed,
            cache_bytes: 1 << 30,
            warmup_refs: 800_000,
            measured_refs: 1_600_000,
        }
    }

    /// `full()` with its run lengths multiplied by `factor` (clamped to
    /// sane minimums). A factor outside `(0, MAX_SCALE]`, NaN included,
    /// is ignored: a huge or infinite one would saturate the run lengths
    /// to `u64::MAX`.
    pub fn scaled(seed: u64, factor: f64) -> Self {
        let mut cfg = Self::full(seed);
        if factor > 0.0 && factor <= MAX_SCALE {
            cfg.warmup_refs = ((cfg.warmup_refs as f64 * factor) as u64).max(1_000);
            cfg.measured_refs = ((cfg.measured_refs as f64 * factor) as u64).max(2_000);
        }
        cfg
    }

    /// `full()` scaled by the `TDC_SCALE` environment variable (a float;
    /// e.g. `TDC_SCALE=0.1` for a fast pass) — the knob the bench
    /// harnesses use.
    pub fn from_env(seed: u64) -> Self {
        match std::env::var("TDC_SCALE").ok().and_then(|s| s.parse::<f64>().ok()) {
            Some(f) => Self::scaled(seed, f),
            None => Self::full(seed),
        }
    }

    /// The same configuration with a different cache size.
    pub fn with_cache_bytes(mut self, bytes: u64) -> Self {
        self.cache_bytes = bytes;
        self
    }

    fn params(&self, cores: usize, core_asid: Vec<u32>) -> SystemParams {
        let actual = (self.cache_bytes / CAPACITY_SCALE).max(64 * PAGE_SIZE);
        let mut p = SystemParams::with_cache_capacity(actual);
        p.tag_nominal_bytes = self.cache_bytes;
        p.off_pkg.capacity_bytes /= CAPACITY_SCALE;
        p.cores = cores;
        p.core_asid = core_asid;
        p
    }
}

/// A profile with its footprint scaled by [`CAPACITY_SCALE`].
fn scaled(profile: &WorkloadProfile) -> WorkloadProfile {
    let mut p = profile.clone();
    p.footprint_pages = (p.footprint_pages / CAPACITY_SCALE).max(64);
    p
}

fn finish(
    org: &dyn L3System,
    name: &str,
    workload: &str,
    cores: Vec<crate::system::CoreResult>,
    cache_bytes: u64,
    is_sram: bool,
) -> RunReport {
    let l1_accesses: u64 = cores.iter().map(|c| c.refs).sum();
    let l2_accesses: u64 = cores.iter().map(|c| c.l1_misses).sum();
    let makespan = cores.iter().map(|c| c.cycles).max().unwrap_or(0);
    let leak = if is_sram {
        TagArrayModel::new(cache_bytes).leakage_mw()
    } else {
        0.0
    };
    let energy = EnergyModel::paper_default().report(
        cores.len(),
        makespan,
        l1_accesses,
        l2_accesses,
        org.energy_pj(),
        leak,
    );
    RunReport {
        org: name.to_string(),
        workload: workload.to_string(),
        cores,
        l3: org.stats().clone(),
        in_pkg: org.in_pkg_stats().copied(),
        off_pkg: *org.off_pkg_stats(),
        energy,
    }
}

fn run_system<P: Probe>(
    mut sys: System<P>,
    workload: &str,
    cfg: &RunConfig,
    is_sram: bool,
) -> RunReport {
    let cores = sys.run(cfg.warmup_refs, cfg.measured_refs);
    // Report assembly is bookkeeping time too.
    if sys.probe_mut().prof_enabled() {
        sys.probe_mut().phase_begin(Phase::Bookkeeping);
    }
    let name = sys.l3().name().to_string();
    let report = finish(sys.l3(), &name, workload, cores, cfg.cache_bytes, is_sram);
    if sys.probe_mut().prof_enabled() {
        sys.probe_mut().phase_end(Phase::Bookkeeping);
    }
    report
}

/// Builds `org` with `probe` installed where the organization supports
/// instrumentation (the tagless variants); the other organizations are
/// built uninstrumented — their DRAM traffic is not probed, but the
/// core-side events still flow through the [`System`]'s own probe.
fn build_probed<P: Probe + Clone + 'static>(
    org: OrgKind,
    params: &SystemParams,
    probe: P,
) -> Box<dyn L3System> {
    match org {
        OrgKind::Tagless => Box::new(TaglessCache::with_probe(
            params,
            VictimPolicy::Fifo,
            probe,
        )),
        OrgKind::TaglessLru => Box::new(TaglessCache::with_probe(
            params,
            VictimPolicy::Lru,
            probe,
        )),
        other => other.build(params),
    }
}

fn run_single_with<P: Probe + Clone + 'static>(
    bench: &str,
    org: OrgKind,
    cfg: &RunConfig,
    mut probe: P,
    feed: TraceFeed,
) -> Option<RunReport> {
    if probe.prof_enabled() {
        probe.phase_begin(Phase::Bookkeeping);
    }
    let profile = scaled(profiles::spec(bench)?);
    let params = cfg.params(1, vec![0]);
    let trace = feed.source(SyntheticWorkload::new(profile.clone(), cfg.seed, 0));
    let sys = System::with_probe(
        build_probed(org, &params, probe.clone()),
        vec![trace],
        probe.clone(),
    );
    if probe.prof_enabled() {
        probe.phase_end(Phase::Bookkeeping);
    }
    Some(run_system(sys, profile.name, cfg, org == OrgKind::SramTag))
}

/// Runs one single-programmed SPEC benchmark on one core (Figs. 7/8).
///
/// Returns `None` for an unknown benchmark name.
pub fn run_single(bench: &str, org: OrgKind, cfg: &RunConfig) -> Option<RunReport> {
    run_single_with(bench, org, cfg, NoProbe, TraceFeed::Inline)
}

fn run_mix_with<P: Probe + Clone + 'static>(
    mix_name: &str,
    org: OrgKind,
    cfg: &RunConfig,
    mut probe: P,
    feed: TraceFeed,
) -> Option<RunReport> {
    if probe.prof_enabled() {
        probe.phase_begin(Phase::Bookkeeping);
    }
    let four = profiles::mix(mix_name)?;
    let params = cfg.params(4, vec![0, 1, 2, 3]);
    let traces: Vec<Box<dyn TraceSource>> = four
        .iter()
        .enumerate()
        .map(|(i, p)| {
            feed.source(SyntheticWorkload::new(
                scaled(p),
                cfg.seed ^ ((i as u64 + 1) << 48),
                0,
            ))
        })
        .collect();
    let sys = System::with_probe(
        build_probed(org, &params, probe.clone()),
        traces,
        probe.clone(),
    );
    if probe.prof_enabled() {
        probe.phase_end(Phase::Bookkeeping);
    }
    Some(run_system(
        sys,
        &mix_name.to_uppercase(),
        cfg,
        org == OrgKind::SramTag,
    ))
}

/// Runs one Table 5 multi-programmed mix on four cores with private
/// address spaces (Figs. 9/10/11).
///
/// Returns `None` for an unknown mix name.
pub fn run_mix(mix_name: &str, org: OrgKind, cfg: &RunConfig) -> Option<RunReport> {
    run_mix_with(mix_name, org, cfg, NoProbe, TraceFeed::Inline)
}

fn run_parsec_with<P: Probe + Clone + 'static>(
    bench: &str,
    org: OrgKind,
    cfg: &RunConfig,
    mut probe: P,
    feed: TraceFeed,
) -> Option<RunReport> {
    if probe.prof_enabled() {
        probe.phase_begin(Phase::Bookkeeping);
    }
    let parsec = ParsecTraces::with_profile(scaled(profiles::parsec(bench)?), cfg.seed);
    let params = cfg.params(4, vec![0; 4]);
    let traces: Vec<Box<dyn TraceSource>> = (0..parsec.threads())
        .map(|t| feed.source(parsec.thread(t)))
        .collect();
    let sys = System::with_probe(
        build_probed(org, &params, probe.clone()),
        traces,
        probe.clone(),
    );
    if probe.prof_enabled() {
        probe.phase_end(Phase::Bookkeeping);
    }
    Some(run_system(
        sys,
        parsec.profile().name,
        cfg,
        org == OrgKind::SramTag,
    ))
}

/// Runs one PARSEC benchmark with four threads sharing an address space
/// (Fig. 12).
///
/// Returns `None` for an unknown benchmark name.
pub fn run_parsec(bench: &str, org: OrgKind, cfg: &RunConfig) -> Option<RunReport> {
    run_parsec_with(bench, org, cfg, NoProbe, TraceFeed::Inline)
}

fn run_single_tagless_nc_with<P: Probe + Clone + 'static>(
    bench: &str,
    cfg: &RunConfig,
    threshold: u64,
    mut probe: P,
    feed: TraceFeed,
) -> Option<RunReport> {
    if probe.prof_enabled() {
        probe.phase_begin(Phase::Bookkeeping);
    }
    let profile = scaled(profiles::spec(bench)?);
    let params = cfg.params(1, vec![0]);
    let mut l3 = TaglessCache::with_probe(&params, VictimPolicy::Fifo, probe.clone());

    // Offline profiling pass over the exact trace the run will see.
    let profiling = SyntheticWorkload::new(profile.clone(), cfg.seed, 0);
    let counts = page_access_counts(profiling, cfg.warmup_refs + cfg.measured_refs);
    let mut flagged = 0u64;
    for (vpn, n) in &counts {
        if *n < threshold {
            l3.set_non_cacheable(0, *vpn);
            flagged += 1;
        }
    }
    let _ = flagged;

    let trace = feed.source(SyntheticWorkload::new(profile.clone(), cfg.seed, 0));
    let sys = System::with_probe(Box::new(l3), vec![trace], probe.clone());
    if probe.prof_enabled() {
        probe.phase_end(Phase::Bookkeeping);
    }
    let mut report = run_system(sys, profile.name, cfg, false);
    report.org = "cTLB+NC".to_string();
    Some(report)
}

/// Runs a single-programmed benchmark on the tagless cache with the
/// §5.4 non-cacheable optimization: an offline profiling pass marks
/// every page with fewer than `threshold` accesses as non-cacheable.
///
/// Returns `None` for an unknown benchmark name.
pub fn run_single_tagless_nc(bench: &str, cfg: &RunConfig, threshold: u64) -> Option<RunReport> {
    run_single_tagless_nc_with(bench, cfg, threshold, NoProbe, TraceFeed::Inline)
}

/// Runs one single-programmed benchmark on a custom-built organization
/// (ablation studies: α sweeps, TLB-reach sweeps, GIPT-cost knobs,
/// online fill filters). The builder receives the standard parameters
/// for this configuration and may adjust them.
///
/// Returns `None` for an unknown benchmark name.
pub fn run_single_custom(
    bench: &str,
    cfg: &RunConfig,
    build: impl FnOnce(SystemParams) -> Box<dyn L3System>,
) -> Option<RunReport> {
    let profile = scaled(profiles::spec(bench)?);
    let params = cfg.params(1, vec![0]);
    let l3 = build(params);
    let trace: Box<dyn TraceSource> =
        Box::new(SyntheticWorkload::new(profile.clone(), cfg.seed, 0));
    let sys = System::new(l3, vec![trace]);
    Some(run_system(sys, profile.name, cfg, false))
}

/// The workload half of a simulation cell: which trace generator to
/// drive and how (Figs. 7–13 each enumerate a set of these).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Workload {
    /// A single-programmed SPEC benchmark on one core.
    Spec(String),
    /// A Table 5 multi-programmed four-core mix.
    Mix(String),
    /// A PARSEC benchmark, four threads sharing an address space.
    Parsec(String),
}

impl Workload {
    /// The workload's display name.
    pub fn name(&self) -> &str {
        match self {
            Workload::Spec(n) | Workload::Mix(n) | Workload::Parsec(n) => n,
        }
    }
}

/// One fully specified simulation cell: `(workload, organization,
/// configuration)`. Jobs are **cache-keyable** — [`Job::cache_key`] is
/// injective over everything that influences the simulation outcome —
/// and **deterministic**: a job's result depends only on the job itself
/// (every RNG stream derives from `cfg.seed`), never on when or where
/// it executes. The experiment harness (`tdc-harness`) exploits both to
/// run cells in parallel and share results across figures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Job {
    /// The trace generator to drive.
    pub workload: Workload,
    /// The memory-system organization to simulate.
    pub org: OrgKind,
    /// `Some(threshold)`: run the §5.4 non-cacheable variant instead
    /// (tagless with offline NC profiling; `workload` must be `Spec`).
    pub nc_threshold: Option<u64>,
    /// Run-length and capacity knobs (includes the master seed).
    pub cfg: RunConfig,
}

impl Job {
    /// A plain (workload, org) cell under `cfg`.
    pub fn new(workload: Workload, org: OrgKind, cfg: RunConfig) -> Self {
        Self {
            workload,
            org,
            nc_threshold: None,
            cfg,
        }
    }

    /// The §5.4 non-cacheable study cell on a SPEC benchmark.
    pub fn spec_nc(bench: &str, threshold: u64, cfg: RunConfig) -> Self {
        Self {
            workload: Workload::Spec(bench.to_string()),
            org: OrgKind::Tagless,
            nc_threshold: Some(threshold),
            cfg,
        }
    }

    /// A stable, injective key over every input that determines this
    /// job's result. Two jobs with equal keys produce bit-identical
    /// [`RunReport`]s.
    pub fn cache_key(&self) -> String {
        let class = match &self.workload {
            Workload::Spec(_) => "spec",
            Workload::Mix(_) => "mix",
            Workload::Parsec(_) => "parsec",
        };
        let nc = match self.nc_threshold {
            Some(t) => format!("|nc={t}"),
            None => String::new(),
        };
        format!(
            "{class}:{}|org={:?}{nc}|seed={}|cache={}|warm={}|meas={}",
            self.workload.name(),
            self.org,
            self.cfg.seed,
            self.cfg.cache_bytes,
            self.cfg.warmup_refs,
            self.cfg.measured_refs
        )
    }

    /// A short human-readable label for progress reporting.
    pub fn label(&self) -> String {
        let suffix = match self.nc_threshold {
            Some(t) => format!("+NC{t}"),
            None => String::new(),
        };
        format!(
            "{}/{}{} @{}MB",
            self.workload.name(),
            self.org.label(),
            suffix,
            self.cfg.cache_bytes >> 20
        )
    }

    /// Runs the cell. `Err` names the unknown workload.
    pub fn execute(&self) -> Result<RunReport, String> {
        self.execute_with(TraceFeed::Inline)
    }

    /// Runs the cell with its trace streams fed `feed`'s way. The report
    /// is the same for every feed: only the thread that generates the
    /// streams differs.
    pub fn execute_with(&self, feed: TraceFeed) -> Result<RunReport, String> {
        run_job(self, NoProbe, feed)
    }
}

/// Runs a cell with `probe` installed through the whole stack: core
/// retire/stall epochs, cTLB levels, the tagless miss handler, and both
/// DRAM devices all report cycle-stamped events into clones of it.
///
/// Non-tagless organizations only produce the core-side events.
/// `Err` names the unknown workload.
///
/// The streams are generated inline, so a probe that times phases sees
/// trace generation on the simulation thread.
pub fn run_job_probed<P: Probe + Clone + 'static>(
    job: &Job,
    probe: P,
) -> Result<RunReport, String> {
    run_job(job, probe, TraceFeed::Inline)
}

fn run_job<P: Probe + Clone + 'static>(
    job: &Job,
    probe: P,
    feed: TraceFeed,
) -> Result<RunReport, String> {
    let missing = || format!("unknown workload {:?}", job.workload);
    let cfg = &job.cfg;
    match (&job.workload, job.nc_threshold) {
        (Workload::Spec(b), Some(t)) => {
            run_single_tagless_nc_with(b, cfg, t, probe, feed).ok_or_else(missing)
        }
        (Workload::Spec(b), None) => {
            run_single_with(b, job.org, cfg, probe, feed).ok_or_else(missing)
        }
        (Workload::Mix(m), None) => run_mix_with(m, job.org, cfg, probe, feed).ok_or_else(missing),
        (Workload::Parsec(b), None) => {
            run_parsec_with(b, job.org, cfg, probe, feed).ok_or_else(missing)
        }
        (w, Some(_)) => Err(format!("non-cacheable study needs a Spec workload, got {w:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> RunConfig {
        RunConfig {
            seed: 7,
            cache_bytes: 64 << 20,
            warmup_refs: 2_000,
            measured_refs: 6_000,
        }
    }

    #[test]
    fn non_finite_and_non_positive_scales_mean_full_scale() {
        let full = RunConfig::full(7);
        let hostile = [f64::INFINITY, f64::NEG_INFINITY, f64::NAN, 0.0, -1.0, 1e300, 17.0];
        for f in hostile {
            let cfg = RunConfig::scaled(7, f);
            assert_eq!(cfg.warmup_refs, full.warmup_refs, "factor {f}");
            assert_eq!(cfg.measured_refs, full.measured_refs, "factor {f}");
        }
        let quarter = RunConfig::scaled(7, 0.25);
        assert_eq!(quarter.measured_refs, full.measured_refs / 4);
        let largest = RunConfig::scaled(7, MAX_SCALE);
        assert_eq!(largest.measured_refs, full.measured_refs * 16);
    }

    #[test]
    fn unknown_names_return_none() {
        let cfg = tiny();
        assert!(run_single("nosuch", OrgKind::NoL3, &cfg).is_none());
        assert!(run_mix("MIX99", OrgKind::NoL3, &cfg).is_none());
        assert!(run_parsec("raytrace", OrgKind::NoL3, &cfg).is_none());
    }

    #[test]
    fn single_runs_all_orgs() {
        let cfg = tiny();
        for org in OrgKind::MAIN {
            let r = run_single("omnetpp", org, &cfg).expect("known benchmark");
            assert_eq!(r.org, org.build(&cfg.params(1, vec![0])).name());
            assert!(r.ipc_total() > 0.0, "{} produced zero IPC", r.org);
            assert!(r.energy.total_j > 0.0);
        }
    }

    #[test]
    fn mix_runs_four_cores() {
        let cfg = tiny();
        let r = run_mix("MIX1", OrgKind::Tagless, &cfg).expect("known mix");
        assert_eq!(r.cores.len(), 4);
        assert_eq!(r.workload, "MIX1");
    }

    #[test]
    fn parsec_runs_shared_space() {
        let cfg = tiny();
        let r = run_parsec("streamcluster", OrgKind::Tagless, &cfg).expect("known benchmark");
        assert_eq!(r.cores.len(), 4);
    }

    #[test]
    fn nc_study_runs() {
        let cfg = tiny();
        let r = run_single_tagless_nc("GemsFDTD", &cfg, 32).expect("known benchmark");
        assert_eq!(r.org, "cTLB+NC");
        // Some accesses bypass the cache.
        assert!(r.l3.case_hit_miss > 0 || r.l3.demand_reads > 0);
    }

    #[test]
    fn custom_builder_is_honored() {
        let cfg = tiny();
        let r = run_single_custom("milc", &cfg, |mut p| {
            p.alpha = 8;
            Box::new(TaglessCache::new(&p, VictimPolicy::Lru))
        })
        .expect("known benchmark");
        assert_eq!(r.org, "cTLB-LRU");
    }

    #[test]
    fn seeds_are_reproducible() {
        let cfg = tiny();
        let a = run_single("milc", OrgKind::Tagless, &cfg).unwrap();
        let b = run_single("milc", OrgKind::Tagless, &cfg).unwrap();
        assert_eq!(a.ipc_total(), b.ipc_total());
        assert_eq!(a.l3.demand_reads, b.l3.demand_reads);
    }

    #[test]
    fn job_executes_like_direct_runner() {
        let cfg = tiny();
        let direct = run_single("milc", OrgKind::Tagless, &cfg).unwrap();
        let job = Job::new(Workload::Spec("milc".into()), OrgKind::Tagless, cfg);
        let via_job = job.execute().unwrap();
        assert_eq!(direct.ipc_total(), via_job.ipc_total());
        assert_eq!(direct.l3.demand_reads, via_job.l3.demand_reads);
    }

    #[test]
    fn prefetch_feed_reports_equal_inline_for_every_cell_kind() {
        let cfg = tiny();
        let jobs = [
            Job::new(Workload::Spec("mcf".into()), OrgKind::Tagless, cfg),
            Job::new(Workload::Mix("MIX3".into()), OrgKind::SramTag, cfg),
            Job::new(Workload::Parsec("swaptions".into()), OrgKind::Tagless, cfg),
            Job::spec_nc("GemsFDTD", 32, cfg),
        ];
        for job in jobs {
            let inline = job.execute_with(TraceFeed::Inline).unwrap();
            let prefetched = job.execute_with(TraceFeed::Prefetch).unwrap();
            assert_eq!(inline, prefetched, "{}", job.label());
        }
    }

    #[test]
    fn cache_keys_separate_distinct_cells() {
        let cfg = tiny();
        let a = Job::new(Workload::Spec("milc".into()), OrgKind::Tagless, cfg);
        let b = Job::new(Workload::Spec("milc".into()), OrgKind::SramTag, cfg);
        let c = Job::new(Workload::Mix("milc".into()), OrgKind::Tagless, cfg);
        let d = Job::new(
            Workload::Spec("milc".into()),
            OrgKind::Tagless,
            cfg.with_cache_bytes(1 << 28),
        );
        let e = Job::spec_nc("milc", 32, cfg);
        let keys = [a.cache_key(), b.cache_key(), c.cache_key(), d.cache_key(), e.cache_key()];
        for i in 0..keys.len() {
            for j in i + 1..keys.len() {
                assert_ne!(keys[i], keys[j]);
            }
        }
        assert_eq!(a.cache_key(), a.clone().cache_key());
    }

    #[test]
    fn job_rejects_unknown_and_malformed() {
        let cfg = tiny();
        assert!(Job::new(Workload::Spec("nosuch".into()), OrgKind::NoL3, cfg)
            .execute()
            .is_err());
        assert!(Job {
            workload: Workload::Mix("MIX1".into()),
            org: OrgKind::Tagless,
            nc_threshold: Some(8),
            cfg,
        }
        .execute()
        .is_err());
    }

    #[test]
    fn run_config_env_scaling() {
        // No env var: full config.
        let f = RunConfig::full(1);
        let e = RunConfig::from_env(1);
        assert!(e.measured_refs == f.measured_refs || std::env::var("TDC_SCALE").is_ok());
        assert!(RunConfig::quick(1).measured_refs < f.measured_refs);
        // A huge finite factor means full scale, not a run that never
        // ends. Nothing else in this crate sets the variable.
        let outer = std::env::var_os("TDC_SCALE");
        std::env::set_var("TDC_SCALE", "1e300");
        let huge = RunConfig::from_env(1);
        match outer {
            Some(v) => std::env::set_var("TDC_SCALE", v),
            None => std::env::remove_var("TDC_SCALE"),
        }
        assert_eq!(huge.measured_refs, f.measured_refs);
    }
}
