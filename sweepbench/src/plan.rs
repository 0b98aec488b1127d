//! The three workloads as job plans, and the public-API construction of
//! one simulation cell that the traced run and the set-up timer drive.

use std::collections::HashSet;
use std::sync::Arc;
use tdc_core::experiment::{Job, OrgKind, RunConfig, Workload as Cell, CAPACITY_SCALE};
use tdc_core::RunReport;
use tdc_dram_cache::{L3System, SystemParams, TaglessCache, VictimPolicy};
use tdc_harness::figures::{jobs_for, FigureData};
use tdc_harness::ALL_IDS;
use tdc_trace::WorkloadProfile;
use tdc_trace::{page_access_counts, profiles, ParsecTraces, SyntheticWorkload, TraceSource};
use tdc_util::{geomean, rng::SplitMix64, Json, Rng, PAGE_SIZE};

/// Paper geomean IPC gains over No L3, in percent, for BI / SRAM / cTLB.
const FIG07_PAPER_PCT: [f64; 3] = [4.0, 16.4, 24.9];
const FIG09_PAPER_PCT: [f64; 3] = [11.2, 34.9, 38.4];
const GAIN_ORGS: [OrgKind; 3] = [OrgKind::BankInterleave, OrgKind::SramTag, OrgKind::Tagless];

/// The capacity-pressure mixes: working sets at or above the cache.
const PRESSURE_MIXES: [&str; 2] = ["MIX3", "MIX5"];

/// Seeds each resident program runs under: one seed's cTLB gain swings
/// by several percent at this run length.
const RESIDENT_SEEDS: usize = 8;

/// The programs whose working sets the on-die caches mostly hold.
const RESIDENT_PROGRAMS: [fn() -> Cell; 3] = [
    || Cell::Parsec("swaptions".into()),
    || Cell::Parsec("fluidanimate".into()),
    || Cell::Spec("sphinx3".into()),
];

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The whole figure plan through one two-worker harness.
    Sweep,
    /// The 4-core MIX3/MIX5 cells of Figs 9-11 on one worker.
    MixPressure,
    /// L2-resident PARSEC programs plus sphinx3, on cTLB and No L3, one
    /// worker.
    Resident,
}

/// One harness step of a pass: a batch of cells, or one figure.
pub enum Step {
    /// `Harness::run_all` over these jobs.
    Batch(Vec<Job>),
    /// `figures::generate` of this id (which requests the figure's own
    /// cells first, exactly as `tdc all` does).
    Figure(&'static str),
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "sweep" => Some(Self::Sweep),
            "mix_pressure" => Some(Self::MixPressure),
            "resident" => Some(Self::Resident),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Self::Sweep => "sweep",
            Self::MixPressure => "mix_pressure",
            Self::Resident => "resident",
        }
    }

    /// Run-length scale of `RunConfig::scaled` unless `--scale` is given.
    /// The resident programs run longer: at 0.1 their cTLB cells are
    /// still dominated by cold page fills (20-40% below No L3), and their
    /// simulated gains swing by several points from seed to seed.
    pub fn default_scale(self) -> f64 {
        match self {
            Self::Sweep | Self::MixPressure => 0.1,
            Self::Resident => 0.25,
        }
    }

    /// Harness worker threads.
    pub fn workers(self) -> usize {
        match self {
            Self::Sweep => 2,
            Self::MixPressure | Self::Resident => 1,
        }
    }

    /// Passes every run makes however short `--seconds` is, so that the
    /// cell-time tail always has a fixed percentile with at least ten
    /// cells beyond it.
    pub fn min_passes(self) -> usize {
        match self {
            Self::Sweep => 1,
            Self::MixPressure => 3,
            Self::Resident => 2,
        }
    }

    /// The harness steps of one pass, in order. The sweep is `tdc all`;
    /// the other workloads run their cells in one batch and then
    /// assemble Table 6, the one figure that needs no cells, so every
    /// workload drives the figure and sink layers.
    pub fn steps(self, cfg: &RunConfig) -> Vec<Step> {
        match self {
            Self::Sweep => ALL_IDS.iter().map(|id| Step::Figure(id)).collect(),
            Self::MixPressure | Self::Resident => {
                vec![Step::Batch(self.cells(cfg)), Step::Figure("table6")]
            }
        }
    }

    /// The distinct cells of one pass, in first-request order.
    pub fn cells(self, cfg: &RunConfig) -> Vec<Job> {
        match self {
            Self::Sweep => {
                let mut seen = HashSet::new();
                ALL_IDS
                    .iter()
                    .flat_map(|id| jobs_for(id, cfg).expect("known figure id"))
                    .filter(|job| seen.insert(job.cache_key()))
                    .collect()
            }
            Self::MixPressure => {
                let gb = 1u64 << 30;
                let mut jobs = Vec::new();
                for m in PRESSURE_MIXES {
                    let mix = |org, bytes| {
                        Job::new(Cell::Mix(m.into()), org, cfg.with_cache_bytes(bytes))
                    };
                    jobs.push(mix(OrgKind::NoL3, gb));
                    for bytes in [gb / 4, gb / 2, gb] {
                        for org in GAIN_ORGS {
                            jobs.push(mix(org, bytes));
                        }
                    }
                    for bytes in [gb / 2, gb] {
                        jobs.push(mix(OrgKind::TaglessLru, bytes));
                    }
                }
                jobs
            }
            Self::Resident => {
                // Derived seeds, so no two cells share a stream except a
                // cTLB cell and its No-L3 twin.
                let mut seeds = SplitMix64::new(cfg.seed);
                let mut jobs = Vec::new();
                for cell in RESIDENT_PROGRAMS {
                    for _ in 0..RESIDENT_SEEDS {
                        let cfg = RunConfig {
                            seed: seeds.next_u64(),
                            ..*cfg
                        };
                        for org in [OrgKind::Tagless, OrgKind::NoL3] {
                            jobs.push(Job::new(cell(), org, cfg));
                        }
                    }
                }
                jobs
            }
        }
    }

    /// The first cell a pass simulates, found as the pass finds it: the
    /// sweep asks each figure in turn for its cells, as `tdc all` does;
    /// the other workloads build their one batch.
    pub fn first_cell(self, cfg: &RunConfig) -> Option<Job> {
        match self {
            Self::Sweep => ALL_IDS
                .iter()
                .find_map(|id| jobs_for(id, cfg)?.into_iter().next()),
            Self::MixPressure | Self::Resident => self.cells(cfg).into_iter().next(),
        }
    }

    /// Mean absolute gap, in percentage points, between the geomean IPC
    /// gains over No L3 this pass measured and the paper's (simulated
    /// time). The sweep reads Figs 7 and 9 as the program printed them;
    /// `mix_pressure` compares its two mixes at 1GB with Fig 9;
    /// `resident`, which has no per-program paper reference, compares the
    /// geomean cTLB gain of its programs with Fig 7's cTLB geomean, so it
    /// tracks changes to the model rather than its fidelity.
    pub fn paper_gain_err_pp(
        self,
        figures: &[FigureData],
        reports: &[(Job, Arc<RunReport>)],
    ) -> Result<f64, String> {
        let mut gaps = Vec::new();
        let mut push =
            |measured: f64, paper: f64| gaps.push(((measured - 1.0) * 100.0 - paper).abs());
        match self {
            Self::Sweep => {
                for (id, key, paper) in [
                    ("fig07", "geomean.normalized_ipc", FIG07_PAPER_PCT),
                    ("fig09", "geomean_normalized_ipc", FIG09_PAPER_PCT),
                ] {
                    let fig = figures
                        .iter()
                        .find(|f| f.id == id)
                        .ok_or(format!("{id} missing"))?;
                    let mut node = &fig.json;
                    for part in key.split('.') {
                        node = node.get(part).ok_or(format!("{id} lacks {key}"))?;
                    }
                    for (org, p) in GAIN_ORGS.iter().zip(paper) {
                        let v = node.get(org.label()).and_then(Json::as_f64);
                        push(v.ok_or(format!("{id} lacks {}", org.label()))?, p);
                    }
                }
            }
            Self::MixPressure => {
                let at_1gb = |m: &str, org: OrgKind| {
                    find(reports, |j| {
                        j.workload.name() == m && j.org == org && j.cfg.cache_bytes == 1 << 30
                    })
                };
                for (org, p) in GAIN_ORGS.iter().zip(FIG09_PAPER_PCT) {
                    let mut ratios = Vec::new();
                    for m in PRESSURE_MIXES {
                        ratios.push(at_1gb(m, *org)?.normalized_ipc(at_1gb(m, OrgKind::NoL3)?));
                    }
                    push(geomean(&ratios), p);
                }
            }
            Self::Resident => {
                let mut ratios = Vec::new();
                for pair in reports.chunks(2) {
                    let [(_, ctlb), (_, no_l3)] = pair else {
                        return Err("resident cells come in cTLB/No-L3 pairs".into());
                    };
                    ratios.push(ctlb.normalized_ipc(no_l3));
                }
                push(geomean(&ratios), FIG07_PAPER_PCT[2]);
            }
        }
        Ok(gaps.iter().sum::<f64>() / gaps.len() as f64)
    }
}

fn find(
    reports: &[(Job, Arc<RunReport>)],
    pred: impl Fn(&Job) -> bool,
) -> Result<&RunReport, String> {
    reports
        .iter()
        .find(|(j, _)| pred(j))
        .map(|(_, r)| &**r)
        .ok_or_else(|| "paper-gain cell missing".to_string())
}

/// The inputs of one cell, built from the simulator's public parts the
/// same way `Job::execute` builds them.
pub struct CellParts {
    pub params: SystemParams,
    pub traces: Vec<Box<dyn TraceSource>>,
}

/// `RunConfig`'s capacity scaling (DESIGN.md §2), applied to `cores`.
fn params(cfg: &RunConfig, core_asid: Vec<u32>) -> SystemParams {
    let actual = (cfg.cache_bytes / CAPACITY_SCALE).max(64 * PAGE_SIZE);
    let mut p = SystemParams::with_cache_capacity(actual);
    p.tag_nominal_bytes = cfg.cache_bytes;
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

fn spec_profile(name: &str) -> Result<WorkloadProfile, String> {
    profiles::spec(name)
        .map(scaled)
        .ok_or_else(|| format!("unknown SPEC program {name}"))
}

/// Trace sources and system parameters for `job`.
pub fn cell_parts(job: &Job) -> Result<CellParts, String> {
    let cfg = &job.cfg;
    let (params, traces) = match &job.workload {
        Cell::Spec(b) => {
            let trace: Box<dyn TraceSource> =
                Box::new(SyntheticWorkload::new(spec_profile(b)?, cfg.seed, 0));
            (params(cfg, vec![0]), vec![trace])
        }
        Cell::Mix(m) => {
            let four = profiles::mix(m).ok_or_else(|| format!("unknown mix {m}"))?;
            let traces = four
                .iter()
                .enumerate()
                .map(|(i, p)| -> Box<dyn TraceSource> {
                    Box::new(SyntheticWorkload::new(
                        scaled(p),
                        cfg.seed ^ ((i as u64 + 1) << 48),
                        0,
                    ))
                })
                .collect();
            (params(cfg, vec![0, 1, 2, 3]), traces)
        }
        Cell::Parsec(b) => {
            let profile =
                profiles::parsec(b).ok_or_else(|| format!("unknown PARSEC program {b}"))?;
            let parsec = ParsecTraces::with_profile(scaled(profile), cfg.seed);
            let traces = (0..parsec.threads())
                .map(|t| -> Box<dyn TraceSource> { Box::new(parsec.thread(t)) })
                .collect();
            (params(cfg, vec![0; 4]), traces)
        }
    };
    Ok(CellParts { params, traces })
}

/// The L3 organization of `job`: `OrgKind::build`, or for the §5.4
/// non-cacheable study a FIFO tagless cache with every page touched
/// fewer than the threshold times (offline profiling pass) marked
/// non-cacheable.
pub fn build_org(job: &Job, params: &SystemParams) -> Result<Box<dyn L3System>, String> {
    let Some(threshold) = job.nc_threshold else {
        return Ok(job.org.build(params));
    };
    let Cell::Spec(b) = &job.workload else {
        return Err(format!(
            "non-cacheable study needs a SPEC program, got {:?}",
            job.workload
        ));
    };
    let cfg = &job.cfg;
    let mut l3 = TaglessCache::new(params, VictimPolicy::Fifo);
    let profiling = SyntheticWorkload::new(spec_profile(b)?, cfg.seed, 0);
    for (vpn, n) in page_access_counts(profiling, cfg.warmup_refs + cfg.measured_refs) {
        if n < threshold {
            l3.set_non_cacheable(0, vpn);
        }
    }
    Ok(Box::new(l3))
}
