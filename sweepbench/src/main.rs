//! End-to-end benchmark of the figure sweep, with per-layer cost
//! attribution from a separate traced run.
//!
//! ```text
//! cargo run --release --manifest-path sweepbench/Cargo.toml -- \
//!     --workload sweep|mix_pressure|resident [--seed N] [--seconds S] [--trace 0|1] [--scale F]
//! ```
//!
//! Run from the repository root. A run repeats whole passes of its
//! workload until `--seconds` have passed (and at least the workload's
//! minimum number of passes), checks every cell's output, and prints one
//! JSON line last: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones, measured with no
//! instrumentation; with `--trace 1` they are the per-layer ones. See
//! `sweepbench/README.md` for the workloads and every metric.

mod layers;
mod plan;

use std::hash::{DefaultHasher, Hash, Hasher};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;
use tdc_core::experiment::Job;
use tdc_core::{DramStats, RunConfig, RunReport};
use tdc_harness::figures::{generate, jobs_for, FigureData};
use tdc_harness::sink::{report_json, write_results};
use tdc_harness::Harness;
use tdc_util::obs::PoolTelemetry;
use tdc_util::{fnv1a_64, median, run_tasks, Json};

use layers::{LayerTime, Totals};
use plan::{Step, Workload};

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 51;
/// Where passes write their artifacts and runs their records.
const OUT_DIR: &str = "sweepbench/out";
/// The checked-in figure snapshot the sweep must reproduce at its scale.
const BASELINE_DIR: &str = "baselines/scale-0.25";

const USAGE: &str = "usage: tdc-sweepbench --workload sweep|mix_pressure|resident \
[--seed N] [--seconds S] [--trace 0|1] [--scale F]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: f64,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut scale) = (tdc_harness::SEED, 10.0, false, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = || format!("bad value {value:?} for {flag}\n{USAGE}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s >= 0.0)
                    .ok_or_else(bad)?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--scale" => {
                scale = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|s: &f64| *s > 0.0)
                        .ok_or_else(bad)?,
                )
            }
            _ => return Err(format!("unknown argument {flag:?}\n{USAGE}")),
        }
    }
    let workload = workload.ok_or_else(|| format!("--workload is required\n{USAGE}"))?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        scale: scale.unwrap_or(workload.default_scale()),
    })
}

/// Host facts recorded with every run.
struct Host {
    nproc: usize,
    mem_total_mb: u64,
}

impl Host {
    fn probe() -> Self {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let mem_total_mb = proc_kb("/proc/meminfo", "MemTotal:") / 1024;
        Self {
            nproc,
            mem_total_mb,
        }
    }
}

/// A `<key> <n> kB` field of a /proc file, in kB (0 when absent).
fn proc_kb(path: &str, key: &str) -> u64 {
    let text = std::fs::read_to_string(path).unwrap_or_default();
    text.lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
        .unwrap_or(0)
}

/// A metric as printed.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What a run found: output checks, metrics, and notes for the record.
#[derive(Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    metrics: Vec<Metric>,
    notes: Vec<String>,
}

impl Outcome {
    fn fail(&mut self, cells: u64, why: String) {
        eprintln!("sweepbench: FAIL {why}");
        self.failed += cells;
        self.errors.push(why);
    }
}

/// One pass of a workload through a fresh harness.
struct Pass {
    wall_ns: f64,
    /// Wall time of each simulated cell, as the harness pool timed it.
    cell_secs: Vec<f64>,
    /// References the simulated cells ran, warmup included, all cores.
    refs: u64,
    /// Every distinct cell with its report, in plan order.
    reports: Vec<(Job, Arc<RunReport>)>,
    figures: Vec<FigureData>,
    digest: u64,
    /// Time in explicit `Harness::run_all` calls and in
    /// `figures::generate`. Only a split pass requests each figure's cells
    /// before generating it, so only there is `figures_ns` assembly alone.
    run_all_ns: f64,
    figures_ns: f64,
    sink_ns: f64,
    requested: usize,
    executed: usize,
    pools: Vec<(PoolTelemetry, Vec<String>)>,
}

/// Runs one pass, writing its artifacts to the fresh directory `dir`.
/// With `split`, each figure's cells are requested before the figure is
/// generated, so figure assembly is timed apart from simulation;
/// otherwise the pass is exactly `tdc all --out <dir>`.
fn run_pass(w: Workload, cfg: &RunConfig, split: bool, dir: &Path) -> Result<Pass, String> {
    let start = Instant::now();
    let h = Harness::new(*cfg, w.workers());
    let (mut figures, mut requested) = (Vec::new(), 0);
    let (mut run_all_ns, mut figures_ns) = (0.0, 0.0);
    for step in w.steps(cfg) {
        match step {
            Step::Batch(jobs) => {
                requested += jobs.len();
                let t = Instant::now();
                h.run_all(&jobs);
                run_all_ns += ns(t);
            }
            Step::Figure(id) => {
                requested += jobs_for(id, cfg).map_or(0, |j| j.len());
                if split {
                    let t = Instant::now();
                    h.run_all(&jobs_for(id, cfg).expect("known figure id"));
                    run_all_ns += ns(t);
                }
                let t = Instant::now();
                figures.push(generate(id, &h).expect("known figure id"));
                figures_ns += ns(t);
            }
        }
    }
    let t = Instant::now();
    write_results(dir, cfg, &figures, &h.results())
        .map_err(|e| format!("writing {}: {e}", dir.display()))?;
    let sink_ns = ns(t);
    let wall_ns = ns(start);
    // Removed while its pages are still dirty, which costs nothing; an
    // artifact flushed to disk costs tens of ms to delete or overwrite
    // on ext4 with online discard, which would time the disk.
    std::fs::remove_dir_all(dir).map_err(|e| format!("removing {}: {e}", dir.display()))?;

    let reports: Vec<(Job, Arc<RunReport>)> = w
        .cells(cfg)
        .into_iter()
        .map(|job| {
            let r = h.cached(&job.cache_key()).expect("every planned cell ran");
            (job, r)
        })
        .collect();
    let refs = reports
        .iter()
        .map(|(j, r)| r.cores.len() as u64 * (j.cfg.warmup_refs + j.cfg.measured_refs))
        .sum();
    let mut all = String::new();
    for (key, r) in h.results() {
        all.push_str(&report_json(&key, &r).to_compact());
    }
    Ok(Pass {
        wall_ns,
        cell_secs: h.timings().into_iter().map(|(_, s)| s).collect(),
        refs,
        reports,
        figures,
        digest: fnv1a_64(&all),
        run_all_ns,
        figures_ns,
        sink_ns,
        requested,
        executed: h.cache_counters().inserts as usize,
        pools: h.pool_batches(),
    })
}

fn ns(since: Instant) -> f64 {
    since.elapsed().as_nanos() as f64
}

/// The output checks every cell must pass.
fn check_report(job: &Job, r: &RunReport) -> Result<(), String> {
    let label = job.label();
    if let Some(c) = r.cores.iter().find(|c| c.refs != job.cfg.measured_refs) {
        return Err(format!(
            "{label}: a core measured {} refs, configured {}",
            c.refs, job.cfg.measured_refs
        ));
    }
    let ipc = r.ipc_total();
    if !(ipc.is_finite() && ipc > 0.0)
        || r.cores.iter().any(|c| !(c.ipc.is_finite() && c.ipc > 0.0))
    {
        return Err(format!("{label}: IPC {ipc} is not finite and positive"));
    }
    if r.l3.in_package_reads > r.l3.demand_reads {
        return Err(format!(
            "{label}: {} in-package reads exceed {} demand reads",
            r.l3.in_package_reads, r.l3.demand_reads
        ));
    }
    Ok(())
}

/// Checks one pass's cells, and that it reproduced the first pass.
fn check_pass(p: &Pass, first_digest: u64, out: &mut Outcome) {
    out.attempted += p.reports.len() as u64;
    for (job, r) in &p.reports {
        if let Err(why) = check_report(job, r) {
            out.fail(1, why);
        }
    }
    if p.digest != first_digest {
        out.fail(
            p.reports.len() as u64,
            format!(
                "report digest {:016x} != {first_digest:016x} of the first pass",
                p.digest
            ),
        );
    }
}

/// Checks the first pass's report digest against the one an earlier run
/// of the same plan by the same executable recorded in this checkout, or
/// records it.
fn check_digest(w: Workload, first: &Pass, out: &mut Outcome) {
    let hex = format!("{:016x}", first.digest);
    out.notes.push(format!("report digest {hex}"));
    // Keyed by the plan and by the executable's bytes, so a digest is
    // never compared with one recorded for another plan or by other code,
    // whose simulated results may rightly differ.
    let exe = match std::env::current_exe().and_then(std::fs::read) {
        Ok(bytes) => bytes,
        Err(e) => {
            out.notes.push(format!(
                "digest not compared across runs: executable unreadable: {e}"
            ));
            return;
        }
    };
    let mut key = DefaultHasher::new();
    exe.hash(&mut key);
    for (job, _) in &first.reports {
        job.cache_key().hash(&mut key);
    }
    let path = Path::new(OUT_DIR).join(format!("digest-{}-{:016x}.txt", w.name(), key.finish()));
    match std::fs::read_to_string(&path) {
        Ok(prev) if prev.trim() != hex => out.fail(
            first.reports.len() as u64,
            format!("report digest {hex} != {} from an earlier run", prev.trim()),
        ),
        Ok(_) => {}
        Err(_) => {
            if let Err(e) = std::fs::write(&path, &hex) {
                out.notes.push(format!(
                    "could not record digest at {}: {e}",
                    path.display()
                ));
            }
        }
    }
}

/// Nearest-rank percentile of `values` (sorted in place), `p` in 0..=100.
fn percentile(values: &mut [f64], p: f64) -> f64 {
    values.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Median set-up time: from the start of a pass (the harness, and the
/// job list that holds its first cell) to the first simulated reference
/// of that cell.
fn setup_seconds(w: Workload, cfg: &RunConfig) -> Result<f64, String> {
    let mut reps = Vec::new();
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        let _harness = Harness::new(*cfg, w.workers());
        let first = w.first_cell(cfg).ok_or("the plan has no cells")?;
        reps.push(layers::first_ref_ns(&first, start)? / 1e9);
    }
    Ok(median(&reps))
}

/// Repeats passes until `seconds` have passed and the workload's minimum
/// pass count is reached.
fn passes(
    w: Workload,
    args: &Args,
    cfg: &RunConfig,
    mut each: impl FnMut(Pass) -> Result<(), String>,
) -> Result<usize, String> {
    let dir = Path::new(OUT_DIR).join(format!("{}-pass", w.name()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(|e| format!("removing {}: {e}", dir.display()))?;
    }
    let start = Instant::now();
    let mut n = 0;
    while n < w.min_passes() || start.elapsed().as_secs_f64() < args.seconds {
        each(run_pass(w, cfg, args.trace, &dir)?)?;
        n += 1;
    }
    Ok(n)
}

/// The untraced run: every end-to-end metric.
fn run_untraced(
    w: Workload,
    args: &Args,
    cfg: &RunConfig,
    out: &mut Outcome,
) -> Result<(), String> {
    let setup_s = setup_seconds(w, cfg)?;
    let (mut walls, mut per_ref, mut cell_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut first: Option<Pass> = None;
    passes(w, args, cfg, |p| {
        check_pass(&p, first.as_ref().map_or(p.digest, |f| f.digest), out);
        walls.push(p.wall_ns / 1e9);
        per_ref.push(p.cell_secs.iter().sum::<f64>() * 1e9 / p.refs as f64);
        cell_ms.extend(p.cell_secs.iter().map(|s| s * 1e3));
        first.get_or_insert(p);
        Ok(())
    })?;
    let first = first.expect("at least one pass");
    check_digest(w, &first, out);

    // A fixed percentile per workload: the highest with at least ten
    // cells beyond it at the workload's minimum pass count.
    let floor_cells = (first.reports.len() * w.min_passes()) as f64;
    let tail_p = (100.0 * (1.0 - 10.0 / floor_cells)).floor();
    out.notes.push(format!(
        "cell_ms_tail is p{tail_p} of {} cells; wall_s and ns_per_ref are medians of {} passes",
        cell_ms.len(),
        walls.len()
    ));
    let gain_err = w.paper_gain_err_pp(&first.figures, &first.reports)?;
    let pass_frac = ratio((out.attempted - out.failed) as f64, out.attempted as f64);

    out.metrics = vec![
        m("wall_s", median(&walls), "s"),
        m("ns_per_ref", median(&per_ref), "ns"),
        m("cell_ms_p50", median(&cell_ms), "ms"),
        m("cell_ms_tail", percentile(&mut cell_ms, tail_p), "ms"),
        m("setup_s", setup_s, "s"),
        m(
            "peak_rss_mb",
            proc_kb("/proc/self/status", "VmHWM:") as f64 / 1024.0,
            "MB",
        ),
        m("pass_frac", pass_frac, "frac"),
        m("paper_gain_err_pp", gain_err, "pp"),
    ];

    if w == Workload::Sweep {
        check_baseline(cfg, out);
    }
    Ok(())
}

/// At the baseline's own configuration, which only a manual run reaches
/// (`--workload sweep --scale 0.25 --seed 2015`), the sweep must match
/// `baselines/scale-0.25` through `tdc diff`. `tdc diff` re-simulates the
/// sweep in a harness of its own rather than reading this run's figures:
/// its comparison is not public API.
fn check_baseline(cfg: &RunConfig, out: &mut Outcome) {
    let index = PathBuf::from(BASELINE_DIR).join("index.json");
    let Some(base) = std::fs::read_to_string(&index)
        .ok()
        .and_then(|t| Json::parse(&t).ok())
    else {
        out.notes.push(format!(
            "no baseline at {}; figures not diffed",
            index.display()
        ));
        return;
    };
    let field = |k: &str| {
        base.get("config")
            .and_then(|c| c.get(k))
            .and_then(Json::as_u64)
    };
    let same = field("seed") == Some(cfg.seed)
        && field("cache_bytes") == Some(cfg.cache_bytes)
        && field("warmup_refs") == Some(cfg.warmup_refs)
        && field("measured_refs") == Some(cfg.measured_refs);
    if !same {
        out.notes.push(format!(
            "figures not diffed: {BASELINE_DIR} has another seed or scale"
        ));
        return;
    }
    let args: Vec<String> = [BASELINE_DIR, "--jobs", "2", "--quiet"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    match tdc_harness::diff::run(&args) {
        0 => out.notes.push(format!("figures match {BASELINE_DIR}")),
        code => out.fail(
            1,
            format!("tdc diff {BASELINE_DIR} exited {code}: figures drifted"),
        ),
    }
}

/// Per-pass harness-layer figures (medians across passes are reported).
#[derive(Default)]
struct HarnessLayer {
    cells: Vec<f64>,
    dedup_frac: Vec<f64>,
    run_all_ms: Vec<f64>,
    figures_ms: Vec<f64>,
    sink_ms: Vec<f64>,
    busy_frac: Vec<f64>,
    tail_idle_ms: Vec<f64>,
    stolen_frac: Vec<f64>,
}

impl HarnessLayer {
    fn add(&mut self, p: &Pass) {
        self.cells.push(p.executed as f64);
        self.dedup_frac
            .push(1.0 - ratio(p.executed as f64, p.requested as f64));
        self.run_all_ms.push(p.run_all_ns / 1e6);
        self.figures_ms.push(p.figures_ns / 1e6);
        self.sink_ms.push(p.sink_ns / 1e6);
        let (mut busy, mut capacity, mut tail_idle, mut stolen, mut tasks) =
            (0u64, 0u64, 0u64, 0u64, 0u64);
        for (t, _) in &p.pools {
            capacity += t.wall_ns * t.workers.len() as u64;
            for (id, w) in t.workers.iter().enumerate() {
                busy += w.busy_ns;
                stolen += w.stolen;
                tasks += w.tasks;
                let last_end = t
                    .spans
                    .iter()
                    .filter(|s| s.worker == id)
                    .map(|s| s.start_ns + s.dur_ns)
                    .max();
                tail_idle += t.wall_ns.saturating_sub(last_end.unwrap_or(0));
            }
        }
        self.busy_frac.push(ratio(busy as f64, capacity as f64));
        self.tail_idle_ms.push(tail_idle as f64 / 1e6);
        self.stolen_frac.push(ratio(stolen as f64, tasks as f64));
    }
}

/// The traced run: every per-layer metric, and the self-check of each
/// traced cell against the harness's untraced `Job::execute` report.
fn run_traced(w: Workload, args: &Args, cfg: &RunConfig, out: &mut Outcome) -> Result<(), String> {
    let empty_ns = layers::calibrate_clock();
    let mut totals = Totals::default();
    let mut harness = HarnessLayer::default();
    let mut untraced_ns = 0.0;
    let mut first: Option<Pass> = None;
    let n = passes(w, args, cfg, |p| {
        harness.add(&p);
        untraced_ns += p.cell_secs.iter().sum::<f64>() * 1e9;
        check_pass(&p, first.as_ref().map_or(p.digest, |f| f.digest), out);
        let jobs: Vec<Job> = p.reports.iter().map(|(j, _)| j.clone()).collect();
        out.attempted += jobs.len() as u64;
        for ((job, reference), traced) in
            p.reports
                .iter()
                .zip(run_tasks(&jobs, w.workers(), |_, job| {
                    layers::run_traced(job, empty_ns)
                }))
        {
            let label = job.label();
            let c = match traced {
                Ok(c) => c,
                Err(why) => {
                    out.fail(1, format!("{label}: {why}"));
                    continue;
                }
            };
            if c.cores != reference.cores || c.l3 != reference.l3 {
                out.fail(1, format!("{label}: traced cell differs from Job::execute"));
            } else if c.core_self_ns() < 0.0 {
                out.fail(
                    1,
                    format!(
                        "{label}: negative core residual {:.0} ns; layer estimates exceed the run",
                        c.core_self_ns()
                    ),
                );
            }
            totals.add(&c);
        }
        first.get_or_insert(p);
        Ok(())
    })?;
    let first = first.expect("at least one pass");
    check_digest(w, &first, out);
    let timed = [
        &totals.trace,
        &totals.translate,
        &totals.access,
        &totals.writeback,
    ];
    let sampled: u64 = timed.iter().map(|l| l.sampled).sum();
    let interrupted: u64 = timed.iter().map(|l| l.interrupted).sum();
    out.notes.push(format!(
        "{n} traced passes; clock empty interval {empty_ns} ns; {sampled} timed calls, {interrupted} dropped as interrupted"
    ));

    let t = &totals;
    let refs = t.refs as f64;
    let kref = t.measured_refs as f64 / 1000.0;
    let share = |ns: f64| ratio(ns, t.run_ns);
    let per_call = |l: &LayerTime| ratio(l.ns, l.calls as f64);
    let dram_bytes = |d: &DramStats| {
        ratio(
            (d.bytes_read + d.bytes_written) as f64,
            t.measured_refs as f64,
        )
    };
    let row_hits = |d: &DramStats| ratio(d.row_hits as f64, (d.reads + d.writes) as f64);
    let l3 = &t.l3;
    out.metrics = vec![
        m("trace.ns_per_ref", ratio(t.trace.ns, refs), "ns"),
        m("trace.share", share(t.trace.ns), "frac"),
        m("l3.translate.ns_per_call", per_call(&t.translate), "ns"),
        m("l3.translate.share", share(t.translate.ns), "frac"),
        m(
            "tlb.l1_hit_frac",
            ratio(t.tlb_hits as f64, t.tlb_lookups as f64),
            "frac",
        ),
        m(
            "tlb.penalty_cycles_per_ref",
            ratio(t.core.tlb_penalty as f64, t.measured_refs as f64),
            "cycles/ref",
        ),
        m("l3.access.ns_per_call", per_call(&t.access), "ns"),
        m(
            "l3.access.calls_per_ref",
            ratio(t.access.calls as f64, refs),
            "1/ref",
        ),
        m("l3.access.share", share(t.access.ns), "frac"),
        m("l3.writeback.ns_per_call", per_call(&t.writeback), "ns"),
        m(
            "l3.writeback.calls_per_ref",
            ratio(t.writeback.calls as f64, refs),
            "1/ref",
        ),
        m("l3.build_ms", ratio(t.build_ns / 1e6, t.cells as f64), "ms"),
        m(
            "l3.in_pkg_frac",
            ratio(l3.in_package_reads as f64, l3.demand_reads as f64),
            "frac",
        ),
        m(
            "l3.fills_per_kref",
            ratio(l3.page_fills as f64, kref),
            "1/kref",
        ),
        m(
            "l3.victim_hit_frac",
            ratio(
                l3.case_miss_hit as f64,
                (l3.case_miss_hit + l3.case_miss_miss) as f64,
            ),
            "frac",
        ),
        m(
            "l3.gipt_updates_per_kref",
            ratio(l3.gipt_updates as f64, kref),
            "1/kref",
        ),
        m(
            "l3.stale_wb_frac",
            ratio(l3.stale_writebacks as f64, l3.writebacks_in as f64),
            "frac",
        ),
        m("dram.in_pkg.row_hit_frac", row_hits(&t.in_pkg), "frac"),
        m("dram.off_pkg.row_hit_frac", row_hits(&t.off_pkg), "frac"),
        m("dram.in_pkg.bytes_per_ref", dram_bytes(&t.in_pkg), "B/ref"),
        m(
            "dram.off_pkg.bytes_per_ref",
            dram_bytes(&t.off_pkg),
            "B/ref",
        ),
        m(
            "dram.off_pkg.bus_busy_frac",
            ratio(
                t.off_pkg.bus_busy_cycles as f64,
                t.off_pkg_bus_cycles as f64,
            ),
            "frac",
        ),
        m("core.self_ns_per_ref", ratio(t.core_self_ns, refs), "ns"),
        m("core.share", share(t.core_self_ns), "frac"),
        m(
            "sram.l1_miss_frac",
            ratio(t.core.l1_misses as f64, t.measured_refs as f64),
            "frac",
        ),
        m(
            "sram.l2_miss_frac",
            ratio(t.core.l2_misses as f64, t.core.l1_misses as f64),
            "frac",
        ),
        m(
            "core.mem_stall_frac",
            ratio(t.core.mem_stall as f64, t.core.cycles as f64),
            "frac",
        ),
        m(
            "core.tlb_stall_frac",
            ratio(t.core.tlb_penalty as f64, t.core.cycles as f64),
            "frac",
        ),
        m("harness.cells", median(&harness.cells), "count"),
        m("harness.dedup_frac", median(&harness.dedup_frac), "frac"),
        m("harness.run_all_ms", median(&harness.run_all_ms), "ms"),
        m("pool.busy_frac", median(&harness.busy_frac), "frac"),
        m("pool.tail_idle_ms", median(&harness.tail_idle_ms), "ms"),
        m("pool.stolen_frac", median(&harness.stolen_frac), "frac"),
        m("figures.self_ms", median(&harness.figures_ms), "ms"),
        m("sink.write_ms", median(&harness.sink_ms), "ms"),
        m("clock.empty_ns", empty_ns, "ns"),
        m("trace_overhead", ratio(t.cell_ns, untraced_ns), "x"),
    ];
    Ok(())
}

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::obj(metrics.iter().map(|mt| {
        (
            mt.name,
            Json::obj([
                ("value", Json::from(mt.value)),
                ("unit", Json::from(mt.unit)),
            ]),
        )
    }))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let host = Host::probe();
    let cfg = RunConfig::scaled(args.seed, args.scale);
    if let Err(e) = std::fs::create_dir_all(OUT_DIR) {
        eprintln!("sweepbench: cannot create {OUT_DIR}: {e}");
        return ExitCode::FAILURE;
    }

    let mut out = Outcome::default();
    if w == Workload::Sweep && host.nproc < 2 {
        out.notes.push(format!(
            "NOT COMPARABLE: {} CPU for a {}-worker sweep; wall_s and the pool.* metrics do not measure the scheduler",
            host.nproc,
            w.workers()
        ));
    }
    let run = if args.trace {
        run_traced(w, &args, &cfg, &mut out)
    } else {
        run_untraced(w, &args, &cfg, &mut out)
    };
    if let Err(e) = run {
        eprintln!("sweepbench: {e}");
        return ExitCode::FAILURE;
    }
    if let Some(bad) = out.metrics.iter().find(|mt| !mt.value.is_finite()) {
        out.fail(0, format!("metric {} is not finite", bad.name));
    }
    let correct = out.errors.is_empty();

    let record = Json::obj([
        ("workload", Json::from(w.name())),
        ("seed", Json::from(args.seed)),
        ("scale", Json::from(args.scale)),
        ("trace", Json::from(args.trace)),
        (
            "host",
            Json::obj([
                ("nproc", Json::from(host.nproc as u64)),
                ("mem_total_mb", Json::from(host.mem_total_mb)),
            ]),
        ),
        ("notes", Json::arr(out.notes.iter().map(String::as_str))),
        ("errors", Json::arr(out.errors.iter().map(String::as_str))),
        ("metrics", metrics_json(&out.metrics)),
    ]);
    let path = Path::new(OUT_DIR).join(format!(
        "{}-seed{}-trace{}.json",
        w.name(),
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::write(&path, record.pretty()) {
        eprintln!("sweepbench: cannot write {}: {e}", path.display());
    }

    println!(
        "host: nproc={} mem_total_mb={}",
        host.nproc, host.mem_total_mb
    );
    for note in &out.notes {
        println!("note: {note}");
    }
    let line = Json::obj([
        ("correct", Json::from(correct)),
        ("attempted", Json::from(out.attempted)),
        ("failed", Json::from(out.failed)),
        ("metrics", metrics_json(&out.metrics)),
    ]);
    println!("{}", line.to_compact());
    ExitCode::SUCCESS
}
