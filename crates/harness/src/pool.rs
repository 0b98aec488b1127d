//! The experiment-job front end of the shared worker pool.
//!
//! Scheduling is delegated to the generic
//! [`tdc_util::pool::run_tasks_telemetry`] shared-counter dispatch loop
//! (DESIGN.md §7; no external crates); this module only adds the
//! `Job`-specific pieces: per-job wall-clock timing and the progress
//! callback. Scheduling order is **irrelevant to results**: every job
//! is a pure function of its own fields (all RNG streams derive from
//! the job's seed), so the batch's outputs are bit-identical whether it
//! runs on one thread or sixteen. Only wall-clock time and the
//! interleaving of progress lines vary.

use std::sync::atomic::{AtomicUsize, Ordering};
// Job timing feeds results/metrics.json, which is documented as the one
// deliberately nondeterministic artifact (wall-clock telemetry).
use std::time::{Duration, Instant}; // tdc-lint: allow(time-source)
use tdc_core::experiment::{Job, TraceFeed};
use tdc_core::RunReport;

/// One finished cell: the job's result plus its wall-clock cost.
pub struct Completed {
    /// The result (`Err` for unknown workload names).
    pub result: Result<RunReport, String>,
    /// Wall-clock time this job took on its worker thread.
    pub elapsed: Duration,
}

/// Runs `jobs` on `threads` worker threads and returns one [`Completed`]
/// per job, **in input order**. Each cell's traces are fed `feed`'s way.
/// `progress` is invoked after each completion (from worker threads,
/// serialized) with `(done, total, label, elapsed)`.
pub fn run_batch(
    jobs: &[Job],
    threads: usize,
    feed: TraceFeed,
    progress: &(dyn Fn(usize, usize, &str, Duration) + Sync),
) -> Vec<Completed> {
    run_batch_telemetry(jobs, threads, feed, progress).0
}

/// Like [`run_batch`], additionally returning the scheduler telemetry
/// ([`tdc_util::obs::PoolTelemetry`]) the underlying pool collected:
/// per-worker busy/idle time and per-task spans for the Perfetto pool
/// track. The telemetry is a side channel about the schedule, never an
/// input to any job.
pub fn run_batch_telemetry(
    jobs: &[Job],
    threads: usize,
    feed: TraceFeed,
    progress: &(dyn Fn(usize, usize, &str, Duration) + Sync),
) -> (Vec<Completed>, tdc_util::obs::PoolTelemetry) {
    let total = jobs.len();
    let done = AtomicUsize::new(0);
    tdc_util::pool::run_tasks_telemetry(jobs, threads, |_, job| {
        let start = Instant::now(); // tdc-lint: allow(time-source)
        let result = job.execute_with(feed);
        let elapsed = start.elapsed();
        let finished = done.fetch_add(1, Ordering::Relaxed) + 1;
        progress(finished, total, &job.label(), elapsed);
        Completed { result, elapsed }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdc_core::experiment::{OrgKind, RunConfig, Workload};

    fn tiny_jobs() -> Vec<Job> {
        let cfg = RunConfig {
            seed: 11,
            cache_bytes: 64 << 20,
            warmup_refs: 1_000,
            measured_refs: 3_000,
        };
        ["milc", "mcf", "omnetpp"]
            .into_iter()
            .flat_map(|b| {
                [OrgKind::NoL3, OrgKind::Tagless].into_iter().map(move |org| {
                    Job::new(Workload::Spec(b.to_string()), org, cfg)
                })
            })
            .collect()
    }

    #[test]
    fn batch_results_are_in_input_order_and_thread_invariant() {
        let jobs = tiny_jobs();
        let quiet = |_: usize, _: usize, _: &str, _: Duration| {};
        let serial = run_batch(&jobs, 1, TraceFeed::Inline, &quiet);
        let parallel = run_batch(&jobs, 4, TraceFeed::Prefetch, &quiet);
        assert_eq!(serial.len(), jobs.len());
        for (s, p) in serial.iter().zip(&parallel) {
            let (s, p) = (s.result.as_ref().unwrap(), p.result.as_ref().unwrap());
            assert_eq!(s.workload, p.workload);
            assert_eq!(s.org, p.org);
            // Bit-identical, not approximately equal.
            assert_eq!(s.ipc_total().to_bits(), p.ipc_total().to_bits());
            assert_eq!(s.l3.demand_reads, p.l3.demand_reads);
            assert_eq!(s.energy.edp.to_bits(), p.energy.edp.to_bits());
        }
    }

    #[test]
    fn errors_are_reported_per_job() {
        let cfg = RunConfig::quick(1);
        let jobs = vec![Job::new(
            Workload::Spec("nosuch".into()),
            OrgKind::NoL3,
            cfg,
        )];
        let out = run_batch(&jobs, 2, TraceFeed::Inline, &|_, _, _, _| {});
        assert!(out[0].result.is_err());
    }

    #[test]
    fn progress_sees_every_completion() {
        let jobs = tiny_jobs();
        let count = AtomicUsize::new(0);
        let _ = run_batch(&jobs, 3, TraceFeed::Inline, &|done, total, label, _| {
            count.fetch_add(1, Ordering::Relaxed);
            assert!(done >= 1 && done <= total);
            assert!(!label.is_empty());
        });
        assert_eq!(count.load(Ordering::Relaxed), jobs.len());
    }
}
