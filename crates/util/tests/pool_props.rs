//! Property suite for the shared-counter worker pool (DESIGN.md §7).
//!
//! Layers, smallest to largest: the exactly-once claim property over
//! many concurrent batches, the pool's degenerate schedules (one
//! worker, oversubscription, empty input), and the cross-jobs
//! determinism pin: `run_tasks` over a skewed workload must return
//! byte-identical results for jobs ∈ {1, 4, 16}.

use std::sync::atomic::{AtomicU32, Ordering};
use tdc_util::pool::{run_tasks, run_tasks_telemetry};

#[test]
fn every_index_runs_exactly_once() {
    // Batch sizes vary from 1 to 200 so the counter's end-of-batch
    // race is hit at every worker count, oversubscribed included.
    for jobs in [2usize, 16] {
        for batch in 1..=200usize {
            let items: Vec<usize> = (0..batch).collect();
            let runs: Vec<AtomicU32> = (0..batch).map(|_| AtomicU32::new(0)).collect();
            let out = run_tasks(&items, jobs, |i, &x| {
                runs[i].fetch_add(1, Ordering::Relaxed);
                x
            });
            assert_eq!(out, items, "jobs={jobs} batch={batch}: results out of order");
            for (i, r) in runs.iter().enumerate() {
                let n = r.load(Ordering::Relaxed);
                assert_eq!(n, 1, "jobs={jobs} batch={batch}: index {i} ran {n} times");
            }
        }
    }
}

#[test]
fn one_worker_degenerate_case_never_steals() {
    let items: Vec<u64> = (0..40).collect();
    let (out, telemetry) = run_tasks_telemetry(&items, 1, |i, &x| x + i as u64);
    assert_eq!(out, (0..40).map(|x| x * 2).collect::<Vec<_>>());
    assert_eq!(telemetry.workers.len(), 1);
    let w = &telemetry.workers[0];
    assert_eq!(w.tasks, 40);
    assert_eq!(w.busy_ns + w.idle_ns, telemetry.wall_ns);
    assert_eq!(w.stolen, 0);
}

#[test]
fn oversubscription_clamps_worker_count() {
    let items = [10u32, 20, 30];
    let (out, telemetry) = run_tasks_telemetry(&items, 64, |_, &x| x / 10);
    assert_eq!(out, vec![1, 2, 3]);
    // Clamped to one worker per item; every task still runs once.
    assert_eq!(telemetry.workers.len(), 3);
    let tasks: u64 = telemetry.workers.iter().map(|w| w.tasks).sum();
    assert_eq!(tasks, 3);
}

#[test]
fn empty_input_produces_no_workers_and_no_spans() {
    let none: Vec<u64> = Vec::new();
    assert!(run_tasks(&none, 8, |_, &x| x).is_empty());
    let (out, telemetry) = run_tasks_telemetry(&none, 8, |_, &x| x);
    assert!(out.is_empty());
    assert!(telemetry.workers.is_empty());
    assert!(telemetry.spans.is_empty());
}

#[test]
fn cross_jobs_results_are_byte_identical_on_a_skewed_workload() {
    // Heterogeneous task costs clustered on a stride, mimicking a
    // figure batch: workers that draw cheap tasks claim more of them
    // while the expensive ones run.
    let items: Vec<u64> = (0..96)
        .map(|i| if i % 17 == 0 { 40_000 } else { 100 + i })
        .collect();
    let work = |i: usize, &spin: &u64| {
        let mut acc = i as u64;
        for k in 0..spin {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k ^ spin);
        }
        format!("{i}:{acc:016x}")
    };
    let baseline = run_tasks(&items, 1, work);
    let baseline_bytes = baseline.join("\n").into_bytes();
    for jobs in [4usize, 16] {
        assert_eq!(
            run_tasks(&items, jobs, work).join("\n").into_bytes(),
            baseline_bytes,
            "jobs={jobs} diverged from jobs=1"
        );
        let (traced, telemetry) = run_tasks_telemetry(&items, jobs, work);
        assert_eq!(
            traced.join("\n").into_bytes(),
            baseline_bytes,
            "telemetry jobs={jobs} diverged from jobs=1"
        );
        assert_eq!(telemetry.workers.len(), jobs);
    }
}
