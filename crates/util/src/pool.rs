//! A std-only generic worker pool with shared-counter dispatch.
//!
//! [`run_tasks`] executes one closure call per input item across a fixed
//! number of OS threads and returns the results **in input order**. It is
//! the shared scheduler behind `tdc-harness`'s experiment batches,
//! `tdc-serve`'s sweep endpoint, and `tdc-lint`'s parallel file scan.
//!
//! Dispatch is one loop over one shared `AtomicUsize`: each worker
//! claims the next unclaimed task index with `fetch_add` until the
//! counter passes the end of the batch. A worker that finishes early
//! simply claims the next index, so load balances dynamically without
//! per-worker queues, and `fetch_add` hands out every index exactly
//! once.
//!
//! Scheduling order must be irrelevant to results: each call should be a
//! pure function of its item (and index), and every result lands in its
//! input-index slot, so outputs are bit-identical whether the batch runs
//! on one thread or sixteen and whichever worker claimed which index.
//!
//! [`run_tasks_telemetry`] is that loop plus per-worker scheduler
//! telemetry ([`crate::obs::PoolTelemetry`] — tasks run, busy/idle ns,
//! per-task spans) for `results/metrics.json` and the Perfetto pool
//! track; [`run_tasks`] is the same call with the telemetry dropped. The
//! timing it collects is about the schedule, never an input to any task,
//! so result determinism is unaffected.

use crate::obs::{PoolTelemetry, TaskSpan, WorkerTelemetry};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant; // tdc-lint: allow(time-source) schedule telemetry only

/// Runs `work(index, &items[index])` for every item on `threads` worker
/// threads and returns the results in input order.
///
/// `threads` is clamped to `1..=items.len()`. Panics in `work` propagate
/// out of the enclosing thread scope (poisoning nothing the caller keeps).
pub fn run_tasks<T, R, F>(items: &[T], threads: usize, work: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    run_tasks_telemetry(items, threads, work).0
}

/// Like [`run_tasks`], additionally returning scheduler telemetry:
/// per-worker task counts and busy/idle time, and one span per task
/// for trace export.
///
/// Per worker, `busy_ns` is clamped to the batch wall time and
/// `idle_ns` is the remainder, so `busy + idle == wall` holds by
/// construction and straggler tails read directly off `idle_ns`.
pub fn run_tasks_telemetry<T, R, F>(
    items: &[T],
    threads: usize,
    work: F,
) -> (Vec<R>, PoolTelemetry)
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let total = items.len();
    if total == 0 {
        return (Vec::new(), PoolTelemetry::default());
    }
    let threads = threads.clamp(1, total);
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = (0..total).map(|_| Mutex::new(None)).collect();
    let launch = Instant::now(); // tdc-lint: allow(time-source)

    let logs: Vec<(u64, Vec<TaskSpan>)> = std::thread::scope(|scope| {
        let (work, next, slots) = (&work, &next, &slots);
        let handles: Vec<_> = (0..threads)
            .map(|worker| {
                scope.spawn(move || {
                    let (mut busy_ns, mut spans) = (0u64, Vec::new());
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= total {
                            break;
                        }
                        let begin = Instant::now(); // tdc-lint: allow(time-source)
                        let result = work(i, &items[i]);
                        let dur_ns = begin.elapsed().as_nanos() as u64;
                        *slots[i].lock().expect("result slot poisoned") = Some(result);
                        busy_ns += dur_ns;
                        spans.push(TaskSpan {
                            worker,
                            index: i,
                            start_ns: begin.duration_since(launch).as_nanos() as u64,
                            dur_ns,
                        });
                    }
                    (busy_ns, spans)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });

    let wall_ns = launch.elapsed().as_nanos() as u64;
    let mut telemetry = PoolTelemetry {
        wall_ns,
        ..PoolTelemetry::default()
    };
    for (busy_ns, spans) in logs {
        // Clamp so `busy + idle == wall` holds exactly: per-task timer
        // reads can sum past the single wall read on a loaded host.
        let busy_ns = busy_ns.min(wall_ns);
        telemetry.workers.push(WorkerTelemetry {
            tasks: spans.len() as u64,
            busy_ns,
            idle_ns: wall_ns - busy_ns,
            stolen: 0,
        });
        telemetry.spans.extend(spans);
    }
    telemetry.spans.sort_by_key(|s| (s.start_ns, s.index));
    let results = slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("worker scope joined with task unfinished")
        })
        .collect();
    (results, telemetry)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_input_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = run_tasks(&items, 7, |i, &x| {
            assert_eq!(i as u64, x);
            x * x
        });
        assert_eq!(out.len(), 100);
        for (i, &r) in out.iter().enumerate() {
            assert_eq!(r, (i as u64) * (i as u64));
        }
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let items: Vec<u32> = (0..37).collect();
        let f = |_: usize, &x: &u32| x.wrapping_mul(2654435761);
        assert_eq!(run_tasks(&items, 1, f), run_tasks(&items, 16, f));
    }

    #[test]
    fn empty_input_and_oversubscription() {
        let none: Vec<u8> = Vec::new();
        assert!(run_tasks(&none, 4, |_, &x| x).is_empty());
        // More threads than items: clamped, still correct.
        let out = run_tasks(&[1u8, 2], 64, |_, &x| x + 1);
        assert_eq!(out, vec![2, 3]);
    }

    #[test]
    fn non_copy_results_move_out_cleanly() {
        let items = vec!["a", "bb", "ccc"];
        let out = run_tasks(&items, 2, |i, s| format!("{i}:{s}"));
        assert_eq!(out, vec!["0:a", "1:bb", "2:ccc"]);
    }

    #[test]
    fn telemetry_variant_matches_plain_results() {
        let items: Vec<u64> = (0..50).collect();
        let f = |i: usize, &x: &u64| x.wrapping_mul(i as u64 + 3);
        let plain = run_tasks(&items, 4, f);
        let (traced, telemetry) = run_tasks_telemetry(&items, 4, f);
        assert_eq!(plain, traced);
        assert_eq!(telemetry.workers.len(), 4);
        let tasks: u64 = telemetry.workers.iter().map(|w| w.tasks).sum();
        assert_eq!(tasks, 50);
        assert_eq!(telemetry.spans.len(), 50);
        // Every input index executed exactly once.
        let mut seen: Vec<usize> = telemetry.spans.iter().map(|s| s.index).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..50).collect::<Vec<_>>());
        for (id, w) in telemetry.workers.iter().enumerate() {
            assert_eq!(
                w.busy_ns + w.idle_ns,
                telemetry.wall_ns,
                "busy + idle must equal the batch wall time exactly"
            );
            let spans = telemetry.spans.iter().filter(|s| s.worker == id).count();
            assert_eq!(w.tasks, spans as u64, "span attribution must cover tasks");
            assert_eq!(w.stolen, 0);
        }
    }

    #[test]
    fn telemetry_on_empty_input_is_empty() {
        let none: Vec<u8> = Vec::new();
        let (out, telemetry) = run_tasks_telemetry(&none, 4, |_, &x| x);
        assert!(out.is_empty());
        assert!(telemetry.workers.is_empty());
        assert!(telemetry.spans.is_empty());
    }
}
