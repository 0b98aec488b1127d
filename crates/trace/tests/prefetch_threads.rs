//! Producer threads never outlive their sources. The only test in its
//! binary, so no other test's threads come and go while it counts the
//! process's threads.

use std::path::Path;
use std::time::{Duration, Instant};
use tdc_trace::prefetch::CHUNK_REFS;
use tdc_trace::{profiles, PrefetchSource, SyntheticWorkload, TraceSource};

/// Threads of this process, from `/proc/self/task` (Linux).
fn threads() -> Option<usize> {
    Some(
        std::fs::read_dir(Path::new("/proc/self/task"))
            .ok()?
            .count(),
    )
}

#[test]
fn dropped_sources_leave_no_thread_behind() {
    let Some(before) = threads() else {
        eprintln!("no /proc/self/task on this host: thread count not checked");
        return;
    };
    let p = profiles::spec("milc").expect("known benchmark");
    let mut sources: Vec<PrefetchSource<SyntheticWorkload>> = (0..6)
        .map(|i| PrefetchSource::spawn(SyntheticWorkload::new(p.clone(), i, 0)))
        .collect();
    // Stop each one at a different point: before its first read, mid-chunk,
    // on a chunk boundary, and past the first chunk.
    for (i, src) in sources.iter_mut().enumerate() {
        for _ in 0..i * CHUNK_REFS / 2 {
            src.next_ref();
        }
    }
    assert_eq!(
        threads(),
        Some(before + sources.len()),
        "one producer per source"
    );
    drop(sources);
    // Every producer is joined by now. The kernel clears a thread's id
    // (which is what a join waits for) just before it reaps the thread,
    // so its /proc entry may linger for a moment.
    let deadline = Instant::now() + Duration::from_secs(2);
    while threads() != Some(before) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(threads(), Some(before), "a producer outlived its source");
}
