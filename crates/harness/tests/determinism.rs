//! The harness's central guarantee: results are bit-identical
//! regardless of `--jobs`. A job's outcome is a pure function of the
//! job itself, so the worker count can only change wall-clock time.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::Path;
use std::process::Command;
use tdc_core::experiment::{Job, TraceFeed};
use tdc_core::RunConfig;
use tdc_harness::figures::{plan, plan_for, shard_jobs};
use tdc_harness::{figures, generate, Harness, ALL_IDS};

fn tiny() -> RunConfig {
    RunConfig {
        seed: 2015,
        cache_bytes: 1 << 30,
        warmup_refs: 1_000,
        measured_refs: 2_000,
    }
}

/// Generates the full figure set on one harness and returns every
/// artifact that would be written, as strings.
fn artifacts(threads: usize, feed: TraceFeed) -> Vec<(String, String)> {
    let h = Harness::new(tiny(), threads).with_trace_feed(feed);
    let mut out = Vec::new();
    for id in ALL_IDS {
        let fig = generate(id, &h).expect("known id");
        out.push((format!("{id}.json"), fig.json.pretty()));
        out.push((format!("{id}.txt"), fig.text));
    }
    for (key, report) in h.results() {
        out.push((key.clone(), tdc_harness::sink::report_json(&key, &report).pretty()));
    }
    out
}

#[test]
fn figure_set_is_identical_for_1_and_4_workers() {
    let serial = artifacts(1, TraceFeed::Inline);
    let parallel = artifacts(4, TraceFeed::Inline);
    assert_eq!(serial.len(), parallel.len());
    for ((name_s, body_s), (name_p, body_p)) in serial.iter().zip(&parallel) {
        assert_eq!(name_s, name_p);
        assert_eq!(body_s, body_p, "artifact {name_s} differs between --jobs 1 and --jobs 4");
    }
}

/// The same pin with every cell's traces generated on producer threads,
/// whatever the host's CPU count would have chosen.
#[test]
fn figure_set_is_identical_with_prefetch_for_1_4_and_16_workers() {
    let inline = artifacts(1, TraceFeed::Inline);
    for threads in [1, 4, 16] {
        let prefetched = artifacts(threads, TraceFeed::Prefetch);
        assert_eq!(inline.len(), prefetched.len());
        for ((name_i, body_i), (name_p, body_p)) in inline.iter().zip(&prefetched) {
            assert_eq!(name_i, name_p);
            assert_eq!(
                body_i, body_p,
                "artifact {name_i} differs between inline --jobs 1 and prefetch --jobs {threads}"
            );
        }
    }
}

#[test]
fn figures_share_the_cache_across_the_whole_set() {
    let h = Harness::new(tiny(), 2);
    for id in ALL_IDS {
        generate(id, &h).expect("known id");
    }
    let s = h.stats();
    // The serial path re-ran baselines per figure: 235 cells for this
    // set. The shared cache must collapse that to the distinct ones.
    assert_eq!(s.requested, 235, "job enumeration changed; update this test");
    assert_eq!(s.executed, 168, "distinct-cell count changed; update this test");
    assert_eq!(s.cache_hits, s.requested - s.executed);
}

#[test]
fn sharding_partitions_the_plan_for_every_width() {
    // For every partition width N and every shard K: the slices that
    // `tdc all --shard K/N` runs are pairwise disjoint and their union
    // is exactly the deduplicated plan — no cell lost, none duplicated,
    // for any fleet size.
    let cfg = tiny();
    let full = plan(&cfg);
    let keys: Vec<String> = full.iter().map(Job::cache_key).collect();
    let all_keys: BTreeSet<String> = keys.iter().cloned().collect();
    assert_eq!(all_keys.len(), full.len(), "plan must be duplicate-free");
    assert!(
        keys.windows(2).all(|w| w[0] < w[1]),
        "plan must be sorted by cache key"
    );
    for n in 1..=8u64 {
        let mut union = BTreeSet::new();
        for k in 1..=n {
            let shard: Vec<String> =
                shard_jobs(&full, k, n).iter().map(Job::cache_key).collect();
            for key in &shard {
                assert!(
                    union.insert(key.clone()),
                    "key {key} appears in two shards of {n}"
                );
            }
        }
        assert_eq!(union, all_keys, "union of {n} shards != plan");
    }
}

#[test]
fn shard_membership_is_independent_of_figure_set_growth() {
    // Hash-based partitioning's whole point: a job's shard depends
    // only on its own key, so the assignment computed from any subset
    // of figures (the plan `tdc fig09 --shard K/N` slices) agrees with
    // the assignment computed from all of them.
    let cfg = tiny();
    let n = 4u64;
    let full = plan(&cfg);
    let full_assignment: BTreeMap<String, u64> = (1..=n)
        .flat_map(|k| {
            shard_jobs(&full, k, n)
                .iter()
                .map(move |j| (j.cache_key(), k))
                .collect::<Vec<_>>()
        })
        .collect();
    for id in ALL_IDS {
        let sub = plan_for(&[id], &cfg);
        for k in 1..=n {
            for job in shard_jobs(&sub, k, n) {
                let key = job.cache_key();
                assert_eq!(
                    full_assignment[&key], k,
                    "{id}: job {key} is in shard {k} of its figure's plan but not of the full plan"
                );
            }
        }
        for job in figures::jobs_for(id, &cfg).expect("known id") {
            let key = job.cache_key();
            let solo = shard_jobs(&[job], 1, 1);
            assert_eq!(solo.len(), 1, "width-1 partition must keep every job");
            let owner = (1..=n)
                .find(|k| !shard_jobs(std::slice::from_ref(&solo[0]), *k, n).is_empty())
                .expect("some shard owns the job");
            assert_eq!(
                owner, full_assignment[&key],
                "{id}: job {key} changes shard when enumerated alone"
            );
        }
    }
}

#[test]
fn every_figure_job_is_planned() {
    // The plan really is the union over ALL_IDS — nothing a figure
    // asks for is missing from it.
    let cfg = tiny();
    let planned: BTreeSet<String> = plan(&cfg).iter().map(Job::cache_key).collect();
    for id in ALL_IDS {
        for job in figures::jobs_for(id, &cfg).expect("known id") {
            assert!(
                planned.contains(&job.cache_key()),
                "{id} job {} not in the plan",
                job.cache_key()
            );
        }
    }
}

#[test]
fn plan_is_identical_across_repeated_enumerations() {
    let cfg = tiny();
    let a: Vec<String> = plan(&cfg).iter().map(Job::cache_key).collect();
    let b: Vec<String> = plan(&cfg).iter().map(Job::cache_key).collect();
    assert_eq!(a, b);
}

#[test]
fn checked_in_baseline_is_reproduced_by_the_flat_structures() {
    // The seed baseline under baselines/scale-0.25 was generated before
    // the struct-of-arrays access-path refactor; the flat structures
    // must reproduce it bit-for-bit. `tdc diff` regenerates every figure
    // under the baseline's own recorded config and, on drift, names the
    // figure and the exact leaves that moved — a readable report rather
    // than a blob mismatch.
    let baseline = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../baselines/scale-0.25");
    assert!(
        baseline.join("index.json").is_file(),
        "checked-in baseline missing at {}",
        baseline.display()
    );
    let out = Command::new(env!("CARGO_BIN_EXE_tdc"))
        .args(["diff", baseline.to_str().expect("utf-8 path"), "--quiet"])
        .output()
        .expect("tdc runs");
    assert!(
        out.status.success(),
        "figures drifted from the checked-in baseline:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

fn read_tree(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut files = BTreeMap::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in fs::read_dir(&d).expect("readable dir") {
            let path = entry.expect("dir entry").path();
            if path.is_dir() {
                stack.push(path);
            } else {
                let rel = path.strip_prefix(dir).expect("under root").to_string_lossy().into_owned();
                files.insert(rel, fs::read(&path).expect("readable file"));
            }
        }
    }
    files
}

#[test]
fn tdc_all_artifacts_are_byte_identical_for_jobs_1_and_4() {
    let base = std::env::temp_dir().join(format!("tdc-determinism-{}", std::process::id()));
    let _ = fs::remove_dir_all(&base);
    let mut trees = Vec::new();
    for jobs in ["1", "4"] {
        let out = base.join(format!("jobs{jobs}"));
        let status = Command::new(env!("CARGO_BIN_EXE_tdc"))
            .args([
                "all", "--jobs", jobs, "--scale", "0.001", "--quiet", "--out",
                out.to_str().expect("utf-8 temp path"),
            ])
            .status()
            .expect("tdc runs");
        assert!(status.success(), "tdc all --jobs {jobs} failed");
        trees.push(read_tree(&out));
    }
    let (a, b) = (&trees[0], &trees[1]);
    assert!(!a.is_empty(), "no artifacts written");
    assert_eq!(
        a.keys().collect::<Vec<_>>(),
        b.keys().collect::<Vec<_>>(),
        "different artifact sets"
    );
    for (name, bytes) in a {
        // metrics.json and the pool trace are the deliberately
        // non-deterministic artifacts (wall-clock scheduler telemetry);
        // everything else must match.
        if name == "metrics.json" || name == "trace/pool.trace.json" {
            continue;
        }
        assert_eq!(bytes, &b[name], "results/{name} differs between --jobs 1 and --jobs 4");
    }
    assert!(a.contains_key("metrics.json"), "metrics.json not written");
    assert!(
        a.contains_key("trace/pool.trace.json"),
        "pool scheduler trace not written"
    );
    let _ = fs::remove_dir_all(&base);
}
