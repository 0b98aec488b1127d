//! End-to-end contract of a fleet sweep over the content-addressed
//! result store:
//!
//! * `tdc all --shard K/N --cache-dir D` persists exactly its slice of
//!   the plan and writes no artifacts;
//! * the union of every slice's store entries warm-starts a plain
//!   `tdc all --cache-dir` with zero simulations, and that run's tree
//!   is byte-identical to a direct `tdc all` (`metrics.json` and the
//!   pool trace excepted — both are machine-local telemetry);
//! * an incomplete union is not an error: the missing cells are
//!   simulated and the tree is still byte-identical;
//! * bad `--shard` specs and hostile `--scale` values are usage
//!   errors (exit 2).

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;
use std::process::Command;
use tdc_core::experiment::Job;
use tdc_core::RunConfig;
use tdc_harness::figures::{plan, shard_jobs};
use tdc_util::{fnv1a_64, Json};

const SCALE: &str = "0.001";

fn tdc(args: &[&str], cwd: &Path) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_tdc"))
        .args(args)
        .current_dir(cwd)
        .output()
        .expect("tdc runs")
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
                let rel = path
                    .strip_prefix(dir)
                    .expect("under root")
                    .to_string_lossy()
                    .into_owned();
                files.insert(rel, fs::read(&path).expect("readable file"));
            }
        }
    }
    files
}

/// A `tdc all` tree minus its machine-local telemetry.
fn figure_tree(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut tree = read_tree(dir);
    tree.retain(|name, _| name != "metrics.json" && !name.starts_with("trace"));
    tree
}

/// The `"executed"` counter a `tdc all` run recorded in metrics.json.
fn executed(dir: &Path) -> u64 {
    let text = fs::read_to_string(dir.join("metrics.json")).expect("metrics.json written");
    Json::parse(&text)
        .expect("metrics.json parses")
        .get("executed")
        .and_then(Json::as_u64)
        .expect("metrics.json has an executed count")
}

/// Copies every store entry of `from` into `to`; a name present in
/// both must hold the same bytes (entries are content-addressed).
fn union_into(from: &Path, to: &Path) {
    fs::create_dir_all(to).expect("union dir");
    for entry in fs::read_dir(from).expect("store readable") {
        let path = entry.expect("dir entry").path();
        let name = path.file_name().expect("file name");
        let bytes = fs::read(&path).expect("entry readable");
        let dest = to.join(name);
        if let Ok(existing) = fs::read(&dest) {
            assert_eq!(existing, bytes, "{} differs between stores", dest.display());
        }
        fs::write(dest, bytes).expect("entry copied");
    }
}

/// The `cell-<fnv>.json` names a store holds for `jobs`.
fn entry_names(jobs: &[Job]) -> Vec<String> {
    let mut names: Vec<String> = jobs
        .iter()
        .map(|j| format!("cell-{:016x}.json", fnv1a_64(&j.cache_key())))
        .collect();
    names.sort();
    names
}

fn store_names(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = fs::read_dir(dir)
        .expect("store readable")
        .map(|e| e.expect("dir entry").file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
}

#[test]
fn two_way_shard_then_store_union_matches_direct_all_byte_for_byte() {
    let base = std::env::temp_dir().join(format!("tdc-store-fleet-{}", std::process::id()));
    let _ = fs::remove_dir_all(&base);
    fs::create_dir_all(&base).expect("temp dir");

    let direct = tdc(&["all", "--scale", SCALE, "--quiet", "--out", "direct"], &base);
    assert!(direct.status.success(), "tdc all failed");
    let full = plan(&RunConfig::scaled(tdc_harness::SEED, 0.001));
    for (k, store, jobs) in [(1u64, "s1", "2"), (2, "s2", "3")] {
        let spec = format!("{k}/2");
        let run = tdc(
            &["all", "--shard", &spec, "--scale", SCALE, "--jobs", jobs, "--quiet", "--cache-dir", store],
            &base,
        );
        assert!(
            run.status.success(),
            "tdc all --shard {spec} failed: {}",
            String::from_utf8_lossy(&run.stderr)
        );
        assert_eq!(
            store_names(&base.join(store)),
            entry_names(&shard_jobs(&full, k, 2)),
            "shard {spec} persisted something other than its slice"
        );
    }
    assert!(!base.join("results").exists(), "a shard run wrote artifacts");

    // Incomplete set: one slice alone still yields the exact tree.
    union_into(&base.join("s1"), &base.join("half"));
    let half = tdc(
        &["all", "--scale", SCALE, "--quiet", "--out", "from-half", "--cache-dir", "half"],
        &base,
    );
    assert!(half.status.success(), "warm run over half a fleet failed");
    assert!(executed(&base.join("from-half")) > 0, "missing cells were not simulated");

    union_into(&base.join("s1"), &base.join("union"));
    union_into(&base.join("s2"), &base.join("union"));
    let warm = tdc(
        &["all", "--scale", SCALE, "--quiet", "--out", "merged", "--cache-dir", "union"],
        &base,
    );
    assert!(
        warm.status.success(),
        "warm tdc all failed: {}",
        String::from_utf8_lossy(&warm.stderr)
    );
    assert_eq!(executed(&base.join("merged")), 0, "complete union re-simulated cells");

    let want = figure_tree(&base.join("direct"));
    assert!(!want.is_empty(), "no artifacts written");
    for dir in ["merged", "from-half"] {
        let got = figure_tree(&base.join(dir));
        assert_eq!(
            want.keys().collect::<Vec<_>>(),
            got.keys().collect::<Vec<_>>(),
            "{dir}: artifact set differs from direct tdc all"
        );
        for (name, bytes) in &want {
            assert_eq!(bytes, &got[name], "{dir}/{name} differs from direct tdc all");
        }
    }
    let _ = fs::remove_dir_all(&base);
}

#[test]
fn bad_shard_requests_are_usage_errors() {
    let base = std::env::temp_dir().join(format!("tdc-shard-usage-{}", std::process::id()));
    let _ = fs::remove_dir_all(&base);
    fs::create_dir_all(&base).expect("temp dir");
    let out = tdc(&["all", "--shard", "1/2", "--scale", SCALE], &base);
    assert_eq!(out.status.code(), Some(2), "--shard without --cache-dir");
    assert!(String::from_utf8_lossy(&out.stderr).contains("--cache-dir"));
    for spec in ["0/4", "5/4", "4/0", "a/b", "1/2/3", "3"] {
        let out = tdc(&["all", "--shard", spec, "--cache-dir", "store"], &base);
        assert_eq!(out.status.code(), Some(2), "--shard {spec}");
        assert!(String::from_utf8_lossy(&out.stderr).contains(spec), "--shard {spec}");
    }
    assert!(!base.join("store").exists(), "a rejected run opened the store");
    let _ = fs::remove_dir_all(&base);
}

#[test]
fn hostile_scales_are_usage_errors_on_every_subcommand() {
    let base = std::env::temp_dir().join(format!("tdc-hostile-scale-{}", std::process::id()));
    let _ = fs::remove_dir_all(&base);
    fs::create_dir_all(&base).expect("temp dir");
    let subcommands: [&[&str]; 6] = [
        &["all"],
        &["diff", "baseline"],
        &["trace", "mcf/ctlb"],
        &["prof", "mcf/ctlb"],
        &["serve"],
        &["bench", "run"],
    ];
    for sub in subcommands {
        for bad in ["inf", "nan", "1e300"] {
            let mut args = sub.to_vec();
            args.extend(["--scale", bad]);
            let out = tdc(&args, &base);
            assert_eq!(out.status.code(), Some(2), "tdc {} --scale {bad}", sub.join(" "));
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                stderr.contains("--scale must be above 0 and at most 16"),
                "tdc {} --scale {bad}: {stderr}",
                sub.join(" ")
            );
        }
    }
    let _ = fs::remove_dir_all(&base);
}
