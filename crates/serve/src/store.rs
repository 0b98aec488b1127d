//! The disk-persisted, content-addressed result store.
//!
//! One JSON file per job cache key, named by the FNV-1a hash of the
//! key (the same [`tdc_util::fnv1a_64`] that `tdc all --shard`
//! partitions on), each wrapping the cell's report document in a versioned
//! entry:
//!
//! ```text
//! <cache-dir>/cell-<fnv64 hex>.json
//!   { "format_version": 1, "key": "<cache key>", "report": { ... } }
//! ```
//!
//! Because cache keys are injective over `(workload, org, config)`,
//! addressing by key is safe across scales and seeds: entries written
//! at one configuration simply never match lookups from another. Both
//! the `tdc serve` daemon and batch `tdc all --cache-dir` read and
//! write this layout, so warm results are shared between the two.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use tdc_util::{fnv1a_64, Json};

/// Version stamp of the on-disk entry wrapper; entries with any other
/// version are ignored on load (never silently reinterpreted).
pub const STORE_VERSION: u64 = 1;

/// Counters for one store's lifetime (observability only).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreCounters {
    /// Lookups satisfied from disk.
    pub hits: u64,
    /// Lookups that found no usable entry.
    pub misses: u64,
    /// Entries written.
    pub persisted: u64,
}

/// A directory of `cell-*.json` entries keyed by job cache key.
pub struct ResultStore {
    dir: PathBuf,
    hits: AtomicU64,
    misses: AtomicU64,
    persisted: AtomicU64,
}

impl ResultStore {
    /// Opens (creating if needed) the store at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(Self {
            dir,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            persisted: AtomicU64::new(0),
        })
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The entry path for a cache key.
    pub fn path_for(&self, key: &str) -> PathBuf {
        self.dir.join(format!("cell-{:016x}.json", fnv1a_64(key)))
    }

    /// The report document stored for `key`, if a valid entry exists.
    /// Unreadable, unparseable, version-mismatched, or key-mismatched
    /// entries count as misses (a colliding or corrupt file must never
    /// masquerade as a result).
    pub fn get(&self, key: &str) -> Option<Json> {
        let report = fs::read_to_string(self.path_for(key))
            .ok()
            .and_then(|text| Json::parse(&text).ok())
            .and_then(|entry| Self::unwrap_entry(&entry, Some(key)));
        match report {
            Some(doc) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(doc)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Validates one entry document and extracts `(key, report)`.
    /// `expect_key` additionally pins the stored key.
    fn unwrap_entry(entry: &Json, expect_key: Option<&str>) -> Option<Json> {
        if entry.get("format_version").and_then(Json::as_u64) != Some(STORE_VERSION) {
            return None;
        }
        let key = entry.get("key").and_then(Json::as_str)?;
        if expect_key.is_some_and(|want| want != key) {
            return None;
        }
        entry.get("report").cloned()
    }

    /// Persists `report` under `key`. Existing entries are left alone:
    /// the store is content-addressed, so an entry for a key can only
    /// ever hold one value and the first write wins.
    pub fn put(&self, key: &str, report: &Json) -> io::Result<()> {
        let path = self.path_for(key);
        if path.exists() {
            return Ok(());
        }
        let entry = Json::obj([
            ("format_version", Json::from(STORE_VERSION)),
            ("key", Json::from(key)),
            ("report", report.clone()),
        ]);
        // Write-then-rename so a concurrent reader never sees a torn
        // entry; the final name only appears once the bytes are down.
        let tmp = path.with_extension("tmp");
        fs::write(&tmp, entry.pretty())?;
        fs::rename(&tmp, &path)?;
        self.persisted.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Loads every valid entry, sorted by key. Invalid files are
    /// counted, not fatal: a store survives partial corruption and
    /// format-version bumps by re-simulating the affected cells.
    pub fn load_all(&self) -> io::Result<(Vec<(String, Json)>, usize)> {
        let mut entries = Vec::new();
        let mut skipped = 0usize;
        for dirent in fs::read_dir(&self.dir)? {
            let path = dirent?.path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if !name.starts_with("cell-") || !name.ends_with(".json") {
                continue;
            }
            let parsed = fs::read_to_string(&path)
                .ok()
                .and_then(|text| Json::parse(&text).ok());
            let keyed = parsed.as_ref().and_then(|entry| {
                let key = entry.get("key").and_then(Json::as_str)?.to_string();
                Self::unwrap_entry(entry, None).map(|report| (key, report))
            });
            match keyed {
                Some(pair) => entries.push(pair),
                None => skipped += 1,
            }
        }
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        Ok((entries, skipped))
    }

    /// Number of `cell-*.json` files currently on disk.
    pub fn len(&self) -> io::Result<usize> {
        let mut n = 0;
        for dirent in fs::read_dir(&self.dir)? {
            let path = dirent?.path();
            let name = path.file_name().and_then(|f| f.to_str()).unwrap_or("");
            if name.starts_with("cell-") && name.ends_with(".json") {
                n += 1;
            }
        }
        Ok(n)
    }

    /// Whether the store currently holds no entries.
    pub fn is_empty(&self) -> io::Result<bool> {
        Ok(self.len()? == 0)
    }

    /// Lifetime counters.
    pub fn counters(&self) -> StoreCounters {
        StoreCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            persisted: self.persisted.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_store(tag: &str) -> ResultStore {
        let dir = std::env::temp_dir().join(format!("tdc-store-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        ResultStore::open(dir).expect("store opens")
    }

    fn doc(v: u64) -> Json {
        Json::obj([("value", Json::from(v))])
    }

    #[test]
    fn put_get_round_trip_and_counters() {
        let store = tmp_store("roundtrip");
        assert!(store.get("k1").is_none());
        store.put("k1", &doc(7)).expect("put");
        assert_eq!(store.get("k1"), Some(doc(7)));
        assert_eq!(store.len().expect("len"), 1);
        let c = store.counters();
        assert_eq!((c.hits, c.misses, c.persisted), (1, 1, 1));
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn first_write_wins() {
        let store = tmp_store("firstwins");
        store.put("k", &doc(1)).expect("put");
        store.put("k", &doc(2)).expect("second put is a no-op");
        assert_eq!(store.get("k"), Some(doc(1)));
        assert_eq!(store.counters().persisted, 1);
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn load_all_skips_invalid_entries() {
        let store = tmp_store("loadall");
        store.put("b", &doc(2)).expect("put");
        store.put("a", &doc(1)).expect("put");
        // A version-mismatched entry and a junk file: both skipped.
        fs::write(
            store.dir().join("cell-0000000000000bad.json"),
            Json::obj([
                ("format_version", Json::from(99u64)),
                ("key", Json::from("zzz")),
                ("report", doc(9)),
            ])
            .pretty(),
        )
        .expect("write stale entry");
        fs::write(store.dir().join("cell-notjson.json"), "{oops").expect("write junk");
        fs::write(store.dir().join("README.txt"), "ignored").expect("write bystander");

        let (entries, skipped) = store.load_all().expect("load");
        let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, vec!["a", "b"], "sorted by key, stale/junk skipped");
        assert_eq!(skipped, 2);
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn key_mismatch_is_a_miss() {
        let store = tmp_store("keymismatch");
        store.put("real-key", &doc(5)).expect("put");
        // Copy the entry to the filename another key hashes to: the
        // stored key no longer matches, so the lookup must miss.
        let target = store.path_for("other-key");
        fs::copy(store.path_for("real-key"), target).expect("copy");
        assert!(store.get("other-key").is_none());
        let _ = fs::remove_dir_all(store.dir());
    }
}
