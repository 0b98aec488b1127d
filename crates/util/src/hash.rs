//! Stable, dependency-free string hashing.
//!
//! The experiment harness needs hashes that are **stable across
//! processes, platforms, and releases**: `tdc all --shard` assigns a
//! job to a machine by hashing its cache key, and artifact and
//! result-store filenames embed a key hash. `std::hash` makes no such stability promise (and
//! `DefaultHasher` is explicitly allowed to change), so we pin FNV-1a
//! here and treat its output as part of the artifact format.

/// 64-bit FNV-1a over the bytes of `s`.
///
/// Deterministic and platform-independent: the same string hashes to
/// the same value everywhere, forever. Used for shard assignment
/// ([`shard_of`]) and short artifact-filename suffixes.
pub fn fnv1a_64(s: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// The 1-based shard (`1..=total`) that owns `key` in a `total`-way
/// partition.
///
/// Membership depends only on the key's own bytes — never on the
/// position of the key in a job list — so adding or removing unrelated
/// jobs (say, a new figure) cannot reshuffle existing assignments.
/// `total = 0` is treated as 1 (everything in shard 1).
pub fn shard_of(key: &str, total: u64) -> u64 {
    fnv1a_64(key) % total.max(1) + 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a_64(""), 0xcbf29ce484222325);
        assert_eq!(fnv1a_64("a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a_64("foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn shard_of_is_stable_and_in_range() {
        for n in 1..=8u64 {
            for key in ["spec:mcf|org=Tagless", "mix:MIX3|org=NoL3", ""] {
                let s = shard_of(key, n);
                assert!((1..=n).contains(&s));
                assert_eq!(s, shard_of(key, n), "assignment must be pure");
            }
        }
    }

    #[test]
    fn shard_of_covers_every_shard() {
        // With many distinct keys, every shard of a small partition
        // receives at least one (sanity against a constant function).
        let n = 4u64;
        let mut seen = [false; 4];
        for i in 0..64 {
            let k = format!("key-{i}");
            seen[(shard_of(&k, n) - 1) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "some shard never selected: {seen:?}");
    }

    #[test]
    fn zero_total_degenerates_to_one_shard() {
        assert_eq!(shard_of("anything", 0), 1);
    }
}
