//! Differential-testing toolkit (DESIGN.md §15).
//!
//! The flat access-path structures ([`crate::flat`], the SoA TLB, the
//! slot ring) each keep their original map-backed implementation as a
//! `#[cfg(test)]` reference model. This module is the shared harness
//! that drives both models over generated operation traces and, on
//! divergence, shrinks the trace to the **minimal failing prefix** so
//! the report is a handful of ops instead of a 10k-step dump.
//!
//! The contract: the caller supplies a `replay` closure that rebuilds
//! both models from scratch, applies a prefix of the trace, compares
//! observable state *after every step*, and returns `Err(detail)` at
//! the first divergence. Because every step is checked, failure is
//! prefix-monotone, and the minimal failing prefix can be found by
//! binary search over the prefix length.
//!
//! Generators are seeded [`XorShift64`] streams — no external property
//! testing crates, per the workspace's zero-dependency rule.
//!
//! The same generator drives the dynamic checks of DESIGN.md §14:
//! [`XorShift64::mutate`] is the byte mutator behind the parser fuzz
//! tests, and [`CountingAlloc`] is the allocation counter the
//! allocation-freedom tests install as their global allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// A tiny xorshift64 PRNG for trace generation.
///
/// Distinct from [`crate::rng::Pcg32`] (which feeds the *simulated
/// workloads* and is part of the artifact-determinism contract); the
/// testkit deliberately uses its own generator so test traces can
/// evolve without touching figure bytes.
#[derive(Debug, Clone)]
pub struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    /// Seeds the generator; a zero seed is mapped to a fixed non-zero
    /// constant (xorshift has an all-zero fixed point).
    pub fn new(seed: u64) -> Self {
        Self {
            state: if seed == 0 { 0x9E37_79B9_7F4A_7C15 } else { seed },
        }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x
    }

    /// Uniform-ish value in `0..n` (modulo bias is irrelevant for trace
    /// generation).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0)");
        self.next_u64() % n
    }

    /// True with probability `percent`/100.
    pub fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }

    /// Applies one to four random edits to `bytes`: bit flips, byte
    /// overwrites, deletions, duplicated chunks, truncation, and
    /// insertions of `dict` tokens (the syntax a parser branches on,
    /// which blind byte edits rarely produce).
    pub fn mutate(&mut self, bytes: &mut Vec<u8>, dict: &[&[u8]]) {
        for _ in 0..=self.below(4) {
            let len = bytes.len() as u64;
            let at = self.below(len + 1) as usize;
            match self.below(7) {
                0 if at < bytes.len() => bytes[at] ^= 1 << self.below(8),
                1 if at < bytes.len() => bytes[at] = self.next_u64() as u8,
                2 => {
                    let end = (at + 1 + self.below(8) as usize).min(bytes.len());
                    bytes.drain(at.min(end)..end);
                }
                3 if at < bytes.len() => {
                    let end = (at + 1 + self.below(16) as usize).min(bytes.len());
                    let chunk = bytes[at..end].to_vec();
                    bytes.splice(at..at, chunk);
                }
                4 => bytes.truncate(at),
                _ if !dict.is_empty() => {
                    let token = dict[self.below(dict.len() as u64) as usize];
                    bytes.splice(at..at, token.iter().copied());
                }
                _ => {}
            }
        }
    }
}

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// A global allocator that forwards to [`System`] and counts, per
/// thread, every call that hands out memory (`alloc`, `alloc_zeroed`,
/// `realloc`). A test binary installs it with
/// `#[global_allocator] static A: CountingAlloc = CountingAlloc;` and
/// reads [`CountingAlloc::count`] before and after the code under
/// test: the difference is exactly the allocations that code made on
/// this thread, where a static scan could only guess from call names.
///
/// This is the workspace's only `unsafe`: `GlobalAlloc` is an unsafe
/// trait, and forwarding to `System` cannot be written without it.
/// Each method passes its arguments through unchanged, so `System`'s
/// guarantees are the caller's. The counter is a const-initialized
/// `thread_local!` `Cell` without a destructor: touching it never
/// allocates (no recursion into the allocator) and works during thread
/// teardown (`try_with` covers the rest).
pub struct CountingAlloc;

impl CountingAlloc {
    /// Allocations made so far by the calling thread.
    pub fn count() -> u64 {
        ALLOCATIONS.with(Cell::get)
    }

    fn bump() {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::bump();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::bump();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::bump();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// A divergence found between a reference and a flat model.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Number of ops in the minimal failing prefix (the divergence is
    /// observed after applying op `prefix_len - 1`).
    pub prefix_len: usize,
    /// The model-supplied description of what differed.
    pub detail: String,
}

/// Replays the full trace; on failure, binary-searches the shortest
/// failing prefix and returns it. `replay` must check equivalence after
/// every applied op (so that failing prefixes are monotone in length).
pub fn minimal_failing_prefix<Op>(
    ops: &[Op],
    replay: impl Fn(&[Op]) -> Result<(), String>,
) -> Option<Divergence> {
    replay(ops).err()?;
    let (mut lo, mut hi) = (1usize, ops.len());
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if replay(&ops[..mid]).is_err() {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    let detail = replay(&ops[..lo])
        .err()
        .unwrap_or_else(|| "divergence not reproducible at minimal prefix".into());
    Some(Divergence {
        prefix_len: lo,
        detail,
    })
}

/// How many trailing ops of a failing prefix to print in full.
const REPORT_TAIL: usize = 24;

/// Runs the differential check and panics with a readable report —
/// divergence detail plus the (tail of the) minimal failing prefix —
/// if the models disagree.
pub fn assert_equiv<Op: std::fmt::Debug>(
    name: &str,
    ops: &[Op],
    replay: impl Fn(&[Op]) -> Result<(), String>,
) {
    let Some(d) = minimal_failing_prefix(ops, replay) else {
        return;
    };
    let start = d.prefix_len.saturating_sub(REPORT_TAIL);
    let mut listing = String::new();
    if start > 0 {
        listing.push_str(&format!("  ... {start} earlier ops elided ...\n"));
    }
    for (i, op) in ops[..d.prefix_len].iter().enumerate().skip(start) {
        listing.push_str(&format!("  [{i}] {op:?}\n"));
    }
    // tdc-lint: allow(panic-in-lib) test-harness assertion; panicking is its contract
    panic!(
        "{name}: reference/flat divergence after {} of {} ops\n  {}\nminimal failing prefix:\n{listing}",
        d.prefix_len,
        ops.len(),
        d.detail
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xorshift_is_deterministic_and_nonzero() {
        let mut a = XorShift64::new(42);
        let mut b = XorShift64::new(42);
        for _ in 0..1000 {
            let x = a.next_u64();
            assert_eq!(x, b.next_u64());
            assert_ne!(x, 0);
        }
        // Zero seed does not get stuck at zero.
        let mut z = XorShift64::new(0);
        assert_ne!(z.next_u64(), 0);
    }

    #[test]
    fn below_and_chance_are_in_range() {
        let mut r = XorShift64::new(7);
        for _ in 0..1000 {
            assert!(r.below(13) < 13);
        }
        assert!(!XorShift64::new(1).chance(0));
        assert!(XorShift64::new(1).chance(100));
    }

    #[test]
    fn mutate_is_seeded_and_uses_the_dictionary() {
        let run = |seed| {
            let mut rng = XorShift64::new(seed);
            let mut bytes = b"GET / HTTP/1.1".to_vec();
            for _ in 0..64 {
                rng.mutate(&mut bytes, &[b"@@"]);
            }
            bytes
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4));
        assert!(run(3).windows(2).any(|w| w == b"@@"));
    }

    #[test]
    fn clean_trace_reports_no_divergence() {
        let ops: Vec<u32> = (0..100).collect();
        assert!(minimal_failing_prefix(&ops, |_| Ok(())).is_none());
    }

    #[test]
    fn finds_exact_minimal_prefix() {
        // Synthetic model pair that diverges when op value 37 is applied.
        let ops: Vec<u32> = (0..100).collect();
        let replay = |prefix: &[u32]| -> Result<(), String> {
            for &op in prefix {
                if op == 37 {
                    return Err("models disagree on 37".into());
                }
            }
            Ok(())
        };
        let d = minimal_failing_prefix(&ops, replay).expect("must fail");
        assert_eq!(d.prefix_len, 38, "op 37 is the 38th op");
        assert!(d.detail.contains("37"));
    }

    #[test]
    fn divergence_on_first_op_shrinks_to_one() {
        let ops = vec![9u32, 1, 2];
        let d = minimal_failing_prefix(&ops, |p| {
            if p.contains(&9) {
                Err("boom".into())
            } else {
                Ok(())
            }
        })
        .expect("must fail");
        assert_eq!(d.prefix_len, 1);
    }

    #[test]
    #[should_panic(expected = "minimal failing prefix")]
    fn assert_equiv_panics_with_prefix_listing() {
        let ops: Vec<u32> = (0..50).collect();
        assert_equiv("demo", &ops, |p| {
            if p.len() >= 30 {
                Err("state mismatch".into())
            } else {
                Ok(())
            }
        });
    }
}
