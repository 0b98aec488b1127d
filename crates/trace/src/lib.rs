//! Synthetic memory-reference traces for the tagless DRAM cache study.
//!
//! The paper drives McSimA+ with Pin traces of SPEC CPU2006 and PARSEC,
//! sliced with Simpoint. Neither the binaries nor the traces can ship
//! with this repository, so this crate provides the documented
//! substitution (see `DESIGN.md` §2): **statistical trace generators**
//! whose parameters — footprint, page-reuse skew, spatial density,
//! block-level temporal locality, write fraction, memory intensity —
//! are calibrated to the published memory behaviour of each named
//! benchmark. These are exactly the axes that determine page-based
//! DRAM-cache behaviour, so the shape of every result is preserved.
//!
//! * [`MemRef`] / [`TraceSource`] — the trace record and stream traits.
//! * [`SyntheticWorkload`] — the generator: a two-component page-visit
//!   model (Zipf-skewed hot set + cyclic cold stream) with geometric
//!   within-page spatial runs and per-block repeats.
//! * [`profiles`] — per-benchmark [`WorkloadProfile`]s for the 11
//!   memory-bound SPEC programs, the 8 multi-programmed mixes of
//!   Table 5, and the 4 PARSEC programs (§5.3).
//! * [`parsec`] — multi-threaded trace construction with shared pages.
//! * [`PrefetchSource`] / [`TraceFeed`] — a generator run on a producer
//!   thread of its own, a few chunks ahead of the simulation.
//!
//! # Examples
//!
//! ```
//! use tdc_trace::{profiles, SyntheticWorkload, TraceSource};
//!
//! let profile = profiles::spec("libquantum").expect("known benchmark");
//! let mut src = SyntheticWorkload::new(profile.clone(), 0, 1);
//! let r = src.next_ref();
//! assert!(r.gap_instrs < 10_000);
//! ```

pub mod parsec;
pub mod prefetch;
pub mod profiles;
pub mod record;
pub mod synth;

pub use parsec::ParsecTraces;
pub use prefetch::{PrefetchSource, TraceFeed};
pub use profiles::{WorkloadProfile, MIXES, PARSEC_NAMES, SPEC_NAMES};
pub use record::{MemRef, ReplaySource, TraceSource};
pub use synth::{page_access_counts, SyntheticWorkload};
