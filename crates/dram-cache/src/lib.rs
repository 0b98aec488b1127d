//! DRAM cache organizations — the paper's contribution and baselines.
//!
//! Everything below the on-die L1/L2 caches lives here: address
//! translation (TLBs + page tables + walker), the in-package DRAM cache
//! organization, and the off-package main memory (what the paper builds
//! and why: DESIGN.md §1; key modelling decisions: DESIGN.md §4). Five
//! organizations implement the common [`L3System`] trait:
//!
//! * [`TaglessCache`] — the paper's proposal: a cache-map TLB (cTLB)
//!   translates VA→CA directly; the TLB miss handler performs cache
//!   allocation; a global inverted page table (GIPT) plus a free queue
//!   implement asynchronous, fully associative FIFO (or LRU)
//!   replacement; the page-table NC bit provides block-granularity
//!   bypass for low-reuse pages.
//! * [`SramTagCache`] — the impractical-but-strong baseline: a 16-way
//!   set-associative page-granularity cache whose on-die SRAM tag array
//!   (Table 6 latency/storage) is probed on *every* L3 access.
//! * [`BankInterleave`] — heterogeneity-oblivious flat mapping of the
//!   in-package DRAM into the physical address space.
//! * [`NoL3`] — off-package DRAM only (the normalization baseline).
//! * [`Ideal`] — every access served at in-package latency.
//!
//! # Examples
//!
//! ```
//! use tdc_dram_cache::{L3System, SystemParams, TaglessCache, VictimPolicy};
//! use tdc_util::{Vpn, Cycle};
//!
//! let params = SystemParams::paper_default();
//! let mut l3 = TaglessCache::new(&params, VictimPolicy::Fifo);
//! // Core 0 touches a page: cTLB miss, cold fill, then guaranteed hit.
//! let tr = l3.translate(0, 0, Vpn(100), false);
//! assert!(!tr.tlb_hit);
//! let tr2 = l3.translate(tr.penalty as Cycle, 0, Vpn(100), false);
//! assert!(tr2.tlb_hit);
//! ```

pub mod bank_interleave;
pub mod gipt;
pub mod ideal;
pub mod l3;
pub mod mmu;
pub mod no_l3;
pub mod slots;
pub mod sram_tag;
pub mod tagless;
pub mod walker_model;

pub use bank_interleave::BankInterleave;
pub use gipt::{Gipt, GiptEntry};
pub use ideal::Ideal;
pub use l3::{
    AccessCase, Frame, L3Stats, L3System, MemoryOutcome, SystemParams, TranslationOutcome,
};
pub use mmu::{ConvTranslation, ConventionalFront, Mmu, MmuParams};
pub use no_l3::NoL3;
pub use slots::{SlotRing, VictimPolicy};
pub use sram_tag::SramTagCache;
pub use tagless::TaglessCache;
pub use walker_model::WalkerModel;
