//! `tdc serve` — the persistent sweep service (DESIGN.md §12).
//!
//! Batch `tdc all` pays the full simulation cost on every invocation;
//! this crate turns the same job plan into a long-running daemon that
//! holds results warm across requests. It is engine-agnostic: the
//! [`Engine`] trait is the seam to the experiment harness (implemented
//! there as `PlanEngine`, keeping the dependency arrow pointing the
//! same way as every other crate's — toward `tdc-util` only).
//!
//! * [`wire`] — the versioned serve-envelope JSON wire format
//!   (DESIGN.md §12), pinned by the wire golden files.
//! * [`store`] — the disk-persisted content-addressed result store
//!   (one `cell-<fnv64>.json` per job cache key), shared with batch
//!   `tdc all --cache-dir` warm starts.
//! * [`server`] — routing, the in-memory warm cache, single-flight
//!   dedup of concurrent identical jobs, and bounded-queue admission
//!   control (`429` + `Retry-After`).
//! * [`client`] — one-shot request exchange and percentile math for
//!   the `tdc serve --bench` load generator.

pub mod client;
pub mod server;
pub mod store;
pub mod wire;

pub use client::{exchange, percentile};
pub use server::{CacheStats, Engine, Server, ServerConfig};
pub use store::{ResultStore, StoreCounters, STORE_VERSION};
pub use wire::{envelope, parse_sweep, sweep_request, SweepRequest, WIRE_FIELDS, WIRE_VERSION};
