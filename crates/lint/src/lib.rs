//! Determinism and invariant static analysis for the tagless DRAM
//! cache workspace (`tdc lint`).
//!
//! The simulator's contract is bit-exact reproducibility: every
//! `results/*.json` artifact depends only on the figure set, seed,
//! scale, and cache size — never on thread count, scheduling, or
//! wall-clock. This crate enforces the source-level discipline behind
//! that contract with a hand-rolled, dependency-free pass:
//!
//! * [`lexer`] — a minimal Rust scanner that blanks comments, strings,
//!   raw strings, and char literals so rules never match inside them,
//!   and extracts `// tdc-lint: allow(<rule>)` pragmas.
//! * [`rules`] — the rule set: determinism hazards (`HashMap`/`HashSet`
//!   in library code, wall-clock time sources, truncating casts on
//!   cycle/address values, `unwrap()`/`panic!` in libraries) and
//!   cross-file checks (probe hooks all emitted, figure ids all
//!   baselined, DESIGN.md timing constants all defined).
//! * [`engine`] — file discovery, parallel scanning through
//!   [`tdc_util::pool`], pragma/ratchet filtering, and the human and
//!   `results/lint.json` reports.
//! * [`cli`] — the `tdc lint` subcommand (`--only`, `--explain`,
//!   `--update-ratchet`, ...).
//!
//! Properties a name-level scan can only approximate — no allocation
//! on the simulator's hot path, no panic on hostile request bytes, no
//! lock-order deadlock in the daemon — are measured by dynamic checks
//! instead (DESIGN.md §14).
//!
//! Existing debt is held by a checked-in ratchet file (`lint.ratchet`)
//! whose per-`(rule, file)` counts may only decrease; any finding
//! beyond the ratchet fails the run, which is the CI gate.

pub mod cli;
pub mod engine;
pub mod lexer;
pub mod rules;

pub use engine::{find_workspace_root, run, Config, Finding, LintReport, Status};
pub use rules::{RawFinding, RULES};
