//! Per-layer timing from outside the program: wrappers around the public
//! `TraceSource` and `L3System` traits, driven through `System::run`.
//!
//! Every call is counted; a deterministic pseudo-random 1-in-`SAMPLE_EVERY`
//! sample of calls is timed, and the clock's calibrated empty-interval
//! cost is subtracted from each timed call. A layer's host time is its
//! mean sampled call time times its call count. What `System::run` spends
//! outside the wrapped calls (core model, L1/L2, the min-clock scan and the
//! wrappers' own counting) is the core residual.

use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;
use tdc_core::experiment::Job;
use tdc_core::{CoreResult, DramStats, L3Stats, System};
use tdc_dram_cache::{Frame, L3System, MemoryOutcome, TranslationOutcome};
use tdc_trace::{MemRef, TraceSource};
use tdc_util::{Cycle, Vpn};

use crate::plan;

/// Mean gap between timed calls.
const SAMPLE_EVERY: u64 = 64;

/// A timed call longer than this was interrupted (preempted or faulted
/// by the OS): of the millions of calls a traced run times, a handful
/// exceed it. Interrupted samples are counted and left out of the mean,
/// which would otherwise multiply one preemption by the call count.
const INTERRUPTED_NS: u64 = 100_000;

/// Median cost of one empty `Instant::now()`-to-`Instant::now()`
/// interval, in ns.
pub fn calibrate_clock() -> f64 {
    let mut samples: Vec<f64> = (0..20_001)
        .map(|_| {
            let t = Instant::now();
            t.elapsed().as_nanos() as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Decides which calls to time: gaps drawn uniformly from
/// `1..2*SAMPLE_EVERY` by a fixed-seed xorshift, so the sample is the
/// same on every run and does not alias with periodic access patterns.
struct Sampler {
    left: u64,
    state: u64,
}

impl Sampler {
    fn new(stream: u64) -> Self {
        let mut s = Self {
            left: 0,
            state: 0x9E37_79B9_7F4A_7C15 ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03),
        };
        s.left = s.gap();
        s
    }

    fn gap(&mut self) -> u64 {
        self.state ^= self.state << 13;
        self.state ^= self.state >> 7;
        self.state ^= self.state << 17;
        1 + self.state % (2 * SAMPLE_EVERY - 1)
    }

    fn take(&mut self) -> bool {
        self.left -= 1;
        if self.left == 0 {
            self.left = self.gap();
            true
        } else {
            false
        }
    }
}

/// Call counts and sampled time of one layer entry point.
#[derive(Default)]
struct Tally {
    calls: Cell<u64>,
    sampled: Cell<u64>,
    sampled_ns: Cell<u64>,
    interrupted: Cell<u64>,
}

impl Tally {
    fn time<R>(&self, sampler: &mut Sampler, call: impl FnOnce() -> R) -> R {
        self.calls.set(self.calls.get() + 1);
        if !sampler.take() {
            return call();
        }
        let t = Instant::now();
        let r = call();
        let ns = t.elapsed().as_nanos() as u64;
        if ns > INTERRUPTED_NS {
            self.interrupted.set(self.interrupted.get() + 1);
        } else {
            self.sampled.set(self.sampled.get() + 1);
            self.sampled_ns.set(self.sampled_ns.get() + ns);
        }
        r
    }

    fn snapshot(&self, empty_ns: f64) -> LayerTime {
        let (calls, sampled) = (self.calls.get(), self.sampled.get());
        let ns_per_call = if sampled == 0 {
            0.0
        } else {
            self.sampled_ns.get() as f64 / sampled as f64 - empty_ns
        };
        LayerTime {
            calls,
            sampled,
            interrupted: self.interrupted.get(),
            ns: ns_per_call * calls as f64,
        }
    }
}

/// A layer's estimated host time over one cell.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTime {
    pub calls: u64,
    pub sampled: u64,
    /// Timed calls dropped as interrupted.
    pub interrupted: u64,
    /// Estimated total ns (mean sampled call minus clock cost, times calls).
    pub ns: f64,
}

impl LayerTime {
    fn add(&mut self, o: &LayerTime) {
        self.calls += o.calls;
        self.sampled += o.sampled;
        self.interrupted += o.interrupted;
        self.ns += o.ns;
    }
}

struct TimedTrace {
    inner: Box<dyn TraceSource>,
    sampler: Sampler,
    tally: Rc<Tally>,
}

impl TraceSource for TimedTrace {
    fn next_ref(&mut self) -> MemRef {
        let Self {
            inner,
            sampler,
            tally,
        } = self;
        tally.time(sampler, || inner.next_ref())
    }

    fn label(&self) -> &str {
        self.inner.label()
    }
}

#[derive(Default)]
struct L3Tally {
    translate: Tally,
    access: Tally,
    writeback: Tally,
    /// L1 TLB hits and lookups since the last `reset_stats` (the
    /// measured phase, once `System::run` has reset after warmup).
    tlb_hits: Cell<u64>,
    tlb_lookups: Cell<u64>,
}

struct TimedL3 {
    inner: Box<dyn L3System>,
    samplers: [Sampler; 3],
    tally: Rc<L3Tally>,
}

impl L3System for TimedL3 {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn translate(
        &mut self,
        now: Cycle,
        core: usize,
        vpn: Vpn,
        is_write: bool,
    ) -> TranslationOutcome {
        let Self {
            inner,
            samplers,
            tally,
        } = self;
        let out = tally.translate.time(&mut samplers[0], || {
            inner.translate(now, core, vpn, is_write)
        });
        tally.tlb_lookups.set(tally.tlb_lookups.get() + 1);
        tally
            .tlb_hits
            .set(tally.tlb_hits.get() + u64::from(out.tlb_hit));
        out
    }

    fn access(
        &mut self,
        now: Cycle,
        core: usize,
        frame: Frame,
        nc: bool,
        block: u64,
    ) -> MemoryOutcome {
        let Self {
            inner,
            samplers,
            tally,
        } = self;
        tally.access.time(&mut samplers[1], || {
            inner.access(now, core, frame, nc, block)
        })
    }

    fn writeback(&mut self, now: Cycle, core: usize, frame: Frame, nc: bool, block: u64) {
        let Self {
            inner,
            samplers,
            tally,
        } = self;
        tally.writeback.time(&mut samplers[2], || {
            inner.writeback(now, core, frame, nc, block)
        })
    }

    fn stats(&self) -> &L3Stats {
        self.inner.stats()
    }

    fn energy_pj(&self) -> f64 {
        self.inner.energy_pj()
    }

    fn in_pkg_stats(&self) -> Option<&DramStats> {
        self.inner.in_pkg_stats()
    }

    fn off_pkg_stats(&self) -> &DramStats {
        self.inner.off_pkg_stats()
    }

    fn reset_stats(&mut self) {
        self.tally.tlb_hits.set(0);
        self.tally.tlb_lookups.set(0);
        self.inner.reset_stats();
    }
}

/// Everything one traced cell measured.
pub struct CellTrace {
    /// References simulated, warmup included, all cores.
    pub refs: u64,
    /// Wall time of the whole cell: build, traces and `System::run`.
    pub cell_ns: f64,
    /// Wall time of `System::run` alone.
    pub run_ns: f64,
    /// Wall time of building the L3 organization.
    pub build_ns: f64,
    pub trace: LayerTime,
    pub translate: LayerTime,
    pub access: LayerTime,
    pub writeback: LayerTime,
    pub tlb_hits: u64,
    pub tlb_lookups: u64,
    pub cores: Vec<CoreResult>,
    pub l3: L3Stats,
    pub in_pkg: Option<DramStats>,
    pub off_pkg: DramStats,
    pub off_pkg_channels: u32,
}

impl CellTrace {
    /// `System::run` time outside the wrapped calls: the core model,
    /// L1/L2 lookups and the wrappers' own counting.
    pub fn core_self_ns(&self) -> f64 {
        self.run_ns - self.trace.ns - self.translate.ns - self.access.ns - self.writeback.ns
    }
}

/// Runs `job` with every trace source and the L3 organization wrapped.
pub fn run_traced(job: &Job, empty_ns: f64) -> Result<CellTrace, String> {
    let start = Instant::now();
    let parts = plan::cell_parts(job)?;
    let t = Instant::now();
    let org = plan::build_org(job, &parts.params)?;
    let build_ns = t.elapsed().as_nanos() as f64;

    let cores = parts.traces.len() as u64;
    let trace_tally = Rc::new(Tally::default());
    let traces = parts
        .traces
        .into_iter()
        .enumerate()
        .map(|(i, inner)| -> Box<dyn TraceSource> {
            Box::new(TimedTrace {
                inner,
                sampler: Sampler::new(i as u64 + 1),
                tally: trace_tally.clone(),
            })
        })
        .collect();
    let l3_tally = Rc::new(L3Tally::default());
    let l3 = TimedL3 {
        inner: org,
        samplers: [Sampler::new(101), Sampler::new(102), Sampler::new(103)],
        tally: l3_tally.clone(),
    };
    let mut sys = System::new(Box::new(l3), traces);
    let t = Instant::now();
    let results = sys.run(job.cfg.warmup_refs, job.cfg.measured_refs);
    let run_ns = t.elapsed().as_nanos() as f64;
    let cell_ns = start.elapsed().as_nanos() as f64;

    Ok(CellTrace {
        refs: cores * (job.cfg.warmup_refs + job.cfg.measured_refs),
        cell_ns,
        run_ns,
        build_ns,
        trace: trace_tally.snapshot(empty_ns),
        translate: l3_tally.translate.snapshot(empty_ns),
        access: l3_tally.access.snapshot(empty_ns),
        writeback: l3_tally.writeback.snapshot(empty_ns),
        tlb_hits: l3_tally.tlb_hits.get(),
        tlb_lookups: l3_tally.tlb_lookups.get(),
        cores: results,
        l3: sys.l3().stats().clone(),
        in_pkg: sys.l3().in_pkg_stats().copied(),
        off_pkg: *sys.l3().off_pkg_stats(),
        off_pkg_channels: parts.params.off_pkg.channels,
    })
}

/// Time from `since` to the first reference `job` simulates: builds the
/// cell's traces, organization and `System`, then steps each core once.
pub fn first_ref_ns(job: &Job, since: Instant) -> Result<f64, String> {
    let parts = plan::cell_parts(job)?;
    let org = plan::build_org(job, &parts.params)?;
    let seen = Rc::new(Cell::new(None));
    let traces = parts
        .traces
        .into_iter()
        .map(|inner| -> Box<dyn TraceSource> {
            Box::new(FirstRef {
                inner,
                seen: seen.clone(),
            })
        })
        .collect();
    System::new(org, traces).run(0, 1);
    let first: Option<Instant> = seen.get();
    first
        .map(|t| (t - since).as_nanos() as f64)
        .ok_or_else(|| "cell simulated no reference".to_string())
}

/// Records when its first reference is drawn.
struct FirstRef {
    inner: Box<dyn TraceSource>,
    seen: Rc<Cell<Option<Instant>>>,
}

impl TraceSource for FirstRef {
    fn next_ref(&mut self) -> MemRef {
        if self.seen.get().is_none() {
            self.seen.set(Some(Instant::now()));
        }
        self.inner.next_ref()
    }
}

/// Sum of the layer times of many cells.
#[derive(Debug, Default)]
pub struct Totals {
    pub cells: u64,
    pub refs: u64,
    pub measured_refs: u64,
    pub cell_ns: f64,
    pub run_ns: f64,
    pub build_ns: f64,
    pub trace: LayerTime,
    pub translate: LayerTime,
    pub access: LayerTime,
    pub writeback: LayerTime,
    pub core_self_ns: f64,
    pub tlb_hits: u64,
    pub tlb_lookups: u64,
    pub l3: L3Stats,
    pub in_pkg: DramStats,
    pub off_pkg: DramStats,
    /// Measured makespan times off-package channels, in cycles.
    pub off_pkg_bus_cycles: u64,
    pub core: CoreSums,
}

/// Measured-phase core counters summed over cores and cells.
#[derive(Debug, Default)]
pub struct CoreSums {
    pub cycles: u64,
    pub l1_misses: u64,
    pub l2_misses: u64,
    pub tlb_penalty: u64,
    pub mem_stall: u64,
}

impl Totals {
    pub fn add(&mut self, c: &CellTrace) {
        self.cells += 1;
        self.refs += c.refs;
        self.cell_ns += c.cell_ns;
        self.run_ns += c.run_ns;
        self.build_ns += c.build_ns;
        self.trace.add(&c.trace);
        self.translate.add(&c.translate);
        self.access.add(&c.access);
        self.writeback.add(&c.writeback);
        self.core_self_ns += c.core_self_ns();
        self.tlb_hits += c.tlb_hits;
        self.tlb_lookups += c.tlb_lookups;
        add_l3(&mut self.l3, &c.l3);
        if let Some(d) = &c.in_pkg {
            add_dram(&mut self.in_pkg, d);
        }
        add_dram(&mut self.off_pkg, &c.off_pkg);
        let makespan = c.cores.iter().map(|r| r.cycles).max().unwrap_or(0);
        self.off_pkg_bus_cycles += makespan * u64::from(c.off_pkg_channels);
        for r in &c.cores {
            self.measured_refs += r.refs;
            self.core.cycles += r.cycles;
            self.core.l1_misses += r.l1_misses;
            self.core.l2_misses += r.l2_misses;
            self.core.tlb_penalty += r.tlb_penalty;
            self.core.mem_stall += r.mem_stall;
        }
    }
}

fn add_l3(a: &mut L3Stats, b: &L3Stats) {
    a.demand_reads += b.demand_reads;
    a.in_package_reads += b.in_package_reads;
    a.writebacks_in += b.writebacks_in;
    a.page_fills += b.page_fills;
    a.case_miss_hit += b.case_miss_hit;
    a.case_miss_miss += b.case_miss_miss;
    a.gipt_updates += b.gipt_updates;
    a.stale_writebacks += b.stale_writebacks;
}

fn add_dram(a: &mut DramStats, b: &DramStats) {
    a.reads += b.reads;
    a.writes += b.writes;
    a.row_hits += b.row_hits;
    a.bytes_read += b.bytes_read;
    a.bytes_written += b.bytes_written;
    a.bus_busy_cycles += b.bus_busy_cycles;
}
