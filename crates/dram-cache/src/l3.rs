//! The common interface all L3 (DRAM cache) organizations implement,
//! plus shared configuration and statistics types.

use crate::mmu::MmuParams;
use tdc_dram::DramConfig;
use tdc_util::{Cpn, Cycle, Ppn, Vpn, PAGE_SIZE};

/// What a translation resolved to: the frame used to address the on-die
/// caches and the memory below them.
///
/// Cache frames are disambiguated from physical frames in the flat line
/// address space used by L1/L2 tags by setting a high bit, mirroring how
/// the real design re-tags on-die caches with cache addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Frame {
    /// An off-package physical frame.
    Phys(Ppn),
    /// An in-package cache frame (tagless design, cached pages).
    Cache(Cpn),
}

/// High bit marking cache addresses in the unified line-address space.
const CACHE_SPACE_BIT: u64 = 1 << 62;

impl Frame {
    /// A flat byte address for on-die cache indexing: block `block` of
    /// this frame. Cache and physical frames never collide.
    pub fn line_addr(&self, block: u64) -> u64 {
        debug_assert!(block < 64);
        match *self {
            Frame::Phys(p) => (p.0 << 12) | (block << 6),
            Frame::Cache(c) => CACHE_SPACE_BIT | (c.0 << 12) | (block << 6),
        }
    }

    /// Whether this frame points into the DRAM cache.
    pub fn is_cache(&self) -> bool {
        matches!(self, Frame::Cache(_))
    }

    /// Recovers the frame and block index from a flat line address
    /// produced by [`Frame::line_addr`] (used when an on-die cache
    /// evicts a dirty line and its origin must be reconstructed).
    pub fn from_line_addr(addr: u64) -> (Frame, u64) {
        let block = (addr >> 6) & 63;
        if addr & CACHE_SPACE_BIT != 0 {
            (Frame::Cache(Cpn((addr & !CACHE_SPACE_BIT) >> 12)), block)
        } else {
            (Frame::Phys(Ppn(addr >> 12)), block)
        }
    }
}

/// Result of a translation (TLB lookup plus, on a miss, the full miss
/// handling performed by the organization).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TranslationOutcome {
    /// Frame the access proceeds with.
    pub frame: Frame,
    /// Non-cacheable page (bypasses the DRAM cache).
    pub nc: bool,
    /// Cycles the access is delayed by translation (0 on an L1 TLB hit).
    pub penalty: Cycle,
    /// Whether the L1 TLB hit.
    pub tlb_hit: bool,
}

/// Result of a memory access below the L2 cache.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryOutcome {
    /// Cycles until the critical block is available.
    pub latency: Cycle,
    /// Whether the access was served from in-package DRAM.
    pub in_package: bool,
}

/// The four access cases of the paper's Table 1 (TLB × DRAM cache).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessCase {
    /// TLB hit, cache hit: zero penalty.
    HitHit,
    /// TLB hit, cache miss: non-cacheable page.
    HitMiss,
    /// TLB miss, cache hit: in-package victim hit.
    MissHit,
    /// TLB miss, cache miss: cold/off-package miss.
    MissMiss,
}

/// Statistics common to every organization.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct L3Stats {
    /// Demand reads served below L2.
    pub demand_reads: u64,
    /// Demand reads served from in-package DRAM.
    pub in_package_reads: u64,
    /// Sum of demand-read latencies (for average L3 latency, Fig. 8).
    pub demand_latency_sum: u64,
    /// L2 writebacks received.
    pub writebacks_in: u64,
    /// Page fills from off-package memory.
    pub page_fills: u64,
    /// Pages evicted from the DRAM cache.
    pub page_evictions: u64,
    /// Dirty pages written back off-package.
    pub dirty_page_writebacks: u64,
    /// Table 1 case counts (tagless only; zero elsewhere): TLB hit+cache
    /// hit.
    pub case_hit_hit: u64,
    /// TLB hit, non-cacheable miss.
    pub case_hit_miss: u64,
    /// TLB miss, in-package victim hit.
    pub case_miss_hit: u64,
    /// TLB miss, off-package miss.
    pub case_miss_miss: u64,
    /// GIPT updates performed.
    pub gipt_updates: u64,
    /// SRAM tag probes performed (SRAM-tag baseline only).
    pub tag_probes: u64,
    /// Energy spent on SRAM tag probes, in pJ.
    pub tag_energy_pj: f64,
    /// Writebacks dropped because their page had already been evicted.
    pub stale_writebacks: u64,
    /// Duplicate fills suppressed by the PU bit.
    pub pu_suppressed_fills: u64,
}

impl L3Stats {
    /// Average demand-read latency below L2 (the paper's "average L3
    /// access latency" once TLB penalty is added by the caller).
    pub fn avg_demand_latency(&self) -> f64 {
        if self.demand_reads == 0 {
            0.0
        } else {
            self.demand_latency_sum as f64 / self.demand_reads as f64
        }
    }

    /// Fraction of demand reads served in-package.
    pub fn in_package_fraction(&self) -> f64 {
        if self.demand_reads == 0 {
            0.0
        } else {
            self.in_package_reads as f64 / self.demand_reads as f64
        }
    }

    /// Records a Table 1 case.
    pub fn record_case(&mut self, case: AccessCase) {
        match case {
            AccessCase::HitHit => self.case_hit_hit += 1,
            AccessCase::HitMiss => self.case_hit_miss += 1,
            AccessCase::MissHit => self.case_miss_hit += 1,
            AccessCase::MissMiss => self.case_miss_miss += 1,
        }
    }
}

/// Shared configuration for building any organization.
#[derive(Debug, Clone)]
pub struct SystemParams {
    /// Number of cores (and hardware thread contexts).
    pub cores: usize,
    /// Address space id used by each core (equal ids share a page
    /// table, as PARSEC threads do).
    pub core_asid: Vec<u32>,
    /// DRAM cache capacity in bytes.
    pub cache_capacity: u64,
    /// Nominal capacity used for the SRAM tag-array latency model
    /// (Table 6). Equals `cache_capacity` unless the experiment scales
    /// capacities down to reach steady state in shorter runs.
    pub tag_nominal_bytes: u64,
    /// In-package DRAM device configuration.
    pub in_pkg: DramConfig,
    /// Off-package DRAM device configuration.
    pub off_pkg: DramConfig,
    /// MMU parameters (TLB shapes and latencies).
    pub mmu: MmuParams,
    /// Number of free blocks kept available ahead of allocation (α).
    pub alpha: u64,
}

impl SystemParams {
    /// The paper's default configuration: 4 cores, private address
    /// spaces, 1GB in-package cache, 8GB off-package DRAM, α = 1.
    pub fn paper_default() -> Self {
        Self::with_cache_capacity(1 << 30)
    }

    /// Paper default with a different DRAM cache capacity (Fig. 10).
    pub fn with_cache_capacity(cache_capacity: u64) -> Self {
        Self {
            cores: 4,
            core_asid: vec![0, 1, 2, 3],
            cache_capacity,
            tag_nominal_bytes: cache_capacity,
            in_pkg: DramConfig::in_package(cache_capacity),
            off_pkg: DramConfig::off_package_8gb(),
            mmu: MmuParams::paper_default(),
            alpha: 1,
        }
    }

    /// Paper default with all cores sharing one address space (PARSEC).
    pub fn shared_address_space() -> Self {
        let mut p = Self::paper_default();
        p.core_asid = vec![0; p.cores];
        p
    }

    /// Number of 4KB page slots in the DRAM cache.
    pub fn cache_slots(&self) -> u64 {
        self.cache_capacity / PAGE_SIZE
    }

    /// Number of distinct address spaces.
    pub fn address_spaces(&self) -> u32 {
        self.core_asid.iter().copied().max().unwrap_or(0) + 1
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a message naming the violated constraint.
    pub fn validate(&self) -> Result<(), &'static str> {
        if self.cores == 0 {
            return Err("need at least one core");
        }
        if self.core_asid.len() != self.cores {
            return Err("core_asid must have one entry per core");
        }
        if self.cache_capacity < PAGE_SIZE {
            return Err("cache must hold at least one page");
        }
        if self.alpha == 0 || self.alpha >= self.cache_slots() {
            return Err("alpha must be in [1, slots)");
        }
        Ok(())
    }
}

/// Interface every DRAM cache organization implements.
///
/// The driving system calls [`L3System::translate`] for every memory
/// reference (the TLB sits in front of the on-die caches) and
/// [`L3System::access`] only for references that missed in L2.
/// Writebacks from L2 arrive via [`L3System::writeback`] and never stall
/// the core.
pub trait L3System {
    /// Organization name for reports (e.g. `"cTLB"`).
    fn name(&self) -> &'static str;

    /// Translates `vpn` for `core` at time `now`, performing the full
    /// TLB miss handling of this organization if needed.
    fn translate(&mut self, now: Cycle, core: usize, vpn: Vpn, is_write: bool)
        -> TranslationOutcome;

    /// Serves a demand read that missed in L2: block `block` of `frame`
    /// (as returned by [`L3System::translate`]).
    fn access(&mut self, now: Cycle, core: usize, frame: Frame, nc: bool, block: u64)
        -> MemoryOutcome;

    /// Accepts a dirty-line writeback from L2 (posted; no stall).
    fn writeback(&mut self, now: Cycle, core: usize, frame: Frame, nc: bool, block: u64);

    /// Common statistics.
    fn stats(&self) -> &L3Stats;

    /// Total DRAM + tag energy consumed so far, in pJ.
    fn energy_pj(&self) -> f64;

    /// Statistics of the in-package device, if this organization has
    /// one.
    fn in_pkg_stats(&self) -> Option<&tdc_dram::DramStats>;

    /// Statistics of the off-package device.
    fn off_pkg_stats(&self) -> &tdc_dram::DramStats;

    /// Resets all statistics (after warmup), keeping state.
    fn reset_stats(&mut self);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_line_addresses_never_collide() {
        let p = Frame::Phys(Ppn(5));
        let c = Frame::Cache(Cpn(5));
        assert_ne!(p.line_addr(3), c.line_addr(3));
        assert_eq!(p.line_addr(3), (5 << 12) | (3 << 6));
    }

    #[test]
    fn frame_line_addr_roundtrips() {
        for f in [Frame::Phys(Ppn(123)), Frame::Cache(Cpn(456))] {
            for b in [0u64, 1, 63] {
                assert_eq!(Frame::from_line_addr(f.line_addr(b)), (f, b));
            }
        }
    }

    #[test]
    fn params_validate() {
        assert!(SystemParams::paper_default().validate().is_ok());
        let mut p = SystemParams::paper_default();
        p.core_asid.pop();
        assert!(p.validate().is_err());
        let mut p = SystemParams::paper_default();
        p.alpha = 0;
        assert!(p.validate().is_err());
    }

    #[test]
    fn paper_default_geometry() {
        let p = SystemParams::paper_default();
        assert_eq!(p.cache_slots(), 256 * 1024);
        assert_eq!(p.address_spaces(), 4);
        assert_eq!(SystemParams::shared_address_space().address_spaces(), 1);
    }

    #[test]
    fn stats_case_recording() {
        let mut s = L3Stats::default();
        s.record_case(AccessCase::HitHit);
        s.record_case(AccessCase::MissMiss);
        s.record_case(AccessCase::MissMiss);
        assert_eq!(s.case_hit_hit, 1);
        assert_eq!(s.case_miss_miss, 2);
    }

    #[test]
    fn avg_latency_empty_is_zero() {
        assert_eq!(L3Stats::default().avg_demand_latency(), 0.0);
    }
}
