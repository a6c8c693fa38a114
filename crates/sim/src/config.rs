//! Simulation configuration: the knobs of Table II plus the sensitivity-study
//! sweeps of Section VI-C.

/// Clock cycle count type used throughout the simulator.
pub type Cycle = u64;

/// Configuration for one cache level.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheConfig {
    /// Human-readable level name (`"L1D"`, `"L2"`, ...).
    pub name: &'static str,
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (ways per set).
    pub ways: u32,
    /// Access (hit) latency in cycles.
    pub latency: Cycle,
    /// Miss-status-holding-register entries.
    pub mshr_entries: u32,
    /// Prefetch-queue entries (FIFO; drops when full).
    pub pq_entries: u32,
    /// Demand accesses accepted per cycle.
    pub ports: u32,
    /// Replacement policy for this level.
    pub replacement: ReplacementKind,
}

impl CacheConfig {
    /// Number of sets implied by size, line size, and associativity.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is not an exact power-of-two set count.
    pub fn sets(&self) -> u64 {
        self.sets_with_scale(1)
    }

    /// Number of sets with capacity multiplied by `scale` (the LLC grows
    /// with core count per Table II), without cloning the config.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is not an exact power-of-two set count.
    pub fn sets_with_scale(&self, scale: u32) -> u64 {
        let sets = self.size_bytes * u64::from(scale) / ipcp_mem::LINE_BYTES / u64::from(self.ways);
        assert!(
            sets.is_power_of_two(),
            "{}: set count {sets} must be a power of two",
            self.name
        );
        sets
    }
}

/// Replacement-policy selector (Section VI-C sensitivity study).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReplacementKind {
    /// Least-recently-used (ChampSim default).
    #[default]
    Lru,
    /// Static re-reference interval prediction (2-bit SRRIP).
    Srrip,
    /// Dynamic RRIP with set dueling.
    Drrip,
    /// Signature-based hit prediction (SHiP-lite).
    Ship,
    /// Deterministic pseudo-random victim selection.
    Random,
}

/// Core model parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoreConfig {
    /// Reorder-buffer entries.
    pub rob_entries: u32,
    /// Instructions fetched/dispatched per cycle.
    pub fetch_width: u32,
    /// Instructions retired per cycle.
    pub retire_width: u32,
    /// Fixed execute latency of non-memory instructions, cycles.
    pub alu_latency: Cycle,
}

impl Default for CoreConfig {
    fn default() -> Self {
        Self {
            rob_entries: 256,
            fetch_width: 4,
            retire_width: 4,
            alu_latency: 1,
        }
    }
}

/// TLB parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TlbConfig {
    /// DTLB entries (fully modeled, set-associative).
    pub dtlb_entries: u32,
    /// DTLB associativity.
    pub dtlb_ways: u32,
    /// Shared L2 TLB entries.
    pub stlb_entries: u32,
    /// STLB associativity.
    pub stlb_ways: u32,
    /// Extra cycles on a DTLB miss that hits the STLB.
    pub stlb_latency: Cycle,
    /// Extra cycles for a full page walk.
    pub walk_latency: Cycle,
}

impl Default for TlbConfig {
    fn default() -> Self {
        Self {
            dtlb_entries: 64,
            dtlb_ways: 4,
            stlb_entries: 1536,
            stlb_ways: 12,
            stlb_latency: 8,
            walk_latency: 200,
        }
    }
}

/// DRAM / memory-controller parameters.
///
/// Defaults model single-channel DDR4-1600 at a 4 GHz core: a 64 B burst
/// occupies the channel for 20 core cycles (12.8 GB/s), and tRP = tRCD =
/// tCAS = 55 core cycles (13.75 ns).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramConfig {
    /// Independent channels (1 for single-core runs, 2 for multi-core,
    /// per Table II).
    pub channels: u32,
    /// Banks per channel.
    pub banks_per_channel: u32,
    /// Rows per bank (for row-buffer hit modeling).
    pub rows_per_bank: u32,
    /// Column-access latency (row-buffer hit), core cycles.
    pub t_cas: Cycle,
    /// Row-precharge latency, core cycles.
    pub t_rp: Cycle,
    /// Row-activate latency, core cycles.
    pub t_rcd: Cycle,
    /// Core cycles the data bus is occupied by one 64 B burst.
    /// 20 cycles ⇒ 12.8 GB/s per channel at 4 GHz.
    pub burst_cycles: Cycle,
}

impl Default for DramConfig {
    fn default() -> Self {
        Self {
            channels: 1,
            banks_per_channel: 8,
            rows_per_bank: 65_536,
            t_cas: 55,
            t_rp: 55,
            t_rcd: 55,
            burst_cycles: 20,
        }
    }
}

impl DramConfig {
    /// Peak data bandwidth in GB/s assuming a 4 GHz core clock.
    pub fn peak_bandwidth_gbps(&self) -> f64 {
        let bytes_per_cycle = f64::from(self.channels) * 64.0 / self.burst_cycles as f64;
        bytes_per_cycle * 4.0 // 4 G cycles/s
    }

    /// Scales the per-burst bus occupancy so that peak bandwidth becomes
    /// `gbps` (used by the Section VI-C bandwidth sensitivity study).
    #[must_use]
    pub fn with_bandwidth_gbps(mut self, gbps: f64) -> Self {
        assert!(gbps > 0.0, "bandwidth must be positive");
        let cycles = (f64::from(self.channels) * 64.0 * 4.0 / gbps).round() as u64;
        self.burst_cycles = cycles.max(1);
        self
    }
}

/// Full system configuration (Table II).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimConfig {
    /// Number of cores.
    pub cores: u32,
    /// Core parameters.
    pub core: CoreConfig,
    /// L1 instruction cache.
    pub l1i: CacheConfig,
    /// L1 data cache.
    pub l1d: CacheConfig,
    /// Private unified L2.
    pub l2: CacheConfig,
    /// Shared last-level cache. `size_bytes` here is *per core*; the
    /// simulator multiplies by `cores`, as do the MSHR/PQ entries
    /// (Table II: "PQ: 32×#cores, MSHR: 64×#cores").
    pub llc: CacheConfig,
    /// TLB parameters.
    pub tlb: TlbConfig,
    /// DRAM parameters.
    pub dram: DramConfig,
    /// Warm-up instructions per core (stats reset afterwards).
    pub warmup_instructions: u64,
    /// Measured instructions per core.
    pub sim_instructions: u64,
    /// Seed for the virtual-memory page mapper.
    pub vmem_seed: u64,
    /// Interval-sampler period in retired instructions (core 0's measured
    /// count). `None` (the default) disables sampling entirely; the report
    /// then carries no time-series and matches pre-sampler output exactly.
    pub sample_interval: Option<u64>,
    /// Differential-oracle mode: the same cycle loop and demand path with
    /// every "exact-behavior" fast arm off (cache repeat-hit memo, way
    /// predictor, devirtualized replacement dispatch, TLB memos, hit-streak
    /// runs, bulk nop dispatch), plus per-cycle shadow checks that assert
    /// every wakeup-scheduler skip decision against the polled machine
    /// (panicking on a mismatch). A `no_fastpath` run must produce a
    /// byte-identical [`crate::SimReport`] to the optimized run —
    /// `ipcp_check` and the CI `audit` job compare the two to *prove* the
    /// fast arms are behavior-neutral rather than trusting golden
    /// fingerprints. Off by default (zero overhead).
    pub no_fastpath: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            cores: 1,
            core: CoreConfig::default(),
            l1i: CacheConfig {
                name: "L1I",
                size_bytes: 32 * 1024,
                ways: 8,
                latency: 3,
                mshr_entries: 8,
                pq_entries: 8,
                ports: 4,
                replacement: ReplacementKind::Lru,
            },
            l1d: CacheConfig {
                name: "L1D",
                size_bytes: 48 * 1024,
                ways: 12,
                latency: 5,
                mshr_entries: 16,
                pq_entries: 8,
                ports: 2,
                replacement: ReplacementKind::Lru,
            },
            l2: CacheConfig {
                name: "L2",
                size_bytes: 512 * 1024,
                ways: 8,
                latency: 10,
                mshr_entries: 32,
                pq_entries: 16,
                ports: 2,
                replacement: ReplacementKind::Lru,
            },
            llc: CacheConfig {
                name: "LLC",
                size_bytes: 2 * 1024 * 1024,
                ways: 16,
                latency: 20,
                mshr_entries: 64,
                pq_entries: 32,
                ports: 4,
                replacement: ReplacementKind::Lru,
            },
            tlb: TlbConfig::default(),
            dram: DramConfig::default(),
            warmup_instructions: 200_000,
            sim_instructions: 1_000_000,
            vmem_seed: 0x1bc9,
            sample_interval: None,
            no_fastpath: false,
        }
    }
}

impl SimConfig {
    /// A multi-core configuration with `cores` cores: LLC capacity and
    /// MSHR/PQ scale with the core count, and DRAM gets two channels
    /// (Table II).
    #[must_use]
    pub fn multicore(cores: u32) -> Self {
        let mut cfg = Self {
            cores,
            ..Self::default()
        };
        if cores > 1 {
            cfg.dram.channels = 2;
        }
        cfg
    }

    /// Sets warm-up and measured instruction counts.
    #[must_use]
    pub fn with_instructions(mut self, warmup: u64, sim: u64) -> Self {
        self.warmup_instructions = warmup;
        self.sim_instructions = sim;
        self
    }

    /// Sets the replacement policy of the LLC (Section VI-C).
    #[must_use]
    pub fn with_llc_replacement(mut self, kind: ReplacementKind) -> Self {
        self.llc.replacement = kind;
        self
    }

    /// Enables differential-oracle mode: fast arms off, shadow checks on
    /// (see the `no_fastpath` field).
    #[must_use]
    pub fn without_fastpaths(mut self) -> Self {
        self.no_fastpath = true;
        self
    }

    /// Enables the interval sampler: one time-series point every `interval`
    /// retired instructions.
    ///
    /// # Panics
    ///
    /// Panics on a zero interval.
    #[must_use]
    pub fn with_sample_interval(mut self, interval: u64) -> Self {
        assert!(interval > 0, "sample interval must be positive");
        self.sample_interval = Some(interval);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_geometry_matches_table2() {
        let cfg = SimConfig::default();
        assert_eq!(cfg.l1d.sets(), 64); // 48KB / 64B / 12
        assert_eq!(cfg.l1i.sets(), 64); // 32KB / 64B / 8
        assert_eq!(cfg.l2.sets(), 1024); // 512KB / 64B / 8
        assert_eq!(cfg.llc.sets(), 2048); // 2MB / 64B / 16
        assert_eq!(cfg.core.rob_entries, 256);
        assert_eq!(cfg.l1d.mshr_entries, 16);
        assert_eq!(cfg.l1d.pq_entries, 8);
    }

    #[test]
    fn dram_default_bandwidth_is_12_8() {
        let d = DramConfig::default();
        assert!((d.peak_bandwidth_gbps() - 12.8).abs() < 1e-9);
    }

    #[test]
    fn dram_bandwidth_override() {
        let d = DramConfig::default().with_bandwidth_gbps(3.2);
        assert!((d.peak_bandwidth_gbps() - 3.2).abs() < 0.2);
        let d = DramConfig {
            channels: 2,
            ..DramConfig::default()
        }
        .with_bandwidth_gbps(25.0);
        assert!((d.peak_bandwidth_gbps() - 25.0).abs() < 1.5);
    }

    #[test]
    fn multicore_config_scales() {
        let cfg = SimConfig::multicore(4);
        assert_eq!(cfg.cores, 4);
        assert_eq!(cfg.dram.channels, 2);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_geometry_panics() {
        let mut cfg = SimConfig::default();
        cfg.l1d.size_bytes = 40 * 1024; // 40KB/64B/12 -> not a power of two
        #[allow(clippy::field_reassign_with_default)]
        let _ = cfg.l1d.sets();
    }
}
