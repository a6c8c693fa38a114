//! The prefetcher interface: how prefetchers observe the access stream and
//! inject prefetch requests, including the L1→L2 metadata channel that
//! multi-level IPCP rides on.

use ipcp_mem::{Ip, LineAddr};

use crate::config::Cycle;

/// Which cache level a prefetch should be filled into. Fills always
/// propagate to the levels *below* the target as well ("the prefetch
/// requests issued into L2 and L1 are also filled into the LLC").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FillLevel {
    /// Fill into L1-D (and L2, LLC on the way).
    L1,
    /// Fill into L2 (and LLC) only — used both by L2 prefetchers and by the
    /// "train at L1 but prefetch till L2" experiment of Fig. 1.
    L2,
    /// Fill into the LLC only (the restrictive next-line used at the LLC by
    /// several DPC-3 combinations).
    Llc,
}

/// The kind of demand access observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DemandKind {
    /// A data load.
    Load,
    /// A store (read-for-ownership).
    Rfo,
    /// An instruction fetch (L1-I side; L1-D prefetchers never see these).
    IFetch,
}

/// The 9-bit class metadata IPCP transmits from L1 to L2 along with each
/// prefetch request: a 2-bit class plus a 7-bit stride / stream direction
/// (Section V, "Metadata Decoding at L2").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PrefetchMeta {
    /// 2-bit class type: the paper encodes no-class=0, CS=1, CPLX=2, GS=3.
    pub class: u8,
    /// 7-bit signed stride (CS) or stream direction ±1 (GS). The simulator
    /// carries it as an `i8`; the holder is responsible for staying within
    /// 7 bits (checked by IPCP's own tests).
    pub stride: i8,
}

/// A prefetch request emitted by a prefetcher into a cache's prefetch queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefetchRequest {
    /// Target line. L1 prefetchers emit *virtual* line addresses (IPCP
    /// trains on virtual addresses; the L1 is VIPT); L2/LLC prefetchers
    /// emit physical line addresses. The `virtual_addr` flag disambiguates.
    pub line: LineAddr,
    /// True when `line` is a virtual line address needing translation.
    pub virtual_addr: bool,
    /// Where the block should be filled.
    pub fill: FillLevel,
    /// 2-bit class tag recorded in the filled line (per-class accuracy
    /// accounting needs it back on hits/evictions).
    pub pf_class: u8,
    /// Optional metadata forwarded to the next level's prefetcher.
    pub meta: Option<PrefetchMeta>,
}

impl PrefetchRequest {
    /// Convenience constructor for an L1 prefetch of a virtual line.
    pub fn l1(line: LineAddr) -> Self {
        Self {
            line,
            virtual_addr: true,
            fill: FillLevel::L1,
            pf_class: 0,
            meta: None,
        }
    }

    /// Convenience constructor for an L2 prefetch of a physical line.
    pub fn l2(line: LineAddr) -> Self {
        Self {
            line,
            virtual_addr: false,
            fill: FillLevel::L2,
            pf_class: 0,
            meta: None,
        }
    }

    /// Sets the class tag.
    #[must_use]
    pub fn with_class(mut self, class: u8) -> Self {
        self.pf_class = class & 0b11;
        self
    }

    /// Attaches L1→L2 metadata.
    #[must_use]
    pub fn with_meta(mut self, meta: PrefetchMeta) -> Self {
        self.meta = Some(meta);
        self
    }

    /// Overrides the fill level.
    #[must_use]
    pub fn with_fill(mut self, fill: FillLevel) -> Self {
        self.fill = fill;
        self
    }
}

/// Decode-time derivations of a demand access's addresses: every slice of
/// `(ip, vline)` the training path consumes. Computed once per instruction
/// — from the batch's derived columns on the fused demand path, or by
/// [`AddrDecode::of`] where no columns exist (L2/LLC triggers, tests) —
/// and carried through [`AccessInfo`] so the prefetcher never re-derives
/// them per access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddrDecode {
    /// Line offset within the 4 KB page (`vline.page_offset()`).
    pub page_off: ipcp_mem::LineOffset,
    /// 2 KB region index (`vline.region()`).
    pub region: ipcp_mem::RegionId,
    /// Line offset within the region (`vline.region_offset()`).
    pub region_off: ipcp_mem::RegionOffset,
    /// Two low bits of the virtual page (`vline.vpage().lsb2()`).
    pub vpage_lsb2: u8,
    /// IP-table index/tag source bits (`ip >> 2`).
    pub ip_key: u64,
}

impl AddrDecode {
    /// Derives all fields from scratch (the non-columnar entry point).
    #[inline]
    pub fn of(ip: Ip, vline: LineAddr) -> Self {
        Self {
            page_off: vline.page_offset(),
            region: vline.region(),
            region_off: vline.region_offset(),
            vpage_lsb2: vline.vpage().lsb2(),
            ip_key: ip.raw() >> 2,
        }
    }

    /// Reads all fields off slot `pos` of a batch's derived columns (the
    /// fused demand path's entry point; equal to [`AddrDecode::of`] on the
    /// slot's ip and line).
    #[inline]
    pub fn from_cols(d: &ipcp_trace::DerivedCols, pos: usize) -> Self {
        Self {
            page_off: ipcp_mem::LineOffset::new(d.pageoffs[pos]),
            region: ipcp_mem::RegionId::new(d.regions[pos]),
            region_off: ipcp_mem::RegionOffset::new(d.pageoffs[pos] & 0x1f),
            vpage_lsb2: (d.vpages[pos] & 3) as u8,
            ip_key: d.ipkeys[pos],
        }
    }
}

/// Everything a prefetcher sees on a demand access. `vline` is only
/// meaningful at the L1 (the L2/LLC train on physical addresses, as in
/// ChampSim).
#[derive(Debug, Clone, Copy)]
pub struct AccessInfo {
    /// Current cycle.
    pub cycle: Cycle,
    /// Triggering instruction pointer.
    pub ip: Ip,
    /// Virtual line address (equal to `pline` at L2/LLC).
    pub vline: LineAddr,
    /// Physical line address.
    pub pline: LineAddr,
    /// Load or RFO.
    pub kind: DemandKind,
    /// Whether the access hit in this cache.
    pub hit: bool,
    /// The access hit a line that was prefetched and not yet used: this is
    /// the "useful prefetch" event per-class throttling counts.
    pub first_use_of_prefetch: bool,
    /// Class bits of the hit line (valid when `first_use_of_prefetch`).
    pub hit_pf_class: u8,
    /// Instructions retired so far on this core (for MPKI-based decisions
    /// such as IPCP's tentative next-line).
    pub instructions: u64,
    /// Demand misses of this cache so far (other half of the MPKI).
    pub demand_misses: u64,
    /// DRAM data-bus utilization over a recent window, 0..=1 (DSPatch's
    /// bandwidth signal).
    pub dram_utilization: f64,
    /// Decode-time address derivations of `(ip, vline)`.
    pub decode: AddrDecode,
}

/// Everything a prefetcher sees when a block fills into its cache level.
#[derive(Debug, Clone, Copy)]
pub struct FillInfo {
    /// Current cycle.
    pub cycle: Cycle,
    /// Physical line filled.
    pub pline: LineAddr,
    /// True if the fill was triggered by a prefetch.
    pub was_prefetch: bool,
    /// Class bits carried by the prefetch (0 for demand fills).
    pub pf_class: u8,
    /// The physical line that was evicted to make room, if any.
    pub evicted: Option<LineAddr>,
    /// The evicted line was an unused prefetch (over-prediction signal).
    pub evicted_unused_prefetch: bool,
}

/// Notification delivered to the L2 prefetcher when a prefetch request
/// issued by the L1 arrives at the L2 — the metadata decode path of
/// multi-level IPCP.
#[derive(Debug, Clone, Copy)]
pub struct MetadataArrival {
    /// Current cycle.
    pub cycle: Cycle,
    /// IP of the original L1 demand access ("the IP of the request is
    /// passed to the L2").
    pub ip: Ip,
    /// Physical line being prefetched.
    pub pline: LineAddr,
    /// The 9-bit metadata, if the L1 prefetcher attached any.
    pub meta: Option<PrefetchMeta>,
    /// Instructions retired so far on this core.
    pub instructions: u64,
    /// Demand misses of the receiving cache so far.
    pub demand_misses: u64,
}

/// Sink for prefetch requests. Returns `false` when the request was dropped
/// (prefetch queue full) so prefetchers can account for it if they care.
pub trait PrefetchSink {
    /// Queues one prefetch request.
    fn prefetch(&mut self, req: PrefetchRequest) -> bool;

    /// Queues a batch of requests in order, returning a bitmask with bit
    /// `k` set iff `reqs[k]` was accepted. Lets degree-N prefetchers cross
    /// the sink boundary once per trigger instead of once per candidate;
    /// the default forwards to [`PrefetchSink::prefetch`] per request, so
    /// the two paths are interchangeable by construction.
    fn prefetch_batch(&mut self, reqs: &[PrefetchRequest]) -> u32 {
        debug_assert!(reqs.len() <= 32, "batch exceeds the accept mask");
        let mut accepted = 0u32;
        for (k, &r) in reqs.iter().enumerate() {
            if self.prefetch(r) {
                accepted |= 1 << k;
            }
        }
        accepted
    }
}

/// A simple buffering sink used by the simulator (requests are moved into
/// the cache's PQ after the prefetcher call returns) and by unit tests.
#[derive(Debug, Default)]
pub struct VecSink {
    /// Collected requests.
    pub requests: Vec<PrefetchRequest>,
    /// Remaining PQ capacity; `None` = unlimited.
    pub capacity: Option<usize>,
    /// Requests rejected due to capacity.
    pub dropped: u64,
}

impl VecSink {
    /// Unlimited-capacity sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sink that accepts at most `capacity` requests.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            capacity: Some(capacity),
            ..Self::default()
        }
    }

    /// Drains the collected requests and resets the drop counter, so a
    /// reused sink starts the next collection round clean.
    pub fn take(&mut self) -> Vec<PrefetchRequest> {
        self.dropped = 0;
        std::mem::take(&mut self.requests)
    }

    /// Drains the collected requests *and* the drop count accumulated since
    /// the last drain, for callers that account for capacity drops.
    pub fn take_all(&mut self) -> (Vec<PrefetchRequest>, u64) {
        let dropped = std::mem::take(&mut self.dropped);
        (std::mem::take(&mut self.requests), dropped)
    }
}

impl PrefetchSink for VecSink {
    fn prefetch(&mut self, req: PrefetchRequest) -> bool {
        if let Some(cap) = self.capacity {
            if self.requests.len() >= cap {
                self.dropped += 1;
                return false;
            }
        }
        self.requests.push(req);
        true
    }

    fn prefetch_batch(&mut self, reqs: &[PrefetchRequest]) -> u32 {
        debug_assert!(reqs.len() <= 32, "batch exceeds the accept mask");
        if self.capacity.is_none() {
            // Unlimited sink (the simulator's scratch buffer): one bulk
            // append, everything accepted.
            self.requests.extend_from_slice(reqs);
            return u32::checked_shl(1, reqs.len() as u32).map_or(u32::MAX, |b| b - 1);
        }
        let mut accepted = 0u32;
        for (k, &r) in reqs.iter().enumerate() {
            if self.prefetch(r) {
                accepted |= 1 << k;
            }
        }
        accepted
    }
}

/// A hardware prefetcher attached to one cache level.
///
/// All methods have defaults so tiny prefetchers only implement what they
/// observe. Implementations must be deterministic: the simulator is run in
/// A/B comparisons where run-to-run noise would drown the signal.
pub trait Prefetcher: Send {
    /// Short name for reports (e.g. `"ipcp"`, `"bingo"`).
    fn name(&self) -> &'static str;

    /// Invoked on every demand access to the attached cache (hits and
    /// misses, after the hit/miss outcome is known — the ChampSim operate
    /// hook).
    fn on_access(&mut self, info: &AccessInfo, sink: &mut dyn PrefetchSink);

    /// Invoked when a block fills into the attached cache.
    fn on_fill(&mut self, _fill: &FillInfo) {}

    /// Invoked (L2/LLC only) when a prefetch from the level above arrives,
    /// carrying optional IPCP metadata.
    fn on_prefetch_arrival(&mut self, _arrival: &MetadataArrival, _sink: &mut dyn PrefetchSink) {}

    /// Invoked once per simulated cycle. Most prefetchers ignore this; BOP
    /// uses it for its round-scoring timer.
    ///
    /// An implementation that overrides this MUST also override
    /// [`Prefetcher::uses_cycle_hook`] to return `true`, or the system
    /// will never call it.
    fn on_cycle(&mut self, _cycle: Cycle, _sink: &mut dyn PrefetchSink) {}

    /// Whether [`Prefetcher::on_cycle`] does anything. The system checks
    /// this once at construction and skips the per-cycle hook pass
    /// entirely when no attached prefetcher needs it — the hook is a
    /// virtual call per prefetcher per cycle, which is pure overhead for
    /// the common access-driven designs. Wrappers must forward this.
    fn uses_cycle_hook(&self) -> bool {
        false
    }

    /// Whether this prefetcher never issues anything (the "none"
    /// baseline). The system checks this once at construction and skips
    /// the whole per-access hook (event-struct assembly plus a virtual
    /// call on every demand access) for inert prefetchers — every speedup
    /// figure runs a `none` baseline, so the dead hook is measurable.
    /// Wrappers must forward this.
    fn is_noop(&self) -> bool {
        false
    }

    /// Storage the hardware implementation would need, in bits — the
    /// currency of Table I / Table III.
    fn storage_bits(&self) -> u64 {
        0
    }

    /// Lifetime prefetch candidates this prefetcher itself filtered out
    /// before issuing, per class (NL, CS, CPLX, GS order) — IPCP's RR
    /// filter is the canonical source. Prefetchers without an internal
    /// filter report zeros. The system folds these into
    /// [`crate::stats::CacheStats::rr_drops_by_class`] so fig11-style
    /// overprediction analysis can attribute the filtering. Wrappers must
    /// forward this.
    fn filter_drops_by_class(&self) -> [u64; 4] {
        [0; 4]
    }
}

/// The no-op prefetcher (the paper's "no prefetching" baseline).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoPrefetcher;

impl Prefetcher for NoPrefetcher {
    fn name(&self) -> &'static str {
        "none"
    }

    fn on_access(&mut self, _info: &AccessInfo, _sink: &mut dyn PrefetchSink) {}

    fn is_noop(&self) -> bool {
        true
    }
}

/// Wrapper that rewrites every request's fill level — how the Fig. 1
/// "train at L1 but prefetch till L2" experiment is expressed.
pub struct FillLevelOverride<P> {
    inner: P,
    fill: FillLevel,
}

impl<P: Prefetcher> FillLevelOverride<P> {
    /// Wraps `inner`, forcing all its requests to fill at `fill`.
    pub fn new(inner: P, fill: FillLevel) -> Self {
        Self { inner, fill }
    }
}

struct OverrideSink<'a> {
    inner: &'a mut dyn PrefetchSink,
    fill: FillLevel,
}

impl PrefetchSink for OverrideSink<'_> {
    fn prefetch(&mut self, req: PrefetchRequest) -> bool {
        self.inner.prefetch(req.with_fill(self.fill))
    }
}

impl<P: Prefetcher> Prefetcher for FillLevelOverride<P> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_access(&mut self, info: &AccessInfo, sink: &mut dyn PrefetchSink) {
        let mut s = OverrideSink {
            inner: sink,
            fill: self.fill,
        };
        self.inner.on_access(info, &mut s);
    }

    fn on_fill(&mut self, fill: &FillInfo) {
        self.inner.on_fill(fill);
    }

    fn on_prefetch_arrival(&mut self, arrival: &MetadataArrival, sink: &mut dyn PrefetchSink) {
        let mut s = OverrideSink {
            inner: sink,
            fill: self.fill,
        };
        self.inner.on_prefetch_arrival(arrival, &mut s);
    }

    fn on_cycle(&mut self, cycle: Cycle, sink: &mut dyn PrefetchSink) {
        let mut s = OverrideSink {
            inner: sink,
            fill: self.fill,
        };
        self.inner.on_cycle(cycle, &mut s);
    }

    fn uses_cycle_hook(&self) -> bool {
        self.inner.uses_cycle_hook()
    }

    fn is_noop(&self) -> bool {
        self.inner.is_noop()
    }

    fn storage_bits(&self) -> u64 {
        self.inner.storage_bits()
    }

    fn filter_drops_by_class(&self) -> [u64; 4] {
        self.inner.filter_drops_by_class()
    }
}

/// Helper to build an [`AccessInfo`] in tests.
#[doc(hidden)]
pub fn test_access(ip: u64, vline: u64, hit: bool) -> AccessInfo {
    AccessInfo {
        cycle: 0,
        ip: Ip(ip),
        vline: LineAddr::new(vline),
        pline: LineAddr::new(vline),
        kind: DemandKind::Load,
        hit,
        first_use_of_prefetch: false,
        hit_pf_class: 0,
        instructions: 1000,
        demand_misses: 0,
        dram_utilization: 0.0,
        decode: AddrDecode::of(Ip(ip), LineAddr::new(vline)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_builders() {
        let r = PrefetchRequest::l1(LineAddr::new(100))
            .with_class(3)
            .with_meta(PrefetchMeta {
                class: 3,
                stride: -1,
            });
        assert!(r.virtual_addr);
        assert_eq!(r.fill, FillLevel::L1);
        assert_eq!(r.pf_class, 3);
        assert_eq!(r.meta.unwrap().stride, -1);
        let r = PrefetchRequest::l2(LineAddr::new(5)).with_fill(FillLevel::Llc);
        assert!(!r.virtual_addr);
        assert_eq!(r.fill, FillLevel::Llc);
    }

    #[test]
    fn class_is_masked_to_two_bits() {
        let r = PrefetchRequest::l1(LineAddr::new(0)).with_class(0xff);
        assert_eq!(r.pf_class, 3);
    }

    #[test]
    fn vec_sink_capacity() {
        let mut s = VecSink::with_capacity(2);
        assert!(s.prefetch(PrefetchRequest::l1(LineAddr::new(1))));
        assert!(s.prefetch(PrefetchRequest::l1(LineAddr::new(2))));
        assert!(!s.prefetch(PrefetchRequest::l1(LineAddr::new(3))));
        assert_eq!(s.dropped, 1);
        assert_eq!(s.take().len(), 2);
        assert!(s.requests.is_empty());
        // `take` resets the drop counter: a reused sink does not carry
        // drops from the previous round into the next one.
        assert_eq!(s.dropped, 0);
        assert!(s.prefetch(PrefetchRequest::l1(LineAddr::new(4))));
        assert_eq!(s.dropped, 0);
    }

    #[test]
    fn vec_sink_take_all_returns_round_drops() {
        let mut s = VecSink::with_capacity(1);
        assert!(s.prefetch(PrefetchRequest::l1(LineAddr::new(1))));
        assert!(!s.prefetch(PrefetchRequest::l1(LineAddr::new(2))));
        assert!(!s.prefetch(PrefetchRequest::l1(LineAddr::new(3))));
        let (reqs, dropped) = s.take_all();
        assert_eq!(reqs.len(), 1);
        assert_eq!(dropped, 2);
        // Next round starts clean.
        assert!(s.prefetch(PrefetchRequest::l1(LineAddr::new(4))));
        let (reqs, dropped) = s.take_all();
        assert_eq!(reqs.len(), 1);
        assert_eq!(dropped, 0);
    }

    #[test]
    fn no_prefetcher_is_silent() {
        let mut p = NoPrefetcher;
        let mut s = VecSink::new();
        p.on_access(&test_access(1, 2, false), &mut s);
        assert!(s.requests.is_empty());
        assert_eq!(p.storage_bits(), 0);
    }

    struct AlwaysNextLine;
    impl Prefetcher for AlwaysNextLine {
        fn name(&self) -> &'static str {
            "nl-test"
        }
        fn on_access(&mut self, info: &AccessInfo, sink: &mut dyn PrefetchSink) {
            sink.prefetch(PrefetchRequest::l1(info.vline.offset_by(1)));
        }
    }

    #[test]
    fn fill_level_override_rewrites() {
        let mut p = FillLevelOverride::new(AlwaysNextLine, FillLevel::L2);
        let mut s = VecSink::new();
        p.on_access(&test_access(1, 10, false), &mut s);
        assert_eq!(s.requests.len(), 1);
        assert_eq!(s.requests[0].fill, FillLevel::L2);
        assert_eq!(p.name(), "nl-test");
    }
}
