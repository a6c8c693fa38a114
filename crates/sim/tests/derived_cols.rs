//! The fetch stage never re-derives an address bit: each pending memory
//! access carries the line, virtual page and [`AddrDecode`] read off the
//! batch's [`DerivedCols`], and each ifetch uses the precomputed
//! instruction line. This pins those columns to the per-row derivations —
//! `vaddr.line()`, `vaddr.page()`, `AddrDecode::of(ip, vline)` and the
//! line of `ip` — over the fuzz corpus and every suite trace, across batch
//! refills.

use ipcp_mem::LineAddr;
use ipcp_sim::prefetch::AddrDecode;
use ipcp_trace::{DerivedCols, InstrBatch, MemOp, TraceSource};
use ipcp_workloads::{cloud_suite, frontend_suite, full_suite, fuzz, nn_suite};

/// Batches checked per trace (256 instructions each).
const BATCHES: usize = 16;

fn check_trace(trace: &dyn TraceSource) {
    let name = trace.name();
    let mut stream = trace.batch_stream();
    let mut batch = InstrBatch::new();
    let mut d = DerivedCols::default();
    for _ in 0..BATCHES {
        if stream.next_batch(&mut batch) == 0 {
            break;
        }
        d.compute(&batch);
        for pos in 0..batch.len() {
            let instr = batch.get(pos);
            let iline = LineAddr::from_byte_addr(instr.ip.raw());
            assert_eq!(d.ilines[pos], iline.raw(), "{name} slot {pos}: iline");
            let (MemOp::Load(vaddr) | MemOp::Store(vaddr)) = instr.mem else {
                continue;
            };
            let vline = vaddr.line();
            assert_eq!(d.lines[pos], vline.raw(), "{name} slot {pos}: line");
            assert_eq!(
                d.vpages[pos],
                vaddr.page().raw(),
                "{name} slot {pos}: vpage"
            );
            assert_eq!(
                AddrDecode::from_cols(&d, pos),
                AddrDecode::of(instr.ip, vline),
                "{name} slot {pos}: decode"
            );
        }
    }
}

#[test]
fn derived_columns_match_row_derivations() {
    let mut traces = fuzz::corpus(0xc0ffee, 2);
    traces.extend(full_suite());
    traces.extend(cloud_suite());
    traces.extend(nn_suite());
    traces.extend(frontend_suite());
    for trace in &traces {
        check_trace(trace);
    }
}
