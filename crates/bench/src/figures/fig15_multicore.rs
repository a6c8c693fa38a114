//! Fig. 15 — Multi-core summary: weighted speedup of homogeneous and
//! heterogeneous 4-core mixes (plus an 8-core sample), normalized to
//! per-trace alone-IPCs, compared across the Table III combinations.
//!
//! Paper's shape: IPCP ~23.4% average, next best (Bingo/MLOP) ~21/20%;
//! homogeneous memory-hog mixes (mcf-like) degrade for everyone, IPCP
//! degrading least thanks to accuracy-driven throttling.
//!
//! Every mix run and every alone-IPC denominator is a pool point, and the
//! whole figure goes to the pool as one batch: the pool runs each distinct
//! alone point once (a homogeneous mix asks for the same one per core)
//! and fans the batch out over its workers. Everything is deterministic,
//! so the output is byte-identical for any worker count.

use crate::combos::TABLE3_COMBOS;
use crate::pool::Point;
use crate::runner::{geomean, Cell, Experiment, RunScale, Table};
use ipcp_sim::weighted_speedup;
use ipcp_trace::TraceSource;
use ipcp_workloads::SynthTrace;

/// Runs the figure into `exp`.
pub fn run(exp: &mut Experiment) {
    // Multicore runs are ~4x the work per mix; trim the default.
    exp.default_scale(RunScale {
        warmup: 50_000,
        instructions: 200_000,
    });
    let scale = exp.scale();
    let all = ipcp_workloads::memory_intensive_suite();
    let find = |n: &str| all.iter().find(|t| t.name() == n).unwrap().clone();

    let mut mixes: Vec<(String, Vec<SynthTrace>)> = Vec::new();
    // Homogeneous 4-core mixes.
    for name in ["bwaves-cs3", "lbm-gs-pos", "mcf-cplx-12", "mcf-irr-994"] {
        mixes.push((format!("homo4-{name}"), vec![find(name); 4]));
    }
    // Heterogeneous 4-core mixes.
    mixes.push((
        "hetero4-a".into(),
        vec![
            find("bwaves-cs3"),
            find("gcc-gs-2226"),
            find("mcf-irr-994"),
            find("xz-cplx-334"),
        ],
    ));
    mixes.push((
        "hetero4-b".into(),
        vec![
            find("fotonik-cs2"),
            find("lbm-gs-pos"),
            find("omnetpp-irr"),
            find("cam4-cs7"),
        ],
    ));
    mixes.push((
        "hetero4-c".into(),
        vec![
            find("wrf-gs-neg"),
            find("roms-cs-neg"),
            find("pop2-nest"),
            find("blender-mixed"),
        ],
    ));
    // Seeded random heterogeneous mixes (the paper runs 1000; scale with
    // IPCP_MIXES, default 4). Malformed values exit loudly — a typo must
    // not silently shrink the mix population.
    let n_random: usize = crate::env::or_die(crate::env::mixes(4));
    let mut rng_state = 0x1bc9_5eedu64;
    let mut next = move || {
        rng_state ^= rng_state << 13;
        rng_state ^= rng_state >> 7;
        rng_state ^= rng_state << 17;
        rng_state
    };
    for m in 0..n_random {
        let mix: Vec<SynthTrace> = (0..4)
            .map(|_| all[(next() % all.len() as u64) as usize].clone())
            .collect();
        mixes.push((format!("rand4-{m}"), mix));
    }
    // One 8-core sample.
    mixes.push(("homo8-bwaves-cs3".into(), vec![find("bwaves-cs3"); 8]));

    let combos_with_base: Vec<&str> = std::iter::once("none")
        .chain(TABLE3_COMBOS.iter().copied())
        .collect();

    // Per (mix, combo): the mix run, then each core's alone run — one
    // core on the mix's machine.
    let mut points = Vec::new();
    for (_, mix) in &mixes {
        let cores = mix.len() as u32;
        for &combo in &combos_with_base {
            points.push(Point::mix(combo, mix, scale));
            points.extend(mix.iter().map(|t| Point::alone(combo, t, cores, scale)));
        }
    }
    let reports = exp.run_points(points);
    let mut reports = reports.iter();
    let mut speedups = Vec::new();
    for (_, mix) in &mixes {
        for _ in &combos_with_base {
            let together = reports.next().expect("one report per point");
            let alone: Vec<f64> = reports.by_ref().take(mix.len()).map(|r| r.ipc()).collect();
            speedups.push(weighted_speedup(together, &alone) / mix.len() as f64);
        }
    }

    let per_mix = combos_with_base.len();
    let mut per_combo: std::collections::HashMap<String, Vec<f64>> = Default::default();
    let mut header = vec!["mix"];
    header.extend(TABLE3_COMBOS.iter().copied());
    let mut table = Table::new(
        "Fig. 15: multi-core normalized weighted speedup (vs no prefetching)",
        &header,
    );
    for (mi, (name, _)) in mixes.iter().enumerate() {
        let base = speedups[mi * per_mix];
        let mut row = vec![Cell::text(name)];
        for (ci, &combo) in TABLE3_COMBOS.iter().enumerate() {
            let ws = speedups[mi * per_mix + 1 + ci] / base;
            per_combo.entry(combo.into()).or_default().push(ws);
            row.push(Cell::f3(ws));
        }
        table.row(row);
    }
    let mut footer = vec![Cell::text("GEOMEAN")];
    for &combo in TABLE3_COMBOS {
        footer.push(Cell::f3(geomean(&per_combo[combo])));
    }
    table.row(footer);
    exp.table(table);
    exp.note("paper: IPCP 23.4% average, Bingo 20.9%, MLOP 20%; mcf-heavy homogeneous");
    exp.note("       mixes degrade for every prefetcher, IPCP least.");
}
