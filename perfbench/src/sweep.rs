//! `sweep`: nproc clients run a model-only design-space sweep, the
//! paper's surrogate use of interval analysis. Every trace is built once
//! in set-up; each pass then analyses each trace with the functional
//! pass and the interval model over a grid along the paper's axes
//! (pipeline depth, FU-latency scale, window size, L1D size). Nothing is
//! simulated and no static pass runs, so a simulator change must not
//! move this workload.

use std::panic::{catch_unwind, AssertUnwindSafe};

use bmp_bench::Table;
use bmp_core::{FunctionalOutcome, PenaltyAnalysis, PenaltyModel};
use bmp_trace::Trace;
use bmp_uarch::{presets, LatencyTable, MachineConfig};

use crate::cells::{Source, CELL_OPS};
use crate::check;
use crate::spans::Tracer;
use crate::{fan_out, permutation, run_passes, time_setup, Cfg, Outcome, MIN_SAMPLES};

/// The design points: the baseline, then one axis varied at a time.
fn grid() -> Vec<(String, MachineConfig)> {
    let base = presets::baseline_4wide;
    let mut g = vec![("baseline".to_string(), base())];
    for depth in [10u32, 20, 30] {
        let cfg = presets::deep_frontend(depth).expect("valid depth");
        g.push((format!("depth{depth}"), cfg));
    }
    for factor in [1.5, 2.0, 3.0] {
        let cfg = base()
            .to_builder()
            .latencies(LatencyTable::default().scaled(factor))
            .build()
            .expect("valid latencies");
        g.push((format!("fu{factor}x"), cfg));
    }
    for window in [32u32, 128] {
        let cfg = base()
            .to_builder()
            .window_size(window)
            .rob_size(window * 2)
            .build()
            .expect("valid window");
        g.push((format!("window{window}"), cfg));
    }
    for kib in [8u64, 64] {
        let cfg = presets::l1d_sized(kib * 1024).expect("valid L1D size");
        g.push((format!("l1d{kib}k"), cfg));
    }
    g
}

/// One design point analysed: the functional pass, then the model.
fn analyse(trace: &Trace, cfg: &MachineConfig, tr: &Tracer) -> PenaltyAnalysis {
    let n = trace.len() as u64;
    let functional = tr.span("core.functional_ms", n, || {
        FunctionalOutcome::compute(trace, cfg)
    });
    tr.span("core.model_ms", n, || {
        PenaltyModel::new(cfg.clone()).analyze_with(trace, &functional)
    })
}

pub fn run(cfg: &Cfg, tr: &Tracer) -> Outcome {
    let ops = cfg.ops.unwrap_or(CELL_OPS);
    let seed = cfg.seed;
    let sources = Source::all();
    let grid = grid();
    let off = Tracer::new(false);
    let (setup_s, traces) = time_setup(|| {
        sources
            .iter()
            .map(|s| s.trace(ops, seed, &off))
            .collect::<Vec<Trace>>()
    });
    // Seeded visiting order over (trace, design point) pairs.
    let order = permutation(sources.len() * grid.len(), seed);

    let mut tables: Vec<String> = Vec::new();
    let mut op_ms = Vec::new();
    let mut failures = Vec::new();
    let mut attempted = 0u64;
    let passes = run_passes(
        cfg.budget,
        MIN_SAMPLES,
        || {},
        || {
            let mut rows: Vec<Option<Vec<String>>> = vec![None; order.len()];
            let done = fan_out(&order, cfg.threads, |i| {
                let (t, g) = (i / grid.len(), i % grid.len());
                let got = catch_unwind(AssertUnwindSafe(|| analyse(&traces[t], &grid[g].1, tr)));
                got.map(|a| {
                    let (base, ilp, fu, sd) = a.mean_contributions().unwrap_or_default();
                    vec![
                        sources[t].name().to_string(),
                        grid[g].0.clone(),
                        a.breakdowns.len().to_string(),
                        format!("{:.4}", a.mean_penalty().unwrap_or(0.0)),
                        format!("{base:.4}"),
                        format!("{ilp:.4}"),
                        format!("{fu:.4}"),
                        format!("{sd:.4}"),
                    ]
                })
            });
            for (i, got, ms) in done {
                op_ms.push(ms);
                attempted += 1;
                match got {
                    Ok(row) => rows[i] = Some(row),
                    Err(_) => {
                        let (t, g) = (i / grid.len(), i % grid.len());
                        failures.push(format!("{}/{}: panicked", sources[t].name(), grid[g].0));
                    }
                }
            }
            let csv = tr.span("bench.csv_ms", 0, || {
                let mut table = Table::new(
                    "sweep",
                    "model-only design-space sweep",
                    &[
                        "workload",
                        "config",
                        "mispredicts",
                        "penalty",
                        "base",
                        "ilp",
                        "fu",
                        "short-dmiss",
                    ],
                );
                rows.into_iter().flatten().for_each(|r| table.push_row(r));
                table.to_csv()
            });
            tables.push(csv);
            order.len()
        },
    );
    for (i, csv) in tables.iter().enumerate().skip(1) {
        if *csv != tables[0] {
            failures.push(format!("pass {i}: sweep table differs from pass 0"));
        }
    }
    let digest = check::fold(0, tables[0].as_bytes());

    let mut layers = Vec::new();
    if tr.on() {
        let n = passes.count();
        layers = tr.busy().iter().map(|(&k, b)| (k, b.ms() / n)).collect();
        layers.push((
            "core.model_ns_per_op",
            tr.layer("core.model_ms").ns_per_op(),
        ));
    }
    Outcome {
        setup_s,
        passes,
        op_ms,
        model_err_pct: check::mix_model_err_pct(ops, seed),
        attempted,
        failures,
        digest,
        ops,
        layers,
    }
}
