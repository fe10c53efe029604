//! `cells`: nproc clients characterize fresh cells back to back. A cell is
//! one workload (a synthetic SPEC profile or an executed kernel) on one
//! preset machine, run through every layer with nothing cached between
//! cells: trace, compile, superblock map, simulation, functional pass,
//! interval model, static bounds and a CSV row. This is the latency of
//! one new characterization, where the front layers and the static pass
//! are not amortised away as they are in `suite`.

use std::panic::{catch_unwind, AssertUnwindSafe};

use bmp_analyze::diag::Severity;
use bmp_analyze::staticpass::bounds;
use bmp_bench::Table;
use bmp_core::metrics::ModelMetrics;
use bmp_core::{cpi, FunctionalOutcome, PenaltyModel};
use bmp_sim::{SimResult, Simulator};
use bmp_trace::{SuperblockMap, Trace};
use bmp_uarch::{presets, MachineConfig};
use bmp_workloads::spec;

use crate::check;
use crate::spans::Tracer;
use crate::{fan_out, permutation, run_passes, time_setup, Cfg, Outcome, MIN_SAMPLES};

/// Trace size of one cell, in ops: small enough that a run sees a few
/// hundred cells, large enough that every layer does real work.
pub const CELL_OPS: usize = 50_000;

/// A workload a cell can run: a synthetic profile or an executed kernel.
#[derive(Clone, Copy)]
pub enum Source {
    Profile(&'static str),
    Kernel(&'static str),
}

impl Source {
    /// The twelve SPEC profiles, then the five kernels.
    pub fn all() -> Vec<Source> {
        let mut v: Vec<Source> = spec::NAMES.iter().map(|n| Source::Profile(n)).collect();
        v.extend(bmp_isa::NAMES.iter().map(|n| Source::Kernel(n)));
        v
    }

    pub fn name(self) -> &'static str {
        match self {
            Source::Profile(n) | Source::Kernel(n) => n,
        }
    }

    /// Builds the trace inside a span charged to its layer.
    pub fn trace(self, ops: usize, seed: u64, tr: &Tracer) -> Trace {
        match self {
            Source::Profile(n) => {
                let profile = spec::by_name(n).expect("listed profile");
                tr.span("workloads.generate_ms", ops as u64, || {
                    profile.generate(ops, seed)
                })
            }
            Source::Kernel(n) => tr.span("isa.kernel_trace_ms", ops as u64, || {
                bmp_isa::kernel_trace(n, ops, seed).expect("listed kernel")
            }),
        }
    }
}

/// The preset machines cells are characterized on.
fn machines() -> Vec<(&'static str, MachineConfig)> {
    vec![
        ("baseline", presets::baseline_4wide()),
        ("wide8", presets::wide_8way()),
        ("deep20", presets::deep_frontend(20).expect("valid depth")),
        ("alpha21264", presets::alpha21264_like()),
    ]
}

/// Everything one cell produced.
struct CellResult {
    trace: Trace,
    sim: SimResult,
    functional: FunctionalOutcome,
    analysis: bmp_core::PenaltyAnalysis,
    bounds: bmp_analyze::StaticBounds,
    row: String,
}

/// Runs one cell through every layer.
fn run_cell(
    source: Source,
    label: &str,
    cfg: &MachineConfig,
    ops: usize,
    seed: u64,
    tr: &Tracer,
) -> CellResult {
    let trace = source.trace(ops, seed, tr);
    let n = trace.len() as u64;
    let ct = tr.span("trace.compile_ms", n, || trace.compile());
    let line = cfg.caches.l1i().line_bytes();
    let sb = tr.span("trace.superblock_ms", n, || SuperblockMap::build(&ct, line));
    let sim = tr.span("sim.run_ms", n, || {
        Simulator::new(cfg.clone()).run_compiled_with(&ct, &sb)
    });
    let functional = tr.span("core.functional_ms", n, || {
        FunctionalOutcome::compute(&trace, cfg)
    });
    let analysis = tr.span("core.model_ms", n, || {
        PenaltyModel::new(cfg.clone()).analyze_with(&trace, &functional)
    });
    let bounds = tr.span("analyze.static_ms", n, || bounds::compute(cfg, &trace));
    let row = tr.span("bench.csv_ms", 0, || {
        let mut t = Table::new(
            "cell",
            "characterization cell",
            &[
                "workload",
                "config",
                "ops",
                "cycles",
                "mispredicts",
                "sim-penalty",
                "model-penalty",
                "penalty-lo",
                "penalty-hi",
            ],
        );
        t.push_row(vec![
            source.name().to_string(),
            label.to_string(),
            trace.len().to_string(),
            sim.cycles.to_string(),
            sim.mispredicts.len().to_string(),
            format!("{:.4}", sim.mean_penalty().unwrap_or(0.0)),
            format!("{:.4}", analysis.mean_penalty().unwrap_or(0.0)),
            bounds.penalty.lo.to_string(),
            bounds.penalty.hi.to_string(),
        ]);
        t.to_csv()
    });
    CellResult {
        trace,
        sim,
        functional,
        analysis,
        bounds,
        row,
    }
}

/// The lints every cell result must pass.
fn lint(r: &CellResult, cfg: &MachineConfig) -> Result<(), String> {
    let mut errors: Vec<String> = bmp_analyze::lint_sim_result(&r.sim, cfg)
        .into_iter()
        .chain(bmp_analyze::lint_penalty_analysis(&r.analysis))
        .filter(|d| d.severity == Severity::Error)
        .map(|d| format!("{} {}", d.code, d.message))
        .collect();
    let stack = cpi::predict_with(&r.trace, cfg, &r.functional);
    errors.extend(
        r.bounds
            .check_model_exact(&ModelMetrics::from_analysis(&r.analysis, stack)),
    );
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors.join("; "))
    }
}

pub fn run(cfg: &Cfg, tr: &Tracer) -> Outcome {
    let ops = cfg.ops.unwrap_or(CELL_OPS);
    let seed = cfg.seed;
    let machines = machines();
    let cells: Vec<(Source, usize)> = Source::all()
        .into_iter()
        .flat_map(|s| (0..machines.len()).map(move |m| (s, m)))
        .collect();
    let order = permutation(cells.len(), seed);
    let cell_at = |i: usize| {
        let (source, m) = cells[i];
        let (label, machine) = &machines[m];
        (source, *label, machine)
    };

    // Set-up: one untimed cell per source on the first preset, so the
    // code of every source and the allocator are warm before timing.
    let (setup_s, _) = time_setup(|| {
        let (label, machine) = &machines[0];
        let off = Tracer::new(false);
        for source in Source::all() {
            run_cell(source, label, machine, ops, seed, &off);
        }
    });

    let mut rows: Vec<Option<String>> = vec![None; cells.len()];
    let mut op_ms = Vec::new();
    let mut failures = Vec::new();
    let mut attempted = 0u64;
    let passes = run_passes(
        cfg.budget,
        MIN_SAMPLES,
        || {},
        || {
            let done = fan_out(&order, cfg.threads, |i| {
                let (source, label, machine) = cell_at(i);
                catch_unwind(AssertUnwindSafe(|| {
                    run_cell(source, label, machine, ops, seed, tr).row
                }))
            });
            for (i, got, ms) in done {
                let (source, label, _) = cell_at(i);
                op_ms.push(ms);
                attempted += 1;
                match got {
                    Err(_) => failures.push(format!("{}/{label}: panicked", source.name())),
                    Ok(row) => match &rows[i] {
                        Some(prev) if *prev != row => failures.push(format!(
                            "{}/{label}: output differs between passes",
                            source.name()
                        )),
                        Some(_) => {}
                        None => rows[i] = Some(row),
                    },
                }
            }
            order.len()
        },
    );

    // Checks, untimed: run every cell once more, lint its results, and
    // require the same row as in the timed passes.
    for (i, row) in rows.iter().enumerate() {
        let (source, label, machine) = cell_at(i);
        let name = format!("{}/{label}", source.name());
        let off = Tracer::new(false);
        let Ok(r) = catch_unwind(AssertUnwindSafe(|| {
            run_cell(source, label, machine, ops, seed, &off)
        })) else {
            failures.push(format!("{name}: check run panicked"));
            continue;
        };
        if row.as_ref() != Some(&r.row) {
            failures.push(format!("{name}: output differs from the check run"));
        }
        if let Err(e) = lint(&r, machine) {
            failures.push(format!("{name}: {e}"));
        }
    }
    let digest = rows
        .iter()
        .flatten()
        .fold(0, |d, row| check::fold(d, row.as_bytes()));

    let mut layers = Vec::new();
    if tr.on() {
        let n = passes.count();
        layers = tr.busy().iter().map(|(&k, b)| (k, b.ms() / n)).collect();
        for (name, span) in [
            ("workloads.ns_per_op", "workloads.generate_ms"),
            ("isa.ns_per_op", "isa.kernel_trace_ms"),
            ("sim.ns_per_op", "sim.run_ms"),
            ("core.model_ns_per_op", "core.model_ms"),
        ] {
            layers.push((name, tr.layer(span).ns_per_op()));
        }
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
