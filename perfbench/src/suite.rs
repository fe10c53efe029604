//! `suite`: the full experiment registry as one engine run on every
//! available thread (`Engine::run_all_tolerant`, the call the `run_all`
//! binary makes), with a fresh in-memory context per pass, writing the
//! CSVs. This is what a user runs to reproduce the paper,
//! and the workload where sharing between experiments is heaviest. It
//! has no seeded input: it always runs at the default seed.

use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

use bmp_bench::engine::{
    attempts_from_env, experiment_defs, CacheReport, Ctx, Engine, ExperimentOutcome, OutcomeKind,
    PhaseReport, RunPolicy,
};
use bmp_bench::{save_under, FaultPlan, Scale, Table};

use crate::check;
use crate::spans::Tracer;
use crate::{run_passes, time_setup, Cfg, Outcome, MIN_SAMPLES};

/// Trace size of the warm-up run that set-up makes: it pages in the
/// code and starts the allocator and thread pool before timing.
const WARMUP_OPS: usize = 20_000;

/// The program's own per-phase ledger and cache counters, summed over
/// passes.
#[derive(Default)]
pub struct Ledger {
    phases: PhaseReport,
    cache: CacheReport,
}

impl Ledger {
    /// Adds one context's ledger.
    pub fn add(&mut self, ctx: &Ctx) {
        let (p, c) = (ctx.phase_report(), ctx.cache_stats());
        self.phases.trace_nanos += p.trace_nanos;
        self.phases.compile_nanos += p.compile_nanos;
        self.phases.superblock_nanos += p.superblock_nanos;
        self.phases.sim_nanos += p.sim_nanos;
        self.phases.analysis_nanos += p.analysis_nanos;
        self.cache.trace_hits += c.trace_hits;
        self.cache.trace_misses += c.trace_misses;
        self.cache.sim_hits += c.sim_hits;
        self.cache.sim_misses += c.sim_misses;
        self.cache.analysis_hits += c.analysis_hits;
        self.cache.analysis_misses += c.analysis_misses;
    }

    /// Per-layer entries, per pass. The program's ledger has one bucket
    /// for trace synthesis and kernel execution, reported as
    /// `workloads.generate_ms`, and one for the interval model and the
    /// static pass, reported as `core.model_ms`.
    pub fn layers(&self, passes: f64) -> Vec<(&'static str, f64)> {
        let (p, c) = (&self.phases, &self.cache);
        let ms = |ns: u64| ns as f64 / 1e6 / passes;
        vec![
            ("workloads.generate_ms", ms(p.trace_nanos)),
            ("trace.compile_ms", ms(p.compile_nanos)),
            ("trace.superblock_ms", ms(p.superblock_nanos)),
            ("sim.run_ms", ms(p.sim_nanos)),
            ("core.model_ms", ms(p.analysis_nanos)),
            ("bench.trace_hit_ratio", ratio(c.trace_hits, c.trace_misses)),
            ("bench.sim_hit_ratio", ratio(c.sim_hits, c.sim_misses)),
            (
                "bench.analysis_hit_ratio",
                ratio(c.analysis_hits, c.analysis_misses),
            ),
        ]
    }
}

/// `hits / (hits + misses)`, 0 when nothing was looked up.
fn ratio(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().expect("benchmark lock poisoned")
}

pub fn run(cfg: &Cfg, tr: &Tracer) -> Outcome {
    // Always the paper's reproduction seed, so every run is checked
    // against the committed CSVs and the work is the same in every run.
    let scale = Scale {
        ops: cfg.ops.unwrap_or(Scale::default().ops),
        ..Scale::default()
    };
    let out_dir = cfg.scratch.join("suite");
    let (setup_s, ()) = time_setup(|| {
        Engine::new(cfg.threads).run_all(Scale {
            ops: WARMUP_OPS.min(scale.ops),
            seed: scale.seed,
        });
    });

    let faults = FaultPlan::none();
    let policy = RunPolicy::with_attempts(attempts_from_env(), &faults);
    let mut outputs: Vec<Vec<Option<Table>>> = Vec::new();
    let op_ms = Mutex::new(Vec::new());
    let failures = Mutex::new(Vec::new());
    let mut ledger = Ledger::default();
    let passes = run_passes(
        cfg.budget,
        MIN_SAMPLES,
        || {},
        || {
            // As the `run_all` binary does: each CSV is written the
            // moment its experiment settles. An experiment's latency is
            // the time until its CSV is on disk.
            let engine = Engine::new(cfg.threads);
            let t0 = Instant::now();
            let on_done = |o: &ExperimentOutcome| {
                if let OutcomeKind::Completed(t) = &o.kind {
                    if let Err(e) = tr.span("bench.csv_ms", 0, || save_under(&out_dir, t)) {
                        lock(&failures).push(format!("{}: cannot write CSV: {e}", t.id));
                    }
                }
                lock(&op_ms).push(t0.elapsed().as_secs_f64() * 1e3);
            };
            let report = engine.run_all_tolerant(scale, &policy, &on_done);
            ledger.add(engine.ctx());
            let tables: Vec<Option<Table>> = report
                .outcomes
                .into_iter()
                .map(|o| match o.kind {
                    OutcomeKind::Completed(t) => Some(t),
                    _ => {
                        lock(&failures).push(format!("{}: experiment failed", o.name));
                        None
                    }
                })
                .collect();
            let n = tables.len();
            outputs.push(tables);
            n
        },
    );
    let mut failures = failures.into_inner().expect("failure list poisoned");

    // Every pass must reproduce the first one (and, at the default
    // scale, the committed CSVs) table for table.
    let first: Vec<Option<String>> = outputs
        .first()
        .map(|tables| {
            tables
                .iter()
                .map(|t| t.as_ref().map(Table::to_csv))
                .collect()
        })
        .unwrap_or_default();
    let golden = check::has_goldens(scale);
    let mut attempted = 0;
    for tables in &outputs {
        for (i, t) in tables.iter().enumerate() {
            attempted += 1;
            let Some(t) = t else { continue };
            let csv = t.to_csv();
            if first[i].as_ref() != Some(&csv) {
                failures.push(format!("{}: CSV differs between passes", t.id));
            } else if golden {
                if let Err(e) = check::check_golden(&t.id, &csv) {
                    failures.push(e);
                }
            }
        }
    }
    let digest = first.iter().fold(0, |d, csv| {
        check::fold(d, csv.as_deref().unwrap_or("").as_bytes())
    });
    let model_err_pct = experiment_defs()
        .iter()
        .position(|d| d.name == "fig10_model_validation")
        .and_then(|i| first.get(i)?.as_deref())
        .and_then(check::fig10_model_err_pct)
        .unwrap_or(0.0);

    let mut layers = Vec::new();
    if tr.on() {
        let n = passes.count();
        layers = ledger.layers(n);
        layers.push(("bench.csv_ms", tr.layer("bench.csv_ms").ms() / n));
    }
    Outcome {
        setup_s,
        passes,
        op_ms: op_ms.into_inner().expect("latency list poisoned"),
        model_err_pct,
        attempted,
        failures,
        digest,
        ops: scale.ops,
        layers,
    }
}
