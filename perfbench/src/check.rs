//! Output checks shared by the workloads: golden CSVs, output digests
//! and the paper's fig10 accuracy.

use bmp_bench::Scale;
use bmp_core::store::fnv1a;
use bmp_core::{FunctionalOutcome, PenaltyModel};
use bmp_sim::Simulator;
use bmp_trace::SuperblockMap;
use bmp_uarch::presets;

use crate::cells::Source;
use crate::spans::Tracer;

/// Trace seeds the model's accuracy is averaged over: one trace per
/// source is too few for a steady mean (the mean over one seed's 17
/// traces moves with the seed by about a sixth).
const ACCURACY_SEEDS: u64 = 8;

/// Folds `bytes` into a running digest (FNV-1a of the previous digest
/// and the part).
pub fn fold(digest: u64, bytes: &[u8]) -> u64 {
    fnv1a(&[&digest.to_le_bytes()[..], &fnv1a(bytes).to_le_bytes()].concat())
}

/// Whether a run at `scale` must reproduce the committed result CSVs:
/// they were produced at the default scale.
pub fn has_goldens(scale: Scale) -> bool {
    scale == Scale::default()
}

/// `Err` with a reason when `csv` differs from the committed
/// `results/<name>.csv` (or that file cannot be read).
pub fn check_golden(name: &str, csv: &str) -> Result<(), String> {
    let path = format!("results/{name}.csv");
    match std::fs::read(&path) {
        Ok(golden) if golden == csv.as_bytes() => Ok(()),
        Ok(_) => Err(format!("{name}: CSV differs from {path}")),
        Err(e) => Err(format!("{name}: cannot read {path}: {e}")),
    }
}

/// Model error of fig10, in percent: the mean over its benchmarks of
/// |model − simulated| / simulated mean penalty per misprediction, where
/// the penalty is the resolution time plus the baseline's frontend
/// refill. `None` when the table has no readable rows.
pub fn fig10_model_err_pct(csv: &str) -> Option<f64> {
    let mut lines = csv.lines();
    let header: Vec<&str> = lines.next()?.split(',').collect();
    let col = |name: &str| header.iter().position(|h| *h == name);
    let (sim_col, model_col) = (col("sim-resolution")?, col("model-resolution")?);
    let refill = f64::from(presets::baseline_4wide().frontend_depth);
    let errs: Vec<f64> = lines
        .filter_map(|l| {
            let cells: Vec<&str> = l.split(',').collect();
            let sim: f64 = cells.get(sim_col)?.parse().ok()?;
            let model: f64 = cells.get(model_col)?.parse().ok()?;
            Some(rel_err_pct(model + refill, sim + refill))
        })
        .collect();
    mean(&errs)
}

/// |model − reference| / reference, in percent.
pub fn rel_err_pct(model: f64, reference: f64) -> f64 {
    (model - reference).abs() / reference * 100.0
}

/// The arithmetic mean, or `None` for no values.
pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

/// Model error of the cell and sweep mix, in percent: the mean over
/// every source and [`ACCURACY_SEEDS`] trace seeds drawn from `seed` of
/// |model − simulated| / simulated mean penalty per misprediction, on
/// the baseline machine.
pub fn mix_model_err_pct(ops: usize, seed: u64) -> f64 {
    let cfg = presets::baseline_4wide();
    let off = Tracer::new(false);
    let mut errs = Vec::new();
    for k in 0..ACCURACY_SEEDS {
        let trace_seed = seed.wrapping_mul(ACCURACY_SEEDS).wrapping_add(k);
        for source in Source::all() {
            let trace = source.trace(ops, trace_seed, &off);
            let ct = trace.compile();
            let sb = SuperblockMap::build(&ct, cfg.caches.l1i().line_bytes());
            let sim = Simulator::new(cfg.clone()).run_compiled_with(&ct, &sb);
            let functional = FunctionalOutcome::compute(&trace, &cfg);
            let model = PenaltyModel::new(cfg.clone()).analyze_with(&trace, &functional);
            if let (Some(m), Some(s)) = (model.mean_penalty(), sim.mean_penalty()) {
                errs.push(rel_err_pct(m, s));
            }
        }
    }
    mean(&errs).unwrap_or(0.0)
}
