//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload suite|cells|sweep|serve --seed N --seconds S --trace 0|1 [--ops N]
//! ```
//!
//! Runs one workload against the public entry points of the workspace
//! crates, checks its outputs, and prints a report followed by one JSON
//! line: end-to-end metrics from an untraced run (`--trace 0`), or the
//! per-layer ledger of a traced run (`--trace 1`). `--ops` shrinks the
//! trace size for the smoke test. See `README.md` next to this file.

mod cells;
mod check;
mod host;
mod serve;
mod spans;
mod suite;
mod sweep;

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use bmp_core::json::{escape_string, fmt_f64};

use crate::spans::Tracer;

/// End-to-end metrics, printed by an untraced run.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("model_err_pct", "%"),
];

/// Per-layer metrics, printed by a traced run. Times are per pass (one
/// unit of the workload, see `README.md`); a metric a workload does not
/// exercise reads 0.
const PER_LAYER: [(&str, &str); 30] = [
    ("workloads.generate_ms", "ms"),
    ("workloads.ns_per_op", "ns/op"),
    ("isa.kernel_trace_ms", "ms"),
    ("isa.ns_per_op", "ns/op"),
    ("trace.compile_ms", "ms"),
    ("trace.superblock_ms", "ms"),
    ("sim.run_ms", "ms"),
    ("sim.ns_per_op", "ns/op"),
    ("core.functional_ms", "ms"),
    ("core.model_ms", "ms"),
    ("core.model_ns_per_op", "ns/op"),
    ("analyze.static_ms", "ms"),
    ("core.store_get_ms", "ms"),
    ("core.store_hits", "count"),
    ("core.store_bytes_read", "bytes"),
    ("bench.decode_ms", "ms"),
    ("bench.csv_ms", "ms"),
    ("bench.trace_hit_ratio", "ratio"),
    ("bench.sim_hit_ratio", "ratio"),
    ("bench.analysis_hit_ratio", "ratio"),
    ("bench.parallel_efficiency", "ratio"),
    ("bench.unattributed_ms", "ms"),
    ("bench.unattributed_share", "ratio"),
    ("bench.tracing_overhead_ms", "ms"),
    ("serve.self_ms", "ms"),
    ("serve.requests", "count"),
    ("serve.coalesced", "count"),
    ("serve.rejected", "count"),
    ("serve.retries", "count"),
    ("error_rate", "ratio"),
];

/// Per-layer self times: everything the unattributed remainder is
/// computed against.
fn is_self_time(name: &str) -> bool {
    name.ends_with("_ms") && !matches!(name, "bench.unattributed_ms" | "bench.tracing_overhead_ms")
}

/// Operations a run completes at least, so that ten samples lie beyond
/// its 90th percentile.
pub const MIN_SAMPLES: usize = 100;

/// The timed phase stops growing past this even when the sample floor
/// is not reached, so a run always ends within the 180 s limit.
const HARD_CAP: Duration = Duration::from_secs(110);

/// Set-up runs once untimed, then repeats at least three and at most
/// fifteen times per run, and stops repeating once this much time went
/// into the timed repetitions; `setup_s` is their median.
const SETUP_BUDGET: Duration = Duration::from_secs(2);

/// What a workload is asked to do.
pub struct Cfg {
    pub seed: u64,
    /// Length of the timed phase.
    pub budget: Duration,
    /// Trace size override (`--ops`); `None` keeps each workload's own.
    pub ops: Option<usize>,
    /// Load-generating threads: the host's available parallelism.
    pub threads: usize,
    /// A private directory inside the checkout for files the run writes.
    pub scratch: PathBuf,
}

/// What a workload measured and checked.
pub struct Outcome {
    /// Duration of each set-up repetition, seconds.
    pub setup_s: Vec<f64>,
    pub passes: Passes,
    /// Latency of each operation (cell, analysis, experiment or job), ms.
    pub op_ms: Vec<f64>,
    pub model_err_pct: f64,
    pub attempted: u64,
    /// One message per failed operation.
    pub failures: Vec<String>,
    /// Digest of the outputs of one pass; equal across passes.
    pub digest: u64,
    /// Trace size of the workload's inputs, ops.
    pub ops: usize,
    /// Per-layer metrics, per pass; only filled by a traced run.
    pub layers: Vec<(&'static str, f64)>,
}

/// Host time of each pass of the timed phase.
#[derive(Default)]
pub struct Passes {
    pub wall_s: Vec<f64>,
    pub cpu_s: Vec<f64>,
    /// Highest resident set of each pass, MiB.
    pub peak_rss_mb: Vec<f64>,
}

impl Passes {
    /// Mean wall seconds per pass (per-layer totals divide by the same
    /// pass count).
    pub fn mean_wall_s(&self) -> f64 {
        self.wall_s.iter().sum::<f64>() / self.wall_s.len().max(1) as f64
    }

    /// Mean CPU seconds per pass.
    pub fn mean_cpu_s(&self) -> f64 {
        self.cpu_s.iter().sum::<f64>() / self.cpu_s.len().max(1) as f64
    }

    pub fn count(&self) -> f64 {
        self.wall_s.len().max(1) as f64
    }
}

/// Runs `prepare` (untimed) then `pass` (timed) until `budget` has
/// elapsed and at least `min_ops` operations completed. `pass` returns
/// the operations it completed.
pub fn run_passes(
    budget: Duration,
    min_ops: usize,
    mut prepare: impl FnMut(),
    mut pass: impl FnMut() -> usize,
) -> Passes {
    let sampler = host::RssSampler::start();
    let start = Instant::now();
    let mut out = Passes::default();
    let mut ops = 0;
    while out.wall_s.is_empty()
        || ((start.elapsed() < budget || ops < min_ops) && start.elapsed() < HARD_CAP)
    {
        prepare();
        host::release_free_memory();
        sampler.take_peak_mb();
        let (t0, c0) = (Instant::now(), host::cpu_seconds());
        ops += pass();
        out.wall_s.push(t0.elapsed().as_secs_f64());
        out.cpu_s.push(host::cpu_seconds() - c0);
        out.peak_rss_mb.push(sampler.take_peak_mb());
    }
    sampler.stop();
    out
}

/// Runs `set_up` once to warm the code and the allocator, then times it
/// three to fifteen times (see [`SETUP_BUDGET`]) and returns the
/// durations plus the last result.
pub fn time_setup<T>(mut set_up: impl FnMut() -> T) -> (Vec<f64>, T) {
    let mut times: Vec<f64> = Vec::new();
    let mut last = Some(set_up());
    while times.len() < 3
        || (times.len() < 15 && times.iter().sum::<f64>() < SETUP_BUDGET.as_secs_f64())
    {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(set_up());
        times.push(t0.elapsed().as_secs_f64());
    }
    (times, last.expect("at least one set-up"))
}

/// Runs `op` on every index of `order` from `workers` closed-loop
/// clients, each taking the next index as soon as its previous one is
/// done. Returns every index with its result and latency in ms.
pub fn fan_out<T: Send>(
    order: &[usize],
    workers: usize,
    op: impl Fn(usize) -> T + Sync,
) -> Vec<(usize, T, f64)> {
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers.max(1))
            .map(|_| {
                s.spawn(|| {
                    let mut done = Vec::new();
                    while let Some(&i) = order.get(next.fetch_add(1, Ordering::Relaxed)) {
                        let t0 = Instant::now();
                        let out = op(i);
                        done.push((i, out, t0.elapsed().as_secs_f64() * 1e3));
                    }
                    done
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

/// The `q`-quantile of `values` (linear interpolation between order
/// statistics).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// A deterministic permutation of `0..n` drawn from `seed`
/// (Fisher-Yates over SplitMix64).
pub fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut state = seed;
    let mut next = || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// A workload's entry point.
type Workload = fn(&Cfg, &Tracer) -> Outcome;

/// The workloads by name.
const WORKLOADS: [(&str, Workload); 4] = [
    ("suite", suite::run),
    ("cells", cells::run),
    ("sweep", sweep::run),
    ("serve", serve::run),
];

struct Args {
    workload: &'static str,
    run: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    ops: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut ops = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} needs {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                let known = WORKLOADS.iter().find(|(n, _)| *n == value);
                workload = Some(*known.ok_or_else(|| bad("suite, cells, sweep or serve"))?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s >= 0.0)
                        .ok_or_else(|| bad("a non-negative number"))?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                });
            }
            "--ops" => {
                ops = Some(
                    value
                        .parse::<usize>()
                        .ok()
                        .filter(|&n| n > 0)
                        .ok_or_else(|| bad("a positive integer"))?,
                );
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let (workload, run) = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        run,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        ops,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload suite|cells|sweep|serve --seed N \
                 --seconds S --trace 0|1 [--ops N]"
            );
            return ExitCode::from(2);
        }
    };
    // Inputs come from the arguments alone, never from the environment
    // switches the library reads.
    for var in [
        "BMP_METRICS",
        "BMP_REFERENCE_ENGINE",
        "BMP_FAULT",
        "BMP_STORE",
        "BMP_THREADS",
        "BMP_ATTEMPTS",
    ] {
        std::env::remove_var(var);
    }
    let scratch = PathBuf::from(".perfbench").join(format!("run-{}", std::process::id()));
    let threads = host::nproc();
    // A traced run spends half its time untraced, to measure the
    // tracing overhead against, and half traced.
    let share = if args.trace { 0.5 } else { 1.0 };
    let cfg = Cfg {
        seed: args.seed,
        budget: Duration::from_secs_f64(args.seconds * share),
        ops: args.ops,
        threads,
        scratch: scratch.clone(),
    };
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("error: cannot create {}: {e}", scratch.display());
        return ExitCode::FAILURE;
    }
    let plain = (args.run)(&cfg, &Tracer::new(false));
    let traced = args.trace.then(|| (args.run)(&cfg, &Tracer::new(true)));
    let _ = std::fs::remove_dir_all(&scratch);
    let _ = std::fs::remove_dir(".perfbench");

    let prov = host::Provenance::read();
    let mut all = vec![&plain];
    all.extend(traced.as_ref());
    let attempted: u64 = all.iter().map(|o| o.attempted).sum();
    let failures: Vec<&String> = all.iter().flat_map(|o| o.failures.iter()).collect();
    let digests_agree = all.iter().all(|o| o.digest == plain.digest);
    let failed = failures.len() as u64 + u64::from(!digests_agree);
    for f in &failures {
        eprintln!("FAILED: {f}");
    }
    if !digests_agree {
        eprintln!("FAILED: traced and untraced runs produced different output digests");
    }

    println!(
        "provenance: {{\"workload\": {}, \"nproc\": {}, \"cpu_model\": {}, \"rustc\": {}, \
         \"commit\": {}, \"ops\": {}, \"seed\": {}, \"threads\": {}, \"passes\": {}, \
         \"samples\": {}}}",
        escape_string(args.workload),
        prov.nproc,
        escape_string(&prov.cpu_model),
        escape_string(prov.rustc),
        escape_string(&prov.commit),
        plain.ops,
        args.seed,
        threads,
        plain.passes.wall_s.len(),
        plain.op_ms.len(),
    );
    println!("digest: {:016x}", plain.digest);
    let per_pass = |v: &[f64]| {
        let cells: Vec<String> = v.iter().map(|x| format!("{x:.3}")).collect();
        cells.join(" ")
    };
    println!("pass wall_s: {}", per_pass(&plain.passes.wall_s));
    println!("pass peak_rss_mb: {}", per_pass(&plain.passes.peak_rss_mb));

    let metrics: Vec<(&str, &str, f64)> = match &traced {
        None => {
            let values = [
                quantile(&plain.setup_s, 0.5),
                quantile(&plain.passes.wall_s, 0.5),
                quantile(&plain.passes.cpu_s, 0.5),
                quantile(&plain.op_ms, 0.5),
                quantile(&plain.op_ms, 0.9),
                quantile(&plain.passes.peak_rss_mb, 0.5),
                plain.model_err_pct,
            ];
            END_TO_END
                .iter()
                .zip(values)
                .map(|(&(n, u), v)| (n, u, v))
                .collect()
        }
        Some(t) => {
            let ledger = layer_ledger(&plain, t, threads, attempted, failed);
            print_ledger(&ledger);
            ledger
        }
    };
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, u, v)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                escape_string(n),
                fmt_f64(*v),
                escape_string(u)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failed == 0,
        attempted.max(1),
        failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}

/// Every per-layer metric of the traced run, in [`PER_LAYER`] order,
/// plus the derived ones: parallel efficiency, the unattributed
/// remainder, the tracing overhead and the error rate.
fn layer_ledger(
    plain: &Outcome,
    traced: &Outcome,
    threads: usize,
    attempted: u64,
    failed: u64,
) -> Vec<(&'static str, &'static str, f64)> {
    let wall_ms = traced.passes.mean_wall_s() * 1e3;
    let workers = threads.max(1) as f64;
    let attributed: f64 = traced
        .layers
        .iter()
        .filter(|(n, _)| is_self_time(n))
        .map(|(_, v)| v)
        .sum();
    let unattributed = wall_ms * workers - attributed;
    let derived = [
        (
            "bench.parallel_efficiency",
            traced.passes.mean_cpu_s() * 1e3 / (wall_ms * workers),
        ),
        ("bench.unattributed_ms", unattributed),
        (
            "bench.unattributed_share",
            unattributed / (wall_ms * workers),
        ),
        (
            "bench.tracing_overhead_ms",
            wall_ms - plain.passes.mean_wall_s() * 1e3,
        ),
        ("error_rate", failed as f64 / attempted.max(1) as f64),
    ];
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = derived
                .iter()
                .chain(traced.layers.iter())
                .find(|(n, _)| *n == name)
                .map_or(0.0, |(_, v)| *v);
            (name, unit, value)
        })
        .collect()
}

/// The human-readable per-layer report of a traced run.
fn print_ledger(ledger: &[(&str, &str, f64)]) {
    println!(
        "{:<28} {:>14}  unit",
        "per-layer metric (per pass)", "value"
    );
    for (name, unit, value) in ledger {
        println!("{name:<28} {value:>14.3}  {unit}");
    }
}
