//! `serve`: the characterization service over HTTP. Set-up fills a
//! persistent store with one cold pass of the experiment registry and
//! starts the service on it, as `bmp-serve` does with `BMP_STORE` set
//! (the service is the same `bmp_bench::serve::Server` that binary
//! wraps, hosted in this process). Each pass is one round: a freshly
//! started service, and one closed-loop client per available thread,
//! each posting the whole registry as `/jobs` in its own order, drawn
//! afresh for every round from the seed.
//! Simulations come from verified store reads and decoding instead of
//! compute, which is what puts the store, the codec and the service
//! under measurement.

use std::cell::RefCell;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bmp_bench::codec::decode_sim_result;
use bmp_bench::engine::{experiment_defs, Ctx, Engine};
use bmp_bench::serve::server::{ServeConfig, Server, ServerState};
use bmp_bench::Scale;
use bmp_core::store::key_from_file_name;
use bmp_core::{DiskStore, StoreConfig};

use crate::check;
use crate::spans::Tracer;
use crate::suite::Ledger;
use crate::{permutation, run_passes, time_setup, Cfg, Outcome, MIN_SAMPLES};

/// A running service and the context it computes in.
struct Service {
    addr: SocketAddr,
    ctx: Arc<Ctx>,
    state: Arc<ServerState>,
    join: Option<JoinHandle<()>>,
}

impl Service {
    /// Starts a service with a fresh in-memory cache over the store at
    /// `dir`.
    fn start(dir: &Path, handlers: usize, scale: Scale) -> Self {
        let ctx = Arc::new(Ctx::new());
        ctx.set_store(Arc::new(open_store(dir)));
        let cfg = ServeConfig {
            handlers,
            ..ServeConfig::default()
        };
        let server = Server::bind(cfg, Arc::clone(&ctx), scale).expect("bind a loopback port");
        let addr = server.local_addr().expect("bound address");
        let state = server.state();
        let join = Some(std::thread::spawn(move || server.run()));
        Self {
            addr,
            ctx,
            state,
            join,
        }
    }

    /// Drains the service and waits for it to exit.
    fn stop(&mut self) {
        self.state.begin_drain();
        if let Some(j) = self.join.take() {
            j.join().expect("server thread panicked");
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.state.begin_drain();
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
    }
}

fn open_store(dir: &Path) -> DiskStore {
    DiskStore::open(dir, StoreConfig::default())
        .expect("open the benchmark's store")
        .0
}

/// One HTTP/1.1 exchange; the service closes every connection after
/// its response.
fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> std::io::Result<(u16, String)> {
    let mut s = TcpStream::connect(addr)?;
    s.set_read_timeout(Some(Duration::from_secs(60)))?;
    write!(
        s,
        "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )?;
    let mut raw = String::new();
    s.read_to_string(&mut raw)?;
    let status = raw
        .split(' ')
        .nth(1)
        .and_then(|c| c.parse().ok())
        .unwrap_or(0);
    let body = raw.split_once("\r\n\r\n").map_or("", |(_, b)| b);
    Ok((status, body.to_string()))
}

/// A counter from the `/metrics` exposition.
fn counter(metrics: &str, name: &str) -> f64 {
    metrics
        .lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
        .unwrap_or(0.0)
}

/// One finished job as a client saw it.
struct Job {
    experiment: usize,
    status: u16,
    body: String,
}

/// The per-round numbers collected after each round.
#[derive(Default)]
struct RoundLedger {
    program: Ledger,
    store_hits: u64,
    bytes_read: u64,
    counters: [f64; 4],
}

/// Reads every record the round's service read, timing the store and
/// the codec exactly as the service's cache does on a miss: a verified
/// `DiskStore::get`, then `decode_sim_result`.
fn replay_store_reads(store: &DiskStore, tr: &Tracer) -> u64 {
    let mut keys = Vec::new();
    for shard in std::fs::read_dir(store.root())
        .into_iter()
        .flatten()
        .flatten()
    {
        let name = shard.file_name();
        if name.len() != 2 || !shard.path().is_dir() {
            continue;
        }
        for rec in std::fs::read_dir(shard.path())
            .into_iter()
            .flatten()
            .flatten()
        {
            keys.extend(rec.file_name().to_str().and_then(key_from_file_name));
        }
    }
    keys.sort_unstable();
    let mut bytes = 0;
    for key in keys {
        if let Some(payload) = tr.span("core.store_get_ms", 0, || store.get(key)) {
            bytes += payload.len() as u64;
            let _ = tr.span("bench.decode_ms", 0, || decode_sim_result(&payload));
        }
    }
    bytes
}

pub fn run(cfg: &Cfg, tr: &Tracer) -> Outcome {
    // Jobs run at the paper's reproduction seed, so every answer is
    // checked against the committed CSVs; `--seed` orders the requests.
    let scale = Scale {
        ops: cfg.ops.unwrap_or(Scale::default().ops),
        ..Scale::default()
    };
    let names: Vec<&'static str> = experiment_defs().iter().map(|d| d.name).collect();
    let store_dir = cfg.scratch.join("store");
    let (setup_s, first) = time_setup(|| {
        let _ = std::fs::remove_dir_all(&store_dir);
        let engine = Engine::new(cfg.threads);
        engine.ctx().set_store(Arc::new(open_store(&store_dir)));
        engine.run_all(scale);
        drop(engine);
        Service::start(&store_dir, cfg.threads, scale)
    });

    let service = RefCell::new(Some(first));
    let mut ledger = RoundLedger::default();
    let finish = |mut s: Service, ledger: &mut RoundLedger| {
        let metrics = request(s.addr, "GET", "/metrics", "").map_or(String::new(), |r| r.1);
        s.stop();
        ledger.program.add(&s.ctx);
        let store = s.ctx.store().expect("store attached");
        ledger.store_hits += store.stats().hits();
        if tr.on() {
            ledger.bytes_read += replay_store_reads(store, tr);
        }
        for (slot, names) in ledger.counters.iter_mut().zip([
            &["bmp_serve_requests_total"][..],
            &["bmp_serve_coalesced_total"],
            &[
                "bmp_serve_rejected_busy_total",
                "bmp_serve_rejected_draining_total",
            ],
            &["bmp_serve_retries_total"],
        ]) {
            *slot += names.iter().map(|n| counter(&metrics, n)).sum::<f64>();
        }
    };

    let mut jobs: Vec<Job> = Vec::new();
    let mut op_ms = Vec::new();
    let mut failures = Vec::new();
    let mut fresh = true;
    let mut round = 0u64;
    let passes = run_passes(
        cfg.budget,
        MIN_SAMPLES,
        || {
            if !fresh {
                let old = service.borrow_mut().take().expect("service running");
                finish(old, &mut ledger);
                *service.borrow_mut() = Some(Service::start(&store_dir, cfg.threads, scale));
            }
            fresh = false;
        },
        || {
            let addr = service.borrow().as_ref().expect("service running").addr;
            round += 1;
            let round = round;
            let per_client: Vec<Vec<(Job, f64)>> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..cfg.threads)
                    .map(|c| {
                        let names = &names;
                        s.spawn(move || {
                            let stream = (round << 8) | c as u64;
                            let order = permutation(names.len(), cfg.seed ^ (stream << 32));
                            order
                                .into_iter()
                                .map(|e| {
                                    let body = format!(
                                        "{{\"experiment\": \"{}\", \"ops\": {}, \"seed\": {}}}",
                                        names[e], scale.ops, scale.seed
                                    );
                                    let t0 = Instant::now();
                                    let got = tr.span("serve.job", 0, || {
                                        request(addr, "POST", "/jobs", &body)
                                    });
                                    let ms = t0.elapsed().as_secs_f64() * 1e3;
                                    let (status, body) = got.unwrap_or((0, String::new()));
                                    (
                                        Job {
                                            experiment: e,
                                            status,
                                            body,
                                        },
                                        ms,
                                    )
                                })
                                .collect()
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("client thread panicked"))
                    .collect()
            });
            let mut n = 0;
            for (job, ms) in per_client.into_iter().flatten() {
                op_ms.push(ms);
                jobs.push(job);
                n += 1;
            }
            n
        },
    );
    if let Some(s) = service.into_inner() {
        finish(s, &mut ledger);
    }
    let _ = std::fs::remove_dir_all(&store_dir);

    // Every answer must be a 200 carrying the same CSV for the same
    // experiment (and, at the default scale, the committed CSV).
    let mut first_csv: Vec<Option<&str>> = vec![None; names.len()];
    let golden = check::has_goldens(scale);
    for job in &jobs {
        let name = names[job.experiment];
        if job.status != 200 {
            failures.push(format!("{name}: HTTP status {}", job.status));
            continue;
        }
        match first_csv[job.experiment] {
            Some(prev) if prev != job.body => {
                failures.push(format!("{name}: answer differs between jobs"));
            }
            Some(_) => {}
            None => {
                first_csv[job.experiment] = Some(&job.body);
                if golden {
                    if let Err(e) = check::check_golden(name, &job.body) {
                        failures.push(e);
                    }
                }
            }
        }
    }
    let digest = first_csv
        .iter()
        .fold(0, |d, csv| check::fold(d, csv.unwrap_or("").as_bytes()));
    let model_err_pct = names
        .iter()
        .position(|n| *n == "fig10_model_validation")
        .and_then(|i| first_csv[i])
        .and_then(check::fig10_model_err_pct)
        .unwrap_or(0.0);

    let mut layers = Vec::new();
    if tr.on() {
        let n = passes.count();
        layers = ledger.program.layers(n);
        let store_get = tr.layer("core.store_get_ms").ms() / n;
        let decode = tr.layer("bench.decode_ms").ms() / n;
        let inner: f64 = layers
            .iter()
            .filter(|(k, _)| k.ends_with("_ms"))
            .map(|(_, v)| v)
            .sum::<f64>()
            + store_get
            + decode;
        let [requests, coalesced, rejected, retries] = ledger.counters;
        layers.extend([
            ("core.store_get_ms", store_get),
            ("core.store_hits", ledger.store_hits as f64 / n),
            ("core.store_bytes_read", ledger.bytes_read as f64 / n),
            ("bench.decode_ms", decode),
            ("serve.self_ms", tr.layer("serve.job").ms() / n - inner),
            ("serve.requests", requests / n),
            ("serve.coalesced", coalesced / n),
            ("serve.rejected", rejected / n),
            ("serve.retries", retries / n),
        ]);
    }
    Outcome {
        setup_s,
        passes,
        op_ms,
        model_err_pct,
        attempted: jobs.len() as u64,
        failures,
        digest,
        ops: scale.ops,
        layers,
    }
}
