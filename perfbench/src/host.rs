//! Host readings: process CPU time, resident memory and provenance.
//!
//! Everything comes from `/proc` (Linux), so the benchmark needs no
//! dependency beyond the repository's own crates.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// User plus system CPU seconds consumed so far by this process, all
/// threads included (`/proc/self/stat` fields 14 and 15).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // The command name (field 2) may contain spaces; fields restart
    // after its closing parenthesis, at field 3.
    let rest = &stat[stat.rfind(')').expect("stat has a command field") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> f64 { fields[i - 3].parse::<f64>().expect("numeric tick field") };
    // `sysconf(_SC_CLK_TCK)` without libc: the user-visible tick rate
    // is 100 on every Linux architecture this workspace builds for.
    (ticks(14) + ticks(15)) / 100.0
}

fn rss_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

/// Samples `VmRSS` every 5 ms on a background thread, so each pass of
/// the timed phase gets its own high-water mark; the process-lifetime
/// `VmHWM` would also hold set-up and earlier passes.
pub struct RssSampler {
    stop: Arc<AtomicBool>,
    peak_kb: Arc<AtomicU64>,
    handle: JoinHandle<()>,
}

impl RssSampler {
    pub fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let peak_kb = Arc::new(AtomicU64::new(0));
        let (s, p) = (Arc::clone(&stop), Arc::clone(&peak_kb));
        let handle = std::thread::spawn(move || {
            while !s.load(Ordering::Relaxed) {
                p.fetch_max(rss_kb(), Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(5));
            }
        });
        Self {
            stop,
            peak_kb,
            handle,
        }
    }

    /// The highest resident set seen since the previous call, in MiB.
    pub fn take_peak_mb(&self) -> f64 {
        let peak = self.peak_kb.swap(0, Ordering::Relaxed).max(rss_kb());
        peak as f64 / 1024.0
    }

    pub fn stop(self) {
        self.stop.store(true, Ordering::Relaxed);
        self.handle.join().expect("RSS sampler thread panicked");
    }
}

extern "C" {
    /// glibc: returns free heap memory to the operating system.
    fn malloc_trim(pad: usize) -> i32;
}

/// Hands the memory freed so far back to the operating system, so that
/// every pass starts from the resident set of a fresh process rather
/// than from one that depends on how the allocator's free lists ended
/// up after the previous pass.
pub fn release_free_memory() {
    // SAFETY: `malloc_trim` takes no pointer and only walks the
    // allocator's own free lists; it may be called at any time.
    unsafe {
        malloc_trim(0);
    }
}

/// Worker threads the benchmark may use: the host's available
/// parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Where and with what a result was measured.
pub struct Provenance {
    pub nproc: usize,
    pub cpu_model: String,
    pub rustc: &'static str,
    pub commit: String,
}

impl Provenance {
    /// Reads the host's provenance.
    pub fn read() -> Self {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .unwrap_or_default()
            .lines()
            .find_map(|l| l.strip_prefix("model name"))
            .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string());
        Self {
            nproc: nproc(),
            cpu_model,
            rustc: env!("PERFBENCH_RUSTC"),
            commit: git_commit().unwrap_or_else(|| "unknown".to_string()),
        }
    }
}

/// The checked-out commit, read from `.git` without running git; `None`
/// outside a repository (the benchmark also runs from plain exports).
fn git_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{reference}")) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed.lines().find_map(|l| {
        let (id, name) = l.split_once(' ')?;
        (name == reference).then(|| id.to_string())
    })
}
