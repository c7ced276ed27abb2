//! Host probe and provenance: what machine and which build produced the
//! numbers, plus the memory-bandwidth probe the roofline line divides by.

use std::hint::black_box;
use std::process::Command;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A `/sys` or `/proc` size such as `266240K` or `2048 kB`, in bytes.
fn parse_size(text: &str) -> Option<u64> {
    let text = text.trim();
    let digits: String = text.chars().take_while(char::is_ascii_digit).collect();
    let n: u64 = digits.parse().ok()?;
    let unit = text[digits.len()..].trim().to_ascii_lowercase();
    let scale = match unit.as_str() {
        "" | "b" => 1,
        "k" | "kb" => 1 << 10,
        "m" | "mb" => 1 << 20,
        "g" | "gb" => 1 << 30,
        _ => return None,
    };
    Some(n * scale)
}

/// Size of the last-level cache of cpu0 from `/sys`, in bytes (`None`
/// where the kernel does not expose it).
pub fn llc_bytes() -> Option<u64> {
    let base = "/sys/devices/system/cpu/cpu0/cache";
    let mut best: Option<(u32, u64)> = None;
    for entry in std::fs::read_dir(base).ok()?.flatten() {
        let dir = entry.path();
        let read = |f: &str| std::fs::read_to_string(dir.join(f)).ok();
        let (Some(level), Some(size)) = (read("level"), read("size")) else {
            continue;
        };
        if read("type").is_some_and(|t| t.trim() == "Instruction") {
            continue;
        }
        let (Ok(level), Some(size)) = (level.trim().parse::<u32>(), parse_size(&size)) else {
            continue;
        };
        if best.is_none_or(|(l, _)| level > l) {
            best = Some((level, size));
        }
    }
    best.map(|(_, size)| size)
}

/// The value of one `key: value` line of a `/proc` status-style text.
fn status_field<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    text.lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
}

/// One `key: value kB` field of a `/proc` status-style file, in bytes.
fn proc_field(path: &str, key: &str) -> Option<u64> {
    let text = std::fs::read_to_string(path).ok()?;
    parse_size(status_field(&text, key)?)
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    proc_field("/proc/self/status", "VmHWM").map_or(0.0, |b| b as f64 / 1e6)
}

/// Resets `VmHWM` to the current resident set, so a later reading covers
/// only what ran in between (the checker's reference run must not count
/// towards a workload's peak). Where the kernel refuses, the peak simply
/// includes that run — on every commit alike.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Sum of the peak resident sets (`VmHWM`) of this process and all its
/// descendants that are alive right now, in bytes: one pass over `/proc`,
/// `PPid` and `VmHWM` of every process.
fn tree_peak_bytes() -> u64 {
    let mut procs = Vec::new();
    for entry in std::fs::read_dir("/proc").into_iter().flatten().flatten() {
        let name = entry.file_name();
        let Some(pid) = name.to_str().and_then(|n| n.parse::<u32>().ok()) else {
            continue;
        };
        // A process that exits between the listing and the read is gone.
        let Ok(text) = std::fs::read_to_string(format!("/proc/{pid}/status")) else {
            continue;
        };
        let ppid = status_field(&text, "PPid").and_then(|v| v.trim().parse::<u32>().ok());
        let peak = status_field(&text, "VmHWM").and_then(parse_size);
        procs.push((pid, ppid.unwrap_or(0), peak.unwrap_or(0)));
    }
    let mut family = vec![std::process::id()];
    let mut total = 0;
    let mut next = 0;
    while let Some(&parent) = family.get(next) {
        next += 1;
        for &(pid, ppid, peak) in &procs {
            if pid == parent {
                total += peak;
            }
            if ppid == parent {
                family.push(pid);
            }
        }
    }
    total
}

/// Peak memory of a workload that lives in several processes (`mp` ranks;
/// the `serve` daemon and its job workers): a thread that adds up the
/// peak resident sets of this process and its live descendants every
/// [`TREE_SAMPLE`] and keeps the largest sum. Each process's own peak is
/// the kernel's, so how exactly the processes' peaks overlap in time does
/// not move the sum; a process is counted as long as one sample sees it
/// alive after it peaked — the lattices and state buffers that make up
/// these workloads' memory live for seconds.
pub struct TreePeak {
    stop: Arc<AtomicBool>,
    sampler: Option<JoinHandle<u64>>,
}

const TREE_SAMPLE: Duration = Duration::from_millis(100);

impl TreePeak {
    pub fn start() -> TreePeak {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let sampler = std::thread::spawn(move || {
            let mut peak = 0;
            while !flag.load(Ordering::Relaxed) {
                peak = peak.max(tree_peak_bytes());
                std::thread::sleep(TREE_SAMPLE);
            }
            peak.max(tree_peak_bytes())
        });
        TreePeak {
            stop,
            sampler: Some(sampler),
        }
    }

    /// Stops sampling; the largest sum seen, in MB.
    pub fn finish(mut self) -> f64 {
        self.stop.store(true, Ordering::Relaxed);
        let peak = self.sampler.take().and_then(|s| s.join().ok());
        peak.map_or(0.0, |b| b as f64 / 1e6)
    }
}

impl Drop for TreePeak {
    /// An abandoned sampler (an error path) winds down on its own.
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
    }
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

pub fn git_commit() -> String {
    command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into())
}

pub fn rustc_version() -> String {
    command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into())
}

/// Result of the copy-bandwidth probe.
pub struct CopyProbe {
    /// Best-of-reps bytes read + written per second, in GB/s.
    pub gbps: f64,
    /// Bytes in each of the two arrays.
    pub array_bytes: u64,
    /// Last-level cache size the arrays were sized against (0 = unknown).
    pub llc_bytes: u64,
}

/// Sustainable copy bandwidth of one core: `dst.copy_from_slice(src)`
/// over two arrays of at least four times the last-level cache each
/// (capped at an eighth of physical memory, so the probe cannot push a
/// small host into swap — both sizes are reported, so a capped probe is
/// visible). `quick` uses 32 MiB arrays and is only a smoke value.
pub fn copy_probe(quick: bool) -> CopyProbe {
    let llc = llc_bytes().unwrap_or(0);
    let mem = proc_field("/proc/meminfo", "MemTotal").unwrap_or(8 << 30);
    let want = if quick {
        32 << 20
    } else {
        (4 * llc).max(256 << 20)
    };
    let array_bytes = want.min(mem / 8);
    let len = (array_bytes / 8) as usize;
    let src = vec![1.5f64; len];
    let mut dst = vec![0.0f64; len];
    let mut best = f64::INFINITY;
    // First pass faults the destination pages in; it is never the best.
    for _ in 0..4 {
        let t = Instant::now();
        dst.copy_from_slice(black_box(&src));
        black_box(&mut dst);
        best = best.min(t.elapsed().as_secs_f64());
    }
    CopyProbe {
        gbps: 2.0 * (len * 8) as f64 / best / 1e9,
        array_bytes: (len * 8) as u64,
        llc_bytes: llc,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_parse_with_and_without_space() {
        assert_eq!(parse_size("266240K"), Some(266240 << 10));
        assert_eq!(parse_size("  2048 kB"), Some(2048 << 10));
        assert_eq!(parse_size("12"), Some(12));
        assert_eq!(parse_size("12 parsecs"), None);
    }
}
