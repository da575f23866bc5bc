//! Clocks, order statistics, process memory, the host fingerprint, and the
//! per-run scratch directory.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Instant;

/// Run `f` and return its result with the wall time it took, in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Run `make`, which returns its output with the seconds it timed, back
/// to back until at least `min_reps` repetitions and `min_seconds` of
/// timed seconds have passed, and return the last output with every
/// repetition's seconds. Each earlier output goes to `discard` before the
/// next repetition starts, so every repetition starts from the same
/// process state.
pub fn repeat_setup<T>(
    min_reps: usize,
    min_seconds: f64,
    mut make: impl FnMut() -> (T, f64),
    mut discard: impl FnMut(T),
) -> (T, Vec<f64>) {
    let mut times = Vec::new();
    loop {
        let (out, s) = make();
        times.push(s);
        if times.len() >= min_reps && times.iter().sum::<f64>() >= min_seconds {
            return (out, times);
        }
        discard(out);
    }
}

/// The `q`-quantile of `xs` by linear interpolation between closest
/// ranks (0 for an empty slice).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Seconds as a short list for the report.
pub fn fmt_secs(xs: &[f64]) -> String {
    let parts: Vec<String> = xs.iter().map(|x| format!("{x:.3}")).collect();
    format!("[{}]", parts.join(", "))
}

/// The process's resident-set high-water mark in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// What every number of a run was measured on.
pub struct Host {
    /// The worker-thread count the library runs with.
    pub threads: usize,
    /// CPUs available to the process.
    pub nproc: usize,
    /// The first `model name` of `/proc/cpuinfo`.
    pub cpu_model: String,
    /// Filesystem type of the scratch directory trace stores are written to.
    pub scratch_fs: String,
}

impl Host {
    /// Fingerprint the host; `scratch` must exist.
    pub fn probe(scratch: &Path) -> Host {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let cpu_model = cpuinfo
            .lines()
            .find_map(|l| l.strip_prefix("model name"))
            .and_then(|rest| rest.split_once(':'))
            .map_or_else(|| "unknown".to_string(), |(_, m)| m.trim().to_string());
        Host {
            threads: ebs_core::parallel::current_threads(),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            scratch_fs: filesystem_of(scratch),
        }
    }
}

/// The filesystem type of the mount holding `path` (longest matching mount
/// point in `/proc/self/mountinfo`).
fn filesystem_of(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".to_string();
    };
    let mountinfo = std::fs::read_to_string("/proc/self/mountinfo").unwrap_or_default();
    let mut best: Option<(usize, String)> = None;
    for line in mountinfo.lines() {
        // `id parent major:minor root mount-point options ... - fstype source opts`
        let fields: Vec<&str> = line.split(' ').collect();
        let (Some(mount), Some(dash)) = (fields.get(4), fields.iter().position(|f| *f == "-"))
        else {
            continue;
        };
        let Some(fstype) = fields.get(dash + 1) else {
            continue;
        };
        if path.starts_with(mount) && best.as_ref().is_none_or(|(len, _)| mount.len() >= *len) {
            best = Some((mount.len(), (*fstype).to_string()));
        }
    }
    best.map_or_else(|| "unknown".to_string(), |(_, fs)| fs)
}

/// A scratch directory under the working directory, unique to this
/// process and call, removed (with everything in it) when dropped.
pub struct Scratch {
    root: PathBuf,
    next: u32,
}

impl Scratch {
    /// Create `.perfbench-scratch/<tag>-<pid>-<n>` under the working
    /// directory.
    pub fn create(tag: &str) -> std::io::Result<Scratch> {
        static CREATED: AtomicU32 = AtomicU32::new(0);
        let n = CREATED.fetch_add(1, Ordering::Relaxed);
        let root =
            PathBuf::from(".perfbench-scratch").join(format!("{tag}-{}-{n}", std::process::id()));
        if root.exists() {
            std::fs::remove_dir_all(&root)?;
        }
        std::fs::create_dir_all(&root)?;
        Ok(Scratch { root, next: 0 })
    }

    /// A fresh, not yet existing path inside the scratch root.
    pub fn fresh(&mut self, name: &str) -> PathBuf {
        self.next += 1;
        self.root.join(format!("{name}-{}", self.next))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
        // Remove the parent too once no other run uses it.
        if let Some(parent) = self.root.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Flush every file under `dir` to stable storage, so the writeback of one
/// set-up repetition cannot run during the next timed phase.
pub fn sync_dir(dir: &Path) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        std::fs::File::open(entry?.path())?.sync_all()?;
    }
    std::fs::File::open(dir)?.sync_all()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }
}
