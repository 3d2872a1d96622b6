//! Order statistics, the failure tally every workload's checker writes
//! to, process memory, and run provenance.

use std::time::Duration;

/// The `q`-quantile (0 ≤ q ≤ 1) of `values` by linear interpolation
/// between closest ranks; 0 for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Milliseconds in `d`, with all digits.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Counts attempted and failed operations and keeps the first few
/// failure descriptions. A run whose tally has any failure exits
/// non-zero.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Operations attempted (timed and set-up).
    pub attempted: u64,
    /// Operations that failed, were refused, or could not be verified.
    pub failed: u64,
    /// What failed, first [`Tally::KEEP`] entries.
    pub failures: Vec<String>,
}

impl Tally {
    const KEEP: usize = 20;

    /// Counts one operation that passed its check.
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    /// Counts one operation that failed, with the reason.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.attempted += 1;
        self.failed += 1;
        if self.failures.len() < Self::KEEP {
            self.failures.push(why.into());
        }
    }

    /// Counts one operation, passing when `pass` holds.
    pub fn check(&mut self, pass: bool, why: impl FnOnce() -> String) {
        if pass {
            self.ok();
        } else {
            self.fail(why());
        }
    }

    /// Folds another tally into this one.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for f in other.failures {
            if self.failures.len() < Self::KEEP {
                self.failures.push(f);
            }
        }
    }

    /// Failed ÷ attempted, in percent.
    pub fn fail_pct(&self) -> f64 {
        if self.attempted == 0 {
            100.0
        } else {
            self.failed as f64 * 100.0 / self.attempted as f64
        }
    }

    /// Whether every operation passed (and there was at least one).
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The process exit code this tally calls for.
    pub fn exit_code(&self) -> i32 {
        i32::from(!self.correct())
    }
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Logical CPUs this process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Where a result came from: host, toolchain, seed and git commit
/// (`none` outside a git checkout).
pub fn provenance(seed: u64) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_owned(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_owned(),
        );
    // Git may look for a repository no higher than the working directory.
    let ceiling = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(std::path::Path::to_path_buf))
        .unwrap_or_default();
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "none".to_owned(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_owned(),
        );
    format!(
        "nproc={} cpu=\"{cpu}\" rustc=\"{rustc}\" seed={seed} commit={commit}",
        nproc()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn a_failure_fails_the_run() {
        let mut t = Tally::default();
        t.ok();
        assert_eq!(t.exit_code(), 0);
        t.fail("boom");
        assert_eq!(t.exit_code(), 1);
        assert_eq!(t.fail_pct(), 50.0);
        assert!(
            Tally::default().exit_code() != 0,
            "no operation is no result"
        );
    }
}
