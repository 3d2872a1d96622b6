//! Experiment harnesses reproducing every table and figure of the
//! paper's evaluation (§5 and §6).
//!
//! Each module regenerates one result and prints the same rows/series the
//! paper reports; the binaries in `src/bin/` are thin wrappers. The
//! mapping to the paper:
//!
//! | Module | Paper result |
//! |---|---|
//! | [`table3`]  | Table 3 — effectiveness on the TP-27 set (25/27) |
//! | [`fig7`]    | Fig. 7 — per-app handling time, RCHDroid vs Android-10 |
//! | [`fig8`]    | Fig. 8 — per-app memory usage |
//! | [`fig9`]    | Fig. 9 — CPU/memory trace incl. the Android-10 crash |
//! | [`fig10`]   | Fig. 10 — scalability in view count (a: handling, b: migration) |
//! | [`fig11`]   | Fig. 11 — GC THRESH_T trade-off |
//! | [`fig12`]   | Fig. 12 + Table 4 — RuntimeDroid comparison |
//! | [`table5`]  | Table 5 + Fig. 14 — Google-Play top-100 study |
//! | [`energy`]  | §5.6 — board power |
//! | [`ablation`] | design-choice ablations (not in the paper; DESIGN.md §5) |
//!
//! All harnesses run on the deterministic simulator; see DESIGN.md for the
//! substitution rationale and EXPERIMENTS.md for paper-vs-measured values.

pub mod ablation;
pub mod breakdown;
pub mod daemon_exec;
pub mod detector;
pub mod differential;
pub mod energy;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod report;
pub mod scenario;
pub mod table3;
pub mod table5;
pub mod variance;

pub use daemon_exec::StudyExecutor;
pub use scenario::{run_app, RunConfig, RunOutcome};

use droidsim_fleet::{parse_jobs_value, FleetConfig, FleetOptions};
use std::time::Duration;

/// Everything an experiment binary accepts on the command line: the
/// worker count plus the crash-safety knobs of the supervised fleet.
///
/// * `--jobs N` / `--jobs=N` — worker threads (strict: a zero or
///   non-numeric value is an error, not a silent fallback);
/// * `--keep-going` — supervise the run: isolate task panics, print the
///   partial table plus a QUARANTINED footer instead of aborting;
/// * `--max-retries N` — requeue a failed task up to N times (implies
///   `--keep-going`);
/// * `--task-budget-ms N` — wall-clock stall watchdog per task attempt
///   (implies `--keep-going`);
/// * `--journal PATH` — checkpoint each completed task to PATH (implies
///   `--keep-going`);
/// * `--resume PATH` — skip tasks PATH already records, appending new
///   completions to it, or to the `--journal` file when one is given
///   (implies `--keep-going`);
/// * `--no-memo` — turn the warm path (`kernel::memo`) off for this
///   process: every `GenericAppSpec::build` builds a fresh app core
///   instead of sharing the built-app slot's. The correctness kill
///   switch behind the memo ≡ cold parity gates; `DROIDSIM_NO_MEMO=1`
///   is the env form.
/// * `--version` — print the binary's name and version, then exit.
///
/// Tokens the fleet layer does not recognize land in [`FleetCli::extra`]
/// in order. Binaries with flags of their own ([`FleetCli::from_args_passthrough`])
/// parse that remainder; everyone else ([`FleetCli::from_args`]) gets a
/// usage error naming the first unknown flag — never a silent ignore.
#[derive(Debug, Clone, Default)]
pub struct FleetCli {
    /// Explicit worker count, when given.
    pub jobs: Option<usize>,
    /// Whether any supervision flag was present.
    pub supervised: bool,
    /// Supervision knobs assembled from the flags.
    pub options: FleetOptions,
    /// Whether `--no-memo` was present (warm path disabled).
    pub no_memo: bool,
    /// Whether `--version` was present.
    pub version: bool,
    /// Tokens the fleet layer did not consume, in command-line order —
    /// the passthrough remainder a binary's own parser receives.
    pub extra: Vec<String>,
}

impl FleetCli {
    /// Parses `std::env::args` for a binary with no flags of its own:
    /// invalid values *and unknown flags* exit with a usage error
    /// (status 2) naming the offender — the satellite contract: reject,
    /// never silently fall back. `--version` prints and exits 0.
    pub fn from_args() -> FleetCli {
        let cli = FleetCli::from_args_passthrough();
        if let Err(e) = cli.deny_unknown() {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
        cli
    }

    /// Parses `std::env::args` for a binary with flags of its own:
    /// fleet flags are consumed (invalid values still exit 2),
    /// `--version` prints and exits 0, and everything else is kept in
    /// [`FleetCli::extra`] for the binary's parser — which owns the
    /// unknown-flag rejection for its remainder.
    pub fn from_args_passthrough() -> FleetCli {
        version_flag();
        let cli = FleetCli::parse(std::env::args().skip(1)).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        });
        // Apply the kill switch before any workload code runs so no
        // build in a `--no-memo` process shares a core. Leaving the flag
        // off does not force-enable: `DROIDSIM_NO_MEMO` still wins.
        if cli.no_memo {
            droidsim_kernel::memo::set_enabled(false);
        }
        cli
    }

    /// The strict contract for binaries with no flags of their own:
    /// errors on the first token the fleet layer did not consume,
    /// naming it.
    pub fn deny_unknown(&self) -> Result<(), String> {
        match self.extra.first() {
            None => Ok(()),
            Some(tok) if tok.starts_with("--") => {
                let flag = tok.split('=').next().unwrap_or(tok);
                Err(format!("unknown flag {flag:?}"))
            }
            Some(tok) => Err(format!("unexpected argument {tok:?}")),
        }
    }

    /// Parses an argument list (testable form of [`FleetCli::from_args`]).
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<FleetCli, String> {
        let mut cli = FleetCli {
            options: FleetOptions::new(),
            ..FleetCli::default()
        };
        let mut args = args.into_iter();
        let value = |flag: &str, inline: Option<String>, args: &mut dyn Iterator<Item = String>| {
            inline
                .or_else(|| args.next())
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        while let Some(a) = args.next() {
            let (flag, inline) = match a.split_once('=') {
                Some((f, v)) => (f.to_owned(), Some(v.to_owned())),
                None => (a, None),
            };
            match flag.as_str() {
                "--jobs" => {
                    let v = value("--jobs", inline, &mut args)?;
                    cli.jobs = Some(parse_jobs_value("--jobs", &v).map_err(|e| e.to_string())?);
                }
                "--keep-going" => cli.supervised = true,
                "--max-retries" => {
                    let v = value("--max-retries", inline, &mut args)?;
                    cli.options.max_retries = v
                        .parse()
                        .map_err(|_| format!("--max-retries: not a number: {v:?}"))?;
                    cli.supervised = true;
                }
                "--task-budget-ms" => {
                    let v = value("--task-budget-ms", inline, &mut args)?;
                    let ms: u64 = v
                        .parse()
                        .map_err(|_| format!("--task-budget-ms: not a number: {v:?}"))?;
                    cli.options.task_budget = Some(Duration::from_millis(ms));
                    cli.supervised = true;
                }
                "--journal" => {
                    let v = value("--journal", inline, &mut args)?;
                    cli.options.journal = Some(v.into());
                    cli.supervised = true;
                }
                "--resume" => {
                    let v = value("--resume", inline, &mut args)?;
                    cli.options.resume = Some(v.into());
                    cli.supervised = true;
                }
                "--no-memo" => cli.no_memo = true,
                "--version" => cli.version = true,
                // Binaries keep their own extra flags: preserve the
                // raw token (value-bearing forms like `--views=16` or
                // `--views` + `16` arrive as the original tokens).
                _ => cli.extra.push(match &inline {
                    Some(v) => format!("{flag}={v}"),
                    None => flag,
                }),
            }
        }
        // Whichever order the flags came in, `--journal` names where new
        // completions go; without it `--resume` extends its own file.
        if cli.options.journal.is_none() {
            cli.options.journal.clone_from(&cli.options.resume);
        }
        Ok(cli)
    }

    /// Resolves the fleet config (explicit `--jobs` > `DROIDSIM_JOBS` >
    /// cores), exiting with the resolution error when the environment
    /// holds an invalid count.
    pub fn config(&self, seed: u64) -> FleetConfig {
        FleetConfig::try_from_env(self.jobs, seed).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        })
    }
}

/// Implements the universal `--version` flag: when present anywhere on
/// the command line, prints `<binary> <version>` and exits 0. Every
/// study binary (and the daemon pair) calls this first; the
/// [`FleetCli`] entry points do it on the caller's behalf.
pub fn version_flag() {
    if std::env::args().skip(1).any(|a| a == "--version") {
        let bin = std::env::args().next().as_deref().map_or_else(
            || "droidsim".to_owned(),
            |p| {
                std::path::Path::new(p)
                    .file_name()
                    .map_or_else(|| p.to_owned(), |n| n.to_string_lossy().into_owned())
            },
        );
        println!("{bin} {}", env!("CARGO_PKG_VERSION"));
        std::process::exit(0);
    }
}

/// Builds a [`droidsim_fleet::FleetConfig`] for an experiment binary:
/// `--jobs N` / `--jobs=N` on the command line wins, then the
/// `DROIDSIM_JOBS` environment variable, then the machine's available
/// parallelism. `--jobs 1` selects the legacy serial path. Invalid
/// worker counts exit with a usage error.
pub fn fleet_config_from_args() -> droidsim_fleet::FleetConfig {
    FleetCli::from_args().config(0)
}

#[cfg(test)]
mod cli_tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<FleetCli, String> {
        FleetCli::parse(args.iter().map(|s| (*s).to_owned()))
    }

    #[test]
    fn plain_jobs_does_not_select_supervision() {
        let cli = parse(&["--jobs", "4"]).unwrap();
        assert_eq!(cli.jobs, Some(4));
        assert!(!cli.supervised);
        let cli = parse(&["--jobs=2"]).unwrap();
        assert_eq!(cli.jobs, Some(2));
    }

    #[test]
    fn invalid_jobs_is_an_error_not_a_fallback() {
        for bad in ["0", "three", "-1", "4.5", ""] {
            let err = parse(&["--jobs", bad]).unwrap_err();
            assert!(err.contains("--jobs"), "{bad:?}: {err}");
        }
        assert!(parse(&["--jobs"]).unwrap_err().contains("needs a value"));
    }

    #[test]
    fn every_supervision_flag_selects_the_supervised_fleet() {
        assert!(parse(&["--keep-going"]).unwrap().supervised);
        let cli = parse(&["--max-retries", "3"]).unwrap();
        assert!(cli.supervised);
        assert_eq!(cli.options.max_retries, 3);
        let cli = parse(&["--task-budget-ms=250"]).unwrap();
        assert!(cli.supervised);
        assert_eq!(cli.options.task_budget, Some(Duration::from_millis(250)));
        let cli = parse(&["--journal", "j.log"]).unwrap();
        assert!(cli.supervised);
        assert_eq!(cli.options.journal.as_deref(), Some("j.log".as_ref()));
        assert!(cli.options.resume.is_none());
    }

    #[test]
    fn resume_reads_and_extends_the_same_journal() {
        let cli = parse(&["--resume", "j.log", "--jobs", "2"]).unwrap();
        assert!(cli.supervised);
        assert_eq!(cli.options.resume.as_deref(), Some("j.log".as_ref()));
        assert_eq!(cli.options.journal.as_deref(), Some("j.log".as_ref()));
        assert_eq!(cli.jobs, Some(2));

        // An explicit `--journal` wins over the resume file in either
        // order: resume reads one file and appends to the other.
        for args in [
            ["--journal", "a.log", "--resume", "b.log"],
            ["--resume", "b.log", "--journal", "a.log"],
        ] {
            let cli = parse(&args).unwrap();
            assert_eq!(
                cli.options.resume.as_deref(),
                Some("b.log".as_ref()),
                "{args:?}"
            );
            assert_eq!(
                cli.options.journal.as_deref(),
                Some("a.log".as_ref()),
                "{args:?}"
            );
        }
    }

    #[test]
    fn unknown_flags_pass_through_for_the_binaries() {
        let cli = parse(&["--views", "16", "--jobs", "3", "--corpus=tp27"]).unwrap();
        assert_eq!(cli.jobs, Some(3));
        assert!(!cli.supervised);
        assert_eq!(cli.extra, vec!["--views", "16", "--corpus=tp27"]);
    }

    #[test]
    fn strict_binaries_reject_unknown_flags_by_name() {
        let cli = parse(&["--jobs", "2", "--view", "16"]).unwrap();
        let err = cli.deny_unknown().unwrap_err();
        assert!(err.contains("--view"), "{err}");
        let cli = parse(&["--jobs=2", "--journal=j.log"]).unwrap();
        assert!(cli.deny_unknown().is_ok());
        let err = parse(&["tp27"]).unwrap().deny_unknown().unwrap_err();
        assert!(err.contains("unexpected argument"), "{err}");
        // The flag name alone is reported, not its inline value.
        let err = parse(&["--corpus=tp27"])
            .unwrap()
            .deny_unknown()
            .unwrap_err();
        assert!(err.contains("\"--corpus\""), "{err}");
    }

    #[test]
    fn no_memo_parses_without_selecting_supervision() {
        let cli = parse(&["--no-memo", "--jobs", "2"]).unwrap();
        assert!(cli.no_memo);
        assert!(!cli.supervised);
        assert!(cli.deny_unknown().is_ok());
        assert!(!parse(&["--jobs", "2"]).unwrap().no_memo);
    }

    #[test]
    fn version_flag_is_recognized_everywhere() {
        let cli = parse(&["--version"]).unwrap();
        assert!(cli.version);
        assert!(cli.extra.is_empty());
        assert!(cli.deny_unknown().is_ok());
    }
}
