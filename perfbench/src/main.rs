//! Host-time benchmark of the RCHDroid reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload study|lint --seed N --seconds N --trace 0|1
//! ```
//!
//! Run from the repository root. Every workload builds its inputs from
//! `--seed` (seed 0 is the committed corpora), sets up, measures for
//! `--seconds`, checks every output against a reference, prints its
//! metrics by name with their units, and ends with one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end set ([`END_TO_END`]); with `--trace 1`
//! they are the per-layer set ([`PER_LAYER`]) from a separate run that
//! records spans around every call into a layer and writes them to
//! `.bench_out/spans-<workload>.jsonl`. Any failed check makes the
//! process exit 1 after printing the result.
//!
//! `--rss-probe` (no value) is how a run measures `peak_rss_mib`: the
//! process runs one pass of the workload at jobs = nproc and prints its
//! peak RSS and the pass's digest. See `perfbench/README.md`
//! for why each workload and metric was chosen.

mod batch;
mod corpus;
mod daemon;
mod lint;
mod stats;
mod study;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use droidsim_kernel::memo::MemoSnapshot;
use stats::{median, Tally};

/// End-to-end metrics, reported by every workload with `--trace 0`.
///
/// | metric | study | lint |
/// |---|---|---|
/// | `throughput_per_s` | top-100 rows/s | apps analysed/s |
/// | `peak_rss_mib` | median peak RSS of fresh processes that each run one pass | the same |
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("throughput_per_s", "1/s"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`. A
/// layer the workload never calls reads 0 and prints as `-`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.build.share", "share"),
    ("workloads.build.us_per_run", "us"),
    ("device.launch.share", "share"),
    ("device.rotate.stock.us_p50", "us"),
    ("device.rotate.rchdroid.us_p50", "us"),
    ("device.rotate.share", "share"),
    ("device.advance.share", "share"),
    ("device.inspect.share", "share"),
    ("device.teardown.share", "share"),
    ("device.runs", "count"),
    ("device.rotations", "count"),
    ("memo.resolve.hit_ratio", "ratio"),
    ("memo.resolve.evictions", "1/pass"),
    ("memo.inflate.hit_ratio", "ratio"),
    ("memo.inflate.evictions", "1/pass"),
    ("memo.mapping.hit_ratio", "ratio"),
    ("memo.mapping.evictions", "1/pass"),
    ("memo.shape.hit_ratio", "ratio"),
    ("memo.shape.evictions", "1/pass"),
    ("kernel.alloc_events_per_run", "count"),
    ("fleet.jobs1_pass_s", "s"),
    ("fleet.parallel_efficiency", "ratio"),
    ("fleet.worker_idle_share", "share"),
    ("analysis.shape.share", "share"),
    ("analysis.passes.share", "share"),
    ("analysis.predict.share", "share"),
    ("analysis.drop.share", "share"),
    ("daemon.ack_ms_p50", "ms"),
    ("daemon.ack_ms_p99", "ms"),
    ("daemon.proto.ms_p50", "ms"),
    ("daemon.submit.ms_p50", "ms"),
    ("daemon.submit.ms_p99", "ms"),
    ("daemon.journal.append_ms_p50", "ms"),
    ("daemon.journal.append_ms_p99", "ms"),
    ("daemon.queue_wait.ms_p50", "ms"),
    ("daemon.queue_wait.ms_p99", "ms"),
    ("daemon.exec.ms_p50", "ms"),
    ("daemon.exec.ms_p99", "ms"),
    ("daemon.submit.journal_share", "share"),
    ("daemon.exec.journal_share", "share"),
    ("daemon.accepted", "count"),
    ("daemon.dedupe_hits", "count"),
    ("daemon.rejected", "count"),
    ("loadgen.late_ms_p99", "ms"),
    ("loadgen.sent", "count"),
    ("trace.coverage", "share"),
    ("trace.overhead", "ratio"),
];

/// Set-up runs this many times per run; `setup_s` is the median.
const SETUP_REPS: usize = 5;
/// Fresh processes per run whose peak RSS gives `peak_rss_mib`.
const RSS_PROBES: usize = 5;

/// One named value with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

/// What a workload run produced.
#[derive(Debug)]
pub struct Outcome {
    /// Every checked operation.
    pub tally: Tally,
    setup_s: f64,
    /// Median peak RSS of a fresh process running one pass.
    peak_rss_mib: f64,
    /// The workload's work completed per second.
    throughput_per_s: f64,
    named: Vec<Metric>,
    layers: BTreeMap<String, f64>,
    notes: Vec<String>,
    /// Spans to write to the span file.
    pub spans: Vec<trace::Span>,
}

impl Outcome {
    fn new(setup_s: f64) -> Outcome {
        Outcome {
            tally: Tally::default(),
            setup_s,
            peak_rss_mib: 0.0,
            throughput_per_s: 0.0,
            named: Vec::new(),
            layers: BTreeMap::new(),
            notes: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Records an end-to-end metric under the workload's own name
    /// (printed, not part of the JSON result).
    fn named(&mut self, name: &str, value: f64, unit: &'static str) {
        self.named.push(Metric {
            name: name.to_owned(),
            value,
            unit,
        });
    }

    /// Records a per-layer metric; the name must be in [`PER_LAYER`].
    fn layer(&mut self, name: &str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "{name} is not a per-layer metric"
        );
        self.layers.insert(name.to_owned(), value);
    }

    /// A line printed before the result.
    fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Memo hit ratios and evictions per pass between two snapshots.
    fn memo(&mut self, before: &[MemoSnapshot], after: &[MemoSnapshot], passes: usize) {
        for cache in ["resolve", "inflate", "mapping", "shape"] {
            let get = |snaps: &[MemoSnapshot]| {
                snaps
                    .iter()
                    .find(|s| s.name == cache)
                    .map_or((0, 0, 0), |s| (s.hits, s.misses, s.evictions))
            };
            let (h0, m0, e0) = get(before);
            let (h1, m1, e1) = get(after);
            let (hits, misses) = (h1 - h0, m1 - m0);
            let probes = hits + misses;
            let ratio = if probes == 0 {
                0.0
            } else {
                hits as f64 / probes as f64
            };
            self.layer(&format!("memo.{cache}.hit_ratio"), ratio);
            self.layer(
                &format!("memo.{cache}.evictions"),
                (e1 - e0) as f64 / passes.max(1) as f64,
            );
            self.note(format!(
                "memo.{cache}: {hits} hits, {misses} misses, {} evictions over {passes} passes",
                e1 - e0
            ));
        }
    }

    /// Prints the self time of every span name as a share of `wall_ns`.
    fn self_time_table(&mut self, own: &BTreeMap<&'static str, u64>, wall_ns: f64) {
        let mut table = String::from("self time per span (one traced pass or phase):\n");
        let mut rows: Vec<_> = own.iter().collect();
        rows.sort_by(|a, b| b.1.cmp(a.1));
        for (name, ns) in rows {
            let _ = writeln!(
                table,
                "  {name:<28} {:>10.3} ms {:>6.1} %",
                *ns as f64 / 1e6,
                *ns as f64 * 100.0 / wall_ns
            );
        }
        self.notes.push(table.trim_end().to_owned());
    }
}

/// Peak RSS (`VmHWM`) of a fresh process that runs one pass of
/// `workload` at jobs = nproc, as a user's `table5` or `rchlint` process
/// does: the median over [`RSS_PROBES`] child processes of this program.
/// Each child's pass digest must equal `digest`; every child is counted
/// in `tally`. A long-lived process's own peak is no such figure: it
/// depends on how many allocator arenas earlier passes' worker threads
/// left behind, which differs from run to run.
pub fn fresh_process_rss(workload: &str, seed: u64, digest: u64, tally: &mut Tally) -> f64 {
    let mut peaks = Vec::new();
    for _ in 0..RSS_PROBES {
        let seed = seed.to_string();
        let stdout = std::env::current_exe()
            .and_then(|exe| {
                std::process::Command::new(exe)
                    .args(["--workload", workload, "--seed", &seed, "--rss-probe"])
                    .output()
            })
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).into_owned());
        peaks.extend(check_probe(workload, stdout.as_deref(), digest, tally));
    }
    median(&peaks)
}

/// Checks one `--rss-probe` child's output, `None` when the child
/// failed; returns its peak RSS when its digest equals `digest`.
fn check_probe(
    workload: &str,
    stdout: Option<&str>,
    digest: u64,
    tally: &mut Tally,
) -> Option<f64> {
    let answer = stdout.and_then(|line| {
        let mut words = line.split_whitespace();
        let mib = words.next()?.parse::<f64>().ok()?;
        let found = u64::from_str_radix(words.next()?, 16).ok()?;
        Some((mib, found))
    });
    match answer {
        Some((mib, found)) if found == digest => {
            tally.ok();
            Some(mib)
        }
        Some((_, found)) => {
            tally.fail(format!(
                "{workload} pass in a fresh process: digest {found:016x}, want {digest:016x}"
            ));
            None
        }
        None => {
            tally.fail(format!("{workload} pass in a fresh process gave no result"));
            None
        }
    }
}

/// Runs a workload's set-up [`SETUP_REPS`] times and returns the last
/// result with the median set-up time. The first repetition counts from
/// process start; earlier results are dropped before the next begins.
pub fn repeat_setup<T>(started: Instant, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::new();
    let mut from = started;
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        last = Some(setup());
        times.push(from.elapsed().as_secs_f64());
        from = Instant::now();
    }
    (last.expect("at least one set-up"), median(&times))
}

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    rss_probe: bool,
}

const USAGE: &str = "usage: perfbench --workload study|lint --seed N --seconds N --trace 0|1";

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut rss_probe = false;
    while let Some(flag) = args.next() {
        if flag == "--rss-probe" {
            rss_probe = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                if !["study", "lint"].contains(&value.as_str()) {
                    return Err(format!("--workload: unknown workload {value:?}"));
                }
                workload = Some(value.clone());
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => {
                let n = number()?;
                if n == 0 {
                    return Err("--seconds: must be at least 1".to_owned());
                }
                seconds = Some(n);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace: want 0 or 1, got {value:?}")),
                });
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
        rss_probe,
    })
}

/// A JSON number: non-finite values (a ratio over nothing) read 0.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

fn result_line(tally: &Tally, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.correct(),
        tally.attempted.max(1),
        tally.failed,
        body.join(", ")
    )
}

fn main() {
    let started = Instant::now();
    let args = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("error: {e}\n{USAGE}");
        std::process::exit(2);
    });
    if args.rss_probe {
        let digest = match args.workload.as_str() {
            "study" => study::one_pass(args.seed),
            _ => lint::one_pass(args.seed),
        };
        println!("{} {digest:016x}", stats::peak_rss_mib());
        return;
    }
    let seconds = args.seconds as f64;
    let mut out = match args.workload.as_str() {
        "study" => study::run(args.seed, seconds, args.trace, started),
        _ => lint::run(args.seed, seconds, args.trace, started),
    };
    let tally = std::mem::take(&mut out.tally);

    println!(
        "workload={} {}",
        args.workload,
        stats::provenance(args.seed)
    );
    for note in &out.notes {
        println!("{note}");
    }
    let metrics: Vec<Metric> = if args.trace {
        let path = Path::new(".bench_out").join(format!("spans-{}.jsonl", args.workload));
        match trace::write_spans(&path, &out.spans) {
            Ok(n) => println!("spans: {n} written to {}", path.display()),
            Err(e) => eprintln!("warning: span file {}: {e}", path.display()),
        }
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let value = out.layers.get(name).copied();
                match value {
                    Some(v) => println!("{name} = {v:.6} {unit}"),
                    None => println!("{name} = - (layer not called by this workload)"),
                }
                Metric {
                    name: name.to_owned(),
                    value: value.unwrap_or(0.0),
                    unit,
                }
            })
            .collect()
    } else {
        let metrics: Vec<Metric> = END_TO_END
            .iter()
            .zip([out.setup_s, out.peak_rss_mib, out.throughput_per_s])
            .map(|(&(name, unit), value)| Metric {
                name: name.to_owned(),
                value,
                unit,
            })
            .collect();
        for m in out.named.iter().chain(&metrics) {
            println!("{} = {:.6} {}", m.name, m.value, m.unit);
        }
        metrics
    };
    println!(
        "fail_pct = {:.4} % ({} failed of {} attempted)",
        tally.fail_pct(),
        tally.failed,
        tally.attempted
    );
    for f in &tally.failures {
        println!("FAILED: {f}");
    }
    println!("{}", result_line(&tally, &metrics));
    std::process::exit(tally.exit_code());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest() -> String {
        std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root")
    }

    /// Every metric the code reports is declared in BENCHMARK.json with
    /// the same unit, and every declared metric is reported.
    #[test]
    fn benchmark_json_declares_every_metric() {
        let json = manifest();
        for (section, list) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let start = json.find(&format!("\"{section}\"")).expect(section);
            let block = &json[start..];
            let block = &block[..block.find(']').expect("list end")];
            let declared = block.matches("\"name\"").count();
            assert_eq!(declared, list.len(), "{section}: count");
            for (name, unit) in list {
                let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
                assert!(block.contains(&entry), "{section}: missing {entry}");
            }
        }
        for w in ["study", "lint"] {
            assert!(json.contains(&format!("\"name\": \"{w}\"")), "workload {w}");
        }
    }

    #[test]
    fn the_result_line_has_the_four_keys() {
        let mut t = Tally::default();
        t.ok();
        let line = result_line(
            &t,
            &[Metric {
                name: "setup_s".to_owned(),
                value: f64::NAN,
                unit: "s",
            }],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn a_fresh_process_must_give_the_reference_digest() {
        let mut tally = Tally::default();
        let line = Some("15.25 00000000000000ab\n");
        assert_eq!(check_probe("study", line, 0xab, &mut tally), Some(15.25));
        assert_eq!(tally.exit_code(), 0);
        assert_eq!(check_probe("study", line, 0xac, &mut tally), None);
        assert_eq!(check_probe("study", None, 0xab, &mut tally), None);
        assert_eq!(
            (tally.attempted, tally.failed, tally.exit_code()),
            (3, 2, 1)
        );
    }

    #[test]
    fn arguments_are_checked() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(str::to_owned));
        let a = parse("--workload lint --seed 3 --seconds 5 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("lint", 3, 5, true)
        );
        assert!(parse("--workload nope").is_err());
        assert!(parse("--workload daemon").is_err());
        assert!(parse("--workload study --trace 2").is_err());
        assert!(parse("--workload study --seconds 0").is_err());
        assert!(parse("--seed 1").is_err());
        assert!(parse("--workload study --bogus 1").is_err());
        assert!(parse("--workload study --rss-probe").unwrap().rss_probe);
    }
}
