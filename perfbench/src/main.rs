//! The repository benchmark: four workloads over the program's public API,
//! each checked for correct outputs, with a separate traced run that breaks
//! the job time down by layer.
//!
//! ```text
//! cargo run --release --features obs -- \
//!     --workload <atlas-grid|atlas-lowdiam|exact-dp|mc-small> \
//!     --seed <n> --seconds <s> --trace <0|1> [--threads <w>]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. See README.md for the
//! workloads, the metrics and the layer → metric map.

mod atlas;
mod exact_dp;
mod mc_small;
mod report;
mod stats;
mod trace;

use report::{metric, peak_rss_mib, result_line, setup_sample, Checks, Metric};
use stats::{mix_rate, rates_by_kind, Sample, Summary};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;
use trace::{by_name, leaf_share, render, NameStats, Trace};

/// The seed whose atlas reports are pinned by a committed digest.
pub const DEFAULT_SEED: u64 = 1;

/// Timed jobs a run makes at least, whatever `--seconds` says.
pub const MIN_JOBS: usize = 3;

/// Set-up samples per run; each sample averages enough back-to-back set-ups
/// to fill [`SETUP_SAMPLE_S`].
const SETUP_SAMPLES: usize = 11;
const SETUP_SAMPLE_S: f64 = 0.05;

/// The traced run adds no traced job past this many spans, beyond the
/// workload's [`Workload::min_traced_jobs`], so its memory stays bounded
/// (a span takes 40 bytes).
const SPAN_BUDGET: usize = 1_000_000;

/// The end-to-end metrics, printed by every untraced run.
pub const END_TO_END: [(&str, &str); 3] = [
    ("work_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// The per-layer metrics, printed by every traced run (0 where the
/// workload does not exercise the layer).
pub const PER_LAYER: [(&str, &str); 30] = [
    ("graph.build_ms", "ms"),
    ("graph.stats_ms", "ms"),
    ("weak.sample_us_p50", "us"),
    ("weak.sample_us_p99", "us"),
    ("weak.ns_per_slot", "ns"),
    ("weak.slots_per_trial", "count"),
    ("weak.share", "ratio"),
    ("level.frontier_us_p50", "us"),
    ("level.frontier_us_p99", "us"),
    ("level.ns_per_delivered", "ns"),
    ("level.delivered_per_trial", "count"),
    ("level.share", "ratio"),
    ("level.dense_ml_ns", "ns"),
    ("sweep.classify_ns", "ns"),
    ("sweep.cell_skew", "ratio"),
    ("dp.k3_n1000_ms", "ms"),
    ("dp.ring4_n200_ms", "ms"),
    ("dp.ns_per_state", "ns"),
    ("dp.states_visited", "count"),
    ("dp.kernel_misses", "count"),
    ("dp.kernel_patterns", "count"),
    ("dp.kernel_hit_ratio", "ratio"),
    ("dp.collapses", "count"),
    ("strategy.sample_ns", "ns"),
    ("exec.ns_per_trial", "ns"),
    ("sliced.group_ns", "ns"),
    ("sliced.lane_coins_ns", "ns"),
    ("sliced.lane_fill", "ratio"),
    ("trace.overhead", "ratio"),
    ("trace.leaf_share", "ratio"),
];

/// One benchmark workload.
pub trait Workload {
    /// What one unit of `work_per_s` is.
    fn work_unit(&self) -> &'static str;
    /// The workload's set-up calls (graph generation, statistics, sampler
    /// and engine construction), timed for `setup_s`.
    fn setup(&mut self);
    /// Runs before timing starts, to fill caches and record the reference
    /// outputs later jobs must reproduce.
    fn warm_up(&mut self, checks: &mut Checks) {
        self.job(checks);
    }
    /// One untraced job: one sample per timed call into the program.
    /// Output checks run outside the timed calls.
    fn job(&mut self, checks: &mut Checks) -> Vec<Sample>;
    /// The traced replay of [`Workload::job`]: the same calls with spans
    /// around them. Its outputs must equal the untraced ones.
    fn traced_job(&mut self, checks: &mut Checks, epoch: Instant) -> (Vec<Sample>, Trace);
    /// Traced jobs a traced run makes at least: enough for the workload's
    /// percentiles.
    fn min_traced_jobs(&self) -> usize {
        MIN_JOBS
    }
    /// Name of the spans that enclose all of a job's work.
    fn root_span(&self) -> &'static str;
    /// The per-layer metrics this workload measures, from `jobs` traced
    /// jobs.
    fn layers(&self, names: &BTreeMap<&'static str, NameStats>, jobs: usize) -> Vec<Metric>;
    /// Deterministic work counts, printed next to the timings.
    fn counts(&self) -> Vec<String>;
}

/// Parsed command line.
#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    threads: usize,
}

const USAGE: &str = "usage: ca-perfbench --workload <atlas-grid|atlas-lowdiam|exact-dp|mc-small> \
                     --seed <n> --seconds <s> --trace <0|1> [--threads <w>]";

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let mut threads = 2;
        while let Some(flag) = argv.next() {
            let value = argv
                .next()
                .ok_or_else(|| format!("flag {flag} needs a value"))?;
            let num = |v: &str| {
                v.parse::<u64>()
                    .map_err(|_| format!("{flag} needs a whole number, got {v:?}"))
            };
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = Some(num(&value)?),
                "--seconds" => seconds = Some(num(&value)?),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                    })
                }
                "--threads" => threads = num(&value)?.max(1) as usize,
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            threads: threads.min(cores),
        })
    }
}

fn workload(args: &Args) -> Result<Box<dyn Workload>, String> {
    Ok(match args.workload.as_str() {
        "atlas-grid" => Box::new(atlas::AtlasWorkload::new(
            atlas::Atlas::Grid,
            args.seed,
            args.threads,
        )),
        "atlas-lowdiam" => Box::new(atlas::AtlasWorkload::new(
            atlas::Atlas::LowDiam,
            args.seed,
            args.threads,
        )),
        "exact-dp" => Box::new(exact_dp::ExactDpWorkload::new(args.threads)),
        "mc-small" => Box::new(mc_small::McSmallWorkload::new(args.seed, args.threads)),
        other => return Err(format!("unknown workload {other:?}")),
    })
}

fn rate(samples: &[Sample]) -> f64 {
    mix_rate(samples).expect("a run times at least one call that did work")
}

fn print_rates(label: &str, samples: &[Sample], unit: &str) {
    for (kind, summary) in rates_by_kind(samples) {
        println!("{label:<9} {kind:<18} {summary} {unit}/s");
    }
}

/// The untraced run: a warm-up job, then timed jobs for `--seconds`, with
/// [`SETUP_SAMPLES`] set-up samples taken between jobs, spread evenly over
/// the run.
fn untraced(w: &mut dyn Workload, args: &Args, checks: &mut Checks) -> Vec<Metric> {
    w.warm_up(checks);
    let start = Instant::now();
    let (mut samples, mut setup, mut jobs) = (Vec::new(), Vec::new(), 0);
    let seconds = args.seconds as f64;
    while jobs < MIN_JOBS || start.elapsed().as_secs_f64() < seconds {
        samples.extend(w.job(checks));
        jobs += 1;
        let due = SETUP_SAMPLES as f64 * (start.elapsed().as_secs_f64() / seconds).min(1.0);
        while (setup.len() as f64) < due.ceil() {
            setup.push(setup_sample(SETUP_SAMPLE_S, || w.setup()));
        }
    }
    while setup.len() < SETUP_SAMPLES {
        setup.push(setup_sample(SETUP_SAMPLE_S, || w.setup()));
    }
    let setup = Summary::of(&setup).expect("set-up samples");
    let rss = peak_rss_mib().unwrap_or(0.0);
    print_rates("rate", &samples, w.work_unit());
    println!("jobs      {jobs}");
    println!("setup_s   {setup} s");
    println!("peak_rss  {rss:.3} MiB");
    vec![
        metric("work_per_s", rate(&samples), "1/s"),
        metric("setup_s", setup.median, "s"),
        metric("peak_rss_mib", rss, "MiB"),
    ]
}

/// The traced run: untraced and traced jobs alternate for `--seconds` (and
/// untraced jobs fill the time once the span budget is spent); the
/// per-layer metrics come from the traced jobs' spans.
fn traced(w: &mut dyn Workload, args: &Args, checks: &mut Checks) -> Vec<Metric> {
    let epoch = Instant::now();
    w.warm_up(checks);
    let mut trace = Trace::new(epoch);
    let (mut plain, mut traced, mut traced_jobs) = (Vec::new(), Vec::new(), 0);
    let start = Instant::now();
    let running = |start: Instant| start.elapsed().as_secs_f64() < args.seconds as f64;
    while traced_jobs < w.min_traced_jobs() || (running(start) && trace.spans().len() < SPAN_BUDGET)
    {
        plain.extend(w.job(checks));
        let (samples, tr) = w.traced_job(checks, epoch);
        traced.extend(samples);
        traced_jobs += 1;
        trace.absorb(tr);
    }
    while running(start) {
        plain.extend(w.job(checks));
    }
    let names = by_name(trace.spans());
    eprint!("{}", render(&names));
    print_rates("untraced", &plain, w.work_unit());
    print_rates("traced", &traced, w.work_unit());
    let mut values: BTreeMap<&str, f64> = w
        .layers(&names, traced_jobs)
        .into_iter()
        .map(|m| (m.name, m.value))
        .collect();
    values.insert("trace.overhead", rate(&traced) / rate(&plain));
    values.insert("trace.leaf_share", leaf_share(&names, w.root_span()));
    for name in values.keys() {
        assert!(
            PER_LAYER.iter().any(|(n, _)| n == name),
            "{name} is not a per-layer metric"
        );
    }
    PER_LAYER
        .iter()
        .map(|&(name, unit)| metric(name, values.get(name).copied().unwrap_or(0.0), unit))
        .collect()
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut w = match workload(&args) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!(
        "workload {} seed {} threads {} obs {} trace {}",
        args.workload,
        args.seed,
        args.threads,
        cfg!(feature = "obs"),
        args.trace
    );
    let mut checks = Checks::default();
    let metrics = if args.trace {
        traced(w.as_mut(), &args, &mut checks)
    } else {
        untraced(w.as_mut(), &args, &mut checks)
    };
    for line in w.counts() {
        println!("counts       {line}");
    }
    println!(
        "fail_ratio   {} / {} operations",
        checks.failures.len(),
        checks.attempted
    );
    for failure in &checks.failures {
        eprintln!("FAILED {failure}");
    }
    println!("{}", result_line(&checks, &metrics));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_command_line() {
        let a = args("--workload mc-small --seed 7 --seconds 10 --trace 1 --threads 1").unwrap();
        assert_eq!((a.seed, a.seconds, a.trace, a.threads), (7, 10, true, 1));
        assert!(args("--workload mc-small --seed 7 --seconds 10").is_err());
        assert!(args("--workload mc-small --seed x --seconds 10 --trace 0").is_err());
        assert!(args("--workload mc-small --seed 1 --seconds 10 --trace 2").is_err());
        assert!(args("--bogus 1").is_err());
        let a = args("--workload nope --seed 1 --seconds 1 --trace 0").unwrap();
        assert!(workload(&a).is_err());
    }

    #[test]
    fn metric_lists_are_valid_and_match_benchmark_json() {
        let all: Vec<(&str, &str)> = END_TO_END.iter().chain(PER_LAYER.iter()).copied().collect();
        for (i, (name, _)) in all.iter().enumerate() {
            assert!(report::valid_name(name), "{name}");
            assert!(!all[..i].iter().any(|(n, _)| n == name), "{name} twice");
        }
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let json = serde::json::parse(&text).expect("BENCHMARK.json parses");
        for (key, list) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed: Vec<(String, String)> = json
                .get(key)
                .and_then(|v| v.as_array())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| match m.get(f) {
                        Some(serde::json::Value::Str(s)) => s.clone(),
                        other => panic!("{key} entry lacks {f}: {other:?}"),
                    };
                    (field("name"), field("unit"))
                })
                .collect();
            let expected: Vec<(String, String)> = list
                .iter()
                .map(|&(n, u)| (n.to_owned(), u.to_owned()))
                .collect();
            assert_eq!(listed, expected, "{key} in BENCHMARK.json");
        }
    }
}
