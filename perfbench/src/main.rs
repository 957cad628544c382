//! Benchmark runner for the local-mixing-time workspace.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload <oracle-expander|algo2-expander|service-ring> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload builds its inputs from `--seed`, measures for `--seconds`,
//! checks every answer outside the timed region, prints each metric with
//! its unit and sample count, and ends with one JSON line
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` re-drives the layers under spans and
//! reports the per-layer metrics instead (spans go to
//! `.bench_trace/<workload>-seed<n>.json`). The exit code is nonzero on any
//! failed operation or wrong answer.
//!
//! `--make-reference <workload> <first>-<last>` recomputes the stored
//! reference answers (`perfbench/reference.json`) of one workload for a seed
//! range and prints them.

mod algo2;
mod oracle;
mod reference;
mod service;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (1 for a single measurement or a count).
    pub samples: usize,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Self {
        Metric {
            name,
            value,
            unit,
            samples,
        }
    }
}

/// What a workload run reports.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub run_for: Duration,
    pub trace: bool,
}

/// Median of a non-empty sample.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile of a non-empty sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Time `reps` set-ups; returns every duration in seconds and the last
/// set-up's product.
pub fn timed_setups<T>(reps: usize, mut setup: impl FnMut() -> T) -> (Vec<f64>, T) {
    assert!(reps >= 1);
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        drop(last.take());
        let t0 = Instant::now();
        let made = setup();
        times.push(t0.elapsed().as_secs_f64());
        last = Some(made);
    }
    (times, last.expect("reps >= 1"))
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The end-to-end metrics every workload reports, from per-query latencies
/// (seconds), the timed-phase length and the set-up times.
pub fn end_to_end(latencies: &[f64], timed_s: f64, setups: &[f64]) -> Vec<Metric> {
    let n = latencies.len();
    let ms: Vec<f64> = latencies.iter().map(|s| s * 1e3).collect();
    vec![
        Metric::new("setup_s", median(setups), "s", setups.len()),
        Metric::new("query_p50_ms", median(&ms), "ms", n),
        Metric::new("query_p90_ms", quantile(&ms, 0.9), "ms", n),
        Metric::new("throughput_qps", n as f64 / timed_s, "queries/s", n),
        Metric::new("peak_rss_mib", peak_rss_mib(), "MiB", 1),
    ]
}

/// Every per-layer metric, in report order, with its unit. A traced run
/// reports all of them; a layer a workload does not exercise reads 0.
/// Times and counts are per query unless the name says otherwise.
const PER_LAYER: &[(&str, &str)] = &[
    ("graph.build_s", "s"),
    ("graph.mem_bytes", "bytes"),
    ("walks.evolve_s", "s"),
    ("walks.steps", "count"),
    ("walks.dense_steps", "count"),
    ("walks.support_frac", "fraction"),
    ("witness.sort_s", "s"),
    ("witness.scan_s", "s"),
    ("witness.checks", "count"),
    ("algo2.bfs_s", "s"),
    ("algo2.bfs_rounds", "rounds"),
    ("algo2.bfs_messages", "msgs"),
    ("algo2.flood_s", "s"),
    ("algo2.flood_rounds", "rounds"),
    ("algo2.flood_messages", "msgs"),
    ("algo2.binsearch_s", "s"),
    ("algo2.binsearch_rounds", "rounds"),
    ("algo2.binsearch_messages", "msgs"),
    ("algo2.iterations", "count"),
    ("algo2.binsearch_calls", "count"),
    ("algo2.rounds", "rounds"),
    ("algo2.messages", "msgs"),
    ("service.hit_ratio", "fraction"),
    ("service.evolutions", "count"),
    ("service.resumes", "count"),
    ("service.engine_steps", "count"),
    ("service.retain_ratio", "fraction"),
    ("service.cache_bytes", "bytes"),
    ("service.submit_s", "s"),
    ("service.churn_s", "s"),
    ("service.churn_p50_ms", "ms"),
    ("trace.overhead_frac", "fraction"),
];

/// The full per-layer metric list from the values a workload measured.
pub fn per_layer(values: &BTreeMap<&'static str, f64>) -> Vec<Metric> {
    for name in values.keys() {
        assert!(
            PER_LAYER.iter().any(|(n, _)| n == name),
            "per-layer metric {name} is not in PER_LAYER"
        );
    }
    PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric::new(name, values.get(name).copied().unwrap_or(0.0), unit, 1))
        .collect()
}

/// Write the traced run's spans to `.bench_trace/<workload>-seed<n>.json`.
pub fn write_trace(args: &Args, spans: &[trace::Span]) {
    let path = std::path::PathBuf::from(".bench_trace")
        .join(format!("{}-seed{}.json", args.workload, args.seed));
    match trace::write_report(&path, spans) {
        Ok(()) => println!("trace spans={} file={}", spans.len(), path.display()),
        Err(e) => eprintln!("perfbench: writing {}: {e}", path.display()),
    }
}

/// Keep freed heap memory in the process instead of handing it back to the
/// kernel. On a 2-vCPU Xeon VM, re-faulting returned
/// pages cost Algorithm 2 about a third of its time and made identical runs
/// differ by ±20%; with this, by ±7%. Allocation work is still measured.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn keep_freed_memory() {
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_THRESHOLD: i32 = -3;
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    // SAFETY: glibc's `mallopt` takes two plain ints and is called before
    // any other thread exists; 32 MiB is glibc's largest mmap threshold.
    unsafe {
        mallopt(M_TRIM_THRESHOLD, i32::MAX);
        mallopt(M_MMAP_THRESHOLD, 32 << 20);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn keep_freed_memory() {}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must lie in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        run_for: Duration::from_secs_f64(seconds.ok_or("missing --seconds")?),
        trace: trace.unwrap_or(false),
    })
}

fn json_line(correct: bool, out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let mut raw = std::env::args().skip(1);
    if raw.next().as_deref() == Some("--make-reference") {
        let made = match (raw.next(), raw.next()) {
            (Some(workload), Some(range)) => reference::make(&workload, &range),
            _ => Err("--make-reference needs a workload and a seed range".to_string()),
        };
        return match made {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };

    keep_freed_memory();
    // Pin the pool width to the machine's parallelism and record both.
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    std::env::set_var("LMT_THREADS", nproc.to_string());
    let fp = lmt_bench::fingerprint::Fingerprint::capture();
    println!(
        "env nproc={nproc} LMT_THREADS={} git_sha={} total_mem_bytes={} {}",
        std::env::var("LMT_THREADS").unwrap_or_default(),
        fp.git_sha,
        fp.total_mem_bytes.map_or("-".into(), |b| b.to_string()),
        fp.comparability()
    );
    println!(
        "run workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.run_for.as_secs_f64(),
        u8::from(args.trace)
    );

    let out = match args.workload.as_str() {
        "oracle-expander" => oracle::run(&args),
        "algo2-expander" => algo2::run(&args),
        "service-ring" => service::run(&args),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };

    for m in &out.metrics {
        println!(
            "metric {} = {} {} (samples={})",
            m.name, m.value, m.unit, m.samples
        );
    }
    let error_rate = out.failed as f64 / out.attempted.max(1) as f64;
    println!(
        "check attempted={} failed={} error_rate={error_rate}",
        out.attempted, out.failed
    );
    let correct = out.failed == 0 && out.attempted > 0;
    println!("{}", json_line(correct, &out));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
