//! Compare two `BENCH_<tag>.json` records and gate on regressions.
//!
//! Usage: `bench_diff <baseline.json> <new.json> [--threshold <ratio>]
//! [--tau-only]`
//!
//! Exit codes: **0** — no regression; **1** — regression (any τ-value
//! change, a lost cell, a newly failing suite binary, or — unless
//! `--tau-only` — a median slowdown beyond `--threshold`, default 1.5×);
//! **2** — usage or parse errors. `--tau-only` is the CI mode: the 1-CPU
//! container's wall clocks are not comparable across hosts, but τ values
//! are exact everywhere.

use lmt_bench::diff::{diff, DiffOptions};
use lmt_bench::record::BenchRecord;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!("usage: bench_diff <baseline.json> <new.json> [--threshold <ratio>] [--tau-only]");
    ExitCode::from(2)
}

fn load(path: &str) -> Result<BenchRecord, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    BenchRecord::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut paths: Vec<&str> = Vec::new();
    let mut opts = DiffOptions::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--tau-only" => opts.tau_only = true,
            "--threshold" => match it.next().and_then(|t| t.parse::<f64>().ok()) {
                Some(t) if t > 1.0 => opts.threshold = t,
                _ => {
                    eprintln!("bench_diff: --threshold needs a ratio > 1");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => return usage(),
            _ => paths.push(arg),
        }
    }
    let [old_path, new_path] = paths.as_slice() else {
        return usage();
    };

    let (old, new) = match (load(old_path), load(new_path)) {
        (Ok(o), Ok(n)) => (o, n),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("bench_diff: {e}");
            return ExitCode::from(2);
        }
    };

    let report = match diff(&old, &new, &opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("bench_diff: {e}");
            return ExitCode::from(2);
        }
    };
    print!("{}", report.render());
    if report.regressed() {
        println!(
            "REGRESSION: {} tau change(s), {} lost cell(s), {} broken bin(s), {} slowdown(s)",
            report.tau_changes.len(),
            report.missing_cells.len(),
            report.broken_bins.len(),
            report.regressions.len()
        );
        ExitCode::from(1)
    } else {
        println!(
            "ok: {} matched cell(s), no regression",
            old.cells
                .iter()
                .filter(|c| new.cells.iter().any(|n| n.scenario == c.scenario))
                .count()
        );
        ExitCode::SUCCESS
    }
}
