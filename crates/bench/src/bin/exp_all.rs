//! Run the full experiment suite (T1–T13 + F1 + churn) in order,
//! printing each table — this is what `EXPERIMENTS.md` records.
//!
//! Usage: `cargo build --release -p lmt-bench --bins`, then
//! `target/release/exp_all`. The build step is required: `cargo run --bin
//! exp_all` builds only this binary, so every sibling would fail to launch.
//!
//! Every sibling runs even when one fails: per-binary pass/fail and
//! duration go into `BENCH_exp_all.json` (written to `$LMT_BENCH_DIR` or
//! the current directory), and the exit code is nonzero at the *end* if
//! anything failed. The old behavior — abort on the first failing sibling
//! with no record of what ran — is exactly what a long suite must not do.

use lmt_bench::record::{bench_dir, BenchRecord, BinResult};
use std::process::{Command, ExitCode};
use std::time::Instant;

fn main() -> ExitCode {
    // Binary names as Cargo produces them ([[bin]] names use underscores).
    let bins = [
        "exp_t1_graph_classes",
        "exp_f1_barbell_gap",
        "exp_t2_approx_quality",
        "exp_t3_approx_rounds",
        "exp_t4_exact",
        "exp_t5_partial_spreading",
        "exp_t6_congest_gossip",
        "exp_t7_rounding_error",
        "exp_t8_baselines",
        "exp_t9_monotonicity",
        "exp_t10_weak_conductance",
        "exp_t11_assumption",
        "exp_t12_source_sensitivity",
        "exp_t13_upcast_ablation",
        "exp_churn",
    ];
    // Invoke sibling binaries from the same target directory.
    let me = std::env::current_exe().expect("own path");
    let dir = me.parent().expect("target dir").to_path_buf();

    let mut record = BenchRecord::new("exp_all");
    for bin in bins {
        println!("\n===== {bin} =====");
        let t0 = Instant::now();
        let ok = match Command::new(dir.join(bin)).status() {
            Ok(status) => {
                if !status.success() {
                    eprintln!("{bin} exited with {status}");
                }
                status.success()
            }
            Err(e) => {
                eprintln!("failed to launch {bin}: {e}");
                false
            }
        };
        record.bins.push(BinResult {
            bin: bin.to_string(),
            ok,
            seconds: t0.elapsed().as_secs_f64(),
        });
    }

    let failed: Vec<&str> = record
        .bins
        .iter()
        .filter(|b| !b.ok)
        .map(|b| b.bin.as_str())
        .collect();
    println!("\n===== summary =====");
    for b in &record.bins {
        println!(
            "{:5} {:>8.1}s  {}",
            if b.ok { "ok" } else { "FAIL" },
            b.seconds,
            b.bin
        );
    }
    match record.write_to(&bench_dir()) {
        Ok(path) => println!("record: {}", path.display()),
        Err(e) => eprintln!("exp_all: cannot write record: {e}"),
    }
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "exp_all: {} binaries failed: {}",
            failed.len(),
            failed.join(", ")
        );
        ExitCode::from(1)
    }
}
