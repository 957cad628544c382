//! Run a declarative scenario sweep and emit its `BENCH_<tag>.json`
//! record.
//!
//! Usage: `bench_sweep <spec.json> [--out <dir>]`
//!
//! The spec format and record schema are documented in EXPERIMENTS.md;
//! committed specs live under `specs/`. Without `--out`, the record goes
//! to `$LMT_BENCH_DIR` (or the current directory). Exit codes: 0 on
//! success, 2 on usage/spec/IO errors.

use lmt_bench::record::bench_dir;
use lmt_bench::spec::SweepSpec;
use lmt_bench::sweep::{render_table, run_sweep};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!("usage: bench_sweep <spec.json> [--out <dir>]");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut spec_path: Option<PathBuf> = None;
    let mut out_dir: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => match it.next() {
                Some(dir) => out_dir = Some(PathBuf::from(dir)),
                None => return usage(),
            },
            "--help" | "-h" => return usage(),
            _ if spec_path.is_none() => spec_path = Some(PathBuf::from(arg)),
            _ => return usage(),
        }
    }
    let Some(spec_path) = spec_path else {
        return usage();
    };

    let text = match std::fs::read_to_string(&spec_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("bench_sweep: cannot read {}: {e}", spec_path.display());
            return ExitCode::from(2);
        }
    };
    let spec = match SweepSpec::parse(&text) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("bench_sweep: {}: {e}", spec_path.display());
            return ExitCode::from(2);
        }
    };

    eprintln!(
        "bench_sweep: {} — {} cells, {} reps each",
        spec.tag,
        spec.cell_count(),
        spec.reps
    );
    let record = run_sweep(&spec);
    print!("{}", render_table(&record));

    let dir = out_dir.unwrap_or_else(bench_dir);
    match record.write_to(&dir) {
        Ok(path) => {
            println!("record: {}", path.display());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!(
                "bench_sweep: cannot write record into {}: {e}",
                dir.display()
            );
            ExitCode::from(2)
        }
    }
}
