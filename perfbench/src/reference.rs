//! Reference answers stored with the benchmark (`perfbench/reference.json`),
//! per seed, for the first queries of the oracle and Algorithm 2 workloads.
//!
//! Layout: `{"<workload>": {"<seed>": [row, ...]}}` with one row per query
//! in source order — oracle rows `[source, tau, witness_size, l1]`,
//! Algorithm 2 rows `[source, ell, accepted_size, accepted_sum, rounds,
//! messages, bits, max_edge_bits, dropped_messages, crashed_nodes]`.
//! Regenerate with `--make-reference <workload> <first>-<last>`, which
//! prints the `{"<seed>": [...]}` object for that workload.

use lmt_bench::json::Json;
use lmt_congest::Metrics;
use lmt_core::approx::local_mixing_time_approx;
use lmt_walks::local::local_mixing_time;

use crate::{algo2, oracle};

const TEXT: &str = include_str!("../reference.json");
/// Queries per seed the reference covers.
const SOURCES: usize = 3;

pub struct OracleRef {
    pub source: usize,
    pub tau: usize,
    pub size: usize,
    pub l1: f64,
}

pub struct Algo2Ref {
    pub source: usize,
    pub ell: u64,
    pub accepted_size: usize,
    pub accepted_sum: f64,
    pub metrics: Metrics,
}

/// The stored rows of `workload` for `seed` (empty when the seed has none).
fn rows(workload: &str, seed: u64) -> Vec<Vec<f64>> {
    let doc = Json::parse(TEXT).expect("reference.json is valid JSON");
    let Some(Json::Arr(rows)) = doc.get(workload).and_then(|w| w.get(&seed.to_string())) else {
        return Vec::new();
    };
    rows.iter()
        .map(|row| {
            row.as_arr()
                .expect("reference row is an array")
                .iter()
                .map(|x| x.as_f64().expect("reference entries are numbers"))
                .collect()
        })
        .collect()
}

pub fn oracle(seed: u64) -> Vec<OracleRef> {
    rows("oracle-expander", seed)
        .into_iter()
        .map(|r| OracleRef {
            source: r[0] as usize,
            tau: r[1] as usize,
            size: r[2] as usize,
            l1: r[3],
        })
        .collect()
}

pub fn algo2(seed: u64) -> Vec<Algo2Ref> {
    rows("algo2-expander", seed)
        .into_iter()
        .map(|r| Algo2Ref {
            source: r[0] as usize,
            ell: r[1] as u64,
            accepted_size: r[2] as usize,
            accepted_sum: r[3],
            metrics: Metrics {
                rounds: r[4] as u64,
                messages: r[5] as u64,
                bits: r[6] as u64,
                max_edge_bits: r[7] as u32,
                dropped_messages: r[8] as u64,
                crashed_nodes: r[9] as u64,
            },
        })
        .collect()
}

/// Compute and print the reference rows of `workload` for the seeds in
/// `first-last`.
pub fn make(workload: &str, range: &str) -> Result<(), String> {
    let (a, b) = range
        .split_once('-')
        .ok_or_else(|| format!("seed range must read <first>-<last>, got {range}"))?;
    let first: u64 = a.parse().map_err(|e| format!("seed range: {e}"))?;
    let last: u64 = b.parse().map_err(|e| format!("seed range: {e}"))?;
    let mut out = Vec::new();
    for seed in first..=last {
        let rows: Vec<String> = match workload {
            "oracle-expander" => {
                let g = oracle::build(seed);
                (0..SOURCES)
                    .map(|k| {
                        let src = oracle::source(seed, k);
                        let r = local_mixing_time(&g, src, &oracle::opts())
                            .map_err(|e| format!("seed {seed} source {src}: {e}"))?;
                        Ok(format!(
                            "[{src}, {}, {}, {}]",
                            r.tau, r.witness.size, r.witness.l1
                        ))
                    })
                    .collect::<Result<_, String>>()?
            }
            "algo2-expander" => {
                let g = algo2::build(seed);
                (0..SOURCES)
                    .map(|k| {
                        let src = algo2::source(seed, k);
                        let r = local_mixing_time_approx(&g, src, &algo2::config())
                            .map_err(|e| format!("seed {seed} source {src}: {e}"))?;
                        let m = r.metrics;
                        Ok(format!(
                            "[{src}, {}, {}, {}, {}, {}, {}, {}, {}, {}]",
                            r.ell,
                            r.accepted_size,
                            r.accepted_sum,
                            m.rounds,
                            m.messages,
                            m.bits,
                            m.max_edge_bits,
                            m.dropped_messages,
                            m.crashed_nodes
                        ))
                    })
                    .collect::<Result<_, String>>()?
            }
            other => return Err(format!("no stored reference for workload {other}")),
        };
        eprintln!("reference {workload} seed {seed} done");
        out.push(format!(
            "  \"{seed}\": [\n    {}\n  ]",
            rows.join(",\n    ")
        ));
    }
    println!("{{\n{}\n}}", out.join(",\n"));
    Ok(())
}
