//! The `BENCH_<tag>.json` record: what one harness run measured, where.
//!
//! One record per run, one file per record, named `BENCH_<tag>.json`. The
//! record carries the environment [`Fingerprint`], one [`Cell`] per
//! measured scenario cell (τ value **and** timing, so correctness
//! regressions are caught alongside perf ones), and — for suite runs like
//! `exp_all` — one [`BinResult`] per child binary. EXPERIMENTS.md
//! documents the schema; [`crate::diff`] consumes pairs of records.

use std::path::{Path, PathBuf};

use crate::fingerprint::Fingerprint;
use crate::json::Json;
use crate::timing::TimingSummary;

/// Bumped on any backwards-incompatible schema change; `bench_diff`
/// refuses to compare records across versions.
pub const SCHEMA_VERSION: u64 = 1;

/// One measured cell of the sweep space.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// Unique, stable key within the record — what `bench_diff` matches
    /// cells by across runs.
    pub scenario: String,
    /// Graph description, e.g. `clique-ring(beta=4,k=8)`.
    pub graph: String,
    /// Weighting label, e.g. `unit` or `uniform(2)`.
    pub weighting: String,
    /// Locality parameter β.
    pub beta: f64,
    /// Accuracy parameter ε.
    pub eps: f64,
    /// Which measurement ran: `engine`, `dense`, `elect` or `spread`.
    pub engine: String,
    /// Fault-plan label (`"none"` when fault-free). Records written before
    /// the fault dimension existed omit the key; it reads back as
    /// `"none"`, which is exactly what those runs were.
    pub fault: String,
    /// Churn-schedule label (`"none"` when the topology is static).
    /// Records written before the churn dimension existed omit the key;
    /// it reads back as `"none"`, which is exactly what those runs were.
    pub churn: String,
    /// Pool width (`LMT_THREADS`) the cell ran at.
    pub threads: usize,
    /// Measured `τ_s(β,ε)`; `None` (JSON `null`) when no witness appeared
    /// within the step cap.
    pub tau: Option<u64>,
    /// Heap footprint of the cell's graph substrate in bytes
    /// ([`lmt_graph::Graph::memory_bytes`]) — memory joins wall-clock in
    /// the perf trajectory. Records written before memory accounting omit
    /// the key; it reads back as `None`.
    pub mem_bytes: Option<u64>,
    /// Wall-clock summary; `None` for cells recorded without timing.
    pub timing: Option<TimingSummary>,
}

/// Pass/fail + duration of one child binary in a suite run (`exp_all`).
#[derive(Debug, Clone, PartialEq)]
pub struct BinResult {
    /// Binary name as Cargo produces it, e.g. `exp_t1_graph_classes`.
    pub bin: String,
    /// Whether it exited successfully.
    pub ok: bool,
    /// Wall-clock duration, seconds.
    pub seconds: f64,
}

/// A complete harness run.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Schema version ([`SCHEMA_VERSION`] at write time).
    pub schema_version: u64,
    /// Run tag; the record's file name is `BENCH_<tag>.json`.
    pub tag: String,
    /// Environment the run was measured in.
    pub fingerprint: Fingerprint,
    /// Measured scenario cells (may be empty for pure suite runs).
    pub cells: Vec<Cell>,
    /// Child-binary results (empty for sweep runs).
    pub bins: Vec<BinResult>,
}

fn timing_to_json(t: &TimingSummary) -> Json {
    Json::obj([
        ("reps", Json::from(t.reps)),
        ("skipped", Json::from(t.skipped)),
        ("median_ms", Json::from(t.median_ms)),
        ("min_ms", Json::from(t.min_ms)),
        ("max_ms", Json::from(t.max_ms)),
    ])
}

fn timing_from_json(v: &Json) -> Result<TimingSummary, String> {
    let num = |k: &str| {
        v.get(k)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("timing: missing/mistyped {k:?}"))
    };
    Ok(TimingSummary {
        reps: num("reps")? as usize,
        skipped: num("skipped")? as usize,
        median_ms: num("median_ms")?,
        min_ms: num("min_ms")?,
        max_ms: num("max_ms")?,
    })
}

impl Cell {
    /// Serialize one cell.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("scenario", Json::from(self.scenario.as_str())),
            ("graph", Json::from(self.graph.as_str())),
            ("weighting", Json::from(self.weighting.as_str())),
            ("beta", Json::from(self.beta)),
            ("eps", Json::from(self.eps)),
            ("engine", Json::from(self.engine.as_str())),
            ("fault", Json::from(self.fault.as_str())),
            ("churn", Json::from(self.churn.as_str())),
            ("threads", Json::from(self.threads)),
            ("tau", Json::from(self.tau)),
            ("mem_bytes", Json::from(self.mem_bytes)),
            (
                "timing",
                self.timing.as_ref().map_or(Json::Null, timing_to_json),
            ),
        ])
    }

    /// Deserialize one cell; `Err` names the offending field.
    pub fn from_json(v: &Json) -> Result<Cell, String> {
        let str_field = |k: &str| {
            v.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("cell: missing/mistyped {k:?}"))
        };
        let num_field = |k: &str| {
            v.get(k)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("cell: missing/mistyped {k:?}"))
        };
        Ok(Cell {
            scenario: str_field("scenario")?,
            graph: str_field("graph")?,
            weighting: str_field("weighting")?,
            beta: num_field("beta")?,
            eps: num_field("eps")?,
            engine: str_field("engine")?,
            fault: v
                .get("fault")
                .map(|f| {
                    f.as_str()
                        .map(str::to_string)
                        .ok_or("cell: mistyped \"fault\" (string)".to_string())
                })
                .unwrap_or_else(|| Ok("none".into()))?,
            churn: v
                .get("churn")
                .map(|c| {
                    c.as_str()
                        .map(str::to_string)
                        .ok_or("cell: mistyped \"churn\" (string)".to_string())
                })
                .unwrap_or_else(|| Ok("none".into()))?,
            threads: v
                .get("threads")
                .and_then(Json::as_usize)
                .ok_or("cell: missing/mistyped \"threads\"")?,
            tau: match v.get("tau") {
                None => return Err("cell: missing \"tau\"".into()),
                Some(Json::Null) => None,
                Some(t) => Some(
                    t.as_u64()
                        .ok_or("cell: \"tau\" must be an integer or null")?,
                ),
            },
            // Lenient like "fault": pre-memory-accounting records (the
            // committed goldens among them) omit the key entirely.
            mem_bytes: match v.get("mem_bytes") {
                None | Some(Json::Null) => None,
                Some(m) => Some(
                    m.as_u64()
                        .ok_or("cell: \"mem_bytes\" must be an integer or null")?,
                ),
            },
            timing: match v.get("timing") {
                None | Some(Json::Null) => None,
                Some(t) => Some(timing_from_json(t)?),
            },
        })
    }
}

impl BinResult {
    fn to_json(&self) -> Json {
        Json::obj([
            ("bin", Json::from(self.bin.as_str())),
            ("ok", Json::from(self.ok)),
            ("seconds", Json::from(self.seconds)),
        ])
    }

    fn from_json(v: &Json) -> Result<BinResult, String> {
        Ok(BinResult {
            bin: v
                .get("bin")
                .and_then(Json::as_str)
                .ok_or("bin result: missing/mistyped \"bin\"")?
                .to_string(),
            ok: v
                .get("ok")
                .and_then(Json::as_bool)
                .ok_or("bin result: missing/mistyped \"ok\"")?,
            seconds: v
                .get("seconds")
                .and_then(Json::as_f64)
                .ok_or("bin result: missing/mistyped \"seconds\"")?,
        })
    }
}

impl BenchRecord {
    /// A fresh record for `tag` in the current environment.
    pub fn new(tag: impl Into<String>) -> BenchRecord {
        BenchRecord {
            schema_version: SCHEMA_VERSION,
            tag: tag.into(),
            fingerprint: Fingerprint::capture(),
            cells: Vec::new(),
            bins: Vec::new(),
        }
    }

    /// Serialize the whole record.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema_version", Json::from(self.schema_version)),
            ("tag", Json::from(self.tag.as_str())),
            ("fingerprint", self.fingerprint.to_json()),
            (
                "cells",
                Json::Arr(self.cells.iter().map(Cell::to_json).collect()),
            ),
            (
                "bins",
                Json::Arr(self.bins.iter().map(BinResult::to_json).collect()),
            ),
        ])
    }

    /// Parse a record from JSON text (e.g. a `BENCH_*.json` file's
    /// contents).
    pub fn parse(text: &str) -> Result<BenchRecord, String> {
        let v = Json::parse(text).map_err(|e| e.to_string())?;
        let schema_version = v
            .get("schema_version")
            .and_then(Json::as_u64)
            .ok_or("record: missing/mistyped \"schema_version\"")?;
        if schema_version != SCHEMA_VERSION {
            return Err(format!(
                "record: schema version {schema_version} unsupported (this build reads {SCHEMA_VERSION})"
            ));
        }
        Ok(BenchRecord {
            schema_version,
            tag: v
                .get("tag")
                .and_then(Json::as_str)
                .ok_or("record: missing/mistyped \"tag\"")?
                .to_string(),
            fingerprint: Fingerprint::from_json(
                v.get("fingerprint")
                    .ok_or("record: missing \"fingerprint\"")?,
            )?,
            cells: v
                .get("cells")
                .and_then(Json::as_arr)
                .ok_or("record: missing/mistyped \"cells\"")?
                .iter()
                .map(Cell::from_json)
                .collect::<Result<_, _>>()?,
            bins: v
                .get("bins")
                .and_then(Json::as_arr)
                .ok_or("record: missing/mistyped \"bins\"")?
                .iter()
                .map(BinResult::from_json)
                .collect::<Result<_, _>>()?,
        })
    }

    /// The record's canonical file name, `BENCH_<tag>.json`.
    pub fn file_name(&self) -> String {
        format!("BENCH_{}.json", self.tag)
    }

    /// Write the record into `dir` under its canonical name and return the
    /// path.
    pub fn write_to(&self, dir: &Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(self.file_name());
        std::fs::write(&path, self.to_json().render())?;
        Ok(path)
    }
}

/// Default output directory for records: `$LMT_BENCH_DIR` if set, else the
/// current directory.
pub fn bench_dir() -> PathBuf {
    std::env::var_os("LMT_BENCH_DIR").map_or_else(|| PathBuf::from("."), PathBuf::from)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BenchRecord {
        BenchRecord {
            schema_version: SCHEMA_VERSION,
            tag: "unit".into(),
            fingerprint: Fingerprint {
                git_sha: "deadbeef".into(),
                rustc: "rustc 1.80.0".into(),
                cpus: 1,
                lmt_threads: None,
                timestamp_unix: 1_754_000_000,
                os: "linux/x86_64".into(),
                total_mem_bytes: Some(8 << 30),
            },
            cells: vec![
                Cell {
                    scenario: "g=complete(n=16)|w=unit|beta=4|eps=0.046|engine=engine|threads=1"
                        .into(),
                    graph: "complete(n=16)".into(),
                    weighting: "unit".into(),
                    beta: 4.0,
                    eps: 0.046,
                    engine: "engine".into(),
                    fault: "none".into(),
                    churn: "none".into(),
                    threads: 1,
                    tau: Some(1),
                    mem_bytes: Some(548),
                    timing: Some(TimingSummary {
                        reps: 3,
                        skipped: 0,
                        median_ms: 0.5,
                        min_ms: 0.4,
                        max_ms: 0.9,
                    }),
                },
                Cell {
                    scenario: "unreached".into(),
                    graph: "path(n=8)".into(),
                    weighting: "unit".into(),
                    beta: 2.0,
                    eps: 0.01,
                    engine: "dense".into(),
                    fault: "drop(p=0.2,seed=7)".into(),
                    churn: "swap(batches=3,seed=23)".into(),
                    threads: 2,
                    tau: None,
                    mem_bytes: None,
                    timing: None,
                },
            ],
            bins: vec![BinResult {
                bin: "exp_t1_graph_classes".into(),
                ok: true,
                seconds: 12.5,
            }],
        }
    }

    #[test]
    fn serialize_parse_round_trip() {
        let r = sample();
        let text = r.to_json().render();
        assert_eq!(BenchRecord::parse(&text).unwrap(), r);
    }

    #[test]
    fn absent_tau_is_null() {
        let text = sample().to_json().render();
        assert!(text.contains("\"tau\": null"));
    }

    #[test]
    fn missing_fault_field_reads_as_none() {
        // Pre-fault-dimension records (the committed golden BENCH_tiny.json
        // among them) have no "fault" key; they must keep parsing.
        let text = sample().to_json().render();
        let stripped = text
            .lines()
            .filter(|l| !l.contains("\"fault\""))
            .collect::<Vec<_>>()
            .join("\n");
        assert_ne!(text, stripped, "sample must serialize the field");
        let r = BenchRecord::parse(&stripped).unwrap();
        assert!(r.cells.iter().all(|c| c.fault == "none"));
    }

    #[test]
    fn missing_churn_field_reads_as_none() {
        // Pre-churn-dimension records (every committed golden) have no
        // "churn" key; they must keep parsing, as static-topology cells.
        let text = sample().to_json().render();
        let stripped = text
            .lines()
            .filter(|l| !l.contains("\"churn\""))
            .collect::<Vec<_>>()
            .join("\n");
        assert_ne!(text, stripped, "sample must serialize the field");
        let r = BenchRecord::parse(&stripped).unwrap();
        assert!(r.cells.iter().all(|c| c.churn == "none"));
    }

    #[test]
    fn missing_mem_bytes_reads_as_none() {
        // Pre-memory-accounting records (the committed goldens) have no
        // "mem_bytes" key; they must keep parsing, as `None`.
        let text = sample().to_json().render();
        let stripped = text
            .lines()
            .filter(|l| !l.contains("\"mem_bytes\"") && !l.contains("\"total_mem_bytes\""))
            .collect::<Vec<_>>()
            .join("\n");
        assert_ne!(text, stripped, "sample must serialize the fields");
        let r = BenchRecord::parse(&stripped).unwrap();
        assert!(r.cells.iter().all(|c| c.mem_bytes.is_none()));
        assert_eq!(r.fingerprint.total_mem_bytes, None);
    }

    #[test]
    fn rejects_unknown_schema_version() {
        let mut r = sample();
        r.schema_version = SCHEMA_VERSION + 1;
        let e = BenchRecord::parse(&r.to_json().render()).unwrap_err();
        assert!(e.contains("schema version"), "got {e}");
    }

    #[test]
    fn parse_names_broken_field() {
        let text = sample().to_json().render().replace("\"beta\"", "\"bEta\"");
        let e = BenchRecord::parse(&text).unwrap_err();
        assert!(e.contains("beta"), "got {e}");
    }

    #[test]
    fn write_to_uses_canonical_name() {
        let dir = std::env::temp_dir().join(format!("lmt_bench_record_{}", std::process::id()));
        let path = sample().write_to(&dir).unwrap();
        assert!(path.ends_with("BENCH_unit.json"));
        let read_back = BenchRecord::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(read_back, sample());
        std::fs::remove_dir_all(&dir).ok();
    }
}
