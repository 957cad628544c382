//! Trend diff between two `BENCH_<tag>.json` records.
//!
//! This is what turns the committed records into a gate: `bench_diff`
//! (the binary wrapper around [`diff`]) exits nonzero when the new record
//! shows
//!
//! * **any τ-value change** on a matched scenario cell — τ is exact ground
//!   truth, so any drift is a correctness regression, never noise;
//! * a **wall-clock regression** beyond the configured threshold ratio
//!   (skipped entirely in [`DiffOptions::tau_only`] mode — the right mode
//!   for CI on the 1-CPU container, where timings are not comparable);
//! * a **lost cell** (present in the baseline, missing now) — silent
//!   coverage shrink must not pass;
//! * a **failed suite binary** that passed in the baseline.
//!
//! Fingerprint differences (CPU count, rustc, pool width) are reported as
//! warnings, not failures: they are the reader's cue that the wall-clock
//! columns were measured on different floors.

use crate::record::{BenchRecord, Cell};

/// Knobs for a diff run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiffOptions {
    /// Wall-clock regression threshold as a ratio (new/old); `1.5` flags
    /// cells that got ≥ 50% slower.
    pub threshold: f64,
    /// Compare τ values and coverage only; ignore all wall-clock columns.
    pub tau_only: bool,
}

impl Default for DiffOptions {
    fn default() -> Self {
        DiffOptions {
            threshold: 1.5,
            tau_only: false,
        }
    }
}

/// A τ drift on a matched cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TauChange {
    /// Scenario key of the cell.
    pub scenario: String,
    /// Baseline τ.
    pub old: Option<u64>,
    /// New τ.
    pub new: Option<u64>,
}

/// A wall-clock change beyond threshold on a matched cell.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingChange {
    /// Scenario key of the cell.
    pub scenario: String,
    /// Baseline median, ms.
    pub old_ms: f64,
    /// New median, ms.
    pub new_ms: f64,
    /// `new_ms / old_ms`.
    pub ratio: f64,
}

/// Everything a diff run found.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DiffReport {
    /// τ drifts (always regressions).
    pub tau_changes: Vec<TauChange>,
    /// Cells slower than threshold (regressions unless `tau_only`).
    pub regressions: Vec<TimingChange>,
    /// Cells faster than the inverse threshold (informational).
    pub improvements: Vec<TimingChange>,
    /// Scenario keys in the baseline but not the new record (regressions).
    pub missing_cells: Vec<String>,
    /// Scenario keys only in the new record (informational).
    pub added_cells: Vec<String>,
    /// Suite binaries that passed in the baseline but failed now, or are
    /// newly failing (regressions).
    pub broken_bins: Vec<String>,
    /// Environment / comparability warnings (informational).
    pub warnings: Vec<String>,
}

impl DiffReport {
    /// Whether the diff should gate (nonzero exit): any τ drift, lost
    /// cell, broken binary, or above-threshold slowdown.
    pub fn regressed(&self) -> bool {
        !self.tau_changes.is_empty()
            || !self.regressions.is_empty()
            || !self.missing_cells.is_empty()
            || !self.broken_bins.is_empty()
    }

    /// Human-readable report (one line per finding).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for w in &self.warnings {
            out.push_str(&format!("warning: {w}\n"));
        }
        for t in &self.tau_changes {
            out.push_str(&format!(
                "TAU CHANGE  {}: {} -> {}\n",
                t.scenario,
                crate::fmt_opt(t.old),
                crate::fmt_opt(t.new)
            ));
        }
        for m in &self.missing_cells {
            out.push_str(&format!("LOST CELL   {m}\n"));
        }
        for b in &self.broken_bins {
            out.push_str(&format!("BROKEN BIN  {b}\n"));
        }
        for r in &self.regressions {
            out.push_str(&format!(
                "SLOWER      {}: {:.3} ms -> {:.3} ms ({:.2}x)\n",
                r.scenario, r.old_ms, r.new_ms, r.ratio
            ));
        }
        for i in &self.improvements {
            out.push_str(&format!(
                "faster      {}: {:.3} ms -> {:.3} ms ({:.2}x)\n",
                i.scenario, i.old_ms, i.new_ms, i.ratio
            ));
        }
        for a in &self.added_cells {
            out.push_str(&format!("new cell    {a}\n"));
        }
        if out.is_empty() {
            out.push_str("no differences\n");
        }
        out
    }
}

/// Compare `new` against the `old` baseline. `Err` only on structural
/// impossibility (duplicate scenario keys within one record); an empty or
/// disjoint record is a reportable outcome, not an error.
pub fn diff(
    old: &BenchRecord,
    new: &BenchRecord,
    opts: &DiffOptions,
) -> Result<DiffReport, String> {
    let mut report = DiffReport::default();

    if old.tag != new.tag {
        report.warnings.push(format!(
            "comparing different tags: {:?} (baseline) vs {:?}",
            old.tag, new.tag
        ));
    }
    let (old_env, new_env) = (
        old.fingerprint.comparability(),
        new.fingerprint.comparability(),
    );
    if old_env != new_env && !opts.tau_only {
        report.warnings.push(format!(
            "environments differ — wall-clock columns are not comparable:\n  baseline: {old_env}\n  new:      {new_env}"
        ));
    }

    fn index<'a>(
        r: &'a BenchRecord,
        which: &str,
    ) -> Result<std::collections::BTreeMap<&'a str, &'a Cell>, String> {
        let mut map = std::collections::BTreeMap::new();
        for c in &r.cells {
            if map.insert(c.scenario.as_str(), c).is_some() {
                return Err(format!(
                    "{which} record has duplicate scenario key {:?}",
                    c.scenario
                ));
            }
        }
        Ok(map)
    }
    let old_cells = index(old, "baseline")?;
    let new_cells = index(new, "new")?;

    for (key, old_cell) in &old_cells {
        let Some(new_cell) = new_cells.get(key) else {
            report.missing_cells.push((*key).to_string());
            continue;
        };
        if old_cell.tau != new_cell.tau {
            report.tau_changes.push(TauChange {
                scenario: (*key).to_string(),
                old: old_cell.tau,
                new: new_cell.tau,
            });
        }
        if opts.tau_only {
            continue;
        }
        if let (Some(old_t), Some(new_t)) = (&old_cell.timing, &new_cell.timing) {
            if old_t.median_ms <= 0.0 {
                continue; // sub-resolution baseline: no meaningful ratio
            }
            let ratio = new_t.median_ms / old_t.median_ms;
            let change = TimingChange {
                scenario: (*key).to_string(),
                old_ms: old_t.median_ms,
                new_ms: new_t.median_ms,
                ratio,
            };
            if ratio > opts.threshold {
                report.regressions.push(change);
            } else if ratio < 1.0 / opts.threshold {
                report.improvements.push(change);
            }
        }
    }
    for key in new_cells.keys() {
        if !old_cells.contains_key(key) {
            report.added_cells.push((*key).to_string());
        }
    }

    let old_bins: std::collections::BTreeMap<&str, bool> =
        old.bins.iter().map(|b| (b.bin.as_str(), b.ok)).collect();
    for b in &new.bins {
        if !b.ok && old_bins.get(b.bin.as_str()).copied().unwrap_or(true) {
            report.broken_bins.push(b.bin.clone());
        }
    }

    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint::Fingerprint;
    use crate::record::BinResult;
    use crate::timing::TimingSummary;

    fn cell(key: &str, tau: Option<u64>, median_ms: f64) -> Cell {
        Cell {
            scenario: key.into(),
            graph: "g".into(),
            weighting: "unit".into(),
            beta: 4.0,
            eps: 0.046,
            engine: "engine".into(),
            fault: "none".into(),
            churn: "none".into(),
            threads: 1,
            tau,
            mem_bytes: None,
            timing: Some(TimingSummary {
                reps: 3,
                skipped: 0,
                median_ms,
                min_ms: median_ms,
                max_ms: median_ms,
            }),
        }
    }

    fn record(cells: Vec<Cell>) -> BenchRecord {
        BenchRecord {
            schema_version: crate::record::SCHEMA_VERSION,
            tag: "t".into(),
            fingerprint: Fingerprint {
                git_sha: "x".into(),
                rustc: "rustc".into(),
                cpus: 1,
                lmt_threads: None,
                timestamp_unix: 0,
                total_mem_bytes: None,
                os: "linux/x86_64".into(),
            },
            cells,
            bins: Vec::new(),
        }
    }

    #[test]
    fn identical_records_are_clean() {
        let r = record(vec![cell("a", Some(5), 1.0), cell("b", None, 2.0)]);
        let report = diff(&r, &r, &DiffOptions::default()).unwrap();
        assert!(!report.regressed());
        assert_eq!(report.render(), "no differences\n");
    }

    #[test]
    fn tau_change_regresses_even_in_tau_only_mode() {
        let old = record(vec![cell("a", Some(5), 1.0)]);
        let new = record(vec![cell("a", Some(6), 1.0)]);
        for tau_only in [false, true] {
            let report = diff(
                &old,
                &new,
                &DiffOptions {
                    tau_only,
                    ..DiffOptions::default()
                },
            )
            .unwrap();
            assert!(report.regressed());
            assert_eq!(report.tau_changes.len(), 1);
            assert!(report.render().contains("TAU CHANGE"));
        }
        // Some -> None is a τ change too.
        let gone = record(vec![cell("a", None, 1.0)]);
        assert!(diff(&old, &gone, &DiffOptions::default())
            .unwrap()
            .regressed());
    }

    #[test]
    fn timing_regression_beyond_threshold_gates() {
        let old = record(vec![cell("a", Some(5), 1.0)]);
        let new = record(vec![cell("a", Some(5), 1.8)]);
        let report = diff(&old, &new, &DiffOptions::default()).unwrap();
        assert!(report.regressed());
        assert_eq!(report.regressions.len(), 1);
        assert!((report.regressions[0].ratio - 1.8).abs() < 1e-12);

        // Below threshold: clean. Above inverse threshold: improvement.
        let ok = record(vec![cell("a", Some(5), 1.4)]);
        assert!(!diff(&old, &ok, &DiffOptions::default())
            .unwrap()
            .regressed());
        let fast = record(vec![cell("a", Some(5), 0.5)]);
        let report = diff(&old, &fast, &DiffOptions::default()).unwrap();
        assert!(!report.regressed());
        assert_eq!(report.improvements.len(), 1);
    }

    #[test]
    fn tau_only_ignores_timing() {
        let old = record(vec![cell("a", Some(5), 1.0)]);
        let new = record(vec![cell("a", Some(5), 100.0)]);
        let report = diff(
            &old,
            &new,
            &DiffOptions {
                tau_only: true,
                ..DiffOptions::default()
            },
        )
        .unwrap();
        assert!(!report.regressed());
        assert!(report.regressions.is_empty());
    }

    #[test]
    fn lost_cells_gate_added_cells_do_not() {
        let old = record(vec![cell("a", Some(5), 1.0), cell("b", Some(2), 1.0)]);
        let new = record(vec![cell("a", Some(5), 1.0), cell("c", Some(9), 1.0)]);
        let report = diff(&old, &new, &DiffOptions::default()).unwrap();
        assert!(report.regressed());
        assert_eq!(report.missing_cells, ["b"]);
        assert_eq!(report.added_cells, ["c"]);
    }

    #[test]
    fn newly_failing_bin_gates() {
        let mut old = record(vec![]);
        old.bins.push(BinResult {
            bin: "exp_t1".into(),
            ok: true,
            seconds: 1.0,
        });
        let mut new = record(vec![]);
        new.bins.push(BinResult {
            bin: "exp_t1".into(),
            ok: false,
            seconds: 1.0,
        });
        let report = diff(&old, &new, &DiffOptions::default()).unwrap();
        assert!(report.regressed());
        assert_eq!(report.broken_bins, ["exp_t1"]);

        // Known-failing baseline does not re-gate.
        let report = diff(&new, &new, &DiffOptions::default()).unwrap();
        assert!(!report.regressed());
    }

    #[test]
    fn environment_mismatch_warns_but_does_not_gate() {
        let old = record(vec![cell("a", Some(5), 1.0)]);
        let mut new = old.clone();
        new.fingerprint.cpus = 64;
        let report = diff(&old, &new, &DiffOptions::default()).unwrap();
        assert!(!report.regressed());
        assert!(report.render().contains("environments differ"));
    }

    #[test]
    fn duplicate_scenario_keys_are_an_error() {
        let r = record(vec![cell("a", Some(5), 1.0), cell("a", Some(5), 1.0)]);
        assert!(diff(&r, &r, &DiffOptions::default()).is_err());
    }
}
