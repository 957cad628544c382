//! End-to-end acceptance tests for the scenario-sweep harness (ISSUE 6):
//! the *committed* spec runs, emits a well-formed `BENCH_<tag>.json` with a
//! complete fingerprint, and `bench_diff`'s gate logic flags a perturbed τ
//! value and an above-threshold timing regression.

use lmt_bench::diff::{diff, DiffOptions};
use lmt_bench::record::BenchRecord;
use lmt_bench::spec::SweepSpec;
use lmt_bench::sweep::run_sweep;
use std::path::PathBuf;

fn repo_path(rel: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(rel)
}

#[test]
fn committed_tiny_spec_runs_and_round_trips() {
    let text = std::fs::read_to_string(repo_path("specs/tiny.json")).expect("committed spec");
    let mut spec = SweepSpec::parse(&text).expect("committed spec parses");
    assert_eq!(spec.tag, "tiny");
    assert_eq!(spec.cell_count(), 24);
    // One rep is enough for the structural checks and keeps debug CI fast.
    spec.reps = 1;

    let record = run_sweep(&spec);
    assert_eq!(record.cells.len(), 24);

    // Complete environment fingerprint.
    let fp = &record.fingerprint;
    assert!(!fp.git_sha.is_empty() && !fp.rustc.is_empty() && !fp.os.is_empty());
    assert!(fp.cpus >= 1);
    assert!(fp.timestamp_unix > 0);

    // Well-formed: serialize → parse is the identity.
    let text = record.to_json().render();
    let parsed = BenchRecord::parse(&text).expect("emitted record parses");
    assert_eq!(parsed, record);

    // Every cell found its witness and carries timing.
    for cell in &record.cells {
        assert!(cell.tau.is_some(), "{} missed its witness", cell.scenario);
        assert!(cell.timing.is_some(), "{} untimed", cell.scenario);
    }

    // Self-diff is clean in both modes.
    for tau_only in [false, true] {
        let report = diff(
            &record,
            &record,
            &DiffOptions {
                tau_only,
                ..DiffOptions::default()
            },
        )
        .unwrap();
        assert!(
            !report.regressed(),
            "self-diff regressed: {}",
            report.render()
        );
    }

    // A perturbed τ value gates, even in τ-only (CI) mode.
    let mut perturbed = record.clone();
    let tau = perturbed.cells[0].tau.unwrap();
    perturbed.cells[0].tau = Some(tau + 1);
    let report = diff(
        &record,
        &perturbed,
        &DiffOptions {
            tau_only: true,
            ..DiffOptions::default()
        },
    )
    .unwrap();
    assert!(report.regressed());
    assert_eq!(report.tau_changes.len(), 1);

    // An above-threshold timing regression gates in full mode only.
    let mut slow = record.clone();
    let t = slow.cells[0].timing.as_mut().unwrap();
    t.median_ms *= 10.0;
    let full = diff(&record, &slow, &DiffOptions::default()).unwrap();
    assert!(full.regressed());
    assert_eq!(full.regressions.len(), 1);
    let tau_only = diff(
        &record,
        &slow,
        &DiffOptions {
            tau_only: true,
            ..DiffOptions::default()
        },
    )
    .unwrap();
    assert!(!tau_only.regressed());
}

#[test]
fn committed_golden_record_parses_and_matches_fresh_taus() {
    let text = std::fs::read_to_string(repo_path("specs/golden/BENCH_tiny.json"))
        .expect("committed golden record");
    let golden = BenchRecord::parse(&text).expect("golden parses");
    assert_eq!(golden.tag, "tiny");
    assert_eq!(golden.cells.len(), 24);

    // Re-measure the committed spec (1 rep) and τ-diff against the golden:
    // exactly the CI gate, in-process.
    let spec_text = std::fs::read_to_string(repo_path("specs/tiny.json")).expect("committed spec");
    let mut spec = SweepSpec::parse(&spec_text).unwrap();
    spec.reps = 1;
    let fresh = run_sweep(&spec);
    let report = diff(
        &golden,
        &fresh,
        &DiffOptions {
            tau_only: true,
            ..DiffOptions::default()
        },
    )
    .unwrap();
    assert!(
        !report.regressed(),
        "fresh τ values drifted from the committed golden:\n{}",
        report.render()
    );
    // The diff gate fails only on lost cells; the runner must also keep
    // the golden's cells, in the golden's order, with nothing added.
    let keys = |r: &BenchRecord| {
        r.cells
            .iter()
            .map(|c| c.scenario.clone())
            .collect::<Vec<_>>()
    };
    assert_eq!(keys(&fresh), keys(&golden), "cell order or set changed");
}

#[test]
fn committed_specs_parse_and_cover_every_golden() {
    let stem = |path: &std::path::Path| path.file_stem().unwrap().to_str().unwrap().to_string();
    let json_files = |dir: &str| -> Vec<PathBuf> {
        let mut files: Vec<PathBuf> = std::fs::read_dir(repo_path(dir))
            .expect("committed directory")
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect();
        files.sort();
        files
    };

    // Every committed spec parses and is named after its tag (the tag names
    // the emitted `BENCH_<tag>.json`).
    let mut cells = std::collections::BTreeMap::new();
    for path in json_files("specs") {
        let text = std::fs::read_to_string(&path).unwrap();
        let spec = SweepSpec::parse(&text)
            .unwrap_or_else(|e| panic!("{} does not parse: {e}", path.display()));
        assert_eq!(
            spec.tag,
            stem(&path),
            "{}: tag must equal the file stem",
            path.display()
        );
        cells.insert(spec.tag.clone(), spec.cell_count());
    }

    // CI's τ gate runs `specs/<tag>.json` for every `BENCH_<tag>.json`.
    let goldens = json_files("specs/golden");
    assert!(!goldens.is_empty());
    for golden in goldens {
        let tag = stem(&golden);
        let tag = tag
            .strip_prefix("BENCH_")
            .expect("goldens are named BENCH_<tag>.json");
        assert!(
            cells.contains_key(tag),
            "golden {tag} has no specs/{tag}.json"
        );
    }

    // Manual runs without a golden: scale is one 2^24-node expander cell,
    // service its cold and warm cells, and e1 the n = 4096 clique ring
    // under both weightings and both engines.
    assert_eq!(cells["scale"], 1);
    assert_eq!(cells["service"], 2);
    assert_eq!(cells["e1_engine_ab"], 4);
}
