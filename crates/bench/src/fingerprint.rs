//! Environment fingerprint embedded in every `BENCH_<tag>.json` record.
//!
//! A perf number without its environment is noise: the repo's standing
//! caveat (EXPERIMENTS.md) is that the build container exposes one CPU, so
//! width>1 rows measure overhead, not scaling. The fingerprint makes that
//! context machine-readable so [`crate::diff`] can warn when two records
//! being compared were measured on different hardware or toolchains.

use crate::json::Json;

/// Where and how a record was measured.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    /// `git rev-parse HEAD` of the working tree, `"unknown"` outside a repo.
    pub git_sha: String,
    /// `rustc --version` of the toolchain on `PATH`, `"unknown"` if absent.
    pub rustc: String,
    /// `std::thread::available_parallelism()` — the 1-CPU caveat detector.
    pub cpus: usize,
    /// The `LMT_THREADS` pool-width override in effect at capture time.
    pub lmt_threads: Option<String>,
    /// Seconds since the Unix epoch at capture time.
    pub timestamp_unix: u64,
    /// Total physical memory in bytes (`/proc/meminfo` `MemTotal`), `None`
    /// where undetectable — context for the per-cell `mem_bytes` footprint
    /// column (a 10⁸-node sweep that fits one host may OOM another).
    /// Records written before memory accounting omit the key; it reads
    /// back as `None`.
    pub total_mem_bytes: Option<u64>,
    /// `std::env::consts::OS` / `ARCH`, e.g. `"linux/x86_64"`.
    pub os: String,
}

/// `MemTotal` from `/proc/meminfo`, in bytes (`None` off Linux or on any
/// parse surprise).
fn detect_total_mem_bytes() -> Option<u64> {
    let text = std::fs::read_to_string("/proc/meminfo").ok()?;
    let line = text.lines().find(|l| l.starts_with("MemTotal:"))?;
    let kib: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024)
}

/// First line of a command's stdout, or `None` if it can't be run.
fn command_line(cmd: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(cmd).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    let line = text.lines().next()?.trim();
    (!line.is_empty()).then(|| line.to_string())
}

impl Fingerprint {
    /// Capture the current environment. Never fails: unavailable facts
    /// (no git repo, no `rustc` on `PATH`) record as `"unknown"`.
    pub fn capture() -> Fingerprint {
        Fingerprint {
            git_sha: command_line("git", &["rev-parse", "HEAD"])
                .unwrap_or_else(|| "unknown".into()),
            rustc: command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
            cpus: std::thread::available_parallelism().map_or(1, usize::from),
            lmt_threads: std::env::var("LMT_THREADS").ok(),
            timestamp_unix: std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map_or(0, |d| d.as_secs()),
            total_mem_bytes: detect_total_mem_bytes(),
            os: format!("{}/{}", std::env::consts::OS, std::env::consts::ARCH),
        }
    }

    /// Serialize (field order is the schema order; see EXPERIMENTS.md).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("git_sha", Json::from(self.git_sha.as_str())),
            ("rustc", Json::from(self.rustc.as_str())),
            ("cpus", Json::from(self.cpus)),
            ("lmt_threads", Json::from(self.lmt_threads.clone())),
            ("timestamp_unix", Json::from(self.timestamp_unix)),
            ("total_mem_bytes", Json::from(self.total_mem_bytes)),
            ("os", Json::from(self.os.as_str())),
        ])
    }

    /// Deserialize; `Err` names the first missing/mistyped field.
    pub fn from_json(v: &Json) -> Result<Fingerprint, String> {
        let field = |k: &str| {
            v.get(k)
                .ok_or_else(|| format!("fingerprint: missing {k:?}"))
        };
        let str_field = |k: &str| {
            field(k)?
                .as_str()
                .map(str::to_string)
                .ok_or_else(|| format!("fingerprint: {k:?} must be a string"))
        };
        Ok(Fingerprint {
            git_sha: str_field("git_sha")?,
            rustc: str_field("rustc")?,
            cpus: field("cpus")?
                .as_usize()
                .ok_or("fingerprint: \"cpus\" must be an integer")?,
            lmt_threads: match field("lmt_threads")? {
                Json::Null => None,
                other => Some(
                    other
                        .as_str()
                        .ok_or("fingerprint: \"lmt_threads\" must be a string or null")?
                        .to_string(),
                ),
            },
            timestamp_unix: field("timestamp_unix")?
                .as_u64()
                .ok_or("fingerprint: \"timestamp_unix\" must be an integer")?,
            // Lenient: pre-memory-accounting records omit the key.
            total_mem_bytes: match v.get("total_mem_bytes") {
                None | Some(Json::Null) => None,
                Some(m) => Some(
                    m.as_u64()
                        .ok_or("fingerprint: \"total_mem_bytes\" must be an integer or null")?,
                ),
            },
            os: str_field("os")?,
        })
    }

    /// Human-readable digest of the facts that make two records comparable
    /// (everything except the timestamp and commit).
    pub fn comparability(&self) -> String {
        format!(
            "cpus={} threads={} rustc={} os={}",
            self.cpus,
            self.lmt_threads.as_deref().unwrap_or("-"),
            self.rustc,
            self.os
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capture_fills_every_field() {
        let fp = Fingerprint::capture();
        assert!(!fp.git_sha.is_empty());
        assert!(!fp.rustc.is_empty());
        assert!(fp.cpus >= 1);
        assert!(fp.timestamp_unix > 0);
        assert!(fp.os.contains('/'));
        #[cfg(target_os = "linux")]
        assert!(fp.total_mem_bytes.unwrap_or(0) > 0);
    }

    #[test]
    fn json_round_trip() {
        let fp = Fingerprint {
            git_sha: "abc123".into(),
            rustc: "rustc 1.80.0".into(),
            cpus: 1,
            lmt_threads: Some("8".into()),
            timestamp_unix: 1_754_000_000,
            total_mem_bytes: Some(128 << 30),
            os: "linux/x86_64".into(),
        };
        assert_eq!(Fingerprint::from_json(&fp.to_json()).unwrap(), fp);

        let none_threads = Fingerprint {
            lmt_threads: None,
            ..fp
        };
        let parsed = Fingerprint::from_json(&none_threads.to_json()).unwrap();
        assert_eq!(parsed, none_threads);
    }

    #[test]
    fn from_json_names_missing_field() {
        let e = Fingerprint::from_json(&Json::obj([("git_sha", Json::from("x"))])).unwrap_err();
        assert!(e.contains("rustc"), "got {e}");
    }
}
