//! Structured run artifacts.
//!
//! A [`RunArtifact`] bundles everything needed to interpret one run after
//! the fact — identity (run id, seed, config digest), the metrics and phase
//! timings recorded by the [`Registry`], and a caller-supplied summary of
//! the domain result — and serializes it to a JSON file.

use crate::json::Json;
use crate::registry::Registry;
use std::io;
use std::path::{Path, PathBuf};

/// FNV-1a digest of a string, rendered as 16 hex digits.
///
/// Used to fingerprint configurations: hash the `Debug` rendering of the
/// config and two runs with the same digest used the same inputs.
pub fn digest_str(s: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    format!("{h:016x}")
}

/// Everything recorded about one experiment run.
#[derive(Debug, Clone)]
pub struct RunArtifact {
    /// Stable identifier, e.g. `"fig20-default-seed0"`.
    pub run_id: String,
    /// Master seed of the run.
    pub seed: u64,
    /// Fingerprint of the configuration (see [`digest_str`]).
    pub config_digest: String,
    /// Domain-level result summary, built by the caller.
    pub summary: Json,
}

impl RunArtifact {
    /// Starts an artifact for the given run identity.
    pub fn new(run_id: impl Into<String>, seed: u64, config_digest: impl Into<String>) -> Self {
        RunArtifact {
            run_id: run_id.into(),
            seed,
            config_digest: config_digest.into(),
            summary: Json::Null,
        }
    }

    /// Attaches the domain result summary.
    #[must_use]
    pub fn with_summary(mut self, summary: Json) -> Self {
        self.summary = summary;
        self
    }

    /// The artifact as a JSON document, folding in everything `registry`
    /// recorded (metrics and phase timings).
    pub fn to_json(&self, registry: &Registry) -> Json {
        let snap = registry.snapshot();
        Json::obj()
            .field("run_id", self.run_id.as_str())
            .field("seed", self.seed)
            .field("config_digest", self.config_digest.as_str())
            .field("summary", self.summary.clone())
            .field("metrics", snap.metrics_json())
            .field("phases", snap.spans_json())
    }

    /// Writes `<dir>/<run_id>.json` (pretty-printed), creating `dir` as
    /// needed, and returns the path written.
    pub fn write_to_dir(&self, dir: impl AsRef<Path>, registry: &Registry) -> io::Result<PathBuf> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.json", self.run_id));
        std::fs::write(&path, self.to_json(registry).to_pretty())?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_stable_and_sensitive() {
        assert_eq!(digest_str("abc"), digest_str("abc"));
        assert_ne!(digest_str("abc"), digest_str("abd"));
        assert_eq!(digest_str("").len(), 16);
    }

    #[test]
    fn artifact_json_carries_identity_and_metrics() {
        let reg = Registry::enabled();
        reg.counter("events_processed").add(41);
        let art = RunArtifact::new("fig9-test", 7, digest_str("cfg"))
            .with_summary(Json::obj().field("rows", 3u64));
        let j = art.to_json(&reg);
        assert_eq!(j.get("run_id").and_then(Json::as_str), Some("fig9-test"));
        assert_eq!(j.get("seed").and_then(Json::as_f64), Some(7.0));
        assert_eq!(j.get("summary").and_then(|s| s.get("rows")).and_then(Json::as_f64), Some(3.0));
        let counters = j.get("metrics").and_then(|m| m.get("counters")).unwrap();
        assert_eq!(counters.get("events_processed").and_then(Json::as_f64), Some(41.0));
    }

    #[test]
    fn writes_artifact_file() {
        let dir = std::env::temp_dir().join("cdnc-obs-artifact-test");
        let _ = std::fs::remove_dir_all(&dir);
        let reg = Registry::enabled();
        let art = RunArtifact::new("unit", 1, digest_str("x"));
        let json_path = art.write_to_dir(&dir, &reg).unwrap();
        assert!(json_path.ends_with("unit.json"));
        let body = std::fs::read_to_string(&json_path).unwrap();
        assert!(body.contains("\"run_id\": \"unit\""));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
