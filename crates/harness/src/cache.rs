//! Content-addressed on-disk result cache.
//!
//! One file per job, named by the FNV-1a hash of the job fingerprint:
//! `<dir>/<key>.json` holding the result's own JSON object
//! (`JobResult::to_json`) led by a `fingerprint` field. The full
//! fingerprint is re-checked on every read, so hash collisions and
//! stale entries (a version bump changes the fingerprint) read as
//! misses, never as wrong results; so do entries of an older encoding,
//! which carry no `result_version` of this one.

use crate::job::{JobResult, JobSpec, RESULT_VERSION};
use cfir_obs::json;
use std::path::{Path, PathBuf};

/// Handle to a cache directory (created lazily on first write).
#[derive(Debug, Clone)]
pub struct Cache {
    dir: PathBuf,
}

impl Cache {
    /// A cache rooted at `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> Cache {
        Cache { dir: dir.into() }
    }

    /// The default location: `target/cfir-suite-cache/` next to the
    /// build artifacts, so `cargo clean` clears it.
    pub fn default_dir() -> PathBuf {
        PathBuf::from("target/cfir-suite-cache")
    }

    fn path_for(&self, spec: &JobSpec) -> PathBuf {
        self.dir.join(format!("{:016x}.json", spec.key()))
    }

    /// Look up a completed result for `spec`.
    ///
    /// `Ok(None)` is a plain miss: no file, an entry of another job
    /// behind the same hash, or one of an older encoding. `Err` means
    /// the entry exists but is malformed — the message names the job
    /// and the offending file so the caller can warn and re-run instead
    /// of aborting the suite.
    pub fn get(&self, spec: &JobSpec) -> Result<Option<JobResult>, String> {
        let path = self.path_for(spec);
        let ctx = |what: &str| {
            format!(
                "cache entry {} for {}: {what}",
                path.display(),
                spec.display_name()
            )
        };
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(ctx(&format!("unreadable: {e}"))),
        };
        let v = json::parse(&text).map_err(|e| ctx(&format!("invalid JSON: {e}")))?;
        let fp = v.get("fingerprint").and_then(|x| x.as_str());
        let version = v.get("result_version").and_then(|x| x.as_u64());
        if fp != Some(spec.fingerprint().as_str()) || version != Some(RESULT_VERSION) {
            return Ok(None); // stale entry, older encoding or hash collision
        }
        JobResult::decode(&v)
            .map(Some)
            .map_err(|e| ctx(&format!("malformed result: {e}")))
    }

    /// Store a completed result. Best-effort: a write failure is
    /// reported but must not fail the job that produced the result.
    pub fn put(&self, spec: &JobSpec, result: &JobResult) -> Result<(), String> {
        std::fs::create_dir_all(&self.dir)
            .map_err(|e| format!("cache dir {}: {e}", self.dir.display()))?;
        let path = self.path_for(spec);
        // Write-then-rename so a concurrent reader never sees a torn
        // entry; concurrent writers of the same key race benignly (the
        // content is identical by construction).
        let tmp = self
            .dir
            .join(format!("{:016x}.tmp.{}", spec.key(), std::process::id()));
        std::fs::write(&tmp, result.encode(Some(&spec.fingerprint())))
            .map_err(|e| format!("write {}: {e}", tmp.display()))?;
        std::fs::rename(&tmp, &path).map_err(|e| format!("rename to {}: {e}", path.display()))
    }

    /// Where this cache lives (for log messages).
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::WorkloadRef;
    use cfir_sim::SimConfig;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("cfir-cache-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn selftest_spec() -> JobSpec {
        JobSpec {
            workload: WorkloadRef::SelfTest {
                panic: false,
                sleep_ms: 0,
            },
            cfg: SimConfig::paper_baseline(),
            max_insts: 10,
            sampling: None,
        }
    }

    #[test]
    fn roundtrip_hit_and_stale_miss() {
        let cache = Cache::new(tmpdir("roundtrip"));
        let spec = selftest_spec();
        let cached = |c: &Cache| c.get(&spec).unwrap().map(|r| r.to_json());
        assert_eq!(cached(&cache), None, "cold cache misses");
        let r = spec.execute().unwrap();
        cache.put(&spec, &r).unwrap();
        assert_eq!(cached(&cache), Some(r.to_json()), "warm cache hits");

        // Same key on disk, different fingerprint (simulated version
        // bump): must read as a miss, not as a wrong result.
        let path = cache.dir().join(format!("{:016x}.json", spec.key()));
        let doc = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, doc.replace("cfir v", "cfir OLD v")).unwrap();
        assert_eq!(cached(&cache), None, "stale entries miss");

        // An entry of the older encoding, the result as a string beside
        // the fingerprint, misses too instead of reading as malformed.
        let mut w = cfir_obs::JsonWriter::new();
        w.begin_obj()
            .field_str("fingerprint", &spec.fingerprint())
            .field_str("result", &r.to_json())
            .end_obj();
        std::fs::write(&path, w.finish()).unwrap();
        assert_eq!(cached(&cache), None, "older encodings miss");
    }

    #[test]
    fn malformed_entry_names_job_and_file() {
        let cache = Cache::new(tmpdir("malformed"));
        let spec = selftest_spec();
        cache.put(&spec, &spec.execute().unwrap()).unwrap();
        let path = cache.dir().join(format!("{:016x}.json", spec.key()));
        std::fs::write(&path, "{not json").unwrap();
        let err = cache.get(&spec).unwrap_err();
        assert!(err.contains("selftest"), "names the job: {err}");
        assert!(err.contains(".json"), "names the file: {err}");
    }
}
