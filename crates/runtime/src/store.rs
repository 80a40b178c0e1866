//! Content-addressed on-disk result store.
//!
//! Pipeline runs are pure functions of `(domain id, PipelineConfig)` —
//! the config carries the derived seed — so results are cached under a
//! key hashed from exactly those two values (FNV-1a over the domain id
//! and the config's canonical JSON). Repeated jobs across runner
//! invocations become cache hits; anything unreadable, unparsable, or
//! mismatched (a hash collision, a stale schema, or a result stamped
//! with an unknown `schema_version`) is treated as a miss and silently
//! recomputed — a corrupt cache must never panic or poison results.
//!
//! The store also persists **session checkpoints** (`{key}.ckpt` next to
//! `{key}.json` results) under the same content-addressed key, so an
//! interrupted or killed `runner` continues mid-loop on the next
//! invocation instead of starting the pipeline over. Checkpoints follow
//! the same degrade-to-recompute philosophy: anything unreadable or
//! version-mismatched reads back as "no checkpoint".

use std::fs::{self, File};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use serde::{Deserialize, Serialize};
use xplain_core::pipeline::{PipelineConfig, PipelineResult, PIPELINE_SCHEMA_VERSION};
use xplain_core::session::{SessionCheckpoint, SESSION_CHECKPOINT_SCHEMA_VERSION};

/// One stored entry. The key inputs are echoed next to the result so
/// lookups can verify them (defends against both hash collisions and
/// config-schema drift between versions).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct StoreEntry {
    domain: String,
    config: PipelineConfig,
    result: PipelineResult,
    /// Ownership metadata: which process computed this entry (the mesh
    /// stamps the shard id, so a shared store records who did the work
    /// — steals included). Not part of the content key and not verified
    /// on lookup: results are pure functions of `(domain, config)`, so
    /// the same bytes land regardless of who computed them. Entries
    /// from before this field read back as `None`.
    #[serde(default)]
    origin: Option<String>,
}

/// One persisted session checkpoint, with the same key-echo defense as
/// [`StoreEntry`].
#[derive(Debug, Clone, Serialize, Deserialize)]
struct CheckpointEntry {
    domain: String,
    config: PipelineConfig,
    checkpoint: SessionCheckpoint,
}

/// A directory of `{key:016x}.json` entries.
#[derive(Debug, Clone)]
pub struct ResultStore {
    dir: PathBuf,
    /// The bank under `dir`, whose parsed-record index every
    /// [`ResultStore::bank`] handle (and every clone of this store) shares.
    bank: crate::bank::RegressionBank,
}

/// What [`ResultStore::gc`] reclaimed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Orphaned `{key}.ckpt` files deleted.
    pub checkpoints_removed: usize,
    /// Stale `.*.tmp` files deleted (crashed writers strand these —
    /// a kill between temp-write and rename leaves the temp behind).
    pub temp_files_removed: usize,
    /// Total size on disk of everything removed.
    pub bytes_reclaimed: u64,
    /// Regression-bank entries dropped (unknown schema version or
    /// unregistered domain). Zero unless the caller also ran
    /// [`crate::bank::RegressionBank::sweep`] — the store itself cannot
    /// know which domains are registered.
    pub bank_entries_removed: usize,
    /// Bytes those bank entries occupied.
    pub bank_bytes_reclaimed: u64,
}

/// Temp files younger than this survive [`ResultStore::gc`] — they may
/// belong to a writer that is mid-publish right now. Anything older is
/// necessarily stranded: a healthy publish holds its temp file for
/// milliseconds, not minutes.
pub const STALE_TMP_MAX_AGE: Duration = Duration::from_secs(60);

/// Unique-ish suffix counter for temp files (concurrent writers on the
/// same key must not interleave partial writes; each writes its own temp
/// file and atomically renames it into place).
static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);

impl ResultStore {
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        let dir = dir.into();
        let bank = crate::bank::RegressionBank::new(&dir);
        ResultStore { dir, bank }
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The regression bank living under this store
    /// (`<dir>/bank/` — see [`crate::bank`]). Every handle returned here
    /// shares one index of parsed records.
    pub fn bank(&self) -> crate::bank::RegressionBank {
        self.bank.clone()
    }

    /// The content-addressed key of a job.
    pub fn key(domain: &str, config: &PipelineConfig) -> u64 {
        key_of(domain, &serde_json::to_string(config).unwrap_or_default())
    }

    /// On-disk path of a job's entry.
    pub fn entry_path(&self, domain: &str, config: &PipelineConfig) -> PathBuf {
        self.keyed_path(Self::key(domain, config), "json")
    }

    /// `{key:016x}.{ext}` in the store directory.
    fn keyed_path(&self, key: u64, ext: &str) -> PathBuf {
        self.dir.join(format!("{key:016x}.{ext}"))
    }

    /// Publish `bytes` as `{key:016x}.{ext}` through a private temp file
    /// `.{key:016x}.{pid}.{n}.{tmp_ext}` ([`publish_durable`]).
    fn publish_keyed(&self, key: u64, ext: &str, tmp_ext: &str, bytes: &[u8]) -> io::Result<()> {
        let tmp_path = self.dir.join(format!(
            ".{key:016x}.{}.{}.{tmp_ext}",
            std::process::id(),
            TMP_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        publish_durable(&self.dir, &tmp_path, &self.keyed_path(key, ext), bytes)
    }

    /// Fetch a cached result. `None` means miss — including unreadable or
    /// corrupted entries, echo mismatches, and results stamped with a
    /// `schema_version` other than the current one (entries written
    /// before the stamp existed read back as version 0 and miss too),
    /// which callers recompute.
    pub fn lookup(&self, domain: &str, config: &PipelineConfig) -> Option<PipelineResult> {
        let config_json = serde_json::to_string(config).ok()?;
        let path = self.keyed_path(key_of(domain, &config_json), "json");
        let text = fs::read_to_string(path).ok()?;
        let entry: StoreEntry = serde_json::from_str(&text).ok()?;
        if entry.result.schema_version != PIPELINE_SCHEMA_VERSION {
            return None;
        }
        let same_config = serde_json::to_string(&entry.config).ok()? == config_json;
        (entry.domain == domain && same_config).then_some(entry.result)
    }

    /// Store a result (write-to-temp, fsync, rename, fsync directory —
    /// concurrent writers of the same key never expose a torn file, and
    /// a crash at any point publishes either the old bytes or the new
    /// bytes, never a truncated entry).
    pub fn insert(
        &self,
        domain: &str,
        config: &PipelineConfig,
        result: &PipelineResult,
    ) -> io::Result<()> {
        self.insert_with_origin(domain, config, result, None)
    }

    /// [`ResultStore::insert`] with an origin tag (ownership metadata —
    /// the mesh passes the computing shard's id).
    pub fn insert_with_origin(
        &self,
        domain: &str,
        config: &PipelineConfig,
        result: &PipelineResult,
        origin: Option<&str>,
    ) -> io::Result<()> {
        fs::create_dir_all(&self.dir)?;
        let entry = StoreEntry {
            domain: domain.to_string(),
            config: config.clone(),
            result: result.clone(),
            origin: origin.map(str::to_string),
        };
        let json = serde_json::to_string(&entry)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        self.publish_keyed(Self::key(domain, config), "json", "tmp", json.as_bytes())
    }

    /// Read back the origin tag of a committed entry (`None` for
    /// misses, untagged entries, and anything `lookup` would reject).
    pub fn origin(&self, domain: &str, config: &PipelineConfig) -> Option<String> {
        let text = fs::read_to_string(self.entry_path(domain, config)).ok()?;
        let entry: StoreEntry = serde_json::from_str(&text).ok()?;
        (entry.domain == domain).then_some(entry.origin)?
    }

    /// On-disk path of a job's session checkpoint (`.ckpt`, deliberately
    /// not `.json`, so [`ResultStore::len`] keeps counting results only).
    pub fn checkpoint_path(&self, domain: &str, config: &PipelineConfig) -> PathBuf {
        self.keyed_path(Self::key(domain, config), "ckpt")
    }

    /// Fetch a persisted session checkpoint for this job. `None` on any
    /// problem — missing, unreadable, corrupt, echo mismatch, or an
    /// unknown checkpoint schema version — and the caller starts fresh.
    pub fn load_checkpoint(
        &self,
        domain: &str,
        config: &PipelineConfig,
    ) -> Option<SessionCheckpoint> {
        let config_json = serde_json::to_string(config).ok()?;
        let path = self.keyed_path(key_of(domain, &config_json), "ckpt");
        let text = fs::read_to_string(path).ok()?;
        let entry: CheckpointEntry = serde_json::from_str(&text).ok()?;
        if entry.checkpoint.schema_version != SESSION_CHECKPOINT_SCHEMA_VERSION {
            return None;
        }
        let same_config = serde_json::to_string(&entry.config).ok()? == config_json;
        (entry.domain == domain && same_config).then_some(entry.checkpoint)
    }

    /// Persist a session checkpoint (same write-to-temp + fsync + rename
    /// discipline as results). Overwrites any previous checkpoint for the
    /// job — only the newest boundary matters for resumption.
    pub fn save_checkpoint(
        &self,
        domain: &str,
        config: &PipelineConfig,
        checkpoint: &SessionCheckpoint,
    ) -> io::Result<()> {
        fs::create_dir_all(&self.dir)?;
        let entry = CheckpointEntry {
            domain: domain.to_string(),
            config: config.clone(),
            checkpoint: checkpoint.clone(),
        };
        let json = serde_json::to_string(&entry)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        self.publish_keyed(
            Self::key(domain, config),
            "ckpt",
            "ckpt.tmp",
            json.as_bytes(),
        )
    }

    /// Remove a job's checkpoint (after its session finished naturally
    /// and the result was committed). Missing files are fine.
    pub fn clear_checkpoint(&self, domain: &str, config: &PipelineConfig) {
        let _ = fs::remove_file(self.checkpoint_path(domain, config));
    }

    /// Sweep orphaned checkpoints: delete every `{key}.ckpt` whose
    /// `{key}.json` result exists. A naturally finishing session clears
    /// its own checkpoint, but a killed `--resume` run followed by a
    /// plain (non-resume) rerun commits the result while leaving the
    /// checkpoint stranded — dead weight that would otherwise sit on
    /// disk forever. Checkpoints without a committed result are live
    /// (something may still resume them) and are never touched.
    ///
    /// Budget-limited interrupts can leave a checkpoint next to a
    /// committed result too (partials bypass the cache, so a run under
    /// budgets recomputes a config whose full result already exists).
    /// Sweeping such a checkpoint never loses information — the
    /// canonical natural result is already on disk, and a session
    /// resumed to completion converges to those same bytes — it only
    /// trades the partial run's saved compute for the disk space.
    ///
    /// The sweep also removes stale `.*.tmp` files: a writer killed
    /// between temp-write and rename strands its temp file forever
    /// (nothing ever reads or renames it again). Only temps older than
    /// [`STALE_TMP_MAX_AGE`] go — a younger one may belong to a publish
    /// in flight right now.
    ///
    /// Returns what was reclaimed; failures to stat or remove individual
    /// files are skipped (same degrade-don't-fail philosophy as reads).
    pub fn gc(&self) -> GcReport {
        self.gc_with_tmp_age(STALE_TMP_MAX_AGE)
    }

    /// [`ResultStore::gc`] with an explicit stale-temp threshold (tests
    /// pass zero to sweep unconditionally).
    pub fn gc_with_tmp_age(&self, tmp_max_age: Duration) -> GcReport {
        let mut report = GcReport::default();
        let Ok(entries) = fs::read_dir(&self.dir) else {
            return report;
        };
        for entry in entries.filter_map(|e| e.ok()) {
            let path = entry.path();
            if path.extension().is_some_and(|x| x == "tmp") {
                let name_hidden = path
                    .file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with('.'));
                let stale = entry
                    .metadata()
                    .and_then(|m| m.modified())
                    .ok()
                    .and_then(|t| t.elapsed().ok())
                    .is_some_and(|age| age >= tmp_max_age);
                if name_hidden && stale {
                    let bytes = entry.metadata().map(|m| m.len()).unwrap_or(0);
                    if fs::remove_file(&path).is_ok() {
                        report.temp_files_removed += 1;
                        report.bytes_reclaimed += bytes;
                    }
                }
                continue;
            }
            if path.extension().is_none_or(|x| x != "ckpt") {
                continue;
            }
            let Some(stem) = path.file_stem().and_then(|s| s.to_str()) else {
                continue;
            };
            if !self.dir.join(format!("{stem}.json")).is_file() {
                continue; // live checkpoint: no committed result yet
            }
            let bytes = entry.metadata().map(|m| m.len()).unwrap_or(0);
            if fs::remove_file(&path).is_ok() {
                report.checkpoints_removed += 1;
                report.bytes_reclaimed += bytes;
            }
        }
        report
    }

    /// Number of committed entries on disk.
    pub fn len(&self) -> usize {
        let Ok(read) = fs::read_dir(&self.dir) else {
            return 0;
        };
        read.filter_map(|e| e.ok())
            .filter(|e| e.path().extension().is_some_and(|x| x == "json"))
            .count()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Write `bytes` to `tmp`, fsync it, rename it over `final_path`, and
/// fsync the containing directory — the full durability discipline, so
/// a crash at any point leaves either the previous bytes or the new
/// bytes at `final_path`, never a truncated file, and the rename itself
/// survives a power cut (an un-fsynced rename can be rolled back by the
/// filesystem journal).
pub(crate) fn publish_durable(
    dir: &Path,
    tmp: &Path,
    final_path: &Path,
    bytes: &[u8],
) -> io::Result<()> {
    write_synced(tmp, bytes)?;
    fs::rename(tmp, final_path)?;
    fsync_dir(dir);
    Ok(())
}

/// [`publish_durable`] that never replaces: the fsynced temp file is
/// hard-linked to `final_path`, which fails atomically if that name
/// already exists. Returns `Ok(false)` (and leaves the existing file
/// alone) when another writer — any thread or process — got there
/// first, so concurrent publishers of one name have exactly one winner.
pub(crate) fn publish_durable_new(
    dir: &Path,
    tmp: &Path,
    final_path: &Path,
    bytes: &[u8],
) -> io::Result<bool> {
    write_synced(tmp, bytes)?;
    let linked = fs::hard_link(tmp, final_path);
    let _ = fs::remove_file(tmp);
    match linked {
        Ok(()) => {
            fsync_dir(dir);
            Ok(true)
        }
        Err(e) if e.kind() == io::ErrorKind::AlreadyExists => Ok(false),
        Err(e) => Err(e),
    }
}

/// Create `path` holding exactly `bytes`, synced to disk.
fn write_synced(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut file = File::create(path)?;
    file.write_all(bytes)?;
    file.sync_all()
}

/// Best-effort fsync of a directory (makes a rename or file creation in
/// it durable). Errors are ignored: not every platform or filesystem
/// supports opening a directory for sync, and degrading to the old
/// (rename-only) behavior beats failing the write.
pub(crate) fn fsync_dir(dir: &Path) {
    if let Ok(handle) = File::open(dir) {
        let _ = handle.sync_all();
    }
}

/// [`ResultStore::key`] over a config already serialized to JSON.
fn key_of(domain: &str, config_json: &str) -> u64 {
    let h = fnv1a64_continue(fnv1a64(domain.as_bytes()), &[0]);
    fnv1a64_continue(h, config_json.as_bytes())
}

/// FNV-1a (64-bit) over `bytes` — the workspace's one stable,
/// dependency-free content hash (store and bank keys, journal checksums,
/// tenant ids, mesh placement).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_continue(0xcbf29ce484222325, bytes)
}

pub(crate) fn fnv1a64_continue(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x100000001b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "xplain-store-test-{tag}-{}-{}",
            std::process::id(),
            TMP_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn dummy_result(rejected: usize) -> PipelineResult {
        PipelineResult {
            schema_version: PIPELINE_SCHEMA_VERSION,
            findings: Vec::new(),
            rejected,
            analyzer_calls: 1,
            coverage: None,
            oracle_evaluations: 42,
            wall_time_ms: 0,
            solver: Default::default(),
        }
    }

    #[test]
    fn key_depends_on_domain_and_config() {
        let a = PipelineConfig::default();
        let mut b = PipelineConfig::default();
        b.seed ^= 1;
        assert_eq!(ResultStore::key("dp", &a), ResultStore::key("dp", &a));
        assert_ne!(ResultStore::key("dp", &a), ResultStore::key("ff", &a));
        assert_ne!(ResultStore::key("dp", &a), ResultStore::key("dp", &b));
    }

    #[test]
    fn roundtrip_hit_and_miss() {
        let store = ResultStore::new(scratch_dir("roundtrip"));
        let config = PipelineConfig::default();
        assert!(
            store.lookup("dp", &config).is_none(),
            "cold store must miss"
        );
        store.insert("dp", &config, &dummy_result(3)).unwrap();
        let back = store.lookup("dp", &config).expect("hit after insert");
        assert_eq!(back.rejected, 3);
        assert_eq!(back.oracle_evaluations, 42);
        // Other domain / other config: still misses.
        assert!(store.lookup("ff", &config).is_none());
        let mut other = config.clone();
        other.seed ^= 7;
        assert!(store.lookup("dp", &other).is_none());
        assert_eq!(store.len(), 1);
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn corrupted_entry_is_a_miss_not_a_panic() {
        let store = ResultStore::new(scratch_dir("corrupt"));
        let config = PipelineConfig::default();
        store.insert("dp", &config, &dummy_result(1)).unwrap();
        // Truncate the entry mid-JSON.
        let path = store.entry_path("dp", &config);
        fs::write(&path, "{\"domain\": \"dp\", \"config\":").unwrap();
        assert!(store.lookup("dp", &config).is_none());
        // Recompute-and-overwrite heals the entry.
        store.insert("dp", &config, &dummy_result(1)).unwrap();
        assert_eq!(store.lookup("dp", &config).unwrap().rejected, 1);
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn echo_mismatch_is_a_miss() {
        let store = ResultStore::new(scratch_dir("echo"));
        let config = PipelineConfig::default();
        store.insert("dp", &config, &dummy_result(0)).unwrap();
        // Simulate a hash collision: the file parses but echoes a
        // different domain id.
        let path = store.entry_path("dp", &config);
        let text = fs::read_to_string(&path).unwrap();
        fs::write(&path, text.replacen("\"dp\"", "\"zz\"", 1)).unwrap();
        assert!(store.lookup("dp", &config).is_none());
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn unknown_result_schema_version_is_a_miss() {
        let store = ResultStore::new(scratch_dir("schema"));
        let config = PipelineConfig::default();
        let mut result = dummy_result(2);
        result.schema_version = PIPELINE_SCHEMA_VERSION + 1;
        store.insert("dp", &config, &result).unwrap();
        assert!(
            store.lookup("dp", &config).is_none(),
            "future schema version must be a cache miss"
        );
        // Pre-stamp entries (schema_version absent → 0) miss too.
        let path = store.entry_path("dp", &config);
        let text = fs::read_to_string(&path).unwrap();
        let stripped = text.replace(
            &format!("\"schema_version\":{}", PIPELINE_SCHEMA_VERSION + 1),
            "\"schema_version\":0",
        );
        assert_ne!(text, stripped, "test must actually rewrite the stamp");
        fs::write(&path, stripped).unwrap();
        assert!(store.lookup("dp", &config).is_none());
        // A current-version write heals it.
        store.insert("dp", &config, &dummy_result(2)).unwrap();
        assert_eq!(store.lookup("dp", &config).unwrap().rejected, 2);
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn checkpoints_roundtrip_and_clear() {
        use rand::rngs::StdRng;
        use xplain_analyzer::geometry::Polytope;
        use xplain_analyzer::oracle::GapOracle;
        use xplain_analyzer::search::Adversarial;
        use xplain_core::session::SessionBuilder;

        struct Flat;
        impl GapOracle for Flat {
            fn dims(&self) -> usize {
                1
            }
            fn bounds(&self) -> Vec<(f64, f64)> {
                vec![(0.0, 1.0)]
            }
            fn gap(&self, _: &[f64]) -> f64 {
                0.0
            }
        }

        let store = ResultStore::new(scratch_dir("ckpt"));
        let config = PipelineConfig::default();
        let session = SessionBuilder::new(Flat)
            .config(config.clone())
            .finder(|_: &[Polytope], _: &mut StdRng| None::<Adversarial>)
            .build()
            .unwrap();
        let checkpoint = session.checkpoint();

        assert!(store.load_checkpoint("dp", &config).is_none());
        store.save_checkpoint("dp", &config, &checkpoint).unwrap();
        let back = store
            .load_checkpoint("dp", &config)
            .expect("checkpoint loads back");
        assert_eq!(back.schema_version, checkpoint.schema_version);
        // Checkpoints never pollute the result count.
        assert_eq!(store.len(), 0);
        // Other domain / config: miss.
        assert!(store.load_checkpoint("ff", &config).is_none());

        // Corruption degrades to "no checkpoint".
        fs::write(store.checkpoint_path("dp", &config), "garbage").unwrap();
        assert!(store.load_checkpoint("dp", &config).is_none());

        store.save_checkpoint("dp", &config, &checkpoint).unwrap();
        store.clear_checkpoint("dp", &config);
        assert!(store.load_checkpoint("dp", &config).is_none());
        store.clear_checkpoint("dp", &config); // idempotent
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn gc_removes_stranded_checkpoints_only() {
        let store = ResultStore::new(scratch_dir("gc"));
        let config_done = PipelineConfig::default();
        let mut config_live = PipelineConfig::default();
        config_live.seed ^= 1;

        // Craft the stranded shape: a committed result AND a leftover
        // checkpoint under the same key (what a killed `--resume` run
        // followed by a plain batch rerun leaves behind).
        store.insert("dp", &config_done, &dummy_result(1)).unwrap();
        let fake_ckpt = "{\"domain\":\"dp\",\"stale\":true}";
        fs::write(store.checkpoint_path("dp", &config_done), fake_ckpt).unwrap();
        // A live checkpoint: no committed result for its key.
        fs::write(store.checkpoint_path("dp", &config_live), fake_ckpt).unwrap();

        let report = store.gc();
        assert_eq!(report.checkpoints_removed, 1);
        assert_eq!(report.bytes_reclaimed, fake_ckpt.len() as u64);
        // The stranded one is gone; result and live checkpoint survive.
        assert!(!store.checkpoint_path("dp", &config_done).exists());
        assert!(store.checkpoint_path("dp", &config_live).exists());
        assert!(store.lookup("dp", &config_done).is_some());
        assert_eq!(store.len(), 1);

        // Idempotent; and a store with nothing stranded reclaims nothing.
        assert_eq!(store.gc(), GcReport::default());
        // Missing directory: zero report, no panic.
        assert_eq!(ResultStore::new("/no/such/dir").gc(), GcReport::default());
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn gc_sweeps_stale_temp_files_but_spares_fresh_ones() {
        let store = ResultStore::new(scratch_dir("gc-tmp"));
        fs::create_dir_all(store.dir()).unwrap();
        // What a crashed writer strands: a hidden temp that nothing will
        // ever rename into place.
        let stranded = store.dir().join(".00000000deadbeef.1234.0.tmp");
        fs::write(&stranded, "partial entry bytes").unwrap();
        // A fresh temp (same shape) must survive the default threshold —
        // its writer may be mid-publish right now.
        assert_eq!(store.gc(), GcReport::default());
        assert!(stranded.exists(), "fresh temp swept too eagerly");
        // With the threshold at zero it is stale by definition.
        let report = store.gc_with_tmp_age(Duration::ZERO);
        assert_eq!(report.temp_files_removed, 1);
        assert_eq!(report.checkpoints_removed, 0);
        assert_eq!(report.bytes_reclaimed, "partial entry bytes".len() as u64);
        assert!(!stranded.exists());
        // Non-hidden `.tmp` files are not the store's litter; spare them.
        let foreign = store.dir().join("user-data.tmp");
        fs::write(&foreign, "not ours").unwrap();
        assert_eq!(store.gc_with_tmp_age(Duration::ZERO), GcReport::default());
        assert!(foreign.exists());
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn origin_metadata_roundtrips_and_defaults() {
        let store = ResultStore::new(scratch_dir("origin"));
        let config = PipelineConfig::default();
        assert!(store.origin("dp", &config).is_none(), "miss has no origin");
        store.insert("dp", &config, &dummy_result(1)).unwrap();
        assert!(store.origin("dp", &config).is_none(), "untagged insert");
        store
            .insert_with_origin("dp", &config, &dummy_result(1), Some("shard-2"))
            .unwrap();
        assert_eq!(store.origin("dp", &config).as_deref(), Some("shard-2"));
        // Origin is metadata, not content: lookups are unaffected.
        assert_eq!(store.lookup("dp", &config).unwrap().rejected, 1);
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn overwrite_replaces_entry() {
        let store = ResultStore::new(scratch_dir("overwrite"));
        let config = PipelineConfig::default();
        store.insert("dp", &config, &dummy_result(1)).unwrap();
        store.insert("dp", &config, &dummy_result(9)).unwrap();
        assert_eq!(store.lookup("dp", &config).unwrap().rejected, 9);
        assert_eq!(store.len(), 1);
        let _ = fs::remove_dir_all(store.dir());
    }
}
