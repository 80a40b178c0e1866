//! The adversarial **regression bank**: a content-addressed, append-only
//! corpus of concrete inputs on which a heuristic has been caught
//! underperforming.
//!
//! Every analysis session that finishes naturally writes its significant
//! findings' witnesses through to the bank (see the executor), so each
//! production run permanently hardens the corpus — the ROADMAP's "close
//! the loop" item. The bank is then consumed three ways:
//!
//! * **Replay gate** — `runner bank replay` (and the CI `bank-replay`
//!   step) recomputes every entry's gap with the current oracle and
//!   fails if an instance stopped exhibiting its recorded gap: either
//!   the heuristic changed behavior or the oracle regressed.
//! * **Tuner corpus** — `xplain-tune` scores candidate heuristic
//!   parameters by their worst-case gap over the bank (plus fresh
//!   probes), so repairs are judged against every adversarial instance
//!   ever discovered, not just the current session's.
//! * **Serving** — `GET /v1/regressions` pages through the bank, and
//!   `/v1/metrics` gauges its size and last replay verdict.
//!
//! Storage is one JSON file per record under `<store>/bank/`, named by
//! the FNV-1a64 of `domain + NUL + canonical instance JSON` — the same
//! content-addressing discipline as the result store, and the same
//! degrade-to-recompute philosophy: unreadable entries are skipped, a
//! sweep ([`RegressionBank::sweep`]) drops entries no current code can
//! interpret. Records are published durably *without replacement*
//! (temp → fsync → hard link → fsync dir): the link fails atomically
//! when the name exists, so of any number of concurrent inserts of one
//! key — threads or processes — exactly one wins, and first write wins.
//!
//! **The index.** A bank handle keeps the parsed records in memory,
//! keyed by entry key (so iteration is the canonical key order), and
//! every clone of a handle shares that index — the result store owns one
//! handle, so the executor's write-through, `GET /v1/regressions`, the
//! tuner and the metrics all read the same copy. Each read
//! ([`RegressionBank::records`], [`RegressionBank::entries`]) lists the
//! directory once and stamps every `{16 hex}.json` entry with its
//! `(length, mtime, inode)`; a file is parsed only when its key is new
//! or its stamp changed, and a key is dropped as soon as its file is
//! gone or no longer parses. The directory stays the source of truth:
//! writes and sweeps by other handles or other processes (mesh shards
//! sharing one store) show up on the next read. The cost is one parsed
//! copy of the bank per index, held for the handle's lifetime — the same
//! copy an uncached read would build from scratch on every call.

use crate::store::{fnv1a64, fnv1a64_continue, publish_durable, publish_durable_new};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::SystemTime;
use xplain_core::pipeline::SubspaceFinding;

/// Version stamp of the serialized [`BankRecord`] layout. Entries bearing
/// any other version are skipped by readers and dropped by
/// [`RegressionBank::sweep`].
pub const BANK_SCHEMA_VERSION: u32 = 1;

/// One banked adversarial instance: the concrete input, the gap it
/// exhibited at discovery time, the full originating finding, and enough
/// provenance to trace it back to the job that found it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BankRecord {
    /// [`BANK_SCHEMA_VERSION`] at write time (`#[serde(default)]` reads
    /// pre-stamp JSON as 0, which every consumer treats as unknown).
    #[serde(default)]
    pub schema_version: u32,
    /// Owning domain id (a `DomainRegistry` key).
    pub domain: String,
    /// The adversarial input itself — the content-addressed identity of
    /// this record together with `domain`.
    pub instance: Vec<f64>,
    /// Gap observed at discovery time (what replay re-checks).
    pub gap: f64,
    /// The originating finding: subspace, significance, explanation.
    pub finding: SubspaceFinding,
    /// Provenance: the content key of the job whose session found this
    /// (`{:016x}` of the store key), and that session's seed.
    pub job_key: String,
    pub session_seed: u64,
}

impl BankRecord {
    /// Build a record from a significant finding, if it carries a
    /// replayable witness with a positive gap (a zero-gap witness is not
    /// adversarial and would only dilute the corpus).
    pub fn from_finding(
        domain: &str,
        finding: &SubspaceFinding,
        job_key: &str,
        session_seed: u64,
    ) -> Option<BankRecord> {
        let witness = finding.witness.as_ref()?;
        if !witness.gap.is_finite() || witness.gap <= 0.0 {
            return None;
        }
        Some(BankRecord {
            schema_version: BANK_SCHEMA_VERSION,
            domain: domain.to_string(),
            instance: witness.input.clone(),
            gap: witness.gap,
            finding: finding.clone(),
            job_key: job_key.to_string(),
            session_seed,
        })
    }
}

/// What a bank sweep removed (merged into the gc report).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BankSweep {
    pub entries_removed: usize,
    pub bytes_reclaimed: u64,
}

/// Size gauges for `/v1/metrics`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct BankInfo {
    pub entries: usize,
    pub bytes: u64,
    /// Verdict of the most recent `bank replay` on this store, if any.
    pub last_replay_pass: Option<bool>,
}

/// Marker the replay gate leaves behind (`<bank>/last_replay`, no `.json`
/// extension so entry listings never confuse it for a record).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
struct ReplayMarker {
    pass: bool,
    total: usize,
}

/// Unique temp names for concurrent writers in one process.
static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// What an entry file looked like when it was parsed:
/// `(length, mtime, inode)`. A changed stamp means a re-parse.
type Stamp = (u64, Option<SystemTime>, u64);

/// Parsed records by entry key, each with the stamp it was parsed at.
type Index = BTreeMap<u64, (Stamp, Arc<BankRecord>)>;

/// The on-disk bank: `<store dir>/bank/{key:016x}.json`, plus the
/// in-memory index of its parsed records that clones share.
#[derive(Clone)]
pub struct RegressionBank {
    dir: PathBuf,
    index: Arc<Mutex<Index>>,
}

impl std::fmt::Debug for RegressionBank {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RegressionBank")
            .field("dir", &self.dir)
            .finish_non_exhaustive()
    }
}

impl RegressionBank {
    /// Bank under the given *store* directory, with an empty index.
    /// Nothing is created until the first insert.
    pub fn new(store_dir: impl AsRef<Path>) -> Self {
        RegressionBank {
            dir: store_dir.as_ref().join("bank"),
            index: Arc::default(),
        }
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Content key: FNV-1a64 over `domain + NUL + instance JSON`. The
    /// finding and provenance deliberately do not participate — two
    /// sessions discovering the same instance dedupe to one record.
    pub fn key(domain: &str, instance: &[f64]) -> u64 {
        let instance_json = serde_json::to_string(&instance.to_vec()).unwrap_or_default();
        let mut h = fnv1a64(domain.as_bytes());
        h = fnv1a64_continue(h, &[0]);
        fnv1a64_continue(h, instance_json.as_bytes())
    }

    /// External id form of a key (16 lowercase hex digits).
    pub fn format_id(key: u64) -> String {
        format!("{key:016x}")
    }

    /// Parse an external id back to a key.
    pub fn parse_id(id: &str) -> Option<u64> {
        if id.len() != 16 || !id.chars().all(|c| c.is_ascii_hexdigit()) {
            return None;
        }
        u64::from_str_radix(id, 16).ok()
    }

    fn entry_path(&self, key: u64) -> PathBuf {
        self.dir.join(format!("{key:016x}.json"))
    }

    /// Insert a record, deduplicating by content key. Returns `true` if
    /// the record was written, `false` if an entry with the same key
    /// already existed (append-only: first write wins, so recorded gaps
    /// are never silently rewritten — also under concurrent inserts,
    /// which the no-replace publish resolves to exactly one `true`).
    pub fn insert(&self, record: &BankRecord) -> io::Result<bool> {
        let key = Self::key(&record.domain, &record.instance);
        let final_path = self.entry_path(key);
        if final_path.exists() {
            return Ok(false);
        }
        fs::create_dir_all(&self.dir)?;
        let bytes = serde_json::to_string(record)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        let tmp = self.dir.join(format!(
            ".{key:016x}.{}.{}.tmp",
            std::process::id(),
            TMP_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        publish_durable_new(&self.dir, &tmp, &final_path, bytes.as_bytes())
    }

    /// Fetch one record by key. `None` for missing or unreadable entries
    /// (degrade philosophy: corruption looks like absence).
    pub fn get(&self, key: u64) -> Option<BankRecord> {
        let text = fs::read_to_string(self.entry_path(key)).ok()?;
        serde_json::from_str(&text).ok()
    }

    /// All parseable records, sorted by key — the canonical iteration
    /// order every consumer (replay, tuner, HTTP listing) shares, so
    /// results never depend on directory enumeration order. Shares the
    /// index's parsed records instead of copying them.
    pub fn records(&self) -> Vec<(u64, Arc<BankRecord>)> {
        // A panicked holder cannot leave the index invalid: every entry
        // pairs a record with the stamp it was parsed at, and the next
        // refresh re-checks all of them against the directory.
        let mut index = self.index.lock().unwrap_or_else(|e| e.into_inner());
        self.refresh(&mut index);
        index
            .iter()
            .map(|(key, (_, record))| (*key, Arc::clone(record)))
            .collect()
    }

    /// [`RegressionBank::records`], deep-copied.
    pub fn entries(&self) -> Vec<(u64, BankRecord)> {
        self.records()
            .into_iter()
            .map(|(key, record)| (key, BankRecord::clone(&record)))
            .collect()
    }

    /// Bring the index in line with the directory: one listing, a parse
    /// only for new or re-stamped files, and removal of every key whose
    /// file is gone or no longer parses.
    fn refresh(&self, index: &mut Index) {
        let mut listed: BTreeMap<u64, Stamp> = BTreeMap::new();
        if let Ok(read) = fs::read_dir(&self.dir) {
            for entry in read.filter_map(|e| e.ok()) {
                let Some(key) = Self::entry_key(&entry.path()) else {
                    continue;
                };
                if let Ok(meta) = entry.metadata() {
                    listed.insert(key, (meta.len(), meta.modified().ok(), inode(&meta)));
                }
            }
        }
        index.retain(|key, (stamp, _)| listed.get(key) == Some(stamp));
        for (key, stamp) in listed {
            if index.contains_key(&key) {
                continue;
            }
            if let Some(record) = self.get(key) {
                index.insert(key, (stamp, Arc::new(record)));
            }
        }
    }

    /// Number of entry files (parseable or not).
    pub fn len(&self) -> usize {
        self.keys_on_disk().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total size of entry files on disk.
    pub fn bytes(&self) -> u64 {
        let Ok(read) = fs::read_dir(&self.dir) else {
            return 0;
        };
        read.filter_map(|e| e.ok())
            .filter(|e| e.path().extension().is_some_and(|x| x == "json"))
            .filter_map(|e| e.metadata().ok())
            .map(|m| m.len())
            .sum()
    }

    /// Size gauges for `/v1/metrics`.
    pub fn info(&self) -> BankInfo {
        BankInfo {
            entries: self.len(),
            bytes: self.bytes(),
            last_replay_pass: self.last_replay_pass(),
        }
    }

    /// Drop entries no current deployment can interpret: unknown (or
    /// unreadable) `schema_version`, or a domain absent from
    /// `known_domains` (typically `DomainRegistry::ids()`). Entries that
    /// are valid for a registered domain are never touched.
    pub fn sweep(&self, known_domains: &[String]) -> BankSweep {
        let mut swept = BankSweep::default();
        for key in self.keys_on_disk() {
            let path = self.entry_path(key);
            let keep = fs::read_to_string(&path)
                .ok()
                .and_then(|text| serde_json::from_str::<BankRecord>(&text).ok())
                .is_some_and(|r| {
                    r.schema_version == BANK_SCHEMA_VERSION
                        && known_domains.iter().any(|d| d == &r.domain)
                });
            if keep {
                continue;
            }
            let size = fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
            if fs::remove_file(&path).is_ok() {
                swept.entries_removed += 1;
                swept.bytes_reclaimed += size;
            }
        }
        swept
    }

    /// Record the verdict of a replay run (durably, so `/v1/metrics`
    /// reports it across restarts).
    pub fn record_replay(&self, pass: bool, total: usize) -> io::Result<()> {
        fs::create_dir_all(&self.dir)?;
        let marker = ReplayMarker { pass, total };
        let bytes = serde_json::to_string(&marker)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        let tmp = self.dir.join(format!(
            ".last_replay.{}.{}.tmp",
            std::process::id(),
            TMP_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        publish_durable(
            &self.dir,
            &tmp,
            &self.dir.join("last_replay"),
            bytes.as_bytes(),
        )
    }

    /// Verdict of the most recent replay, if one ever ran here.
    pub fn last_replay_pass(&self) -> Option<bool> {
        let text = fs::read_to_string(self.dir.join("last_replay")).ok()?;
        serde_json::from_str::<ReplayMarker>(&text)
            .ok()
            .map(|m| m.pass)
    }

    /// Keys of every `{16 hex}.json` file present.
    fn keys_on_disk(&self) -> Vec<u64> {
        let Ok(read) = fs::read_dir(&self.dir) else {
            return Vec::new();
        };
        read.filter_map(|e| e.ok())
            .filter_map(|e| Self::entry_key(&e.path()))
            .collect()
    }

    /// The key an entry file is named by, if `path` is `{16 hex}.json`.
    fn entry_key(path: &Path) -> Option<u64> {
        if path.extension().is_none_or(|x| x != "json") {
            return None;
        }
        Self::parse_id(path.file_stem()?.to_str()?)
    }
}

#[cfg(unix)]
fn inode(meta: &fs::Metadata) -> u64 {
    std::os::unix::fs::MetadataExt::ino(meta)
}

#[cfg(not(unix))]
fn inode(_meta: &fs::Metadata) -> u64 {
    0
}

#[cfg(test)]
mod tests {
    use super::*;
    use xplain_core::pipeline::Witness;
    use xplain_core::subspace::Subspace;

    fn scratch_dir(tag: &str) -> PathBuf {
        let mut dir = std::env::temp_dir();
        dir.push(format!(
            "xplain-bank-{tag}-{}-{}",
            std::process::id(),
            TMP_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        dir
    }

    fn finding(input: Vec<f64>, gap: f64) -> SubspaceFinding {
        let lo: Vec<f64> = input.iter().map(|v| v - 1.0).collect();
        let hi: Vec<f64> = input.iter().map(|v| v + 1.0).collect();
        SubspaceFinding {
            subspace: Subspace::from_rough_box(lo, hi, input.clone(), gap),
            significance: None,
            explanation: None,
            witness: Some(Witness { input, gap }),
        }
    }

    fn record(domain: &str, input: Vec<f64>, gap: f64) -> BankRecord {
        BankRecord::from_finding(domain, &finding(input, gap), "00000000000000ab", 7)
            .expect("positive-gap witness banks")
    }

    #[test]
    fn insert_roundtrips_and_dedupes() {
        let root = scratch_dir("roundtrip");
        let bank = RegressionBank::new(&root);
        assert!(bank.is_empty());
        let rec = record("dp", vec![50.0, 100.0, 100.0], 100.0);
        assert!(bank.insert(&rec).unwrap());
        assert!(!bank.insert(&rec).unwrap(), "same content key dedupes");
        assert_eq!(bank.len(), 1);
        let key = RegressionBank::key("dp", &[50.0, 100.0, 100.0]);
        let back = bank.get(key).expect("entry readable");
        assert_eq!(back.domain, "dp");
        assert_eq!(back.instance, vec![50.0, 100.0, 100.0]);
        assert_eq!(back.gap, 100.0);
        assert_eq!(back.job_key, "00000000000000ab");
        assert_eq!(back.session_seed, 7);
        assert!(bank.bytes() > 0);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn concurrent_inserts_of_one_key_have_exactly_one_winner() {
        const WRITERS: usize = 8;
        for trial in 0..20 {
            let root = scratch_dir("race");
            let barrier = std::sync::Barrier::new(WRITERS);
            let outcomes: Vec<(String, bool)> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..WRITERS)
                    .map(|w| {
                        let (root, barrier) = (&root, &barrier);
                        s.spawn(move || {
                            let mut rec = record("dp", vec![trial as f64, 1.0, 2.0], 5.0);
                            rec.job_key = format!("{w:016x}");
                            let bank = RegressionBank::new(root);
                            barrier.wait();
                            (rec.job_key.clone(), bank.insert(&rec).unwrap())
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            let winners: Vec<&String> = outcomes
                .iter()
                .filter(|(_, won)| *won)
                .map(|(job_key, _)| job_key)
                .collect();
            assert_eq!(winners.len(), 1, "trial {trial}: winners {winners:?}");
            let key = RegressionBank::key("dp", &[trial as f64, 1.0, 2.0]);
            let on_disk = RegressionBank::new(&root)
                .get(key)
                .expect("winner published");
            assert_eq!(&on_disk.job_key, winners[0], "trial {trial}");
            let _ = fs::remove_dir_all(&root);
        }
    }

    #[test]
    fn key_ignores_provenance_and_finding() {
        let a = record("dp", vec![1.0, 2.0], 3.0);
        let mut b = a.clone();
        b.job_key = "ffffffffffffffff".into();
        b.session_seed = 99;
        b.gap = 4.0;
        assert_eq!(
            RegressionBank::key(&a.domain, &a.instance),
            RegressionBank::key(&b.domain, &b.instance)
        );
        // Different domain or instance ⇒ different key.
        assert_ne!(
            RegressionBank::key("dp", &[1.0, 2.0]),
            RegressionBank::key("ff", &[1.0, 2.0])
        );
        assert_ne!(
            RegressionBank::key("dp", &[1.0, 2.0]),
            RegressionBank::key("dp", &[1.0, 2.5])
        );
    }

    #[test]
    fn zero_gap_witness_does_not_bank() {
        assert!(BankRecord::from_finding("dp", &finding(vec![1.0], 0.0), "k", 0).is_none());
        let mut no_witness = finding(vec![1.0], 1.0);
        no_witness.witness = None;
        assert!(BankRecord::from_finding("dp", &no_witness, "k", 0).is_none());
    }

    #[test]
    fn entries_sorted_by_key() {
        let root = scratch_dir("sorted");
        let bank = RegressionBank::new(&root);
        for i in 0..6 {
            bank.insert(&record("sched", vec![i as f64, 2.0], 1.0))
                .unwrap();
        }
        let entries = bank.entries();
        assert_eq!(entries.len(), 6);
        let keys: Vec<u64> = entries.iter().map(|(k, _)| *k).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted);
        let _ = fs::remove_dir_all(&root);
    }

    /// Keys and record bytes of a listing, for byte-level comparison.
    fn snapshot(entries: &[(u64, BankRecord)]) -> Vec<(u64, String)> {
        entries
            .iter()
            .map(|(key, r)| (*key, serde_json::to_string(r).unwrap()))
            .collect()
    }

    /// A warm handle must list exactly what a fresh handle parses from
    /// disk, whatever other handles (or processes) did in between.
    fn assert_matches_fresh(warm: &RegressionBank, root: &Path, step: &str) {
        let fresh = RegressionBank::new(root).entries();
        assert_eq!(snapshot(&warm.entries()), snapshot(&fresh), "after {step}");
        let keys: Vec<u64> = warm.records().iter().map(|(k, _)| *k).collect();
        assert!(
            keys.windows(2).all(|w| w[0] < w[1]),
            "after {step}: keys not strictly ascending"
        );
    }

    #[test]
    fn warm_index_matches_a_fresh_parse_after_outside_changes() {
        let root = scratch_dir("index");
        let warm = RegressionBank::new(&root);
        let other = RegressionBank::new(&root);
        for i in 0..4 {
            other
                .insert(&record("dp", vec![i as f64, 3.0], 2.0))
                .unwrap();
        }
        assert_eq!(warm.entries().len(), 4);
        let before = warm.records();
        let again = warm.records();
        assert!(
            before
                .iter()
                .zip(&again)
                .all(|(a, b)| Arc::ptr_eq(&a.1, &b.1)),
            "unchanged files must not be re-parsed"
        );

        other.insert(&record("dp", vec![9.0, 3.0], 2.0)).unwrap();
        other.insert(&record("retired", vec![1.0], 2.0)).unwrap();
        assert_matches_fresh(&warm, &root, "an insert through another handle");
        assert_eq!(warm.entries().len(), 6);

        let swept = other.sweep(&["dp".to_string()]);
        assert_eq!(swept.entries_removed, 1);
        assert_matches_fresh(&warm, &root, "a sweep through another handle");
        assert_eq!(warm.entries().len(), 5);

        let target = RegressionBank::key("dp", &[1.0, 3.0]);
        let path = warm.entry_path(target);
        let mut replaced = record("dp", vec![1.0, 3.0], 2.0);
        replaced.job_key = "replacement-with-a-longer-job-key".into();
        fs::write(&path, serde_json::to_string(&replaced).unwrap()).unwrap();
        assert_matches_fresh(&warm, &root, "an in-place replacement");
        let listed = warm.entries();
        let (_, now) = listed.iter().find(|(k, _)| *k == target).unwrap();
        assert_eq!(now.job_key, replaced.job_key);

        fs::write(&path, "{\"schema_version\": 1, \"dom").unwrap();
        assert_matches_fresh(&warm, &root, "a truncation to garbage");
        assert!(warm.records().iter().all(|(k, _)| *k != target));
        assert_eq!(warm.len(), 5, "the garbage file is still an entry file");

        fs::remove_file(warm.entry_path(RegressionBank::key("dp", &[0.0, 3.0]))).unwrap();
        assert_matches_fresh(&warm, &root, "a deletion");
        assert_eq!(warm.entries().len(), 3);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn sweep_drops_unknown_schema_and_unregistered_domains() {
        let root = scratch_dir("sweep");
        let bank = RegressionBank::new(&root);
        bank.insert(&record("dp", vec![1.0], 2.0)).unwrap();
        let mut stale = record("dp", vec![9.0], 2.0);
        stale.schema_version = BANK_SCHEMA_VERSION + 1;
        // Route around `insert`'s stamping-by-construction via a raw write.
        let stale_key = RegressionBank::key(&stale.domain, &stale.instance);
        fs::write(
            bank.dir().join(format!("{stale_key:016x}.json")),
            serde_json::to_string(&stale).unwrap(),
        )
        .unwrap();
        bank.insert(&record("retired-domain", vec![1.0], 2.0))
            .unwrap();

        assert_eq!(bank.len(), 3);
        let swept = bank.sweep(&["dp".to_string(), "ff".to_string()]);
        assert_eq!(swept.entries_removed, 2);
        assert!(swept.bytes_reclaimed > 0);
        assert_eq!(bank.len(), 1);
        assert_eq!(bank.entries()[0].1.domain, "dp");
        // Idempotent on a clean bank.
        assert_eq!(bank.sweep(&["dp".to_string()]), BankSweep::default());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn replay_marker_roundtrips_and_is_not_an_entry() {
        let root = scratch_dir("marker");
        let bank = RegressionBank::new(&root);
        assert_eq!(bank.last_replay_pass(), None);
        bank.record_replay(true, 3).unwrap();
        assert_eq!(bank.last_replay_pass(), Some(true));
        bank.record_replay(false, 3).unwrap();
        assert_eq!(bank.last_replay_pass(), Some(false));
        assert_eq!(bank.len(), 0, "marker must not count as an entry");
        let info = bank.info();
        assert_eq!(info.entries, 0);
        assert_eq!(info.last_replay_pass, Some(false));
        let _ = fs::remove_dir_all(&root);
    }
}
