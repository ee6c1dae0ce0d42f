//! # wyt-store — on-disk content-addressed artifact store
//!
//! Traced results are expensive to derive and cheap to reuse: a merged
//! trace, a lifted module and a validated recompiled image are all pure
//! functions of (input binary, input set, pipeline config). This crate persists them between processes so a second
//! recompile of the same job is a warm cache hit and healing coverage
//! accumulates across runs instead of evaporating at process exit.
//!
//! Design rules:
//!
//! - **Content-addressed.** An entry's key is the SHA-256 of a canonical
//!   JSON encoding of everything the cached result depends on (see
//!   [`Store::derive_key`]); the store never guesses at freshness.
//! - **Zero trust on read.** Every [`Store::get`] re-checks the format
//!   version, the kind and key recorded inside the entry, and a SHA-256
//!   checksum over the payload. Anything off — truncation, bit flips,
//!   version skew, a hand-edited file — is reported as
//!   [`Lookup::Corrupt`] and the caller recompiles cold. A poisoned
//!   store must never produce a wrong image, only a slower run.
//! - **Deterministic bytes.** Entries carry no timestamps; the eviction
//!   order is FIFO over a caller-supplied `stamp`, so a serial and a
//!   parallel batch run leave byte-identical stores behind.
//! - **Zero dependencies.** Serialization is the in-tree `wyt-obs` JSON;
//!   hashing is the in-tree [`hash::sha256`]. Builds `--offline` forever.
//!
//! The store itself is type-agnostic: it moves validated [`Json`]
//! payloads. The codecs for images, traces and accumulated input sets
//! live in `wyt_core::artifact`; the batch frontend that shares one store across
//! a job queue lives in `wyt_core::batch`.

pub mod fsys;
pub mod hash;

pub use fsys::{is_transient, FaultFs, FaultPlan, RealFs, StoreFs};
pub use hash::{sha256, sha256_hex, to_hex};

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use wyt_obs::Json;

/// On-disk format version; bumped on any incompatible entry change.
/// Entries recording a different version are rejected as corrupt (a
/// downgrade must not reinterpret newer entries either).
pub const FORMAT_VERSION: u64 = 2;

/// Environment variable naming the store root directory.
pub const STORE_ENV: &str = "WYT_STORE";

/// Environment variable capping the number of evictable entries kept by
/// `evict_to_env_cap` callers.
pub const CAP_ENV: &str = "WYT_STORE_CAP";

/// Environment variable capping how many files `<root>/quarantine/`
/// retains. Oldest quarantined files (FIFO by quarantine order) are
/// deleted past the cap, so a stream of hostile artifacts cannot grow
/// the quarantine without bound. Default [`DEFAULT_QUARANTINE_CAP`].
pub const QUARANTINE_CAP_ENV: &str = "WYT_STORE_QUARANTINE_CAP";

/// Default ceiling on retained quarantine files.
pub const DEFAULT_QUARANTINE_CAP: usize = 256;

/// Entry kind whose members are exempt from eviction: accumulated
/// cross-run knowledge (an image's union input set) is tiny and
/// monotonically valuable, unlike cached result images.
pub const FACTS_KIND: &str = "facts";

/// The result of a store lookup.
#[derive(Debug)]
pub enum Lookup {
    /// The entry exists and passed every integrity check; this is its
    /// payload.
    Hit(Json),
    /// No entry under this key.
    Miss,
    /// An entry exists but failed an integrity check (parse error,
    /// version skew, kind/key mismatch, checksum mismatch). The caller
    /// must fall back to a cold run; a subsequent [`Store::put`]
    /// overwrites the bad entry.
    Corrupt(String),
}

/// Monotonic per-store operation counters (process lifetime).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreCounters {
    /// Lookups that returned a validated payload.
    pub hits: u64,
    /// Lookups that found no entry.
    pub misses: u64,
    /// Lookups (or caller rejections via [`Store::note_corrupt`]) that
    /// found an entry but refused it.
    pub corrupt: u64,
    /// Entries written.
    pub puts: u64,
    /// Entries removed by [`Store::evict_to`].
    pub evictions: u64,
    /// Transient I/O failures that were retried.
    pub io_retry: u64,
    /// Transient I/O failures observed (retried or not).
    pub io_transient: u64,
    /// I/O failures given up on: retries exhausted, or a non-transient
    /// error other than not-found.
    pub io_fatal: u64,
}

impl StoreCounters {
    /// The counts accumulated since `base` (an earlier
    /// [`Store::counters`] snapshot of the same store). Scoped reporting
    /// — tests and smoke runs bracket a region and report just that
    /// region's activity instead of process-lifetime totals. Saturating,
    /// so a mismatched baseline degrades to zeros rather than wrapping.
    pub fn delta_since(&self, base: &StoreCounters) -> StoreCounters {
        StoreCounters {
            hits: self.hits.saturating_sub(base.hits),
            misses: self.misses.saturating_sub(base.misses),
            corrupt: self.corrupt.saturating_sub(base.corrupt),
            puts: self.puts.saturating_sub(base.puts),
            evictions: self.evictions.saturating_sub(base.evictions),
            io_retry: self.io_retry.saturating_sub(base.io_retry),
            io_transient: self.io_transient.saturating_sub(base.io_transient),
            io_fatal: self.io_fatal.saturating_sub(base.io_fatal),
        }
    }

    /// `{hits, misses, corrupt, puts, evictions, io_retry,
    /// io_transient, io_fatal}`.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("hits", Json::from(self.hits)),
            ("misses", Json::from(self.misses)),
            ("corrupt", Json::from(self.corrupt)),
            ("puts", Json::from(self.puts)),
            ("evictions", Json::from(self.evictions)),
            ("io_retry", Json::from(self.io_retry)),
            ("io_transient", Json::from(self.io_transient)),
            ("io_fatal", Json::from(self.io_fatal)),
        ])
    }
}

/// What [`Store::fsck`] found and repaired at `open`. Quarantined files
/// are moved (not deleted) to `<root>/quarantine/`, which no lookup or
/// scan ever reads — a quarantined entry can only be re-served after a
/// fresh [`Store::put`] rewrites its slot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FsckReport {
    /// Well-formed-looking entry files examined.
    pub scanned: u64,
    /// Entries that passed full validation.
    pub ok: u64,
    /// Orphaned `*.tmp` files swept to quarantine (a crash between
    /// tmp-write and rename).
    pub tmp_swept: u64,
    /// Entry files that failed validation (truncated envelope, version
    /// skew, checksum mismatch, misfiled kind/key) moved to quarantine.
    pub quarantined: u64,
    /// Foreign files under `objects/` (not ours; skipped, left alone).
    pub foreign: u64,
    /// Files or directories that could not be read during the sweep
    /// (left in place; later gets still validate end-to-end).
    pub unreadable: u64,
}

impl FsckReport {
    /// `{scanned, ok, tmp_swept, quarantined, foreign, unreadable}`.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("scanned", Json::from(self.scanned)),
            ("ok", Json::from(self.ok)),
            ("tmp_swept", Json::from(self.tmp_swept)),
            ("quarantined", Json::from(self.quarantined)),
            ("foreign", Json::from(self.foreign)),
            ("unreadable", Json::from(self.unreadable)),
        ])
    }
}

/// One entry's identity, as listed by [`Store::entries`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EntryInfo {
    /// Entry kind (`"artifact"`, `"healed"`, [`FACTS_KIND`], ...).
    pub kind: String,
    /// Content-address (64 hex chars).
    pub key: String,
    /// Caller-supplied FIFO stamp (0 for entries whose header cannot be
    /// read — corrupt entries sort first and are evicted first).
    pub stamp: u64,
}

/// Bounded retry policy for transient I/O: total attempts per
/// operation. Injected fault schedules ([`FaultPlan::max_fails`]) stay
/// below `IO_ATTEMPTS - 1` so every transient fault is absorbed.
const IO_ATTEMPTS: u32 = 4;

/// Capped exponential backoff between retries, in microseconds
/// (200 → 400 → 800). Sleeping never affects any output byte, so the
/// determinism contract is untouched.
const BACKOFF_BASE_US: u64 = 200;
const BACKOFF_CAP_US: u64 = 800;

/// An on-disk content-addressed artifact store rooted at one directory.
#[derive(Debug)]
pub struct Store {
    root: PathBuf,
    fs: Box<dyn StoreFs>,
    fsck: FsckReport,
    /// Next FIFO sequence number for quarantine filenames
    /// (`<seq:08>-<name>`); resumes past the largest prefix on disk.
    quarantine_seq: AtomicU64,
    /// Retained-quarantine-file ceiling ([`QUARANTINE_CAP_ENV`]).
    quarantine_cap: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    corrupt: AtomicU64,
    puts: AtomicU64,
    evictions: AtomicU64,
    io_retry: AtomicU64,
    io_transient: AtomicU64,
    io_fatal: AtomicU64,
}

impl Store {
    /// Open (creating if needed) a store rooted at `root`, running
    /// [`Store::fsck`] over whatever a previous process left behind.
    ///
    /// # Errors
    /// Propagates directory-creation failures.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<Store> {
        Store::open_with(root, Box::new(RealFs))
    }

    /// [`Store::open`] with an explicit filesystem — chaos tests pass a
    /// [`FaultFs`] here.
    ///
    /// # Errors
    /// Propagates directory-creation failures.
    pub fn open_with(root: impl Into<PathBuf>, fs: Box<dyn StoreFs>) -> io::Result<Store> {
        let root = root.into();
        fs.create_dir_all(&root.join("objects"))?;
        let mut store = Store {
            root,
            fs,
            fsck: FsckReport::default(),
            quarantine_seq: AtomicU64::new(0),
            quarantine_cap: wyt_obs::env::env_usize(QUARANTINE_CAP_ENV, DEFAULT_QUARANTINE_CAP),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            corrupt: AtomicU64::new(0),
            puts: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            io_retry: AtomicU64::new(0),
            io_transient: AtomicU64::new(0),
            io_fatal: AtomicU64::new(0),
        };
        store.quarantine_seq = AtomicU64::new(store.scan_quarantine_seq());
        store.fsck = store.fsck_sweep();
        Ok(store)
    }

    /// Open the store named by [`STORE_ENV`], if set.
    ///
    /// # Errors
    /// Propagates [`Store::open`] failures (inside the `Some`).
    pub fn open_env() -> Option<io::Result<Store>> {
        std::env::var_os(STORE_ENV).map(Store::open)
    }

    /// Root directory of this store.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Derive a content-address: the SHA-256 of a canonical JSON
    /// document binding the format version, the entry kind and every
    /// named input the cached result depends on. Member order is part of
    /// the encoding, so callers must pass `parts` in a fixed order.
    pub fn derive_key(kind: &str, parts: Vec<(&str, Json)>) -> String {
        let mut members =
            vec![("wyt_store", Json::from(FORMAT_VERSION)), ("kind", Json::from(kind))];
        members.extend(parts);
        sha256_hex(Json::obj(members).to_string().as_bytes())
    }

    /// `objects/<key[..2]>/<key>.<kind>.json` — two-level fan-out keeps
    /// directory listings short without affecting determinism.
    fn path_for(&self, kind: &str, key: &str) -> PathBuf {
        let shard = key.get(..2).unwrap_or("xx");
        self.root.join("objects").join(shard).join(format!("{key}.{kind}.json"))
    }

    /// Look up `(kind, key)`, re-validating the entry end to end.
    pub fn get(&self, kind: &str, key: &str) -> Lookup {
        let _s = wyt_obs::Span::enter("store.get");
        let path = self.path_for(kind, key);
        let text = match self.retry_io(|| self.fs.read_to_string(&path)) {
            Ok(t) => t,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                wyt_obs::counter("store.miss", 1);
                return Lookup::Miss;
            }
            // A persistently flaky read is an availability problem, not
            // evidence the entry is bad: degrade to a cold miss and
            // leave `corrupt` for genuine integrity failures.
            Err(e) if is_transient(&e) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                wyt_obs::counter("store.miss", 1);
                return Lookup::Miss;
            }
            Err(e) => return self.reject(format!("read {}: {e}", path.display())),
        };
        match check_entry_text(kind, key, &text) {
            Ok(payload) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                wyt_obs::counter("store.hit", 1);
                Lookup::Hit(payload)
            }
            Err(why) => self.reject(format!("{}: {why}", path.display())),
        }
    }

    /// Run `f`, retrying transient failures ([`is_transient`]) up to
    /// [`IO_ATTEMPTS`] total attempts with capped exponential backoff.
    fn retry_io<T>(&self, mut f: impl FnMut() -> io::Result<T>) -> io::Result<T> {
        let mut delay = BACKOFF_BASE_US;
        let mut attempt = 1;
        loop {
            match f() {
                Ok(v) => return Ok(v),
                Err(e) if is_transient(&e) => {
                    self.io_transient.fetch_add(1, Ordering::Relaxed);
                    wyt_obs::counter("store.io.transient", 1);
                    if attempt >= IO_ATTEMPTS {
                        self.io_fatal.fetch_add(1, Ordering::Relaxed);
                        wyt_obs::counter("store.io.fatal", 1);
                        return Err(e);
                    }
                    self.io_retry.fetch_add(1, Ordering::Relaxed);
                    wyt_obs::counter("store.io.retry", 1);
                    std::thread::sleep(std::time::Duration::from_micros(delay));
                    delay = (delay * 2).min(BACKOFF_CAP_US);
                    attempt += 1;
                }
                Err(e) => {
                    if e.kind() != io::ErrorKind::NotFound {
                        self.io_fatal.fetch_add(1, Ordering::Relaxed);
                        wyt_obs::counter("store.io.fatal", 1);
                    }
                    return Err(e);
                }
            }
        }
    }

    /// Record a corrupt/rejected entry and build the [`Lookup`] for it.
    fn reject(&self, why: String) -> Lookup {
        self.note_corrupt();
        Lookup::Corrupt(why)
    }

    /// Count a caller-side rejection: an entry that passed the byte-level
    /// checks but failed structural decoding or behavioural validation
    /// (a logically poisoned payload). Callers bump this before falling
    /// back to a cold run so `store.corrupt` covers every rejection path.
    pub fn note_corrupt(&self) {
        self.corrupt.fetch_add(1, Ordering::Relaxed);
        wyt_obs::counter("store.corrupt", 1);
    }

    /// Write `(kind, key)` with the given FIFO `stamp`, overwriting any
    /// existing entry. The write is atomic (temp file + rename) and the
    /// bytes are a pure function of the arguments.
    ///
    /// # Errors
    /// Propagates filesystem failures.
    pub fn put(&self, kind: &str, key: &str, stamp: u64, payload: Json) -> io::Result<()> {
        let _s = wyt_obs::Span::enter("store.put");
        let checksum = sha256_hex(payload.to_string().as_bytes());
        let entry = Json::obj(vec![
            ("wyt_store", Json::from(FORMAT_VERSION)),
            ("kind", Json::from(kind)),
            ("key", Json::from(key)),
            ("stamp", Json::from(stamp)),
            ("checksum", Json::from(checksum.as_str())),
            ("payload", payload),
        ]);
        let path = self.path_for(kind, key);
        let parent = path.parent().expect("entry path has a parent");
        self.retry_io(|| self.fs.create_dir_all(parent))?;
        let tmp = path.with_extension("json.tmp");
        let bytes = format!("{}\n", entry.pretty());
        self.retry_io(|| self.fs.write(&tmp, bytes.as_bytes()))?;
        self.retry_io(|| self.fs.rename(&tmp, &path))?;
        self.puts.fetch_add(1, Ordering::Relaxed);
        wyt_obs::counter("store.put", 1);
        Ok(())
    }

    /// This process's operation counters.
    pub fn counters(&self) -> StoreCounters {
        StoreCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            corrupt: self.corrupt.load(Ordering::Relaxed),
            puts: self.puts.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            io_retry: self.io_retry.load(Ordering::Relaxed),
            io_transient: self.io_transient.load(Ordering::Relaxed),
            io_fatal: self.io_fatal.load(Ordering::Relaxed),
        }
    }

    /// What fsck found (and repaired) when this store was opened.
    pub fn fsck_report(&self) -> FsckReport {
        self.fsck
    }

    /// Sweep `objects/` for crash droppings: orphaned `*.tmp` files and
    /// entries failing full validation move to `<root>/quarantine/`;
    /// foreign and unreadable files are counted and left alone. Runs at
    /// [`Store::open`], so a killed process never poisons later runs —
    /// after fsck a lookup is a validated hit or a clean cold miss,
    /// never a warm serve of a half-written entry.
    fn fsck_sweep(&self) -> FsckReport {
        let mut rep = FsckReport::default();
        let objects = self.root.join("objects");
        let Ok(mut shards) = self.fs.read_dir(&objects) else {
            rep.unreadable += 1;
            return rep;
        };
        shards.sort();
        for shard in shards {
            if !shard.is_dir() {
                rep.foreign += 1;
                continue;
            }
            let Ok(mut files) = self.fs.read_dir(&shard) else {
                rep.unreadable += 1;
                continue;
            };
            files.sort();
            for file in files {
                let name = match file.file_name() {
                    Some(n) => n.to_string_lossy().into_owned(),
                    None => continue,
                };
                if name.ends_with(".tmp") {
                    if self.quarantine_file(&file, &name) {
                        rep.tmp_swept += 1;
                    } else {
                        rep.unreadable += 1;
                    }
                    continue;
                }
                let id = name.strip_suffix(".json").and_then(|stem| stem.split_once('.'));
                let Some((key, kind)) = id else {
                    rep.foreign += 1;
                    continue;
                };
                rep.scanned += 1;
                match self.fs.read_to_string(&file) {
                    Err(_) => rep.unreadable += 1,
                    Ok(text) => match check_entry_text(kind, key, &text) {
                        Ok(_) => rep.ok += 1,
                        Err(_) => {
                            if self.quarantine_file(&file, &name) {
                                rep.quarantined += 1;
                            } else {
                                rep.unreadable += 1;
                            }
                        }
                    },
                }
            }
        }
        wyt_obs::counter("store.fsck.tmp_swept", rep.tmp_swept);
        wyt_obs::counter("store.fsck.quarantined", rep.quarantined);
        wyt_obs::counter("store.fsck.foreign", rep.foreign);
        wyt_obs::counter("store.fsck.unreadable", rep.unreadable);
        rep
    }

    /// Move `from` into `<root>/quarantine/` as `<seq:08>-<name>` (best
    /// effort), then drop the oldest quarantined files past the cap so
    /// a stream of hostile artifacts cannot grow the directory without
    /// bound.
    fn quarantine_file(&self, from: &Path, name: &str) -> bool {
        let qdir = self.root.join("quarantine");
        if self.fs.create_dir_all(&qdir).is_err() {
            return false;
        }
        let seq = self.quarantine_seq.fetch_add(1, Ordering::Relaxed);
        if self.fs.rename(from, &qdir.join(format!("{seq:08}-{name}"))).is_err() {
            return false;
        }
        self.enforce_quarantine_cap(&qdir);
        true
    }

    /// Largest quarantine filename sequence prefix on disk, plus one
    /// (0 for a fresh or legacy quarantine directory).
    fn scan_quarantine_seq(&self) -> u64 {
        let Ok(files) = self.fs.read_dir(&self.root.join("quarantine")) else {
            return 0;
        };
        files
            .iter()
            .filter_map(|f| f.file_name())
            .filter_map(|n| n.to_string_lossy().split('-').next()?.parse::<u64>().ok())
            .map(|seq| seq + 1)
            .max()
            .unwrap_or(0)
    }

    /// Delete the lexicographically smallest (oldest-sequence) files in
    /// `qdir` until at most [`Self::quarantine_cap`] remain. Counted as
    /// `store.fsck.quarantine_evicted`.
    fn enforce_quarantine_cap(&self, qdir: &Path) {
        let Ok(mut files) = self.fs.read_dir(qdir) else {
            return;
        };
        if files.len() <= self.quarantine_cap {
            return;
        }
        files.sort();
        let excess = files.len() - self.quarantine_cap;
        let mut evicted = 0u64;
        for f in files.iter().take(excess) {
            if self.fs.remove_file(f).is_ok() {
                evicted += 1;
            }
        }
        if evicted > 0 {
            wyt_obs::counter("store.fsck.quarantine_evicted", evicted);
        }
    }

    /// Every entry on disk, sorted by `(stamp, kind, key)` — the eviction
    /// order. Entries whose header cannot be read sort first (stamp 0).
    /// Foreign files (wrong name shape) and unreadable shard directories
    /// are skipped and counted (`store.scan.foreign` /
    /// `store.scan.unreadable`) rather than failing the whole scan.
    ///
    /// # Errors
    /// Propagates a walk failure on `objects/` itself.
    pub fn entries(&self) -> io::Result<Vec<EntryInfo>> {
        let mut out = Vec::new();
        let objects = self.root.join("objects");
        for shard in self.fs.read_dir(&objects)? {
            if !shard.is_dir() {
                wyt_obs::counter("store.scan.foreign", 1);
                continue;
            }
            let Ok(files) = self.fs.read_dir(&shard) else {
                wyt_obs::counter("store.scan.unreadable", 1);
                continue;
            };
            for file in files {
                let name = match file.file_name() {
                    Some(n) => n.to_string_lossy().into_owned(),
                    None => continue,
                };
                // Identity comes from the filename (<key>.<kind>.json) so
                // corrupt entries are still enumerable and evictable.
                let id = name.strip_suffix(".json").and_then(|stem| stem.split_once('.'));
                let Some((key, kind)) = id else {
                    wyt_obs::counter("store.scan.foreign", 1);
                    continue;
                };
                let header =
                    self.fs.read_to_string(&file).ok().and_then(|t| wyt_obs::json::parse(&t).ok());
                let stamp = header
                    .as_ref()
                    .and_then(|h| h.get("stamp"))
                    .and_then(Json::as_u64)
                    .unwrap_or(0);
                out.push(EntryInfo { kind: kind.to_string(), key: key.to_string(), stamp });
            }
        }
        out.sort_by(|a, b| (a.stamp, &a.kind, &a.key).cmp(&(b.stamp, &b.kind, &b.key)));
        Ok(out)
    }

    /// Evict oldest-stamped entries until at most `cap` evictable entries
    /// remain. [`FACTS_KIND`] entries are exempt (accumulated knowledge
    /// is never dropped). An entry whose removal fails is counted
    /// (`store.evict.failed`) and skipped — one stuck file must not
    /// abort the sweep. Returns how many entries were removed.
    ///
    /// # Errors
    /// Propagates a walk failure on `objects/` itself.
    pub fn evict_to(&self, cap: usize) -> io::Result<u64> {
        let evictable: Vec<EntryInfo> =
            self.entries()?.into_iter().filter(|e| e.kind != FACTS_KIND).collect();
        let mut removed = 0u64;
        if evictable.len() > cap {
            for e in &evictable[..evictable.len() - cap] {
                let path = self.path_for(&e.kind, &e.key);
                match self.retry_io(|| self.fs.remove_file(&path)) {
                    Ok(()) => removed += 1,
                    Err(e) if e.kind() == io::ErrorKind::NotFound => removed += 1,
                    Err(_) => wyt_obs::counter("store.evict.failed", 1),
                }
            }
        }
        if removed > 0 {
            self.evictions.fetch_add(removed, Ordering::Relaxed);
            wyt_obs::counter("store.evict", removed);
        }
        Ok(removed)
    }
}

/// Validate one entry's raw text end to end — parse, format version,
/// kind/key identity, payload checksum — returning the payload. Public
/// so ingestion hardening can drive arbitrary bytes through the exact
/// validation [`Store::get`] uses.
///
/// # Errors
/// A human-readable description of the first failed check.
pub fn validate_entry_text(kind: &str, key: &str, text: &str) -> Result<Json, String> {
    check_entry_text(kind, key, text)
}

/// Validate one entry's raw text end to end — parse, format version,
/// kind/key identity, payload checksum — returning the payload.
/// Shared by [`Store::get`] and fsck so the two can never disagree on
/// what "valid" means.
///
/// # Errors
/// A human-readable description of the first failed check.
fn check_entry_text(kind: &str, key: &str, text: &str) -> Result<Json, String> {
    let entry = wyt_obs::json::parse(text).map_err(|e| e.to_string())?;
    if entry.get("wyt_store").and_then(Json::as_u64) != Some(FORMAT_VERSION) {
        return Err("format version skew".to_string());
    }
    if entry.get("kind").and_then(Json::as_str) != Some(kind)
        || entry.get("key").and_then(Json::as_str) != Some(key)
    {
        return Err("kind/key mismatch".to_string());
    }
    let Some(payload) = entry.get("payload") else {
        return Err("no payload".to_string());
    };
    let checksum = entry.get("checksum").and_then(Json::as_str).unwrap_or("");
    if checksum != sha256_hex(payload.to_string().as_bytes()) {
        return Err("checksum mismatch".to_string());
    }
    // Move the payload out rather than deep-copying it: it is almost
    // the whole document. First match, as `Json::get` found it above.
    let Json::Obj(members) = entry else {
        return Err("no payload".to_string());
    };
    members
        .into_iter()
        .find_map(|(k, v)| (k == "payload").then_some(v))
        .ok_or_else(|| "no payload".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_store(tag: &str) -> Store {
        let dir = std::env::temp_dir().join(format!("wyt-store-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Store::open(dir).expect("open temp store")
    }

    fn payload(n: u64) -> Json {
        Json::obj(vec![("n", Json::from(n)), ("s", Json::from("data"))])
    }

    #[test]
    fn put_get_roundtrip_and_counters() {
        let s = tmp_store("roundtrip");
        let key = Store::derive_key("artifact", vec![("n", Json::from(7u64))]);
        assert_eq!(key.len(), 64);
        assert!(matches!(s.get("artifact", &key), Lookup::Miss));
        s.put("artifact", &key, 3, payload(7)).unwrap();
        match s.get("artifact", &key) {
            Lookup::Hit(p) => assert_eq!(p, payload(7)),
            other => panic!("expected hit: {other:?}"),
        }
        // The same key under a different kind is a distinct entry.
        assert!(matches!(s.get("healed", &key), Lookup::Miss));
        let c = s.counters();
        assert_eq!((c.hits, c.misses, c.corrupt, c.puts), (1, 2, 0, 1));
        let _ = std::fs::remove_dir_all(s.root());
    }

    #[test]
    fn counter_deltas_are_scoped() {
        let s = tmp_store("delta");
        let key = Store::derive_key("artifact", vec![("n", Json::from(10u64))]);
        let _ = s.get("artifact", &key); // miss
        s.put("artifact", &key, 0, payload(1)).unwrap();
        let base = s.counters();
        let _ = s.get("artifact", &key); // hit, inside the scope
        let delta = s.counters().delta_since(&base);
        assert_eq!((delta.hits, delta.misses, delta.puts), (1, 0, 0));
        // A stale (larger) baseline saturates instead of wrapping.
        let zero = base.delta_since(&s.counters());
        assert_eq!(zero, StoreCounters::default());
        let _ = std::fs::remove_dir_all(s.root());
    }

    #[test]
    fn derive_key_is_canonical() {
        let a = Store::derive_key("k", vec![("x", Json::from(1u64))]);
        assert_eq!(a, Store::derive_key("k", vec![("x", Json::from(1u64))]));
        assert_ne!(a, Store::derive_key("k", vec![("x", Json::from(2u64))]));
        assert_ne!(a, Store::derive_key("other", vec![("x", Json::from(1u64))]));
    }

    #[test]
    fn corruption_is_detected() {
        let s = tmp_store("corrupt");
        let key = Store::derive_key("artifact", vec![("n", Json::from(1u64))]);
        s.put("artifact", &key, 0, payload(1)).unwrap();
        let path = s.path_for("artifact", &key);

        // Bit flip inside the payload.
        let good = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, good.replace("\"s\": \"data\"", "\"s\": \"dbta\"")).unwrap();
        assert!(matches!(s.get("artifact", &key), Lookup::Corrupt(_)));

        // Truncation.
        std::fs::write(&path, &good[..good.len() / 2]).unwrap();
        assert!(matches!(s.get("artifact", &key), Lookup::Corrupt(_)));

        // Version skew (and nothing else wrong): an entry from the
        // previous format, or from a newer one.
        let current = format!("\"wyt_store\": {FORMAT_VERSION}");
        assert!(good.contains(&current));
        for skew in [FORMAT_VERSION - 1, 999] {
            std::fs::write(&path, good.replace(&current, &format!("\"wyt_store\": {skew}")))
                .unwrap();
            assert!(matches!(s.get("artifact", &key), Lookup::Corrupt(_)), "version {skew}");
        }

        // Entry filed under the wrong key (a mis-addressed copy).
        let other = Store::derive_key("artifact", vec![("n", Json::from(2u64))]);
        std::fs::create_dir_all(s.path_for("artifact", &other).parent().unwrap()).unwrap();
        std::fs::copy(&path, s.path_for("artifact", &other)).unwrap();
        std::fs::write(&path, &good).unwrap();
        assert!(matches!(s.get("artifact", &other), Lookup::Corrupt(_)));

        // The original, restored, still validates; a put overwrites a bad
        // entry and heals the slot.
        assert!(matches!(s.get("artifact", &key), Lookup::Hit(_)));
        s.put("artifact", &other, 1, payload(2)).unwrap();
        assert!(matches!(s.get("artifact", &other), Lookup::Hit(_)));
        assert_eq!(s.counters().corrupt, 5);
        let _ = std::fs::remove_dir_all(s.root());
    }

    #[test]
    fn eviction_is_fifo_and_spares_facts() {
        let s = tmp_store("evict");
        for n in 0..5u64 {
            let key = Store::derive_key("artifact", vec![("n", Json::from(n))]);
            s.put("artifact", &key, n, payload(n)).unwrap();
        }
        let fkey = Store::derive_key(FACTS_KIND, vec![("n", Json::from(0u64))]);
        s.put(FACTS_KIND, &fkey, 0, payload(99)).unwrap();

        assert_eq!(s.evict_to(2).unwrap(), 3);
        let left = s.entries().unwrap();
        assert_eq!(left.len(), 3); // 2 artifacts + the exempt facts entry
        assert!(left.iter().any(|e| e.kind == FACTS_KIND));
        // FIFO: the surviving artifacts are the two newest stamps.
        let stamps: Vec<u64> =
            left.iter().filter(|e| e.kind == "artifact").map(|e| e.stamp).collect();
        assert_eq!(stamps, vec![3, 4]);
        assert_eq!(s.counters().evictions, 3);
        assert_eq!(s.evict_to(2).unwrap(), 0, "idempotent at cap");
        let _ = std::fs::remove_dir_all(s.root());
    }

    #[test]
    fn transient_faults_are_retried_and_never_corrupt() {
        let dir = std::env::temp_dir().join(format!("wyt-store-test-retry-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let plan = FaultPlan {
            read_transient: 1000,
            write_transient: 1000,
            ..FaultPlan::transient_only()
        };
        let s = Store::open_with(&dir, Box::new(FaultFs::new(0xbad_d15c, plan))).unwrap();
        let key = Store::derive_key("artifact", vec![("n", Json::from(1u64))]);
        s.put("artifact", &key, 0, payload(1)).unwrap();
        match s.get("artifact", &key) {
            Lookup::Hit(p) => assert_eq!(p, payload(1)),
            other => panic!("retries must absorb transient faults, got {other:?}"),
        }
        let c = s.counters();
        assert!(c.io_transient >= 2, "p=1000 must fault both the write and the read: {c:?}");
        assert_eq!(c.io_retry, c.io_transient, "every bounded fault is retried: {c:?}");
        assert_eq!((c.corrupt, c.io_fatal), (0, 0), "transient faults must not count as corrupt");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn exhausted_transient_reads_degrade_to_miss() {
        let dir = std::env::temp_dir().join(format!("wyt-store-test-exh-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // max_fails beyond the retry budget: the read gives up.
        let plan = FaultPlan { read_transient: 1000, max_fails: 64, ..FaultPlan::none() };
        let s = Store::open_with(&dir, Box::new(FaultFs::new(7, plan))).unwrap();
        let key = Store::derive_key("artifact", vec![("n", Json::from(2u64))]);
        s.put("artifact", &key, 0, payload(2)).unwrap();
        assert!(matches!(s.get("artifact", &key), Lookup::Miss), "availability loss is a miss");
        let c = s.counters();
        assert_eq!(c.corrupt, 0, "an unreachable entry is not a corrupt entry");
        assert!(c.io_fatal >= 1, "exhausted retries count as fatal: {c:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fsck_sweeps_tmp_and_quarantines_damage() {
        let s = tmp_store("fsck");
        let key = Store::derive_key("artifact", vec![("n", Json::from(3u64))]);
        s.put("artifact", &key, 0, payload(3)).unwrap();
        let good_path = s.path_for("artifact", &key);
        let other = Store::derive_key("artifact", vec![("n", Json::from(4u64))]);
        s.put("artifact", &other, 1, payload(4)).unwrap();
        // Damage one entry (truncation) and drop crash droppings.
        let good = std::fs::read_to_string(&good_path).unwrap();
        std::fs::write(&good_path, &good[..good.len() / 3]).unwrap();
        std::fs::write(good_path.with_extension("json.tmp"), "orphan").unwrap();
        std::fs::write(good_path.parent().unwrap().join("README"), "foreign").unwrap();

        let root = s.root().to_path_buf();
        drop(s);
        let s = Store::open(&root).unwrap();
        let rep = s.fsck_report();
        assert_eq!(rep.tmp_swept, 1, "{rep:?}");
        assert_eq!(rep.quarantined, 1, "{rep:?}");
        assert_eq!(rep.foreign, 1, "{rep:?}");
        assert_eq!(rep.ok, 1, "{rep:?}");
        // The damaged entry is now a clean *miss* (cold re-serve), not
        // a warm serve and not corrupt; the intact one still hits.
        assert!(matches!(s.get("artifact", &key), Lookup::Miss));
        assert!(matches!(s.get("artifact", &other), Lookup::Hit(_)));
        assert_eq!(s.counters().corrupt, 0);
        // Quarantine filenames carry a FIFO sequence prefix.
        let qnames: Vec<String> = std::fs::read_dir(root.join("quarantine"))
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert!(qnames.iter().any(|n| n.ends_with(&format!("{key}.artifact.json"))), "{qnames:?}");
        // Quarantined files are invisible to scans and eviction.
        assert_eq!(s.entries().unwrap().len(), 1);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn quarantine_cap_evicts_oldest_first() {
        let s = tmp_store("qcap");
        let keys: Vec<String> =
            (0..5u64).map(|n| Store::derive_key("artifact", vec![("n", Json::from(n))])).collect();
        for (n, key) in keys.iter().enumerate() {
            s.put("artifact", key, n as u64, payload(n as u64)).unwrap();
            // Truncate: fails validation at the next open.
            let path = s.path_for("artifact", key);
            let good = std::fs::read_to_string(&path).unwrap();
            std::fs::write(&path, &good[..good.len() / 3]).unwrap();
        }
        let root = s.root().to_path_buf();
        drop(s);

        std::env::set_var(QUARANTINE_CAP_ENV, "2");
        let s = Store::open(&root).unwrap();
        std::env::remove_var(QUARANTINE_CAP_ENV);
        assert_eq!(s.fsck_report().quarantined, 5);
        drop(s);

        // Only the two newest-sequence files survive.
        let mut qnames: Vec<String> = std::fs::read_dir(root.join("quarantine"))
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        qnames.sort();
        assert_eq!(qnames.len(), 2, "{qnames:?}");
        assert!(qnames[0].starts_with("00000003-"), "{qnames:?}");
        assert!(qnames[1].starts_with("00000004-"), "{qnames:?}");

        // The sequence resumes past what is on disk at the next open.
        let s = Store::open(&root).unwrap();
        let key = Store::derive_key("artifact", vec![("n", Json::from(9u64))]);
        s.put("artifact", &key, 9, payload(9)).unwrap();
        let path = s.path_for("artifact", &key);
        let good = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &good[..good.len() / 3]).unwrap();
        let root2 = s.root().to_path_buf();
        drop(s);
        let s = Store::open(&root2).unwrap();
        assert_eq!(s.fsck_report().quarantined, 1);
        let qnames: Vec<String> = std::fs::read_dir(root2.join("quarantine"))
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert!(qnames.iter().any(|n| n.starts_with("00000005-")), "{qnames:?}");
        let _ = std::fs::remove_dir_all(&root2);
    }

    #[test]
    fn scans_skip_and_count_foreign_files() {
        let s = tmp_store("foreign");
        let key = Store::derive_key("artifact", vec![("n", Json::from(5u64))]);
        s.put("artifact", &key, 0, payload(5)).unwrap();
        let shard = s.path_for("artifact", &key).parent().unwrap().to_path_buf();
        std::fs::write(shard.join("stray.txt"), "not ours").unwrap();
        std::fs::write(shard.join("noextension"), "not ours").unwrap();
        std::fs::write(s.root().join("objects").join("afile"), "not a shard").unwrap();
        let entries = s.entries().unwrap();
        assert_eq!(entries.len(), 1, "foreign files must not surface as entries");
        assert_eq!(s.evict_to(0).unwrap(), 1, "eviction ignores foreign files");
        let _ = std::fs::remove_dir_all(s.root());
    }

    #[test]
    fn large_hex_payload_round_trips_and_damage_is_caught() {
        let s = tmp_store("large");
        let key = Store::derive_key("artifact", vec![("n", Json::from(11u64))]);
        let hex: String =
            (0..1u32 << 20).map(|i| b"0123456789abcdef"[(i % 16) as usize] as char).collect();
        let big = Json::obj(vec![
            (
                "image",
                Json::obj(vec![("text", Json::from(hex.as_str())), ("entry", Json::from(4096u64))]),
            ),
            ("module", Json::obj(vec![("text", Json::from("define i32 @main() {\n  ret 0\n}\n"))])),
        ]);
        s.put("artifact", &key, 0, big.clone()).unwrap();
        match s.get("artifact", &key) {
            Lookup::Hit(p) => assert!(p == big, "1 MiB payload changed on the way back"),
            other => panic!("expected hit: {other:?}"),
        }

        // One hex digit flipped deep inside the long string.
        let path = s.path_for("artifact", &key);
        let mut bytes = std::fs::read(&path).unwrap();
        let at = bytes.windows(9).position(|w| w == b"\"text\": \"").unwrap() + 9 + 700_001;
        bytes[at] = if bytes[at] == b'0' { b'1' } else { b'0' };
        std::fs::write(&path, &bytes).unwrap();
        match s.get("artifact", &key) {
            Lookup::Corrupt(why) => assert!(why.ends_with("checksum mismatch"), "{why}"),
            other => panic!("expected corrupt: {other:?}"),
        }
        let text = String::from_utf8(bytes).unwrap();
        assert_eq!(validate_entry_text("artifact", &key, &text).unwrap_err(), "checksum mismatch");
        let _ = std::fs::remove_dir_all(s.root());
    }

    #[test]
    fn entry_bytes_are_deterministic() {
        let a = tmp_store("det-a");
        let b = tmp_store("det-b");
        let key = Store::derive_key("artifact", vec![("n", Json::from(9u64))]);
        a.put("artifact", &key, 5, payload(9)).unwrap();
        b.put("artifact", &key, 5, payload(9)).unwrap();
        let ba = std::fs::read(a.path_for("artifact", &key)).unwrap();
        let bb = std::fs::read(b.path_for("artifact", &key)).unwrap();
        assert_eq!(ba, bb);
        let _ = std::fs::remove_dir_all(a.root());
        let _ = std::fs::remove_dir_all(b.root());
    }
}
