//! The dataset registry: named, immutable, refcounted database
//! snapshots interned once and referenced by name, so clients stop
//! re-shipping the database on every request.
//!
//! A `load` request interns database text — sent inline, read from a
//! server-side `path`, or streamed in NDJSON chunks — under a client
//! chosen name. `sanitize`/`verify`/`stats` requests then carry
//! `dataset: "name"` instead of `db`, shipping only patterns + ψ +
//! options. `unload` removes the name; in-flight requests that already
//! resolved the snapshot keep their `Arc` and finish normally (the
//! refcount is the `Arc` itself — there is no separate lease
//! bookkeeping to leak).
//!
//! ## Persistence and memory
//!
//! With `serve --data-dir`, every load is written through a
//! [`ShardStoreWriter`] into `<data-dir>/<name>.sqds` (compressed
//! shards + footer index; see [`seqhide_data::store`]) and the
//! registry re-attaches every `*.sqds` file at startup — a dataset
//! loaded before a restart is served after it without re-shipping.
//! Datasets at most [`RegistryLimits::resident_cap`] bytes are
//! materialized to one shared string on first use; larger ones stay on
//! disk and are served through the two-pass streaming sanitizer with
//! one decompressed shard resident at a time. Without a data dir the
//! registry is memory-only and refuses datasets over the resident cap.
//!
//! Unloading a disk-backed dataset unlinks its store file, but an open
//! [`ShardStore`] keeps a live handle, so (POSIX fd semantics) a
//! sanitize streaming the dataset mid-unload still completes.

use std::collections::HashMap;
use std::fs;
use std::io::{self, BufRead, Cursor};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{SystemTime, UNIX_EPOCH};

use seqhide_data::store::{ShardStore, ShardStoreWriter};
use seqhide_obs::{self as obs, Counter, Gauge};

/// Hard limits on registry contents (see the docs/SERVER.md limits
/// table). Defaults are generous; tests shrink them.
#[derive(Clone, Copy, Debug)]
pub struct RegistryLimits {
    /// Most datasets resident at once.
    pub max_datasets: usize,
    /// Largest single dataset in raw bytes.
    pub max_dataset_bytes: u64,
    /// Largest dataset materialized fully in memory; bigger ones are
    /// served from disk via streaming (and require a data dir).
    pub resident_cap: u64,
}

impl Default for RegistryLimits {
    fn default() -> Self {
        RegistryLimits {
            max_datasets: 64,
            max_dataset_bytes: 4 << 30,
            resident_cap: 64 << 20,
        }
    }
}

/// Where a snapshot's bytes live.
enum Backing {
    /// Memory-only (no data dir): the text itself.
    Memory(Arc<str>),
    /// Disk-backed: the open store (live fd; survives unlink).
    Store(ShardStore),
}

/// One interned dataset: immutable, shared by `Arc`, safe to use while
/// (or after) the name is unloaded.
pub struct DatasetSnapshot {
    name: String,
    bytes: u64,
    sequences: u64,
    shards: usize,
    origin: &'static str,
    resident_cap: u64,
    backing: Backing,
    /// Lazily materialized text for disk-backed snapshots at or under
    /// the resident cap.
    resident: OnceLock<Arc<str>>,
    /// The registry's pinned-bytes ledger, bumped when this snapshot
    /// materializes (shared so lazy materialization is accounted).
    pinned: Arc<AtomicU64>,
    /// Mutation counter: 1 at load, +1 per applied delta. Snapshots are
    /// still immutable — a delta *replaces* the snapshot under the name
    /// with a higher-versioned one; holders of the old `Arc` keep the
    /// pre-delta bytes.
    version: u64,
    /// Unix-epoch milliseconds of the load or latest delta.
    last_modified_ms: u64,
    /// The tenant that loaded the dataset — set only in multi-tenant
    /// mode. `None` (single-tenant loads, restart re-attaches) means any
    /// requester may manage it.
    owner: Option<String>,
}

/// Wraps the shared text so a [`Cursor`] can serve it as bytes.
struct TextBytes(Arc<str>);

impl AsRef<[u8]> for TextBytes {
    fn as_ref(&self) -> &[u8] {
        self.0.as_bytes()
    }
}

impl DatasetSnapshot {
    /// The dataset's registered name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Raw database text size in bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Number of data lines (sequences).
    pub fn sequences(&self) -> u64 {
        self.sequences
    }

    /// Number of on-disk shards (0 for memory-only snapshots).
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// How the dataset arrived: `inline`, `path`, `chunks`, `reattach`,
    /// `delta`.
    pub fn origin(&self) -> &'static str {
        self.origin
    }

    /// Mutation counter: 1 at load, +1 per applied delta.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Unix-epoch milliseconds of the load or latest delta.
    pub fn last_modified_ms(&self) -> u64 {
        self.last_modified_ms
    }

    /// The owning tenant's name, when loaded under a `--tenants` config.
    pub fn owner(&self) -> Option<&str> {
        self.owner.as_deref()
    }

    /// Whether the full text is currently materialized in memory.
    pub fn is_resident(&self) -> bool {
        matches!(self.backing, Backing::Memory(_)) || self.resident.get().is_some()
    }

    /// Whether requests should stream this dataset from disk rather
    /// than materialize it (it is over the resident cap).
    pub fn streams_from_disk(&self) -> bool {
        self.bytes > self.resident_cap && matches!(self.backing, Backing::Store(_))
    }

    /// The full database text, materializing (and pinning) it on first
    /// use. Errors for datasets over the resident cap — callers route
    /// those through [`DatasetSnapshot::open_reader`] instead.
    pub fn text(&self) -> Result<Arc<str>, String> {
        match &self.backing {
            Backing::Memory(text) => Ok(Arc::clone(text)),
            Backing::Store(store) => {
                if let Some(text) = self.resident.get() {
                    return Ok(Arc::clone(text));
                }
                if self.bytes > self.resident_cap {
                    return Err(format!(
                        "dataset '{}' is {} bytes, over the {}-byte resident cap; \
                         this operation needs the whole database in memory",
                        self.name, self.bytes, self.resident_cap
                    ));
                }
                let text: Arc<str> = store
                    .read_to_string()
                    .map_err(|e| format!("dataset '{}': {e}", self.name))?
                    .into();
                if self.resident.set(Arc::clone(&text)).is_ok() {
                    let total = self.pinned.fetch_add(self.bytes, Ordering::SeqCst) + self.bytes;
                    obs::gauge_max(Gauge::DatasetBytesPinned, total);
                }
                // Another thread may have won the race; serve its copy.
                Ok(self.resident.get().map(Arc::clone).unwrap_or(text))
            }
        }
    }

    /// A fresh buffered reader over the database text, for streaming
    /// passes. Callable any number of times; cursors are independent.
    pub fn open_reader(&self) -> io::Result<Box<dyn BufRead + Send>> {
        match &self.backing {
            Backing::Memory(text) => Ok(Box::new(Cursor::new(TextBytes(Arc::clone(text))))),
            Backing::Store(store) => Ok(Box::new(store.reader()?)),
        }
    }
}

impl Drop for DatasetSnapshot {
    fn drop(&mut self) {
        // Every resident snapshot was counted into the pinned ledger
        // exactly once (at commit for memory/pre-pinned loads, at first
        // `text()` for lazy ones); undo it when the last Arc drops.
        if self.is_resident() {
            self.pinned.fetch_sub(self.bytes, Ordering::SeqCst);
        }
    }
}

/// One row of a `datasets` listing.
#[derive(Clone, Debug)]
pub struct DatasetInfo {
    /// Registered name.
    pub name: String,
    /// Raw text bytes.
    pub bytes: u64,
    /// Data lines.
    pub sequences: u64,
    /// On-disk shards (0 when memory-only).
    pub shards: usize,
    /// How the dataset arrived.
    pub origin: &'static str,
    /// Whether the text is materialized in memory right now.
    pub resident: bool,
    /// Mutation counter: 1 at load, +1 per applied delta.
    pub version: u64,
    /// Unix-epoch milliseconds of the load or latest delta.
    pub last_modified_ms: u64,
    /// The owning tenant's name (multi-tenant mode only).
    pub owner: Option<String>,
}

fn info_of(snapshot: &DatasetSnapshot) -> DatasetInfo {
    DatasetInfo {
        name: snapshot.name.clone(),
        bytes: snapshot.bytes,
        sequences: snapshot.sequences,
        shards: snapshot.shards,
        origin: snapshot.origin,
        resident: snapshot.is_resident(),
        version: snapshot.version,
        last_modified_ms: snapshot.last_modified_ms,
        owner: snapshot.owner.clone(),
    }
}

fn now_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// Reads the `version` header of a persisted supporter-index sidecar
/// (`<name>.sqdi`, written by the serve delta session layer) so a
/// re-attached dataset resumes its mutation counter across restarts.
fn sqdi_version(path: &Path) -> Option<u64> {
    let file = fs::File::open(path).ok()?;
    let mut lines = io::BufReader::new(file).lines();
    if lines.next()?.ok()?.trim() != "sqdi 1" {
        return None;
    }
    for line in lines.take(4) {
        if let Some(v) = line.ok()?.strip_prefix("version ") {
            return v.trim().parse().ok();
        }
    }
    None
}

/// Validates a dataset name: it becomes a file stem under the data
/// dir, so the alphabet is strict and path separators are impossible.
pub fn validate_name(name: &str) -> Result<(), String> {
    if name.is_empty() || name.len() > 100 {
        return Err("dataset name must be 1..=100 characters".to_string());
    }
    if name.starts_with('.') {
        return Err("dataset name must not start with '.'".to_string());
    }
    if let Some(bad) = name
        .chars()
        .find(|c| !(c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-')))
    {
        return Err(format!(
            "dataset name contains '{bad}'; allowed: letters, digits, '.', '_', '-'"
        ));
    }
    Ok(())
}

fn count_lines(text: &str) -> u64 {
    text.lines()
        .filter(|line| {
            let t = line.trim_start();
            !t.is_empty() && !t.starts_with('#')
        })
        .count() as u64
}

/// The registry itself: a named map of snapshots plus the optional
/// persistence directory.
pub struct DatasetRegistry {
    data_dir: Option<PathBuf>,
    limits: RegistryLimits,
    inner: Mutex<HashMap<String, Arc<DatasetSnapshot>>>,
    /// Bytes of dataset text currently materialized in memory.
    pinned: Arc<AtomicU64>,
}

impl DatasetRegistry {
    /// Builds a registry. With a data dir, the directory is created and
    /// every `*.sqds` file in it is re-attached (disk-backed, lazy);
    /// returns the registry and the re-attach count.
    pub fn new(
        data_dir: Option<PathBuf>,
        limits: RegistryLimits,
    ) -> io::Result<(DatasetRegistry, usize)> {
        let registry = DatasetRegistry {
            data_dir: data_dir.clone(),
            limits,
            inner: Mutex::new(HashMap::new()),
            pinned: Arc::new(AtomicU64::new(0)),
        };
        let mut reattached = 0;
        if let Some(dir) = &data_dir {
            fs::create_dir_all(dir)?;
            let mut paths: Vec<PathBuf> = fs::read_dir(dir)?
                .filter_map(|entry| entry.ok().map(|e| e.path()))
                .filter(|p| p.extension().is_some_and(|ext| ext == "sqds"))
                .collect();
            paths.sort();
            for path in paths {
                let Some(name) = path.file_stem().and_then(|s| s.to_str()) else {
                    continue;
                };
                if validate_name(name).is_err() {
                    continue;
                }
                // A corrupt file (e.g. truncated by a crash before the
                // atomic rename landed — shouldn't happen, but disks do
                // disk things) is skipped, not fatal to startup.
                let Ok(store) = ShardStore::open(&path) else {
                    continue;
                };
                let mut snapshot =
                    registry.snapshot_from_store(name.to_string(), store, "reattach");
                // Resume the mutation counter from the index sidecar (if
                // the dataset had delta sessions) and date the snapshot
                // by the store file, not the restart.
                if let Some(v) = sqdi_version(&path.with_extension("sqdi")) {
                    snapshot.version = v;
                }
                if let Ok(modified) = fs::metadata(&path).and_then(|m| m.modified()) {
                    if let Ok(d) = modified.duration_since(UNIX_EPOCH) {
                        snapshot.last_modified_ms = d.as_millis() as u64;
                    }
                }
                registry
                    .inner
                    .lock()
                    .expect("registry poisoned")
                    .insert(name.to_string(), Arc::new(snapshot));
                reattached += 1;
                obs::counter_add(Counter::DatasetLoads, 1);
            }
            registry.record_gauges();
        }
        Ok((registry, reattached))
    }

    /// The registry's hard limits.
    pub fn limits(&self) -> RegistryLimits {
        self.limits
    }

    fn snapshot_from_store(
        &self,
        name: String,
        store: ShardStore,
        origin: &'static str,
    ) -> DatasetSnapshot {
        DatasetSnapshot {
            name,
            bytes: store.raw_bytes(),
            sequences: store.sequences(),
            shards: store.shard_count(),
            origin,
            resident_cap: self.limits.resident_cap,
            backing: Backing::Store(store),
            resident: OnceLock::new(),
            pinned: Arc::clone(&self.pinned),
            version: 1,
            last_modified_ms: now_ms(),
            owner: None,
        }
    }

    /// The persistence directory, when the server was started with one.
    pub fn data_dir(&self) -> Option<&Path> {
        self.data_dir.as_deref()
    }

    fn record_gauges(&self) {
        let count = self.inner.lock().expect("registry poisoned").len();
        obs::gauge_max(Gauge::DatasetsResident, count as u64);
        obs::gauge_max(
            Gauge::DatasetBytesPinned,
            self.pinned.load(Ordering::SeqCst),
        );
    }

    /// Begins a load: validates the name, checks the duplicate and
    /// count limits, and opens the staging sink (a temp store file with
    /// a data dir, an in-memory buffer without). The name is *not*
    /// reserved — a duplicate racing in is caught again at commit.
    pub fn begin_load(
        self: &Arc<Self>,
        name: &str,
        origin: &'static str,
    ) -> Result<LoadStaging, String> {
        self.begin_load_as(name, origin, None)
    }

    /// [`begin_load`](Self::begin_load) with an owning tenant recorded
    /// on the committed snapshot (multi-tenant mode).
    pub fn begin_load_as(
        self: &Arc<Self>,
        name: &str,
        origin: &'static str,
        owner: Option<String>,
    ) -> Result<LoadStaging, String> {
        validate_name(name)?;
        {
            let inner = self.inner.lock().expect("registry poisoned");
            if inner.contains_key(name) {
                return Err(format!(
                    "dataset '{name}' already loaded (unload it first to replace)"
                ));
            }
            if inner.len() >= self.limits.max_datasets {
                return Err(format!(
                    "dataset limit reached ({} resident); unload one first",
                    self.limits.max_datasets
                ));
            }
        }
        let writer = match &self.data_dir {
            Some(dir) => {
                let path = dir.join(format!("{name}.sqds"));
                Some(ShardStoreWriter::create(&path).map_err(|e| format!("data dir: {e}"))?)
            }
            None => None,
        };
        Ok(LoadStaging {
            registry: Arc::clone(self),
            name: name.to_string(),
            origin,
            writer,
            resident_acc: Some(String::new()),
            bytes: 0,
            owner,
        })
    }

    /// One-shot load of complete text (the `db`/`path` forms; chunked
    /// loads drive [`LoadStaging`] directly).
    pub fn load(
        self: &Arc<Self>,
        name: &str,
        origin: &'static str,
        text: &str,
    ) -> Result<DatasetInfo, String> {
        self.load_as(name, origin, text, None)
    }

    /// [`load`](Self::load) with an owning tenant recorded on the
    /// snapshot (multi-tenant mode).
    pub fn load_as(
        self: &Arc<Self>,
        name: &str,
        origin: &'static str,
        text: &str,
        owner: Option<String>,
    ) -> Result<DatasetInfo, String> {
        let mut staging = self.begin_load_as(name, origin, owner)?;
        staging.push(text)?;
        staging.commit()
    }

    /// Removes a dataset by name, unlinking its store file if it has
    /// one. In-flight requests holding the `Arc` complete unaffected.
    pub fn unload(&self, name: &str) -> Result<(), String> {
        self.unload_as(name, None)
    }

    /// [`unload`](Self::unload) on behalf of a tenant: refused when the
    /// dataset is owned by a *different* tenant. `requester: None`
    /// bypasses the check (single-tenant mode); ownerless datasets
    /// (re-attached after a restart) may be unloaded by anyone.
    pub fn unload_as(&self, name: &str, requester: Option<&str>) -> Result<(), String> {
        let removed = {
            let mut inner = self.inner.lock().expect("registry poisoned");
            let snapshot = inner
                .get(name)
                .ok_or_else(|| format!("unknown dataset '{name}' (nothing to unload)"))?;
            if let (Some(requester), Some(owner)) = (requester, snapshot.owner.as_deref()) {
                if requester != owner {
                    return Err(format!(
                        "dataset '{name}' is owned by tenant '{owner}'; \
                         tenant '{requester}' may not unload it"
                    ));
                }
            }
            inner.remove(name).expect("present under the same lock")
        };
        if let Backing::Store(store) = &removed.backing {
            let _ = fs::remove_file(store.path());
            let _ = fs::remove_file(store.path().with_extension("sqdi"));
        }
        obs::counter_add(Counter::DatasetUnloads, 1);
        Ok(())
    }

    /// Replaces a loaded dataset's content in place (the `delta` wire
    /// op): publishes a new snapshot under the same name with
    /// `version + 1`. With a data dir the new content is written through
    /// a temp store file and renamed over the old one atomically — the
    /// old snapshot's open handle keeps serving any in-flight requests
    /// that resolved before the delta. Deltas need the database
    /// resident, so the new content must fit the resident cap.
    pub fn replace(self: &Arc<Self>, name: &str, text: &str) -> Result<DatasetInfo, String> {
        let old = self
            .get(name)
            .ok_or_else(|| format!("unknown dataset '{name}' (load it before applying deltas)"))?;
        let bytes = text.len() as u64;
        if bytes > self.limits.max_dataset_bytes {
            return Err(format!(
                "dataset '{name}' exceeds the {}-byte size limit",
                self.limits.max_dataset_bytes
            ));
        }
        if bytes > self.limits.resident_cap {
            return Err(format!(
                "dataset '{name}' would be {bytes} bytes after this delta, over the \
                 {}-byte resident cap; deltas need the database resident",
                self.limits.resident_cap
            ));
        }
        let mut snapshot = match &self.data_dir {
            Some(dir) => {
                let path = dir.join(format!("{name}.sqds"));
                let mut writer =
                    ShardStoreWriter::create(&path).map_err(|e| format!("data dir: {e}"))?;
                writer
                    .write(text.as_bytes())
                    .map_err(|e| format!("dataset '{name}': {e}"))?;
                let store = writer
                    .commit()
                    .map_err(|e| format!("dataset '{name}': {e}"))?;
                let snapshot = self.snapshot_from_store(name.to_string(), store, "delta");
                // The text is already in memory; pin it so the next
                // request doesn't pay a decompression pass.
                if snapshot.resident.set(text.into()).is_ok() {
                    self.pinned.fetch_add(snapshot.bytes, Ordering::SeqCst);
                }
                snapshot
            }
            None => {
                self.pinned.fetch_add(bytes, Ordering::SeqCst);
                DatasetSnapshot {
                    name: name.to_string(),
                    bytes,
                    sequences: count_lines(text),
                    shards: 0,
                    origin: "delta",
                    resident_cap: self.limits.resident_cap,
                    backing: Backing::Memory(text.into()),
                    resident: OnceLock::new(),
                    pinned: Arc::clone(&self.pinned),
                    version: 1,
                    last_modified_ms: 0,
                    owner: None,
                }
            }
        };
        snapshot.version = old.version + 1;
        snapshot.last_modified_ms = now_ms();
        // a delta mutates in place; ownership carries over
        snapshot.owner = old.owner.clone();
        let snapshot = Arc::new(snapshot);
        let info = info_of(&snapshot);
        {
            let mut inner = self.inner.lock().expect("registry poisoned");
            if !inner.contains_key(name) {
                // Unloaded while we were writing; don't resurrect it.
                drop(inner);
                if let Backing::Store(store) = &snapshot.backing {
                    let _ = fs::remove_file(store.path());
                }
                return Err(format!(
                    "unknown dataset '{name}' (load it before applying deltas)"
                ));
            }
            inner.insert(name.to_string(), snapshot);
        }
        self.record_gauges();
        Ok(info)
    }

    /// Resolves a name to its snapshot.
    pub fn get(&self, name: &str) -> Option<Arc<DatasetSnapshot>> {
        self.inner
            .lock()
            .expect("registry poisoned")
            .get(name)
            .map(Arc::clone)
    }

    /// All resident datasets, sorted by name.
    pub fn list(&self) -> Vec<DatasetInfo> {
        let mut rows: Vec<DatasetInfo> = self
            .inner
            .lock()
            .expect("registry poisoned")
            .values()
            .map(|snapshot| info_of(snapshot))
            .collect();
        rows.sort_by(|a, b| a.name.cmp(&b.name));
        rows
    }

    fn commit_snapshot(
        &self,
        name: &str,
        snapshot: DatasetSnapshot,
    ) -> Result<DatasetInfo, String> {
        let snapshot = Arc::new(snapshot);
        let info = info_of(&snapshot);
        {
            let mut inner = self.inner.lock().expect("registry poisoned");
            if inner.contains_key(name) {
                // Racing load committed first; roll our file back.
                if let Backing::Store(store) = &snapshot.backing {
                    let _ = fs::remove_file(store.path());
                }
                return Err(format!(
                    "dataset '{name}' already loaded (unload it first to replace)"
                ));
            }
            if inner.len() >= self.limits.max_datasets {
                if let Backing::Store(store) = &snapshot.backing {
                    let _ = fs::remove_file(store.path());
                }
                return Err(format!(
                    "dataset limit reached ({} resident); unload one first",
                    self.limits.max_datasets
                ));
            }
            inner.insert(name.to_string(), snapshot);
        }
        obs::counter_add(Counter::DatasetLoads, 1);
        self.record_gauges();
        Ok(info)
    }
}

/// An in-progress load: text arrives in chunks (one per `load_chunk`
/// request, or all at once for inline/path loads) and the dataset
/// becomes visible only at [`commit`](Self::commit). Dropping an
/// uncommitted staging discards everything, including the temp store
/// file — a client that disconnects mid-chunked-load leaves no trace.
pub struct LoadStaging {
    registry: Arc<DatasetRegistry>,
    name: String,
    origin: &'static str,
    writer: Option<ShardStoreWriter>,
    /// Text accumulated for in-memory residency; dropped to `None` once
    /// the dataset passes the resident cap (disk-backed loads keep
    /// streaming; memory-only loads then fail at the next push).
    resident_acc: Option<String>,
    bytes: u64,
    /// The tenant the committed snapshot will belong to.
    owner: Option<String>,
}

impl LoadStaging {
    /// The name this staging will commit under.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Raw bytes pushed so far.
    pub fn bytes_staged(&self) -> u64 {
        self.bytes
    }

    /// Appends a chunk of database text.
    pub fn push(&mut self, chunk: &str) -> Result<(), String> {
        self.bytes += chunk.len() as u64;
        if self.bytes > self.registry.limits.max_dataset_bytes {
            return Err(format!(
                "dataset '{}' exceeds the {}-byte size limit",
                self.name, self.registry.limits.max_dataset_bytes
            ));
        }
        if self.bytes > self.registry.limits.resident_cap {
            if self.writer.is_none() {
                return Err(format!(
                    "dataset '{}' exceeds the {}-byte resident cap and the server has no \
                     --data-dir to hold it on disk",
                    self.name, self.registry.limits.resident_cap
                ));
            }
            self.resident_acc = None;
        }
        if let Some(acc) = &mut self.resident_acc {
            acc.push_str(chunk);
        }
        if let Some(writer) = &mut self.writer {
            writer
                .write(chunk.as_bytes())
                .map_err(|e| format!("dataset '{}': {e}", self.name))?;
        }
        Ok(())
    }

    /// Finalizes the load and publishes the dataset.
    pub fn commit(self) -> Result<DatasetInfo, String> {
        let registry = Arc::clone(&self.registry);
        let name = self.name.clone();
        let owner = self.owner;
        let mut snapshot = match (self.writer, self.resident_acc) {
            (Some(writer), resident_acc) => {
                let store = writer
                    .commit()
                    .map_err(|e| format!("dataset '{name}': {e}"))?;
                let snapshot = registry.snapshot_from_store(name.clone(), store, self.origin);
                // The text already passed through memory; pin it now so
                // the first sanitize doesn't pay a decompression pass.
                if let Some(text) = resident_acc {
                    if snapshot.resident.set(text.into()).is_ok() {
                        registry.pinned.fetch_add(snapshot.bytes, Ordering::SeqCst);
                    }
                }
                snapshot
            }
            (None, Some(text)) => {
                let sequences = count_lines(&text);
                let bytes = text.len() as u64;
                registry.pinned.fetch_add(bytes, Ordering::SeqCst);
                DatasetSnapshot {
                    name: name.clone(),
                    bytes,
                    sequences,
                    shards: 0,
                    origin: self.origin,
                    resident_cap: registry.limits.resident_cap,
                    backing: Backing::Memory(text.into()),
                    resident: OnceLock::new(),
                    pinned: Arc::clone(&registry.pinned),
                    version: 1,
                    last_modified_ms: now_ms(),
                    owner: None,
                }
            }
            (None, None) => unreachable!("memory-only staging errors before dropping its text"),
        };
        snapshot.owner = owner;
        let info = registry.commit_snapshot(&name, snapshot);
        if info.is_err() {
            // Roll the pin back; commit_snapshot already removed the file.
            registry.record_gauges();
        }
        info
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{DbSource, JobSpec, Mode, SanitizeSpec};
    use seqhide_types::OpKind;

    fn mem_registry() -> Arc<DatasetRegistry> {
        let (registry, reattached) = DatasetRegistry::new(None, RegistryLimits::default()).unwrap();
        assert_eq!(reattached, 0);
        Arc::new(registry)
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "seqhide-registry-test-{}-{tag}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn load_get_list_unload_lifecycle() {
        let registry = mem_registry();
        let info = registry
            .load("trucks", "inline", "a b c\n# note\n\nb c\n")
            .unwrap();
        assert_eq!(info.sequences, 2);
        assert_eq!(info.origin, "inline");
        assert!(info.resident);
        let snapshot = registry.get("trucks").unwrap();
        assert_eq!(&*snapshot.text().unwrap(), "a b c\n# note\n\nb c\n");
        assert_eq!(registry.list().len(), 1);
        registry.unload("trucks").unwrap();
        assert!(registry.get("trucks").is_none());
        assert!(registry.unload("trucks").is_err());
        // the old Arc still works after unload
        assert_eq!(&*snapshot.text().unwrap(), "a b c\n# note\n\nb c\n");
    }

    #[test]
    fn duplicate_names_and_bad_names_are_rejected() {
        let registry = mem_registry();
        registry.load("d", "inline", "a\n").unwrap();
        let e = registry.load("d", "inline", "b\n").unwrap_err();
        assert!(e.contains("already loaded"), "{e}");
        for bad in ["", ".hidden", "a/b", "a b", "x\n", &"n".repeat(101)] {
            assert!(registry.load(bad, "inline", "a\n").is_err(), "{bad:?}");
        }
    }

    #[test]
    fn memory_only_registry_refuses_oversized_datasets() {
        let (registry, _) = DatasetRegistry::new(
            None,
            RegistryLimits {
                resident_cap: 16,
                ..RegistryLimits::default()
            },
        )
        .unwrap();
        let registry = Arc::new(registry);
        let e = registry
            .load("big", "inline", &"x y z\n".repeat(10))
            .unwrap_err();
        assert!(e.contains("--data-dir"), "{e}");
        assert!(registry.get("big").is_none());
    }

    #[test]
    fn max_datasets_is_enforced() {
        let (registry, _) = DatasetRegistry::new(
            None,
            RegistryLimits {
                max_datasets: 2,
                ..RegistryLimits::default()
            },
        )
        .unwrap();
        let registry = Arc::new(registry);
        registry.load("a", "inline", "a\n").unwrap();
        registry.load("b", "inline", "b\n").unwrap();
        let e = registry.load("c", "inline", "c\n").unwrap_err();
        assert!(e.contains("limit reached"), "{e}");
        registry.unload("a").unwrap();
        registry.load("c", "inline", "c\n").unwrap();
    }

    #[test]
    fn data_dir_persists_and_reattaches() {
        let dir = tmp_dir("reattach");
        let text = "a b c\nb a c\na c\n";
        {
            let (registry, reattached) =
                DatasetRegistry::new(Some(dir.clone()), RegistryLimits::default()).unwrap();
            assert_eq!(reattached, 0);
            let registry = Arc::new(registry);
            let info = registry.load("trucks", "inline", text).unwrap();
            assert!(info.shards >= 1);
            assert!(dir.join("trucks.sqds").exists());
        } // server "restarts"
        let (registry, reattached) =
            DatasetRegistry::new(Some(dir.clone()), RegistryLimits::default()).unwrap();
        assert_eq!(reattached, 1);
        let registry = Arc::new(registry);
        let snapshot = registry.get("trucks").unwrap();
        assert_eq!(snapshot.origin(), "reattach");
        assert!(!snapshot.is_resident(), "re-attached datasets are lazy");
        assert_eq!(&*snapshot.text().unwrap(), text);
        assert!(snapshot.is_resident());
        // unload unlinks the file
        registry.unload("trucks").unwrap();
        assert!(!dir.join("trucks.sqds").exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn oversized_disk_backed_datasets_stream_instead_of_materializing() {
        let dir = tmp_dir("stream");
        let (registry, _) = DatasetRegistry::new(
            Some(dir.clone()),
            RegistryLimits {
                resident_cap: 32,
                ..RegistryLimits::default()
            },
        )
        .unwrap();
        let registry = Arc::new(registry);
        let text = "a b c d e f\n".repeat(20);
        registry.load("big", "inline", &text).unwrap();
        let snapshot = registry.get("big").unwrap();
        assert!(snapshot.streams_from_disk());
        assert!(snapshot.text().is_err(), "over-cap text() must refuse");
        let mut reader = snapshot.open_reader().unwrap();
        let mut got = String::new();
        io::Read::read_to_string(&mut reader, &mut got).unwrap();
        assert_eq!(got, text);
        // ...and streaming still works after the dataset is unloaded,
        // because the snapshot holds a live file handle.
        registry.unload("big").unwrap();
        let mut reader = snapshot.open_reader().unwrap();
        let mut again = String::new();
        io::Read::read_to_string(&mut reader, &mut again).unwrap();
        assert_eq!(again, text);
        // Every mode sanitizes straight from the shard store, releasing
        // byte for byte what the same text does inline — including the
        // modes whose release depends on symbol interning order.
        let cases = [
            (Mode::Itemset, OpKind::Mark, ["a,b c d", "c a,c", "b,d a c"]),
            (
                Mode::Timed,
                OpKind::Mark,
                ["a@0 b@2 c@5", "c@1 a@3 c@4", "b@0 a@7 c@9"],
            ),
            (
                Mode::String,
                OpKind::Substitute,
                ["d a c b", "a c a c", "b a c"],
            ),
        ];
        for (i, (mode, op, lines)) in cases.into_iter().enumerate() {
            let text = format!("{}\n", lines.join("\n")).repeat(7);
            let name = format!("big-{i}");
            registry.load(&name, "inline", &text).unwrap();
            let snapshot = registry.get(&name).unwrap();
            assert!(snapshot.streams_from_disk());
            let job = JobSpec {
                mode,
                patterns: vec!["a c".to_string()],
                psi: 4,
                op,
                ..JobSpec::default()
            };
            let sanitize = |db| {
                crate::exec::sanitize(&SanitizeSpec {
                    db,
                    job: job.clone(),
                })
            };
            let streamed = sanitize(DbSource::Dataset(snapshot)).unwrap();
            let inline = sanitize(DbSource::from(text.as_str())).unwrap();
            assert!(streamed.marks > 0, "{mode:?}");
            assert_eq!(streamed.release, inline.release, "{mode:?}");
            assert_eq!(streamed.residual_supports, inline.residual_supports);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn replace_bumps_version_and_keeps_old_arcs() {
        let registry = mem_registry();
        let info = registry.load("d", "inline", "a b\n").unwrap();
        assert_eq!(info.version, 1);
        let old = registry.get("d").unwrap();
        let info = registry.replace("d", "a b\nc d\n").unwrap();
        assert_eq!(info.version, 2);
        assert_eq!(info.origin, "delta");
        assert!(info.last_modified_ms > 0);
        // Holders of the pre-delta Arc keep the old bytes.
        assert_eq!(&*old.text().unwrap(), "a b\n");
        assert_eq!(old.version(), 1);
        let new = registry.get("d").unwrap();
        assert_eq!(&*new.text().unwrap(), "a b\nc d\n");
        assert_eq!(new.version(), 2);
        assert!(registry.replace("missing", "x\n").is_err());
    }

    #[test]
    fn replace_persists_through_data_dir() {
        let dir = tmp_dir("replace");
        {
            let (registry, _) =
                DatasetRegistry::new(Some(dir.clone()), RegistryLimits::default()).unwrap();
            let registry = Arc::new(registry);
            registry.load("d", "inline", "a b\n").unwrap();
            let info = registry.replace("d", "a b\nc d\n").unwrap();
            assert_eq!(info.version, 2);
        } // restart
        let (registry, reattached) =
            DatasetRegistry::new(Some(dir.clone()), RegistryLimits::default()).unwrap();
        assert_eq!(reattached, 1);
        let registry = Arc::new(registry);
        let snapshot = registry.get("d").unwrap();
        assert_eq!(&*snapshot.text().unwrap(), "a b\nc d\n");
        // No .sqdi sidecar was written here, so the counter restarts.
        assert_eq!(snapshot.version(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn chunked_staging_commits_or_vanishes() {
        let dir = tmp_dir("chunks");
        let (registry, _) =
            DatasetRegistry::new(Some(dir.clone()), RegistryLimits::default()).unwrap();
        let registry = Arc::new(registry);
        let mut staging = registry.begin_load("c", "chunks").unwrap();
        staging.push("a b\nc ").unwrap();
        staging.push("d\n").unwrap();
        let info = staging.commit().unwrap();
        assert_eq!(info.sequences, 2);
        assert_eq!(&*registry.get("c").unwrap().text().unwrap(), "a b\nc d\n");

        // an abandoned staging leaves nothing behind
        let staging = registry.begin_load("dropped", "chunks").unwrap();
        drop(staging);
        assert!(registry.get("dropped").is_none());
        assert!(!dir.join("dropped.sqds").exists());
        assert!(!dir.join("dropped.sqds.tmp").exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn ownership_guards_unload_and_survives_replace() {
        let registry = mem_registry();
        registry
            .load_as("d", "inline", "a b\n", Some("alpha".to_string()))
            .unwrap();
        assert_eq!(registry.get("d").unwrap().owner(), Some("alpha"));
        assert_eq!(registry.list()[0].owner.as_deref(), Some("alpha"));

        // a different tenant may not unload it; the owner (or the
        // single-tenant bypass) may
        let e = registry.unload_as("d", Some("beta")).unwrap_err();
        assert!(e.contains("owned by tenant 'alpha'"), "{e}");
        assert!(e.contains("'beta'"), "{e}");
        assert!(
            registry.get("d").is_some(),
            "refused unload must not remove"
        );

        // a delta replace keeps the owner
        registry.replace("d", "a b\nc d\n").unwrap();
        assert_eq!(registry.get("d").unwrap().owner(), Some("alpha"));

        registry.unload_as("d", Some("alpha")).unwrap();
        assert!(registry.get("d").is_none());

        // ownerless datasets (plain load / reattach) accept any requester
        registry.load("free", "inline", "a\n").unwrap();
        assert_eq!(registry.get("free").unwrap().owner(), None);
        registry.unload_as("free", Some("beta")).unwrap();
    }
}
