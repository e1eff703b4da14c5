//! The `delta` wire op: in-place incremental mutation of a loaded
//! dataset through the persistent supporter index.
//!
//! A `delta` request names a registered dataset, a batch of appended
//! sequences (`add`) and retired ordinals (`remove`), and the same
//! [`JobSpec`] a `sanitize` request carries. The incremental state
//! itself is the pipeline's [`DeltaJob`] (the one `hide --delta` uses);
//! this module only caches it. The server keeps one **session** per
//! dataset: the first delta
//! under a given configuration builds it (full scan + sanitize — the
//! cold path), every following delta with the same configuration
//! reuses it and pays only for the touched sequences. The mutated
//! dataset replaces the registry snapshot under a bumped version;
//! admitted jobs holding the pre-delta `Arc` keep computing against
//! the text they resolved, exactly like jobs racing an `unload`.
//!
//! The released content after a delta is byte-identical to a fresh
//! `sanitize` of the mutated database on the same seed — the delta
//! path is only ever a faster route to the same release (pinned by
//! `tests/delta.rs` at the core layer and `tests/serve.rs` end to
//! end). Two sharp edges follow from that contract:
//!
//! * The registry stores the mutated **originals** re-rendered in the
//!   canonical line format, so comments, blank lines and incidental
//!   whitespace in the loaded text do not survive the first delta.
//! * `op: substitute` is rejected: replacement symbols depend on
//!   alphabet interning order, which differs once added lines are
//!   interned after the patterns.
//!
//! With `--data-dir` configured, plain-mode sessions persist their
//! supporter index next to the dataset's shard store as
//! `<name>.sqdi`; a restart re-attaches the store and the next delta
//! warm-starts from the index (fingerprint + version checked) instead
//! of re-scanning the whole database.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use seqhide_core::global::SupporterStat;
use seqhide_core::{DeltaState, SupporterIndex};
use seqhide_num::Sat64;
use seqhide_types::Sequence;

use crate::exec::{self, DeltaJob, JobSpec, Leg};
use crate::registry::{DatasetRegistry, DatasetSnapshot};

/// One fully-decoded `delta` request.
#[derive(Clone, Debug)]
pub struct DeltaSpec {
    /// The registered dataset to mutate.
    pub dataset: String,
    /// Sequences to append, in the dataset's line format.
    pub add: Vec<String>,
    /// 0-based ordinals (into the current database) to retire.
    pub remove: Vec<usize>,
    /// What to hide and how (`regexes` and `exact` stay unset: the wire
    /// does not accept them for deltas).
    pub job: JobSpec,
    /// Whether the response should carry the full post-delta release.
    pub want_release: bool,
}

/// The executed `delta` outcome.
#[derive(Clone, Debug)]
pub struct DeltaOutcome {
    /// The mutated dataset's name.
    pub dataset: String,
    /// Its new registry version (old version + 1).
    pub version: u64,
    /// Sequences in the database after the delta.
    pub sequences: u64,
    /// Sequences appended by this delta.
    pub added: usize,
    /// Sequences removed by this delta (after de-duplication).
    pub removed: usize,
    /// Victims actually (re-)marked — the incremental work.
    pub remarked: usize,
    /// Ex-victims restored to their original content.
    pub restored: usize,
    /// Whether every pattern ended at or below ψ.
    pub hidden: bool,
    /// Total marks in the post-delta release.
    pub marks: usize,
    /// Victims (sequences sanitized) in the post-delta release.
    pub sequences_sanitized: usize,
    /// Sequences supporting at least one pattern before sanitization.
    pub supporters_before: usize,
    /// Post-delta support per pattern.
    pub residual_supports: Vec<usize>,
    /// The full post-delta release, when the request asked for it.
    pub release: Option<String>,
}

/// One dataset's live incremental-sanitization state.
struct Session {
    /// Canonical rendering of the configuration the state was built
    /// under; a request with a different fingerprint rebuilds.
    fingerprint: String,
    /// The registry snapshot the state describes. Compared by pointer:
    /// the session is valid exactly as long as this `Arc` is still the
    /// registry's current snapshot for the name (a `delta` replaces it;
    /// an `unload`/reload drops it).
    snapshot: Arc<DatasetSnapshot>,
    job: DeltaJob,
}

/// The server's delta sessions, one per dataset. One lock serializes
/// all deltas (across datasets too): a delta is a read-modify-write of
/// registry state, and serializing them keeps "version N+1 is version
/// N plus exactly one batch" true without per-dataset lock juggling.
pub struct DeltaSessions {
    inner: Mutex<HashMap<String, Session>>,
}

impl Default for DeltaSessions {
    fn default() -> Self {
        Self::new()
    }
}

impl DeltaSessions {
    /// An empty session table.
    pub fn new() -> DeltaSessions {
        DeltaSessions {
            inner: Mutex::new(HashMap::new()),
        }
    }

    /// Drops a dataset's session (after `unload`). The `.sqdi` sidecar
    /// is the registry's to remove, alongside the shard store.
    pub fn forget(&self, name: &str) {
        self.inner
            .lock()
            .expect("delta sessions poisoned")
            .remove(name);
    }

    /// Executes one `delta` request: reuse or build the session, apply
    /// the batch, replace the registry snapshot under a bumped version,
    /// and persist the supporter index when a data dir is configured.
    pub fn execute(
        &self,
        registry: &Arc<DatasetRegistry>,
        spec: &DeltaSpec,
    ) -> Result<DeltaOutcome, String> {
        let mut sessions = self.inner.lock().expect("delta sessions poisoned");
        let snapshot = registry.get(&spec.dataset).ok_or_else(|| {
            format!(
                "unknown dataset '{}' (load it before applying deltas)",
                spec.dataset
            )
        })?;
        if snapshot.streams_from_disk() {
            return Err(format!(
                "dataset '{}' is over the resident cap and served from disk; \
                 deltas need a resident dataset",
                snapshot.name()
            ));
        }
        let fp = fingerprint(spec);
        let mut session = match sessions.remove(&spec.dataset) {
            Some(s) if s.fingerprint == fp && Arc::ptr_eq(&s.snapshot, &snapshot) => s,
            _ => build_session(registry, &snapshot, spec, fp)?,
        };
        let add = spec
            .add
            .iter()
            .enumerate()
            .map(|(i, l)| (i + 1, l.as_str()));
        let report = match session.job.apply(add, spec.remove.clone()) {
            Ok(report) => report,
            Err(e) => {
                // A refused batch (e.g. out-of-range ordinal) leaves the
                // state untouched; keep the warm session.
                sessions.insert(spec.dataset.clone(), session);
                return Err(e);
            }
        };
        let originals_text = session.job.text(false);
        let release = spec.want_release.then(|| session.job.text(true));
        // The apply succeeded in memory; now move the registry forward.
        // On failure (size cap, concurrent unload) the session no longer
        // describes the registry's text, so it is dropped.
        let info = registry.replace(&spec.dataset, &originals_text)?;
        match registry.get(&spec.dataset) {
            Some(current) => {
                session.snapshot = current;
                if let Some(dir) = registry.data_dir() {
                    // Best effort: only plain sessions persist their index;
                    // every other mode removes any stale sidecar so a
                    // restart never warm-starts against the wrong text.
                    let path = sqdi_path(dir, &spec.dataset);
                    let _ = match session.job.plain_state() {
                        Some(state) => write_sqdi(&path, &session.fingerprint, info.version, state),
                        None => std::fs::remove_file(&path),
                    };
                }
                sessions.insert(spec.dataset.clone(), session);
            }
            None => {
                // Unloaded between replace and here; the registry already
                // removed the files. The work is done either way.
            }
        }
        let r = &report.report;
        Ok(DeltaOutcome {
            dataset: spec.dataset.clone(),
            version: info.version,
            sequences: info.sequences,
            added: report.added,
            removed: report.removed,
            remarked: report.remarked,
            restored: report.restored,
            hidden: r.hidden,
            marks: r.marks_introduced,
            sequences_sanitized: r.sequences_sanitized,
            supporters_before: r.supporters_before,
            residual_supports: r.residual_supports.clone(),
            release,
        })
    }
}

/// Canonical one-line rendering of everything that shapes the state; a
/// mismatch forces a rebuild. `{:?}` escapes embedded newlines, so the
/// fingerprint always fits the `.sqdi` sidecar's line format.
fn fingerprint(spec: &DeltaSpec) -> String {
    let job = &spec.job;
    format!(
        "mode={:?};patterns={:?};psi={};local={:?};global={:?};seed={};engine={:?};\
         min_gap={};max_gap={:?};max_window={:?};op={}",
        job.mode,
        job.patterns,
        job.psi,
        job.local,
        job.global,
        job.seed,
        job.engine,
        job.min_gap,
        job.max_gap,
        job.max_window,
        job.op.name()
    )
}

/// Builds a fresh session from the snapshot's text — the cold path —
/// or, for a plain job whose `.sqdi` sidecar matches, a warm start from
/// the persisted index.
fn build_session(
    registry: &Arc<DatasetRegistry>,
    snapshot: &Arc<DatasetSnapshot>,
    spec: &DeltaSpec,
    fingerprint: String,
) -> Result<Session, String> {
    let text = exec::lap(Leg::DbParse, || snapshot.text())?;
    let warm = registry.data_dir().and_then(|dir| {
        read_sqdi(
            &sqdi_path(dir, &spec.dataset),
            &fingerprint,
            snapshot.version(),
            snapshot.sequences() as usize,
            spec.job.patterns.len(),
        )
    });
    Ok(Session {
        fingerprint,
        snapshot: Arc::clone(snapshot),
        job: DeltaJob::build(&spec.job, text, warm)?,
    })
}

fn sqdi_path(dir: &Path, name: &str) -> PathBuf {
    dir.join(format!("{name}.sqdi"))
}

/// Writes the supporter-index sidecar: a plain-text table a restart can
/// warm-start from. The `version` line must stay within the first few
/// lines — the registry's re-attach scan reads it to carry the mutation
/// counter across restarts.
fn write_sqdi(
    path: &Path,
    fingerprint: &str,
    version: u64,
    state: &DeltaState<Sequence, Sat64>,
) -> std::io::Result<()> {
    let mut out = String::new();
    out.push_str("sqdi 1\n");
    out.push_str(&format!("version {version}\n"));
    out.push_str(&format!("fingerprint {fingerprint}\n"));
    out.push_str(&format!("sequences {}\n", state.len()));
    for s in state.index().stats() {
        out.push_str(&format!(
            "stat {} {} {} {}\n",
            s.ordinal,
            s.matching.get(),
            s.distinct_ratio.to_bits(),
            s.len
        ));
    }
    out.push_str("residual");
    for r in state.report().residual_supports {
        out.push_str(&format!(" {r}"));
    }
    out.push('\n');
    let tmp = path.with_extension("sqdi.tmp");
    std::fs::write(&tmp, out)?;
    std::fs::rename(&tmp, path)
}

/// Reads a `.sqdi` sidecar back, returning the index and residual tally
/// only if every guard matches: format header, configuration
/// fingerprint, dataset version, sequence count, pattern count. Any
/// mismatch (or parse problem) returns `None` and the caller falls back
/// to a full build.
fn read_sqdi(
    path: &Path,
    fingerprint: &str,
    version: u64,
    db_len: usize,
    pattern_count: usize,
) -> Option<(SupporterIndex<Sat64>, Vec<usize>)> {
    let text = std::fs::read_to_string(path).ok()?;
    let mut lines = text.lines();
    if lines.next()? != "sqdi 1" {
        return None;
    }
    if lines
        .next()?
        .strip_prefix("version ")?
        .parse::<u64>()
        .ok()?
        != version
    {
        return None;
    }
    if lines.next()?.strip_prefix("fingerprint ")? != fingerprint {
        return None;
    }
    if lines
        .next()?
        .strip_prefix("sequences ")?
        .parse::<usize>()
        .ok()?
        != db_len
    {
        return None;
    }
    let mut stats = Vec::new();
    let mut residual = None;
    for line in lines {
        if let Some(rest) = line.strip_prefix("stat ") {
            let mut parts = rest.split_whitespace();
            let ordinal = parts.next()?.parse::<usize>().ok()?;
            let matching = parts.next()?.parse::<u64>().ok()?;
            let ratio_bits = parts.next()?.parse::<u64>().ok()?;
            let len = parts.next()?.parse::<usize>().ok()?;
            if parts.next().is_some() {
                return None;
            }
            // from_stats requires ascending ordinal order.
            if stats
                .last()
                .is_some_and(|s: &SupporterStat<Sat64>| s.ordinal >= ordinal)
            {
                return None;
            }
            if ordinal >= db_len {
                return None;
            }
            stats.push(SupporterStat {
                ordinal,
                matching: Sat64::new(matching),
                distinct_ratio: f64::from_bits(ratio_bits),
                len,
            });
        } else if let Some(rest) = line.strip_prefix("residual") {
            let r: Option<Vec<usize>> = rest
                .split_whitespace()
                .map(|w| w.parse::<usize>().ok())
                .collect();
            residual = Some(r?);
        } else if !line.trim().is_empty() {
            return None;
        }
    }
    let residual = residual?;
    if residual.len() != pattern_count {
        return None;
    }
    Some((SupporterIndex::from_stats(stats), residual))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Mode;
    use crate::registry::RegistryLimits;
    use seqhide_core::Sanitizer;
    use seqhide_match::{MatchEngine, SensitiveSet};
    use seqhide_types::{OpKind, SequenceDb};

    fn spec(dataset: &str, add: &[&str], remove: &[usize]) -> DeltaSpec {
        DeltaSpec {
            dataset: dataset.to_string(),
            add: add.iter().map(|s| s.to_string()).collect(),
            remove: remove.to_vec(),
            job: JobSpec {
                patterns: vec!["a c".to_string()],
                psi: 1,
                ..JobSpec::default()
            },
            want_release: false,
        }
    }

    fn memory_registry() -> Arc<DatasetRegistry> {
        let (registry, _) = DatasetRegistry::new(None, RegistryLimits::default()).unwrap();
        Arc::new(registry)
    }

    #[test]
    fn delta_mutates_and_matches_fresh_sanitize() {
        let registry = memory_registry();
        registry
            .load("corp", "inline", "a b c\nb a c\na c\nb b\n")
            .unwrap();
        let sessions = DeltaSessions::new();
        let mut s = spec("corp", &["c a c"], &[1]);
        s.want_release = true;
        let out = sessions.execute(&registry, &s).unwrap();
        assert_eq!(out.version, 2);
        assert_eq!(out.added, 1);
        assert_eq!(out.removed, 1);
        assert_eq!(out.sequences, 4);
        assert!(out.hidden);
        let release = out.release.clone().unwrap();

        // The registry's new text is the mutated originals...
        let text = registry.get("corp").unwrap().text().unwrap();
        assert_eq!(&*text, "a b c\na c\nb b\nc a c\n");
        // ...and the release matches a fresh sanitize of that text.
        let fresh = crate::exec::sanitize(&crate::exec::SanitizeSpec {
            db: crate::exec::DbSource::from(text.as_ref()),
            job: s.job.clone(),
        })
        .unwrap();
        assert_eq!(release, fresh.release);
        assert_eq!(out.marks, fresh.marks);
        assert_eq!(out.residual_supports, fresh.residual_supports);
    }

    #[test]
    fn sessions_carry_across_deltas_and_versions_climb() {
        let registry = memory_registry();
        registry.load("corp", "inline", "a c\nb b\n").unwrap();
        let sessions = DeltaSessions::new();
        let out = sessions
            .execute(&registry, &spec("corp", &["a c a"], &[]))
            .unwrap();
        assert_eq!(out.version, 2);
        let out = sessions
            .execute(&registry, &spec("corp", &[], &[0]))
            .unwrap();
        assert_eq!(out.version, 3);
        assert_eq!(out.sequences, 2);
        // a fingerprint change rebuilds rather than reuses
        let mut changed = spec("corp", &[], &[]);
        changed.job.seed = 9;
        let out = sessions.execute(&registry, &changed).unwrap();
        assert_eq!(out.version, 4);
    }

    #[test]
    fn delta_rejections_are_pointed() {
        let registry = memory_registry();
        registry.load("corp", "inline", "a c\n").unwrap();
        let sessions = DeltaSessions::new();

        let e = sessions
            .execute(&registry, &spec("ghost", &[], &[]))
            .unwrap_err();
        assert!(e.contains("unknown dataset 'ghost'"), "{e}");

        let mut s = spec("corp", &[], &[]);
        s.job.patterns.clear();
        let e = sessions.execute(&registry, &s).unwrap_err();
        assert!(e.contains("nothing to hide"), "{e}");

        let mut s = spec("corp", &[], &[]);
        s.job.op = OpKind::Substitute;
        let e = sessions.execute(&registry, &s).unwrap_err();
        assert!(e.contains("substitute"), "{e}");

        let mut s = spec("corp", &[], &[]);
        s.job.op = OpKind::Delete;
        let e = sessions.execute(&registry, &s).unwrap_err();
        assert!(e.contains("mode\":\"string"), "{e}");

        // out-of-range removal leaves the dataset (and version) intact
        let e = sessions
            .execute(&registry, &spec("corp", &[], &[9]))
            .unwrap_err();
        assert!(e.contains("ordinal 9"), "{e}");
        assert_eq!(registry.get("corp").unwrap().version(), 1);
    }

    #[test]
    fn string_mode_delete_edits_through_deltas() {
        let registry = memory_registry();
        registry.load("corp", "inline", "a b c\na b d\n").unwrap();
        let sessions = DeltaSessions::new();
        let mut s = spec("corp", &["a b e"], &[]);
        s.job.mode = Mode::String;
        s.job.patterns = vec!["a b".to_string()];
        s.job.psi = 0;
        s.job.op = OpKind::Delete;
        s.want_release = true;
        let out = sessions.execute(&registry, &s).unwrap();
        assert!(out.hidden);
        let release = out.release.unwrap();
        assert!(!release.contains("a b"), "{release}");
        assert!(!release.contains('Δ'), "{release}");
    }

    #[test]
    fn sqdi_roundtrips_and_guards_mismatches() {
        let dir =
            std::env::temp_dir().join(format!("seqhide-sqdi-{}-{}", std::process::id(), line!()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut db = SequenceDb::parse("a b c\nb a c\na c\nb b\n");
        let seq = Sequence::parse("a c", db.alphabet_mut());
        let sh = SensitiveSet::new(vec![seq]);
        let config = Sanitizer::hh(1);
        let mut domain = MatchEngine::<Sat64>::new(&sh);
        let state = DeltaState::build(&config, &mut domain, db.sequences().to_vec());
        let path = sqdi_path(&dir, "corp");
        write_sqdi(&path, "fp", 3, &state).unwrap();

        let (index, residual) = read_sqdi(&path, "fp", 3, state.len(), 1).unwrap();
        assert_eq!(index.len(), state.index().len());
        assert_eq!(residual, state.report().residual_supports);
        // the restored index rebuilds an identical state
        let restored = DeltaState::from_index(
            &config,
            &mut domain,
            db.sequences().to_vec(),
            index,
            Some(residual),
        );
        assert_eq!(restored.released(), state.released());
        assert_eq!(restored.victims(), state.victims());

        assert!(read_sqdi(&path, "other-fp", 3, state.len(), 1).is_none());
        assert!(read_sqdi(&path, "fp", 4, state.len(), 1).is_none());
        assert!(read_sqdi(&path, "fp", 3, state.len() + 1, 1).is_none());
        assert!(read_sqdi(&path, "fp", 3, state.len(), 2).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn data_dir_persists_the_index_and_warm_start_matches_cold() {
        let dir = std::env::temp_dir().join(format!(
            "seqhide-delta-dir-{}-{}",
            std::process::id(),
            line!()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let (registry, _) =
            DatasetRegistry::new(Some(dir.clone()), RegistryLimits::default()).unwrap();
        let registry = Arc::new(registry);
        registry
            .load("corp", "inline", "a b c\nb a c\na c\nb b\n")
            .unwrap();
        let sessions = DeltaSessions::new();
        let mut s = spec("corp", &["c a c"], &[]);
        s.want_release = true;
        let warm_release = sessions.execute(&registry, &s).unwrap().release.unwrap();
        assert!(dir.join("corp.sqdi").exists(), "index sidecar written");

        // A restarted registry re-attaches the store; a fresh session
        // table warm-starts from the sidecar and a further delta lands
        // on the same release a cold build would produce.
        let (restarted, reattached) =
            DatasetRegistry::new(Some(dir.clone()), RegistryLimits::default()).unwrap();
        assert_eq!(reattached, 1);
        let restarted = Arc::new(restarted);
        assert_eq!(restarted.get("corp").unwrap().version(), 2);
        let fresh_sessions = DeltaSessions::new();
        let mut s2 = spec("corp", &[], &[]);
        s2.want_release = true;
        let from_warm = fresh_sessions
            .execute(&restarted, &s2)
            .unwrap()
            .release
            .unwrap();
        assert_eq!(from_warm, warm_release);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
