//! The request pipeline: the one module that turns a sanitization job —
//! a database plus a [`JobSpec`] — into a release.
//!
//! Every surface is a thin adapter over it. `seqhide hide` maps flags to
//! a [`JobSpec`] and calls [`run`] (in memory), [`run_streaming`]
//! (`--stream`) or [`DeltaJob`] (`--delta`); the server's `sanitize`,
//! `verify`, `stats` and `delta` ops decode the same spec from JSON and
//! call the same functions. A served release is therefore byte-identical
//! to the CLI's for the same (input, pattern class, algorithm, ψ, seed)
//! because there is only one code path to be identical to —
//! `tests/serve.rs` pins that across all four HH/HR/RH/RR strategies and
//! every pattern class.
//!
//! The pipeline owns the decisions that make releases reproducible:
//!
//! * **Parse and intern order** — the database first, then the patterns,
//!   then the regexes. Itemset item choice and string substitution
//!   iterate symbols in interned-id order, so the streaming path
//!   pre-interns the database in file order before the patterns for
//!   those two modes (and only those: the others do not depend on ids).
//! * **Constraints** — [`JobSpec::constraints`] and its tick-measured
//!   twin for timed mode are the only gap/window builders and reject
//!   `max_gap < min_gap` the same way for every mode.
//! * **Dispatch** — a mode's compiled patterns hand a monomorphised
//!   domain factory to each generic pass (sanitize, stream, post-delete,
//!   delta build, apply and render), so no [`PatternDomain`] is chosen
//!   anywhere else.
//! * **Rendering** — one writer per line format ([`StreamCodec`]), used
//!   by the resident, streaming and delta paths alike.

use std::any::Any;
use std::fmt;
use std::io::{self, BufRead, Write};
use std::sync::Arc;

use seqhide_core::post::ReplaceReport;
use seqhide_core::timed::{TimeConstraints, TimeGap, TimedPattern};
use seqhide_core::{
    parse_algorithm, DeltaReport, DeltaState, EngineMode, GlobalStrategy, LocalStrategy,
    PatternDomain, PlainVisitor, SanitizeReport, Sanitizer, SeqDelta, StreamReport, SupporterIndex,
    TimedDomain,
};
use seqhide_data::stream::{
    ItemsetCodec, PlainCodec, SeqReader, ShardWriter, StreamCodec, TimedCodec,
};
use seqhide_match::itemset::ItemsetPattern;
use seqhide_match::{ConstraintSet, Gap, ItemsetMatchEngine, SensitivePattern, SensitiveSet};
use seqhide_num::Sat64;
use seqhide_re::{sanitize_regex_db, RegexDomain, RegexPattern};
use seqhide_string::{StringDomain, StringPattern};
use seqhide_types::{
    Alphabet, Itemset, ItemsetSequence, OpKind, Sequence, SequenceDb, TimedSequence,
};

use crate::registry::DatasetSnapshot;

/// Pass-2 batch size for disk-streamed dataset sanitizes: bounds
/// resident sequences, not correctness (streaming output is
/// byte-identical at any batch size).
const STREAM_BATCH_SEQS: usize = 1024;

/// Resident-buffer bound for the disk-streamed output writer; past it,
/// finished batches spill to temp shards until response render.
const STREAM_SPILL_BYTES: usize = 8 * 1024 * 1024;

/// Where a request's database text comes from.
#[derive(Clone)]
pub enum DbSource {
    /// Shipped inline in the request (`"db"`).
    Inline(Arc<str>),
    /// Referenced by name (`"dataset"`), not yet resolved against the
    /// registry — the server resolves this to [`DbSource::Dataset`]
    /// before the job is queued; reaching exec unresolved is a bug.
    Named(String),
    /// A resolved registry snapshot; the held `Arc` keeps the dataset
    /// alive through execution even if it is unloaded meanwhile.
    Dataset(Arc<DatasetSnapshot>),
}

impl DbSource {
    /// The full database text. Errors for disk-streamed datasets over
    /// the resident cap (callers with a streaming path check
    /// [`DatasetSnapshot::streams_from_disk`] first).
    pub fn text(&self) -> Result<Arc<str>, String> {
        match self {
            DbSource::Inline(text) => Ok(Arc::clone(text)),
            DbSource::Dataset(snapshot) => snapshot.text(),
            DbSource::Named(name) => Err(format!(
                "internal: dataset '{name}' reached execution unresolved"
            )),
        }
    }
}

impl From<&str> for DbSource {
    fn from(text: &str) -> Self {
        DbSource::Inline(Arc::from(text))
    }
}

impl From<String> for DbSource {
    fn from(text: String) -> Self {
        DbSource::Inline(Arc::from(text))
    }
}

impl fmt::Debug for DbSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbSource::Inline(text) => write!(f, "Inline({} bytes)", text.len()),
            DbSource::Named(name) => write!(f, "Named({name:?})"),
            DbSource::Dataset(snapshot) => write!(f, "Dataset({:?})", snapshot.name()),
        }
    }
}

/// Which line format (and pattern class) a job's database uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Whitespace-separated symbols (`a b c`); plain and regex patterns.
    Plain,
    /// Comma-joined items per element (`bread,milk beer`).
    Itemset,
    /// `symbol@tick` events; gaps measured in elapsed ticks.
    Timed,
    /// Plain line format, but patterns are *contiguous substrings* and
    /// the `op` field selects the edit family (the CLI's
    /// `--domain string`).
    String,
}

impl Mode {
    /// Parses the wire `mode` field (`None` defaults to plain, as the
    /// CLI's `--mode` does).
    pub fn parse(name: Option<&str>) -> Result<Mode, String> {
        match name.unwrap_or("plain") {
            "plain" => Ok(Mode::Plain),
            "itemset" => Ok(Mode::Itemset),
            "timed" => Ok(Mode::Timed),
            "string" => Ok(Mode::String),
            other => Err(format!(
                "unknown mode '{other}' (plain|itemset|timed|string)"
            )),
        }
    }
}

/// The pattern family one sanitizer pass hid. Plain mode runs up to two
/// passes over the same database: plain patterns, then regexes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    /// Plain subsequence patterns.
    Plain,
    /// Regular-expression patterns over plain sequences.
    Regex,
    /// Itemset-sequence patterns.
    Itemset,
    /// Timed patterns (gaps in ticks).
    Timed,
    /// Contiguous substrings.
    String,
}

impl Family {
    /// What the family's patterns are called ("plain patterns", …).
    pub fn noun(self) -> &'static str {
        match self {
            Family::Plain => "plain patterns",
            Family::Regex => "regex patterns",
            Family::Itemset => "itemset patterns",
            Family::Timed => "timed patterns",
            Family::String => "string patterns",
        }
    }

    /// What one distortion is called ("marks", "edits", …).
    pub fn unit(self) -> &'static str {
        match self {
            Family::Plain | Family::Regex => "marks",
            Family::Itemset => "item marks",
            Family::Timed => "event marks",
            Family::String => "edits",
        }
    }
}

/// Everything a sanitization job needs besides its database: the fields
/// the CLI's `hide` flags and the wire's `sanitize`/`delta` requests
/// share.
#[derive(Clone, Debug)]
pub struct JobSpec {
    /// The line format / pattern class.
    pub mode: Mode,
    /// Sensitive patterns, in `mode`'s pattern syntax.
    pub patterns: Vec<String>,
    /// Regex patterns (plain mode only).
    pub regexes: Vec<String>,
    /// Disclosure threshold ψ.
    pub psi: usize,
    /// Local (position-choice) strategy.
    pub local: LocalStrategy,
    /// Global (sequence-choice) strategy.
    pub global: GlobalStrategy,
    /// RNG seed for the random strategies.
    pub seed: u64,
    /// Counting core for the marking loop.
    pub engine: EngineMode,
    /// Exact big-integer match counting (plain patterns only).
    pub exact: bool,
    /// Minimum gap between consecutive pattern elements (ticks in timed
    /// mode, index distance otherwise; string mode has no gaps).
    pub min_gap: u64,
    /// Maximum gap, if constrained.
    pub max_gap: Option<u64>,
    /// Maximum whole-match window, if constrained.
    pub max_window: Option<u64>,
    /// Distortion operator family; every mode except `string` is
    /// Δ-mark-only and rejects `delete`/`substitute`.
    pub op: OpKind,
    /// Worker threads for the victim loop (output is identical at any
    /// count; 0 means one per CPU).
    pub threads: usize,
}

impl Default for JobSpec {
    /// A plain-mode HH job with no patterns, ψ = 0, seed 0, one thread.
    fn default() -> Self {
        JobSpec {
            mode: Mode::Plain,
            patterns: Vec::new(),
            regexes: Vec::new(),
            psi: 0,
            local: LocalStrategy::Heuristic,
            global: GlobalStrategy::Heuristic,
            seed: 0,
            engine: EngineMode::default(),
            exact: false,
            min_gap: 0,
            max_gap: None,
            max_window: None,
            op: OpKind::Mark,
            threads: 1,
        }
    }
}

impl JobSpec {
    /// The sanitizer this job configures.
    pub fn sanitizer(&self) -> Sanitizer {
        Sanitizer::new(self.local, self.global, self.psi)
            .with_seed(self.seed)
            .with_exact_counts(self.exact)
            .with_engine(self.engine)
            .with_threads(self.threads)
    }

    /// Sets the strategy pair, counting core and operator from their
    /// names as the CLI flags and the wire fields both spell them:
    /// `algorithm` hh|hr|rh|rr (`None` = hh), `engine`
    /// incremental|scratch and `op` mark|delete|substitute (`None` keeps
    /// the current value).
    pub fn with_names(
        mut self,
        algorithm: Option<&str>,
        engine: Option<&str>,
        op: Option<&str>,
    ) -> Result<JobSpec, String> {
        let algorithm = algorithm.unwrap_or("hh");
        (self.local, self.global) = parse_algorithm(algorithm)
            .ok_or_else(|| format!("unknown algorithm '{algorithm}' (hh|hr|rh|rr)"))?;
        if let Some(v) = engine {
            self.engine = EngineMode::parse(v)
                .ok_or_else(|| format!("unknown engine '{v}' (incremental|scratch)"))?;
        }
        if let Some(v) = op {
            self.op = OpKind::parse(v)
                .ok_or_else(|| format!("unknown op '{v}' (mark|delete|substitute)"))?;
        }
        Ok(self)
    }

    /// The family a run of this job hides first: regex when a plain job
    /// gives only regexes.
    pub fn family(&self) -> Family {
        match self.mode {
            Mode::Plain if self.patterns.is_empty() && !self.regexes.is_empty() => Family::Regex,
            Mode::Plain => Family::Plain,
            Mode::Itemset => Family::Itemset,
            Mode::Timed => Family::Timed,
            Mode::String => Family::String,
        }
    }

    /// Field combinations no mode accepts, checked before any data is
    /// read.
    fn check(&self) -> Result<(), String> {
        if self.op != OpKind::Mark && self.mode != Mode::String {
            return Err(format!(
                "op '{}': this mode is hidden by Δ-marks only; edit operations \
                 (delete|substitute) need \"mode\":\"string\"",
                self.op.name()
            ));
        }
        if !self.regexes.is_empty() && self.mode != Mode::Plain {
            return Err("regexes apply to plain mode only".to_string());
        }
        Ok(())
    }

    /// Gap/window constraints measured in sequence positions (every mode
    /// but timed).
    pub fn constraints(&self) -> Result<ConstraintSet, String> {
        let mut cs = match self.gap()? {
            None => ConstraintSet::none(),
            Some((min, max)) => ConstraintSet::uniform_gap(Gap {
                min: min as usize,
                max: max.map(|g| g as usize),
            }),
        };
        cs.max_window = self.max_window.map(|w| w as usize);
        Ok(cs)
    }

    /// Gap/window constraints measured in elapsed ticks (timed mode).
    fn tick_constraints(&self) -> Result<TimeConstraints, String> {
        let mut tc = match self.gap()? {
            None => TimeConstraints::none(),
            Some((min, max)) => TimeConstraints::uniform_gap(TimeGap { min, max }),
        };
        tc.max_window = self.max_window;
        Ok(tc)
    }

    /// The uniform gap both builders start from — `None` when
    /// unconstrained — rejected when `max_gap < min_gap`.
    fn gap(&self) -> Result<Option<(u64, Option<u64>)>, String> {
        if self.max_gap.is_some_and(|max| max < self.min_gap) {
            return Err("max_gap must be ≥ min_gap".to_string());
        }
        Ok((self.min_gap > 0 || self.max_gap.is_some()).then_some((self.min_gap, self.max_gap)))
    }

    /// Compiles the patterns (then the regexes) against `alphabet`, which
    /// must already hold the database's symbols. Returns one entry per
    /// sanitizer pass, never none.
    fn compile(&self, alphabet: &mut Alphabet) -> Result<Vec<Patterns>, String> {
        if self.patterns.is_empty() && self.regexes.is_empty() {
            return Err(format!(
                "nothing to hide: give {}",
                match self.mode {
                    Mode::Plain => "patterns and/or regexes",
                    Mode::Itemset => "patterns (itemset syntax: a,b c)",
                    Mode::Timed => "patterns (plain symbols; gaps in ticks)",
                    Mode::String => "patterns (contiguous substrings)",
                }
            ));
        }
        let texts = &self.patterns;
        Ok(match self.mode {
            Mode::Plain => {
                let cs = self.constraints()?;
                let sh = each(texts, "pattern", |t| {
                    SensitivePattern::new(Sequence::parse(t, alphabet), cs.clone())
                })?;
                let regexes = each(&self.regexes, "regex", |t| {
                    RegexPattern::compile(t, alphabet).map(|p| p.with_constraints(&cs))
                })?;
                let plain =
                    (!sh.is_empty()).then(|| Patterns::Plain(SensitiveSet::from_patterns(sh)));
                let regex = (!regexes.is_empty()).then_some(Patterns::Regex(regexes));
                plain.into_iter().chain(regex).collect()
            }
            Mode::Itemset => {
                let cs = self.constraints()?;
                vec![Patterns::Itemset(each(texts, "pattern", |t| {
                    ItemsetPattern::new(itemset_pattern(t, alphabet), cs.clone())
                })?)]
            }
            Mode::Timed => {
                let tc = self.tick_constraints()?;
                vec![Patterns::Timed(each(texts, "pattern", |t| {
                    TimedPattern::new(Sequence::parse(t, alphabet), tc.clone())
                })?)]
            }
            Mode::String => {
                let patterns = each(texts, "pattern", |t| {
                    StringPattern::new(Sequence::parse(t, alphabet))
                })?;
                vec![Patterns::String(patterns, alphabet.len())]
            }
        })
    }
}

/// Compiles each of `texts`, naming the first that fails.
fn each<T, E: fmt::Display>(
    texts: &[String],
    kind: &str,
    mut compile: impl FnMut(&str) -> Result<T, E>,
) -> Result<Vec<T>, String> {
    texts
        .iter()
        .map(|t| compile(t).map_err(|e| format!("{kind} '{t}': {e}")))
        .collect()
}

/// An itemset pattern in the `a,b c` syntax (comma-joined items per
/// element).
fn itemset_pattern(text: &str, alphabet: &mut Alphabet) -> ItemsetSequence {
    ItemsetSequence::new(
        text.split_whitespace()
            .map(|elem| {
                Itemset::new(
                    elem.split(',')
                        .filter(|w| !w.is_empty())
                        .map(|w| alphabet.intern(w))
                        .collect(),
                )
            })
            .collect(),
    )
}

/// One sanitizer pass's patterns, compiled against the job's alphabet.
enum Patterns {
    Plain(SensitiveSet),
    Regex(Vec<RegexPattern>),
    Itemset(Vec<ItemsetPattern>),
    Timed(Vec<TimedPattern>),
    /// Substrings plus `|Σ|` at compile time (substitution candidates).
    String(Vec<StringPattern>, usize),
}

impl Patterns {
    fn family(&self) -> Family {
        match self {
            Patterns::Plain(_) => Family::Plain,
            Patterns::Regex(_) => Family::Regex,
            Patterns::Itemset(_) => Family::Itemset,
            Patterns::Timed(_) => Family::Timed,
            Patterns::String(..) => Family::String,
        }
    }

    /// Hands `pass` the factory for this family's domain under `job`.
    /// This is the only place a [`PatternDomain`] is chosen.
    fn visit<P: Pass>(&self, job: &JobSpec, pass: P) -> P::Out {
        match self {
            Patterns::Plain(sh) => job.sanitizer().visit_plain(sh, Plain(pass)),
            Patterns::Regex(r) => pass.run(&|| RegexDomain::<Sat64>::new(r)),
            Patterns::Itemset(p) => pass.run(&|| ItemsetMatchEngine::<Sat64>::new(p)),
            Patterns::Timed(p) => pass.run(&|| TimedDomain::<Sat64>::new(p)),
            Patterns::String(p, sigma_len) => {
                let op = job.op;
                pass.run(&|| StringDomain::<Sat64>::new(p, *sigma_len).with_op(op))
            }
        }
    }
}

/// One step of the pipeline, generic over the domain it drives. `run` is
/// monomorphised per domain type: nothing in the marking loop goes
/// through `dyn`.
trait Pass {
    type Out;
    fn run<D>(self, make: &(dyn Fn() -> D + Sync)) -> Self::Out
    where
        D: PatternDomain,
        D::Seq: Row;
}

/// Adapts a [`Pass`] to the core's plain-domain dispatch.
struct Plain<P>(P);

impl<P: Pass> PlainVisitor for Plain<P> {
    type Output = P::Out;
    fn visit<D: PatternDomain<Seq = Sequence>>(self, make: &(dyn Fn() -> D + Sync)) -> P::Out {
        self.0.run(make)
    }
}

/// A resident database in its mode's line format.
enum Rows {
    Plain(Vec<Sequence>),
    Itemset(Vec<ItemsetSequence>),
    Timed(Vec<TimedSequence>),
}

impl Rows {
    /// Parses `text` in `mode`'s line format.
    fn parse(mode: Mode, text: &str) -> Result<(Alphabet, Rows), String> {
        Ok(match mode {
            Mode::Plain | Mode::String => {
                let (alphabet, rows) = SequenceDb::parse(text).into_parts();
                (alphabet, Rows::Plain(rows))
            }
            Mode::Itemset => {
                let (alphabet, rows) = seqhide_data::io::parse_itemset_db(text);
                (alphabet, Rows::Itemset(rows))
            }
            Mode::Timed => {
                let (alphabet, rows) =
                    seqhide_data::io::parse_timed_db(text).map_err(|e| e.to_string())?;
                (alphabet, Rows::Timed(rows))
            }
        })
    }

    fn write(&self, alphabet: &Alphabet, out: &mut dyn Write) -> io::Result<()> {
        match self {
            Rows::Plain(rows) => write_rows(alphabet, rows, out),
            Rows::Itemset(rows) => write_rows(alphabet, rows, out),
            Rows::Timed(rows) => write_rows(alphabet, rows, out),
        }
    }
}

/// A sequence type of one line format: its codec and its slot in
/// [`Rows`].
trait Row: Clone + Default + Send + 'static {
    type Codec: StreamCodec<Seq = Self>;
    const CODEC: Self::Codec;
    /// The rows of this type; the job's mode fixes which variant holds.
    fn rows(rows: &mut Rows) -> &mut Vec<Self>;
    /// Drops the marked slots, returning how many went.
    fn delete_marked(&mut self) -> usize;
}

impl Row for Sequence {
    type Codec = PlainCodec;
    const CODEC: PlainCodec = PlainCodec;
    fn rows(rows: &mut Rows) -> &mut Vec<Self> {
        match rows {
            Rows::Plain(rows) => rows,
            _ => unreachable!("plain and string modes hold plain rows"),
        }
    }
    fn delete_marked(&mut self) -> usize {
        let marks = self.mark_count();
        *self = self.without_marks();
        marks
    }
}

impl Row for ItemsetSequence {
    type Codec = ItemsetCodec;
    const CODEC: ItemsetCodec = ItemsetCodec;
    fn rows(rows: &mut Rows) -> &mut Vec<Self> {
        match rows {
            Rows::Itemset(rows) => rows,
            _ => unreachable!("itemset mode holds itemset rows"),
        }
    }
    fn delete_marked(&mut self) -> usize {
        ItemsetSequence::delete_marked(self)
    }
}

impl Row for TimedSequence {
    type Codec = TimedCodec;
    const CODEC: TimedCodec = TimedCodec;
    fn rows(rows: &mut Rows) -> &mut Vec<Self> {
        match rows {
            Rows::Timed(rows) => rows,
            _ => unreachable!("timed mode holds timed rows"),
        }
    }
    fn delete_marked(&mut self) -> usize {
        TimedSequence::delete_marked(self)
    }
}

/// The one renderer: each row as its codec's line.
fn write_rows<S: Row>(alphabet: &Alphabet, rows: &[S], out: &mut dyn Write) -> io::Result<()> {
    rows.iter()
        .try_for_each(|t| S::CODEC.write_line(alphabet, t, out))
}

fn to_text(write: impl FnOnce(&mut dyn Write) -> io::Result<()>) -> String {
    let mut out = Vec::new();
    write(&mut out).expect("write to Vec cannot fail");
    String::from_utf8(out).expect("symbol names are valid UTF-8")
}

/// The error for a pass that left a pattern above ψ — a sanitizer bug:
/// the global rule guarantees every pattern ends at or below it.
pub fn not_hidden(family: Family) -> String {
    format!("internal: sanitizer failed to hide {}", family.noun())
}

/// A database sanitized in memory, with the passes that sanitized it.
pub struct Resident {
    job: JobSpec,
    alphabet: Alphabet,
    rows: Rows,
    passes: Vec<(Patterns, SanitizeReport)>,
}

/// Sanitizes `text` in memory: parse, compile, one pass per family.
/// `text` is dropped once parsed, so a caller handing over an owned
/// `String` does not hold the input through the run.
pub fn run(job: &JobSpec, text: impl AsRef<str>) -> Result<Resident, String> {
    job.check()?;
    let (mut alphabet, mut rows) = Rows::parse(job.mode, text.as_ref())?;
    drop(text);
    struct Sanitize<'a>(&'a Sanitizer, &'a mut Rows);
    impl Pass for Sanitize<'_> {
        type Out = SanitizeReport;
        fn run<D: PatternDomain>(self, make: &(dyn Fn() -> D + Sync)) -> SanitizeReport
        where
            D::Seq: Row,
        {
            self.0.run_domain_threaded(D::Seq::rows(self.1), make)
        }
    }
    let sanitizer = job.sanitizer();
    let mut passes = Vec::new();
    for patterns in job.compile(&mut alphabet)? {
        let report = patterns.visit(job, Sanitize(&sanitizer, &mut rows));
        if !report.hidden {
            return Err(not_hidden(patterns.family()));
        }
        passes.push((patterns, report));
    }
    Ok(Resident {
        job: job.clone(),
        alphabet,
        rows,
        passes,
    })
}

impl Resident {
    /// Each pass's family and report, in run order.
    pub fn passes(&self) -> impl Iterator<Item = (Family, &SanitizeReport)> {
        self.passes.iter().map(|(p, r)| (p.family(), r))
    }

    /// Sequences held and Δ marks among them.
    pub fn shape(&self) -> (usize, usize) {
        match &self.rows {
            Rows::Plain(r) => (r.len(), r.iter().map(Sequence::mark_count).sum()),
            Rows::Itemset(r) => (r.len(), r.iter().map(ItemsetSequence::mark_count).sum()),
            Rows::Timed(r) => (r.len(), r.iter().map(TimedSequence::mark_count).sum()),
        }
    }

    /// Deletes the Δ marks, then re-verifies and re-sanitizes until the
    /// shortened release hides every pattern again (deletion shrinks
    /// gaps, which can resurrect constrained occurrences). Returns the
    /// rounds taken. String mode edits during sanitization and has no
    /// marks to delete.
    pub fn delete_marks(&mut self) -> Result<usize, String> {
        let Resident {
            job,
            alphabet,
            rows,
            passes,
        } = self;
        // Re-sanitizing rounds use the default seed, not the job's: the
        // released bytes of `--post delete` depend on it.
        let post = Sanitizer::new(job.local, job.global, job.psi);
        match job.mode {
            Mode::Plain => {
                let (sh, regexes) = plain_passes(passes);
                let db = SequenceDb::from_parts(
                    std::mem::take(alphabet),
                    std::mem::take(Sequence::rows(rows)),
                );
                // The hook re-verifies (and if needed re-sanitizes) the
                // regexes each round; it returns 0 once they are hidden,
                // so the loop ends with both families clean.
                let (released, report) =
                    seqhide_core::post::delete_markers_safe_with(&db, &sh, job.psi, &post, |cur| {
                        if regexes.is_empty() {
                            0
                        } else {
                            sanitize_regex_db(cur, regexes, job.psi, job.local, job.seed)
                                .marks_introduced
                        }
                    });
                let (released_alphabet, released_rows) = released.into_parts();
                *alphabet = released_alphabet;
                *Sequence::rows(rows) = released_rows;
                Ok(report.rounds)
            }
            Mode::Itemset | Mode::Timed => {
                struct Delete<'a>(&'a mut Rows, usize, &'a Sanitizer);
                impl Pass for Delete<'_> {
                    type Out = usize;
                    fn run<D: PatternDomain>(self, make: &(dyn Fn() -> D + Sync)) -> usize
                    where
                        D::Seq: Row,
                    {
                        seqhide_core::post::delete_markers_safe_domain(
                            D::Seq::rows(self.0),
                            &mut make(),
                            self.1,
                            self.2,
                            D::Seq::delete_marked,
                        )
                        .rounds
                    }
                }
                Ok(passes[0].0.visit(job, Delete(rows, job.psi, &post)))
            }
            Mode::String => {
                Err("string mode edits during sanitization; it leaves no Δ to delete".to_string())
            }
        }
    }

    /// Replaces Δ marks with alphabet symbols wherever that re-creates no
    /// sensitive occurrence. Plain mode only: the symbols are plain ones.
    pub fn replace_marks(&mut self) -> Result<ReplaceReport, String> {
        if self.job.mode != Mode::Plain {
            return Err(
                "replacing Δ marks writes plain alphabet symbols; it applies to plain mode only"
                    .to_string(),
            );
        }
        let (sh, _) = plain_passes(&self.passes);
        let rows = Sequence::rows(&mut self.rows);
        let mut db =
            SequenceDb::from_parts(std::mem::take(&mut self.alphabet), std::mem::take(rows));
        let report = seqhide_core::post::replace_markers(&mut db, &sh, self.job.seed);
        (self.alphabet, *rows) = db.into_parts();
        Ok(report)
    }

    /// Writes the release.
    pub fn write(&self, out: &mut dyn Write) -> io::Result<()> {
        self.rows.write(&self.alphabet, out)
    }

    /// The release as text.
    pub fn text(&self) -> String {
        to_text(|out| self.write(out))
    }

    /// The wire outcome: counters summed over the passes, residual
    /// supports listed pass by pass.
    pub fn into_outcome(self) -> SanitizeOutcome {
        let release = self.text();
        outcome(self.passes.iter().map(|(_, r)| r), release)
    }
}

/// Plain mode's pattern set (empty when only regexes were given) and
/// regexes.
fn plain_passes(passes: &[(Patterns, SanitizeReport)]) -> (SensitiveSet, &[RegexPattern]) {
    let mut sh = SensitiveSet::from_patterns(Vec::new());
    let mut regexes: &[RegexPattern] = &[];
    for (patterns, _) in passes {
        match patterns {
            Patterns::Plain(set) => sh = set.clone(),
            Patterns::Regex(r) => regexes = r,
            _ => {}
        }
    }
    (sh, regexes)
}

/// A streamed run's family and report.
#[derive(Clone, Debug)]
pub struct Streamed {
    /// The family the run hid.
    pub family: Family,
    /// The streaming report.
    pub report: StreamReport,
}

/// Sanitizes a database too large to hold: pass 1 reads it for the
/// supporter index, pass 2 re-reads it in `batch_size` batches and
/// writes each batch to `sink` as it completes. `open` must return a
/// fresh reader over the same bytes on every call; `source` names the
/// input in I/O errors. The bytes written equal [`Resident::write`]'s on
/// the same input. One family per run: a plain job gives patterns or
/// regexes, not both.
pub fn run_streaming(
    job: &JobSpec,
    open: &dyn Fn() -> io::Result<Box<dyn BufRead>>,
    source: &str,
    batch_size: usize,
    sink: &mut dyn Write,
) -> Result<Streamed, String> {
    job.check()?;
    if !job.patterns.is_empty() && !job.regexes.is_empty() {
        return Err(
            "streaming hides one pattern class per run: give patterns or regexes, not both"
                .to_string(),
        );
    }
    let io_err = |e: io::Error| format!("cannot stream {source}: {e}");
    let mut alphabet = Alphabet::new();
    // The pre-pass: intern the database's symbols in file order, as the
    // resident parse does, before the patterns'.
    fn intern_all<K: StreamCodec>(
        codec: &K,
        open: &dyn Fn() -> io::Result<Box<dyn BufRead>>,
        alphabet: &mut Alphabet,
    ) -> io::Result<()> {
        let mut reader = SeqReader::new(open()?);
        while reader.next_record(codec, alphabet)?.is_some() {}
        Ok(())
    }
    match job.mode {
        Mode::Itemset => intern_all(&ItemsetCodec, open, &mut alphabet),
        Mode::String => intern_all(&PlainCodec, open, &mut alphabet),
        Mode::Plain | Mode::Timed => Ok(()),
    }
    .map_err(io_err)?;
    let patterns = job.compile(&mut alphabet)?.remove(0);

    struct Stream<'a>(
        Sanitizer,
        &'a dyn Fn() -> io::Result<Box<dyn BufRead>>,
        &'a mut Alphabet,
        usize,
        &'a mut dyn Write,
    );
    impl Pass for Stream<'_> {
        type Out = io::Result<StreamReport>;
        fn run<D: PatternDomain>(self, make: &(dyn Fn() -> D + Sync)) -> Self::Out
        where
            D::Seq: Row,
        {
            let Stream(sanitizer, open, alphabet, batch_size, sink) = self;
            sanitizer.run_streaming_domain_from(
                open,
                alphabet,
                &D::Seq::CODEC,
                make,
                batch_size,
                sink,
            )
        }
    }
    let stream = Stream(job.sanitizer(), open, &mut alphabet, batch_size, sink);
    let report = patterns.visit(job, stream).map_err(io_err)?;
    if !report.report.hidden {
        return Err(not_hidden(patterns.family()));
    }
    Ok(Streamed {
        family: patterns.family(),
        report,
    })
}

/// A sanitized database that absorbs edits incrementally — the state
/// behind both `hide --delta` and the server's `delta` sessions. After
/// any sequence of [`DeltaJob::apply`] calls the release is
/// byte-identical to [`run`] on the mutated database.
pub struct DeltaJob {
    job: JobSpec,
    alphabet: Alphabet,
    patterns: Patterns,
    /// The `DeltaState<S, C>` of the domain `patterns` dispatches to,
    /// type-erased so one field serves every mode; each pass downcasts
    /// it back through the same dispatch that built it.
    state: Box<dyn Any + Send>,
}

/// The typed state behind a [`DeltaJob`], for the domain `D`.
fn delta_state<D: PatternDomain>(state: &mut (dyn Any + Send)) -> &mut DeltaState<D::Seq, D::Count>
where
    D::Seq: Row,
{
    state
        .downcast_mut()
        .expect("a delta state is visited through the dispatch that built it")
}

impl DeltaJob {
    /// Parses `text`, compiles the patterns and sanitizes in full — the
    /// cold path. `warm` carries a persisted supporter index and residual
    /// tally for a plain job, skipping the supporter scan; it is ignored
    /// in other modes and when the job's counts are not [`Sat64`].
    pub fn build(
        job: &JobSpec,
        text: impl AsRef<str>,
        warm: Option<(SupporterIndex<Sat64>, Vec<usize>)>,
    ) -> Result<DeltaJob, String> {
        job.check()?;
        if job.op == OpKind::Substitute {
            return Err(
                "deltas cannot replay op 'substitute': replacement symbols depend on \
                 alphabet interning order, which differs once added lines are interned \
                 after the patterns — use op mark or delete"
                    .to_string(),
            );
        }
        if !job.regexes.is_empty() {
            return Err(
                "deltas maintain a per-pattern supporter index; regexes are not supported"
                    .to_string(),
            );
        }
        let (mut alphabet, rows) = Rows::parse(job.mode, text.as_ref())?;
        drop(text);
        let patterns = job.compile(&mut alphabet)?.remove(0);
        let warm = warm.filter(|_| matches!(patterns, Patterns::Plain(_)));

        struct Build(Sanitizer, Rows, Option<(SupporterIndex<Sat64>, Vec<usize>)>);
        impl Pass for Build {
            type Out = Box<dyn Any + Send>;
            fn run<D: PatternDomain>(self, make: &(dyn Fn() -> D + Sync)) -> Self::Out
            where
                D::Seq: Row,
            {
                let Build(config, mut rows, warm) = self;
                let originals = std::mem::take(D::Seq::rows(&mut rows));
                let warm = warm.and_then(|(index, residual)| {
                    let index: Box<dyn Any> = Box::new(index);
                    Some((
                        *index.downcast::<SupporterIndex<D::Count>>().ok()?,
                        residual,
                    ))
                });
                let domain = &mut make();
                Box::new(match warm {
                    Some((index, residual)) => {
                        DeltaState::from_index(&config, domain, originals, index, Some(residual))
                    }
                    None => DeltaState::build(&config, domain, originals),
                })
            }
        }
        let state = patterns.visit(job, Build(job.sanitizer(), rows, warm));
        Ok(DeltaJob {
            job: job.clone(),
            alphabet,
            patterns,
            state,
        })
    }

    /// The family the job hides.
    pub fn family(&self) -> Family {
        self.patterns.family()
    }

    /// Applies one batch: `add` appends lines (in the mode's line format,
    /// each with the line number its errors should name), `remove`
    /// retires 0-based ordinals of the current database. A refused batch
    /// (a bad line or an out-of-range ordinal) leaves the state untouched.
    pub fn apply<'a>(
        &mut self,
        add: impl IntoIterator<Item = (usize, &'a str)>,
        remove: Vec<usize>,
    ) -> Result<DeltaReport, String> {
        struct Apply<'a, I>(&'a mut (dyn Any + Send), &'a mut Alphabet, I, Vec<usize>);
        impl<'b, I: IntoIterator<Item = (usize, &'b str)>> Pass for Apply<'_, I> {
            type Out = Result<DeltaReport, String>;
            fn run<D: PatternDomain>(self, make: &(dyn Fn() -> D + Sync)) -> Self::Out
            where
                D::Seq: Row,
            {
                let Apply(state, alphabet, add, removed) = self;
                let added = add
                    .into_iter()
                    .map(|(lineno, line)| D::Seq::CODEC.parse_line(lineno, line, alphabet))
                    .collect::<io::Result<Vec<_>>>()
                    .map_err(|e| format!("added {e}"))?;
                delta_state::<D>(state).apply_delta(&mut make(), SeqDelta { added, removed })
            }
        }
        let apply = Apply(&mut *self.state, &mut self.alphabet, add, remove);
        self.patterns.visit(&self.job, apply)
    }

    /// Writes the current originals (`released: false`) or release.
    pub fn write(&mut self, released: bool, out: &mut dyn Write) -> io::Result<()> {
        struct Render<'a>(
            &'a mut (dyn Any + Send),
            &'a Alphabet,
            bool,
            &'a mut dyn Write,
        );
        impl Pass for Render<'_> {
            type Out = io::Result<()>;
            fn run<D: PatternDomain>(self, _: &(dyn Fn() -> D + Sync)) -> Self::Out
            where
                D::Seq: Row,
            {
                let Render(state, alphabet, released, out) = self;
                let state = delta_state::<D>(state);
                let rows = if released {
                    state.released()
                } else {
                    state.originals()
                };
                write_rows(alphabet, rows, out)
            }
        }
        let render = Render(&mut *self.state, &self.alphabet, released, out);
        self.patterns.visit(&self.job, render)
    }

    /// [`DeltaJob::write`] as text.
    pub fn text(&mut self, released: bool) -> String {
        to_text(|out| self.write(released, out))
    }

    /// The plain-pattern state, for persisting its supporter index —
    /// `None` in every other mode, and under exact counts.
    pub fn plain_state(&self) -> Option<&DeltaState<Sequence, Sat64>> {
        match self.patterns {
            Patterns::Plain(_) => self.state.downcast_ref(),
            _ => None,
        }
    }
}

/// One fully-decoded `sanitize` request.
#[derive(Clone, Debug)]
pub struct SanitizeSpec {
    /// Database text (inline or a resolved dataset) in the job's line
    /// format.
    pub db: DbSource,
    /// What to hide and how.
    pub job: JobSpec,
}

/// The executed `sanitize` outcome. When a plain-mode request carries
/// both `patterns` and `regexes`, the counters aggregate the two
/// families (as the CLI's two head lines do) and `residual_supports`
/// lists plain-pattern supports first.
#[derive(Clone, Debug)]
pub struct SanitizeOutcome {
    /// The released database, byte-identical to what `seqhide hide`
    /// would write for the same request.
    pub release: String,
    /// Total marks introduced (M1).
    pub marks: usize,
    /// Sequences selected and sanitized.
    pub sequences_sanitized: usize,
    /// Sequences supporting at least one sensitive pattern beforehand.
    pub supporters_before: usize,
    /// Post-sanitization support per pattern.
    pub residual_supports: Vec<usize>,
    /// Whether every pattern ended at or below ψ.
    pub hidden: bool,
}

fn outcome<'a>(
    reports: impl Iterator<Item = &'a SanitizeReport>,
    release: String,
) -> SanitizeOutcome {
    let mut outcome = SanitizeOutcome {
        release,
        marks: 0,
        sequences_sanitized: 0,
        supporters_before: 0,
        residual_supports: Vec::new(),
        hidden: true,
    };
    for report in reports {
        outcome.marks += report.marks_introduced;
        outcome.sequences_sanitized += report.sequences_sanitized;
        outcome.supporters_before += report.supporters_before;
        outcome
            .residual_supports
            .extend_from_slice(&report.residual_supports);
        outcome.hidden &= report.hidden;
    }
    outcome
}

/// Executes one `sanitize` request: in memory, or — for a disk-backed
/// dataset over the resident cap — streamed from the shard store with
/// one decompressed shard resident, the output spilling through a
/// [`ShardWriter`].
pub fn sanitize(spec: &SanitizeSpec) -> Result<SanitizeOutcome, String> {
    if let DbSource::Dataset(snapshot) = &spec.db {
        if snapshot.streams_from_disk() {
            let open = || {
                snapshot
                    .open_reader()
                    .map(|reader| reader as Box<dyn BufRead>)
            };
            let source = format!("dataset '{}'", snapshot.name());
            let mut out = ShardWriter::new(std::env::temp_dir(), STREAM_SPILL_BYTES);
            let streamed = run_streaming(&spec.job, &open, &source, STREAM_BATCH_SEQS, &mut out)?;
            let release = out
                .finish_to_string()
                .map_err(|e| format!("{source}: {e}"))?;
            return Ok(outcome(std::iter::once(&streamed.report.report), release));
        }
    }
    Ok(run(&spec.job, spec.db.text()?)?.into_outcome())
}

/// One fully-decoded `verify` request (plain mode, like the CLI's
/// `seqhide verify`; only the patterns, ψ and gap fields of `job`
/// apply).
#[derive(Clone, Debug)]
pub struct VerifySpec {
    /// Database text (inline or a resolved dataset; plain line format).
    pub db: DbSource,
    /// The patterns to check and their threshold.
    pub job: JobSpec,
}

/// The executed `verify` outcome. Unlike the CLI (whose `verify` exits
/// non-zero on a failed check), the service reports `hidden: false` as a
/// successful *query* — an auditing client is asking, not asserting.
#[derive(Clone, Debug)]
pub struct VerifyOutcome {
    /// Whether every pattern's support is ≤ ψ.
    pub hidden: bool,
    /// Support per pattern, in request order.
    pub supports: Vec<usize>,
    /// Each pattern as parsed, with its constraints.
    pub patterns: Vec<String>,
}

/// Executes one `verify` request.
pub fn verify(spec: &VerifySpec) -> Result<VerifyOutcome, String> {
    let job = &spec.job;
    if job.patterns.is_empty() {
        return Err("give at least one pattern".to_string());
    }
    let text = spec.db.text()?;
    let mut db = SequenceDb::parse(&text);
    drop(text);
    let Patterns::Plain(sh) = job.compile(db.alphabet_mut())?.remove(0) else {
        return Err("verify checks plain patterns".to_string());
    };
    let report = seqhide_core::verify_hidden(&db, &sh, job.psi);
    Ok(VerifyOutcome {
        hidden: report.hidden,
        supports: report.supports,
        patterns: sh.iter().map(|p| p.render(db.alphabet())).collect(),
    })
}

/// The executed `stats` outcome, per line format.
#[derive(Clone, Debug)]
pub enum StatsOutcome {
    /// Plain-mode shape summary.
    Plain {
        /// Number of sequences.
        sequences: usize,
        /// Total symbols across all sequences.
        symbols_total: usize,
        /// Mean sequence length.
        avg_len: f64,
        /// Longest sequence length.
        max_len: usize,
        /// Distinct symbols.
        alphabet: usize,
        /// Δ marks present.
        marks: usize,
    },
    /// Itemset-mode shape summary.
    Itemset {
        /// Number of sequences.
        sequences: usize,
        /// Total elements across all sequences.
        elements_total: usize,
        /// Total live items across all elements.
        items_total: usize,
        /// Distinct items.
        alphabet: usize,
        /// Δ marks present.
        marks: usize,
    },
    /// Timed-mode shape summary.
    Timed {
        /// Number of sequences.
        sequences: usize,
        /// Total events across all sequences.
        events_total: usize,
        /// Distinct symbols.
        alphabet: usize,
        /// Δ marks present.
        marks: usize,
    },
}

/// Executes one `stats` request over `db` text in `mode`'s line format.
pub fn stats(db: &DbSource, mode: Mode) -> Result<StatsOutcome, String> {
    if let DbSource::Dataset(snapshot) = db {
        if snapshot.streams_from_disk() {
            return match mode {
                Mode::Plain | Mode::String => stats_plain_streamed(snapshot),
                _ => Err(format!(
                    "dataset '{}' is over the resident cap and served from disk; \
                     only plain-format stats can stream it",
                    snapshot.name()
                )),
            };
        }
    }
    let (alphabet, rows) = Rows::parse(mode, &db.text()?)?;
    Ok(match rows {
        // String mode shares the plain line format, so its shape
        // summary is the plain one.
        Rows::Plain(rows) => {
            let s = SequenceDb::from_parts(alphabet, rows).stats();
            StatsOutcome::Plain {
                sequences: s.len,
                symbols_total: s.total_symbols,
                avg_len: s.avg_len,
                max_len: s.max_len,
                alphabet: s.alphabet_len,
                marks: s.marks,
            }
        }
        Rows::Itemset(rows) => StatsOutcome::Itemset {
            sequences: rows.len(),
            elements_total: rows.iter().map(ItemsetSequence::len).sum(),
            items_total: rows
                .iter()
                .flat_map(|t| t.elements().iter())
                .map(Itemset::live_len)
                .sum(),
            alphabet: alphabet.len(),
            marks: rows.iter().map(ItemsetSequence::mark_count).sum(),
        },
        Rows::Timed(rows) => StatsOutcome::Timed {
            sequences: rows.len(),
            events_total: rows.iter().map(TimedSequence::len).sum(),
            alphabet: alphabet.len(),
            marks: rows.iter().map(TimedSequence::mark_count).sum(),
        },
    })
}

/// Plain-format stats streamed over a disk-backed dataset: one pass,
/// one decompressed shard resident, same formulas as
/// [`SequenceDb::stats`].
fn stats_plain_streamed(snapshot: &DatasetSnapshot) -> Result<StatsOutcome, String> {
    let mut alphabet = Alphabet::new();
    let mut reader = SeqReader::new(snapshot.open_reader().map_err(|e| e.to_string())?);
    let (mut sequences, mut symbols_total, mut max_len, mut marks) = (0usize, 0usize, 0usize, 0);
    while let Some(t) = reader.next_seq(&mut alphabet).map_err(|e| e.to_string())? {
        sequences += 1;
        symbols_total += t.len();
        max_len = max_len.max(t.len());
        marks += t.mark_count();
    }
    Ok(StatsOutcome::Plain {
        sequences,
        symbols_total,
        avg_len: if sequences == 0 {
            0.0
        } else {
            symbols_total as f64 / sequences as f64
        },
        max_len,
        alphabet: alphabet.len(),
        marks,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plain_spec(db: &str, patterns: &[&str]) -> SanitizeSpec {
        SanitizeSpec {
            db: DbSource::from(db),
            job: JobSpec {
                patterns: patterns.iter().map(|s| s.to_string()).collect(),
                ..JobSpec::default()
            },
        }
    }

    #[test]
    fn sanitize_hides_and_reports() {
        let out = sanitize(&plain_spec("a b c\nb a c\na c\n", &["a c"])).unwrap();
        assert!(out.hidden);
        assert!(out.marks > 0);
        assert_eq!(out.residual_supports, vec![0]);
        // the release itself verifies clean
        let v = verify(&VerifySpec {
            db: DbSource::from(out.release.clone()),
            job: JobSpec {
                patterns: vec!["a c".to_string()],
                ..JobSpec::default()
            },
        })
        .unwrap();
        assert!(v.hidden);
        assert_eq!(v.supports, vec![0]);
        assert_eq!(v.patterns, vec!["⟨a c⟩".to_string()]);
    }

    #[test]
    fn sanitize_rejects_empty_pattern_sets_and_bad_gaps() {
        let e = sanitize(&plain_spec("a b\n", &[])).unwrap_err();
        assert!(e.contains("nothing to hide"), "{e}");
        for mode in [Mode::Plain, Mode::Itemset, Mode::Timed] {
            let mut spec = plain_spec("a@0 b@1\n", &["a b"]);
            spec.job.mode = mode;
            spec.job.min_gap = 3;
            spec.job.max_gap = Some(1);
            let e = sanitize(&spec).unwrap_err();
            assert!(e.contains("max_gap must be ≥ min_gap"), "{mode:?}: {e}");
        }
        let mut spec = plain_spec("a b\n", &["a b"]);
        spec.job.mode = Mode::Itemset;
        spec.job.regexes = vec!["a (b|c)".to_string()];
        let e = sanitize(&spec).unwrap_err();
        assert!(e.contains("plain mode only"), "{e}");
    }

    #[test]
    fn string_mode_edits_and_rejects_ops_elsewhere() {
        // Substitution rewrites one position per sensitive occurrence;
        // the release carries no Δ and no surviving occurrence.
        let mut spec = plain_spec("a b c\na b d\n", &["a b"]);
        spec.job.mode = Mode::String;
        spec.job.op = OpKind::Substitute;
        let out = sanitize(&spec).unwrap();
        assert!(out.hidden);
        assert!(out.marks > 0, "edits are counted in the marks field");
        assert!(!out.release.contains('Δ'), "{}", out.release);
        assert!(!out.release.contains("a b"), "{}", out.release);

        // Deletion shortens the sequences instead.
        spec.job.op = OpKind::Delete;
        let out = sanitize(&spec).unwrap();
        assert!(out.hidden);
        assert!(!out.release.contains("a b"), "{}", out.release);

        // Every other mode is Δ-mark-only.
        let mut spec = plain_spec("a b\n", &["a b"]);
        spec.job.op = OpKind::Delete;
        let e = sanitize(&spec).unwrap_err();
        assert!(e.contains("mode\":\"string"), "{e}");
    }

    #[test]
    fn delta_job_matches_a_fresh_run_on_the_mutated_database() {
        let job = JobSpec {
            patterns: vec!["a c".to_string()],
            psi: 1,
            ..JobSpec::default()
        };
        let mut delta = DeltaJob::build(&job, "a b c\nb a c\na c\nb b\n", None).unwrap();
        let report = delta.apply([(1, "c a c")], vec![1]).unwrap();
        assert_eq!((report.added, report.removed), (1, 1));
        let mutated = delta.text(false);
        assert_eq!(mutated, "a b c\na c\nb b\nc a c\n");
        assert_eq!(delta.text(true), run(&job, &mutated).unwrap().text());
        let e = delta.apply([], vec![9]).unwrap_err();
        assert!(e.contains("ordinal 9"), "{e}");
    }

    #[test]
    fn stats_covers_all_three_modes() {
        match stats(&DbSource::from("a b c\nb c\n"), Mode::Plain).unwrap() {
            StatsOutcome::Plain {
                sequences,
                alphabet,
                ..
            } => {
                assert_eq!(sequences, 2);
                assert_eq!(alphabet, 3);
            }
            other => panic!("wrong variant: {other:?}"),
        }
        match stats(&DbSource::from("bread,milk beer\n"), Mode::Itemset).unwrap() {
            StatsOutcome::Itemset {
                sequences,
                items_total,
                ..
            } => {
                assert_eq!(sequences, 1);
                assert_eq!(items_total, 3);
            }
            other => panic!("wrong variant: {other:?}"),
        }
        match stats(&DbSource::from("login@0 search@15\n"), Mode::Timed).unwrap() {
            StatsOutcome::Timed {
                sequences,
                events_total,
                ..
            } => {
                assert_eq!(sequences, 1);
                assert_eq!(events_total, 2);
            }
            other => panic!("wrong variant: {other:?}"),
        }
        assert!(stats(&DbSource::from("x@\n"), Mode::Timed).is_err());
    }

    #[test]
    fn mode_parse_matches_cli_surface() {
        assert_eq!(Mode::parse(None).unwrap(), Mode::Plain);
        assert_eq!(Mode::parse(Some("itemset")).unwrap(), Mode::Itemset);
        assert!(Mode::parse(Some("turbo")).is_err());
    }
}
