//! The traced run: calls into each layer's public functions, timed from
//! outside the program, on the same generated inputs the CLI and server
//! see.
//!
//! Spans (name, start, end, parent, request id) are kept in memory and
//! written out when the run ends. Where a layer records phases in
//! `seqhide-obs`, those phase totals become child spans of the call that
//! ran them; nothing is traced inside the program itself.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use seqhide::core::{
    verify_hidden, DeltaState, GlobalStrategy, PatternDomain, Sanitizer, SeqDelta, SupporterIndex,
};
use seqhide::matching::MatchEngine;
use seqhide::num::Sat64;
use seqhide::serve::delta::DeltaSessions;
use seqhide::serve::exec::{self, DbSource};
use seqhide::serve::protocol::{self, Request};
use seqhide::serve::{DatasetRegistry, RegistryLimits};
use seqhide::types::{Alphabet, Sequence, SequenceDb};
use seqhide_obs::{Counter, Hist, Phase};

use crate::batch::{check_release, intern_patterns, sensitive_set, Job};
use crate::serve::{Op, Served, DATASET, DELTA_BATCH};
use crate::stats::median;
use crate::workload::Rng;
use crate::Tally;

/// One timed interval. `parent` indexes [`Tracer::spans`].
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub req: u64,
}

/// An in-memory span recorder. A disabled tracer records nothing, so the
/// same code path gives the untraced baseline.
pub struct Tracer {
    origin: Instant,
    on: bool,
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            origin: Instant::now(),
            on,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str, req: u64) -> usize {
        if !self.on {
            return usize::MAX;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            req,
        });
        self.open.push(id);
        id
    }

    pub fn end(&mut self, id: usize) {
        if !self.on {
            return;
        }
        debug_assert_eq!(self.open.last(), Some(&id), "spans close innermost first");
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
    }

    /// A child of `parent` that an obs phase total describes: it is laid
    /// at the parent's start, since only its duration is known.
    pub fn phase_child(&mut self, parent: usize, name: &'static str, ns: u64) -> usize {
        if !self.on {
            return usize::MAX;
        }
        let p = &self.spans[parent];
        let (start_ns, req) = (p.start_ns, p.req);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + ns,
            parent: Some(parent),
            req,
        });
        self.spans.len() - 1
    }

    /// Each span's self time: its duration minus its children's.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// Median self time per span name, in nanoseconds.
    pub fn median_self_ns(&self) -> BTreeMap<&'static str, f64> {
        let own = self.self_ns();
        let mut by: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(own) {
            by.entry(s.name).or_default().push(ns as f64);
        }
        by.into_iter()
            .map(|(k, v)| (k, median(&v).unwrap_or(0.0)))
            .collect()
    }

    /// Median total (not self) time of the spans named `name`.
    pub fn median_total_ns(&self, name: &str) -> f64 {
        let v: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect();
        median(&v).unwrap_or(0.0)
    }

    /// Writes every span as TSV: id, parent, request, name, start, end.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::from("id\tparent\treq\tname\tstart_ns\tend_ns\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}\t{}",
                s.req, s.name, s.start_ns, s.end_ns
            );
        }
        std::fs::write(path, out)
    }
}

/// The metrics of the traced run, by name.
pub type Metrics = BTreeMap<String, (f64, &'static str)>;

fn put(m: &mut Metrics, name: &str, value: f64, unit: &'static str) {
    m.insert(name.to_string(), (value, unit));
}

fn sanitizer(psi: usize, seed: u64) -> Sanitizer {
    Sanitizer::hh(psi).with_seed(seed).with_threads(1)
}

/// The in-process `hide` pipeline, as `seqhide hide --out` runs it:
/// parse, sanitize, render, write. Returns the pipeline's wall time.
pub fn hide_pipeline(
    tr: &mut Tracer,
    req: u64,
    input: &Path,
    out: &Path,
    patterns: &[String],
    psi: usize,
    seed: u64,
) -> Result<u64, String> {
    let start = Instant::now();
    let root = tr.begin("hide", req);
    let s = tr.begin("types.parse", req);
    let mut db = seqhide::data::io::read_db(input).map_err(|e| e.to_string())?;
    tr.end(s);
    let sh = sensitive_set(&mut db, patterns)?;
    let before = seqhide_obs::snapshot();
    let s = tr.begin("core.sanitize", req);
    let report = sanitizer(psi, seed).run(&mut db, &sh);
    tr.end(s);
    if tr.on {
        let d = seqhide_obs::snapshot().diff(&before);
        let ns = |p: Phase| d.phase(p).total_ns;
        tr.phase_child(s, "core.select", ns(Phase::SelectVictims));
        let local = tr.phase_child(s, "core.local_sanitize", ns(Phase::LocalSanitize));
        tr.phase_child(local, "matching.engine_load", ns(Phase::EngineLoad));
        tr.phase_child(local, "matching.engine_repair", ns(Phase::EngineRepair));
        tr.phase_child(s, "core.verify", ns(Phase::Verify));
    }
    if !report.hidden {
        return Err("in-process sanitize left a pattern exposed".into());
    }
    let s = tr.begin("types.render", req);
    let text = db.to_text();
    tr.end(s);
    let s = tr.begin("data.write", req);
    std::fs::write(out, text).map_err(|e| e.to_string())?;
    tr.end(s);
    tr.end(root);
    Ok(start.elapsed().as_nanos() as u64)
}

fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let v = f();
    (v, t.elapsed().as_nanos() as f64)
}

/// What [`batch_layers`] returns besides its metrics: medians, in ns.
pub struct BatchTimes {
    /// The CLI `hide` (a child process) on the same input.
    pub cli_ns: f64,
    /// The in-process pipeline with spans and obs recording on.
    pub traced_ns: f64,
    /// The same pipeline with both off.
    pub untraced_ns: f64,
}

/// Per-layer timings of the batch path on the job's input, repeated until
/// `budget_s` is spent (at least three rounds). Each round runs the CLI
/// `hide`, the untraced and the traced in-process pipeline back to back,
/// so that drifts in machine speed touch all three alike.
pub fn batch_layers(
    tr: &mut Tracer,
    job: &Job,
    work: &Path,
    budget_s: f64,
    tally: &mut Tally,
) -> Result<(Metrics, BatchTimes), String> {
    let (input, patterns, psi, seed) = (job.db, job.patterns, job.psi, job.seed);
    let start = Instant::now();
    let out = work.join("inproc.txt");
    let bytes = std::fs::metadata(input).map_err(|e| e.to_string())?.len() as f64;
    let (mut cli, mut untraced) = (Vec::new(), Vec::new());
    let mut v: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut counts = (0.0, 0.0, 0.0, 0.0, 0.0);
    let mut round = 0u64;
    while round < 3 || start.elapsed().as_secs_f64() < budget_s {
        tally.attempted += 1;
        let (run, released) = job.hide(&work.join("cli.txt"), false)?;
        match released.and_then(|r| check_release(&r, patterns, psi).map(|_| ())) {
            Ok(()) => cli.push(run.wall_s * 1e9),
            Err(e) => tally.fail(format!("hide release: {e}")),
        }
        // Untraced baseline: no spans, no obs recording.
        seqhide_obs::set_recording(false);
        let mut off = Tracer::new(false);
        untraced.push(hide_pipeline(&mut off, round, input, &out, patterns, psi, seed)? as f64);
        seqhide_obs::set_recording(true);
        let before = seqhide_obs::snapshot();
        hide_pipeline(tr, round, input, &out, patterns, psi, seed)?;
        let d = seqhide_obs::snapshot().diff(&before);
        counts = (
            d.counter(Counter::VictimsProcessed) as f64,
            d.counter(Counter::MarksIntroduced) as f64,
            d.counter(Counter::EngineCellRepairs) as f64,
            d.phase(Phase::FallbackRecount).total_ns as f64,
            d.hist(Hist::VictimNanos).quantile(0.99) as f64,
        );

        // Single-layer probes on a fresh parse.
        let mut db = seqhide::data::io::read_db(input).map_err(|e| e.to_string())?;
        let sh = sensitive_set(&mut db, patterns)?;
        let mut engine = MatchEngine::<Sat64>::new(&sh);
        let (sup, ns) = time(|| {
            (0..db.len())
                .filter(|&i| engine.is_supporter(&db.sequences()[i]))
                .collect::<Vec<usize>>()
        });
        v.entry("core.supporter_scan_ns").or_default().push(ns);
        v.entry("core.supporter_ratio")
            .or_default()
            .push(sup.len() as f64 / db.len().max(1) as f64);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let (_, ns) = time(|| {
            let index = SupporterIndex::measure(
                &mut engine,
                &sup,
                db.sequences(),
                GlobalStrategy::Heuristic,
            );
            index.select(psi, GlobalStrategy::Heuristic, &mut rng)
        });
        v.entry("core.select_ns").or_default().push(ns);
        let (mut on, mut off) = (db.clone(), db.clone());
        let (_, ns) = time(|| sanitizer(psi, seed).run(&mut on, &sh));
        seqhide_obs::set_recording(false);
        let (_, off_ns) = time(|| sanitizer(psi, seed).run(&mut off, &sh));
        seqhide_obs::set_recording(true);
        v.entry("obs.overhead_ratio").or_default().push(ns / off_ns);
        let mut rel = seqhide::data::io::read_db(&out).map_err(|e| e.to_string())?;
        let rsh = sensitive_set(&mut rel, patterns)?;
        let (report, ns) = time(|| verify_hidden(&rel, &rsh, psi));
        if !report.hidden {
            return Err("in-process release is not hidden".into());
        }
        v.entry("core.verify_ns").or_default().push(ns);

        // The streaming path: pass 1 counts and selects, pass 2 marks
        // and writes.
        let before = seqhide_obs::snapshot();
        let mut alphabet = Alphabet::new();
        let ssh = intern_patterns(&mut alphabet, patterns)?;
        let mut sink = Vec::new();
        sanitizer(psi, seed)
            .run_streaming(input, &mut alphabet, &ssh, 1024, &mut sink)
            .map_err(|e| e.to_string())?;
        let d = seqhide_obs::snapshot().diff(&before);
        v.entry("core.stream_pass1_ns")
            .or_default()
            .push(d.phase(Phase::StreamPass1).total_ns as f64);
        v.entry("core.stream_pass2_ns")
            .or_default()
            .push(d.phase(Phase::StreamPass2).total_ns as f64);
        round += 1;
    }
    let mut m = Metrics::new();
    let parse = tr.median_total_ns("types.parse");
    put(&mut m, "types.parse_ns", parse, "ns");
    put(
        &mut m,
        "types.parse_mb_per_s",
        bytes / 1e6 / (parse / 1e9).max(1e-12),
        "MB/s",
    );
    for span in [
        "types.render",
        "data.write",
        "core.sanitize",
        "core.local_sanitize",
        "matching.engine_load",
        "matching.engine_repair",
    ] {
        put(
            &mut m,
            &format!("{span}_ns"),
            tr.median_total_ns(span),
            "ns",
        );
    }
    for (k, vals) in v {
        let unit = if k.ends_with("_ns") { "ns" } else { "ratio" };
        put(&mut m, k, median(&vals).unwrap_or(0.0), unit);
    }
    let (victims, marks, repairs, fallback_ns, victim_p99) = counts;
    put(&mut m, "core.victims", victims, "count");
    put(&mut m, "core.marks", marks, "count");
    put(&mut m, "matching.cell_repairs", repairs, "count");
    put(
        &mut m,
        "matching.repairs_per_mark",
        repairs / marks.max(1.0),
        "ratio",
    );
    put(&mut m, "matching.fallback_recount_ns", fallback_ns, "ns");
    put(&mut m, "matching.victim_ns_p99", victim_p99, "ns");
    let times = BatchTimes {
        cli_ns: median(&cli).unwrap_or(0.0),
        traced_ns: tr.median_total_ns("hide"),
        untraced_ns: median(&untraced).unwrap_or(0.0),
    };
    Ok((m, times))
}

/// Decode, execute and serialize medians of each op type, in process,
/// against a registry holding the same dataset text; plus the delta
/// layers. Returns the metrics and, per op, the server-side median
/// (decode + exec + serialize, ns) used to split a reply's round trip.
pub fn serve_layers(
    text: &str,
    patterns: Vec<String>,
    psi: usize,
    seed: u64,
    pool: Vec<String>,
    work: &Path,
    rounds: usize,
) -> Result<(Metrics, BTreeMap<&'static str, f64>), String> {
    let dir = work.join("inproc-data");
    let registry = Arc::new(
        DatasetRegistry::new(Some(dir), RegistryLimits::default())
            .map_err(|e| e.to_string())?
            .0,
    );
    registry.load(DATASET, "inline", text)?;
    let mut probe = Served::new(text, patterns.clone(), psi, seed, pool.clone());
    let sessions = DeltaSessions::new();
    let mut v: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut push = |k: String, x: f64| v.entry(k).or_default().push(x);
    for round in 0..rounds + 1 {
        for op in Op::ALL {
            let frame = probe.frame(op);
            let ((id, _, req), decode_ns) = time(|| protocol::decode(frame.trim_end()));
            let snapshot = registry.get(DATASET).ok_or("dataset vanished")?;
            let resolve = |db: &mut DbSource| {
                if matches!(db, DbSource::Named(_)) {
                    *db = DbSource::Dataset(Arc::clone(&snapshot));
                }
            };
            let (exec_ns, ser_ns, bytes) = match req? {
                Request::Sanitize { mut spec, .. } => {
                    resolve(&mut spec.db);
                    let (out, e) = time(|| exec::sanitize(&spec));
                    let out = out?;
                    let (line, s) = time(|| protocol::ok_sanitize(&id, &out));
                    (e, s, line.len())
                }
                Request::Verify(mut spec) => {
                    resolve(&mut spec.db);
                    let (out, e) = time(|| exec::verify(&spec));
                    let out = out?;
                    let (line, s) = time(|| protocol::ok_verify(&id, &out));
                    (e, s, line.len())
                }
                Request::Stats { mut db, mode } => {
                    resolve(&mut db);
                    let (out, e) = time(|| exec::stats(&db, mode));
                    let out = out?;
                    let (line, s) = time(|| protocol::ok_stats(&id, &out));
                    (e, s, line.len())
                }
                Request::Delta(spec) => {
                    let (out, e) = time(|| sessions.execute(&registry, &spec));
                    let out = out?;
                    let (line, s) = time(|| protocol::ok_delta(&id, &out));
                    (e, s, line.len())
                }
                other => return Err(format!("unexpected request {}", other.kind())),
            };
            // Round 0 warms caches and builds the delta session.
            if round > 0 {
                push(format!("decode.{}", op.name()), decode_ns);
                push(format!("exec.{}", op.name()), exec_ns);
                push(format!("serialize.{}", op.name()), ser_ns);
                push(format!("bytes.{}", op.name()), bytes as f64);
            }
        }
    }
    let med = |k: &str| median(v.get(k).map_or(&[][..], |x| &x[..])).unwrap_or(0.0);
    let mut m = Metrics::new();
    put(&mut m, "serve.decode_ns", med("decode.inline"), "ns");
    put(&mut m, "serve.exec_sanitize_ns", med("exec.sanitize"), "ns");
    put(&mut m, "serve.exec_verify_ns", med("exec.verify"), "ns");
    put(&mut m, "serve.exec_stats_ns", med("exec.stats"), "ns");
    put(
        &mut m,
        "serve.serialize_ns",
        med("serialize.sanitize"),
        "ns",
    );
    put(&mut m, "serve.delta_execute_ns", med("exec.delta"), "ns");
    let mut server_side = BTreeMap::new();
    for op in Op::ALL {
        let n = op.name();
        server_side.insert(
            n,
            med(&format!("decode.{n}"))
                + med(&format!("exec.{n}"))
                + med(&format!("serialize.{n}")),
        );
    }
    put(
        &mut m,
        "core.delta_apply_ns",
        delta_apply_ns(text, &patterns, psi, seed, &pool, rounds)?,
        "ns",
    );
    Ok((m, server_side))
}

/// Median `DeltaState::apply_delta` time for batches shaped like the
/// server's ([`DELTA_BATCH`] additions and as many removals).
fn delta_apply_ns(
    text: &str,
    patterns: &[String],
    psi: usize,
    seed: u64,
    pool: &[String],
    rounds: usize,
) -> Result<f64, String> {
    let mut db = SequenceDb::parse(text);
    let sh = sensitive_set(&mut db, patterns)?;
    let mut engine = MatchEngine::<Sat64>::new(&sh);
    let config = sanitizer(psi, seed);
    let mut state = DeltaState::build(&config, &mut engine, db.sequences().to_vec());
    let mut rng = Rng::new(seed ^ 0xa991);
    let mut times = Vec::new();
    for k in 0..rounds.max(3) {
        let added: Vec<Sequence> = (0..DELTA_BATCH)
            .map(|j| Sequence::parse(&pool[(DELTA_BATCH * k + j) % pool.len()], db.alphabet_mut()))
            .collect();
        let removed = rng.distinct(state.len(), DELTA_BATCH);
        let (r, ns) = time(|| state.apply_delta(&mut engine, SeqDelta { added, removed }));
        r?;
        times.push(ns);
    }
    Ok(median(&times).unwrap_or(0.0))
}
