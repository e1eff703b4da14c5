//! `seqhide hide` — sanitize a database against sensitive patterns.
//!
//! A thin adapter over the request pipeline ([`seqhide_serve::exec`]):
//! the flags become a [`JobSpec`], and the run goes through
//! [`exec::run`] in memory, [`exec::run_streaming`] under `--stream`, or
//! an [`exec::DeltaJob`] under `--delta` — the same calls the server's
//! `sanitize` and `delta` ops make. What stays here is what only the
//! command line has: the edits-file syntax, the `--post` stage, the
//! head lines and `--out`.
//!
//! `--op mark|delete|substitute` selects the distortion operator family
//! ([`OpKind`]); only the substring domain (`--domain string`) accepts
//! edit operations, every other domain is Δ-mark-only and rejects them
//! up front.

use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::Path;

use seqhide_core::SanitizeReport;
use seqhide_serve::exec::{self, Family, JobSpec, Mode};
use seqhide_types::OpKind;

use super::flags::Flags;
use super::{err, gap_flags, mode, read_text, CliError};

/// The line format `--domain` names, checked against `--mode` when both
/// are given. `--domain regex` is plain mode with `--regex` patterns.
fn domain_mode(flags: &Flags) -> Result<Mode, CliError> {
    let inferred = mode(flags)?;
    let Some(v) = flags.one("domain") else {
        return Ok(inferred);
    };
    let (domain, line_format) = match v {
        "plain" | "regex" => (Mode::Plain, "plain"),
        "string" => (Mode::String, "plain"),
        "itemset" => (Mode::Itemset, "itemset"),
        "timed" => (Mode::Timed, "timed"),
        other => {
            return Err(err(format!(
                "unknown domain '{other}' (plain|itemset|timed|regex|string)"
            )))
        }
    };
    let named = flags.one("mode").unwrap_or("plain");
    if flags.one("mode").is_some() && named != line_format {
        return Err(err(format!(
            "--domain {v} reads {line_format}-format input; drop --mode {named}"
        )));
    }
    Ok(domain)
}

/// The flags as a pipeline job.
fn job_spec(flags: &Flags) -> Result<JobSpec, CliError> {
    let psi = flags
        .required("psi")?
        .parse::<usize>()
        .map_err(|_| err("--psi: not a number"))?;
    let (min_gap, max_gap, max_window) = gap_flags(flags)?;
    let job = JobSpec {
        mode: domain_mode(flags)?,
        patterns: flags.all("pattern").to_vec(),
        regexes: flags.all("regex").to_vec(),
        psi,
        seed: flags.u64_or("seed", 0)?,
        exact: flags.has("exact"),
        min_gap,
        max_gap,
        max_window,
        threads: flags.usize_or("threads", 1)?,
        ..JobSpec::default()
    }
    .with_names(flags.one("algorithm"), flags.one("engine"), flags.one("op"))
    .map_err(err)?;
    if job.op != OpKind::Mark && job.mode != Mode::String {
        return Err(err(format!(
            "--op {}: {} are hidden by Δ-marks only; edit operations \
             (delete|substitute) need the substring domain — did you mean --domain string?",
            job.op.name(),
            job.family().noun()
        )));
    }
    Ok(job)
}

pub(crate) fn cmd_hide(flags: &Flags) -> Result<String, CliError> {
    let job = job_spec(flags)?;
    let post = flags.one("post").unwrap_or("keep");
    if let Some(edits) = flags.one("delta") {
        return hide_delta(flags, &job, post, edits);
    }
    if flags.has("stream") {
        return hide_stream(flags, &job, post);
    }
    if job.mode == Mode::String && post != "keep" {
        return Err(err(
            "--domain string edits during sanitization (--op delete|substitute); \
             --post delete/replace apply to Δ-marked plain-mode releases",
        ));
    }
    let mut resident = exec::run(&job, read_text(flags)?).map_err(err)?;
    let mut out = String::new();
    for (family, report) in resident.passes() {
        out.push_str(&head_line(family, report));
        if family == Family::Plain && flags.has("report") {
            out.push_str(&engine_line(report));
        }
    }
    match post {
        "keep" => {}
        "delete" => {
            let rounds = resident.delete_marks().map_err(err)?;
            out.push_str(&format!("post: deleted Δ ({rounds} round(s))\n"));
        }
        "replace" => {
            let rep = resident.replace_marks().map_err(err)?;
            out.push_str(&format!(
                "post: replaced {} Δ, kept {}\n",
                rep.replaced, rep.kept
            ));
        }
        other => {
            return Err(err(format!(
                "unknown post strategy '{other}' (keep|delete|replace)"
            )))
        }
    }
    if job.mode == Mode::Plain {
        let marks: usize = resident.passes().map(|(_, r)| r.marks_introduced).sum();
        out.push_str(&format!("total marks (M1): {marks}\n"));
    }
    write_release(flags, &mut out, |sink| resident.write(sink))?;
    if job.mode == Mode::Plain && flags.has("report") {
        let (sequences, marks) = resident.shape();
        out.push_str(&format!(
            "released: {sequences} sequences, {marks} residual Δ\n"
        ));
    }
    Ok(out)
}

fn head_line(family: Family, report: &SanitizeReport) -> String {
    format!(
        "{}: {} {} in {} sequences; residual supports {:?}\n",
        family.noun(),
        report.marks_introduced,
        family.unit(),
        report.sequences_sanitized,
        report.residual_supports
    )
}

fn engine_line(report: &SanitizeReport) -> String {
    format!(
        "engine: {} cell repairs, {} fallback recounts\n",
        report.engine_repairs, report.fallback_recounts
    )
}

/// Writes the release to `--out` (noting it in `out`) or appends it to
/// `out`.
fn write_release(
    flags: &Flags,
    out: &mut String,
    write: impl FnOnce(&mut dyn Write) -> io::Result<()>,
) -> Result<(), CliError> {
    match flags.one("out") {
        Some(path) => {
            let cannot = |e: io::Error| err(format!("cannot write {path}: {e}"));
            let mut file = BufWriter::new(File::create(path).map_err(cannot)?);
            write(&mut file).map_err(cannot)?;
            file.flush().map_err(cannot)?;
            out.push_str(&format!("wrote {path}\n"));
        }
        None => {
            let mut body = Vec::new();
            write(&mut body).expect("write to Vec cannot fail");
            out.push_str(std::str::from_utf8(&body).expect("release text is UTF-8"));
        }
    }
    Ok(())
}

/// Appended lines (tagged with their 1-based edits-file line number)
/// plus removed 0-based database ordinals.
type Edits = (Vec<(usize, String)>, Vec<usize>);

/// Parses the `--delta` edits file: `+ <sequence line>` appends a
/// sequence (in the run's database line format), `- <n>` removes the
/// 0-based data-line ordinal `n` from the current database; blank lines
/// and `#` comments are skipped. The whole file is applied as one batch.
/// Added lines carry their 1-based edits-file line number for error
/// messages.
fn parse_edits(path: &str) -> Result<Edits, CliError> {
    let text =
        std::fs::read_to_string(path).map_err(|e| err(format!("cannot read {path}: {e}")))?;
    let mut added = Vec::new();
    let mut removed = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(rest) = line.strip_prefix('+') {
            added.push((i + 1, rest.trim().to_string()));
        } else if let Some(rest) = line.strip_prefix('-') {
            let ord = rest.trim().parse().map_err(|_| {
                err(format!(
                    "--delta line {}: '-' needs a 0-based sequence ordinal, got '{}'",
                    i + 1,
                    rest.trim()
                ))
            })?;
            removed.push(ord);
        } else {
            return Err(err(format!(
                "--delta line {}: expected '+ <sequence>' or '- <ordinal>'",
                i + 1
            )));
        }
    }
    Ok((added, removed))
}

/// `hide --delta <edits-file>`: sanitize the database, then absorb one
/// mutation batch incrementally through the persistent supporter index
/// instead of re-sanitizing from scratch. The printed report and release
/// describe the post-delta database and are byte-identical to a fresh
/// `hide` of it on the same seed.
fn hide_delta(flags: &Flags, job: &JobSpec, post: &str, edits: &str) -> Result<String, CliError> {
    if flags.has("stream") {
        return Err(err(
            "--delta applies one in-memory edits batch; it cannot be combined with --stream",
        ));
    }
    if post != "keep" {
        return Err(err("--delta maintains a Δ-marked release incrementally; \
             --post delete/replace need a full-database pass"));
    }
    let (added, removed) = parse_edits(edits)?;
    let mut delta = exec::DeltaJob::build(job, read_text(flags)?, None).map_err(err)?;
    let add = added.iter().map(|(lineno, line)| (*lineno, line.as_str()));
    let report = delta
        .apply(add, removed)
        .map_err(|e| err(format!("--delta: {e}")))?;
    let mut out = head_line(delta.family(), &report.report);
    out.push_str(&format!(
        "delta: +{} -{} sequences; {} re-marked, {} restored\n",
        report.added, report.removed, report.remarked, report.restored
    ));
    if !report.report.hidden {
        return Err(err(exec::not_hidden(delta.family())));
    }
    write_release(flags, &mut out, |sink| delta.write(true, sink))?;
    Ok(out)
}

/// `hide --stream`: the two-pass bounded-memory pipeline for every
/// pattern class. Pass 1 scans for supporters, pass 2 re-streams in
/// `--batch-size` batches and writes incrementally — the database is
/// never fully resident. Same seed ⇒ byte-identical output to the
/// in-memory path (pinned by tests/stream.rs and tests/cli.rs).
fn hide_stream(flags: &Flags, job: &JobSpec, post: &str) -> Result<String, CliError> {
    if post != "keep" {
        return Err(err(
            "--stream writes incrementally; --post delete/replace need the full database in memory",
        ));
    }
    let db_path = flags.required("db")?;
    let batch_size = flags.usize_or("batch-size", 1024)?;
    if batch_size == 0 {
        return Err(err(
            "--batch-size must be ≥ 1: pass 2 re-streams the database in batches and \
             needs at least one resident sequence per batch",
        ));
    }
    let open = || Ok(Box::new(BufReader::new(File::open(db_path)?)) as Box<dyn BufRead>);
    let stream = |sink: &mut dyn Write| {
        exec::run_streaming(job, &open, db_path, batch_size, sink).map_err(err)
    };
    let mut body = Vec::new();
    let streamed = match flags.one("out") {
        Some(out_path) => {
            // Spill shards next to the output, then rename into place.
            let shard_dir = Path::new(out_path)
                .parent()
                .filter(|p| !p.as_os_str().is_empty())
                .unwrap_or_else(|| Path::new("."));
            let mut sink = seqhide_data::ShardWriter::new(shard_dir, 8 << 20);
            let streamed = stream(&mut sink)?;
            sink.finish_to_path(out_path)
                .map_err(|e| err(format!("cannot write {out_path}: {e}")))?;
            streamed
        }
        None => stream(&mut body)?,
    };
    let report = &streamed.report;
    let mut head = head_line(streamed.family, &report.report);
    head.push_str(&format!(
        "stream: {} sequences in {} batch(es) of ≤ {batch_size}; peak batch {} B\n",
        report.sequences_total, report.batches, report.peak_batch_bytes
    ));
    if flags.has("report") {
        head.push_str(&engine_line(&report.report));
    }
    head.push_str(&format!(
        "total marks (M1): {}\n",
        report.report.marks_introduced
    ));
    if let Some(out_path) = flags.one("out") {
        head.push_str(&format!("wrote {out_path}\n"));
    }
    Ok(head + std::str::from_utf8(&body).expect("release text is UTF-8"))
}
