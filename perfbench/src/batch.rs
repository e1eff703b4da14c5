//! The CLI side: `seqhide hide --out` and `seqhide hide --stream --out`
//! as child processes, with their output checks.

use std::ffi::OsString;
use std::path::{Path, PathBuf};
use std::time::Instant;

use seqhide::core::verify_hidden;
use seqhide::matching::{ConstraintSet, SensitivePattern, SensitiveSet};
use seqhide::types::{Alphabet, Sequence, SequenceDb};

use crate::child::{self, Run};
use crate::speed::{Reference, REFERENCE_NS};
use crate::Tally;

/// One `hide` job: a database file, its patterns and ψ.
pub struct Job<'a> {
    pub bin: &'a Path,
    pub db: &'a Path,
    pub patterns: &'a [String],
    pub psi: usize,
    pub seed: u64,
}

impl Job<'_> {
    fn args(&self, out: &Path, stream: bool) -> Vec<OsString> {
        let mut args: Vec<OsString> = vec!["hide".into(), "--db".into(), self.db.into()];
        for (flag, value) in [
            ("--psi", self.psi.to_string()),
            ("--seed", self.seed.to_string()),
        ] {
            args.extend([flag.into(), value.into()]);
        }
        for p in self.patterns {
            args.extend(["--pattern".into(), p.into()]);
        }
        if stream {
            args.push("--stream".into());
        }
        args.extend(["--out".into(), out.into()]);
        args
    }

    /// Runs `hide` (or `hide --stream`) once and returns the run and the
    /// release bytes it wrote. The outer error is the benchmark's own (the
    /// run could not be measured); the inner one is seqhide's (a non-zero
    /// exit or no release), a failed operation.
    pub fn hide(&self, out: &Path, stream: bool) -> Result<(Run, Result<Vec<u8>, String>), String> {
        let run = child::run(self.bin, &self.args(out, stream))?;
        let release = if run.code != 0 {
            Err(format!(
                "hide{} exited with {}: {}",
                if stream { " --stream" } else { "" },
                run.code,
                run.stderr.trim()
            ))
        } else {
            std::fs::read(out).map_err(|e| format!("reading {}: {e}", out.display()))
        };
        Ok((run, release))
    }
}

/// The CLI measurements of one run.
#[derive(Default)]
pub struct Batch {
    /// Raw wall times.
    pub hide_s: Vec<f64>,
    pub stream_s: Vec<f64>,
    /// Wall times scaled to the reference machine speed (see `speed`).
    pub hide_scaled_s: Vec<f64>,
    pub stream_scaled_s: Vec<f64>,
    /// Reference timings taken around the runs, in nanoseconds.
    pub reference_ns: Vec<f64>,
    pub hide_rss_mb: Vec<f64>,
    pub stream_rss_mb: Vec<f64>,
    /// Δ marks in the release (M1); identical across repetitions.
    pub m1: usize,
}

/// Alternates `hide` and `hide --stream` until `budget_s` is spent (at
/// least three of each), checking every release. Each run is bracketed by
/// two timings of `reference`.
pub fn measure(
    job: &Job,
    work: &Path,
    budget_s: f64,
    reference: &Reference,
    tally: &mut Tally,
) -> Result<Batch, String> {
    let start = Instant::now();
    let mut b = Batch::default();
    let mut first_release: Option<Vec<u8>> = None;
    let mut round = 0;
    while round < 3 || start.elapsed().as_secs_f64() < budget_s {
        for stream in [false, true] {
            let out: PathBuf = work.join(if stream { "stream.txt" } else { "hide.txt" });
            let _ = std::fs::remove_file(&out);
            tally.attempted += 1;
            let before = reference.time_ns();
            let (run, release) = job.hide(&out, stream)?;
            let speed = REFERENCE_NS / ((before + reference.time_ns()) / 2.0);
            b.reference_ns.push(REFERENCE_NS / speed);
            let name = if stream { "--stream" } else { "in-memory" };
            let bytes = match release {
                Ok(bytes) => bytes,
                Err(e) => {
                    tally.fail(e);
                    continue;
                }
            };
            let problem = match &first_release {
                // Every later release must repeat the first byte for byte:
                // in-memory = stream, and M1 identical across repetitions.
                Some(first) => (*first != bytes)
                    .then(|| format!("{name} release differs from the first release")),
                None => {
                    // Kept whatever its check says, so every later release
                    // is still compared with it.
                    first_release = Some(bytes.clone());
                    match check_release(&bytes, job.patterns, job.psi) {
                        Err(e) => Some(format!("{name} release: {e}")),
                        Ok(0) => Some(format!("{name} release carries no Δ marks")),
                        Ok(m1) => {
                            b.m1 = m1;
                            let printed = stdout_m1(&run.stdout);
                            (printed != Some(m1)).then(|| {
                                format!(
                                    "{name} release has {m1} Δ marks, hide printed M1 {printed:?}"
                                )
                            })
                        }
                    }
                }
            };
            if let Some(problem) = problem {
                tally.fail(problem);
            }
            if stream {
                b.stream_s.push(run.wall_s);
                b.stream_scaled_s.push(run.wall_s * speed);
                b.stream_rss_mb.push(run.peak_rss_mb);
            } else {
                b.hide_s.push(run.wall_s);
                b.hide_scaled_s.push(run.wall_s * speed);
                b.hide_rss_mb.push(run.peak_rss_mb);
            }
        }
        round += 1;
    }
    Ok(b)
}

/// The `total marks (M1): N` line `hide` prints.
fn stdout_m1(stdout: &str) -> Option<usize> {
    stdout
        .lines()
        .find_map(|l| l.strip_prefix("total marks (M1): "))
        .and_then(|n| n.trim().parse().ok())
}

/// Checks a release: it parses and every pattern's support is ≤ ψ
/// (`verify_hidden`). Returns its Δ count (M1).
pub fn check_release(bytes: &[u8], patterns: &[String], psi: usize) -> Result<usize, String> {
    let text = std::str::from_utf8(bytes).map_err(|_| "release is not UTF-8".to_string())?;
    let mut db = SequenceDb::parse(text);
    let sh = sensitive_set(&mut db, patterns)?;
    let report = verify_hidden(&db, &sh, psi);
    if !report.hidden {
        return Err(format!(
            "not hidden: supports {:?} against ψ = {psi}",
            report.supports
        ));
    }
    Ok(db.total_marks())
}

/// Interns `patterns` into `db`'s alphabet after its own symbols, as the
/// in-memory CLI path does.
pub fn sensitive_set(db: &mut SequenceDb, patterns: &[String]) -> Result<SensitiveSet, String> {
    intern_patterns(db.alphabet_mut(), patterns)
}

/// Interns `patterns` into `alphabet` (first, on the streaming path).
pub fn intern_patterns(
    alphabet: &mut Alphabet,
    patterns: &[String],
) -> Result<SensitiveSet, String> {
    let mut out = Vec::new();
    for p in patterns {
        let seq = Sequence::parse(p, alphabet);
        out.push(SensitivePattern::new(seq, ConstraintSet::none()).map_err(|e| e.to_string())?);
    }
    Ok(SensitiveSet::from_patterns(out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{generate, DataSpec, Draw, Shape};

    /// A release that leaks a pattern, or lost its marks, fails the check
    /// that feeds `failed`.
    #[test]
    fn corrupted_release_is_caught() {
        let spec = DataSpec {
            shape: Shape {
                sequences: 300,
                len: (20, 30),
                alphabet: 10,
            },
            draw: Draw::Overlapping,
            psi: 3,
        };
        let g = generate(&spec, 7);
        let mut db = SequenceDb::parse(&g.text);
        let sh = sensitive_set(&mut db, &g.patterns).unwrap();
        let report = seqhide::core::Sanitizer::hh(g.psi).run(&mut db, &sh);
        assert!(report.hidden);
        let good = db.to_text();
        assert!(check_release(good.as_bytes(), &g.patterns, g.psi).is_ok());

        // Corrupt it: restore every marked position of the first marked
        // lines to the original symbols, re-exposing the patterns.
        let original: Vec<&str> = g.text.lines().collect();
        let corrupted: String = good
            .lines()
            .enumerate()
            .map(|(i, l)| if l.contains('Δ') { original[i] } else { l })
            .map(|l| format!("{l}\n"))
            .collect();
        let err = check_release(corrupted.as_bytes(), &g.patterns, g.psi).unwrap_err();
        assert!(err.contains("not hidden"), "{err}");
    }

    #[test]
    fn m1_line_is_read() {
        assert_eq!(stdout_m1("x\ntotal marks (M1): 42\nwrote a\n"), Some(42));
        assert_eq!(stdout_m1("nothing"), None);
    }
}
