//! The `seqhide` command-line interface.
//!
//! Subcommands (see `seqhide help`):
//!
//! * `stats`  — summarise a sequence database;
//! * `mine`   — list frequent patterns (`F(D, σ)`);
//! * `hide`   — sanitize a database against sensitive patterns;
//! * `verify` — check the hiding requirement on a released database;
//! * `serve`  — run the long-lived sanitization service (TCP, NDJSON);
//! * `loadgen` — drive a serve instance with concurrent load and record
//!   `BENCH_serve.json`;
//! * `gen`    — emit the calibrated TRUCKS-like / SYNTHETIC-like datasets.
//!
//! The implementation is a plain function from arguments to output text so
//! the whole surface is exercised by integration tests without spawning
//! processes; `src/bin/seqhide.rs` is a three-line wrapper.
//!
//! One module per subcommand: `flags` holds the flag table and parser,
//! `stats`/`mine`/`hide`/`verify`/`attack`/`gen` each implement their
//! command, and this root keeps the shared input helpers plus [`run`].

use std::fmt;

use seqhide_obs as obs;
use seqhide_serve::exec::Mode;
use seqhide_types::SequenceDb;

mod attack;
mod flags;
mod gen;
mod hide;
mod loadgen;
mod mine;
mod serve;
mod stats;
mod verify;

use flags::{levenshtein, FlagSpec, Flags, SPECS};

/// CLI failure: a message for stderr.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError(pub String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

pub(crate) fn err(msg: impl Into<String>) -> CliError {
    CliError(msg.into())
}

const HELP: &str = "\
seqhide — hiding sensitive sequential patterns (ICDE 2007 reproduction)

USAGE:
  seqhide stats  --db FILE [--mode plain|itemset|timed]
  seqhide mine   --db FILE --sigma N [--mode plain|itemset]
                 [--miner prefixspan|gsp] [--max-len L] [--top K]
                 [--min-gap G] [--max-gap G] [--max-window W]
                 [--metrics-out FILE] [--progress]
  seqhide hide   --db FILE --psi N (--pattern \"a b\")... [--regex \"a (b|c)+ d\"]...
                 [--mode plain|itemset|timed]
                 [--domain plain|itemset|timed|regex|string]
                 [--op mark|delete|substitute] [--algorithm hh|hr|rh|rr]
                 [--seed S] [--exact] [--min-gap G] [--max-gap G] [--max-window W]
                 [--engine incremental|scratch] [--threads N]
                 [--post keep|delete|replace] [--out FILE] [--report]
                 [--stream] [--batch-size N] [--delta FILE]
                 [--metrics-out FILE] [--progress]
  seqhide verify --db FILE --psi N (--pattern \"a b\")...
  seqhide serve  [--addr HOST:PORT] [--threads N] [--queue-depth N]
                 [--ready-file FILE] [--metrics-addr HOST:PORT]
                 [--data-dir DIR] [--metrics-out FILE]
  seqhide loadgen --addr HOST:PORT [--clients N] [--duration-secs S]
                 [--psi N] [--seed S] [--db FILE] [--dataset NAME]
                 [--sequences N] [--delta-fraction F] [--out FILE]
                 [--shutdown]
  seqhide attack --original FILE --released FILE [--train FILE]
                 (--pattern \"a b\")...
  seqhide gen    --dataset trucks|synthetic [--seed S] --out FILE
  seqhide help | --version
  seqhide COMMAND --help     the command's flags

FORMATS (one sequence per line; '#' comments; marks render as Δ):
  plain    whitespace-separated symbols:      login search checkout
  itemset  comma-joined items per element:    bread,milk beer
  timed    symbol@tick events:                login@0 search@15
In itemset mode --pattern uses the itemset syntax; in timed mode
--min-gap/--max-gap/--max-window are elapsed ticks, not index distances.

DOMAINS AND OPERATORS:
  --domain names the pattern class directly (otherwise inferred from
  --mode and --regex). --domain string hides *contiguous substrings* of
  plain-format input and is the only domain accepting edit operations:
    --op mark        Δ-mark the chosen position (default, every domain)
    --op delete      remove the element; refused (Δ fallback) when the
                     deletion would splice a fresh sensitive occurrence
    --op substitute  rewrite with the first alphabet symbol creating no
                     sensitive occurrence; Δ fallback when none exists
  Every other domain is Δ-mark-only and rejects --op delete|substitute.

STREAMING:
  --stream            two-pass bounded-memory pipeline: never holds more
                      than --batch-size sequences resident; output is
                      byte-identical to the in-memory path on the same
                      seed. Every pattern class streams — plain, itemset,
                      timed, --regex and --domain string — one class per
                      run; --post keep only.
  --batch-size N      sequences resident per pass-2 batch (default 1024)

DELTAS:
  --delta FILE        sanitize, then absorb FILE's edits incrementally
                      through the persistent supporter index instead of
                      re-sanitizing from scratch. One edit per line:
                      '+ <sequence>' appends (database line format),
                      '- <n>' removes the 0-based data-line ordinal n;
                      '#' comments and blank lines skipped. Output equals
                      a fresh hide of the mutated database on the same
                      seed. Plain/itemset/timed/string domains; --op
                      mark|delete; excludes --stream, --post and --regex.

SERVING (protocol spec and ops runbook in docs/SERVER.md):
  serve answers newline-delimited JSON requests (sanitize, verify,
  stats, delta, load, load_chunk, unload, datasets, health, metrics,
  debug, shutdown) over TCP. Releases are byte-identical to the equivalent
  'seqhide hide' run. A bounded job queue (--queue-depth, default 64)
  feeds --threads workers (default: available cores); when the queue is
  full the server responds 'overloaded' instead of buffering.
  'shutdown' drains in-flight work and exits 0. --addr defaults to
  127.0.0.1:7070; port 0 picks a free port, written to --ready-file for
  scripts (first line; the scrape address follows on a second line when
  --metrics-addr is set). --metrics-addr adds a plain-HTTP listener
  serving GET /metrics (Prometheus text), /metrics.json, and /healthz
  for scrapers. 'load' interns a database once under a name and
  sanitize/verify/stats requests reference it with dataset:\"name\"
  instead of shipping the text; 'delta' mutates a loaded dataset in
  place (append/remove sequences) and re-sanitizes it incrementally,
  bumping its version; --data-dir DIR persists loaded datasets as
  compressed shard stores (plus .sqdi supporter indexes for delta
  sessions) and re-attaches them after a restart.
  loadgen drives a running server with a zipfian request mix from N
  client connections and writes BENCH_serve.json (throughput,
  p50/p95/p99 latency, shed rate, drain time); --dataset NAME loads the
  workload database once and references it by name; --shutdown drains
  the server afterwards.

TELEMETRY:
  --metrics-out FILE  write the run's span/counter/histogram snapshot as
                      JSON (schema in docs/OBSERVABILITY.md); on failure
                      the snapshot is still written, with an \"error\" field
  --progress          print throttled progress lines to stderr
";

pub(crate) fn load_db(flags: &Flags) -> Result<SequenceDb, CliError> {
    let path = flags.required("db")?;
    seqhide_data::io::read_db(path).map_err(|e| err(format!("cannot read {path}: {e}")))
}

/// The `--min-gap`/`--max-gap`/`--max-window` flags; the pipeline's
/// constraint builders validate them.
pub(crate) fn gap_flags(flags: &Flags) -> Result<(u64, Option<u64>, Option<u64>), CliError> {
    let optional = |name: &str| {
        flags
            .one(name)
            .map(|v| {
                v.parse()
                    .map_err(|_| err(format!("--{name}: not a number")))
            })
            .transpose()
    };
    Ok((
        flags.u64_or("min-gap", 0)?,
        optional("max-gap")?,
        optional("max-window")?,
    ))
}

/// `--mode`: the database line format (`string` is spelled `--domain`).
pub(crate) fn mode(flags: &Flags) -> Result<Mode, CliError> {
    match flags.one("mode").unwrap_or("plain") {
        "plain" => Ok(Mode::Plain),
        "itemset" => Ok(Mode::Itemset),
        "timed" => Ok(Mode::Timed),
        other => Err(err(format!("unknown mode '{other}' (plain|itemset|timed)"))),
    }
}

pub(crate) fn read_text(flags: &Flags) -> Result<String, CliError> {
    let path = flags.required("db")?;
    std::fs::read_to_string(path).map_err(|e| err(format!("cannot read {path}: {e}")))
}

/// "Did you mean" over the subcommand names: an unambiguous prefix wins
/// (`ver` → `verify`), otherwise the closest name within edit distance 2
/// (`hidee` → `hide`). Prefixes are checked first because short typos sit
/// within distance 2 of several commands at once.
fn unknown_command_error(command: &str) -> CliError {
    let names = || {
        SPECS
            .iter()
            .map(|s| s.command)
            .chain(std::iter::once("help"))
    };
    let best = names().find(|cand| cand.starts_with(command)).or_else(|| {
        names()
            .map(|cand| (levenshtein(command, cand), cand))
            .min()
            .filter(|&(d, _)| d <= 2)
            .map(|(_, cand)| cand)
    });
    match best {
        Some(cand) => err(format!(
            "unknown command '{command}' (did you mean '{cand}'?); try 'seqhide help'"
        )),
        None => err(format!("unknown command '{command}'; try 'seqhide help'")),
    }
}

/// Runs the CLI on `args` (without the program name), returning stdout
/// text or an error message.
pub fn run(args: &[String]) -> Result<String, CliError> {
    let Some(command) = args.first() else {
        return Ok(HELP.to_string());
    };
    let command = command.as_str();
    if matches!(command, "help" | "--help" | "-h") {
        return Ok(HELP.to_string());
    }
    if matches!(command, "--version" | "-V" | "version") {
        return Ok(format!("seqhide {}\n", env!("CARGO_PKG_VERSION")));
    }
    let Some(spec) = FlagSpec::for_command(command) else {
        return Err(unknown_command_error(command));
    };
    if args[1..].iter().any(|a| a == "--help" || a == "-h") {
        return Ok(spec.help());
    }
    let flags = Flags::parse(&args[1..], spec)?;
    if flags.has("progress") && !obs::is_enabled() {
        eprintln!("[seqhide] --progress: instrumentation compiled out (obs feature off)");
    }
    obs::progress::enable(flags.has("progress"));
    let before = obs::snapshot();
    let result = match command {
        "stats" => stats::cmd_stats(&flags),
        "mine" => mine::cmd_mine(&flags),
        "hide" => hide::cmd_hide(&flags),
        "verify" => verify::cmd_verify(&flags),
        "serve" => serve::cmd_serve(&flags),
        "loadgen" => loadgen::cmd_loadgen(&flags),
        "attack" => attack::cmd_attack(&flags),
        "gen" => gen::cmd_gen(&flags),
        _ => unreachable!("spec table covers every dispatched command"),
    };
    obs::progress::enable(false);
    match result {
        Ok(mut out) => {
            if let Some(path) = flags.one("metrics-out") {
                let metrics = obs::snapshot().diff(&before);
                std::fs::write(path, metrics.to_json())
                    .map_err(|e| err(format!("cannot write {path}: {e}")))?;
                out.push_str(&format!("wrote metrics to {path}\n"));
            }
            Ok(out)
        }
        Err(e) => {
            // A failed run still spent the work the telemetry measured;
            // dropping the snapshot would hide exactly the runs one wants
            // to diagnose. Best-effort write with the error attached — the
            // original error always propagates.
            if let Some(path) = flags.one("metrics-out") {
                let metrics = obs::snapshot().diff(&before);
                let _ = std::fs::write(path, metrics.to_json_with_error(&e.0));
            }
            Err(e)
        }
    }
}
