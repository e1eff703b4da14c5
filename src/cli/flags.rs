//! Flag tables and argument parsing: what each subcommand accepts, the
//! `--flag value` parser, and the Levenshtein "did you mean" machinery
//! shared by unknown-flag and unknown-command errors.

use std::collections::HashMap;

use super::{err, CliError};

/// What one subcommand accepts: `valued` flags consume the next argument,
/// `boolean` flags stand alone. Unknown flags are rejected at parse time
/// with a "did you mean" suggestion, so a typo can't silently fall back to
/// a default.
pub(crate) struct FlagSpec {
    pub(crate) command: &'static str,
    /// One line for `seqhide <command> --help`.
    summary: &'static str,
    valued: &'static [&'static str],
    boolean: &'static [&'static str],
}

pub(crate) const SPECS: &[FlagSpec] = &[
    FlagSpec {
        command: "stats",
        summary: "summarise a sequence database",
        valued: &["db", "mode"],
        boolean: &[],
    },
    FlagSpec {
        command: "mine",
        summary: "list frequent patterns F(D, σ)",
        valued: &[
            "db",
            "sigma",
            "mode",
            "miner",
            "max-len",
            "top",
            "min-gap",
            "max-gap",
            "max-window",
            "metrics-out",
        ],
        boolean: &["progress"],
    },
    FlagSpec {
        command: "hide",
        summary: "sanitize a database against sensitive patterns",
        valued: &[
            "db",
            "psi",
            "pattern",
            "regex",
            "mode",
            "domain",
            "op",
            "algorithm",
            "seed",
            "min-gap",
            "max-gap",
            "max-window",
            "engine",
            "threads",
            "post",
            "out",
            "batch-size",
            "metrics-out",
            "delta",
        ],
        boolean: &["exact", "report", "progress", "stream"],
    },
    FlagSpec {
        command: "verify",
        summary: "check the hiding requirement on a released database",
        valued: &["db", "psi", "pattern", "min-gap", "max-gap", "max-window"],
        boolean: &[],
    },
    FlagSpec {
        command: "serve",
        summary: "run the long-lived sanitization service (TCP, NDJSON)",
        valued: &[
            "addr",
            "threads",
            "queue-depth",
            "ready-file",
            "metrics-addr",
            "metrics-out",
            "data-dir",
            "tenants",
        ],
        boolean: &["progress"],
    },
    FlagSpec {
        command: "loadgen",
        summary: "drive a serve instance with concurrent load and record BENCH_serve.json",
        valued: &[
            "addr",
            "clients",
            "duration-secs",
            "psi",
            "seed",
            "db",
            "dataset",
            "sequences",
            "out",
            "delta-fraction",
            "tenants",
            "hog-fraction",
        ],
        boolean: &["shutdown"],
    },
    FlagSpec {
        command: "attack",
        summary: "measure mark inference and pattern re-support on a release",
        valued: &["original", "released", "train", "pattern"],
        boolean: &[],
    },
    FlagSpec {
        command: "gen",
        summary: "emit the calibrated TRUCKS-like / SYNTHETIC-like datasets",
        valued: &["dataset", "seed", "out"],
        boolean: &[],
    },
];

impl FlagSpec {
    pub(crate) fn for_command(command: &str) -> Option<&'static FlagSpec> {
        SPECS.iter().find(|s| s.command == command)
    }

    /// `seqhide <command> --help`: the summary and every flag this table
    /// accepts.
    pub(crate) fn help(&self) -> String {
        let mut out = format!(
            "seqhide {} — {}\n\nUSAGE:\n  seqhide {} [FLAGS]\n\nFLAGS:\n",
            self.command, self.summary, self.command
        );
        for flag in self.valued {
            out.push_str(&format!("  --{flag} VALUE\n"));
        }
        for flag in self.boolean {
            out.push_str(&format!("  --{flag}\n"));
        }
        out.push_str("\nFormats, defaults and examples: 'seqhide help'.\n");
        out
    }

    fn knows(&self, name: &str) -> Option<bool> {
        if self.boolean.contains(&name) {
            Some(true)
        } else if self.valued.contains(&name) {
            Some(false)
        } else {
            None
        }
    }

    fn unknown_flag_error(&self, name: &str) -> CliError {
        let all = self.valued.iter().chain(self.boolean);
        let best = all
            .clone()
            .map(|cand| (levenshtein(name, cand), *cand))
            .min()
            .filter(|&(d, cand)| d <= 2 || cand.starts_with(name))
            .map(|(_, cand)| cand);
        match best {
            Some(cand) => err(format!(
                "unknown flag --{name} for '{}' (did you mean --{cand}?)",
                self.command
            )),
            None => {
                let valid: Vec<String> = all.map(|f| format!("--{f}")).collect();
                err(format!(
                    "unknown flag --{name} for '{}'; valid flags: {}",
                    self.command,
                    valid.join(", ")
                ))
            }
        }
    }
}

/// Edit distance for the "did you mean" suggestion.
pub(crate) fn levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    for (i, &ca) in a.iter().enumerate() {
        let mut cur = Vec::with_capacity(b.len() + 1);
        cur.push(i + 1);
        for (j, &cb) in b.iter().enumerate() {
            let cost = usize::from(ca != cb);
            cur.push((prev[j] + cost).min(prev[j + 1] + 1).min(cur[j] + 1));
        }
        prev = cur;
    }
    prev[b.len()]
}

/// Parsed `--flag value` / `--flag` arguments; repeated flags accumulate.
pub(crate) struct Flags {
    values: HashMap<String, Vec<String>>,
}

impl Flags {
    pub(crate) fn parse(args: &[String], spec: &FlagSpec) -> Result<Flags, CliError> {
        let mut values: HashMap<String, Vec<String>> = HashMap::new();
        let mut i = 0;
        while i < args.len() {
            let arg = &args[i];
            let Some(name) = arg.strip_prefix("--") else {
                return Err(err(format!(
                    "unexpected argument '{arg}' (expected --flag)"
                )));
            };
            let is_boolean = spec
                .knows(name)
                .ok_or_else(|| spec.unknown_flag_error(name))?;
            if is_boolean {
                values
                    .entry(name.to_string())
                    .or_default()
                    .push(String::new());
                i += 1;
            } else {
                let value = args
                    .get(i + 1)
                    .ok_or_else(|| err(format!("--{name} needs a value")))?;
                values
                    .entry(name.to_string())
                    .or_default()
                    .push(value.clone());
                i += 2;
            }
        }
        Ok(Flags { values })
    }

    pub(crate) fn one(&self, name: &str) -> Option<&str> {
        self.values
            .get(name)
            .and_then(|v| v.last())
            .map(String::as_str)
    }

    pub(crate) fn all(&self, name: &str) -> &[String] {
        self.values.get(name).map_or(&[], Vec::as_slice)
    }

    pub(crate) fn has(&self, name: &str) -> bool {
        self.values.contains_key(name)
    }

    pub(crate) fn required(&self, name: &str) -> Result<&str, CliError> {
        self.one(name)
            .ok_or_else(|| err(format!("missing required --{name}")))
    }

    pub(crate) fn usize_or(&self, name: &str, default: usize) -> Result<usize, CliError> {
        match self.one(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| err(format!("--{name}: '{v}' is not a number"))),
        }
    }

    pub(crate) fn u64_or(&self, name: &str, default: u64) -> Result<u64, CliError> {
        match self.one(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| err(format!("--{name}: '{v}' is not a number"))),
        }
    }
}
