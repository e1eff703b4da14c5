//! `seqhide verify` — check the hiding requirement `sup_{D'}(S) ≤ ψ` on a
//! released database, through the pipeline's [`exec::verify`].

use seqhide_serve::exec::{self, DbSource, JobSpec, VerifySpec};

use super::flags::Flags;
use super::{err, gap_flags, read_text, CliError};

pub(crate) fn cmd_verify(flags: &Flags) -> Result<String, CliError> {
    let text = read_text(flags)?;
    let psi = flags
        .required("psi")?
        .parse::<usize>()
        .map_err(|_| err("--psi: not a number"))?;
    if !flags.has("pattern") {
        return Err(err("give at least one --pattern"));
    }
    let (min_gap, max_gap, max_window) = gap_flags(flags)?;
    let spec = VerifySpec {
        db: DbSource::from(text),
        job: JobSpec {
            patterns: flags.all("pattern").to_vec(),
            psi,
            min_gap,
            max_gap,
            max_window,
            ..JobSpec::default()
        },
    };
    let report = exec::verify(&spec).map_err(err)?;
    let mut out = String::new();
    for (pattern, sup) in report.patterns.iter().zip(&report.supports) {
        out.push_str(&format!(
            "{pattern}: support {sup} {} ψ = {psi}\n",
            if *sup <= psi { "≤" } else { ">" },
        ));
    }
    out.push_str(if report.hidden {
        "HIDDEN\n"
    } else {
        "NOT HIDDEN\n"
    });
    if report.hidden {
        Ok(out)
    } else {
        Err(err(out.trim_end().to_string()))
    }
}
