//! `seqhide mine` — list frequent patterns (`F(D, σ)`) with PrefixSpan,
//! GSP, or the itemset miner.

use seqhide_mine::{Gsp, MinerConfig, PrefixSpan};
use seqhide_serve::exec::{JobSpec, Mode};

use super::flags::Flags;
use super::{err, gap_flags, load_db, mode, read_text, CliError};

pub(crate) fn cmd_mine(flags: &Flags) -> Result<String, CliError> {
    let sigma = flags
        .required("sigma")?
        .parse::<usize>()
        .map_err(|_| err("--sigma: not a number"))?;
    if sigma == 0 {
        return Err(err("--sigma must be at least 1"));
    }
    let mut cfg = MinerConfig::new(sigma);
    if let Some(l) = flags.one("max-len") {
        cfg = cfg.with_max_len(l.parse().map_err(|_| err("--max-len: not a number"))?);
    }
    if mode(flags)? == Mode::Itemset {
        let (alphabet, db) = seqhide_data::io::parse_itemset_db(&read_text(flags)?);
        let result = seqhide_mine::ItemsetMiner::mine(&db, &cfg);
        let mut rows = result.patterns.clone();
        rows.sort_by_key(|r| std::cmp::Reverse(r.support));
        let top = flags.usize_or("top", rows.len())?;
        let mut out = format!(
            "frequent itemset patterns (σ = {sigma}): {}{}\n",
            rows.len(),
            if result.truncated { " [TRUNCATED]" } else { "" }
        );
        for fp in rows.iter().take(top) {
            out.push_str(&format!(
                "{:>6}  {}\n",
                fp.support,
                fp.seq.render(&alphabet)
            ));
        }
        return Ok(out);
    }
    if mode(flags)? == Mode::Timed {
        return Err(err(
            "mining timed databases is not supported; project the symbols",
        ));
    }
    let db = load_db(flags)?;
    let result = match flags.one("miner").unwrap_or("prefixspan") {
        "prefixspan" => PrefixSpan::mine(&db, &cfg),
        "gsp" => {
            let (min_gap, max_gap, max_window) = gap_flags(flags)?;
            let gaps = JobSpec {
                min_gap,
                max_gap,
                max_window,
                ..JobSpec::default()
            };
            Gsp::mine(&db, &cfg.with_constraints(gaps.constraints().map_err(err)?))
        }
        other => return Err(err(format!("unknown miner '{other}'"))),
    };
    let mut rows = result.patterns.clone();
    rows.sort_by(|a, b| b.support.cmp(&a.support).then(a.seq.cmp(&b.seq)));
    let top = flags.usize_or("top", rows.len())?;
    let mut out = format!(
        "frequent patterns (σ = {sigma}): {}{}\n",
        rows.len(),
        if result.truncated { " [TRUNCATED]" } else { "" }
    );
    for fp in rows.iter().take(top) {
        out.push_str(&format!(
            "{:>6}  {}\n",
            fp.support,
            fp.seq.render(db.alphabet())
        ));
    }
    Ok(out)
}
