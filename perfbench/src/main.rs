//! The seqhide benchmark: one command, three workloads, end-to-end
//! metrics with tracing off and per-layer metrics with `--trace 1`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload bulk-short|dense-long|serve-mixed --seed N --seconds S --trace 0|1
//! ```
//!
//! Run it from the repository root: it builds `seqhide` from the sources
//! there, generates every input from `--seed`, drives the binary, checks
//! every output, and prints one JSON object as its last line. See
//! README.md beside this file.

mod batch;
mod child;
mod layers;
mod serve;
mod speed;
mod stats;
mod workload;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::batch::Job;
use crate::layers::{Metrics, Tracer};
use crate::serve::{Conn, Op, Served, Server, Step, LATENCY_LIMIT_MS, NOMINAL_RPS};
use crate::stats::{median, tail};
use crate::workload::{delta_pool, generate, subseed, Workload, SERVED};

/// Operations attempted and failed, with the reasons.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Tally {
    pub fn fail(&mut self, reason: String) {
        self.failed += 1;
        self.errors.push(reason);
    }

    fn step(&mut self, step: &Step) {
        self.attempted += step.attempted;
        self.failed += step.failed();
        self.errors.extend(step.errors.iter().cloned());
    }
}

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags = BTreeMap::new();
    for pair in argv.chunks(2) {
        match pair {
            [k, v] if k.starts_with("--") => {
                flags.insert(k[2..].to_string(), v.clone());
            }
            _ => return Err(format!("bad arguments {argv:?}")),
        }
    }
    let get = |k: &str| flags.get(k).ok_or(format!("missing --{k}"));
    let name = get("workload")?;
    let workload = workload::find(name).ok_or(format!(
        "unknown workload '{name}' (bulk-short|dense-long|serve-mixed)"
    ))?;
    let seed = get("seed")?.parse().map_err(|_| "--seed: not a u64")?;
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|_| "--seconds: not a number")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        _ => return Err("--trace must be 0 or 1".into()),
    };
    if flags
        .keys()
        .any(|k| !["workload", "seed", "seconds", "trace"].contains(&k.as_str()))
    {
        return Err(format!("unknown flag in {argv:?}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let argv: Vec<std::ffi::OsString> = std::env::args_os().skip(1).collect();
    if argv.first().is_some_and(|a| a == child::MEASURE_FLAG) {
        std::process::exit(child::measure_main(&argv[1..]));
    }
    let outcome = parse_args().and_then(|args| {
        let root = std::env::current_dir().map_err(|e| e.to_string())?;
        let bin = child::build_seqhide(&root)?;
        let work = root.join(".perfbench_work").join(format!(
            "{}-{}-{}",
            args.workload.name,
            args.seed,
            std::process::id()
        ));
        std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
        let result = run(&args, &bin, &work);
        let _ = std::fs::remove_dir_all(&work);
        // Gone too unless a traced run left its spans there.
        let _ = std::fs::remove_dir(root.join(".perfbench_work"));
        result
    });
    match outcome {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}

/// Everything set up before measuring: inputs on disk, a server with
/// the dataset loaded and warmed up.
struct Live {
    server: Server,
    conn: Conn,
    served: Served,
    /// The served dataset as loaded, before any delta.
    serve_text: String,
    /// The CLI's database file, patterns and ψ.
    batch: (PathBuf, Vec<String>, usize),
}

fn set_up(
    w: &Workload,
    seed: u64,
    bin: &Path,
    dir: &Path,
    tally: &mut Tally,
) -> Result<Live, String> {
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let g = generate(&SERVED, subseed(seed, 2));
    let cli = generate(&w.batch, subseed(seed, 1));
    let path = dir.join("db.txt");
    std::fs::write(&path, &cli.text).map_err(|e| e.to_string())?;
    let batch = (path, cli.patterns, cli.psi);
    let pool = delta_pool(&SERVED.shape, seed, DELTA_POOL);
    let mut served = Served::new(&g.text, g.patterns, g.psi, seed, pool);
    let server = Server::start(bin, dir)?;
    let mut conn = Conn::open(server.addr)?;
    conn.call(&served.load_frame())?;
    served.warm_up(&mut conn, tally)?;
    Ok(Live {
        server,
        conn,
        served,
        serve_text: g.text,
        batch,
    })
}

/// Distinct fresh sequences the delta stream cycles through.
const DELTA_POOL: usize = 1024;
/// Set-ups per measured run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Ladder rates above the nominal one, each double the last. The ladder
/// stops at 4x nominal: at 8x (640 req/s) the seed sits at the knee of a
/// two-core box and meets the limit in some runs and not others, which
/// no bound can absorb.
const LADDER_STEPS: u32 = 2;
/// Seconds each ladder step is timed (less in short runs). Short enough
/// that the read tail is the p95 (under 1,000 samples at 320 req/s), so
/// one scheduling hiccup of the shared two-core box does not decide the
/// rate.
const LADDER_STEP_S: f64 = 2.5;
/// Attempts a ladder rate gets to meet the limit. While the shared
/// two-core box is busy, up to one attempt in five at 160 or 320 req/s
/// runs late or misses the limit by a single stall; a server that cannot
/// keep the rate misses every time.
const RUNG_ATTEMPTS: usize = 3;

/// Runs the workload and prints the report; `Ok(false)` when an output
/// check failed.
fn run(args: &Args, bin: &Path, work: &Path) -> Result<bool, String> {
    let w = args.workload;
    let mut tally = Tally::default();
    let mut setups = Vec::new();
    let mut live = None;
    for k in 0..if args.trace { 1 } else { SETUPS } {
        if let Some(old) = live.take() {
            let Live { server, .. } = old;
            server.stop()?;
        }
        let t = Instant::now();
        live = Some(set_up(
            w,
            args.seed,
            bin,
            &work.join(format!("setup{k}")),
            &mut tally,
        )?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let mut live = live.expect("at least one set-up ran");
    let mut report = String::new();
    let serve_s = args.seconds * (1.0 - w.batch_share);
    let metrics = if args.trace {
        traced(args, &mut live, bin, work, serve_s, &mut tally, &mut report)?
    } else {
        let mut m = untraced(args, &mut live, bin, work, serve_s, &mut tally, &mut report)?;
        m.insert("setup_s".into(), (median(&setups).unwrap_or(0.0), "s"));
        m
    };
    live.server.stop()?;
    print!("{report}");
    for e in tally.errors.iter().take(10) {
        println!("FAILED: {e}");
    }
    let correct = tally.failed == 0;
    println!("{}", result_json(correct, &tally, &metrics)?);
    Ok(correct)
}

/// The CLI job on the workload's database.
fn job<'a>(live: &'a Live, bin: &'a Path, seed: u64) -> Job<'a> {
    let (db, patterns, psi) = &live.batch;
    Job {
        bin,
        db,
        patterns,
        psi: *psi,
        seed,
    }
}

/// After the delta stream: the served release must byte-match a CLI
/// `hide` of the client-side mirror. Writes the mirror to `path`.
fn check_mirror(
    live: &mut Live,
    bin: &Path,
    work: &Path,
    path: &Path,
    tally: &mut Tally,
) -> Result<(), String> {
    let served_release = live.served.release(&mut live.conn, tally)?;
    std::fs::write(path, live.served.mirror_text()).map_err(|e| e.to_string())?;
    let mirror_job = Job {
        bin,
        db: path,
        patterns: &live.served.patterns,
        psi: live.served.psi,
        seed: live.served.seed,
    };
    tally.attempted += 1;
    let (_, cli_release) = mirror_job.hide(&work.join("mirror-release.txt"), false)?;
    match (served_release, cli_release) {
        (_, Err(e)) => tally.fail(format!("CLI hide of the mirror: {e}")),
        (Some(served), Ok(cli)) if cli != served.as_bytes() => tally.fail(
            "served release after the delta stream differs from CLI hide of the mirror".into(),
        ),
        _ => {}
    }
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn untraced(
    args: &Args,
    live: &mut Live,
    bin: &Path,
    work: &Path,
    serve_s: f64,
    tally: &mut Tally,
    report: &mut String,
) -> Result<Metrics, String> {
    let w = args.workload;
    let mut m = Metrics::new();
    // Short runs shrink the rungs so the nominal step keeps a third.
    let rung_s = LADDER_STEP_S.min(serve_s / f64::from(LADDER_STEPS + 1));
    let nominal_s = serve_s - f64::from(LADDER_STEPS) * rung_s;
    let nominal = timed_step(live, NOMINAL_RPS, nominal_s, tally)?;
    if nominal.samples.is_empty() {
        return Err(format!(
            "--seconds {} leaves no time for the open loop",
            args.seconds
        ));
    }
    // Each step with the attempts it took.
    let mut steps = vec![(nominal, 1)];
    for k in 1..=LADDER_STEPS {
        let rate = NOMINAL_RPS * f64::from(1u32 << k);
        let mut step = timed_step(live, rate, rung_s, tally)?;
        let mut attempts = 1;
        while !step.meets_limit() && attempts < RUNG_ATTEMPTS {
            step = timed_step(live, rate, rung_s, tally)?;
            attempts += 1;
        }
        let saturated = step.failed() > 0 || step.backlog_growing();
        steps.push((step, attempts));
        if saturated {
            break;
        }
    }
    let mirror = work.join("mirror.txt");
    check_mirror(live, bin, work, &mirror, tally)?;

    let nominal = &steps[0].0;
    let reads = nominal.rtts(|op| op != Op::Delta);
    let writes = nominal.rtts(|op| op == Op::Delta);
    let (read_pct, read_tail) = tail(&reads).unwrap_or((0.0, 0.0));
    let (write_pct, write_tail) = tail(&writes).unwrap_or((0.0, 0.0));
    m.insert("rtt_p50_ms".into(), (median(&reads).unwrap_or(0.0), "ms"));
    m.insert("rtt_tail_ms".into(), (read_tail, "ms"));
    m.insert(
        "write_p50_ms".into(),
        (median(&writes).unwrap_or(0.0), "ms"),
    );
    m.insert("write_tail_ms".into(), (write_tail, "ms"));
    let best = steps
        .iter()
        .map(|(s, _)| s)
        .filter(|s| s.meets_limit())
        .map(|s| s.achieved_rps)
        .fold(0.0, f64::max);
    m.insert("max_rate_rps".into(), (best, "1/s"));

    let batch_s = args.seconds * w.batch_share;
    let reference = speed::Reference::default();
    let b = batch::measure(&job(live, bin, args.seed), work, batch_s, &reference, tally)?;
    // Scaled to the reference machine speed: see `speed`.
    m.insert(
        "hide_p50_s".into(),
        (median(&b.hide_scaled_s).unwrap_or(0.0), "s"),
    );
    m.insert(
        "stream_p50_s".into(),
        (median(&b.stream_scaled_s).unwrap_or(0.0), "s"),
    );
    m.insert(
        "hide_peak_rss_mb".into(),
        (median(&b.hide_rss_mb).unwrap_or(0.0), "MB"),
    );
    m.insert(
        "stream_peak_rss_mb".into(),
        (median(&b.stream_rss_mb).unwrap_or(0.0), "MB"),
    );
    m.insert("distortion_m1".into(), (b.m1 as f64, "count"));
    let ok = tally.attempted - tally.failed;
    m.insert(
        "ok_ratio".into(),
        (ok as f64 / tally.attempted.max(1) as f64, "ratio"),
    );

    let _ = writeln!(
        report,
        "workload {} seed {} (end to end, tracing off)",
        w.name, args.seed
    );
    let _ = writeln!(
        report,
        "  hide: {} runs, p50 {:.4} s scaled, {:.4} s raw; stream: {} runs, p50 {:.4} s scaled, {:.4} s raw; M1 {}",
        b.hide_s.len(),
        median(&b.hide_scaled_s).unwrap_or(0.0),
        median(&b.hide_s).unwrap_or(0.0),
        b.stream_s.len(),
        median(&b.stream_scaled_s).unwrap_or(0.0),
        median(&b.stream_s).unwrap_or(0.0),
        b.m1
    );
    let _ = writeln!(
        report,
        "  reference work: p50 {:.2} ms, min {:.2} ms (scaled times assume {:.2} ms)",
        median(&b.reference_ns).unwrap_or(0.0) / 1e6,
        b.reference_ns.iter().copied().fold(f64::INFINITY, f64::min) / 1e6,
        speed::REFERENCE_NS / 1e6
    );
    let _ = writeln!(
        report,
        "  nominal {} req/s: {} reads p50 {:.3} ms, p{read_pct} {:.3} ms; {} writes p50 {:.3} ms, p{write_pct} {:.3} ms",
        NOMINAL_RPS,
        reads.len(),
        median(&reads).unwrap_or(0.0),
        read_tail,
        writes.len(),
        median(&writes).unwrap_or(0.0),
        write_tail
    );
    let _ = writeln!(report, "  rate ladder (limit: read tail <= {LATENCY_LIMIT_MS} ms, no growing backlog, lag p99 <= {} ms):", serve::LAG_LIMIT_MS);
    for (s, attempts) in &steps {
        let reads = s.rtts(|op| op != Op::Delta);
        let (pct, t) = tail(&reads).unwrap_or((0.0, 0.0));
        let _ = writeln!(
            report,
            "    {:>6} req/s offered (attempt {attempts}), {:>8.1} achieved: {} sent, {} failed, read p50 {:.2} ms p{pct} {:.2} ms, lag p99 {:.3} ms, backlog {}, {}",
            s.rate,
            s.achieved_rps,
            s.attempted,
            s.failed(),
            median(&reads).unwrap_or(0.0),
            t,
            s.lag_p99_ms(),
            if s.backlog_growing() { "growing" } else { "flat" },
            if !s.valid() { "INVALID (generator late)" } else if s.meets_limit() { "meets limit" } else { "misses limit" }
        );
    }
    Ok(m)
}

/// One open-loop step at `rate` timed for `seconds`, counted in `tally`.
fn timed_step(live: &mut Live, rate: f64, seconds: f64, tally: &mut Tally) -> Result<Step, String> {
    let plans = live.served.plan(rate, seconds);
    let step = serve::run_step(live.server.addr, &live.served, plans, rate)?;
    tally.step(&step);
    Ok(step)
}

#[allow(clippy::too_many_arguments)]
fn traced(
    args: &Args,
    live: &mut Live,
    bin: &Path,
    work: &Path,
    serve_s: f64,
    tally: &mut Tally,
    report: &mut String,
) -> Result<Metrics, String> {
    let w = args.workload;
    let mut m = Metrics::new();
    let mut tr = Tracer::new(true);
    // Batch layers on the CLI's input.
    let job = job(live, bin, args.seed);
    let batch_s = args.seconds * w.batch_share;
    let (bm, times) = layers::batch_layers(&mut tr, &job, work, batch_s * 0.8, tally)?;
    m.extend(bm);
    m.insert(
        "cli.unaccounted_ns".into(),
        (times.cli_ns - times.traced_ns, "ns"),
    );
    m.insert(
        "bench.trace_overhead_ratio".into(),
        (times.traced_ns / times.untraced_ns.max(1.0), "ratio"),
    );

    // Serve layers in process, then the traced open loop.
    let s = &live.served;
    let pool = delta_pool(&SERVED.shape, args.seed, DELTA_POOL);
    let (sm, server_side) = layers::serve_layers(
        &live.serve_text,
        s.patterns.clone(),
        s.psi,
        s.seed,
        pool,
        work,
        9,
    )?;
    m.extend(sm);
    let step = timed_step(live, NOMINAL_RPS, serve_s * 0.8, tally)?;
    if step.samples.is_empty() {
        return Err(format!(
            "--seconds {} leaves no time for the open loop",
            args.seconds
        ));
    }
    let probe = closed_loop_probe(live, 12)?;
    check_mirror(live, bin, work, &work.join("mirror-end.txt"), tally)?;

    let queue: Vec<f64> = step
        .samples
        .iter()
        .filter_map(|x| x.timings)
        .map(|t| t.queue_wait_ns as f64)
        .collect();
    let unaccounted: Vec<f64> = step
        .samples
        .iter()
        .map(|x| {
            let server_ns = x
                .timings
                .map_or(server_side[x.op.name()], |t| t.total_ns() as f64);
            x.rtt_ms * 1e6 - server_ns
        })
        .collect();
    let small: Vec<f64> = step
        .samples
        .iter()
        .zip(&unaccounted)
        .filter(|(x, _)| matches!(x.op, Op::Verify | Op::Stats))
        .map(|(_, u)| *u)
        .collect();
    m.insert(
        "serve.queue_wait_ns.p50".into(),
        (median(&queue).unwrap_or(0.0), "ns"),
    );
    m.insert(
        "serve.queue_wait_ns.tail".into(),
        (tail(&queue).map_or(0.0, |t| t.1), "ns"),
    );
    m.insert(
        "serve.unaccounted_ns.p50".into(),
        (median(&unaccounted).unwrap_or(0.0), "ns"),
    );
    m.insert(
        "serve.unaccounted_ns.tail".into(),
        (tail(&unaccounted).map_or(0.0, |t| t.1), "ns"),
    );
    m.insert(
        "serve.unaccounted_ns.small_p50".into(),
        (median(&small).unwrap_or(0.0), "ns"),
    );
    let bytes: Vec<f64> = step.samples.iter().map(|x| x.reply_bytes as f64).collect();
    m.insert(
        "serve.response_bytes".into(),
        (
            bytes.iter().sum::<f64>() / bytes.len().max(1) as f64,
            "bytes",
        ),
    );
    for op in Op::ALL {
        let v = step.rtts(|o| o == op);
        m.insert(
            format!("serve.rtt_p50_ms.{}", op.name()),
            (median(&v).unwrap_or(0.0), "ms"),
        );
    }
    m.insert("serve.probe_small_rtt_ms".into(), (probe, "ms"));
    m.insert("bench.lag_p99_ms".into(), (step.lag_p99_ms(), "ms"));
    let spans = work
        .parent()
        .unwrap_or(work)
        .join(format!("spans-{}-{}.tsv", w.name, args.seed));
    tr.write(&spans)
        .map_err(|e| format!("{}: {e}", spans.display()))?;

    attribution(report, w, args.seed, &tr, &times, &m, &step, &server_side);
    let _ = writeln!(report, "  spans: {}", spans.display());
    Ok(m)
}

/// Median round trip of back-to-back `verify` and `stats` requests on
/// one connection (a closed loop: each waits for the previous reply).
fn closed_loop_probe(live: &mut Live, n: usize) -> Result<f64, String> {
    let mut v = Vec::new();
    for k in 0..n {
        let op = if k % 2 == 0 { Op::Verify } else { Op::Stats };
        let frame = live.served.frame(op);
        let t = Instant::now();
        live.conn.call(&frame)?;
        v.push(t.elapsed().as_secs_f64() * 1e3);
    }
    Ok(median(&v).unwrap_or(0.0))
}

/// The attribution table: layer self times, their sum, the unaccounted
/// gap and the tracing overhead; then the serve round trip per op.
#[allow(clippy::too_many_arguments)]
fn attribution(
    out: &mut String,
    w: &Workload,
    seed: u64,
    tr: &Tracer,
    times: &layers::BatchTimes,
    m: &Metrics,
    step: &Step,
    server_side: &BTreeMap<&'static str, f64>,
) {
    let (hide_ns, untraced_ns) = (times.cli_ns, times.untraced_ns);
    let selfs = tr.median_self_ns();
    let ms = |ns: f64| ns / 1e6;
    let _ = writeln!(out, "workload {} seed {} (traced)", w.name, seed);
    let _ = writeln!(
        out,
        "  batch path, median self time per layer (share of CLI hide p50 {:.2} ms):",
        ms(hide_ns)
    );
    let rows = [
        ("types.parse", "read_db: parse + intern"),
        (
            "core.sanitize",
            "Sanitizer::run outside obs phases (supporter scan, setup)",
        ),
        ("core.select", "victim selection (obs phase)"),
        (
            "core.local_sanitize",
            "marking loop outside the engine (obs phase)",
        ),
        ("matching.engine_load", "MatchEngine load (obs phase)"),
        ("matching.engine_repair", "MatchEngine repair (obs phase)"),
        ("core.verify", "residual verification (obs phase)"),
        ("types.render", "SequenceDb::to_text"),
        ("data.write", "file write"),
        ("hide", "pattern parse and glue in the pipeline"),
    ];
    let mut sum = 0.0;
    for (name, what) in rows {
        let ns = selfs.get(name).copied().unwrap_or(0.0);
        sum += ns;
        let _ = writeln!(
            out,
            "    {name:<24} {:>10.2} ms {:>6.1}%  {what}",
            ms(ns),
            100.0 * ns / hide_ns
        );
    }
    let _ = writeln!(
        out,
        "    {:<24} {:>10.2} ms {:>6.1}%",
        "sum of layers",
        ms(sum),
        100.0 * sum / hide_ns
    );
    let _ = writeln!(
        out,
        "    {:<24} {:>10.2} ms {:>6.1}%  process start, flags, reporting",
        "cli.unaccounted",
        ms(hide_ns - sum),
        100.0 * (hide_ns - sum) / hide_ns
    );
    let _ = writeln!(
        out,
        "    tracing overhead: traced pipeline {:.2} ms vs untraced {:.2} ms (x{:.3})",
        ms(times.traced_ns),
        ms(untraced_ns),
        times.traced_ns / untraced_ns.max(1.0)
    );
    let _ = writeln!(out, "  serve path at {} req/s, median per op (server side from reply timings, else in-process decode+exec+serialize):", NOMINAL_RPS);
    for op in Op::ALL {
        let xs: Vec<&serve::Sample> = step.samples.iter().filter(|x| x.op == op).collect();
        let rtt: Vec<f64> = xs.iter().map(|x| x.rtt_ms).collect();
        let server: Vec<f64> = xs
            .iter()
            .map(|x| {
                x.timings
                    .map_or(server_side[op.name()], |t| t.total_ns() as f64)
                    / 1e6
            })
            .collect();
        let (r, s) = (median(&rtt).unwrap_or(0.0), median(&server).unwrap_or(0.0));
        let _ = writeln!(
            out,
            "    {:<9} n={:<4} rtt {:>8.3} ms  server {:>8.3} ms  unaccounted {:>8.3} ms",
            op.name(),
            xs.len(),
            r,
            s,
            r - s
        );
    }
    let probe = m.get("serve.probe_small_rtt_ms").map_or(0.0, |v| v.0);
    let _ = writeln!(out, "  closed-loop verify/stats round trip: {probe:.2} ms. At the seed this was ~44 ms: each small reply's");
    let _ = writeln!(
        out,
        "  trailing newline waits on Nagle + the client's delayed ACK (ROADMAP item 1)."
    );
}

fn result_json(correct: bool, tally: &Tally, metrics: &Metrics) -> Result<String, String> {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.attempted.max(1),
        tally.failed
    );
    for (i, (name, (value, unit))) in metrics.iter().enumerate() {
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite"));
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    Ok(out)
}
