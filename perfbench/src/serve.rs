//! The server side: one `seqhide serve` process, a dataset loaded into
//! it, and an open-loop request generator over two pipelined
//! connections.
//!
//! Each request is timed from the moment it was *due* to be sent, not
//! from when the generator got round to sending it, so a stall on one
//! request shows in the latency of every request queued behind it.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use seqhide::serve::json::{self, Json};

use crate::stats::{median, quantile, tail};
use crate::workload::Rng;
use crate::Tally;

/// Connections the generator drives; the server runs this many workers.
pub const CONNECTIONS: usize = 2;
/// The nominal open-loop rate, requests per second over both
/// connections; the rate ladder doubles from it. Assumed, as is the
/// limit below: README.md gives the reasons.
pub const NOMINAL_RPS: f64 = 80.0;
/// The latency limit on `rtt_tail_ms` that `max_rate_rps` is judged by.
pub const LATENCY_LIMIT_MS: f64 = 50.0;
/// A rate whose generator lag p99 exceeds this is invalid: the generator,
/// not the server, set the schedule.
pub const LAG_LIMIT_MS: f64 = 10.0;
/// How long to wait for outstanding replies after the last send.
const DRAIN: Duration = Duration::from_secs(5);
/// The name the dataset is loaded under.
pub const DATASET: &str = "bench";

/// A running `seqhide serve` child. Dropping it kills and reaps the
/// process; [`Server::stop`] shuts it down gracefully.
pub struct Server {
    child: Option<Child>,
    pub addr: SocketAddr,
}

impl Server {
    pub fn start(bin: &Path, dir: &Path) -> Result<Server, String> {
        let ready = dir.join("ready");
        let _ = std::fs::remove_file(&ready);
        let child = Command::new(bin)
            .args(["serve", "--threads", &CONNECTIONS.to_string()])
            .args(["--addr", "127.0.0.1:0", "--data-dir"])
            .arg(dir.join("data"))
            .arg("--ready-file")
            .arg(&ready)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start seqhide serve: {e}"))?;
        let mut server = Server {
            child: Some(child),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            let text = std::fs::read_to_string(&ready).unwrap_or_default();
            if let Some(addr) = text.lines().next().and_then(|l| l.trim().parse().ok()) {
                server.addr = addr;
                return Ok(server);
            }
            if let Some(status) = server
                .child
                .as_mut()
                .and_then(|c| c.try_wait().ok().flatten())
            {
                return Err(format!("seqhide serve exited at startup ({status})"));
            }
            if Instant::now() > deadline {
                return Err("seqhide serve wrote no ready file within 20 s".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Asks the server to drain and waits for it to exit.
    pub fn stop(mut self) -> Result<(), String> {
        let mut conn = Conn::open(self.addr)?;
        conn.call(&obj(vec![("type", s("shutdown"))]))?;
        let mut child = self.child.take().expect("a started server has a child");
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("seqhide serve exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("seqhide serve did not drain within 20 s".into());
                }
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// One client connection: whole frames in one write, `TCP_NODELAY` set,
/// so the client adds no transport stall of its own.
pub struct Conn {
    w: TcpStream,
    r: BufReader<TcpStream>,
}

impl Conn {
    pub fn open(addr: SocketAddr) -> Result<Conn, String> {
        let w = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        w.set_nodelay(true).map_err(|e| e.to_string())?;
        w.set_read_timeout(Some(DRAIN)).map_err(|e| e.to_string())?;
        let r = BufReader::new(w.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn { w, r })
    }

    fn send(&mut self, frame: &str) -> Result<(), String> {
        self.w
            .write_all(frame.as_bytes())
            .map_err(|e| format!("send: {e}"))
    }

    fn recv(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.r.read_line(&mut line) {
            Ok(0) => Err("server closed the connection".into()),
            Ok(_) => Ok(line),
            Err(e) => Err(format!("recv: {e}")),
        }
    }

    /// One closed-loop request; the raw reply line.
    fn call_line(&mut self, frame: &str) -> Result<String, String> {
        self.send(frame)?;
        self.recv()
    }

    /// One closed-loop request; errors unless the reply is `ok`.
    pub fn call(&mut self, frame: &str) -> Result<Json, String> {
        let line = self.call_line(frame)?;
        let reply = json::parse(line.trim_end()).map_err(|e| format!("bad reply: {e}"))?;
        match reply.get("status").and_then(Json::as_str) {
            Some("ok") => Ok(reply),
            _ => Err(format!("request refused: {}", truncate(&line))),
        }
    }
}

fn truncate(line: &str) -> &str {
    let end = line.char_indices().nth(300).map_or(line.len(), |(i, _)| i);
    line[..end].trim_end()
}

fn s(v: &str) -> Json {
    Json::Str(v.to_string())
}

fn strs(v: &[String]) -> Json {
    Json::Arr(v.iter().map(|p| s(p)).collect())
}

/// A request frame: compact JSON plus the newline.
pub fn obj(members: Vec<(&str, Json)>) -> String {
    let mut frame = Json::Obj(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
    .render();
    frame.push('\n');
    frame
}

/// The request types of the mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// `sanitize` against the loaded dataset; the reply carries the release.
    Sanitize,
    /// `sanitize` with the database inline, which stresses decode.
    Inline,
    Verify,
    Stats,
    /// A persisted `delta` mutation: the writes beside the reads.
    Delta,
}

impl Op {
    pub const ALL: [Op; 5] = [Op::Sanitize, Op::Inline, Op::Verify, Op::Stats, Op::Delta];

    pub fn name(self) -> &'static str {
        match self {
            Op::Sanitize => "sanitize",
            Op::Inline => "inline",
            Op::Verify => "verify",
            Op::Stats => "stats",
            Op::Delta => "delta",
        }
    }
}

/// Sequences an inline `sanitize` ships. Assumed: a tenth of the served
/// dataset, so that decoding the request is a measurable part of it.
const INLINE_SEQUENCES: usize = 50;
/// Sequences each `delta` adds, and removes (so |D| stays fixed): one of
/// each, as `seqhide loadgen`'s mutation template sends.
pub const DELTA_BATCH: usize = 1;

/// The read mix: `seqhide loadgen`'s zipfian template weights (1/rank
/// over its eight templates, here times 840), each template counted as
/// the op that is served alike.
const READ_MIX: [(Op, usize); 4] = [
    // plain-hh, plain-rr, string-substitute: the loaded dataset.
    (Op::Sanitize, 840 + 420 + 280),
    (Op::Verify, 210),
    // itemset, timed: the database inline.
    (Op::Inline, 168 + 140),
    // stats, health: small replies.
    (Op::Stats, 120 + 105),
];

/// The served dataset as the client tracks it, and the request builder.
pub struct Served {
    pub patterns: Vec<String>,
    pub psi: usize,
    pub seed: u64,
    inline_db: String,
    /// The dataset's lines after every delta sent so far, in send order
    /// (all deltas go over connection 0, whose replies are FIFO).
    mirror: Vec<String>,
    pool: Vec<String>,
    next_add: usize,
    rng: Rng,
    /// The byte-exact release every inline `sanitize` must return.
    inline_release: Option<String>,
}

impl Served {
    pub fn new(
        text: &str,
        patterns: Vec<String>,
        psi: usize,
        seed: u64,
        pool: Vec<String>,
    ) -> Served {
        let mirror: Vec<String> = text.lines().map(str::to_string).collect();
        let inline_db: String = mirror
            .iter()
            .take(INLINE_SEQUENCES)
            .map(|l| format!("{l}\n"))
            .collect();
        Served {
            patterns,
            psi,
            seed,
            inline_db,
            mirror,
            pool,
            next_add: 0,
            rng: Rng::new(seed ^ 0x0b5e_55ed),
            inline_release: None,
        }
    }

    pub fn load_frame(&self) -> String {
        obj(vec![
            ("type", s("load")),
            ("name", s(DATASET)),
            ("db", s(&self.mirror_text())),
        ])
    }

    pub fn mirror_text(&self) -> String {
        self.mirror.iter().map(|l| format!("{l}\n")).collect()
    }

    fn sanitize_members(&self) -> Vec<(&'static str, Json)> {
        vec![
            ("patterns", strs(&self.patterns)),
            ("psi", Json::num(self.psi as u64)),
            ("seed", Json::num(self.seed)),
        ]
    }

    /// The frame for one request of type `op`. A `delta` is applied to the
    /// mirror as it is built.
    pub fn frame(&mut self, op: Op) -> String {
        let mut m = vec![];
        match op {
            Op::Sanitize => {
                m.push(("type", s("sanitize")));
                m.push(("dataset", s(DATASET)));
                m.extend(self.sanitize_members());
            }
            Op::Inline => {
                m.push(("type", s("sanitize")));
                m.push(("db", s(&self.inline_db)));
                m.extend(self.sanitize_members());
            }
            Op::Verify => {
                m.push(("type", s("verify")));
                m.push(("dataset", s(DATASET)));
                m.push(("patterns", strs(&self.patterns)));
                m.push(("psi", Json::num(self.psi as u64)));
            }
            Op::Stats => {
                m.push(("type", s("stats")));
                m.push(("dataset", s(DATASET)));
            }
            Op::Delta => {
                let mut remove = self.rng.distinct(self.mirror.len(), DELTA_BATCH);
                let add: Vec<String> = (0..DELTA_BATCH)
                    .map(|k| self.pool[(self.next_add + k) % self.pool.len()].clone())
                    .collect();
                self.next_add += DELTA_BATCH;
                m.push(("type", s("delta")));
                m.push(("dataset", s(DATASET)));
                m.push(("add", strs(&add)));
                m.push((
                    "remove",
                    Json::Arr(remove.iter().map(|&o| Json::num(o as u64)).collect()),
                ));
                m.extend(self.sanitize_members());
                // Removals address the pre-delta database and vanish
                // together; additions append after the survivors.
                remove.sort_unstable_by(|a, b| b.cmp(a));
                for o in remove {
                    self.mirror.remove(o);
                }
                self.mirror.extend(add);
            }
        }
        obj(m)
    }

    /// Draws the next op for connection `conn`. Every `delta` goes over
    /// connection 0 so the server applies them in the order the mirror
    /// did; one in five of its requests is one, 10% of all (assumed:
    /// loadgen sends deltas only when asked to). The rest follow
    /// [`READ_MIX`]. Overall: 60.7% sanitize, 12.1% inline, 8.3% verify,
    /// 8.9% stats and 10% delta.
    fn draw(&mut self, conn: usize) -> Op {
        if conn == 0 && self.rng.below(5) == 0 {
            return Op::Delta;
        }
        let mut k = self.rng.below(READ_MIX.iter().map(|(_, w)| w).sum());
        for (op, w) in READ_MIX {
            if k < w {
                return op;
            }
            k -= w;
        }
        unreachable!("the draw is below the weights' sum")
    }

    /// The schedule of one step at `rate` requests per second overall,
    /// per connection. Requests due in the first [`WARM_S`] and after
    /// `seconds` are sent and checked but not timed: the load keeps
    /// running past the window, so the window's last replies do not sit
    /// waiting for a next request that never comes.
    pub fn plan(&mut self, rate: f64, seconds: f64) -> Vec<Vec<Planned>> {
        let n = (rate * (seconds + COOL_S)).round() as usize;
        let mut plans = vec![Vec::new(); CONNECTIONS];
        for i in 0..n {
            let conn = i % CONNECTIONS;
            let op = self.draw(conn);
            let due_s = i as f64 / rate;
            plans[conn].push(Planned {
                op,
                due_s,
                frame: self.frame(op),
                timed: (WARM_S..seconds).contains(&due_s),
            });
        }
        plans
    }

    fn expect(&self) -> Expect<'_> {
        Expect {
            psi: self.psi,
            patterns: self.patterns.len(),
            sequences: self.mirror.len() as u64,
            inline_release: self.inline_release.as_deref(),
        }
    }

    /// Runs one sequential request of each type, counted in `tally`, and
    /// records the inline release every later inline reply must repeat.
    pub fn warm_up(&mut self, conn: &mut Conn, tally: &mut Tally) -> Result<(), String> {
        for op in Op::ALL {
            tally.attempted += 1;
            let line = conn.call_line(&self.frame(op))?;
            let mut problem = check(op, &line, &self.expect()).err();
            if op == Op::Inline {
                if let Ok(release) = release_of(&line) {
                    if let Err(e) =
                        crate::batch::check_release(release.as_bytes(), &self.patterns, self.psi)
                    {
                        problem.get_or_insert(format!("inline release: {e}"));
                    }
                    // Kept whatever its check says, so every later inline
                    // reply is still compared with it; as the escaped JSON
                    // text the server sends.
                    let raw = Json::Str(release).render();
                    self.inline_release = Some(raw[1..raw.len() - 1].to_string());
                }
            }
            if let Some(e) = problem {
                tally.fail(e);
            }
        }
        Ok(())
    }

    /// The dataset's current release, from one sequential `sanitize`
    /// counted in `tally`; `None` when the reply failed its check.
    pub fn release(
        &mut self,
        conn: &mut Conn,
        tally: &mut Tally,
    ) -> Result<Option<String>, String> {
        tally.attempted += 1;
        let line = conn.call_line(&self.frame(Op::Sanitize))?;
        match check(Op::Sanitize, &line, &self.expect()).and_then(|_| release_of(&line)) {
            Ok(release) => Ok(Some(release)),
            Err(e) => {
                tally.fail(e);
                Ok(None)
            }
        }
    }
}

/// The unescaped `release` of a reply line.
fn release_of(line: &str) -> Result<String, String> {
    let reply = json::parse(line.trim_end()).map_err(|e| format!("bad reply: {e}"))?;
    reply
        .get("release")
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("reply carries no release: {}", truncate(line)))
}

/// Cuts the `release` member out of a reply line so the rest parses
/// cheaply: the generator must not compete with the server for CPU by
/// decoding tens of kilobytes per reply. Returns the remaining line and
/// the release's raw (still escaped) JSON text.
fn split_release(line: &str) -> (String, Option<&str>) {
    const KEY: &str = ",\"release\":\"";
    let line = line.trim_end();
    let Some(at) = line.find(KEY) else {
        return (line.to_string(), None);
    };
    let body = at + KEY.len();
    let bytes = line.as_bytes();
    let mut end = body;
    while end < bytes.len() && bytes[end] != b'"' {
        end += if bytes[end] == b'\\' { 2 } else { 1 };
    }
    if end >= bytes.len() {
        return (line.to_string(), None);
    }
    (
        format!("{}{}", &line[..at], &line[end + 1..]),
        Some(&line[body..end]),
    )
}

/// Untimed lead-in of every step.
const WARM_S: f64 = 0.1;
/// Untimed load after every step's window.
const COOL_S: f64 = 0.15;

/// One scheduled request.
#[derive(Clone, Debug)]
pub struct Planned {
    pub op: Op,
    /// Seconds from the step's start to when it is due.
    pub due_s: f64,
    pub frame: String,
    /// Whether its latency counts (due inside the step's window).
    pub timed: bool,
}

/// What every reply of a step must satisfy.
struct Expect<'a> {
    psi: usize,
    patterns: usize,
    sequences: u64,
    inline_release: Option<&'a str>,
}

/// Server-side time of one `sanitize`, from its reply's `timings`.
#[derive(Clone, Copy, Debug, Default)]
pub struct Timings {
    pub decode_ns: u64,
    pub queue_wait_ns: u64,
    pub exec_ns: u64,
    pub serialize_ns: u64,
}

impl Timings {
    pub fn total_ns(&self) -> u64 {
        self.decode_ns + self.queue_wait_ns + self.exec_ns + self.serialize_ns
    }
}

/// Checks one reply line against the request type's contract.
fn check(op: Op, line: &str, exp: &Expect) -> Result<Option<Timings>, String> {
    let (rest, release) = split_release(line);
    let reply = json::parse(&rest).map_err(|e| format!("bad reply: {e}"))?;
    let reply = &reply;
    let field = |k: &str| {
        reply
            .get(k)
            .ok_or_else(|| format!("{} reply lacks '{k}'", op.name()))
    };
    if reply.get("status").and_then(Json::as_str) != Some("ok") {
        return Err(format!("{} refused: {}", op.name(), truncate(line)));
    }
    let supports_ok = |key: &str| -> Result<(), String> {
        let sup = field(key)?.as_array().ok_or("supports are not an array")?;
        if sup.len() != exp.patterns {
            return Err(format!("{} reply has {} supports", op.name(), sup.len()));
        }
        Ok(())
    };
    match op {
        Op::Sanitize | Op::Inline | Op::Delta => {
            supports_ok("residual_supports")?;
            let residual = field("residual_supports")?.as_array().unwrap_or(&[]);
            let over = residual
                .iter()
                .any(|v| v.as_usize().is_none_or(|n| n > exp.psi));
            if field("hidden")?.as_bool() != Some(true) || over {
                return Err(format!(
                    "{} reply not hidden: {}",
                    op.name(),
                    truncate(line)
                ));
            }
        }
        Op::Verify => supports_ok("supports")?,
        Op::Stats => {}
    }
    if matches!(op, Op::Stats | Op::Delta) && field("sequences")?.as_u64() != Some(exp.sequences) {
        return Err(format!(
            "{} reply reports a dataset of the wrong size",
            op.name()
        ));
    }
    if matches!(op, Op::Sanitize | Op::Inline) {
        if release.is_none() {
            return Err(format!("{} reply carries no release", op.name()));
        }
        if op == Op::Inline && exp.inline_release.is_some_and(|want| release != Some(want)) {
            return Err("inline release differs from the first inline release".into());
        }
        let t = field("timings")?;
        let ns = |k: &str| t.get(k).and_then(Json::as_u64).unwrap_or(0);
        return Ok(Some(Timings {
            decode_ns: ns("parse_ns"),
            queue_wait_ns: ns("queue_wait_ns"),
            exec_ns: ns("sanitize_ns"),
            serialize_ns: ns("serialize_ns"),
        }));
    }
    Ok(None)
}

/// One request as the generator saw it.
#[derive(Clone, Debug)]
pub struct Sample {
    pub op: Op,
    /// Seconds from the step's start to the request's due time.
    pub due_s: f64,
    /// How late the generator sent it.
    pub lag_ms: f64,
    /// Reply time minus due time.
    pub rtt_ms: f64,
    pub reply_bytes: usize,
    pub timings: Option<Timings>,
}

/// One fixed-rate step of the open loop.
pub struct Step {
    pub rate: f64,
    /// The timed requests' samples, by due time.
    pub samples: Vec<Sample>,
    pub attempted: u64,
    /// Requests answered `ok` and passing their checks, timed or not.
    pub answered: u64,
    pub errors: Vec<String>,
    /// Timed replies per second, between the first and last of them.
    pub achieved_rps: f64,
}

impl Step {
    pub fn failed(&self) -> u64 {
        self.attempted - self.answered
    }

    pub fn rtts(&self, pick: impl Fn(Op) -> bool) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|x| pick(x.op))
            .map(|x| x.rtt_ms)
            .collect()
    }

    pub fn lag_p99_ms(&self) -> f64 {
        let lags: Vec<f64> = self.samples.iter().map(|x| x.lag_ms).collect();
        quantile(&lags, 0.99).unwrap_or(0.0)
    }

    /// The generator ran late: the schedule was not the one offered.
    pub fn valid(&self) -> bool {
        self.lag_p99_ms() <= LAG_LIMIT_MS
    }

    /// Latency grew across the step: the median of the last quarter (by
    /// due time) exceeds the first quarter's by more than the limit.
    pub fn backlog_growing(&self) -> bool {
        let q = |lo: f64, hi: f64| {
            let span = self.samples.iter().map(|x| x.due_s).fold(0.0, f64::max);
            let v: Vec<f64> = self
                .samples
                .iter()
                .filter(|x| x.due_s >= lo * span && x.due_s <= hi * span)
                .map(|x| x.rtt_ms)
                .collect();
            median(&v).unwrap_or(0.0)
        };
        self.failed() > 0 || q(0.75, 1.0) > q(0.0, 0.25) + LATENCY_LIMIT_MS
    }

    /// The read tail meets the limit, nothing failed, the backlog is flat
    /// and the generator kept its schedule.
    pub fn meets_limit(&self) -> bool {
        let read_tail = tail(&self.rtts(|op| op != Op::Delta)).map_or(f64::INFINITY, |t| t.1);
        self.failed() == 0
            && self.valid()
            && !self.backlog_growing()
            && read_tail <= LATENCY_LIMIT_MS
    }
}

/// Pending requests of one connection, oldest first:
/// `(op, due, sent, timed)`.
type Pending = Mutex<VecDeque<(Op, Instant, Instant, bool)>>;

/// Drives one planned step over fresh connections and checks every reply.
pub fn run_step(
    addr: SocketAddr,
    served: &Served,
    plans: Vec<Vec<Planned>>,
    rate: f64,
) -> Result<Step, String> {
    let exp = served.expect();
    let mut conns = Vec::new();
    for _ in 0..plans.len() {
        conns.push(Conn::open(addr)?);
    }
    let t0 = Instant::now() + Duration::from_millis(20);
    let attempted: u64 = plans.iter().map(|p| p.len() as u64).sum();
    let results: Vec<Driven> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .into_iter()
            .zip(plans)
            .map(|(conn, plan)| {
                let exp = &exp;
                scope.spawn(move || drive(conn, plan, t0, exp))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect()
    });
    let mut step = Step {
        rate,
        samples: Vec::new(),
        attempted,
        answered: 0,
        errors: Vec::new(),
        achieved_rps: 0.0,
    };
    for d in results {
        step.samples.extend(d.samples);
        step.answered += d.answered;
        step.errors.extend(d.errors);
    }
    step.samples.sort_by(|a, b| a.due_s.total_cmp(&b.due_s));
    let done: Vec<f64> = step
        .samples
        .iter()
        .map(|x| x.due_s + x.rtt_ms / 1e3)
        .collect();
    let first = done.iter().copied().fold(f64::INFINITY, f64::min);
    let last = done.iter().copied().fold(0.0, f64::max);
    if done.len() > 1 && last > first {
        step.achieved_rps = (done.len() - 1) as f64 / (last - first);
    }
    Ok(step)
}

/// What one connection's sender and reader saw.
struct Driven {
    samples: Vec<Sample>,
    answered: u64,
    errors: Vec<String>,
}

/// Sends `plan` on schedule from one thread while a second thread reads
/// the FIFO replies and checks each one.
fn drive(conn: Conn, plan: Vec<Planned>, t0: Instant, exp: &Expect) -> Driven {
    let Conn { mut w, mut r } = conn;
    let pending: Pending = Mutex::new(VecDeque::new());
    let n = plan.len();
    std::thread::scope(|scope| {
        let pending = &pending;
        let reader = scope.spawn(move || {
            let mut d = Driven {
                samples: Vec::new(),
                answered: 0,
                errors: Vec::new(),
            };
            let mut line = String::new();
            for _ in 0..n {
                line.clear();
                let got = r.read_line(&mut line);
                let done = Instant::now();
                if !matches!(got, Ok(k) if k > 0) {
                    d.errors.push(format!("reply missing: {got:?}"));
                    break;
                }
                let (op, due, sent, timed) = pending
                    .lock()
                    .expect("pending queue poisoned")
                    .pop_front()
                    .expect("a reply arrived before its request was sent");
                let checked = check(op, &line, exp);
                match checked {
                    Ok(timings) => {
                        d.answered += 1;
                        if timed {
                            d.samples.push(Sample {
                                op,
                                due_s: due.duration_since(t0).as_secs_f64(),
                                lag_ms: sent.saturating_duration_since(due).as_secs_f64() * 1e3,
                                rtt_ms: done.saturating_duration_since(due).as_secs_f64() * 1e3,
                                reply_bytes: line.len(),
                                timings,
                            });
                        }
                    }
                    Err(e) => d.errors.push(e),
                }
            }
            d
        });
        for p in plan {
            let due = t0 + Duration::from_secs_f64(p.due_s);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let sent = Instant::now();
            pending
                .lock()
                .expect("pending queue poisoned")
                .push_back((p.op, due, sent, p.timed));
            if w.write_all(p.frame.as_bytes()).is_err() {
                break;
            }
        }
        reader.join().expect("reader thread panicked")
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A stub server that answers `stats` frames in order, holding the
    /// reply to request `slow` back by `delay`.
    fn stub(delay: Duration, slow: usize) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (sock, _) = listener.accept().unwrap();
            sock.set_nodelay(true).unwrap();
            let mut w = sock.try_clone().unwrap();
            let mut r = BufReader::new(sock);
            let mut line = String::new();
            let mut k = 0;
            while r.read_line(&mut line).unwrap_or(0) > 0 {
                if k == slow {
                    std::thread::sleep(delay);
                }
                w.write_all(b"{\"status\":\"ok\",\"type\":\"stats\",\"sequences\":3}\n")
                    .unwrap();
                line.clear();
                k += 1;
            }
        });
        (addr, handle)
    }

    fn served() -> Served {
        Served::new(
            "a b\nb c\nc a\n",
            vec!["a b".into()],
            1,
            0,
            vec!["a".into()],
        )
    }

    /// One reply held back by D delays the next pipelined request by at
    /// least D too, because its latency counts from its due time.
    #[test]
    fn a_stall_shows_on_the_request_behind_it() {
        let delay = Duration::from_millis(120);
        let (addr, server) = stub(delay, 2);
        let served = served();
        let frame = obj(vec![("type", s("stats")), ("dataset", s(DATASET))]);
        // The third and fourth requests are due together; the third's
        // reply is held for 120 ms, so the fourth waits behind it.
        let plan: Vec<_> = [0.0, 0.01, 0.02, 0.02, 0.03, 0.04]
            .into_iter()
            .map(|due_s| Planned {
                op: Op::Stats,
                due_s,
                frame: frame.clone(),
                timed: true,
            })
            .collect();
        let d = drive(
            Conn::open(addr).unwrap(),
            plan,
            Instant::now(),
            &served.expect(),
        );
        server.join().unwrap();
        assert!(d.errors.is_empty(), "{:?}", d.errors);
        let samples = d.samples;
        assert_eq!(samples.len(), 6);
        let d = delay.as_secs_f64() * 1e3;
        assert!(samples[2].rtt_ms >= d, "{:?}", samples[2]);
        assert!(samples[3].rtt_ms >= d, "{:?}", samples[3]);
        assert!(
            samples[3].lag_ms < 10.0,
            "the generator itself kept its schedule"
        );
        assert!(
            samples[5].rtt_ms < d,
            "later requests recover: {:?}",
            samples[5]
        );
    }

    /// A stub server that answers every op `ok`, hidden, with a dataset
    /// of four sequences, and an inline `sanitize` with the very database
    /// it was sent: a release that leaks every pattern.
    fn leaky_stub() -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (sock, _) = listener.accept().unwrap();
            let mut w = sock.try_clone().unwrap();
            let mut r = BufReader::new(sock);
            let mut line = String::new();
            while r.read_line(&mut line).unwrap_or(0) > 0 {
                let req = json::parse(line.trim_end()).unwrap();
                let release = req.get("db").and_then(Json::as_str).unwrap_or("Δ b\n");
                let zero = || Json::Arr(vec![Json::num(0)]);
                let reply = obj(vec![
                    ("status", s("ok")),
                    ("hidden", Json::Bool(true)),
                    ("supports", zero()),
                    ("residual_supports", zero()),
                    ("sequences", Json::num(4)),
                    ("timings", Json::Obj(vec![])),
                    ("release", s(release)),
                ]);
                w.write_all(reply.as_bytes()).unwrap();
                line.clear();
            }
        });
        (addr, handle)
    }

    /// A leaking release is a failed operation, not an error of the
    /// benchmark: it lands in `failed`, and the warm-up goes on.
    #[test]
    fn a_leaking_release_ends_in_failed() {
        let (addr, server) = leaky_stub();
        let mut served = Served::new(
            "a b\na b\na b\nc c\n",
            vec!["a b".into()],
            1,
            0,
            vec!["c a".into()],
        );
        let mut tally = Tally::default();
        served
            .warm_up(&mut Conn::open(addr).unwrap(), &mut tally)
            .unwrap();
        server.join().unwrap();
        assert_eq!(tally.attempted, Op::ALL.len() as u64);
        assert_eq!(tally.failed, 1, "{:?}", tally.errors);
        assert!(
            tally.errors[0].starts_with("inline release: not hidden"),
            "{:?}",
            tally.errors
        );
    }

    #[test]
    fn a_slow_late_half_is_a_growing_backlog() {
        let mk = |due_s: f64, rtt_ms: f64| Sample {
            op: Op::Stats,
            due_s,
            lag_ms: 0.0,
            rtt_ms,
            reply_bytes: 10,
            timings: None,
        };
        let flat: Vec<Sample> = (0..40).map(|i| mk(i as f64 * 0.1, 2.0)).collect();
        let growing: Vec<Sample> = (0..40)
            .map(|i| mk(i as f64 * 0.1, 2.0 + 5.0 * i as f64))
            .collect();
        let step = |samples: Vec<Sample>| Step {
            rate: 10.0,
            attempted: samples.len() as u64,
            answered: samples.len() as u64,
            samples,
            errors: vec![],
            achieved_rps: 10.0,
        };
        assert!(!step(flat).backlog_growing());
        assert!(step(growing).backlog_growing());
    }

    #[test]
    fn release_is_cut_out_before_parsing() {
        let line = "{\"status\":\"ok\",\"hidden\":true,\"release\":\"a \\\"b\\nc\\n\",\"timings\":{\"req_id\":1}}\n";
        let (rest, release) = split_release(line);
        assert_eq!(release, Some("a \\\"b\\nc\\n"));
        assert_eq!(
            rest,
            "{\"status\":\"ok\",\"hidden\":true,\"timings\":{\"req_id\":1}}"
        );
        assert_eq!(release_of(line).unwrap(), "a \"b\nc\n");
    }

    #[test]
    fn deltas_keep_the_mirror_size_and_order() {
        let mut s = Served::new(
            "a b\nb c\nc a\na c\n",
            vec!["a b".into()],
            1,
            3,
            vec!["c c".into(), "b b".into()],
        );
        let frame = s.frame(Op::Delta);
        assert!(frame.ends_with('\n') && frame.contains("\"remove\":["));
        assert_eq!(s.mirror.len(), 4);
        assert_eq!(s.mirror[3], "c c");
        let kept: Vec<&str> = ["a b", "b c", "c a", "a c"]
            .into_iter()
            .filter(|l| s.mirror[..3].contains(&l.to_string()))
            .collect();
        assert_eq!(kept, s.mirror[..3], "survivors keep their order");
    }
}
