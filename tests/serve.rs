//! Integration tests for the sanitization service: server-vs-CLI release
//! parity under concurrent clients, backpressure on a full queue, and
//! graceful drain — including the `seqhide serve` subcommand end to end.

use std::fs;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::thread;
use std::time::Duration;

use seqhide::cli::run as cli;
use seqhide::serve::json::{self, Json};
use seqhide::serve::{ServeOptions, ServeSummary, Server};

fn args(list: &[&str]) -> Vec<String> {
    list.iter().map(|s| s.to_string()).collect()
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("seqhide-serve-tests").join(name);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn start(workers: usize, queue_depth: usize) -> (SocketAddr, thread::JoinHandle<ServeSummary>) {
    start_with_dir(workers, queue_depth, None)
}

fn start_with_dir(
    workers: usize,
    queue_depth: usize,
    data_dir: Option<&std::path::Path>,
) -> (SocketAddr, thread::JoinHandle<ServeSummary>) {
    let server = Server::bind(&ServeOptions {
        addr: "127.0.0.1:0".to_string(),
        workers,
        queue_depth,
        metrics_addr: None,
        data_dir: data_dir.map(|d| d.to_string_lossy().into_owned()),
        tenants: None,
    })
    .expect("bind");
    let addr = server.local_addr();
    (addr, thread::spawn(move || server.run().expect("run")))
}

/// A multi-tenant server: parses `config` with the same parser
/// `--tenants FILE` uses, so these tests cover the full config path.
fn start_with_tenants(
    workers: usize,
    queue_depth: usize,
    config: &str,
) -> (SocketAddr, thread::JoinHandle<ServeSummary>) {
    let tenants = seqhide::serve::tenant::parse_tenants(config, "test.conf").expect("config");
    let server = Server::bind(&ServeOptions {
        addr: "127.0.0.1:0".to_string(),
        workers,
        queue_depth,
        metrics_addr: None,
        data_dir: None,
        tenants: Some(tenants),
    })
    .expect("bind");
    let addr = server.local_addr();
    (addr, thread::spawn(move || server.run().expect("run")))
}

/// One request over a fresh connection; reads exactly one response line.
fn send_one(addr: SocketAddr, request: &str) -> Json {
    let mut stream = TcpStream::connect(addr).expect("connect");
    writeln!(stream, "{request}").unwrap();
    stream.flush().unwrap();
    let mut line = String::new();
    BufReader::new(stream).read_line(&mut line).unwrap();
    json::parse(line.trim_end()).expect("response is JSON")
}

fn obj(members: Vec<(&str, Json)>) -> String {
    Json::Obj(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
    .render()
}

fn str_arr(items: &[&str]) -> Json {
    Json::Arr(items.iter().map(|s| Json::Str(s.to_string())).collect())
}

/// One pattern class the parity sweep covers: the database text, the
/// patterns, and how the same run is spelled on the CLI.
struct ParityCase {
    name: &'static str,
    mode: &'static str,
    db: &'static str,
    patterns: &'static [&'static str],
    regexes: &'static [&'static str],
}

const CASES: &[ParityCase] = &[
    ParityCase {
        name: "plain",
        mode: "plain",
        db: "a b c\nb a c\nc c a\na c\na b a b\nc a b\n",
        patterns: &["a c", "a b"],
        regexes: &[],
    },
    ParityCase {
        name: "itemset",
        mode: "itemset",
        db:
            "bread,milk beer\nbeer bread\nbread,milk bread\nmilk beer,bread\nbread,milk beer,milk\n",
        patterns: &["bread,milk beer"],
        regexes: &[],
    },
    ParityCase {
        name: "timed",
        mode: "timed",
        db: "a@0 b@5 c@9\nb@0 a@3 c@7\na@1 c@4\nc@0 a@2 c@9\nb@2 a@6 b@8 c@11\n",
        patterns: &["a c"],
        regexes: &[],
    },
    ParityCase {
        name: "regex",
        mode: "plain",
        db: "a b\na c\na b c\nx y\na c b\nb a c\n",
        patterns: &[],
        regexes: &["a (b | c)"],
    },
];

fn sanitize_request(case: &ParityCase, algorithm: &str, seed: u64) -> String {
    sanitize_request_from(case, algorithm, seed, None)
}

/// The same sanitize request with the database either inline or as a
/// `dataset` reference.
fn sanitize_request_from(
    case: &ParityCase,
    algorithm: &str,
    seed: u64,
    dataset: Option<&str>,
) -> String {
    let db_field = match dataset {
        Some(name) => ("dataset", Json::Str(name.to_string())),
        None => ("db", Json::Str(case.db.to_string())),
    };
    let mut members = vec![
        ("type", Json::Str("sanitize".to_string())),
        db_field,
        ("mode", Json::Str(case.mode.to_string())),
        ("psi", Json::num(0)),
        ("algorithm", Json::Str(algorithm.to_string())),
        ("seed", Json::num(seed)),
    ];
    if !case.patterns.is_empty() {
        members.push(("patterns", str_arr(case.patterns)));
    }
    if !case.regexes.is_empty() {
        members.push(("regexes", str_arr(case.regexes)));
    }
    obj(members)
}

/// What `seqhide hide` writes to `--out` for the same run.
fn cli_release(dir: &std::path::Path, case: &ParityCase, algorithm: &str, seed: u64) -> String {
    let db_path = dir.join(format!("{}.db", case.name));
    fs::write(&db_path, case.db).unwrap();
    let out_path = dir.join(format!("{}-{algorithm}-{seed}.out", case.name));
    let seed = seed.to_string();
    let mut a = vec![
        "hide".to_string(),
        "--db".to_string(),
        db_path.to_string_lossy().into_owned(),
        "--psi".to_string(),
        "0".to_string(),
        "--algorithm".to_string(),
        algorithm.to_string(),
        "--seed".to_string(),
        seed,
        "--out".to_string(),
        out_path.to_string_lossy().into_owned(),
    ];
    if case.mode != "plain" {
        a.extend(args(&["--mode", case.mode]));
    }
    for p in case.patterns {
        a.extend(args(&["--pattern", p]));
    }
    for r in case.regexes {
        a.extend(args(&["--regex", r]));
    }
    cli(&a).unwrap();
    fs::read_to_string(&out_path).unwrap()
}

/// The tentpole guarantee: for every pattern class and every HH/HR/RH/RR
/// algorithm, a served release is **byte-identical** to the CLI's for
/// the same (input, algorithm, ψ, seed) — exercised by four clients
/// hammering one server concurrently, so worker scheduling is also shown
/// not to leak into results.
#[test]
fn served_releases_are_byte_identical_to_cli_across_domains_and_algorithms() {
    let dir = tmpdir("parity");
    let (addr, handle) = start(3, 32);
    let clients: Vec<_> = CASES
        .iter()
        .map(|case| {
            let dir = dir.clone();
            thread::spawn(move || {
                let mut stream = TcpStream::connect(addr).unwrap();
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                for algorithm in ["hh", "hr", "rh", "rr"] {
                    for seed in [0u64, 7] {
                        writeln!(stream, "{}", sanitize_request(case, algorithm, seed)).unwrap();
                        stream.flush().unwrap();
                        let mut line = String::new();
                        reader.read_line(&mut line).unwrap();
                        let resp = json::parse(line.trim_end()).unwrap();
                        assert_eq!(
                            resp.get("status").and_then(Json::as_str),
                            Some("ok"),
                            "{}/{algorithm}/{seed}: {line}",
                            case.name
                        );
                        assert_eq!(resp.get("hidden").and_then(Json::as_bool), Some(true));
                        let served = resp.get("release").and_then(Json::as_str).unwrap();
                        let expected = cli_release(&dir, case, algorithm, seed);
                        assert_eq!(
                            served, expected,
                            "{}/{algorithm}/seed {seed}: served release diverges from CLI",
                            case.name
                        );
                    }
                }
            })
        })
        .collect();
    for client in clients {
        client.join().unwrap();
    }
    let resp = send_one(addr, r#"{"type":"shutdown"}"#);
    assert_eq!(resp.get("status").and_then(Json::as_str), Some("ok"));
    let summary = handle.join().unwrap();
    assert_eq!(summary.executed, (CASES.len() * 4 * 2) as u64);
    assert_eq!(summary.overloads, 0);
}

/// The DistortOp wire field: `"mode":"string"` releases under each
/// operator family are byte-identical to the CLI's `--domain string
/// --op` runs on the same seed, and an edit op on a Δ-mark-only mode is
/// rejected with the pointed error, mirroring the CLI's.
#[test]
fn string_mode_op_round_trip_matches_cli() {
    let dir = tmpdir("string-op");
    let (addr, handle) = start(2, 8);
    let db = "a b c\na b d\nc a b\nb a\na b a b\n";
    let db_path = dir.join("db.seq").to_string_lossy().into_owned();
    fs::write(&db_path, db).unwrap();
    for op in ["mark", "delete", "substitute"] {
        for algorithm in ["hh", "rr"] {
            let resp = send_one(
                addr,
                &obj(vec![
                    ("type", Json::Str("sanitize".to_string())),
                    ("db", Json::Str(db.to_string())),
                    ("mode", Json::Str("string".to_string())),
                    ("patterns", str_arr(&["a b"])),
                    ("psi", Json::num(0)),
                    ("op", Json::Str(op.to_string())),
                    ("algorithm", Json::Str(algorithm.to_string())),
                    ("seed", Json::num(9)),
                ]),
            );
            assert_eq!(
                resp.get("status").and_then(Json::as_str),
                Some("ok"),
                "{op}/{algorithm}: {resp:?}"
            );
            assert_eq!(resp.get("hidden").and_then(Json::as_bool), Some(true));
            let served = resp.get("release").and_then(Json::as_str).unwrap();
            let out_path = dir
                .join(format!("{op}-{algorithm}.out"))
                .to_string_lossy()
                .into_owned();
            cli(&args(&[
                "hide",
                "--db",
                &db_path,
                "--domain",
                "string",
                "--psi",
                "0",
                "--pattern",
                "a b",
                "--op",
                op,
                "--algorithm",
                algorithm,
                "--seed",
                "9",
                "--out",
                &out_path,
            ]))
            .unwrap();
            let expected = fs::read_to_string(&out_path).unwrap();
            assert_eq!(
                served, expected,
                "{op}/{algorithm}: served release diverges from CLI"
            );
            if op != "mark" {
                assert!(!served.contains('Δ'), "{op}: {served}");
            }
        }
    }
    // an edit op outside string mode is shed with the pointed error
    let resp = send_one(
        addr,
        &obj(vec![
            ("type", Json::Str("sanitize".to_string())),
            ("db", Json::Str("a b\n".to_string())),
            ("patterns", str_arr(&["a b"])),
            ("psi", Json::num(0)),
            ("op", Json::Str("delete".to_string())),
        ]),
    );
    assert_eq!(resp.get("status").and_then(Json::as_str), Some("error"));
    assert!(resp
        .get("error")
        .and_then(Json::as_str)
        .unwrap()
        .contains("\"mode\":\"string\""));
    send_one(addr, r#"{"type":"shutdown"}"#);
    handle.join().unwrap();
}

/// Verify and stats answered over the wire match the CLI's semantics.
#[test]
fn verify_and_stats_requests_execute_on_the_pool() {
    let (addr, handle) = start(2, 8);

    // the pattern is visible in the original db: hidden=false is an OK
    // *answer*, not an error (unlike the CLI's exit code)
    let resp = send_one(
        addr,
        &obj(vec![
            ("type", Json::Str("verify".to_string())),
            ("db", Json::Str("a b c\na c\nb b\n".to_string())),
            ("patterns", str_arr(&["a c"])),
            ("psi", Json::num(0)),
        ]),
    );
    assert_eq!(resp.get("status").and_then(Json::as_str), Some("ok"));
    assert_eq!(resp.get("hidden").and_then(Json::as_bool), Some(false));
    assert_eq!(
        resp.get("supports").unwrap().as_array().unwrap()[0].as_u64(),
        Some(2)
    );

    let resp = send_one(
        addr,
        r#"{"type":"stats","db":"login@0 search@15\nlogin@2\n","mode":"timed"}"#,
    );
    assert_eq!(resp.get("sequences").and_then(Json::as_u64), Some(2));
    assert_eq!(resp.get("events_total").and_then(Json::as_u64), Some(3));

    send_one(addr, r#"{"type":"shutdown"}"#);
    handle.join().unwrap();
}

/// The backpressure contract: with one worker and a queue of one, a
/// third in-flight job is shed with `overloaded` — the server never
/// buffers beyond its declared bound — and the two admitted jobs still
/// complete.
#[test]
fn full_queue_sheds_with_overloaded_response() {
    let (addr, handle) = start(1, 1);
    let slow = |id: &str| {
        obj(vec![
            ("id", Json::Str(id.to_string())),
            ("type", Json::Str("sanitize".to_string())),
            ("db", Json::Str("a b\nb a\na b a\n".to_string())),
            ("patterns", str_arr(&["a b"])),
            ("psi", Json::num(0)),
            ("delay_ms", Json::num(1000)),
        ])
    };

    // worker pickup is asynchronous, so admission is sequenced via the
    // inline health endpoint: job A must be *on the worker* before B is
    // sent (else B itself would be shed), and B must be *in the queue*
    // before C probes the full-queue path.
    let await_state = |what: &str, pred: &dyn Fn(&Json) -> bool| {
        for _ in 0..400 {
            let h = send_one(addr, r#"{"type":"health"}"#);
            if pred(&h) {
                return;
            }
            thread::sleep(Duration::from_millis(5));
        }
        panic!("server never reached state: {what}");
    };
    let mut a = TcpStream::connect(addr).unwrap();
    writeln!(a, "{}", slow("A")).unwrap();
    a.flush().unwrap();
    await_state("A inflight", &|h| {
        h.get("inflight").and_then(Json::as_u64) == Some(1)
    });
    let mut b = TcpStream::connect(addr).unwrap();
    writeln!(b, "{}", slow("B")).unwrap();
    b.flush().unwrap();
    await_state("B queued", &|h| {
        h.get("queue_depth").and_then(Json::as_u64) == Some(1)
    });

    let resp = send_one(addr, &slow("C"));
    assert_eq!(
        resp.get("status").and_then(Json::as_str),
        Some("overloaded"),
        "{resp:?}"
    );
    assert!(resp
        .get("error")
        .and_then(Json::as_str)
        .unwrap()
        .contains("queue full"));

    // the admitted jobs were not disturbed by the shed one
    for (stream, id) in [(a, "A"), (b, "B")] {
        let mut line = String::new();
        BufReader::new(stream).read_line(&mut line).unwrap();
        let resp = json::parse(line.trim_end()).unwrap();
        assert_eq!(
            resp.get("status").and_then(Json::as_str),
            Some("ok"),
            "{id}"
        );
        assert_eq!(resp.get("id").and_then(Json::as_str), Some(id));
    }

    send_one(addr, r#"{"type":"shutdown"}"#);
    let summary = handle.join().unwrap();
    assert_eq!(summary.overloads, 1);
    assert_eq!(summary.executed, 2);
}

/// `seqhide serve` end to end: ephemeral port discovered via
/// `--ready-file`, requests served, `metrics` returns the live snapshot,
/// and shutdown drains into the subcommand's clean summary line (which is
/// what makes the process exit 0).
#[test]
fn cli_serve_subcommand_end_to_end() {
    let dir = tmpdir("cli-e2e");
    let ready = dir.join("ready.addr");
    // the temp dir persists across test runs: a stale ready file from a
    // previous process would point at a dead server
    let _ = fs::remove_file(&ready);
    let ready_arg = ready.to_string_lossy().into_owned();
    let handle = thread::spawn(move || {
        cli(&args(&[
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--threads",
            "2",
            "--queue-depth",
            "8",
            "--ready-file",
            &ready_arg,
            "--metrics-addr",
            "127.0.0.1:0",
        ]))
    });

    // first line: wire address; second line: the Prometheus scrape address
    let mut addrs = None;
    for _ in 0..400 {
        if let Ok(text) = fs::read_to_string(&ready) {
            let lines: Vec<&str> = text.lines().collect();
            if lines.len() == 2 {
                if let (Ok(wire), Ok(scrape)) = (
                    lines[0].parse::<SocketAddr>(),
                    lines[1].parse::<SocketAddr>(),
                ) {
                    addrs = Some((wire, scrape));
                    break;
                }
            }
        }
        thread::sleep(Duration::from_millis(5));
    }
    let (addr, scrape) = addrs.expect("ready file never appeared");

    let resp = send_one(
        addr,
        r#"{"id":1,"type":"sanitize","db":"a b c\nb a c\na c\n","patterns":["a c"],"psi":0}"#,
    );
    assert_eq!(resp.get("status").and_then(Json::as_str), Some("ok"));
    assert!(resp
        .get("release")
        .and_then(Json::as_str)
        .unwrap()
        .contains('Δ'));

    let resp = send_one(addr, r#"{"id":2,"type":"metrics"}"#);
    let metrics = resp.get("metrics").expect("metrics payload");
    assert_eq!(
        metrics.get("schema_version").and_then(Json::as_u64),
        Some(4),
        "live snapshot carries the v4 schema"
    );
    if seqhide_obs::is_enabled() {
        let requests = metrics
            .get("counters")
            .and_then(|c| c.get("serve_requests"))
            .and_then(Json::as_u64)
            .expect("serve_requests counter");
        assert!(requests >= 1, "live counter should have seen the sanitize");
    }

    // HTTP scrapes don't count as wire requests, so back-to-back GETs of
    // /metrics.json and /metrics see the same totals: the Prometheus
    // counter must equal the JSON snapshot's value exactly.
    let (status, body) = http_get(scrape, "/metrics.json");
    assert_eq!(status, 200, "{body}");
    let snap = json::parse(&body).expect("/metrics.json is JSON");
    let (status, exposition) = http_get(scrape, "/metrics");
    assert_eq!(status, 200, "{exposition}");
    assert_prometheus_exposition(&exposition);
    if seqhide_obs::is_enabled() {
        let json_requests = snap
            .get("counters")
            .and_then(|c| c.get("serve_requests"))
            .and_then(Json::as_u64)
            .expect("serve_requests in JSON scrape");
        assert_eq!(
            prometheus_value(&exposition, "seqhide_serve_requests_total"),
            Some(json_requests as f64),
            "scrape and JSON snapshot disagree:\n{exposition}"
        );
    }
    let (status, health) = http_get(scrape, "/healthz");
    assert_eq!(status, 200, "{health}");
    let health = json::parse(&health).expect("/healthz is JSON");
    assert_eq!(
        health.get("version").and_then(Json::as_str),
        Some(env!("CARGO_PKG_VERSION"))
    );
    assert!(health.get("uptime_ms").and_then(Json::as_u64).is_some());
    let (status, _) = http_get(scrape, "/nope");
    assert_eq!(status, 404);

    let resp = send_one(addr, r#"{"type":"shutdown"}"#);
    assert_eq!(resp.get("draining").and_then(Json::as_bool), Some(true));
    let out = handle.join().unwrap().unwrap();
    assert!(out.contains("drained clean"), "{out}");
    assert!(
        out.contains("3 request(s)") || out.contains("executed"),
        "{out}"
    );
}

/// Minimal HTTP/1.1 GET: returns (status, body). The metrics listener
/// closes after one response, so read-to-EOF then split on the blank
/// line.
fn http_get(addr: SocketAddr, path: &str) -> (u32, String) {
    use std::io::Read;
    let mut stream = TcpStream::connect(addr).expect("connect scrape listener");
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    stream.flush().unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read HTTP response");
    let (head, body) = raw.split_once("\r\n\r\n").expect("HTTP head/body split");
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code");
    (status, body.to_string())
}

/// Minimal Prometheus text-format checker: every non-empty line is a
/// `# HELP`/`# TYPE` comment or a `name[{labels}] value` sample whose
/// value parses as a float and whose name is a valid metric identifier.
fn assert_prometheus_exposition(text: &str) {
    let mut samples = 0;
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix("# ") {
            assert!(
                comment.starts_with("HELP ") || comment.starts_with("TYPE "),
                "bad comment line: {line}"
            );
            continue;
        }
        let (series, value) = line.rsplit_once(' ').expect("sample has a value");
        assert!(value.parse::<f64>().is_ok(), "unparseable value: {line}");
        let name = series.split('{').next().unwrap();
        assert!(
            !name.is_empty()
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "bad metric name: {line}"
        );
        if let Some(rest) = series.strip_prefix(name) {
            if !rest.is_empty() {
                assert!(
                    rest.starts_with('{') && rest.ends_with('}'),
                    "bad label set: {line}"
                );
            }
        }
        assert!(name.starts_with("seqhide_"), "unprefixed metric: {line}");
        samples += 1;
    }
    assert!(samples > 0, "exposition has no samples:\n{text}");
}

/// Value of an unlabelled series in an exposition, if present.
fn prometheus_value(text: &str, series: &str) -> Option<f64> {
    text.lines()
        .find_map(|l| l.strip_prefix(series).and_then(|r| r.strip_prefix(' ')))
        .and_then(|v| v.parse().ok())
}

#[test]
fn sanitize_responses_carry_a_timings_breakdown() {
    let (addr, handle) = start(1, 4);
    let resp = send_one(
        addr,
        r#"{"id":9,"type":"sanitize","db":"a b c\nb a c\na c\n","patterns":["a c"],"psi":0}"#,
    );
    assert_eq!(resp.get("status").and_then(Json::as_str), Some("ok"));
    let timings = resp.get("timings").expect("timings object");
    assert!(timings.get("req_id").and_then(Json::as_u64).is_some());
    for leg in ["queue_wait_ns", "parse_ns", "sanitize_ns", "serialize_ns"] {
        assert!(
            timings.get(leg).and_then(Json::as_u64).is_some(),
            "missing {leg} in {resp:?}"
        );
    }
    send_one(addr, r#"{"type":"shutdown"}"#);
    handle.join().unwrap();
}

#[test]
fn health_reports_uptime_version_and_high_water_marks() {
    let (addr, handle) = start(2, 4);
    // one sanitize first so the in-flight high-water mark is ≥ 1
    send_one(
        addr,
        r#"{"type":"sanitize","db":"a b\nb a\n","patterns":["a b"],"psi":0}"#,
    );
    let resp = send_one(addr, r#"{"type":"health"}"#);
    assert_eq!(resp.get("status").and_then(Json::as_str), Some("ok"));
    assert_eq!(
        resp.get("version").and_then(Json::as_str),
        Some(env!("CARGO_PKG_VERSION"))
    );
    assert!(resp.get("uptime_ms").and_then(Json::as_u64).is_some());
    assert!(
        resp.get("inflight_high_water").and_then(Json::as_u64) >= Some(1),
        "{resp:?}"
    );
    assert!(resp
        .get("queue_depth_high_water")
        .and_then(Json::as_u64)
        .is_some());
    send_one(addr, r#"{"type":"shutdown"}"#);
    handle.join().unwrap();
}

#[test]
fn debug_dumps_a_slow_request_journal() {
    let (addr, handle) = start(1, 4);
    send_one(
        addr,
        r#"{"type":"sanitize","db":"a b c\nb a c\n","patterns":["a b"],"psi":0}"#,
    );
    let resp = send_one(addr, r#"{"id":3,"type":"debug"}"#);
    assert_eq!(resp.get("status").and_then(Json::as_str), Some("ok"));
    let tracked = resp.get("tracked").and_then(Json::as_u64).unwrap();
    let slowest = resp.get("slowest").and_then(Json::as_array).unwrap();
    if seqhide_obs::is_enabled() {
        assert!(tracked >= 1, "{resp:?}");
        assert!(!slowest.is_empty(), "{resp:?}");
        let trace = &slowest[0];
        assert!(trace.get("req_id").and_then(Json::as_u64).is_some());
        assert!(trace.get("total_ns").and_then(Json::as_u64).is_some());
        let events = trace.get("events").and_then(Json::as_array).unwrap();
        let names: Vec<&str> = events
            .iter()
            .filter_map(|e| e.get("event").and_then(Json::as_str))
            .collect();
        for expected in ["received", "parsed", "admitted", "dequeued", "exec_start"] {
            assert!(names.contains(&expected), "missing {expected}: {names:?}");
        }
        // timestamps are monotonic within the timeline
        let stamps: Vec<u64> = events
            .iter()
            .filter_map(|e| e.get("at_ns").and_then(Json::as_u64))
            .collect();
        assert!(stamps.windows(2).all(|w| w[0] <= w[1]), "{stamps:?}");
    } else {
        assert_eq!(tracked, 0, "obs-off build retains no traces");
        assert!(slowest.is_empty());
    }
    send_one(addr, r#"{"type":"shutdown"}"#);
    handle.join().unwrap();
}

/// Scrapes under live load: wire `metrics` counters are monotonic across
/// consecutive reads while sanitize traffic is in flight, and the
/// Prometheus wire variant stays well-formed throughout.
#[test]
fn concurrent_metrics_scrapes_stay_monotonic_under_load() {
    let (addr, handle) = start(2, 16);
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let loaders: Vec<_> = (0..2)
        .map(|_| {
            let stop = std::sync::Arc::clone(&stop);
            thread::spawn(move || {
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    send_one(
                        addr,
                        r#"{"type":"sanitize","db":"a b c\nb a c\na c\n","patterns":["a c"],"psi":0,"delay_ms":2}"#,
                    );
                }
            })
        })
        .collect();

    let mut last = 0u64;
    for _ in 0..5 {
        let resp = send_one(addr, r#"{"type":"metrics"}"#);
        assert_eq!(resp.get("status").and_then(Json::as_str), Some("ok"));
        if seqhide_obs::is_enabled() {
            let requests = resp
                .get("metrics")
                .and_then(|m| m.get("counters"))
                .and_then(|c| c.get("serve_requests"))
                .and_then(Json::as_u64)
                .expect("serve_requests counter");
            assert!(
                requests >= last,
                "counter went backwards: {last} -> {requests}"
            );
            last = requests;
        }
        let resp = send_one(addr, r#"{"type":"metrics","format":"prometheus"}"#);
        assert_eq!(
            resp.get("format").and_then(Json::as_str),
            Some("prometheus")
        );
        let exposition = resp
            .get("metrics")
            .and_then(Json::as_str)
            .expect("exposition string");
        assert_prometheus_exposition(exposition);
    }

    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    for loader in loaders {
        loader.join().unwrap();
    }
    send_one(addr, r#"{"type":"shutdown"}"#);
    handle.join().unwrap();
}

/// One request on an already-open connection; reads one response line.
fn send_on(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, request: &str) -> Json {
    writeln!(stream, "{request}").unwrap();
    stream.flush().unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    json::parse(line.trim_end()).expect("response is JSON")
}

fn load_request(name: &str, db: &str) -> String {
    obj(vec![
        ("type", Json::Str("load".to_string())),
        ("name", Json::Str(name.to_string())),
        ("db", Json::Str(db.to_string())),
    ])
}

/// The tentpole guarantee on the wire: a sanitize that references an
/// interned dataset by name is **byte-identical** to one shipping the
/// same database inline, for every pattern class and every HH/HR/RH/RR
/// algorithm — interning must not perturb results, only transport.
#[test]
fn dataset_referenced_sanitize_is_byte_identical_to_inline() {
    let (addr, handle) = start(2, 16);
    for case in CASES {
        let name = format!("ds-{}", case.name);
        let resp = send_one(addr, &load_request(&name, case.db));
        assert_eq!(
            resp.get("status").and_then(Json::as_str),
            Some("ok"),
            "{}: {resp:?}",
            case.name
        );
        assert_eq!(resp.get("name").and_then(Json::as_str), Some(name.as_str()));
        assert_eq!(
            resp.get("bytes").and_then(Json::as_u64),
            Some(case.db.len() as u64)
        );
        assert_eq!(resp.get("origin").and_then(Json::as_str), Some("inline"));
        for algorithm in ["hh", "hr", "rh", "rr"] {
            let inline = send_one(addr, &sanitize_request(case, algorithm, 7));
            let by_name = send_one(
                addr,
                &sanitize_request_from(case, algorithm, 7, Some(&name)),
            );
            assert_eq!(
                by_name.get("status").and_then(Json::as_str),
                Some("ok"),
                "{}/{algorithm}: {by_name:?}",
                case.name
            );
            assert_eq!(
                by_name.get("release").and_then(Json::as_str),
                inline.get("release").and_then(Json::as_str),
                "{}/{algorithm}: dataset-referenced release diverges from inline",
                case.name
            );
            assert_eq!(
                by_name.get("marks").and_then(Json::as_u64),
                inline.get("marks").and_then(Json::as_u64),
                "{}/{algorithm}",
                case.name
            );
        }
    }
    let resp = send_one(addr, r#"{"type":"datasets"}"#);
    let rows = resp.get("datasets").and_then(Json::as_array).unwrap();
    assert_eq!(rows.len(), CASES.len(), "{resp:?}");
    // sorted by name, each row carries the full shape
    let names: Vec<&str> = rows
        .iter()
        .filter_map(|r| r.get("name").and_then(Json::as_str))
        .collect();
    let mut sorted = names.clone();
    sorted.sort_unstable();
    assert_eq!(names, sorted, "listing not sorted: {names:?}");
    send_one(addr, r#"{"type":"shutdown"}"#);
    handle.join().unwrap();
}

/// Registry lifecycle on the wire: duplicate names are refused,
/// unloading while a sanitize holds the snapshot does not disturb the
/// in-flight job, and the name is gone afterwards.
#[test]
fn unload_during_inflight_sanitize_completes_then_name_is_gone() {
    let (addr, handle) = start(1, 4);
    let db = "a b\nb a\na b a\n";
    let resp = send_one(addr, &load_request("race", db));
    assert_eq!(resp.get("status").and_then(Json::as_str), Some("ok"));

    // a second load under the same name is refused, not replaced
    let resp = send_one(addr, &load_request("race", "x y\n"));
    assert_eq!(resp.get("status").and_then(Json::as_str), Some("error"));
    assert!(
        resp.get("error")
            .and_then(Json::as_str)
            .unwrap()
            .contains("already loaded"),
        "{resp:?}"
    );

    // a slow sanitize resolves the name to a snapshot at admission...
    let mut slow = TcpStream::connect(addr).unwrap();
    writeln!(
        slow,
        r#"{{"id":"slow","type":"sanitize","dataset":"race","patterns":["a b"],"psi":0,"delay_ms":400}}"#
    )
    .unwrap();
    slow.flush().unwrap();
    for _ in 0..400 {
        let h = send_one(addr, r#"{"type":"health"}"#);
        if h.get("inflight").and_then(Json::as_u64) == Some(1) {
            break;
        }
        thread::sleep(Duration::from_millis(5));
    }

    // ...so unloading mid-flight succeeds without breaking the job
    let resp = send_one(addr, r#"{"type":"unload","name":"race"}"#);
    assert_eq!(resp.get("status").and_then(Json::as_str), Some("ok"));
    assert_eq!(resp.get("unloaded").and_then(Json::as_bool), Some(true));

    let mut line = String::new();
    BufReader::new(slow).read_line(&mut line).unwrap();
    let resp = json::parse(line.trim_end()).unwrap();
    assert_eq!(
        resp.get("status").and_then(Json::as_str),
        Some("ok"),
        "in-flight sanitize broken by unload: {line}"
    );
    assert!(resp
        .get("release")
        .and_then(Json::as_str)
        .unwrap()
        .contains('Δ'));

    // the name no longer resolves
    let resp = send_one(
        addr,
        r#"{"type":"sanitize","dataset":"race","patterns":["a b"],"psi":0}"#,
    );
    assert_eq!(resp.get("status").and_then(Json::as_str), Some("error"));
    assert!(
        resp.get("error")
            .and_then(Json::as_str)
            .unwrap()
            .contains("unknown dataset"),
        "{resp:?}"
    );
    let resp = send_one(addr, r#"{"type":"unload","name":"race"}"#);
    assert_eq!(resp.get("status").and_then(Json::as_str), Some("error"));

    send_one(addr, r#"{"type":"shutdown"}"#);
    handle.join().unwrap();
}

/// The two other load transports — a server-side `path` and a chunked
/// stream on one connection — intern the same bytes as an inline load,
/// shown by identical sanitize releases and listing rows.
#[test]
fn path_and_chunked_loads_match_inline() {
    let dir = tmpdir("load-transports");
    let (addr, handle) = start(1, 4);
    let db = "a b c\nb a c\nc c a\na c\n";
    let db_path = dir.join("transport.db");
    fs::write(&db_path, db).unwrap();

    let resp = send_one(addr, &load_request("by-inline", db));
    assert_eq!(resp.get("status").and_then(Json::as_str), Some("ok"));

    let resp = send_one(
        addr,
        &obj(vec![
            ("type", Json::Str("load".to_string())),
            ("name", Json::Str("by-path".to_string())),
            ("path", Json::Str(db_path.to_string_lossy().into_owned())),
        ]),
    );
    assert_eq!(
        resp.get("status").and_then(Json::as_str),
        Some("ok"),
        "{resp:?}"
    );
    assert_eq!(resp.get("origin").and_then(Json::as_str), Some("path"));
    assert_eq!(
        resp.get("bytes").and_then(Json::as_u64),
        Some(db.len() as u64)
    );

    // chunked: staging lives on the connection; split mid-line to show
    // reassembly is byte-oriented, not line-oriented
    let mut stream = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let resp = send_on(
        &mut stream,
        &mut reader,
        r#"{"type":"load","name":"by-chunks","chunks":true}"#,
    );
    assert_eq!(
        resp.get("staged").and_then(Json::as_bool),
        Some(true),
        "{resp:?}"
    );
    let (first, second) = db.split_at(9);
    let resp = send_on(
        &mut stream,
        &mut reader,
        &obj(vec![
            ("type", Json::Str("load_chunk".to_string())),
            ("data", Json::Str(first.to_string())),
        ]),
    );
    assert_eq!(
        resp.get("received_bytes").and_then(Json::as_u64),
        Some(first.len() as u64),
        "{resp:?}"
    );
    let resp = send_on(
        &mut stream,
        &mut reader,
        &obj(vec![
            ("type", Json::Str("load_chunk".to_string())),
            ("data", Json::Str(second.to_string())),
            ("last", Json::Bool(true)),
        ]),
    );
    assert_eq!(
        resp.get("status").and_then(Json::as_str),
        Some("ok"),
        "{resp:?}"
    );
    assert_eq!(resp.get("origin").and_then(Json::as_str), Some("chunks"));
    assert_eq!(
        resp.get("bytes").and_then(Json::as_u64),
        Some(db.len() as u64)
    );
    assert_eq!(resp.get("sequences").and_then(Json::as_u64), Some(4));

    // all three transports produce the same release
    let sanitize = |dataset: &str| {
        let resp = send_one(
            addr,
            &obj(vec![
                ("type", Json::Str("sanitize".to_string())),
                ("dataset", Json::Str(dataset.to_string())),
                ("patterns", str_arr(&["a c"])),
                ("psi", Json::num(0)),
                ("seed", Json::num(3)),
            ]),
        );
        assert_eq!(
            resp.get("status").and_then(Json::as_str),
            Some("ok"),
            "{dataset}: {resp:?}"
        );
        resp.get("release")
            .and_then(Json::as_str)
            .unwrap()
            .to_string()
    };
    let inline = sanitize("by-inline");
    assert_eq!(sanitize("by-path"), inline);
    assert_eq!(sanitize("by-chunks"), inline);

    send_one(addr, r#"{"type":"shutdown"}"#);
    handle.join().unwrap();
}

/// Restart persistence: a dataset loaded into a `--data-dir` server is
/// re-attached by a fresh server over the same directory and serves the
/// identical release; unloading removes its store file.
#[test]
fn data_dir_datasets_survive_a_server_restart() {
    let dir = tmpdir("restart").join("store");
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    let db = "a b c\nb a c\nc c a\na c\na b a b\n";
    let case_request = |name: &str| {
        obj(vec![
            ("type", Json::Str("sanitize".to_string())),
            ("dataset", Json::Str(name.to_string())),
            ("patterns", str_arr(&["a c", "a b"])),
            ("psi", Json::num(0)),
            ("seed", Json::num(5)),
        ])
    };

    let (addr, handle) = start_with_dir(1, 4, Some(&dir));
    let resp = send_one(addr, &load_request("trucks", db));
    assert_eq!(
        resp.get("status").and_then(Json::as_str),
        Some("ok"),
        "{resp:?}"
    );
    assert!(
        resp.get("shards").and_then(Json::as_u64) >= Some(1),
        "{resp:?}"
    );
    assert!(dir.join("trucks.sqds").exists(), "store file not committed");
    let before = send_one(addr, &case_request("trucks"));
    assert_eq!(before.get("status").and_then(Json::as_str), Some("ok"));
    send_one(addr, r#"{"type":"shutdown"}"#);
    handle.join().unwrap();

    // a fresh server over the same directory re-attaches the dataset
    let (addr, handle) = start_with_dir(1, 4, Some(&dir));
    let resp = send_one(addr, r#"{"type":"datasets"}"#);
    let rows = resp.get("datasets").and_then(Json::as_array).unwrap();
    assert_eq!(rows.len(), 1, "{resp:?}");
    assert_eq!(rows[0].get("name").and_then(Json::as_str), Some("trucks"));
    assert_eq!(
        rows[0].get("origin").and_then(Json::as_str),
        Some("reattach")
    );
    let after = send_one(addr, &case_request("trucks"));
    assert_eq!(
        after.get("release").and_then(Json::as_str),
        before.get("release").and_then(Json::as_str),
        "re-attached dataset serves a different release"
    );

    let resp = send_one(addr, r#"{"type":"unload","name":"trucks"}"#);
    assert_eq!(resp.get("status").and_then(Json::as_str), Some("ok"));
    assert!(
        !dir.join("trucks.sqds").exists(),
        "unload left the store file behind"
    );
    send_one(addr, r#"{"type":"shutdown"}"#);
    handle.join().unwrap();
    let _ = fs::remove_dir_all(&dir);
}

/// In-process loadgen against an in-process server: the report counts
/// every response, latency quantiles are ordered, and the BENCH JSON
/// carries the named fields CI asserts on.
#[test]
fn loadgen_drives_a_server_and_reports() {
    use seqhide::serve::loadgen::{self, LoadgenOptions};
    let (addr, handle) = start(2, 8);
    let report = loadgen::run(&LoadgenOptions {
        addr: addr.to_string(),
        clients: 3,
        duration: Duration::from_millis(400),
        psi: 2,
        seed: 11,
        db: None,
        sequences: 12,
        dataset: None,
        delta_fraction: 0.0,
        tenants: 0,
        hog_fraction: 0.0,
    })
    .expect("loadgen run");
    assert!(report.requests > 0);
    assert_eq!(
        report.requests,
        report.ok + report.overloaded + report.errors
    );
    assert_eq!(report.errors, 0, "{report:?}");
    assert_eq!(report.latency.count, report.requests);
    assert!(report.latency.quantile(0.99) >= report.latency.quantile(0.50));
    assert!(report.shed_rate() >= 0.0 && report.shed_rate() <= 1.0);
    let json = report.to_bench_json(&LoadgenOptions::default());
    for key in [
        "\"bench\": \"serve\"",
        "\"throughput_rps\"",
        "\"p99\"",
        "\"drain_ms\"",
    ] {
        assert!(json.contains(key), "missing {key}");
    }
    send_one(addr, r#"{"type":"shutdown"}"#);
    handle.join().unwrap();
}

/// A loadgen run with mutation traffic: `delta_fraction` draws `delta`
/// requests against the pre-loaded dataset, every one succeeds, and the
/// delta latency histogram plus the BENCH fields are populated.
#[test]
fn loadgen_delta_traffic_mutates_the_dataset() {
    use seqhide::serve::loadgen::{self, LoadgenOptions};
    let (addr, handle) = start(2, 8);
    let options = LoadgenOptions {
        addr: addr.to_string(),
        clients: 2,
        duration: Duration::from_millis(400),
        psi: 2,
        seed: 3,
        db: None,
        sequences: 12,
        dataset: Some("churn".to_string()),
        delta_fraction: 0.5,
        tenants: 0,
        hog_fraction: 0.0,
    };
    let report = loadgen::run(&options).expect("loadgen run");
    assert_eq!(report.errors, 0, "{report:?}");
    let delta_sent = report
        .mix
        .iter()
        .find(|t| t.name == "delta")
        .map(|t| t.sent)
        .unwrap_or(0);
    assert!(delta_sent > 0, "no delta requests drawn: {:?}", report.mix);
    assert_eq!(report.delta_latency.count, delta_sent);
    let json = report.to_bench_json(&options);
    assert!(json.contains("\"delta_fraction\": 0.5000"), "{json}");
    assert!(json.contains("\"delta_latency_ns\""), "{json}");
    // the dataset's version climbed by exactly the applied deltas
    let resp = send_one(addr, r#"{"type":"datasets"}"#);
    let rows = resp.get("datasets").and_then(Json::as_array).unwrap();
    assert_eq!(rows[0].get("name").and_then(Json::as_str), Some("churn"));
    assert_eq!(
        rows[0].get("version").and_then(Json::as_u64),
        Some(1 + delta_sent),
        "{resp:?}"
    );
    send_one(addr, r#"{"type":"shutdown"}"#);
    handle.join().unwrap();
}

/// The `delta` wire op end to end: a stream of mutations climbs the
/// dataset's version, each post-delta release is byte-identical to a
/// fresh inline sanitize of the mutated database under the same
/// (algorithm, ψ, seed), a refused batch leaves the version alone, and
/// the `datasets` listing reports `version` + `last_modified`.
#[test]
fn delta_stream_matches_fresh_sanitize_and_versions_climb() {
    let (addr, handle) = start(2, 8);
    let resp = send_one(
        addr,
        &load_request("churn", "a b c\nb a c\nc c a\na c\nb b\n"),
    );
    assert_eq!(
        resp.get("status").and_then(Json::as_str),
        Some("ok"),
        "{resp:?}"
    );

    // the client-side mirror of the database the deltas produce
    let mut lines: Vec<String> = ["a b c", "b a c", "c c a", "a c", "b b"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let edits: &[(&[&str], &[usize])] =
        &[(&["c a c", "a c b"], &[1]), (&[], &[0, 2]), (&["a c"], &[])];
    for (round, (add, remove)) in edits.iter().enumerate() {
        let request = obj(vec![
            ("type", Json::Str("delta".to_string())),
            ("dataset", Json::Str("churn".to_string())),
            ("add", str_arr(add)),
            (
                "remove",
                Json::Arr(remove.iter().map(|&o| Json::num(o as u64)).collect()),
            ),
            ("patterns", str_arr(&["a c"])),
            ("psi", Json::num(1)),
            ("algorithm", Json::Str("rr".to_string())),
            ("seed", Json::num(7)),
            ("release", Json::Bool(true)),
        ]);
        let resp = send_one(addr, &request);
        assert_eq!(
            resp.get("status").and_then(Json::as_str),
            Some("ok"),
            "round {round}: {resp:?}"
        );
        assert_eq!(
            resp.get("version").and_then(Json::as_u64),
            Some(round as u64 + 2),
            "round {round}: {resp:?}"
        );
        // apply the same edit to the mirror: ordinals vanish, adds append
        lines = lines
            .iter()
            .enumerate()
            .filter(|(i, _)| !remove.contains(i))
            .map(|(_, l)| l.clone())
            .chain(add.iter().map(|s| s.to_string()))
            .collect();
        assert_eq!(
            resp.get("sequences").and_then(Json::as_u64),
            Some(lines.len() as u64),
            "round {round}"
        );
        // the post-delta release is byte-identical to sanitizing the
        // mutated database from scratch with the same parameters
        let mirror_text = lines.join("\n") + "\n";
        let fresh = send_one(
            addr,
            &obj(vec![
                ("type", Json::Str("sanitize".to_string())),
                ("db", Json::Str(mirror_text)),
                ("patterns", str_arr(&["a c"])),
                ("psi", Json::num(1)),
                ("algorithm", Json::Str("rr".to_string())),
                ("seed", Json::num(7)),
            ]),
        );
        assert_eq!(
            resp.get("release").and_then(Json::as_str),
            fresh.get("release").and_then(Json::as_str),
            "round {round}: delta release diverges from fresh sanitize"
        );
        assert_eq!(
            resp.get("marks").and_then(Json::as_u64),
            fresh.get("marks").and_then(Json::as_u64),
            "round {round}"
        );
        assert_eq!(
            resp.get("residual_supports"),
            fresh.get("residual_supports"),
            "round {round}"
        );
    }

    // a refused batch reports the bad ordinal and moves nothing
    let resp = send_one(
        addr,
        r#"{"type":"delta","dataset":"churn","add":[],"remove":[99],"patterns":["a c"],"psi":1}"#,
    );
    assert_eq!(resp.get("status").and_then(Json::as_str), Some("error"));
    assert!(
        resp.get("error")
            .and_then(Json::as_str)
            .unwrap()
            .contains("99"),
        "{resp:?}"
    );
    let resp = send_one(addr, r#"{"type":"datasets"}"#);
    let rows = resp.get("datasets").and_then(Json::as_array).unwrap();
    assert_eq!(
        rows[0].get("version").and_then(Json::as_u64),
        Some(4),
        "{resp:?}"
    );
    assert!(
        rows[0].get("last_modified").and_then(Json::as_u64) > Some(0),
        "{resp:?}"
    );
    // a delta against an unknown dataset is pointed, not a panic
    let resp = send_one(
        addr,
        r#"{"type":"delta","dataset":"ghost","add":[],"remove":[],"patterns":["a"],"psi":0}"#,
    );
    assert_eq!(resp.get("status").and_then(Json::as_str), Some("error"));
    assert!(
        resp.get("error")
            .and_then(Json::as_str)
            .unwrap()
            .contains("unknown dataset 'ghost'"),
        "{resp:?}"
    );
    send_one(addr, r#"{"type":"shutdown"}"#);
    handle.join().unwrap();
}

// ---------------------------------------------------------------------
// Multi-tenant admission control
// ---------------------------------------------------------------------

/// Writes a request and returns the stream without reading the reply,
/// so the job sits in the server (running or queued) while the test
/// arranges the next step. Read the buffered response later.
fn send_async(addr: SocketAddr, request: &str) -> TcpStream {
    let mut stream = TcpStream::connect(addr).expect("connect");
    writeln!(stream, "{request}").unwrap();
    stream.flush().unwrap();
    stream
}

fn read_response(stream: TcpStream) -> Json {
    let mut line = String::new();
    BufReader::new(stream).read_line(&mut line).unwrap();
    json::parse(line.trim_end()).expect("response is JSON")
}

fn status_of(resp: &Json) -> Option<&str> {
    resp.get("status").and_then(Json::as_str)
}

/// Polls `health` (a control op — answered inline, never queued) until
/// the server reports the given queue depth and inflight count, so
/// tests sequence on observed state instead of racy sleeps.
fn wait_for_state(addr: SocketAddr, token: &str, queue_depth: u64, inflight: u64) {
    let request = format!(r#"{{"type":"health","tenant":"{token}"}}"#);
    for _ in 0..500 {
        let resp = send_one(addr, &request);
        if resp.get("queue_depth").and_then(Json::as_u64) == Some(queue_depth)
            && resp.get("inflight").and_then(Json::as_u64) == Some(inflight)
        {
            return;
        }
        thread::sleep(Duration::from_millis(10));
    }
    panic!("server never reached queue_depth={queue_depth} inflight={inflight}");
}

/// Like [`wait_for_state`] but only requires the inflight count, for
/// tests where the queue is draining while we watch.
fn wait_for_inflight(addr: SocketAddr, token: &str, inflight: u64) {
    let request = format!(r#"{{"type":"health","tenant":"{token}"}}"#);
    for _ in 0..500 {
        let resp = send_one(addr, &request);
        if resp.get("inflight").and_then(Json::as_u64) == Some(inflight) {
            return;
        }
        thread::sleep(Duration::from_millis(10));
    }
    panic!("server never reached inflight={inflight}");
}

#[test]
fn default_mode_accepts_and_ignores_tenant_tokens() {
    let (addr, handle) = start(1, 4);
    // any token (or none) resolves to the permissive default tenant
    let resp = send_one(
        addr,
        r#"{"type":"sanitize","db":"a b c\nb a c\na c\n","patterns":["a c"],"psi":0,"tenant":"whoever"}"#,
    );
    assert_eq!(status_of(&resp), Some("ok"));
    let resp = send_one(addr, r#"{"type":"health","tenant":"smoke"}"#);
    assert_eq!(status_of(&resp), Some("ok"));
    // single-tenant responses carry none of the tenant-only fields
    assert!(resp.get("tenants").is_none(), "{resp:?}");
    assert!(resp.get("tenant_queue_high_water").is_none(), "{resp:?}");
    let resp = send_one(
        addr,
        r#"{"type":"load","name":"plain","db":"a b\n","tenant":"smoke"}"#,
    );
    assert_eq!(status_of(&resp), Some("ok"));
    let resp = send_one(addr, r#"{"type":"datasets"}"#);
    let rows = resp.get("datasets").and_then(Json::as_array).unwrap();
    assert!(rows[0].get("owner").is_none(), "{resp:?}");
    send_one(addr, r#"{"type":"shutdown"}"#);
    handle.join().unwrap();
}

#[test]
fn unknown_tokens_are_refused_in_multi_tenant_mode() {
    let (addr, handle) = start_with_tenants(
        1,
        4,
        "tenant alpha\ntoken = a-key\n\ntenant beta\ntoken = b-key\n",
    );
    let resp = send_one(addr, r#"{"type":"health","tenant":"nope"}"#);
    assert_eq!(status_of(&resp), Some("error"));
    assert!(
        resp.get("error")
            .and_then(Json::as_str)
            .unwrap()
            .contains("unknown tenant token"),
        "{resp:?}"
    );
    // no default tenant in this config: a missing token is refused too
    let resp = send_one(addr, r#"{"type":"health"}"#);
    assert_eq!(status_of(&resp), Some("error"));
    assert!(
        resp.get("error")
            .and_then(Json::as_str)
            .unwrap()
            .contains("no default tenant"),
        "{resp:?}"
    );
    send_one(addr, r#"{"type":"shutdown","tenant":"a-key"}"#);
    handle.join().unwrap();
}

#[test]
fn a_hogs_backlog_does_not_starve_a_light_tenants_first_request() {
    // One worker, a deep global queue: the hog parks a backlog of slow
    // jobs, then the light tenant's *first* request arrives. Weighted
    // fair drain must run it after at most one more hog job, so it
    // finishes well before the hog's backlog.
    let (addr, handle) = start_with_tenants(
        1,
        16,
        "tenant hog\ntoken = hog-key\n\ntenant light\ntoken = light-key\n",
    );
    let slow = r#"{"type":"sanitize","db":"a b\n","patterns":["a b"],"psi":0,"delay_ms":300,"tenant":"hog-key"}"#;
    let backlog: Vec<TcpStream> = (0..6).map(|_| send_async(addr, slow)).collect();
    // the worker must have started the first hog job so the rest queue
    wait_for_inflight(addr, "hog-key", 1);
    let light_started = std::time::Instant::now();
    let resp = send_one(
        addr,
        r#"{"type":"stats","db":"a b\nc\n","mode":"plain","tenant":"light-key"}"#,
    );
    let light_elapsed = light_started.elapsed();
    assert_eq!(status_of(&resp), Some("ok"));
    // 6 hog jobs × 300ms serialize to ~1.8s; the light request must not
    // have waited out that backlog (at most the running job + one more
    // hog job ahead of it, plus scheduling slack)
    assert!(
        light_elapsed < Duration::from_millis(1200),
        "light tenant waited {light_elapsed:?} behind the hog's backlog"
    );
    for stream in backlog {
        assert_eq!(status_of(&read_response(stream)), Some("ok"));
    }
    send_one(addr, r#"{"type":"shutdown","tenant":"light-key"}"#);
    handle.join().unwrap();
}

#[test]
fn quota_exceeded_and_overloaded_shed_distinctly() {
    // capped tenant: 1 queued job at most; roomy tenant: no quota.
    // Global capacity 2. The capped tenant's second queued job sheds as
    // quota_exceeded (its own budget), the roomy tenant's overflow
    // sheds as overloaded (the shared bound) — different statuses,
    // different meanings.
    let (addr, handle) = start_with_tenants(
        1,
        2,
        "tenant capped\ntoken = cap-key\nmax_queued = 1\n\ntenant roomy\ntoken = room-key\n",
    );
    let slow = r#"{"type":"sanitize","db":"a b\n","patterns":["a b"],"psi":0,"delay_ms":3000,"tenant":"cap-key"}"#;
    let running = send_async(addr, slow);
    wait_for_state(addr, "cap-key", 0, 1); // worker picked it up
    let queued = send_async(
        addr,
        r#"{"type":"stats","db":"a\n","mode":"plain","tenant":"cap-key"}"#,
    );
    wait_for_state(addr, "cap-key", 1, 1); // it is in the lane
    let resp = send_one(
        addr,
        r#"{"type":"stats","db":"a\n","mode":"plain","tenant":"cap-key"}"#,
    );
    assert_eq!(status_of(&resp), Some("quota_exceeded"), "{resp:?}");
    assert!(
        resp.get("error")
            .and_then(Json::as_str)
            .unwrap()
            .contains("tenant 'capped'"),
        "{resp:?}"
    );
    // the roomy tenant fills the remaining global slot...
    let filler = send_async(
        addr,
        r#"{"type":"stats","db":"a\n","mode":"plain","tenant":"room-key"}"#,
    );
    wait_for_state(addr, "room-key", 2, 1);
    // ...and its next job hits the shared bound: classic overloaded
    let resp = send_one(
        addr,
        r#"{"type":"stats","db":"a\n","mode":"plain","tenant":"room-key"}"#,
    );
    assert_eq!(status_of(&resp), Some("overloaded"), "{resp:?}");
    assert!(
        resp.get("error")
            .and_then(Json::as_str)
            .unwrap()
            .contains("job queue full (2 waiting)"),
        "{resp:?}"
    );
    for stream in [running, queued, filler] {
        assert_eq!(status_of(&read_response(stream)), Some("ok"));
    }
    send_one(addr, r#"{"type":"shutdown","tenant":"room-key"}"#);
    handle.join().unwrap();
}

#[test]
fn rate_limited_tenants_get_a_retry_after_hint() {
    let (addr, handle) = start_with_tenants(
        2,
        8,
        "tenant throttled\ntoken = thr-key\nrate = 0.5\nburst = 1\n\ntenant free\ntoken = free-key\ndefault = true\n",
    );
    // burst of 1: the first heavy request passes, the second sheds
    let resp = send_one(
        addr,
        r#"{"type":"stats","db":"a b\n","mode":"plain","tenant":"thr-key"}"#,
    );
    assert_eq!(status_of(&resp), Some("ok"));
    let resp = send_one(
        addr,
        r#"{"type":"stats","db":"a b\n","mode":"plain","tenant":"thr-key"}"#,
    );
    assert_eq!(status_of(&resp), Some("overloaded"), "{resp:?}");
    let retry = resp.get("retry_after_ms").and_then(Json::as_u64).unwrap();
    assert!(retry > 0, "{resp:?}");
    // control requests are not rate-gated, and other tenants are free
    assert_eq!(
        status_of(&send_one(addr, r#"{"type":"health","tenant":"thr-key"}"#)),
        Some("ok")
    );
    assert_eq!(
        status_of(&send_one(
            addr,
            r#"{"type":"stats","db":"a b\n","mode":"plain","tenant":"free-key"}"#
        )),
        Some("ok")
    );
    send_one(addr, r#"{"type":"shutdown","tenant":"free-key"}"#);
    handle.join().unwrap();
}

#[test]
fn pinned_bytes_quota_gates_loads_and_unload_frees_budget() {
    let (addr, handle) =
        start_with_tenants(1, 4, "tenant small\ntoken = s-key\nmax_pinned_bytes = 64\n");
    // 100 bytes: over budget outright, and the dataset must not exist
    let big = "x".repeat(99) + "\n";
    let resp = send_one(
        addr,
        &obj(vec![
            ("type", Json::Str("load".to_string())),
            ("name", Json::Str("big".to_string())),
            ("db", Json::Str(big)),
            ("tenant", Json::Str("s-key".to_string())),
        ]),
    );
    assert_eq!(status_of(&resp), Some("quota_exceeded"), "{resp:?}");
    assert!(
        resp.get("error")
            .and_then(Json::as_str)
            .unwrap()
            .contains("pinned-bytes quota"),
        "{resp:?}"
    );
    // 32 bytes fits; a second 40-byte load would breach 64
    let first = "a".repeat(31) + "\n";
    let second = "b".repeat(39) + "\n";
    let load = |name: &str, text: &str| {
        obj(vec![
            ("type", Json::Str("load".to_string())),
            ("name", Json::Str(name.to_string())),
            ("db", Json::Str(text.to_string())),
            ("tenant", Json::Str("s-key".to_string())),
        ])
    };
    assert_eq!(
        status_of(&send_one(addr, &load("first", &first))),
        Some("ok")
    );
    let resp = send_one(addr, &load("second", &second));
    assert_eq!(status_of(&resp), Some("quota_exceeded"), "{resp:?}");
    // unloading refunds the ledger and the refused load now fits
    assert_eq!(
        status_of(&send_one(
            addr,
            r#"{"type":"unload","name":"first","tenant":"s-key"}"#
        )),
        Some("ok")
    );
    assert_eq!(
        status_of(&send_one(addr, &load("second", &second))),
        Some("ok")
    );
    send_one(addr, r#"{"type":"shutdown","tenant":"s-key"}"#);
    handle.join().unwrap();
}

#[test]
fn dataset_ownership_guards_unload_and_delta() {
    let (addr, handle) = start_with_tenants(
        1,
        4,
        "tenant alpha\ntoken = a-key\n\ntenant beta\ntoken = b-key\n",
    );
    let resp = send_one(
        addr,
        r#"{"type":"load","name":"corp","db":"a b c\nb a c\na c\n","tenant":"a-key"}"#,
    );
    assert_eq!(status_of(&resp), Some("ok"));
    // the owner is visible in the listing
    let resp = send_one(addr, r#"{"type":"datasets","tenant":"b-key"}"#);
    let rows = resp.get("datasets").and_then(Json::as_array).unwrap();
    assert_eq!(
        rows[0].get("owner").and_then(Json::as_str),
        Some("alpha"),
        "{resp:?}"
    );
    // another tenant may read it, but not unload or mutate it
    let resp = send_one(
        addr,
        r#"{"type":"sanitize","dataset":"corp","patterns":["a c"],"psi":0,"tenant":"b-key"}"#,
    );
    assert_eq!(status_of(&resp), Some("ok"), "{resp:?}");
    let resp = send_one(addr, r#"{"type":"unload","name":"corp","tenant":"b-key"}"#);
    assert_eq!(status_of(&resp), Some("error"));
    assert!(
        resp.get("error")
            .and_then(Json::as_str)
            .unwrap()
            .contains("owned by tenant 'alpha'"),
        "{resp:?}"
    );
    let resp = send_one(
        addr,
        r#"{"type":"delta","dataset":"corp","add":["c c"],"remove":[],"patterns":["a c"],"psi":0,"tenant":"b-key"}"#,
    );
    assert_eq!(status_of(&resp), Some("error"));
    assert!(
        resp.get("error")
            .and_then(Json::as_str)
            .unwrap()
            .contains("may not apply deltas"),
        "{resp:?}"
    );
    // the owner can do both
    let resp = send_one(
        addr,
        r#"{"type":"delta","dataset":"corp","add":["c c"],"remove":[],"patterns":["a c"],"psi":0,"tenant":"a-key"}"#,
    );
    assert_eq!(status_of(&resp), Some("ok"), "{resp:?}");
    assert_eq!(
        status_of(&send_one(
            addr,
            r#"{"type":"unload","name":"corp","tenant":"a-key"}"#
        )),
        Some("ok")
    );
    send_one(addr, r#"{"type":"shutdown","tenant":"a-key"}"#);
    handle.join().unwrap();
}

#[test]
fn multi_tenant_health_and_metrics_carry_per_tenant_rows() {
    let (addr, handle) = start_with_tenants(
        1,
        4,
        "tenant alpha\ntoken = a-key\nweight = 3\n\ntenant beta\ntoken = b-key\n",
    );
    // drive one heavy request through each tenant's lane
    for token in ["a-key", "b-key"] {
        let resp = send_one(
            addr,
            &obj(vec![
                ("type", Json::Str("stats".to_string())),
                ("db", Json::Str("a b\nc\n".to_string())),
                ("mode", Json::Str("plain".to_string())),
                ("tenant", Json::Str(token.to_string())),
            ]),
        );
        assert_eq!(status_of(&resp), Some("ok"));
    }
    let resp = send_one(addr, r#"{"type":"health","tenant":"a-key"}"#);
    assert_eq!(
        resp.get("tenants").and_then(Json::as_u64),
        Some(2),
        "{resp:?}"
    );
    let hw = resp.get("tenant_queue_high_water").unwrap();
    assert!(hw.get("alpha").and_then(Json::as_u64).is_some(), "{resp:?}");
    assert!(hw.get("beta").and_then(Json::as_u64).is_some(), "{resp:?}");
    // the wire metrics carry labeled per-tenant series
    let resp = send_one(
        addr,
        r#"{"type":"metrics","format":"prometheus","tenant":"b-key"}"#,
    );
    let text = resp.get("metrics").and_then(Json::as_str).unwrap();
    assert!(
        text.contains("seqhide_tenant_requests_total{tenant=\"alpha\"}"),
        "{text}"
    );
    assert!(
        text.contains("seqhide_tenant_requests_total{tenant=\"beta\"}"),
        "{text}"
    );
    send_one(addr, r#"{"type":"shutdown","tenant":"a-key"}"#);
    handle.join().unwrap();
}

#[test]
fn drain_delivers_jobs_parked_behind_an_inflight_cap() {
    // serialized tenant: one job running, one parked behind the
    // in-flight cap (deferred, NOT shed). Shutdown must deliver both —
    // the drain guarantee covers capped sub-queues too.
    let (addr, handle) = start_with_tenants(
        2,
        8,
        "tenant serialized\ntoken = ser-key\nmax_inflight = 1\n",
    );
    let slow = r#"{"type":"sanitize","db":"a b\n","patterns":["a b"],"psi":0,"delay_ms":500,"tenant":"ser-key"}"#;
    let first = send_async(addr, slow);
    wait_for_state(addr, "ser-key", 0, 1);
    let parked = send_async(
        addr,
        r#"{"type":"stats","db":"a b\nc\n","mode":"plain","tenant":"ser-key"}"#,
    );
    // the cap defers the parked job: queued 1, inflight still 1
    wait_for_state(addr, "ser-key", 1, 1);
    send_one(addr, r#"{"type":"shutdown","tenant":"ser-key"}"#);
    assert_eq!(status_of(&read_response(first)), Some("ok"));
    assert_eq!(status_of(&read_response(parked)), Some("ok"));
    let summary = handle.join().unwrap();
    assert_eq!(summary.executed, 2);
}

/// `seqhide hide --delta` and the server's `delta` op run the same
/// pipeline: for every mode the delta path serves (string with
/// `op: delete`), one +1/−1 batch against a loaded dataset releases
/// exactly the bytes the CLI writes for the same edits file.
#[test]
fn cli_delta_release_is_byte_identical_to_served_delta() {
    let dir = tmpdir("delta-cli-parity");
    let (addr, handle) = start(2, 8);
    struct Case {
        name: &'static str,
        /// The wire `mode` and the CLI flags spelling the same class.
        mode: &'static str,
        cli: &'static [&'static str],
        db: &'static str,
        pattern: &'static str,
        added: &'static str,
        op: &'static str,
    }
    let cases = [
        Case {
            name: "plain",
            mode: "plain",
            cli: &[],
            db: "a b c\nb a c\nc c a\na c\na b a b\n",
            pattern: "a c",
            added: "c a c",
            op: "mark",
        },
        Case {
            name: "itemset",
            mode: "itemset",
            cli: &["--mode", "itemset"],
            db: "bread,milk beer\nbeer bread\nbread,milk bread beer\nmilk beer,bread\n",
            pattern: "bread beer",
            added: "bread beer,milk",
            op: "mark",
        },
        Case {
            name: "timed",
            mode: "timed",
            cli: &["--mode", "timed"],
            db: "a@0 b@5 c@9\nb@0 a@3 c@7\na@1 c@4\nc@0 a@2 c@9\n",
            pattern: "a c",
            added: "a@2 c@3",
            op: "mark",
        },
        Case {
            name: "string",
            mode: "string",
            cli: &["--domain", "string", "--op", "delete"],
            db: "a b c\na b d\nc a b\nb a\na b a b\n",
            pattern: "a b",
            added: "x a b",
            op: "delete",
        },
    ];
    for Case {
        name,
        mode,
        cli: cli_mode,
        db,
        pattern,
        added,
        op,
    } in cases
    {
        let dataset = format!("parity-{name}");
        let resp = send_one(addr, &load_request(&dataset, db));
        assert_eq!(status_of(&resp), Some("ok"), "{name}: {resp:?}");
        let served = send_one(
            addr,
            &obj(vec![
                ("type", Json::Str("delta".to_string())),
                ("dataset", Json::Str(dataset.clone())),
                ("add", str_arr(&[added])),
                ("remove", Json::Arr(vec![Json::num(1)])),
                ("mode", Json::Str(mode.to_string())),
                ("patterns", str_arr(&[pattern])),
                ("psi", Json::num(1)),
                ("algorithm", Json::Str("rr".to_string())),
                ("seed", Json::num(5)),
                ("op", Json::Str(op.to_string())),
                ("release", Json::Bool(true)),
            ]),
        );
        assert_eq!(status_of(&served), Some("ok"), "{name}: {served:?}");

        let db_path = dir.join(format!("{name}.db"));
        fs::write(&db_path, db).unwrap();
        let edits_path = dir.join(format!("{name}.edits"));
        fs::write(&edits_path, format!("+ {added}\n- 1\n")).unwrap();
        let out_path = dir.join(format!("{name}.out"));
        let mut a = args(&["hide", "--psi", "1", "--algorithm", "rr", "--seed", "5"]);
        a.extend(args(cli_mode));
        for (flag, path) in [
            ("--db", &db_path),
            ("--delta", &edits_path),
            ("--out", &out_path),
        ] {
            a.extend([flag.to_string(), path.to_string_lossy().into_owned()]);
        }
        a.extend(args(&["--pattern", pattern]));
        cli(&a).unwrap();
        assert_eq!(
            served.get("release").and_then(Json::as_str),
            Some(fs::read_to_string(&out_path).unwrap().as_str()),
            "{name}: served delta release diverges from hide --delta"
        );
    }
    send_one(addr, r#"{"type":"shutdown"}"#);
    handle.join().unwrap();
}
