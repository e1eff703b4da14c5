//! Minimal plain-HTTP metrics listener (`--metrics-addr`): enough
//! HTTP/1.1 for a Prometheus scraper, nothing more.
//!
//! The listener serves `GET` only, one request per connection
//! (`Connection: close`), on a thread of its own so scrapes never
//! compete with NDJSON clients for the acceptor:
//!
//! * `GET /metrics` — the snapshot diff since server start in the
//!   Prometheus text exposition format;
//! * `GET /metrics.json` — the same snapshot as the JSON schema
//!   (`docs/OBSERVABILITY.md`);
//! * `GET /healthz` — the `health` payload as a JSON object.
//!
//! Values come from the same `Snapshot::diff(baseline)` a `metrics`
//! wire request uses, so a scrape and an NDJSON reply taken together
//! agree. The request head is read bounded ([`MAX_HEAD_BYTES`]) with a
//! read timeout, so a stalled or abusive scraper cannot pin the thread.

use std::io::{self, BufRead, BufReader, Read as _, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use seqhide_obs as obs;

use crate::protocol;
use crate::server::Shared;

/// The most bytes one HTTP request head (request line + headers) may
/// occupy before the connection is answered 400 and dropped.
pub const MAX_HEAD_BYTES: usize = 8 * 1024;

/// Most HTTP connections served concurrently. Beyond this, new
/// connections are dropped on accept — a scraper sees a reset and
/// retries, which beats letting a connection flood spawn unbounded
/// threads.
pub const MAX_HTTP_CONNS: usize = 32;

/// Accept loop for the metrics listener; exits when the server drains
/// (the drain self-connects to wake a blocked `accept`).
///
/// Each connection is served on a short-lived thread of its own, so a
/// stalled client — one that connects and then sends nothing for up to
/// the 5-second read timeout — delays only itself, never the scrape
/// arriving behind it. The thread count is bounded by
/// [`MAX_HTTP_CONNS`].
pub(crate) fn run_metrics_listener(listener: TcpListener, shared: &Arc<Shared>) {
    let live = Arc::new(AtomicUsize::new(0));
    for stream in listener.incoming() {
        if shared.is_draining() {
            break;
        }
        match stream {
            Ok(stream) => {
                if live.fetch_add(1, Ordering::SeqCst) >= MAX_HTTP_CONNS {
                    // Over the cap: undo and drop the connection.
                    live.fetch_sub(1, Ordering::SeqCst);
                    continue;
                }
                let live = Arc::clone(&live);
                let shared = Arc::clone(shared);
                thread::spawn(move || {
                    let _ = handle(stream, &shared);
                    live.fetch_sub(1, Ordering::SeqCst);
                });
            }
            Err(_) => thread::sleep(Duration::from_millis(10)),
        }
    }
}

/// Serves one request on one connection, then closes it.
fn handle(stream: TcpStream, shared: &Shared) -> io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut request_line = String::new();
    let mut head_budget = MAX_HEAD_BYTES as u64;
    let n = reader
        .by_ref()
        .take(head_budget)
        .read_line(&mut request_line)?;
    if n == 0 {
        return Ok(());
    }
    if !request_line.ends_with('\n') {
        // Either the line filled the whole budget without a newline (a
        // cap-length junk blast must not be parsed as if truncation were
        // the request) or the client hung up mid-line; 400 both.
        let message = if n as u64 == head_budget {
            "head too large\n"
        } else {
            "malformed request head\n"
        };
        return respond(stream, 400, "text/plain; charset=utf-8", message);
    }
    head_budget -= n as u64;

    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");

    // Drain the rest of the head (bounded) so the client sees the
    // response rather than a reset while still sending headers.
    let mut header = String::new();
    loop {
        // Checked at the top: a `take(0)` read returning 0 must read as
        // "budget exhausted", not as end-of-head.
        if head_budget == 0 {
            return respond(stream, 400, "text/plain; charset=utf-8", "head too large\n");
        }
        header.clear();
        let n = reader.by_ref().take(head_budget).read_line(&mut header)?;
        if n == 0 {
            break;
        }
        head_budget -= n as u64;
        if !header.ends_with('\n') && head_budget == 0 {
            return respond(stream, 400, "text/plain; charset=utf-8", "head too large\n");
        }
        if header.trim().is_empty() {
            break;
        }
    }

    if method != "GET" {
        return respond(
            stream,
            405,
            "text/plain; charset=utf-8",
            "method not allowed; this endpoint serves GET only\n",
        );
    }
    match path {
        "/metrics" => {
            // Per-tenant labeled series ride along in multi-tenant mode
            // (empty string otherwise, keeping single-tenant scrape
            // output unchanged).
            let mut body = obs::snapshot().diff(shared.baseline()).to_prometheus();
            body.push_str(&shared.tenant_metrics());
            respond(
                stream,
                200,
                "text/plain; version=0.0.4; charset=utf-8",
                &body,
            )
        }
        "/metrics.json" => {
            let body = obs::snapshot().diff(shared.baseline()).to_json();
            respond(stream, 200, "application/json", &body)
        }
        "/healthz" => {
            let body = protocol::health_body(&shared.health());
            respond(stream, 200, "application/json", &body)
        }
        _ => respond(
            stream,
            404,
            "text/plain; charset=utf-8",
            "not found; try /metrics, /metrics.json or /healthz\n",
        ),
    }
}

fn respond(mut stream: TcpStream, code: u16, content_type: &str, body: &str) -> io::Result<()> {
    let reason = match code {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        _ => "Error",
    };
    // Head and body in one buffer and one write, like the NDJSON frames.
    let response = format!(
        "HTTP/1.1 {code} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(response.as_bytes())
}
