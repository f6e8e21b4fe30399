//! The traced run's probe of the USBP daemon: the workload's first bundle
//! submitted twice over one loopback connection, a cache miss and then a
//! hit, so every traced run measures the daemon's layer.
//!
//! The client side speaks the protocol through `usb_eval::serve::proto`
//! on a plain socket.

use crate::check::Digest;
use crate::scan::SUBSET;
use crate::trace::Tracer;
use crate::victims::Bundle;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};
use usb_eval::serve::proto::{read_frame, write_frame};
use usb_eval::serve::{Frame, ServeConfig, ServeStats, Server, SubmitRequest};

/// How long the client waits for any frame before declaring the daemon
/// stuck.
const READ_TIMEOUT: Duration = Duration::from_secs(150);

/// A verdict as the client received it.
#[derive(Debug, Clone)]
pub struct Served {
    /// The verdict's digest.
    pub digest: Digest,
    /// Server-side seconds (`WireVerdict::seconds`).
    pub server_s: f64,
    /// Whether the resident cache held the bundle.
    pub cache_hit: bool,
}

/// One request's outcome as the client saw it.
#[derive(Debug, Clone)]
pub struct Answer {
    /// Request id (the submission tag).
    pub id: u64,
    /// Seconds from writing the submission to its verdict frame.
    pub latency: f64,
    /// The verdict, or the error frame's text.
    pub result: Result<Served, String>,
}

fn connect(addr: SocketAddr) -> Result<TcpStream, String> {
    let mut s = TcpStream::connect(addr).map_err(|e| format!("connecting {addr}: {e}"))?;
    s.set_nodelay(true).map_err(|e| e.to_string())?;
    s.set_read_timeout(Some(READ_TIMEOUT))
        .map_err(|e| e.to_string())?;
    write_frame(&mut s, &Frame::Ping).map_err(|e| format!("ping: {e}"))?;
    match read_frame(&mut s) {
        Ok(Frame::Pong) => Ok(s),
        other => Err(format!("daemon answered a ping with {other:?}")),
    }
}

/// Reads frames until the terminal one (verdict or error) of the request
/// in flight arrives.
fn next_answer(conn: &mut TcpStream) -> Result<Result<Served, String>, String> {
    loop {
        match read_frame(conn).map_err(|e| format!("reading an answer: {e}"))? {
            Frame::Accepted { .. } | Frame::Progress(_) => {}
            Frame::Verdict(v) => {
                return Ok(Ok(Served {
                    digest: Digest::of_wire(&v),
                    server_s: v.seconds,
                    cache_hit: v.cache_hit,
                }))
            }
            Frame::Error { message, .. } => return Ok(Err(message)),
            other => return Err(format!("unexpected frame {other:?}")),
        }
    }
}

/// Starts a daemon with the default configuration, submits `bundle` twice
/// for a standard-config scan with `scan_seed` (drawing the clean subset
/// the offline scan draws), and stops the daemon. Returns the answers and
/// the daemon's counters.
pub fn probe(
    bundle: &Bundle,
    scan_seed: u64,
    tracer: &Tracer,
) -> Result<(Vec<Answer>, ServeStats), String> {
    let server = Server::start(("127.0.0.1", 0), ServeConfig::default())
        .map_err(|e| format!("binding daemon: {e}"))?;
    let asked = (|| -> Result<Vec<Answer>, String> {
        let mut conn = connect(server.local_addr())?;
        let mut answers = Vec::new();
        for id in 1..=2u64 {
            let req = SubmitRequest {
                tag: id,
                seed: scan_seed,
                subset: SUBSET as u32,
                workers: 0,
                fast: false,
                bundle: bundle.bytes.clone(),
            };
            let sent = Instant::now();
            write_frame(&mut conn, &Frame::Submit(req))
                .map_err(|e| format!("request {id}: {e}"))?;
            let result = next_answer(&mut conn)?;
            let at = Instant::now();
            let root = tracer.record("serve.request", 0, id, sent, at);
            if let Ok(served) = &result {
                let compute_from = at
                    .checked_sub(Duration::from_secs_f64(served.server_s))
                    .map_or(sent, |t| t.max(sent));
                tracer.record("serve.compute", root, id, compute_from, at);
            }
            answers.push(Answer {
                id,
                latency: at.duration_since(sent).as_secs_f64(),
                result,
            });
        }
        Ok(answers)
    })();
    let stats = server.stop();
    Ok((asked?, stats))
}
