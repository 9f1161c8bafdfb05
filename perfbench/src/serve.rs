//! The `serve` side: a running `rhsd-serve` process and the load the
//! benchmark puts on it.
//!
//! Load comes from this process only, over [`CONNECTIONS`] connections:
//! an open loop on one thread, or a closed loop on one thread per
//! connection.

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use rhsd_obs::json::{self, Value};
use rhsd_serve::proto::{read_frame, request_json, write_frame, MAX_FRAME_BYTES};
use rhsd_serve::{Client, Request};

use crate::host;
use crate::inputs::{Scheduled, CONNECTIONS, SCANS};

/// Longest the benchmark waits for any one reply or for the server to
/// come up.
const TIMEOUT: Duration = Duration::from_secs(60);

/// A spawned `rhsd-serve` process. Dropping it kills and reaps the
/// process if [`ServerProc::shutdown`] did not already stop it.
pub struct ServerProc {
    child: Child,
    stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
    /// Spawn to first `info` reply, seconds.
    pub ready_s: f64,
}

impl ServerProc {
    /// Spawns `bin` on `model` with `threads` workers, waits for its
    /// listen line and its first `info` reply.
    pub fn start(bin: &Path, model: &Path, threads: usize) -> Result<ServerProc, String> {
        let t0 = Instant::now();
        let mut child = Command::new(bin)
            .arg("--model")
            .arg(model)
            .args(["--port", "0", "--threads", &threads.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let Some(stdout) = child.stdout.take() else {
            let _ = child.kill();
            let _ = child.wait();
            return Err("server stdout was not captured".into());
        };
        let mut server = ServerProc {
            child,
            stdout: BufReader::new(stdout),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            ready_s: 0.0,
        };
        let mut line = String::new();
        server
            .stdout
            .read_line(&mut line)
            .map_err(|e| format!("reading the server's listen line: {e}"))?;
        server.addr = line
            .trim()
            .rsplit(' ')
            .next()
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| format!("unexpected server output `{}`", line.trim()))?;
        let info = server.client()?.request(&Request::Info);
        let info = info.map_err(|e| format!("info request failed: {e}"))?;
        if !info.contains("\"op\":\"info\"") {
            return Err(format!("unexpected info reply {info}"));
        }
        server.ready_s = t0.elapsed().as_secs_f64();
        eprintln!("perfbench: server {}: {info}", server.addr);
        Ok(server)
    }

    /// The listen address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A new protocol client.
    pub fn client(&self) -> Result<Client, String> {
        Client::connect(self.addr).map_err(|e| format!("connect: {e}"))
    }

    /// The server's `stats` reply.
    pub fn stats(&self) -> Result<ServerStats, String> {
        let body = self
            .client()?
            .stats()
            .map_err(|e| format!("stats request failed: {e}"))?;
        ServerStats::parse(&body)
    }

    /// Peak resident memory of the server process (`VmHWM`), MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        host::vm_hwm_mb(&self.pid())
    }

    /// The server's process id.
    pub fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// CPU seconds the server process has used so far.
    pub fn cpu_s(&self) -> Result<f64, String> {
        host::cpu_s(&self.pid())
    }

    /// Asks the server to shut down and waits for it to exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        self.client()?
            .shutdown()
            .map_err(|e| format!("shutdown request failed: {e}"))?;
        let mut rest = String::new();
        let _ = self.stdout.read_to_string(&mut rest);
        let status = self.child.wait().map_err(|e| format!("wait: {e}"))?;
        eprint!("perfbench: {rest}");
        if status.success() {
            Ok(())
        } else {
            Err(format!("server exited with {status}"))
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// The counters of a `stats` reply the benchmark reports.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ServerStats {
    /// Batched forward passes.
    pub batches: f64,
    /// Requests that went through batched passes.
    pub batched_requests: f64,
    /// Most requests coalesced into one pass.
    pub max_batch_requests: f64,
    /// Raster-tile cache hits.
    pub tile_hits: f64,
    /// Raster-tile cache misses.
    pub tile_misses: f64,
    /// Stem-feature cache hits.
    pub stem_hits: f64,
    /// Stem-feature cache misses.
    pub stem_misses: f64,
}

impl ServerStats {
    fn parse(body: &str) -> Result<ServerStats, String> {
        let v = json::parse(body).map_err(|at| format!("stats reply not JSON at {at}: {body}"))?;
        let get = |k: &str| {
            v.get(k)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("stats reply lacks `{k}`: {body}"))
        };
        Ok(ServerStats {
            batches: get("batches")?,
            batched_requests: get("batched_requests")?,
            max_batch_requests: get("max_batch_requests")?,
            tile_hits: get("tile_hits")?,
            tile_misses: get("tile_misses")?,
            stem_hits: get("stem_hits")?,
            stem_misses: get("stem_misses")?,
        })
    }

    /// Counters accumulated since `earlier` (the maximum is taken as is).
    pub fn since(&self, earlier: &ServerStats) -> ServerStats {
        ServerStats {
            batches: self.batches - earlier.batches,
            batched_requests: self.batched_requests - earlier.batched_requests,
            max_batch_requests: self.max_batch_requests,
            tile_hits: self.tile_hits - earlier.tile_hits,
            tile_misses: self.tile_misses - earlier.tile_misses,
            stem_hits: self.stem_hits - earlier.stem_hits,
            stem_misses: self.stem_misses - earlier.stem_misses,
        }
    }
}

/// What an open loop observed, index-aligned with its schedule.
#[derive(Debug, Clone, Default)]
pub struct OpenLoop {
    /// Completion minus due time, ms (`NaN` where no reply came).
    pub latency_ms: Vec<f64>,
    /// Send minus due time, ms.
    pub late_ms: Vec<f64>,
    /// Reply bodies (`None` where the exchange failed).
    pub replies: Vec<Option<String>>,
}

/// Runs an open loop over `streams` on the calling thread: each
/// scheduled request is written when it falls due, never held back for
/// a reply, and timed from its due time, so a stall in the server is
/// charged to every request queued behind it.
pub fn open_loop(streams: &mut [TcpStream], schedule: &[Scheduled]) -> OpenLoop {
    let n = schedule.len();
    let mut out = OpenLoop {
        latency_ms: vec![f64::NAN; n],
        late_ms: vec![0.0; n],
        replies: vec![None; n],
    };
    // Per connection: schedule indices in send order, how many replies
    // have arrived, and the bytes of the frame being received.
    let mut order: Vec<Vec<usize>> = vec![Vec::new(); streams.len()];
    let mut done = vec![0usize; streams.len()];
    let mut bufs: Vec<Vec<u8>> = vec![Vec::new(); streams.len()];
    let mut broken = vec![false; streams.len()];
    for s in streams.iter() {
        let _ = s.set_nonblocking(true);
    }
    let start = Instant::now();
    let mut next = 0usize;
    let mut chunk = vec![0u8; 64 * 1024];
    loop {
        let now = start.elapsed().as_secs_f64();
        while next < n && schedule[next].due_s <= now {
            let r = schedule[next];
            let sent = start.elapsed().as_secs_f64();
            out.late_ms[next] = (sent - r.due_s) * 1e3;
            let (case, half) = SCANS[r.scan];
            let body = request_json(&Request::Scan { case, half });
            let mut frame = (body.len() as u32).to_be_bytes().to_vec();
            frame.extend_from_slice(body.as_bytes());
            if !broken[r.conn] && write_all_blocking(&mut streams[r.conn], &frame).is_err() {
                broken[r.conn] = true;
            }
            order[r.conn].push(next);
            next += 1;
        }
        let mut progressed = false;
        for c in 0..streams.len() {
            if broken[c] || done[c] == order[c].len() {
                continue;
            }
            match streams[c].read(&mut chunk) {
                Ok(0) => broken[c] = true,
                Ok(k) => {
                    progressed = true;
                    bufs[c].extend_from_slice(&chunk[..k]);
                    while let Some(body) = take_frame(&mut bufs[c]) {
                        let Some(&i) = order[c].get(done[c]) else {
                            broken[c] = true; // a reply nobody asked for
                            break;
                        };
                        let now = start.elapsed().as_secs_f64();
                        out.latency_ms[i] = (now - schedule[i].due_s) * 1e3;
                        out.replies[i] = body;
                        done[c] += 1;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                Err(e) if e.kind() == ErrorKind::Interrupted => progressed = true,
                Err(_) => broken[c] = true,
            }
        }
        let outstanding = (0..streams.len()).any(|c| !broken[c] && done[c] < order[c].len());
        if next == n && !outstanding {
            break;
        }
        if start.elapsed().as_secs_f64()
            > schedule.last().map_or(0.0, |r| r.due_s) + TIMEOUT.as_secs_f64()
        {
            break;
        }
        if !progressed {
            let until_due = schedule
                .get(next)
                .map_or(1e-3, |r| r.due_s - start.elapsed().as_secs_f64());
            std::thread::sleep(Duration::from_secs_f64(until_due.clamp(0.0, 1e-3)));
        }
    }
    for s in streams.iter() {
        let _ = s.set_nonblocking(false);
    }
    out
}

/// Writes all of `bytes` to a non-blocking stream, waiting out
/// `WouldBlock`.
fn write_all_blocking(stream: &mut TcpStream, mut bytes: &[u8]) -> std::io::Result<()> {
    while !bytes.is_empty() {
        match stream.write(bytes) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(k) => bytes = &bytes[k..],
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_micros(100));
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Removes one complete frame from the front of `buf`: `Some(Some(body))`
/// for a UTF-8 body, `Some(None)` for a malformed one, `None` while the
/// frame is incomplete.
fn take_frame(buf: &mut Vec<u8>) -> Option<Option<String>> {
    if buf.len() < 4 {
        return None;
    }
    let len = u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]);
    if len > MAX_FRAME_BYTES {
        buf.clear();
        return Some(None);
    }
    let end = 4 + len as usize;
    if buf.len() < end {
        return None;
    }
    let body = String::from_utf8(buf[4..end].to_vec()).ok();
    buf.drain(..end);
    Some(body)
}

/// Opens the load's connections.
pub fn connect_all(addr: SocketAddr) -> Result<Vec<TcpStream>, String> {
    (0..CONNECTIONS)
        .map(|_| {
            let s = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
            s.set_nodelay(true).map_err(|e| format!("nodelay: {e}"))?;
            s.set_read_timeout(Some(TIMEOUT))
                .map_err(|e| format!("read timeout: {e}"))?;
            Ok(s)
        })
        .collect()
}

/// One closed-loop request: scan index, latency in ms, reply body.
pub type Exchange = (usize, f64, Option<String>);

/// A closed loop: connection `c` sends `sequences[c]` back to back, one
/// thread per connection, until `duration` has passed (at least one
/// request each). Returns each connection's exchanges and the wall time.
pub fn closed_loop(
    addr: SocketAddr,
    sequences: &[Vec<usize>],
    duration: Duration,
) -> Result<(Vec<Vec<Exchange>>, f64), String> {
    let mut streams = connect_all(addr)?;
    let start = Instant::now();
    let per_conn: Vec<Vec<Exchange>> = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter_mut()
            .zip(sequences)
            .map(|(stream, seq)| scope.spawn(move || drive(stream, seq, start, duration)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_default())
            .collect()
    });
    Ok((per_conn, start.elapsed().as_secs_f64()))
}

fn drive(
    stream: &mut TcpStream,
    seq: &[usize],
    start: Instant,
    duration: Duration,
) -> Vec<Exchange> {
    let mut out = Vec::new();
    for &scan in seq {
        if !out.is_empty() && start.elapsed() >= duration {
            break;
        }
        let (case, half) = SCANS[scan];
        let t = Instant::now();
        let reply = write_frame(stream, &request_json(&Request::Scan { case, half }))
            .ok()
            .and_then(|()| read_frame(stream).ok().flatten());
        let failed = reply.is_none();
        out.push((scan, t.elapsed().as_secs_f64() * 1e3, reply));
        if failed {
            break;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A stand-in server: answers every frame on each accepted
    /// connection with `reply-<n>` after `service`, except that the
    /// request numbered `stall_at` on connection 0 takes `stall` longer.
    fn fake_server(service: Duration, stall_at: usize, stall: Duration) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            for (conn, stream) in listener.incoming().take(CONNECTIONS).enumerate() {
                let mut stream = stream.unwrap();
                std::thread::spawn(move || {
                    let mut reader = stream.try_clone().unwrap();
                    let mut n = 0usize;
                    while let Ok(Some(_)) = read_frame(&mut reader) {
                        std::thread::sleep(service);
                        if conn == 0 && n == stall_at {
                            std::thread::sleep(stall);
                        }
                        if write_frame(&mut stream, &format!("reply-{n}")).is_err() {
                            return;
                        }
                        n += 1;
                    }
                });
            }
        });
        addr
    }

    fn schedule(n: usize, gap_s: f64) -> Vec<Scheduled> {
        (0..n)
            .map(|i| Scheduled {
                due_s: 0.05 + i as f64 * gap_s,
                conn: i % CONNECTIONS,
                scan: i % SCANS.len(),
            })
            .collect()
    }

    #[test]
    fn open_loop_charges_a_stall_to_the_requests_behind_it() {
        let service = Duration::from_millis(5);
        let stall = Duration::from_millis(400);
        // Connection 0 carries the even requests; its third request
        // (schedule index 4) stalls the server for 400 ms.
        let addr = fake_server(service, 2, stall);
        let mut streams = connect_all(addr).unwrap();
        let sched = schedule(24, 0.02);
        let result = open_loop(&mut streams, &sched);

        assert!(result.replies.iter().all(Option::is_some));
        // Replies arrive in order on each connection.
        assert_eq!(result.replies[4].as_deref(), Some("reply-2"));
        assert_eq!(result.replies[5].as_deref(), Some("reply-2"));
        // The stalled request and the connection-0 requests due during
        // the stall all wait for it, measured from their due times.
        let stalled = result.latency_ms[4];
        assert!(stalled >= 400.0, "stalled request took {stalled} ms");
        for i in (6..24).step_by(2) {
            let behind = 400.0 - (sched[i].due_s - sched[4].due_s) * 1e3;
            assert!(
                result.latency_ms[i] >= behind - 5.0,
                "request {i}: {} ms, but {behind} ms of stall remained at its due time",
                result.latency_ms[i]
            );
        }
        // Connection 1 never waited on the stall.
        for i in (1..24).step_by(2) {
            assert!(
                result.latency_ms[i] < 200.0,
                "request {i}: {} ms",
                result.latency_ms[i]
            );
        }
        // The generator kept to its schedule through the stall.
        let late = result.late_ms.iter().copied().fold(0.0, f64::max);
        assert!(late < 20.0, "generator ran {late} ms late");
    }

    #[test]
    fn closed_loop_sends_back_to_back_until_the_deadline() {
        let addr = fake_server(Duration::from_millis(10), usize::MAX, Duration::ZERO);
        let seqs = vec![vec![0; 1000], vec![1; 1000]];
        let (per_conn, wall) = closed_loop(addr, &seqs, Duration::from_millis(200)).unwrap();
        assert_eq!(per_conn.len(), CONNECTIONS);
        for rows in &per_conn {
            // Back to back: 20 in 200 ms when idle; other tests may share the cores.
            assert!((3..=40).contains(&rows.len()), "{} requests", rows.len());
            assert!(rows.iter().all(|(_, ms, r)| r.is_some() && *ms >= 10.0));
        }
        assert!(wall >= 0.2);
    }

    #[test]
    fn frames_split_across_reads_reassemble() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "hello").unwrap();
        write_frame(&mut buf, "world").unwrap();
        let mut partial = buf[..6].to_vec();
        assert_eq!(take_frame(&mut partial), None);
        partial.extend_from_slice(&buf[6..]);
        assert_eq!(take_frame(&mut partial), Some(Some("hello".into())));
        assert_eq!(take_frame(&mut partial), Some(Some("world".into())));
        assert!(partial.is_empty());
    }
}
