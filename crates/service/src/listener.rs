//! The TCP front end: a nonblocking listener feeding a [`PlanService`].
//!
//! One acceptor thread owns the listener, every connection's buffers *and*
//! the service; connections never touch a worker thread directly. The loop
//! is plain `std::net` in nonblocking mode — accept what's pending, pump
//! each connection's reads through its [`FrameDecoder`], route finished
//! re-plans back to the tenant's connection, and back off adaptively when
//! nothing moved: a burst of bare yields first (a reply is usually one
//! scheduler quantum away), then sleeps that double from 20 µs up to a 2 ms
//! cap, reset by any progress. A busy loop keeps sub-quantum latency; a
//! long-idle one parks in millisecond naps instead of waking 5000 times a
//! second. Partial frames stay buffered per connection; a malformed or
//! oversized frame kills *only* its connection (after a best-effort
//! [`Response::Error`]) and never a worker.
//!
//! Protocol discipline: the first frame of every connection must be
//! [`Request::Hello`]; anything else — or an unsupported version — draws an
//! error and a close. After a [`Request::Shutdown`] (or
//! [`TcpIngress::shutdown`]) the service drains every accepted event, the
//! remaining [`Response::PlanReady`] frames are delivered, and every
//! connection receives a final [`Response::Stats`] before the socket closes.

use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Receiver;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use spindle_cluster::ClusterSpec;

use crate::proto::{ErrorCode, FrameDecoder, ReplanSummary, Request, Response, PROTO_VERSION};
use crate::{Completion, PlanService, ServiceConfig, ServiceStats, SubmitError};

/// Idle rounds the acceptor spends merely yielding before it starts
/// sleeping.
const IDLE_SPINS: u32 = 64;

/// First (shortest) idle sleep once the yield burst is exhausted.
const IDLE_SLEEP_MIN: Duration = Duration::from_micros(20);

/// Ceiling on one idle sleep. Bounds worst-case wake-up latency after a
/// long-idle stretch while keeping the parked acceptor near zero CPU.
const IDLE_SLEEP_MAX: Duration = Duration::from_millis(2);

/// Adaptive idle strategy of the acceptor loop: spin (yield) while traffic
/// is likely imminent, then exponentially longer sleeps up to
/// [`IDLE_SLEEP_MAX`]. Any progress resets the escalation.
#[derive(Debug, Default)]
struct IdleBackoff {
    idle_rounds: u32,
}

/// What the acceptor should do after `idle_rounds` consecutive rounds with
/// no progress: `None` yields, `Some(d)` sleeps `d`.
fn idle_pause(idle_rounds: u32) -> Option<Duration> {
    if idle_rounds <= IDLE_SPINS {
        return None;
    }
    let doublings = (idle_rounds - IDLE_SPINS - 1).min(7);
    Some(
        IDLE_SLEEP_MIN
            .saturating_mul(1 << doublings)
            .min(IDLE_SLEEP_MAX),
    )
}

impl IdleBackoff {
    fn reset(&mut self) {
        self.idle_rounds = 0;
    }

    fn wait(&mut self) {
        self.idle_rounds = self.idle_rounds.saturating_add(1);
        match idle_pause(self.idle_rounds) {
            None => std::thread::yield_now(),
            Some(pause) => std::thread::sleep(pause),
        }
    }
}

/// A running TCP ingress: the listener, its acceptor thread and the
/// [`PlanService`] behind them.
#[derive(Debug)]
pub struct TcpIngress {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<ServiceStats>>,
}

impl TcpIngress {
    /// Binds `addr`, starts a [`PlanService`] for `cluster` and spawns the
    /// acceptor thread. Bind to port 0 to let the OS pick
    /// (see [`Self::local_addr`]).
    ///
    /// # Errors
    ///
    /// Any socket error while binding.
    pub fn bind(
        addr: impl ToSocketAddrs,
        cluster: impl Into<Arc<ClusterSpec>>,
        config: ServiceConfig,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let (service, completions) = PlanService::start(cluster, config);
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("spindle-ingress".to_string())
            .spawn(move || serve(&listener, service, &completions, &stop_flag))
            .expect("spawning the ingress acceptor thread");
        Ok(Self {
            addr,
            stop,
            handle: Some(handle),
        })
    }

    /// The address the listener is bound to.
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the ingress: the service drains every accepted event, open
    /// connections receive their remaining re-plans plus a final
    /// [`Response::Stats`], and the acceptor thread exits. Returns the
    /// final counters.
    pub fn shutdown(mut self) -> ServiceStats {
        self.stop.store(true, Ordering::Release);
        self.handle
            .take()
            .and_then(|h| h.join().ok())
            .unwrap_or_default()
    }
}

impl Drop for TcpIngress {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// One client connection's state inside the acceptor loop.
#[derive(Debug)]
struct Conn {
    stream: TcpStream,
    decoder: FrameDecoder,
    /// Bytes queued for writing; drained opportunistically (`WouldBlock`
    /// keeps the remainder).
    outbuf: Vec<u8>,
    /// Offset of the unwritten suffix of `outbuf`.
    written: usize,
    hello_done: bool,
    /// Marked on protocol violations and IO errors; the connection closes
    /// after a final flush.
    dead: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> std::io::Result<Self> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true)?;
        Ok(Self {
            stream,
            decoder: FrameDecoder::new(),
            outbuf: Vec::new(),
            written: 0,
            hello_done: false,
            dead: false,
        })
    }

    /// Reads everything currently available; returns `true` if any byte
    /// arrived.
    fn pump_reads(&mut self) -> bool {
        let mut chunk = [0u8; 16 * 1024];
        let mut any = false;
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.dead = true;
                    return any;
                }
                Ok(n) => {
                    self.decoder.extend(&chunk[..n]);
                    any = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return any,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    return any;
                }
            }
        }
    }

    fn queue(&mut self, response: &Response) {
        self.outbuf.extend_from_slice(&response.encode());
    }

    /// Writes as much of the out-buffer as the socket takes right now.
    fn flush(&mut self) -> bool {
        let mut any = false;
        while self.written < self.outbuf.len() {
            match self.stream.write(&self.outbuf[self.written..]) {
                Ok(0) => {
                    self.dead = true;
                    break;
                }
                Ok(n) => {
                    self.written += n;
                    any = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    break;
                }
            }
        }
        if self.written == self.outbuf.len() && self.written > 0 {
            self.outbuf.clear();
            self.written = 0;
        }
        any
    }

    /// Final delivery for a dying or closing connection: block until the
    /// out-buffer is on the wire (errors just abandon the remainder).
    fn flush_blocking(&mut self) {
        if self.written >= self.outbuf.len() {
            return;
        }
        if self.stream.set_nonblocking(false).is_ok() {
            let _ = self.stream.write_all(&self.outbuf[self.written..]);
        }
        self.outbuf.clear();
        self.written = 0;
    }

    /// Whether this connection can be reaped.
    fn finished(&self) -> bool {
        self.dead && self.written >= self.outbuf.len()
    }
}

/// Converts a worker completion into its wire form.
fn plan_ready(done: &Completion) -> Response {
    Response::PlanReady {
        tenant: done.tenant,
        outcome: done
            .result
            .as_ref()
            .map(ReplanSummary::of)
            .unwrap_or_default(),
        error: done.result.as_ref().err().map(ToString::to_string),
        topology_change: done.topology_change,
        coalesced: done.coalesced as u32,
        queue_wait_ns: done.queue_wait.as_nanos() as u64,
        plan_time_ns: done.plan_time.as_nanos() as u64,
    }
}

/// Delivers `done` to the connection of its tenant's latest submitter (a
/// vanished connection just drops the frame — the work is already counted).
fn route(done: &Completion, conns: &mut [Option<Conn>], owner: &HashMap<u64, usize>) {
    let Some(&idx) = owner.get(&done.tenant) else {
        return;
    };
    if let Some(conn) = conns.get_mut(idx).and_then(Option::as_mut) {
        if !conn.dead {
            conn.queue(&plan_ready(done));
        }
    }
}

/// Handles one decoded request on `conn`. Returns `true` when the client
/// asked the whole ingress to shut down.
fn handle_request(
    request: Request,
    conn: &mut Conn,
    idx: usize,
    service: &PlanService,
    owner: &mut HashMap<u64, usize>,
) -> bool {
    if !conn.hello_done && !matches!(request, Request::Hello { .. }) {
        conn.queue(&Response::Error {
            code: ErrorCode::HelloRequired,
            message: "first frame must be Hello".to_string(),
        });
        conn.dead = true;
        return false;
    }
    match request {
        Request::Hello { proto_version } => {
            if proto_version == PROTO_VERSION {
                conn.hello_done = true;
                conn.queue(&Response::HelloAck {
                    proto_version: PROTO_VERSION,
                });
            } else {
                conn.queue(&Response::Error {
                    code: ErrorCode::UnsupportedVersion,
                    message: format!("server speaks version {PROTO_VERSION}, not {proto_version}"),
                });
                conn.dead = true;
            }
        }
        Request::SubmitGraph { tenant, graph } => {
            // Latest submitter wins the tenant's completion stream.
            owner.insert(tenant, idx);
            match service.submit(tenant, graph) {
                Ok(()) => conn.queue(&Response::Accepted { tenant }),
                Err(SubmitError::QueueFull { retry_hint }) => conn.queue(&Response::Rejected {
                    tenant,
                    retry_hint_ns: retry_hint.as_nanos() as u64,
                    throttled: false,
                }),
                Err(SubmitError::Throttled { retry_hint }) => conn.queue(&Response::Rejected {
                    tenant,
                    retry_hint_ns: retry_hint.as_nanos() as u64,
                    throttled: true,
                }),
                Err(SubmitError::WorkerGone) => conn.queue(&Response::Error {
                    code: ErrorCode::Unavailable,
                    message: "no worker is alive".to_string(),
                }),
            }
        }
        Request::Topology { removed, restored } => {
            match service.submit_topology(&removed, &restored) {
                Ok(workers) => conn.queue(&Response::TopologyAck {
                    workers: workers as u32,
                }),
                Err(_) => conn.queue(&Response::Error {
                    code: ErrorCode::Unavailable,
                    message: "no worker is alive".to_string(),
                }),
            }
        }
        Request::Stats => conn.queue(&Response::Stats(service.stats())),
        Request::Shutdown => return true,
    }
    false
}

/// The acceptor loop: runs until the owner's stop flag or a client
/// `Shutdown`, then drains the service and returns the final stats.
fn serve(
    listener: &TcpListener,
    service: PlanService,
    completions: &Receiver<Completion>,
    stop: &AtomicBool,
) -> ServiceStats {
    let mut conns: Vec<Option<Conn>> = Vec::new();
    let mut owner: HashMap<u64, usize> = HashMap::new();
    let mut shutdown_requested = false;
    let mut idle = IdleBackoff::default();
    while !shutdown_requested && !stop.load(Ordering::Acquire) {
        let mut progressed = false;
        // Accept whatever is pending.
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    if let Ok(conn) = Conn::new(stream) {
                        progressed = true;
                        match conns.iter().position(Option::is_none) {
                            Some(slot) => conns[slot] = Some(conn),
                            None => conns.push(Some(conn)),
                        }
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(_) => break,
            }
        }
        // Pump every connection: reads, frames, writes.
        for (idx, slot) in conns.iter_mut().enumerate() {
            let Some(mut conn) = slot.take() else {
                continue;
            };
            progressed |= conn.pump_reads();
            while !conn.dead && !shutdown_requested {
                match conn.decoder.next_frame() {
                    Ok(Some(payload)) => {
                        progressed = true;
                        match Request::decode(&payload) {
                            Ok(request) => {
                                shutdown_requested |=
                                    handle_request(request, &mut conn, idx, &service, &mut owner);
                            }
                            Err(e) => {
                                conn.queue(&Response::Error {
                                    code: ErrorCode::Malformed,
                                    message: e.to_string(),
                                });
                                conn.dead = true;
                            }
                        }
                    }
                    Ok(None) => break,
                    Err(e) => {
                        // Unframeable stream (oversized prefix): this
                        // connection is done, the workers never noticed.
                        conn.queue(&Response::Error {
                            code: ErrorCode::Malformed,
                            message: e.to_string(),
                        });
                        conn.dead = true;
                    }
                }
            }
            progressed |= conn.flush();
            if conn.dead {
                conn.flush_blocking();
            }
            if !conn.finished() {
                *slot = Some(conn);
            }
        }
        // Route finished re-plans back to their tenants' connections.
        while let Ok(done) = completions.try_recv() {
            progressed = true;
            route(&done, &mut conns, &owner);
        }
        if progressed {
            idle.reset();
        } else {
            idle.wait();
        }
    }
    // Drain: the service plans every accepted event before its workers
    // exit; dropping it disconnects the completion channel, so the loop
    // below terminates with nothing lost.
    let stats = service.shutdown();
    for done in completions.iter() {
        route(&done, &mut conns, &owner);
    }
    let final_stats = Response::Stats(stats);
    for conn in conns.iter_mut().flatten() {
        if !conn.dead {
            conn.queue(&final_stats);
        }
        conn.flush_blocking();
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_pause_spins_then_escalates_to_the_cap() {
        for round in 0..=IDLE_SPINS {
            assert_eq!(idle_pause(round), None, "round {round} should yield");
        }
        assert_eq!(idle_pause(IDLE_SPINS + 1), Some(IDLE_SLEEP_MIN));
        let mut last = Duration::ZERO;
        for round in IDLE_SPINS + 1..IDLE_SPINS + 64 {
            let pause = idle_pause(round).expect("past the yield burst");
            assert!(pause >= IDLE_SLEEP_MIN && pause <= IDLE_SLEEP_MAX);
            assert!(
                pause >= last,
                "round {round}: {pause:?} shrank from {last:?}"
            );
            last = pause;
        }
        assert_eq!(last, IDLE_SLEEP_MAX, "escalation must reach the cap");
        assert_eq!(idle_pause(u32::MAX), Some(IDLE_SLEEP_MAX));
    }

    #[test]
    fn progress_resets_the_escalation() {
        let mut idle = IdleBackoff {
            idle_rounds: IDLE_SPINS + 32,
        };
        idle.reset();
        assert_eq!(idle.idle_rounds, 0);
        idle.wait();
        assert_eq!(idle.idle_rounds, 1);
    }
}
