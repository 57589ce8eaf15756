//! Transport-agnostic client API over the planning service.
//!
//! [`ServiceApi`] is the one interface load generators and tests drive:
//! [`LocalClient`] backs it with an in-process [`PlanService`] (the fast
//! path — no serialization at all), [`TcpClient`] with a framed connection
//! to a [`TcpIngress`](crate::TcpIngress). Both deliver
//! [`ApiCompletion`]s whose [`ReplanSummary`] carries a plan fingerprint,
//! so a caller can replay the same trace over both transports and assert
//! bit-identical plans — the transport-equivalence proof `loadgen` runs on
//! every invocation.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::mpsc::Receiver;
use std::sync::Arc;
use std::time::{Duration, Instant};

use spindle_cluster::{ClusterSpec, DeviceId};
use spindle_graph::ComputationGraph;

use crate::proto::{FrameDecoder, ReplanSummary, Request, Response, PROTO_VERSION};
use crate::{Completion, PlanService, ServiceConfig, ServiceStats, SubmitError};

/// One finished re-plan as seen through a [`ServiceApi`] transport.
#[derive(Debug, Clone)]
pub struct ApiCompletion {
    /// The tenant that was re-planned.
    pub tenant: u64,
    /// The plan summary, or the planning error rendered as a string (the
    /// wire cannot carry a structured [`PlanError`](spindle_core::PlanError)).
    pub result: Result<ReplanSummary, String>,
    /// `true` when triggered by a topology change.
    pub topology_change: bool,
    /// Churn events folded into this re-plan.
    pub coalesced: usize,
    /// Queue wait of the oldest folded event.
    pub queue_wait: Duration,
    /// Planning time.
    pub plan_time: Duration,
}

impl ApiCompletion {
    /// End-to-end latency of the oldest folded event: queue wait plus
    /// planning time. Comparable across transports — both measure it on the
    /// service side.
    #[must_use]
    pub fn total_latency(&self) -> Duration {
        self.queue_wait + self.plan_time
    }
}

impl From<Completion> for ApiCompletion {
    fn from(done: Completion) -> Self {
        Self {
            tenant: done.tenant,
            result: done
                .result
                .as_ref()
                .map(ReplanSummary::of)
                .map_err(ToString::to_string),
            topology_change: done.topology_change,
            coalesced: done.coalesced,
            queue_wait: done.queue_wait,
            plan_time: done.plan_time,
        }
    }
}

/// The uniform client interface over the planning service, implemented by
/// both transports. Drive a replay through this trait and the same code
/// exercises the in-process fast path and the TCP ingress.
pub trait ServiceApi {
    /// Submits a churn event for `tenant`. Non-blocking on the service side:
    /// acceptance means the event is queued, and its re-plan arrives later
    /// via [`Self::poll_completion`].
    ///
    /// # Errors
    ///
    /// [`SubmitError::QueueFull`] under backpressure,
    /// [`SubmitError::Throttled`] when the tenant's quota is exhausted, or
    /// [`SubmitError::WorkerGone`] when the service (or the connection to
    /// it) is gone.
    fn submit(&mut self, tenant: u64, graph: &Arc<ComputationGraph>) -> Result<(), SubmitError>;

    /// Broadcasts a cluster topology change, returning the number of
    /// workers notified.
    ///
    /// # Errors
    ///
    /// [`SubmitError::WorkerGone`] when no worker (or no connection) is
    /// alive to apply it.
    fn submit_topology(
        &mut self,
        removed: &[DeviceId],
        restored: &[DeviceId],
    ) -> Result<usize, SubmitError>;

    /// Waits up to `timeout` for the next finished re-plan.
    fn poll_completion(&mut self, timeout: Duration) -> Option<ApiCompletion>;

    /// Shuts the service down (draining every accepted event), returning
    /// the final counters and all not-yet-polled completions.
    fn finish(self) -> (ServiceStats, Vec<ApiCompletion>)
    where
        Self: Sized;
}

/// The in-process transport: a [`PlanService`] plus its completion channel.
#[derive(Debug)]
pub struct LocalClient {
    service: PlanService,
    completions: Receiver<Completion>,
}

impl LocalClient {
    /// Starts a service for `cluster` and wraps it.
    #[must_use]
    pub fn start(cluster: impl Into<Arc<ClusterSpec>>, config: ServiceConfig) -> Self {
        let (service, completions) = PlanService::start(cluster, config);
        Self {
            service,
            completions,
        }
    }

    /// The wrapped service — e.g. to [`resize`](PlanService::resize) it
    /// mid-replay.
    #[must_use]
    pub fn service(&self) -> &PlanService {
        &self.service
    }
}

impl ServiceApi for LocalClient {
    fn submit(&mut self, tenant: u64, graph: &Arc<ComputationGraph>) -> Result<(), SubmitError> {
        self.service.submit(tenant, Arc::clone(graph))
    }

    fn submit_topology(
        &mut self,
        removed: &[DeviceId],
        restored: &[DeviceId],
    ) -> Result<usize, SubmitError> {
        self.service.submit_topology(removed, restored)
    }

    fn poll_completion(&mut self, timeout: Duration) -> Option<ApiCompletion> {
        self.completions
            .recv_timeout(timeout)
            .ok()
            .map(ApiCompletion::from)
    }

    fn finish(self) -> (ServiceStats, Vec<ApiCompletion>) {
        // `shutdown` drains the workers and drops the service — and with it
        // the retained completion sender — so the drain below terminates.
        let stats = self.service.shutdown();
        let rest = self.completions.iter().map(ApiCompletion::from).collect();
        (stats, rest)
    }
}

/// The framed-TCP transport: one blocking connection to a
/// [`TcpIngress`](crate::TcpIngress).
#[derive(Debug)]
pub struct TcpClient {
    stream: TcpStream,
    decoder: FrameDecoder,
    /// Completions that arrived interleaved while waiting for a submit ack.
    pending: VecDeque<ApiCompletion>,
    /// The read timeout currently set on the socket, to skip redundant
    /// `setsockopt`s.
    read_timeout: Option<Duration>,
}

impl TcpClient {
    /// Connects to a [`TcpIngress`](crate::TcpIngress) and negotiates the
    /// protocol version.
    ///
    /// # Errors
    ///
    /// Any socket error, or `InvalidData` if the server rejects
    /// [`PROTO_VERSION`] or answers with a non-`HelloAck` frame.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let mut client = Self {
            stream,
            decoder: FrameDecoder::new(),
            pending: VecDeque::new(),
            read_timeout: None,
        };
        client.send(&Request::Hello {
            proto_version: PROTO_VERSION,
        })?;
        match client.next_response(None)? {
            Some(Response::HelloAck { proto_version }) if proto_version == PROTO_VERSION => {
                Ok(client)
            }
            other => Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("handshake failed: {other:?}"),
            )),
        }
    }

    fn send(&mut self, request: &Request) -> std::io::Result<()> {
        self.stream.write_all(&request.encode())
    }

    fn set_timeout(&mut self, timeout: Option<Duration>) -> std::io::Result<()> {
        // `set_read_timeout(Some(ZERO))` is an error; floor at 1 ms.
        let timeout = timeout.map(|t| t.max(Duration::from_millis(1)));
        if self.read_timeout != timeout {
            self.stream.set_read_timeout(timeout)?;
            self.read_timeout = timeout;
        }
        Ok(())
    }

    /// Reads until one full response frame is decoded. `timeout: None`
    /// blocks; `Ok(None)` means the timeout elapsed first.
    fn next_response(&mut self, timeout: Option<Duration>) -> std::io::Result<Option<Response>> {
        let deadline = timeout.map(|t| Instant::now() + t);
        let mut chunk = [0u8; 16 * 1024];
        loop {
            if let Some(payload) = self
                .decoder
                .next_frame()
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?
            {
                let response = Response::decode(&payload).map_err(|e| {
                    std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string())
                })?;
                return Ok(Some(response));
            }
            let left = match deadline {
                Some(deadline) => {
                    let left = deadline.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        return Ok(None);
                    }
                    Some(left)
                }
                None => None,
            };
            self.set_timeout(left)?;
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "server closed the connection",
                    ))
                }
                Ok(n) => self.decoder.extend(&chunk[..n]),
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    return Ok(None);
                }
                Err(e) => return Err(e),
            }
        }
    }

    fn plan_ready(response: Response) -> Option<ApiCompletion> {
        match response {
            Response::PlanReady {
                tenant,
                outcome,
                error,
                topology_change,
                coalesced,
                queue_wait_ns,
                plan_time_ns,
            } => Some(ApiCompletion {
                tenant,
                result: match error {
                    None => Ok(outcome),
                    Some(message) => Err(message),
                },
                topology_change,
                coalesced: coalesced as usize,
                queue_wait: Duration::from_nanos(queue_wait_ns),
                plan_time: Duration::from_nanos(plan_time_ns),
            }),
            _ => None,
        }
    }
}

impl ServiceApi for TcpClient {
    fn submit(&mut self, tenant: u64, graph: &Arc<ComputationGraph>) -> Result<(), SubmitError> {
        let request = Request::SubmitGraph {
            tenant,
            graph: Arc::clone(graph),
        };
        if self.send(&request).is_err() {
            return Err(SubmitError::WorkerGone);
        }
        // Responses interleave on the one stream: buffer any PlanReady that
        // arrives before our ack.
        loop {
            match self.next_response(None) {
                Ok(Some(Response::Accepted { tenant: t })) if t == tenant => return Ok(()),
                Ok(Some(Response::Rejected {
                    tenant: t,
                    retry_hint_ns,
                    throttled,
                })) if t == tenant => {
                    let retry_hint = Duration::from_nanos(retry_hint_ns);
                    return Err(if throttled {
                        SubmitError::Throttled { retry_hint }
                    } else {
                        SubmitError::QueueFull { retry_hint }
                    });
                }
                Ok(Some(done @ Response::PlanReady { .. })) => {
                    self.pending.extend(Self::plan_ready(done));
                }
                Ok(Some(_)) => continue,
                Ok(None) | Err(_) => return Err(SubmitError::WorkerGone),
            }
        }
    }

    fn submit_topology(
        &mut self,
        removed: &[DeviceId],
        restored: &[DeviceId],
    ) -> Result<usize, SubmitError> {
        let request = Request::Topology {
            removed: removed.to_vec(),
            restored: restored.to_vec(),
        };
        if self.send(&request).is_err() {
            return Err(SubmitError::WorkerGone);
        }
        loop {
            match self.next_response(None) {
                Ok(Some(Response::TopologyAck { workers })) => return Ok(workers as usize),
                Ok(Some(done @ Response::PlanReady { .. })) => {
                    self.pending.extend(Self::plan_ready(done));
                }
                Ok(Some(_)) => continue,
                Ok(None) | Err(_) => return Err(SubmitError::WorkerGone),
            }
        }
    }

    fn poll_completion(&mut self, timeout: Duration) -> Option<ApiCompletion> {
        if let Some(done) = self.pending.pop_front() {
            return Some(done);
        }
        let deadline = Instant::now() + timeout;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            match self.next_response(Some(left)) {
                Ok(Some(done @ Response::PlanReady { .. })) => return Self::plan_ready(done),
                Ok(Some(_)) => continue,
                Ok(None) | Err(_) => return None,
            }
        }
    }

    fn finish(mut self) -> (ServiceStats, Vec<ApiCompletion>) {
        let mut rest: Vec<ApiCompletion> = self.pending.drain(..).collect();
        if self.send(&Request::Shutdown).is_err() {
            return (ServiceStats::default(), rest);
        }
        // The server drains its workers, streams the remaining PlanReady
        // frames, then answers with the final Stats and closes.
        loop {
            match self.next_response(None) {
                Ok(Some(done @ Response::PlanReady { .. })) => {
                    rest.extend(Self::plan_ready(done));
                }
                Ok(Some(Response::Stats(stats))) => return (stats, rest),
                Ok(Some(_)) => continue,
                Ok(None) | Err(_) => return (ServiceStats::default(), rest),
            }
        }
    }
}
