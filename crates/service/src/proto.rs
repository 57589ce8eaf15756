//! The versioned, length-prefixed binary wire protocol of the planning
//! service.
//!
//! Every message travels as one *frame*: a little-endian `u32` payload length
//! followed by the payload, whose first byte is the message tag. The format is
//! hand-rolled (the workspace takes no serialization dependency) and strictly
//! deterministic: encoding the same value twice yields identical bytes, which
//! is what lets the load generator prove the TCP and in-process transports
//! behaviorally identical by comparing [`ReplanSummary::plan_fingerprint`]s.
//!
//! ```text
//! frame    := [len: u32 LE] [payload: len bytes]
//! payload  := [tag: u8] [body]
//! ```
//!
//! Each message is declared once: its tag and its fields in wire order. One
//! codec per field type writes and reads it, so encoding, decoding and the
//! exact encoded length ([`graph_wire_len`]) all follow from that one list.
//! Integers are little-endian; a `bool` is one byte (0 or 1); an `f64`
//! travels as its bit pattern; a string is a `u32` byte count then UTF-8; an
//! `Option` is a `bool` flag then the value; a list is a count then its
//! items, with `u8` counts for a task's modalities, `u16` for an operator's
//! params and `u32` everywhere else.
//!
//! Decoding is strict: unknown tags, truncated bodies, trailing bytes,
//! out-of-range enum values, invalid UTF-8 and frames above
//! [`MAX_FRAME_LEN`] are all [`WireError`]s — a malformed frame never reaches
//! the worker shards (the listener answers [`Response::Error`] and closes the
//! offending connection). A graph must also pass [`ComputationGraph::new`],
//! give every operator a finite, non-negative forward cost and list each of
//! its params once, so whatever decodes re-encodes to the same bytes.
//!
//! Version negotiation: a client's first message must be
//! [`Request::Hello`] carrying [`PROTO_VERSION`]; the server answers
//! [`Response::HelloAck`] or rejects the connection with
//! [`ErrorCode::UnsupportedVersion`].

use std::fmt;
use std::sync::Arc;

use spindle_cluster::DeviceId;
use spindle_core::CacheTelemetry;
pub use spindle_core::ReplanSummary;
use spindle_graph::{
    ComputationGraph, Modality, OpId, OpKind, Operator, ParamId, TaskId, TaskSpec, TensorShape,
};

use crate::ServiceStats;

/// The wire-protocol version this build speaks.
///
/// v2 extended [`ReplanSummary`] and the stats frame with recovery
/// accounting (re-materialised MetaOps, restore bytes); the layout change is
/// not decodable by v1 peers, so the version was bumped.
pub const PROTO_VERSION: u16 = 2;

/// Upper bound on a frame's payload length. Anything larger is rejected
/// before buffering — a single malformed length prefix must not make the
/// listener allocate gigabytes.
pub const MAX_FRAME_LEN: usize = 16 * 1024 * 1024;

/// Bytes of the frame length prefix.
pub const FRAME_HEADER_LEN: usize = 4;

/// Most list items a decoder reserves room for up front: a forged count must
/// not allocate ahead of the bytes that actually arrive.
const MAX_RESERVE: usize = 1024;

/// Why a frame could not be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The body ended before the value being read was complete.
    Truncated,
    /// A frame announced a payload above [`MAX_FRAME_LEN`].
    Oversized {
        /// The announced payload length.
        len: usize,
    },
    /// Bytes remained after the message was fully decoded.
    TrailingBytes {
        /// How many bytes were left over.
        extra: usize,
    },
    /// The payload's first byte is not a known message tag.
    UnknownTag(u8),
    /// An enum field carried an out-of-range value.
    BadEnum {
        /// Which enum was being decoded.
        what: &'static str,
        /// The offending wire value.
        value: u32,
    },
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// A length field exceeded the remaining body.
    BadLength,
    /// The decoded graph failed [`ComputationGraph::new`] validation, or an
    /// operator carried a non-finite or negative cost or a repeated param.
    InvalidGraph(String),
    /// A `Hello` carried a protocol version this build does not speak.
    UnsupportedVersion(u16),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Truncated => write!(f, "frame body truncated"),
            Self::Oversized { len } => {
                write!(f, "frame payload of {len} bytes exceeds {MAX_FRAME_LEN}")
            }
            Self::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after a complete message")
            }
            Self::UnknownTag(tag) => write!(f, "unknown message tag {tag:#04x}"),
            Self::BadEnum { what, value } => write!(f, "bad {what} value {value}"),
            Self::BadUtf8 => write!(f, "string field is not valid UTF-8"),
            Self::BadLength => write!(f, "length field exceeds the frame body"),
            Self::InvalidGraph(e) => write!(f, "decoded graph is invalid: {e}"),
            Self::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported protocol version {v} (this build: {PROTO_VERSION})"
                )
            }
        }
    }
}

impl std::error::Error for WireError {}

// ---------------------------------------------------------------------------
// The field codec
// ---------------------------------------------------------------------------

/// A value with one wire encoding: `put` appends it to a [`Sink`] and `take`
/// reads it back from a strict [`Reader`], field for field.
trait Wire: Sized {
    fn put(&self, out: &mut impl Sink);
    fn take(r: &mut Reader<'_>) -> Result<Self, WireError>;
}

/// Where [`Wire::put`] writes: a frame buffer, or a [`ByteCount`] that only
/// measures.
trait Sink: Sized {
    fn bytes(&mut self, bytes: &[u8]);

    /// Writes a list: its length as an `N`, then each item.
    fn list<N: Count, T: Wire>(&mut self, items: &[T]) {
        N::from_len(items.len()).put(self);
        for item in items {
            item.put(self);
        }
    }
}

impl Sink for Vec<u8> {
    fn bytes(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

/// A [`Sink`] that counts bytes instead of storing them.
struct ByteCount(usize);

impl ByteCount {
    /// The exact encoded length of `value`, without allocating.
    fn of(value: &impl Wire) -> usize {
        let mut count = Self(0);
        value.put(&mut count);
        count.0
    }
}

impl Sink for ByteCount {
    fn bytes(&mut self, bytes: &[u8]) {
        self.0 += bytes.len();
    }
}

/// An integer type a list's length is written as.
trait Count: Wire {
    /// Truncates like `as`: a list longer than its count type allows is
    /// not a valid message, and encoding must not panic on one.
    fn from_len(len: usize) -> Self;
    fn to_len(self) -> usize;
}

/// A strict reader over one frame payload.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// The next `n` bytes.
    fn bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::BadLength)?;
        if end > self.buf.len() {
            return Err(WireError::Truncated);
        }
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// Reads a list written by [`Sink::list`].
    fn list<N: Count, T: Wire>(&mut self) -> Result<Vec<T>, WireError> {
        let len = N::take(self)?.to_len();
        let mut items = Vec::with_capacity(len.min(MAX_RESERVE));
        for _ in 0..len {
            items.push(T::take(self)?);
        }
        Ok(items)
    }

    /// Asserts the payload was consumed exactly.
    fn finish(&self) -> Result<(), WireError> {
        if self.pos != self.buf.len() {
            return Err(WireError::TrailingBytes {
                extra: self.buf.len() - self.pos,
            });
        }
        Ok(())
    }
}

macro_rules! wire_uint {
    ($($int:ty),*) => {$(
        impl Wire for $int {
            fn put(&self, out: &mut impl Sink) {
                out.bytes(&self.to_le_bytes());
            }

            fn take(r: &mut Reader<'_>) -> Result<Self, WireError> {
                let bytes = r.bytes(std::mem::size_of::<$int>())?;
                Ok(<$int>::from_le_bytes(
                    bytes.try_into().expect("`Reader::bytes` returns exactly the width"),
                ))
            }
        }

        impl Count for $int {
            fn from_len(len: usize) -> Self {
                len as $int
            }

            fn to_len(self) -> usize {
                self as usize
            }
        }
    )*};
}

wire_uint!(u8, u16, u32, u64);

/// Implements [`Wire`] for a struct as the listed fields in order: the
/// wire order of a struct declared elsewhere.
macro_rules! wire_struct {
    ($name:ident { $($field:tt),* $(,)? }) => {
        impl Wire for $name {
            fn put(&self, out: &mut impl Sink) {
                $(self.$field.put(out);)*
            }

            fn take(r: &mut Reader<'_>) -> Result<Self, WireError> {
                Ok(Self { $($field: Wire::take(r)?),* })
            }
        }
    };
}

wire_struct!(TaskId { 0 });
wire_struct!(OpId { 0 });
wire_struct!(ParamId { 0 });
wire_struct!(DeviceId { 0 });

/// Declares a message enum whose variants each carry their tag, and
/// implements [`Wire`] for it as the tag, then the variant's fields in
/// order, plus the public `encode`/`decode`. A tuple variant names its one
/// field: `Stats(stats: ServiceStats)`.
macro_rules! wire_message {
    (
        $(#[$meta:meta])*
        pub enum $name:ident {
            $(
                $(#[$variant_meta:meta])*
                $tag:ident = $value:literal => $variant:ident
                    $({ $($(#[$field_meta:meta])* $field:ident: $ty:ty,)* })?
                    $(($inner:ident: $inner_ty:ty))?,
            )*
        }
    ) => {
        $(const $tag: u8 = $value;)*

        $(#[$meta])*
        pub enum $name {
            $(
                $(#[$variant_meta])*
                $variant $({ $($(#[$field_meta])* $field: $ty,)* })? $(($inner_ty))?,
            )*
        }

        impl Wire for $name {
            fn put(&self, out: &mut impl Sink) {
                match self {
                    $(Self::$variant $({ $($field),* })? $(($inner))? => {
                        $tag.put(out);
                        $($($field.put(out);)*)?
                        $($inner.put(out);)?
                    })*
                }
            }

            fn take(r: &mut Reader<'_>) -> Result<Self, WireError> {
                Ok(match u8::take(r)? {
                    $($tag => {
                        $($(let $field = Wire::take(r)?;)*)?
                        $(let $inner = Wire::take(r)?;)?
                        Self::$variant $({ $($field),* })? $(($inner))?
                    })*
                    other => return Err(WireError::UnknownTag(other)),
                })
            }
        }

        impl $name {
            /// Encodes the message as one complete frame (length prefix
            /// included).
            #[must_use]
            pub fn encode(&self) -> Vec<u8> {
                let len = ByteCount::of(self);
                debug_assert!(len <= MAX_FRAME_LEN);
                let mut out = Vec::with_capacity(FRAME_HEADER_LEN + len);
                (len as u32).put(&mut out);
                self.put(&mut out);
                out
            }

            /// Decodes a message from one frame payload (no length prefix).
            ///
            /// # Errors
            ///
            /// Any [`WireError`]: decoding is strict (see the module docs).
            pub fn decode(payload: &[u8]) -> Result<Self, WireError> {
                let mut r = Reader::new(payload);
                let message = Self::take(&mut r)?;
                r.finish()?;
                Ok(message)
            }
        }
    };
}

impl Wire for bool {
    fn put(&self, out: &mut impl Sink) {
        u8::from(*self).put(out);
    }

    fn take(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match u8::take(r)? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(WireError::BadEnum {
                what: "bool",
                value: u32::from(other),
            }),
        }
    }
}

impl Wire for f64 {
    fn put(&self, out: &mut impl Sink) {
        self.to_bits().put(out);
    }

    fn take(r: &mut Reader<'_>) -> Result<Self, WireError> {
        u64::take(r).map(f64::from_bits)
    }
}

impl Wire for String {
    fn put(&self, out: &mut impl Sink) {
        out.list::<u32, u8>(self.as_bytes());
    }

    fn take(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let len = u32::take(r)?.to_len();
        let bytes = r.bytes(len).map_err(|_| WireError::BadLength)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::BadUtf8)
    }
}

impl<T: Wire> Wire for Option<T> {
    fn put(&self, out: &mut impl Sink) {
        self.is_some().put(out);
        if let Some(value) = self {
            value.put(out);
        }
    }

    fn take(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(if bool::take(r)? {
            Some(T::take(r)?)
        } else {
            None
        })
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn put(&self, out: &mut impl Sink) {
        self.0.put(out);
        self.1.put(out);
    }

    fn take(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok((A::take(r)?, B::take(r)?))
    }
}

impl<T: Wire> Wire for Arc<T> {
    fn put(&self, out: &mut impl Sink) {
        (**self).put(out);
    }

    fn take(r: &mut Reader<'_>) -> Result<Self, WireError> {
        T::take(r).map(Arc::new)
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn put(&self, out: &mut impl Sink) {
        out.list::<u32, T>(self);
    }

    fn take(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.list::<u32, T>()
    }
}

/// Stable numeric error codes carried by [`Response::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
pub enum ErrorCode {
    /// The frame could not be decoded (any [`WireError`] except version
    /// mismatch). The connection is closed after this error.
    Malformed = 1,
    /// The `Hello` version is not supported. The connection is closed.
    UnsupportedVersion = 2,
    /// A request arrived before the connection's `Hello`. Closed.
    HelloRequired = 3,
    /// The submitted graph failed validation.
    InvalidGraph = 4,
    /// The service rejected the request (worker gone / shutting down).
    Unavailable = 5,
    /// An unexpected server-side failure.
    Internal = 6,
}

impl Wire for ErrorCode {
    fn put(&self, out: &mut impl Sink) {
        (*self as u16).put(out);
    }

    fn take(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let value = u16::take(r)?;
        [
            Self::Malformed,
            Self::UnsupportedVersion,
            Self::HelloRequired,
            Self::InvalidGraph,
            Self::Unavailable,
            Self::Internal,
        ]
        .into_iter()
        .find(|&code| code as u16 == value)
        .ok_or(WireError::BadEnum {
            what: "error code",
            value: u32::from(value),
        })
    }
}

// ---------------------------------------------------------------------------
// Messages
// ---------------------------------------------------------------------------

wire_message! {
    /// A client-to-server message.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Request {
        /// Version negotiation; must be the first message of every connection.
        TAG_HELLO = 0x01 => Hello {
            /// The protocol version the client speaks.
            proto_version: u16,
        },
        /// A churn event: `tenant`'s task mix became `graph`.
        TAG_SUBMIT_GRAPH = 0x02 => SubmitGraph {
            /// The tenant whose task mix changed.
            tenant: u64,
            /// The tenant's new computation graph.
            graph: Arc<ComputationGraph>,
        },
        /// A cluster topology change, broadcast to every worker.
        TAG_TOPOLOGY = 0x03 => Topology {
            /// Devices that left the pool.
            removed: Vec<DeviceId>,
            /// Devices that rejoined the pool.
            restored: Vec<DeviceId>,
        },
        /// Request a [`Response::Stats`] snapshot.
        TAG_STATS = 0x04 => Stats,
        /// Drain and stop the service; the server answers with any remaining
        /// [`Response::PlanReady`] frames followed by a final
        /// [`Response::Stats`].
        TAG_SHUTDOWN = 0x05 => Shutdown,
    }
}

wire_message! {
    /// A server-to-client message.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Response {
        /// `Hello` accepted; the server speaks `proto_version`.
        TAG_HELLO_ACK = 0x81 => HelloAck {
            /// The version the server will use on this connection.
            proto_version: u16,
        },
        /// A `SubmitGraph` was accepted onto its tenant's worker queue. The
        /// re-plan itself arrives later as [`Response::PlanReady`].
        TAG_ACCEPTED = 0x82 => Accepted {
            /// The tenant whose submission was accepted.
            tenant: u64,
        },
        /// One finished re-plan (the wire form of a
        /// [`Completion`](crate::Completion)).
        TAG_PLAN_READY = 0x83 => PlanReady {
            /// The tenant that was re-planned.
            tenant: u64,
            /// Summary of the produced plan; empty/default fields with
            /// `error != None` mean the re-plan failed.
            outcome: ReplanSummary,
            /// Planning error message, if the re-plan failed.
            error: Option<String>,
            /// `true` when triggered by a topology change.
            topology_change: bool,
            /// Churn events folded into this re-plan.
            coalesced: u32,
            /// Queue wait of the oldest folded event, nanoseconds.
            queue_wait_ns: u64,
            /// Planning time, nanoseconds.
            plan_time_ns: u64,
        },
        /// A `SubmitGraph` was rejected by backpressure or a tenant quota.
        TAG_REJECTED = 0x84 => Rejected {
            /// The tenant whose submission was rejected.
            tenant: u64,
            /// Suggested backoff before retrying, nanoseconds.
            retry_hint_ns: u64,
            /// `true` when a per-tenant fairness quota (not queue depth)
            /// rejected the submission.
            throttled: bool,
        },
        /// Service-wide counter snapshot.
        TAG_STATS_REPLY = 0x85 => Stats(stats: ServiceStats),
        /// A `Topology` change was broadcast to `workers` workers.
        TAG_TOPOLOGY_ACK = 0x86 => TopologyAck {
            /// Workers notified of the change.
            workers: u32,
        },
        /// A request failed; for [`ErrorCode::Malformed`],
        /// [`ErrorCode::UnsupportedVersion`] and [`ErrorCode::HelloRequired`]
        /// the server closes the connection after sending this.
        TAG_ERROR = 0x87 => Error {
            /// Stable numeric code.
            code: ErrorCode,
            /// Human-readable detail.
            message: String,
        },
    }
}

wire_struct!(ServiceStats {
    submitted,
    rejected,
    throttled,
    replans,
    topology_replans,
    errors,
    plan_nanos,
    rematerialized_metaops,
    restore_bytes,
});

// `ReplanSummary` is declared in `spindle-core`; this is its wire layout.
wire_struct!(ReplanSummary {
    makespan_bits,
    num_waves,
    plan_fingerprint,
    new_curve_fits,
    cache_hits,
    warm,
    levels_total,
    levels_reused,
    placement_reused,
    cache,
    devices_lost,
    levels_replaced,
    migration_bytes,
    migration_cost_bits,
    rematerialized_metaops,
    restore_bytes,
});

impl Wire for CacheTelemetry {
    fn put(&self, out: &mut impl Sink) {
        (self.bytes as u64).put(out);
        self.evictions.put(out);
    }

    fn take(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Self {
            bytes: u64::take(r)? as usize,
            evictions: u64::take(r)?,
        })
    }
}

// ---------------------------------------------------------------------------
// Graphs
// ---------------------------------------------------------------------------

impl Wire for Modality {
    fn put(&self, out: &mut impl Sink) {
        let tag = Modality::ALL
            .iter()
            .position(|m| m == self)
            .expect("Modality::ALL covers every modality");
        (tag as u8).put(out);
    }

    fn take(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let tag = u8::take(r)?;
        Modality::ALL
            .get(usize::from(tag))
            .copied()
            .ok_or(WireError::BadEnum {
                what: "modality",
                value: u32::from(tag),
            })
    }
}

/// The op kinds that carry no modality, in tag order from 2; `Encoder` (0)
/// and `Adaptor` (1) carry one after their tag.
const PLAIN_KINDS: [OpKind; 7] = [
    OpKind::LmEncoder,
    OpKind::LmDecoder,
    OpKind::LmDecoderOnly,
    OpKind::Embedding,
    OpKind::Projection,
    OpKind::ContrastiveLoss,
    OpKind::GenerativeLoss,
];

impl Wire for OpKind {
    fn put(&self, out: &mut impl Sink) {
        match *self {
            OpKind::Encoder(m) => (0u8, m).put(out),
            OpKind::Adaptor(m) => (1u8, m).put(out),
            kind => {
                let at = PLAIN_KINDS
                    .iter()
                    .position(|&k| k == kind)
                    .expect("this protocol version covers every OpKind");
                (2 + at as u8).put(out);
            }
        }
    }

    fn take(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match u8::take(r)? {
            0 => Modality::take(r).map(OpKind::Encoder),
            1 => Modality::take(r).map(OpKind::Adaptor),
            tag => PLAIN_KINDS
                .get(usize::from(tag) - 2)
                .copied()
                .ok_or(WireError::BadEnum {
                    what: "op kind",
                    value: u32::from(tag),
                }),
        }
    }
}

impl Wire for TaskSpec {
    fn put(&self, out: &mut impl Sink) {
        self.id().put(out);
        // The `String` encoding of the name, without copying it.
        out.list::<u32, u8>(self.name().as_bytes());
        out.list::<u8, Modality>(self.modalities());
        self.batch_size().put(out);
    }

    fn take(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let id = TaskId::take(r)?;
        let name = String::take(r)?;
        let modalities = r.list::<u8, Modality>()?;
        Ok(TaskSpec::new(id, name, modalities, u32::take(r)?))
    }
}

impl Wire for Operator {
    fn put(&self, out: &mut impl Sink) {
        self.id().put(out);
        self.kind().put(out);
        self.task().put(out);
        let shape = self.input_shape();
        shape.batch.put(out);
        shape.seq.put(out);
        shape.hidden.put(out);
        self.flops_forward().put(out);
        self.param_bytes().put(out);
        self.output_bytes().put(out);
        out.list::<u16, ParamId>(self.params());
    }

    fn take(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let id = OpId::take(r)?;
        let kind = OpKind::take(r)?;
        let task = TaskId::take(r)?;
        let shape = TensorShape::new(u32::take(r)?, u32::take(r)?, u32::take(r)?);
        let flops_forward = f64::take(r)?;
        // No schedule prices a NaN or infinite cost: NaN plans to a 0 s
        // makespan.
        if !(flops_forward.is_finite() && flops_forward >= 0.0) {
            return Err(WireError::InvalidGraph(format!(
                "operator {id} has forward cost {flops_forward}"
            )));
        }
        let (param_bytes, output_bytes) = (u64::take(r)?, u64::take(r)?);
        let mut op = Operator::new(id, kind, task, shape).with_costs(
            flops_forward,
            param_bytes,
            output_bytes,
        );
        // The `u16` list of params, attached as read rather than collected.
        for _ in 0..u16::take(r)? {
            let param = ParamId::take(r)?;
            // `with_param` folds a repeat, which would re-encode differently.
            if op.params().contains(&param) {
                return Err(WireError::InvalidGraph(format!(
                    "operator {id} lists param {param} twice"
                )));
            }
            op = op.with_param(param);
        }
        Ok(op)
    }
}

impl Wire for ComputationGraph {
    fn put(&self, out: &mut impl Sink) {
        out.list::<u32, TaskSpec>(self.tasks());
        out.list::<u32, Operator>(self.ops());
        out.list::<u32, (OpId, OpId)>(self.edges());
    }

    fn take(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let tasks = r.list::<u32, TaskSpec>()?;
        let ops = r.list::<u32, Operator>()?;
        let edges = r.list::<u32, (OpId, OpId)>()?;
        Self::new(ops, edges, tasks).map_err(|e| WireError::InvalidGraph(e.to_string()))
    }
}

/// Exact length of `graph`'s encoding inside a [`Request::SubmitGraph`],
/// measured without allocating. Used as the byte cost of a submission under
/// per-tenant byte quotas — both transports charge the same figure.
#[must_use]
pub fn graph_wire_len(graph: &ComputationGraph) -> usize {
    ByteCount::of(graph)
}

// ---------------------------------------------------------------------------
// Incremental frame decoding
// ---------------------------------------------------------------------------

/// Reassembles frames from an arbitrary-chunked byte stream.
///
/// Both ends of a nonblocking connection feed whatever bytes `read` produced
/// into [`FrameDecoder::extend`] and pull complete frame payloads out of
/// [`FrameDecoder::next_frame`] — partial frames simply stay buffered until
/// the rest arrives. An oversized length prefix is rejected as soon as the
/// four header bytes are in, before any payload is buffered.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Consumed prefix of `buf`; compacted opportunistically.
    start: usize,
}

impl FrameDecoder {
    /// Creates an empty decoder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds freshly read bytes into the decoder.
    pub fn extend(&mut self, bytes: &[u8]) {
        // Compact before growing: keeps the buffer bounded by the largest
        // in-flight frame instead of the connection's lifetime traffic.
        if self.start > 0 {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Pops the next complete frame payload, if one is buffered.
    ///
    /// # Errors
    ///
    /// [`WireError::Oversized`] when a frame announces a payload above
    /// [`MAX_FRAME_LEN`]; the decoder is poisoned for the connection (the
    /// caller must close it — the stream can no longer be framed).
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, WireError> {
        let avail = &self.buf[self.start..];
        if avail.len() < FRAME_HEADER_LEN {
            return Ok(None);
        }
        let len = u32::from_le_bytes(avail[..FRAME_HEADER_LEN].try_into().unwrap()) as usize;
        if len > MAX_FRAME_LEN {
            return Err(WireError::Oversized { len });
        }
        if avail.len() < FRAME_HEADER_LEN + len {
            return Ok(None);
        }
        let payload = avail[FRAME_HEADER_LEN..FRAME_HEADER_LEN + len].to_vec();
        self.start += FRAME_HEADER_LEN + len;
        Ok(Some(payload))
    }

    /// Bytes currently buffered (partial frame waiting for more input).
    #[must_use]
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spindle_graph::{GraphBuilder, XorShift64Star};

    /// A seeded random-but-valid graph: a chain per task with varying kinds,
    /// shapes, overridden costs and shared params — exercising every field of
    /// the wire format.
    fn random_graph(rng: &mut XorShift64Star) -> ComputationGraph {
        let mut b = GraphBuilder::new();
        let num_tasks = 1 + (rng.next_u64() % 3) as usize;
        for t in 0..num_tasks {
            let m = Modality::ALL[(rng.next_u64() % 9) as usize];
            let batch = 1 + (rng.next_u64() % 32) as u32;
            let task = b.add_task(format!("task-{t}"), [m, Modality::Text], batch);
            let layers = 1 + (rng.next_u64() % 5) as usize;
            let chain = b
                .add_op_chain(
                    task,
                    OpKind::Encoder(m),
                    TensorShape::new(batch, m.typical_sequence_length(), 768),
                    layers,
                )
                .unwrap();
            let loss = b
                .add_op(
                    task,
                    OpKind::ContrastiveLoss,
                    TensorShape::new(batch, 1, 768),
                )
                .unwrap();
            b.add_flow(*chain.last().unwrap(), loss).unwrap();
        }
        b.build().unwrap()
    }

    fn roundtrip_request(request: &Request) {
        let bytes = request.encode();
        let mut decoder = FrameDecoder::new();
        decoder.extend(&bytes);
        let payload = decoder.next_frame().unwrap().expect("complete frame");
        let decoded = Request::decode(&payload).unwrap();
        assert_eq!(
            decoded.encode(),
            bytes,
            "re-encoding a decoded request must be bit-identical"
        );
    }

    #[test]
    fn requests_roundtrip_bit_identically_under_seeded_draws() {
        let mut rng = XorShift64Star::new(0x5EED);
        for round in 0..24 {
            let graph = Arc::new(random_graph(&mut rng));
            roundtrip_request(&Request::SubmitGraph {
                tenant: rng.next_u64(),
                graph,
            });
            let removed: Vec<DeviceId> = (0..(rng.next_u64() % 4))
                .map(|_| DeviceId((rng.next_u64() % 64) as u32))
                .collect();
            let restored: Vec<DeviceId> = (0..(rng.next_u64() % 4))
                .map(|_| DeviceId((rng.next_u64() % 64) as u32))
                .collect();
            roundtrip_request(&Request::Topology { removed, restored });
            roundtrip_request(&Request::Hello {
                proto_version: (rng.next_u64() % 8) as u16,
            });
            roundtrip_request(&Request::Stats);
            roundtrip_request(&Request::Shutdown);
            assert!(round < 24);
        }
    }

    #[test]
    fn decoded_graphs_are_semantically_identical() {
        let mut rng = XorShift64Star::new(0xBEEF);
        for _ in 0..16 {
            let graph = random_graph(&mut rng);
            let mut bytes = Vec::new();
            graph.put(&mut bytes);
            assert_eq!(bytes.len(), graph_wire_len(&graph), "length oracle drifts");
            let mut r = Reader::new(&bytes);
            let decoded = ComputationGraph::take(&mut r).unwrap();
            r.finish().unwrap();
            assert_eq!(decoded.ops(), graph.ops());
            assert_eq!(decoded.edges(), graph.edges());
            assert_eq!(decoded.tasks(), graph.tasks());
        }
    }

    #[test]
    fn responses_roundtrip_bit_identically_under_seeded_draws() {
        let mut rng = XorShift64Star::new(0xFACE);
        for _ in 0..32 {
            let summary = ReplanSummary {
                makespan_bits: rng.next_u64(),
                num_waves: (rng.next_u64() % 1000) as u32,
                plan_fingerprint: rng.next_u64(),
                new_curve_fits: (rng.next_u64() % 100) as u32,
                cache_hits: (rng.next_u64() % 100) as u32,
                warm: rng.next_u64() % 2 == 0,
                levels_total: (rng.next_u64() % 40) as u32,
                levels_reused: (rng.next_u64() % 40) as u32,
                placement_reused: rng.next_u64() % 2 == 0,
                cache: CacheTelemetry {
                    bytes: (rng.next_u64() % (1 << 30)) as usize,
                    evictions: rng.next_u64() % 1000,
                },
                devices_lost: (rng.next_u64() % 8) as u32,
                levels_replaced: (rng.next_u64() % 40) as u32,
                migration_bytes: rng.next_u64(),
                migration_cost_bits: rng.next_u64(),
                rematerialized_metaops: (rng.next_u64() % 64) as u32,
                restore_bytes: rng.next_u64(),
            };
            let responses = [
                Response::HelloAck {
                    proto_version: (rng.next_u64() % 4) as u16,
                },
                Response::Accepted {
                    tenant: rng.next_u64(),
                },
                Response::PlanReady {
                    tenant: rng.next_u64(),
                    outcome: summary,
                    error: if rng.next_u64() % 2 == 0 {
                        None
                    } else {
                        Some("planner failed".to_string())
                    },
                    topology_change: rng.next_u64() % 2 == 0,
                    coalesced: 1 + (rng.next_u64() % 12) as u32,
                    queue_wait_ns: rng.next_u64(),
                    plan_time_ns: rng.next_u64(),
                },
                Response::Rejected {
                    tenant: rng.next_u64(),
                    retry_hint_ns: rng.next_u64(),
                    throttled: rng.next_u64() % 2 == 0,
                },
                Response::Stats(ServiceStats {
                    submitted: rng.next_u64(),
                    rejected: rng.next_u64(),
                    throttled: rng.next_u64(),
                    replans: rng.next_u64(),
                    topology_replans: rng.next_u64(),
                    errors: rng.next_u64(),
                    plan_nanos: rng.next_u64(),
                    rematerialized_metaops: rng.next_u64(),
                    restore_bytes: rng.next_u64(),
                }),
                Response::TopologyAck {
                    workers: (rng.next_u64() % 64) as u32,
                },
                Response::Error {
                    code: ErrorCode::InvalidGraph,
                    message: "self-loop".to_string(),
                },
            ];
            for response in responses {
                let bytes = response.encode();
                let payload = &bytes[FRAME_HEADER_LEN..];
                let decoded = Response::decode(payload).unwrap();
                assert_eq!(decoded, response);
                assert_eq!(decoded.encode(), bytes);
            }
        }
    }

    #[test]
    fn truncated_frames_are_rejected() {
        let mut rng = XorShift64Star::new(1);
        let graph = Arc::new(random_graph(&mut rng));
        let bytes = Request::SubmitGraph { tenant: 1, graph }.encode();
        // Every strict prefix of the payload fails to decode.
        for cut in 1..(bytes.len() - FRAME_HEADER_LEN).min(64) {
            let payload = &bytes[FRAME_HEADER_LEN..bytes.len() - cut];
            assert!(
                Request::decode(payload).is_err(),
                "cut {cut} decoded anyway"
            );
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let bytes = Request::Stats.encode();
        let mut payload = bytes[FRAME_HEADER_LEN..].to_vec();
        payload.push(0);
        assert_eq!(
            Request::decode(&payload),
            Err(WireError::TrailingBytes { extra: 1 })
        );
    }

    #[test]
    fn unknown_tags_and_bad_enums_are_rejected() {
        assert_eq!(Request::decode(&[0x7f]), Err(WireError::UnknownTag(0x7f)));
        assert_eq!(Response::decode(&[0x00]), Err(WireError::UnknownTag(0x00)));
        // A modality tag of 200 is out of range.
        let mut payload = vec![TAG_SUBMIT_GRAPH];
        5u64.put(&mut payload);
        1u32.put(&mut payload); // one task
        0u32.put(&mut payload); // task id
        "t".to_string().put(&mut payload);
        1u8.put(&mut payload); // one modality
        200u8.put(&mut payload); // bad tag
        assert_eq!(
            Request::decode(&payload),
            Err(WireError::BadEnum {
                what: "modality",
                value: 200
            })
        );
    }

    #[test]
    fn oversized_frames_are_rejected_at_the_header() {
        let mut decoder = FrameDecoder::new();
        let bad_len = (MAX_FRAME_LEN + 1) as u32;
        decoder.extend(&bad_len.to_le_bytes());
        assert_eq!(
            decoder.next_frame(),
            Err(WireError::Oversized {
                len: MAX_FRAME_LEN + 1
            })
        );
    }

    #[test]
    fn frame_decoder_reassembles_byte_by_byte() {
        let a = Request::Hello {
            proto_version: PROTO_VERSION,
        }
        .encode();
        let b = Request::Stats.encode();
        let mut stream = a.clone();
        stream.extend_from_slice(&b);
        let mut decoder = FrameDecoder::new();
        let mut frames = Vec::new();
        for &byte in &stream {
            decoder.extend(&[byte]);
            while let Some(frame) = decoder.next_frame().unwrap() {
                frames.push(frame);
            }
        }
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0], a[FRAME_HEADER_LEN..].to_vec());
        assert_eq!(frames[1], b[FRAME_HEADER_LEN..].to_vec());
        assert_eq!(decoder.buffered(), 0);
    }

    /// Frames of seeded draws of all five request and seven response kinds.
    /// Graphs cover every op kind, params, overridden costs and non-ASCII
    /// task names; every SubmitGraph frame checks `graph_wire_len`.
    fn wire_test_frames(seed: u64, rounds: u64) -> Vec<Vec<u8>> {
        let mut rng = XorShift64Star::new(seed);
        let mut n = move |bound: u64| rng.next_u64() % bound;
        let mut frames = Vec::new();
        for round in 0..rounds {
            let tasks: Vec<TaskSpec> = (0..1 + n(3) as u32)
                .map(|t| {
                    let modalities: Vec<_> = (0..1 + n(3))
                        .map(|_| Modality::ALL[n(9) as usize])
                        .collect();
                    let batch = 1 + n(64) as u32;
                    TaskSpec::new(TaskId(t), format!("tâche-{t}"), modalities, batch)
                })
                .collect();
            let ops: Vec<Operator> = (0..1 + n(12) as u32)
                .map(|i| {
                    let m = Modality::ALL[n(9) as usize];
                    let kind = [
                        OpKind::Encoder(m),
                        OpKind::Adaptor(m),
                        OpKind::LmEncoder,
                        OpKind::LmDecoder,
                        OpKind::LmDecoderOnly,
                        OpKind::Embedding,
                        OpKind::Projection,
                        OpKind::ContrastiveLoss,
                        OpKind::GenerativeLoss,
                    ][n(9) as usize];
                    let shape = TensorShape::new(1 + n(64) as u32, 1 + n(512) as u32, 64 << n(5));
                    let task = TaskId(n(tasks.len() as u64) as u32);
                    let op = Operator::new(OpId(i), kind, task, shape);
                    let op = op.with_costs(n(1 << 40) as f64, n(1 << 40), n(1 << 30));
                    (0..n(4)).fold(op, |op, _| op.with_param(ParamId(n(8) as u32)))
                })
                .collect();
            let edges = (1..ops.len() as u32)
                .map(|dst| (OpId(n(dst.into()) as u32), OpId(dst)))
                .collect();
            let graph = Arc::new(ComputationGraph::new(ops, edges, tasks).unwrap());
            let removed = (0..n(6)).map(|_| DeviceId(n(1024) as u32)).collect();
            let restored = (0..n(6)).map(|_| DeviceId(n(1024) as u32)).collect();
            let requests = [
                Request::Hello {
                    proto_version: n(8) as u16,
                },
                Request::SubmitGraph {
                    tenant: n(u64::MAX),
                    graph: Arc::clone(&graph),
                },
                Request::Topology { removed, restored },
                Request::Stats,
                Request::Shutdown,
            ];
            // Length prefix, tag and tenant precede the graph.
            assert_eq!(requests[1].encode().len() - 13, graph_wire_len(&graph));
            let outcome = ReplanSummary {
                makespan_bits: n(u64::MAX),
                num_waves: n(1000) as u32,
                plan_fingerprint: n(u64::MAX),
                new_curve_fits: n(100) as u32,
                cache_hits: n(100) as u32,
                warm: n(2) == 0,
                levels_total: n(40) as u32,
                levels_reused: n(40) as u32,
                placement_reused: n(2) == 0,
                cache: CacheTelemetry {
                    bytes: n(1 << 30) as usize,
                    evictions: n(1000),
                },
                devices_lost: n(8) as u32,
                levels_replaced: n(40) as u32,
                migration_bytes: n(u64::MAX),
                migration_cost_bits: n(u64::MAX),
                rematerialized_metaops: n(64) as u32,
                restore_bytes: n(u64::MAX),
            };
            // A stats reply is nine `u64` counters: any 72-byte body is one.
            let stats: Vec<u8> = (0..72).map(|_| n(256) as u8).collect();
            let code = [
                ErrorCode::Malformed,
                ErrorCode::UnsupportedVersion,
                ErrorCode::HelloRequired,
                ErrorCode::InvalidGraph,
                ErrorCode::Unavailable,
                ErrorCode::Internal,
            ][n(6) as usize];
            let responses = [
                Response::HelloAck {
                    proto_version: n(4) as u16,
                },
                Response::Accepted {
                    tenant: n(u64::MAX),
                },
                Response::PlanReady {
                    tenant: n(u64::MAX),
                    outcome,
                    error: (round % 2 == 1).then(|| format!("planner failed: «{round}»")),
                    topology_change: n(2) == 0,
                    coalesced: 1 + n(12) as u32,
                    queue_wait_ns: n(u64::MAX),
                    plan_time_ns: n(u64::MAX),
                },
                Response::Rejected {
                    tenant: n(u64::MAX),
                    retry_hint_ns: n(u64::MAX),
                    throttled: n(2) == 0,
                },
                Response::decode(&[&[0x85][..], &stats].concat()).unwrap(),
                Response::TopologyAck {
                    workers: n(64) as u32,
                },
                Response::Error {
                    code,
                    message: format!("error {round}: ünïcode"),
                },
            ];
            frames.extend(requests.iter().map(Request::encode));
            frames.extend(responses.iter().map(Response::encode));
        }
        frames
    }

    /// Pins the bytes on the wire: the length and FNV-1a digest of a seeded
    /// corpus, recorded from the hand-written codec of protocol version 2.
    #[test]
    fn encoded_frames_match_the_recorded_digest() {
        let bytes = wire_test_frames(0x601D_F4A3, 48).concat();
        let digest = bytes.iter().fold(0xcbf2_9ce4_8422_2325_u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
        assert_eq!(PROTO_VERSION, 2);
        assert_eq!(
            (bytes.len(), digest),
            (36_187, 0x8ad1_77d5_bed8_1bda),
            "wire bytes moved"
        );
    }

    /// Every truncation and seeded 1–4 byte corruptions of every message
    /// kind: decoding never panics, and whatever decodes re-encodes to the
    /// exact payload it came from.
    #[test]
    fn corrupted_payloads_never_panic_and_decode_canonically() {
        let mut rng = XorShift64Star::new(0xBAD_F00D);
        for frame in wire_test_frames(0xC0DE, 6) {
            let payload = &frame[FRAME_HEADER_LEN..];
            let truncations = (0..payload.len()).map(|cut| payload[..cut].to_vec());
            let corruptions = (0..400).map(|_| {
                let mut bytes = payload.to_vec();
                for _ in 0..1 + rng.next_u64() % 4 {
                    let at = (rng.next_u64() % bytes.len() as u64) as usize;
                    bytes[at] = rng.next_u64() as u8;
                }
                bytes
            });
            for bytes in truncations.chain(corruptions) {
                let reencoded = std::panic::catch_unwind(|| match bytes.first() {
                    Some(&tag) if tag < 0x80 => Request::decode(&bytes).map(|m| m.encode()),
                    _ => Response::decode(&bytes).map(|m| m.encode()),
                })
                .unwrap_or_else(|_| panic!("decoding {bytes:02x?} panicked"));
                if let Ok(frame) = reencoded {
                    assert_eq!(&frame[FRAME_HEADER_LEN..], &bytes[..], "non-canonical");
                }
            }
        }
    }

    #[test]
    fn invalid_graphs_are_rejected_by_decode() {
        // Structurally well-formed bytes of a two-op graph, semantically
        // invalid: `ComputationGraph::new`, the one graph check, must veto a
        // self-loop, a repeated edge and a two-op cycle.
        let submit = |edges: &[(u32, u32)]| {
            let mut payload = vec![TAG_SUBMIT_GRAPH];
            9u64.put(&mut payload);
            1u32.put(&mut payload); // one task
            0u32.put(&mut payload);
            "t".to_string().put(&mut payload);
            1u8.put(&mut payload);
            0u8.put(&mut payload); // text
            8u32.put(&mut payload);
            2u32.put(&mut payload); // two ops
            for id in 0..2u32 {
                id.put(&mut payload);
                7u8.put(&mut payload); // contrastive loss
                0u32.put(&mut payload); // task
                8u32.put(&mut payload);
                1u32.put(&mut payload);
                768u32.put(&mut payload);
                1.0f64.to_bits().put(&mut payload);
                2u64.put(&mut payload);
                3u64.put(&mut payload);
                0u16.put(&mut payload); // no params
            }
            (edges.len() as u32).put(&mut payload);
            for &(from, to) in edges {
                from.put(&mut payload);
                to.put(&mut payload);
            }
            Request::decode(&payload)
        };
        assert!(submit(&[(0, 1)]).is_ok());
        for (edges, fault) in [
            (&[(0, 0)][..], "itself"),
            (&[(0, 1), (0, 1)], "duplicate edge op0 -> op1"),
            (&[(0, 1), (1, 0)], "cycle"),
        ] {
            let decoded = submit(edges);
            assert!(
                matches!(&decoded, Err(WireError::InvalidGraph(e)) if e.contains(fault)),
                "{edges:?}: {decoded:?}"
            );
        }
    }

    #[test]
    fn bad_costs_and_repeated_params_are_invalid_graphs() {
        let op = Operator::new(
            OpId(0),
            OpKind::Projection,
            TaskId(0),
            TensorShape::new(8, 1, 64),
        )
        .with_costs(1.0, 2, 3)
        .with_param(ParamId(1))
        .with_param(ParamId(2));
        let task = TaskSpec::new(TaskId(0), "t", [Modality::Text], 8);
        let mut valid = Vec::new();
        ComputationGraph::new(vec![op], vec![], vec![task])
            .unwrap()
            .put(&mut valid);
        assert!(ComputationGraph::take(&mut Reader::new(&valid)).is_ok());
        // The graph ends with the op's flops, param and output bytes, its
        // two params (a `u16` count and two ids) and an empty edge list.
        let end = valid.len() - 4;
        let flops = end - 8 - 2 - 16 - 8;
        let mut bad = vec![valid; 4];
        bad[0][flops..flops + 8].copy_from_slice(&f64::NAN.to_le_bytes());
        bad[1][flops..flops + 8].copy_from_slice(&(-1.0f64).to_le_bytes());
        bad[2][flops..flops + 8].copy_from_slice(&f64::INFINITY.to_le_bytes());
        bad[3][end - 4..end].copy_from_slice(&1u32.to_le_bytes());
        for bytes in bad {
            let decoded = ComputationGraph::take(&mut Reader::new(&bytes));
            assert!(
                matches!(decoded, Err(WireError::InvalidGraph(_))),
                "{decoded:?}"
            );
        }
    }
}
