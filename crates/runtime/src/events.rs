//! Event-queue plumbing for the discrete-event simulator: an indexed binary
//! heap with deterministic tie-breaking, the public event log, and the
//! seeded xorshift generator driving compute-time perturbations.

use std::cmp::Ordering;
use std::fmt;

use spindle_core::MetaOpId;

// The simulator derives one independent perturbation stream per (wave, entry)
// pair from the configured seed, so perturbations do not depend on
// event-processing order and two runs with the same seed are bit-identical.
pub(crate) use spindle_graph::XorShift64Star;

/// The key of an event no one moves.
const UNKEYED: u32 = u32::MAX;

/// One scheduled entry of the event queue.
#[derive(Debug, Clone, Copy)]
struct Scheduled<T> {
    time: f64,
    seq: u64,
    key: u32,
    payload: T,
}

impl<T> Scheduled<T> {
    /// Whether `self` pops before `other`: earlier time first, ties broken
    /// by sequence number (insertion order).
    fn before(&self, other: &Self) -> bool {
        self.time
            .total_cmp(&other.time)
            .then_with(|| self.seq.cmp(&other.seq))
            == Ordering::Less
    }
}

/// A deterministic discrete-event queue: a binary heap ordered by event time
/// with FIFO tie-breaking on simultaneous events.
///
/// Events pushed with [`push`](Self::push) stay where they are until popped.
/// A key (the simulator's flow id) owns at most one event:
/// [`schedule`](Self::schedule) inserts it, or moves it to its new time
/// under a fresh sequence number. Every push and every move takes the next
/// sequence number, so the queue pops its events in exactly the order a
/// plain heap would pop them if each move pushed a new event and left the
/// old one behind to be skipped — without ever popping a superseded event.
/// Sifting moves a hole instead of swapping.
#[derive(Debug)]
pub(crate) struct EventQueue<T> {
    heap: Vec<Scheduled<T>>,
    /// Heap position of each key's event, `UNKEYED` when it has none.
    at: Vec<u32>,
    seq: u64,
}

impl<T: Copy> EventQueue<T> {
    pub(crate) fn new() -> Self {
        Self {
            heap: Vec::new(),
            at: Vec::new(),
            seq: 0,
        }
    }

    fn next_seq(&mut self) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        seq
    }

    /// Queues an event no one will move.
    pub(crate) fn push(&mut self, time: f64, payload: T) {
        let item = Scheduled {
            time,
            seq: self.next_seq(),
            key: UNKEYED,
            payload,
        };
        self.heap.push(item);
        self.sift_up(self.heap.len() - 1);
    }

    /// Schedules the one event of `key` at `time`: inserted if `key` has
    /// none queued, otherwise moved from wherever it was.
    pub(crate) fn schedule(&mut self, key: u32, time: f64, payload: T) {
        let seq = self.next_seq();
        let k = key as usize;
        if k >= self.at.len() {
            self.at.resize(k + 1, UNKEYED);
        }
        let item = Scheduled {
            time,
            seq,
            key,
            payload,
        };
        match self.at[k] {
            UNKEYED => {
                self.heap.push(item);
                self.sift_up(self.heap.len() - 1);
            }
            pos => {
                let pos = pos as usize;
                // The fresh sequence number orders the event after every
                // queued event of its time: it can only rise if it is now
                // strictly earlier.
                let earlier = item.before(&self.heap[pos]);
                self.heap[pos] = item;
                if earlier {
                    self.sift_up(pos);
                } else {
                    self.sift_down(pos);
                }
            }
        }
    }

    /// Removes and returns the earliest event.
    pub(crate) fn pop(&mut self) -> Option<(f64, T)> {
        let last = self.heap.pop()?;
        let top = if self.heap.is_empty() {
            last
        } else {
            let top = self.heap[0];
            self.heap[0] = last;
            self.sift_down(0);
            top
        };
        if top.key != UNKEYED {
            self.at[top.key as usize] = UNKEYED;
        }
        Some((top.time, top.payload))
    }

    /// Records that `item` now sits at `pos`.
    fn place(&mut self, pos: usize, item: Scheduled<T>) {
        if item.key != UNKEYED {
            self.at[item.key as usize] = pos as u32;
        }
        self.heap[pos] = item;
    }

    /// Moves the hole at `pos` up while its item pops before the parent.
    fn sift_up(&mut self, mut pos: usize) {
        let item = self.heap[pos];
        while pos > 0 {
            let parent = (pos - 1) / 2;
            if !item.before(&self.heap[parent]) {
                break;
            }
            let moved = self.heap[parent];
            self.place(pos, moved);
            pos = parent;
        }
        self.place(pos, item);
    }

    /// Moves the hole at `pos` down while a child pops before its item.
    fn sift_down(&mut self, mut pos: usize) {
        let item = self.heap[pos];
        let len = self.heap.len();
        loop {
            let left = 2 * pos + 1;
            if left >= len {
                break;
            }
            let right = left + 1;
            let child = if right < len && self.heap[right].before(&self.heap[left]) {
                right
            } else {
                left
            };
            if !self.heap[child].before(&item) {
                break;
            }
            let moved = self.heap[child];
            self.place(pos, moved);
            pos = child;
        }
        self.place(pos, item);
    }

    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }
}

/// What happened at one instant of the simulated timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SimEventKind {
    /// An entry (a sliced MetaOp) began executing.
    ComputeStart {
        /// Wave index.
        wave: usize,
        /// The MetaOp being executed.
        metaop: MetaOpId,
        /// Devices allocated to the entry.
        devices: u32,
    },
    /// An entry finished executing.
    ComputeEnd {
        /// Wave index.
        wave: usize,
        /// The MetaOp that finished.
        metaop: MetaOpId,
    },
    /// Every entry of a wave finished (the wave barrier).
    WaveComplete {
        /// Wave index.
        wave: usize,
    },
    /// An inter-wave transmission began.
    FlowStart {
        /// Producing MetaOp.
        from: MetaOpId,
        /// Consuming MetaOp.
        to: MetaOpId,
    },
    /// An inter-wave transmission completed.
    FlowEnd {
        /// Producing MetaOp.
        from: MetaOpId,
        /// Consuming MetaOp.
        to: MetaOpId,
    },
    /// A parameter device group began its gradient all-reduce.
    SyncStart {
        /// Index of the group in the parameter pool.
        group: usize,
    },
    /// A parameter device group finished its gradient all-reduce.
    SyncEnd {
        /// Index of the group in the parameter pool.
        group: usize,
    },
    /// Injected device death: the iteration aborted here.
    DeviceFault {
        /// Number of devices that died.
        devices: usize,
        /// In-flight entries killed by the deaths.
        killed: usize,
    },
    /// The iteration completed.
    IterationEnd,
}

impl fmt::Display for SimEventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimEventKind::ComputeStart {
                wave,
                metaop,
                devices,
            } => write!(f, "compute-start wave{wave} {metaop} x{devices}"),
            SimEventKind::ComputeEnd { wave, metaop } => {
                write!(f, "compute-end wave{wave} {metaop}")
            }
            SimEventKind::WaveComplete { wave } => write!(f, "wave-complete wave{wave}"),
            SimEventKind::FlowStart { from, to } => write!(f, "flow-start {from}->{to}"),
            SimEventKind::FlowEnd { from, to } => write!(f, "flow-end {from}->{to}"),
            SimEventKind::SyncStart { group } => write!(f, "sync-start group{group}"),
            SimEventKind::SyncEnd { group } => write!(f, "sync-end group{group}"),
            SimEventKind::DeviceFault { devices, killed } => {
                write!(f, "device-fault x{devices} killed{killed}")
            }
            SimEventKind::IterationEnd => write!(f, "iteration-end"),
        }
    }
}

/// One timestamped entry of the event log.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoggedEvent {
    /// Simulated time of the event, seconds.
    pub time_s: f64,
    /// What happened.
    pub kind: SimEventKind,
}

impl fmt::Display for LoggedEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.9}s {}", self.time_s, self.kind)
    }
}

/// The ordered log of everything the simulator did in one iteration.
///
/// The log is fully deterministic: two runs with identical configuration
/// (including the seed) render byte-identical logs, which is the invariant the
/// determinism tests pin down.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EventLog {
    entries: Vec<LoggedEvent>,
}

impl EventLog {
    pub(crate) fn push(&mut self, time_s: f64, kind: SimEventKind) {
        self.entries.push(LoggedEvent { time_s, kind });
    }

    /// The logged events in simulation order.
    #[must_use]
    pub fn entries(&self) -> &[LoggedEvent] {
        &self.entries
    }

    /// Number of logged events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if nothing was logged.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Renders the log as one line per event — the canonical byte-comparable
    /// form used by the determinism tests.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in &self.entries {
            out.push_str(&e.to_string());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_orders_by_time_then_insertion() {
        let mut q = EventQueue::new();
        q.push(2.0, "b");
        q.push(1.0, "a");
        q.push(2.0, "c");
        q.push(0.5, "z");
        assert_eq!(q.len(), 4);
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        // Simultaneous events pop in insertion order: "b" before "c".
        assert_eq!(order, vec!["z", "a", "b", "c"]);
    }

    /// The scheme the indexed queue replaced: a `BinaryHeap` of
    /// `Reverse((time, seq))` events where a reschedule pushes a new event
    /// and bumps the key's epoch, so the old one is skipped when popped.
    struct EpochQueue {
        heap: std::collections::BinaryHeap<std::cmp::Reverse<(Time, u64, u32, u64)>>,
        epochs: Vec<u64>,
        seq: u64,
    }

    /// An `f64` ordered by `total_cmp`.
    #[derive(Debug, Clone, Copy, PartialEq)]
    struct Time(f64);

    impl Eq for Time {}

    impl PartialOrd for Time {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    impl Ord for Time {
        fn cmp(&self, other: &Self) -> Ordering {
            self.0.total_cmp(&other.0)
        }
    }

    impl EpochQueue {
        fn schedule(&mut self, key: u32, time: f64) {
            self.epochs[key as usize] += 1;
            let seq = self.seq;
            self.seq += 1;
            let epoch = self.epochs[key as usize];
            self.heap
                .push(std::cmp::Reverse((Time(time), seq, key, epoch)));
        }

        fn push(&mut self, time: f64, payload: u32) {
            let seq = self.seq;
            self.seq += 1;
            self.heap
                .push(std::cmp::Reverse((Time(time), seq, payload, u64::MAX)));
        }

        /// The next live event, skipping superseded ones.
        fn pop(&mut self) -> Option<(f64, u32)> {
            while let Some(std::cmp::Reverse((time, _, key, epoch))) = self.heap.pop() {
                if epoch == u64::MAX {
                    return Some((time.0, key));
                }
                if self.epochs[key as usize] == epoch {
                    // A popped event is spent: a later reschedule is new.
                    self.epochs[key as usize] += 1;
                    return Some((time.0, key));
                }
            }
            None
        }
    }

    #[test]
    fn moved_events_pop_in_the_order_the_epoch_heap_pops_live_ones() {
        const KEYS: u32 = 40;
        let mut rng = XorShift64Star::new(0x51DE);
        for round in 0..200 {
            let mut indexed: EventQueue<u32> = EventQueue::new();
            let mut reference = EpochQueue {
                heap: std::collections::BinaryHeap::new(),
                epochs: vec![0; KEYS as usize],
                seq: 0,
            };
            let mut now = 0.0;
            let mut popped = 0;
            // Times on a coarse grid so simultaneous events are common.
            let time =
                |rng: &mut XorShift64Star, now: f64| now + (rng.next_u64() % 6) as f64 * 0.25;
            let mut unkeyed = KEYS;
            for _ in 0..400 {
                match rng.next_u64() % 4 {
                    0 => {
                        // An event no one moves, with a payload of its own.
                        let t = time(&mut rng, now);
                        indexed.push(t, unkeyed);
                        reference.push(t, unkeyed);
                        unkeyed += 1;
                    }
                    1 | 2 => {
                        // Schedule or move one key's event.
                        let key = (rng.next_u64() % u64::from(KEYS)) as u32;
                        let t = time(&mut rng, now);
                        indexed.schedule(key, t, key);
                        reference.schedule(key, t);
                    }
                    _ => {
                        let got = indexed.pop();
                        assert_eq!(got, reference.pop(), "round {round}");
                        if let Some((t, _)) = got {
                            now = t;
                            popped += 1;
                        }
                    }
                }
                // The indexed queue holds only live events; the reference
                // also holds superseded ones.
                assert!(indexed.len() <= reference.heap.len());
            }
            while let Some(got) = indexed.pop() {
                assert_eq!(Some(got), reference.pop(), "round {round}");
                popped += 1;
            }
            assert_eq!(reference.pop(), None);
            assert!(popped > 0);
        }
    }

    #[test]
    fn log_renders_one_line_per_event() {
        let mut log = EventLog::default();
        log.push(
            0.0,
            SimEventKind::ComputeStart {
                wave: 0,
                metaop: MetaOpId(3),
                devices: 4,
            },
        );
        log.push(1.5, SimEventKind::IterationEnd);
        assert_eq!(log.len(), 2);
        assert!(!log.is_empty());
        let text = log.render();
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("compute-start wave0 metaop3 x4"));
        assert!(text.contains("t=1.500000000s iteration-end"));
        assert_eq!(log.entries()[1].kind, SimEventKind::IterationEnd);
    }
}
