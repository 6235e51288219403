//! Online (incremental) relation monitoring.
//!
//! The paper's Problem 4 is offline — the trace is fully recorded before
//! relations are evaluated, which is what makes the **future** cuts
//! `∩⇑X` / `∪⇑X` (reverse timestamps) available. A real-time monitor
//! does not have the future: this module evaluates the same eight
//! relations **online**, from past information only, as events stream
//! in.
//!
//! Two ingredients make this work:
//!
//! 1. **Past-only evaluation conditions.** Each relation has an exact
//!    reformulation over past cuts and extremal member clocks (derived
//!    from the same chain-structure arguments as the paper's
//!    conditions — see the table in [`OnlineMonitor::check`]); the
//!    monitor maintains `∩⇓X`, `∪⇓X`, and per-node extremal member
//!    clocks incrementally in `O(|P|)` per event.
//! 2. **Monotonicity-aware verdicts.** While an interval is still open,
//!    a relation may already be decided: `R1` is violated forever once
//!    one bad pair exists; `R4` holds forever once one good pair exists;
//!    `R2` is settled once the side its quantifier depends on is closed.
//!    [`Verdict::Pending`] is returned only while the truth genuinely
//!    depends on future events.
//! 3. **Incremental polling.** Watched pairs are not fully re-checked
//!    per event: each watch carries a dirty flag driven by an inverted
//!    index from interval label to dependent watches, and
//!    [`OnlineMonitor::poll`] re-evaluates only watches whose operands
//!    moved (or all open watches when the degradation status flips,
//!    since verdict decay depends on it).
//!
//! The monitor costs `O(|P|)` per event and `O(|N_X|·|N_Y|)` per `R2'`
//! / `R3'` query (the future-cut condensation that makes those linear is
//! precisely what an online monitor cannot have); all other relations
//! are linear, as offline.
//!
//! ## Degraded transports
//!
//! The token API ([`OnlineMonitor::internal`] / [`OnlineMonitor::send`]
//! / [`OnlineMonitor::recv`]) assumes event reports reach the monitor in
//! a valid linearization. Over a real transport they may not:
//! [`OnlineMonitor::ingest`] accepts per-process sequence-numbered
//! [`WireEvent`] reports in **any** order, buffering out-of-order
//! arrivals, discarding duplicates, and applying events as their
//! per-process prefix (and, for receives, the matching send) becomes
//! available. Gaps that will never fill are conceded with
//! [`OnlineMonitor::declare_lost`].
//!
//! While the monitor's view is degraded — events still buffered, or
//! losses conceded — verdicts decay soundly instead of lying
//! ([`crate::watch::verdict`]): only an `∃∃` witness
//! ([`Relation::R4`]/[`Relation::R4p`] [`Verdict::Holds`]) survives,
//! anything else the exact rules would settle becomes
//! [`Verdict::Unknown`], and [`Verdict::Pending`] stays pending.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt;
use std::time::Instant;

use synchrel_core::codec::{CodecError, Reader, Writer};
use synchrel_core::thm19::{self, CutSummary};
use synchrel_core::{Relation, VectorClock};
use synchrel_obs::MetricsRegistry;

use crate::watch::{verdict, WatchBook, WatchEvent, WatchSpec};

/// Magic bytes opening a monitor snapshot.
const SNAPSHOT_MAGIC: &[u8] = b"SMON";
/// Snapshot format version. Version 2 added the per-watch dirty flag
/// and the last-poll degradation edge, so a restored monitor's
/// incremental [`OnlineMonitor::poll`] skips exactly the same
/// re-checks the original would have skipped.
const SNAPSHOT_VERSION: u8 = 2;

fn put_clock(w: &mut Writer, c: &VectorClock) {
    w.put_u32s(c.components());
}

fn read_clock(r: &mut Reader<'_>) -> Result<VectorClock, CodecError> {
    Ok(VectorClock::from_components(r.u32s()?))
}

fn put_interval(w: &mut Writer, iv: &IntervalState) {
    // `CutSummary::encode` preserves the field order (`closed`,
    // `count`, `lo`, `hi`, `c1`, `c2`) snapshots have always used.
    iv.encode(w);
}

fn read_interval(r: &mut Reader<'_>) -> Result<IntervalState, CodecError> {
    IntervalState::decode(r)
}

/// Handle to a message sent through the monitor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OnlineMsg(u64);

/// Errors from feeding events to the monitor.
///
/// The token API ([`OnlineMonitor::internal`] / [`OnlineMonitor::send`]
/// / [`OnlineMonitor::recv`]) returns every error **before** mutating
/// any state — clocks, positions, intervals, and the message table are
/// exactly as they were, so the caller may retry with corrected input.
/// The wire API never applies the failing report (it stays buffered,
/// visible via [`OnlineMonitor::pending`]), though reports ahead of it
/// in the same call may already have applied.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OnlineError {
    /// Process index out of range.
    UnknownProcess(usize),
    /// Message token was never issued by this monitor (or a wire message
    /// id was registered by two different sends).
    ForgedMessage(u64),
    /// Message token was already consumed by an earlier receive.
    DuplicateMessage(u64),
    /// Events cannot be added to a closed interval.
    IntervalClosed(String),
}

impl fmt::Display for OnlineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OnlineError::UnknownProcess(p) => write!(f, "unknown process {p}"),
            OnlineError::ForgedMessage(m) => write!(f, "forged message token {m}"),
            OnlineError::DuplicateMessage(m) => write!(f, "message token {m} already consumed"),
            OnlineError::IntervalClosed(l) => write!(f, "interval '{l}' is closed"),
        }
    }
}

impl std::error::Error for OnlineError {}

/// Verdict of an online relation query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The relation holds, and no future event can change that.
    Holds,
    /// The relation is violated, and no future event can change that.
    Violated,
    /// The truth still depends on events yet to happen.
    Pending,
    /// The monitor's view is degraded (buffered or lost deliveries) and
    /// the exact rules would have settled — but their answer cannot be
    /// trusted from what was observed.
    Unknown,
}

impl Verdict {
    /// Stable wire/snapshot code (`0..4`).
    pub fn code(self) -> u8 {
        match self {
            Verdict::Holds => 0,
            Verdict::Violated => 1,
            Verdict::Pending => 2,
            Verdict::Unknown => 3,
        }
    }

    /// Inverse of [`Verdict::code`].
    pub fn from_code(code: u8) -> Option<Verdict> {
        match code {
            0 => Some(Verdict::Holds),
            1 => Some(Verdict::Violated),
            2 => Some(Verdict::Pending),
            3 => Some(Verdict::Unknown),
            _ => None,
        }
    }
}

/// One event report on the wire, for [`OnlineMonitor::ingest`].
///
/// Message ids are chosen by the reporting system (globally unique per
/// logical message); they pair a [`WireEvent::Recv`] with its
/// [`WireEvent::Send`] across processes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireEvent {
    /// An internal event.
    Internal,
    /// A send of message `msg`.
    Send {
        /// Wire id of the sent message.
        msg: u64,
    },
    /// A receive of message `msg`.
    Recv {
        /// Wire id of the received message.
        msg: u64,
    },
}

impl WireEvent {
    /// Append the event's binary form (one tag byte, then the message
    /// id for sends/receives) — shared by snapshots, the WAL, and the
    /// serving protocol.
    pub fn encode(&self, w: &mut Writer) {
        match self {
            WireEvent::Internal => w.put_u8(0),
            WireEvent::Send { msg } => {
                w.put_u8(1);
                w.put_u64(*msg);
            }
            WireEvent::Recv { msg } => {
                w.put_u8(2);
                w.put_u64(*msg);
            }
        }
    }

    /// Inverse of [`WireEvent::encode`].
    pub fn decode(r: &mut Reader<'_>) -> Result<WireEvent, CodecError> {
        match r.u8()? {
            0 => Ok(WireEvent::Internal),
            1 => Ok(WireEvent::Send { msg: r.u64()? }),
            2 => Ok(WireEvent::Recv { msg: r.u64()? }),
            _ => Err(CodecError::Malformed("wire event tag")),
        }
    }
}

/// What [`OnlineMonitor::ingest`] did with a report.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Ingest {
    /// The report (and `n - 1` previously buffered followers it
    /// unblocked) were applied; `n` events total.
    Applied(usize),
    /// The report arrived out of order and is buffered.
    Buffered,
    /// The report duplicates one already applied or buffered.
    Duplicate,
}

/// Incrementally maintained state of one named interval — the
/// Theorem-19 [`CutSummary`] from `synchrel-core`, which is also what
/// a sharded deployment ships between shards (see
/// [`crate::shard::Coordinator`]).
type IntervalState = CutSummary;

/// Internal running counters. Ingest-side counters are plain `u64`
/// (updated in `&mut self` paths); verdict tallies are `Cell`s because
/// [`OnlineMonitor::check`] takes `&self`.
#[derive(Clone, Debug, Default)]
struct Stats {
    applied: u64,
    buffered: u64,
    duplicates: u64,
    flushes: u64,
    flush_nanos: u64,
    max_pending: u64,
    reclaimed: u64,
    verdicts: [Cell<u64>; 4],
}

/// Point-in-time snapshot of a monitor's operational counters, for the
/// observability surface (fault-induced Unknown rates, buffer depth,
/// flush latency).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MonitorStats {
    /// Events applied to the clocks (token and wire API).
    pub applied: u64,
    /// Wire reports that arrived out of order and were buffered.
    pub buffered: u64,
    /// Wire reports discarded as duplicates.
    pub duplicates: u64,
    /// Drain passes over the buffer (ingest-triggered and explicit).
    pub flushes: u64,
    /// Wall-clock nanoseconds spent draining the buffer.
    pub flush_nanos: u64,
    /// High-water mark of the out-of-order buffer depth.
    pub max_pending: u64,
    /// Reports currently buffered.
    pub pending: u64,
    /// Wire sequence slots conceded as lost.
    pub lost: u64,
    /// Whether the monitor's view is currently degraded.
    pub degraded: bool,
    /// `check` verdicts returned, by kind.
    pub holds: u64,
    /// `check` verdicts returned as Violated.
    pub violated: u64,
    /// `check` verdicts returned as Pending.
    pub pending_verdicts: u64,
    /// `check` verdicts returned as Unknown (fault-induced decay).
    pub unknown: u64,
    /// Closed intervals compacted out of the monitor by pruning.
    pub intervals_reclaimed: u64,
    /// Interval states currently resident (gauge): with pruning
    /// enabled this stays O(active intervals) instead of O(history).
    pub resident_intervals: u64,
}

impl MonitorStats {
    /// Total `check` verdicts tallied.
    pub fn checks(&self) -> u64 {
        self.holds + self.violated + self.pending_verdicts + self.unknown
    }

    /// Fraction of `check` verdicts that decayed to Unknown (0 when no
    /// checks ran) — the fault-induced Unknown rate.
    pub fn unknown_rate(&self) -> f64 {
        let n = self.checks();
        if n == 0 {
            0.0
        } else {
            self.unknown as f64 / n as f64
        }
    }

    /// Export the counters into a metrics registry.
    pub fn register(&self, reg: &mut MetricsRegistry) {
        reg.counter(
            "synchrel_monitor_applied_total",
            "Events applied to the monitor clocks",
            self.applied,
        );
        reg.counter(
            "synchrel_monitor_buffered_total",
            "Wire reports buffered out of order",
            self.buffered,
        );
        reg.counter(
            "synchrel_monitor_duplicates_total",
            "Wire reports discarded as duplicates",
            self.duplicates,
        );
        reg.counter(
            "synchrel_monitor_flushes_total",
            "Buffer drain passes",
            self.flushes,
        );
        reg.counter(
            "synchrel_monitor_flush_nanos_total",
            "Wall-clock nanoseconds spent draining the buffer",
            self.flush_nanos,
        );
        reg.gauge(
            "synchrel_monitor_buffer_depth",
            "Reports currently buffered out of order",
            self.pending as f64,
        );
        reg.gauge(
            "synchrel_monitor_buffer_depth_max",
            "High-water mark of the out-of-order buffer depth",
            self.max_pending as f64,
        );
        reg.counter(
            "synchrel_monitor_lost_total",
            "Wire sequence slots conceded as lost",
            self.lost,
        );
        reg.gauge(
            "synchrel_monitor_degraded",
            "1 when the monitor view is degraded",
            if self.degraded { 1.0 } else { 0.0 },
        );
        for (verdict, count) in [
            ("holds", self.holds),
            ("violated", self.violated),
            ("pending", self.pending_verdicts),
            ("unknown", self.unknown),
        ] {
            reg.counter_with(
                "synchrel_monitor_verdicts_total",
                &[("verdict", verdict)],
                "check() verdicts returned, by kind",
                count,
            );
        }
        reg.gauge(
            "synchrel_monitor_unknown_rate",
            "Fraction of check() verdicts decayed to Unknown",
            self.unknown_rate(),
        );
        reg.counter(
            "synchrel_monitor_intervals_reclaimed_total",
            "Closed intervals compacted out by pruning",
            self.intervals_reclaimed,
        );
        reg.gauge(
            "synchrel_monitor_resident_intervals",
            "Interval states currently resident",
            self.resident_intervals as f64,
        );
    }
}

/// The streaming monitor: feeds on events, answers relation queries.
///
/// The monitor's complete state — clocks, positions, message tables,
/// interval aggregates, watches, wire-ingestion buffers, pruning
/// tombstones, and operational counters — serializes to a versioned
/// binary snapshot, which is
/// what makes crash-recoverable serving possible: a snapshot taken
/// with [`OnlineMonitor::snapshot_bytes`] and restored with
/// [`OnlineMonitor::restore_bytes`] behaves identically to the
/// original under every subsequent operation.
#[derive(Clone, Debug)]
pub struct OnlineMonitor {
    clocks: Vec<VectorClock>,
    /// 1-indexed position of the latest event per process (`⊥` = 1).
    pos: Vec<u32>,
    msgs: BTreeMap<u64, VectorClock>,
    next_msg: u64,
    intervals: BTreeMap<String, IntervalState>,
    watches: WatchBook,
    /// Next expected wire sequence number per process (0-based).
    next_seq: Vec<u64>,
    /// Out-of-order wire reports awaiting their prefix, per process.
    held: Vec<BTreeMap<u64, (WireEvent, Vec<String>)>>,
    /// Send clocks of applied wire sends, by wire message id.
    wire_msgs: BTreeMap<u64, VectorClock>,
    /// Sticky: losses were conceded, clocks may under-approximate.
    lossy: bool,
    /// Wire sequence slots conceded as lost.
    lost: u64,
    /// Epoch-based pruning of closed intervals (opt-in).
    prune_enabled: bool,
    /// Tombstones for pruned intervals: final member count per label.
    /// Keeps closed-label semantics (`is_closed`, `interval_len`,
    /// event rejection) intact after the heavy state is gone.
    retired: BTreeMap<String, usize>,
    /// Degradation status observed by the last [`OnlineMonitor::poll`].
    /// Verdict decay depends on [`OnlineMonitor::is_degraded`], so a
    /// flip in either direction forces the next poll to re-check every
    /// open watch even if its labels never moved.
    last_poll_degraded: bool,
    /// Operational counters (see [`MonitorStats`]).
    stats: Stats,
}

impl OnlineMonitor {
    /// A monitor over `processes` processes.
    pub fn new(processes: usize) -> OnlineMonitor {
        OnlineMonitor {
            clocks: (0..processes)
                .map(|p| VectorClock::unit(processes, p))
                .collect(),
            pos: vec![1; processes],
            msgs: BTreeMap::new(),
            next_msg: 0,
            intervals: BTreeMap::new(),
            watches: WatchBook::default(),
            next_seq: vec![0; processes],
            held: vec![BTreeMap::new(); processes],
            wire_msgs: BTreeMap::new(),
            lossy: false,
            lost: 0,
            prune_enabled: false,
            retired: BTreeMap::new(),
            last_poll_degraded: false,
            stats: Stats::default(),
        }
    }

    /// Enable epoch-based pruning (builder style): closed intervals
    /// whose futures can no longer affect any open watch are compacted
    /// out of the monitor, making long-running streaming memory
    /// O(active intervals) instead of O(history). See
    /// [`OnlineMonitor::prune`] for semantics.
    pub fn with_pruning(mut self) -> OnlineMonitor {
        self.prune_enabled = true;
        self
    }

    /// Enable epoch-based pruning on an existing monitor.
    pub fn enable_pruning(&mut self) {
        self.prune_enabled = true;
    }

    /// Is pruning enabled?
    pub fn pruning_enabled(&self) -> bool {
        self.prune_enabled
    }

    /// A snapshot of the monitor's operational counters.
    pub fn stats(&self) -> MonitorStats {
        MonitorStats {
            applied: self.stats.applied,
            buffered: self.stats.buffered,
            duplicates: self.stats.duplicates,
            flushes: self.stats.flushes,
            flush_nanos: self.stats.flush_nanos,
            max_pending: self.stats.max_pending,
            pending: self.pending() as u64,
            lost: self.lost,
            degraded: self.is_degraded(),
            holds: self.stats.verdicts[0].get(),
            violated: self.stats.verdicts[1].get(),
            pending_verdicts: self.stats.verdicts[2].get(),
            unknown: self.stats.verdicts[3].get(),
            intervals_reclaimed: self.stats.reclaimed,
            resident_intervals: self.intervals.len() as u64,
        }
    }

    /// Export the monitor's counters into a metrics registry.
    pub fn export_metrics(&self, reg: &mut MetricsRegistry) {
        self.stats().register(reg);
    }

    // ---- snapshot / restore -----------------------------------------

    /// Serialize the monitor's **complete** state to bytes, for durable
    /// snapshots. The format is the versioned hand-rolled binary codec
    /// of [`synchrel_core::codec`] (deterministic: `BTreeMap`-backed
    /// state encodes in key order), self-contained so snapshots decode
    /// in any build environment. Everything is captured: clocks,
    /// positions, token and wire message tables, interval aggregates,
    /// watches with settled verdicts, out-of-order buffers, loss
    /// concessions, pruning tombstones, and the operational counters,
    /// so a restored monitor is observationally identical to the
    /// original — same verdicts, same [`MonitorStats`], same behaviour
    /// under every subsequent operation.
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_raw(SNAPSHOT_MAGIC);
        w.put_u8(SNAPSHOT_VERSION);
        w.put_usize(self.clocks.len());
        for c in &self.clocks {
            put_clock(&mut w, c);
        }
        w.put_u32s(&self.pos);
        w.put_usize(self.msgs.len());
        for (&id, c) in &self.msgs {
            w.put_u64(id);
            put_clock(&mut w, c);
        }
        w.put_u64(self.next_msg);
        w.put_usize(self.intervals.len());
        for (label, iv) in &self.intervals {
            w.put_str(label);
            put_interval(&mut w, iv);
        }
        self.watches.encode(&mut w);
        w.put_u64s(&self.next_seq);
        w.put_usize(self.held.len());
        for held in &self.held {
            w.put_usize(held.len());
            for (&seq, (event, labels)) in held {
                w.put_u64(seq);
                event.encode(&mut w);
                w.put_usize(labels.len());
                for l in labels {
                    w.put_str(l);
                }
            }
        }
        w.put_usize(self.wire_msgs.len());
        for (&id, c) in &self.wire_msgs {
            w.put_u64(id);
            put_clock(&mut w, c);
        }
        w.put_bool(self.lossy);
        w.put_u64(self.lost);
        w.put_bool(self.last_poll_degraded);
        w.put_bool(self.prune_enabled);
        w.put_usize(self.retired.len());
        for (label, &count) in &self.retired {
            w.put_str(label);
            w.put_usize(count);
        }
        w.put_u64(self.stats.applied);
        w.put_u64(self.stats.buffered);
        w.put_u64(self.stats.duplicates);
        w.put_u64(self.stats.flushes);
        w.put_u64(self.stats.flush_nanos);
        w.put_u64(self.stats.max_pending);
        w.put_u64(self.stats.reclaimed);
        for v in &self.stats.verdicts {
            w.put_u64(v.get());
        }
        w.into_bytes()
    }

    /// Rebuild a monitor from [`OnlineMonitor::snapshot_bytes`] output.
    pub fn restore_bytes(bytes: &[u8]) -> Result<OnlineMonitor, String> {
        Self::restore_inner(bytes).map_err(|e| format!("corrupt monitor snapshot: {e}"))
    }

    fn restore_inner(bytes: &[u8]) -> Result<OnlineMonitor, CodecError> {
        let mut r = Reader::new(bytes);
        if r.raw(SNAPSHOT_MAGIC.len())? != SNAPSHOT_MAGIC {
            return Err(CodecError::Malformed("snapshot magic"));
        }
        if r.u8()? != SNAPSHOT_VERSION {
            return Err(CodecError::Malformed("snapshot version"));
        }
        let n = r.len_prefix()?;
        let clocks = (0..n)
            .map(|_| read_clock(&mut r))
            .collect::<Result<_, _>>()?;
        let pos = r.u32s()?;
        let n = r.len_prefix()?;
        let mut msgs = BTreeMap::new();
        for _ in 0..n {
            let id = r.u64()?;
            msgs.insert(id, read_clock(&mut r)?);
        }
        let next_msg = r.u64()?;
        let n = r.len_prefix()?;
        let mut intervals = BTreeMap::new();
        for _ in 0..n {
            let label = r.string()?;
            intervals.insert(label, read_interval(&mut r)?);
        }
        let watches = WatchBook::decode(&mut r)?;
        let next_seq = r.u64s()?;
        let n = r.len_prefix()?;
        let mut held = Vec::with_capacity(n);
        for _ in 0..n {
            let m = r.len_prefix()?;
            let mut per = BTreeMap::new();
            for _ in 0..m {
                let seq = r.u64()?;
                let event = WireEvent::decode(&mut r)?;
                let k = r.len_prefix()?;
                let labels = (0..k).map(|_| r.string()).collect::<Result<_, _>>()?;
                per.insert(seq, (event, labels));
            }
            held.push(per);
        }
        let n = r.len_prefix()?;
        let mut wire_msgs = BTreeMap::new();
        for _ in 0..n {
            let id = r.u64()?;
            wire_msgs.insert(id, read_clock(&mut r)?);
        }
        let lossy = r.bool()?;
        let lost = r.u64()?;
        let last_poll_degraded = r.bool()?;
        let prune_enabled = r.bool()?;
        let n = r.len_prefix()?;
        let mut retired = BTreeMap::new();
        for _ in 0..n {
            let label = r.string()?;
            let count = r.usize()?;
            retired.insert(label, count);
        }
        let stats = Stats {
            applied: r.u64()?,
            buffered: r.u64()?,
            duplicates: r.u64()?,
            flushes: r.u64()?,
            flush_nanos: r.u64()?,
            max_pending: r.u64()?,
            reclaimed: r.u64()?,
            verdicts: [
                Cell::new(r.u64()?),
                Cell::new(r.u64()?),
                Cell::new(r.u64()?),
                Cell::new(r.u64()?),
            ],
        };
        if !r.is_done() {
            return Err(CodecError::Malformed("trailing bytes"));
        }
        Ok(OnlineMonitor {
            clocks,
            pos,
            msgs,
            next_msg,
            intervals,
            watches,
            next_seq,
            held,
            wire_msgs,
            lossy,
            lost,
            prune_enabled,
            retired,
            last_poll_degraded,
            stats,
        })
    }

    /// Number of processes.
    pub fn num_processes(&self) -> usize {
        self.clocks.len()
    }

    fn check_process(&self, p: usize) -> Result<(), OnlineError> {
        if p >= self.clocks.len() {
            return Err(OnlineError::UnknownProcess(p));
        }
        Ok(())
    }

    fn validate_labels(&self, labels: &[&str]) -> Result<(), OnlineError> {
        for &l in labels {
            if self.retired.contains_key(l) || self.intervals.get(l).is_some_and(|s| s.closed) {
                return Err(OnlineError::IntervalClosed(l.to_string()));
            }
        }
        Ok(())
    }

    /// Advance `p`'s clock by one event. Callers have already validated
    /// `p` and the event's labels.
    fn step(&mut self, p: usize, extra: Option<&VectorClock>) {
        let ones = VectorClock::ones(self.clocks.len());
        let mut v = self.clocks[p].join(&ones);
        if let Some(e) = extra {
            v.join_assign(e);
        }
        v.tick(p);
        self.clocks[p] = v;
        self.pos[p] += 1;
        self.stats.applied += 1;
    }

    fn record(&mut self, p: usize, labels: &[&str]) {
        let pos = self.pos[p];
        let clock = self.clocks[p].clone();
        for &l in labels {
            self.intervals
                .entry(l.to_string())
                .or_default()
                .add_member(p, pos, &clock);
            self.watches.mark_dirty(l);
        }
    }

    /// Feed an internal event on `p`, tagged with `labels`.
    pub fn internal(&mut self, p: usize, labels: &[&str]) -> Result<(), OnlineError> {
        self.check_process(p)?;
        self.validate_labels(labels)?;
        self.step(p, None);
        self.record(p, labels);
        Ok(())
    }

    /// Feed a send event on `p`; the returned handle is passed to the
    /// matching [`OnlineMonitor::recv`].
    pub fn send(&mut self, p: usize, labels: &[&str]) -> Result<OnlineMsg, OnlineError> {
        self.check_process(p)?;
        self.validate_labels(labels)?;
        self.step(p, None);
        self.record(p, labels);
        let id = self.next_msg;
        self.next_msg += 1;
        self.msgs.insert(id, self.clocks[p].clone());
        Ok(OnlineMsg(id))
    }

    /// Feed the receive of `msg` on `p`.
    ///
    /// Rejects forged handles (never issued) and duplicate receives
    /// (already consumed) with distinct errors; on any error the
    /// message stays available and no clock moves.
    pub fn recv(&mut self, p: usize, msg: OnlineMsg, labels: &[&str]) -> Result<(), OnlineError> {
        self.check_process(p)?;
        self.validate_labels(labels)?;
        if msg.0 >= self.next_msg {
            return Err(OnlineError::ForgedMessage(msg.0));
        }
        let sender = self
            .msgs
            .remove(&msg.0)
            .ok_or(OnlineError::DuplicateMessage(msg.0))?;
        self.step(p, Some(&sender));
        self.record(p, labels);
        Ok(())
    }

    // ---- degraded-transport ingestion -------------------------------

    /// Can this wire event be applied right now? (A receive needs its
    /// send's clock.)
    fn wire_applicable(&self, event: &WireEvent) -> bool {
        match event {
            WireEvent::Recv { msg } => self.wire_msgs.contains_key(msg),
            _ => true,
        }
    }

    /// Apply one wire event of process `p` (already at the head of its
    /// sequence). A receive whose send clock is unknown applies without
    /// the causal join — ordinary callers gate on
    /// [`OnlineMonitor::wire_applicable`] first, so that only happens
    /// from [`OnlineMonitor::declare_lost`].
    fn wire_apply(
        &mut self,
        p: usize,
        event: &WireEvent,
        labels: &[String],
    ) -> Result<(), OnlineError> {
        let refs: Vec<&str> = labels.iter().map(|s| s.as_str()).collect();
        self.validate_labels(&refs)?;
        match event {
            WireEvent::Internal => self.step(p, None),
            WireEvent::Send { msg } => {
                if self.wire_msgs.contains_key(msg) {
                    return Err(OnlineError::ForgedMessage(*msg));
                }
                self.step(p, None);
                self.wire_msgs.insert(*msg, self.clocks[p].clone());
            }
            WireEvent::Recv { msg } => {
                let sender = self.wire_msgs.get(msg).cloned();
                self.step(p, sender.as_ref());
            }
        }
        self.record(p, &refs);
        self.next_seq[p] += 1;
        Ok(())
    }

    /// Apply every buffered report whose per-process prefix (and, for
    /// receives, matching send) is now available, until a fixpoint.
    fn wire_drain(&mut self) -> Result<usize, OnlineError> {
        let t0 = Instant::now();
        let r = self.wire_drain_inner();
        self.stats.flushes += 1;
        self.stats.flush_nanos += t0.elapsed().as_nanos() as u64;
        r
    }

    fn wire_drain_inner(&mut self) -> Result<usize, OnlineError> {
        let mut applied = 0;
        loop {
            let mut progressed = false;
            for p in 0..self.clocks.len() {
                while let Some((&s, (ev, _))) = self.held[p].first_key_value() {
                    if s != self.next_seq[p] || !self.wire_applicable(ev) {
                        break;
                    }
                    let (ev, labels) = self.held[p].remove(&s).expect("peeked");
                    if let Err(e) = self.wire_apply(p, &ev, &labels) {
                        // Keep the report buffered so it stays visible
                        // via `pending` and a later `flush` can retry.
                        self.held[p].insert(s, (ev, labels));
                        return Err(e);
                    }
                    applied += 1;
                    progressed = true;
                }
            }
            if !progressed {
                return Ok(applied);
            }
        }
    }

    /// Ingest one sequence-numbered event report of process `p` from an
    /// unreliable transport. `seq` is 0-based and assigned by the
    /// reporting process in its local event order.
    ///
    /// In-order reports apply immediately (draining any buffered
    /// followers they unblock); out-of-order reports are buffered;
    /// stale or repeated reports are recognized as duplicates and
    /// discarded — reordering and duplication never corrupt the state.
    pub fn ingest(
        &mut self,
        p: usize,
        seq: u64,
        event: WireEvent,
        labels: &[&str],
    ) -> Result<Ingest, OnlineError> {
        self.check_process(p)?;
        if seq < self.next_seq[p] || self.held[p].contains_key(&seq) {
            self.stats.duplicates += 1;
            return Ok(Ingest::Duplicate);
        }
        let owned: Vec<String> = labels.iter().map(|s| s.to_string()).collect();
        if seq == self.next_seq[p] && self.wire_applicable(&event) {
            self.wire_apply(p, &event, &owned)?;
            let drained = self.wire_drain()?;
            return Ok(Ingest::Applied(1 + drained));
        }
        self.held[p].insert(seq, (event, owned));
        self.stats.buffered += 1;
        self.stats.max_pending = self.stats.max_pending.max(self.pending() as u64);
        Ok(Ingest::Buffered)
    }

    /// Retry applying buffered reports (e.g. after the caller fixed
    /// whatever made an earlier drain fail). Returns how many applied.
    pub fn flush(&mut self) -> Result<usize, OnlineError> {
        self.wire_drain()
    }

    /// Number of reports buffered out of order.
    pub fn pending(&self) -> usize {
        self.held.iter().map(|h| h.len()).sum()
    }

    /// Total wire sequence slots conceded as lost.
    pub fn lost(&self) -> u64 {
        self.lost
    }

    /// Concede that the gaps blocking buffered reports will never fill:
    /// skip the missing sequence slots, apply buffered receives whose
    /// send never arrived *without* the causal join, and drain
    /// everything else. Returns the number of slots conceded.
    ///
    /// After this the monitor is permanently degraded
    /// ([`OnlineMonitor::is_degraded`]): its clocks under-approximate
    /// true causality, and verdicts decay accordingly (see
    /// [`OnlineMonitor::check`]).
    pub fn declare_lost(&mut self) -> Result<u64, OnlineError> {
        let mut conceded = 0;
        loop {
            self.wire_drain()?;
            let Some(p) = (0..self.clocks.len()).find(|&p| !self.held[p].is_empty()) else {
                break;
            };
            let (&s, _) = self.held[p].first_key_value().expect("non-empty");
            self.lossy = true;
            if s > self.next_seq[p] {
                conceded += s - self.next_seq[p];
                self.next_seq[p] = s;
                continue;
            }
            // Head of sequence but blocked: a receive whose send report
            // was lost. Apply it without the join — the clock now
            // under-approximates, which `lossy` records.
            let (ev, labels) = self.held[p].remove(&s).expect("peeked");
            self.wire_apply(p, &ev, &labels)?;
        }
        self.lost += conceded;
        Ok(conceded)
    }

    /// [`OnlineMonitor::declare_lost`], plus an end-of-stream
    /// declaration: `total[p]` reports were *sent* by process `p`, so
    /// any sequence slot below that which never arrived — including
    /// trailing ones, which leave no gap evidence behind a buffered
    /// report — is conceded as lost too. Without this, a monitor whose
    /// stream was truncated at the tail would believe itself healthy
    /// and report exact verdicts on a partial view.
    pub fn declare_complete(&mut self, total: &[u64]) -> Result<u64, OnlineError> {
        if total.len() != self.clocks.len() {
            return Err(OnlineError::UnknownProcess(total.len()));
        }
        let mut conceded = self.declare_lost()?;
        for (p, &t) in total.iter().enumerate() {
            if self.next_seq[p] < t {
                self.lossy = true;
                conceded += t - self.next_seq[p];
                self.lost += t - self.next_seq[p];
                self.next_seq[p] = t;
            }
        }
        Ok(conceded)
    }

    /// Is the monitor's view degraded — reports still buffered, or
    /// losses conceded? Degraded verdicts decay per
    /// [`OnlineMonitor::check`].
    pub fn is_degraded(&self) -> bool {
        self.lossy || self.pending() > 0
    }

    // ---- shard-coordination surface ------------------------------------
    //
    // A sharded deployment runs one full-width monitor per shard, each
    // ingesting only the wire reports of the processes it owns. Sends
    // whose receivers live on another shard are carried across by a
    // coordinator through the methods below; everything they do is a
    // deterministic function of (already-durable) per-shard state, so
    // each call can be logged in the receiving shard's WAL and replayed.

    /// The applied clock of wire send `msg`, if this monitor has
    /// applied the send — what a coordinator ships to the shard holding
    /// the matching receive.
    pub fn wire_send_clock(&self, msg: u64) -> Option<&VectorClock> {
        self.wire_msgs.get(&msg)
    }

    /// Wire message ids of buffered **head-of-sequence** receives whose
    /// send clock this monitor does not hold: the cross-shard transfer
    /// requests a coordinator must answer. (Deeper buffered receives
    /// surface on later calls, as learning unblocks their prefixes — a
    /// coordinator loops to fixpoint.)
    pub fn blocked_recv_msgs(&self) -> Vec<u64> {
        let mut out = Vec::new();
        for p in 0..self.clocks.len() {
            if let Some((&s, (ev, _))) = self.held[p].first_key_value() {
                if s == self.next_seq[p] {
                    if let WireEvent::Recv { msg } = ev {
                        if !self.wire_msgs.contains_key(msg) {
                            out.push(*msg);
                        }
                    }
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Learn the applied clock of wire send `msg` from another shard's
    /// monitor, then drain any receives it unblocks. A message already
    /// known is a strict no-op (no drain, no counter movement), which
    /// keeps at-least-once coordinator retries replay-deterministic.
    /// Returns whether the clock was new.
    pub fn learn_send(&mut self, msg: u64, clock: VectorClock) -> Result<bool, OnlineError> {
        if self.wire_msgs.contains_key(&msg) {
            return Ok(false);
        }
        self.wire_msgs.insert(msg, clock);
        self.wire_drain()?;
        Ok(true)
    }

    /// Buffered out-of-order reports held for process `p`.
    pub fn pending_of(&self, p: usize) -> usize {
        self.held.get(p).map_or(0, |h| h.len())
    }

    /// One [`OnlineMonitor::declare_lost`] iteration for process `p`,
    /// followed by a drain: concede the gap in front of `p`'s earliest
    /// held report, or — if that report is at the head of the sequence
    /// but blocked (a receive whose send was lost) — apply it without
    /// the causal join. No-op if nothing is held for `p`. Returns the
    /// number of sequence slots conceded.
    ///
    /// A sharded `declare_lost` interleaves these per-process steps
    /// across shards in ascending-process order with cross-shard
    /// transfers between them, reproducing exactly the unsharded
    /// concession order.
    pub fn concede_step(&mut self, p: usize) -> Result<u64, OnlineError> {
        self.check_process(p)?;
        let Some((&s, _)) = self.held[p].first_key_value() else {
            return Ok(0);
        };
        self.lossy = true;
        let conceded = if s > self.next_seq[p] {
            let c = s - self.next_seq[p];
            self.next_seq[p] = s;
            self.lost += c;
            c
        } else {
            let (ev, labels) = self.held[p].remove(&s).expect("peeked");
            self.wire_apply(p, &ev, &labels)?;
            0
        };
        self.wire_drain()?;
        Ok(conceded)
    }

    /// Force a watch's recorded verdict (used by a shard coordinator to
    /// make a facade-settled verdict durable on the shard that owns the
    /// watch). Returns whether the watch exists.
    pub fn force_verdict(&mut self, name: &str, verdict: Verdict, settled: bool) -> bool {
        self.watches.force(name, verdict, settled)
    }

    /// Unconditionally compact interval `label` into a tombstone (the
    /// sharded facade decides retirement from *global* watch state, so
    /// shard-local pruning stays disabled and this is driven
    /// explicitly). Closing semantics match [`OnlineMonitor::prune`]:
    /// the tombstone keeps the label's final length and reads as
    /// closed. Returns whether anything changed.
    pub fn retire(&mut self, label: &str) -> bool {
        if self.retired.contains_key(label) {
            return false;
        }
        let count = self.intervals.remove(label).map_or(0, |s| s.count);
        self.retired.insert(label.to_string(), count);
        self.stats.reclaimed += 1;
        true
    }

    /// The Theorem-19 summary of an interval's members **on this
    /// shard** — `None` for labels never recorded here (or retired).
    /// Merging these across shards ([`CutSummary::merge`]) reconstructs
    /// the unsharded interval state exactly, because every process is
    /// owned by one shard.
    pub fn interval_summary(&self, label: &str) -> Option<&CutSummary> {
        self.intervals.get(label)
    }

    /// Labels of resident (non-retired) intervals, in order.
    pub fn interval_labels(&self) -> impl Iterator<Item = &str> {
        self.intervals.keys().map(String::as_str)
    }

    /// Labels retired to tombstones, with their final member counts.
    pub fn retired_labels(&self) -> impl Iterator<Item = (&str, usize)> {
        self.retired.iter().map(|(l, &c)| (l.as_str(), c))
    }

    /// The registered watches, in registration order — what a facade
    /// rebuilds its registry from after recovery.
    pub fn watch_specs(&self) -> Vec<WatchSpec> {
        self.watches.specs()
    }

    /// Close an interval: no further events may join it, which lets
    /// pending verdicts settle. Closing an unknown name creates it
    /// empty and closed. With pruning enabled, closed intervals no
    /// open watch depends on are compacted immediately.
    pub fn close(&mut self, label: &str) {
        if self.retired.contains_key(label) {
            return; // already closed and compacted
        }
        self.intervals.entry(label.to_string()).or_default().closed = true;
        self.watches.mark_dirty(label);
        self.prune();
    }

    /// Is the interval closed?
    pub fn is_closed(&self, label: &str) -> bool {
        self.retired.contains_key(label) || self.intervals.get(label).is_some_and(|s| s.closed)
    }

    /// Number of member events currently in the interval.
    pub fn interval_len(&self, label: &str) -> usize {
        if let Some(&c) = self.retired.get(label) {
            return c;
        }
        self.intervals.get(label).map_or(0, |s| s.count)
    }

    /// Has the interval been compacted out by pruning? Retired
    /// intervals still count as closed and keep their final length, but
    /// their member data is gone: ad-hoc [`OnlineMonitor::check`]s that
    /// involve them return [`Verdict::Unknown`].
    pub fn is_retired(&self, label: &str) -> bool {
        self.retired.contains_key(label)
    }

    /// Compact closed intervals that no longer matter: an interval is
    /// reclaimed once it is closed **and** every watch referencing it
    /// has settled to a permanent verdict (closed epochs whose futures
    /// can no longer intersect any open watch). The heavy per-interval
    /// state — per-node extremal clocks and the `∩⇓X`/`∪⇓X` timestamps,
    /// `O(|N_X|·|P|)` words — is dropped; a tombstone keeps the label's
    /// closed/length semantics. Returns the number of intervals
    /// reclaimed (0 unless pruning is enabled).
    ///
    /// Called automatically from [`OnlineMonitor::close`] and
    /// [`OnlineMonitor::poll`] when enabled; safe to call manually.
    pub fn prune(&mut self) -> usize {
        if !self.prune_enabled {
            return 0;
        }
        let labels = crate::shard::prune_candidates(&[&*self], &self.watches);
        for label in &labels {
            self.retire(label);
        }
        labels.len()
    }

    /// Does `rel(X, Y)` hold **for the members seen so far**?
    ///
    /// Past-only evaluation conditions (exact for the current members,
    /// assuming disjoint intervals; `N` sets and extremes are the
    /// current ones):
    ///
    /// | relation | condition |
    /// |----------|-----------|
    /// | R1, R1' | `∀i∈N_X : ∩⇓Y[i] ≥ hi_X[i]` |
    /// | R2      | `∀i∈N_X : ∪⇓Y[i] ≥ hi_X[i]` |
    /// | R2'     | `∃j∈N_Y ∀i∈N_X : T(y_j^max)[i] ≥ hi_X[i]` |
    /// | R3      | `∃i∈N_X : ∩⇓Y[i] ≥ lo_X[i]` |
    /// | R3'     | `∀j∈N_Y ∃i∈N_X : T(y_j^min)[i] ≥ lo_X[i]` |
    /// | R4, R4' | `∃i∈N_X : ∪⇓Y[i] ≥ lo_X[i]` |
    pub fn holds_now(&self, rel: Relation, x: &str, y: &str) -> bool {
        let dx = IntervalState::default();
        let dy = IntervalState::default();
        let sx = self.intervals.get(x).unwrap_or(&dx);
        let sy = self.intervals.get(y).unwrap_or(&dy);
        thm19::eval_now(rel, sx, sy)
    }

    /// Register a named watch on `rel(x, y)`. Its verdict transitions
    /// are reported by [`OnlineMonitor::poll`]. Re-registering a name
    /// replaces the old watch (idempotent under at-least-once replay);
    /// an identical re-registration keeps the settled verdict.
    pub fn watch(
        &mut self,
        name: impl Into<String>,
        rel: Relation,
        x: impl Into<String>,
        y: impl Into<String>,
    ) {
        self.watches.watch(name, rel, x, y);
    }

    /// Current verdicts of all watches, in registration order. Settled
    /// watches report their frozen permanent verdict without being
    /// re-checked (their operands may already be pruned).
    pub fn verdicts(&self) -> Vec<(String, Verdict)> {
        self.watches.verdicts(|rel, x, y| self.check(rel, x, y))
    }

    /// Re-evaluate every watch and return those whose verdict changed
    /// since the last poll (or since registration). A real-time
    /// deployment calls this after feeding each batch of events and
    /// alarms on `Violated` transitions.
    ///
    /// A watch that reaches `Holds`/`Violated` is **settled**: the
    /// verdict is permanent (on a healthy monitor because the exact
    /// rules are monotone under closure; while degraded because the
    /// only verdict that escapes decay is an `∃∃` witness, which is
    /// real). Settled watches are frozen and never re-checked, which is
    /// what lets [`OnlineMonitor::prune`] retire their operands.
    ///
    /// Polling is **incremental**: only *dirty* watches — those whose
    /// operand intervals gained an event or closed since the last
    /// poll — are re-checked, via the label → watch inverted index.
    /// `check` is a pure function of interval state plus the
    /// degradation flag, so a clean watch's verdict cannot have moved;
    /// the one non-label input, [`OnlineMonitor::is_degraded`], is
    /// edge-detected across polls and a flip in either direction
    /// forces a full re-check of every open watch.
    pub fn poll(&mut self) -> Vec<WatchEvent> {
        let degraded = self.is_degraded();
        let force = degraded != self.last_poll_degraded;
        self.last_poll_degraded = degraded;
        // The registry is moved out for the poll so `check` can borrow
        // the rest of the monitor.
        let mut watches = std::mem::take(&mut self.watches);
        let (events, _) = watches.poll(force, |rel, x, y| self.check(rel, x, y));
        self.watches = watches;
        self.prune();
        events
    }

    /// The monotonicity-aware verdict for `rel(X, Y)`, decayed for
    /// degradation ([`crate::watch::verdict`]).
    ///
    /// On a healthy monitor this is exactly
    /// [`OnlineMonitor::check_exact`]. While degraded
    /// ([`OnlineMonitor::is_degraded`]), applied clocks only
    /// under-approximate causality: `R4`/`R4'` [`Verdict::Holds`]
    /// survives, every other settled verdict becomes
    /// [`Verdict::Unknown`], and [`Verdict::Pending`] stays pending.
    pub fn check(&self, rel: Relation, x: &str, y: &str) -> Verdict {
        let v = self.decide(rel, x, y, self.is_degraded());
        let c = &self.stats.verdicts[v.code() as usize];
        c.set(c.get() + 1);
        v
    }

    /// The monotonicity-aware three-valued verdict for `rel(X, Y)`,
    /// assuming the monitor saw a faithful linearization (no buffered
    /// or lost reports).
    pub fn check_exact(&self, rel: Relation, x: &str, y: &str) -> Verdict {
        self.decide(rel, x, y, false)
    }

    fn decide(&self, rel: Relation, x: &str, y: &str, degraded: bool) -> Verdict {
        // A retired interval's member data is gone; nothing exact can
        // be said about relations involving it.
        if self.is_retired(x) || self.is_retired(y) {
            return Verdict::Unknown;
        }
        let (xc, yc) = (self.is_closed(x), self.is_closed(y));
        verdict(rel, self.holds_now(rel, x, y), xc, yc, degraded, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_maintenance_matches_offline() {
        // Mirror a 3-process execution in both the monitor and the
        // offline builder; clocks must agree event by event.
        use synchrel_core::{EventId, ExecutionBuilder};
        let mut m = OnlineMonitor::new(3);
        let mut b = ExecutionBuilder::new(3);

        m.internal(0, &[]).unwrap();
        b.internal(0);
        let om = m.send(0, &[]).unwrap();
        let (_, tok) = b.send(0);
        m.recv(1, om, &[]).unwrap();
        b.recv(1, tok).unwrap();
        m.internal(2, &[]).unwrap();
        b.internal(2);
        let om2 = m.send(1, &[]).unwrap();
        let (_, tok2) = b.send(1);
        m.recv(2, om2, &[]).unwrap();
        b.recv(2, tok2).unwrap();
        let e = b.build().unwrap();

        // Monitor's final clock per process equals the clock of that
        // process's last application event.
        assert_eq!(m.clocks[0], e.clock(EventId::new(0, 2)));
        assert_eq!(m.clocks[1], e.clock(EventId::new(1, 2)));
        assert_eq!(m.clocks[2], e.clock(EventId::new(2, 2)));
    }

    #[test]
    fn r1_early_violation() {
        let mut m = OnlineMonitor::new(2);
        m.internal(0, &["x"]).unwrap();
        m.internal(1, &["y"]).unwrap(); // concurrent with x
                                        // Neither interval closed, but R1 is already permanently broken.
        assert_eq!(m.check(Relation::R1, "x", "y"), Verdict::Violated);
    }

    #[test]
    fn r4_early_confirmation() {
        let mut m = OnlineMonitor::new(2);
        let msg = m.send(0, &["x"]).unwrap();
        m.recv(1, msg, &["y"]).unwrap();
        assert_eq!(m.check(Relation::R4, "x", "y"), Verdict::Holds);
        // The converse direction stays pending until both close…
        assert_eq!(m.check(Relation::R4, "y", "x"), Verdict::Pending);
        m.close("x");
        m.close("y");
        assert_eq!(m.check(Relation::R4, "y", "x"), Verdict::Violated);
    }

    #[test]
    fn r1_settles_on_close() {
        let mut m = OnlineMonitor::new(2);
        let msg = m.send(0, &["x"]).unwrap();
        m.recv(1, msg, &["y"]).unwrap();
        assert_eq!(m.check(Relation::R1, "x", "y"), Verdict::Pending);
        m.close("x");
        assert_eq!(m.check(Relation::R1, "x", "y"), Verdict::Pending);
        m.close("y");
        assert_eq!(m.check(Relation::R1, "x", "y"), Verdict::Holds);
    }

    #[test]
    fn r2_settles_when_x_closes() {
        let mut m = OnlineMonitor::new(2);
        let msg = m.send(0, &["x"]).unwrap();
        m.close("x");
        m.recv(1, msg, &["y"]).unwrap();
        // Every (final) x has a y after it; more y cannot break it.
        assert_eq!(m.check(Relation::R2, "x", "y"), Verdict::Holds);
    }

    #[test]
    fn r2_violated_when_y_closes() {
        let mut m = OnlineMonitor::new(2);
        let msg = m.send(0, &["x"]).unwrap();
        m.recv(1, msg, &["y"]).unwrap();
        m.internal(0, &["x"]).unwrap(); // a second x, after y's last event
        m.close("y");
        assert_eq!(m.check(Relation::R2, "x", "y"), Verdict::Violated);
    }

    #[test]
    fn r3_and_r3p() {
        let mut m = OnlineMonitor::new(3);
        // x1 on p0 precedes both y's via messages.
        let m1 = m.send(0, &["x"]).unwrap();
        let m2 = m.send(0, &["x"]).unwrap();
        m.recv(1, m1, &["y"]).unwrap();
        m.recv(2, m2, &["y"]).unwrap();
        m.close("x");
        m.close("y");
        assert_eq!(m.check(Relation::R3, "x", "y"), Verdict::Holds);
        assert_eq!(m.check(Relation::R3p, "x", "y"), Verdict::Holds);
        assert_eq!(m.check(Relation::R3, "y", "x"), Verdict::Violated);
    }

    #[test]
    fn r2p_needs_single_witness() {
        let mut m = OnlineMonitor::new(4);
        // x1@p0, x2@p1; y1@p2 hears only x1; y2@p3 hears only x2.
        let m1 = m.send(0, &["x"]).unwrap();
        let m2 = m.send(1, &["x"]).unwrap();
        m.recv(2, m1, &["y"]).unwrap();
        m.recv(3, m2, &["y"]).unwrap();
        m.close("x");
        m.close("y");
        assert_eq!(m.check(Relation::R2, "x", "y"), Verdict::Holds);
        assert_eq!(m.check(Relation::R2p, "x", "y"), Verdict::Violated);
    }

    #[test]
    fn closed_interval_rejects_events() {
        let mut m = OnlineMonitor::new(1);
        m.internal(0, &["x"]).unwrap();
        m.close("x");
        assert_eq!(
            m.internal(0, &["x"]),
            Err(OnlineError::IntervalClosed("x".into()))
        );
    }

    #[test]
    fn duplicate_receive_rejected() {
        let mut m = OnlineMonitor::new(2);
        let msg = m.send(0, &[]).unwrap();
        m.recv(1, msg, &[]).unwrap();
        let before = m.clone();
        assert_eq!(m.recv(1, msg, &[]), Err(OnlineError::DuplicateMessage(0)));
        assert_eq!(m.clocks, before.clocks, "no clock moved");
        assert_eq!(m.pos, before.pos);
    }

    #[test]
    fn forged_message_rejected() {
        let mut m = OnlineMonitor::new(2);
        let _ = m.send(0, &[]).unwrap();
        let before = m.clone();
        // Token 7 was never issued by this monitor.
        assert_eq!(
            m.recv(1, OnlineMsg(7), &[]),
            Err(OnlineError::ForgedMessage(7))
        );
        assert_eq!(m.clocks, before.clocks);
        assert_eq!(m.pos, before.pos);
        assert_eq!(m.msgs.len(), 1, "issued message still available");
    }

    #[test]
    fn recv_unknown_process_leaves_message_available() {
        let mut m = OnlineMonitor::new(2);
        let msg = m.send(0, &[]).unwrap();
        assert_eq!(m.recv(9, msg, &[]), Err(OnlineError::UnknownProcess(9)));
        // The failed receive consumed nothing; a correct retry works.
        m.recv(1, msg, &[]).unwrap();
    }

    #[test]
    fn recv_closed_interval_leaves_state_unchanged() {
        let mut m = OnlineMonitor::new(2);
        let msg = m.send(0, &["x"]).unwrap();
        m.internal(1, &["y"]).unwrap();
        m.close("y");
        let before = m.clone();
        assert_eq!(
            m.recv(1, msg, &["y"]),
            Err(OnlineError::IntervalClosed("y".into()))
        );
        assert_eq!(m.clocks, before.clocks, "clock did not tick");
        assert_eq!(m.pos, before.pos);
        assert_eq!(m.interval_len("y"), 1);
        // The message was not consumed: retry under an open label works.
        m.recv(1, msg, &["z"]).unwrap();
    }

    #[test]
    fn internal_and_send_closed_interval_do_not_tick() {
        let mut m = OnlineMonitor::new(1);
        m.internal(0, &["x"]).unwrap();
        m.close("x");
        let before = m.clone();
        assert_eq!(
            m.internal(0, &["x"]),
            Err(OnlineError::IntervalClosed("x".into()))
        );
        assert_eq!(
            m.send(0, &["x"]).unwrap_err(),
            OnlineError::IntervalClosed("x".into())
        );
        assert_eq!(m.clocks, before.clocks, "no clock moved on error");
        assert_eq!(m.pos, before.pos);
        assert_eq!(m.next_msg, before.next_msg, "no message id leaked");
    }

    #[test]
    fn wire_in_order_matches_token_api() {
        let mut wire = OnlineMonitor::new(2);
        wire.ingest(0, 0, WireEvent::Send { msg: 7 }, &["x"])
            .unwrap();
        wire.ingest(1, 0, WireEvent::Recv { msg: 7 }, &["y"])
            .unwrap();
        let mut tok = OnlineMonitor::new(2);
        let msg = tok.send(0, &["x"]).unwrap();
        tok.recv(1, msg, &["y"]).unwrap();
        assert_eq!(wire.clocks, tok.clocks);
        assert!(!wire.is_degraded());
        wire.close("x");
        wire.close("y");
        assert_eq!(wire.check(Relation::R1, "x", "y"), Verdict::Holds);
    }

    #[test]
    fn wire_out_of_order_buffers_then_settles_exactly() {
        let mut m = OnlineMonitor::new(2);
        // The receive report outruns its send report.
        assert_eq!(
            m.ingest(1, 0, WireEvent::Recv { msg: 7 }, &["y"]).unwrap(),
            Ingest::Buffered
        );
        assert!(m.is_degraded());
        assert_eq!(m.pending(), 1);
        // Nothing settled yet, so nothing decays past Pending.
        assert_eq!(m.check(Relation::R1, "x", "y"), Verdict::Pending);
        // The send arrives and unblocks the buffered receive.
        assert_eq!(
            m.ingest(0, 0, WireEvent::Send { msg: 7 }, &["x"]).unwrap(),
            Ingest::Applied(2)
        );
        assert!(!m.is_degraded(), "fully caught up: exact again");
        m.close("x");
        m.close("y");
        assert_eq!(m.check(Relation::R1, "x", "y"), Verdict::Holds);
    }

    #[test]
    fn wire_duplicates_and_stale_reports_discarded() {
        let mut m = OnlineMonitor::new(1);
        assert_eq!(
            m.ingest(0, 0, WireEvent::Internal, &["x"]).unwrap(),
            Ingest::Applied(1)
        );
        // Replay of an applied report.
        assert_eq!(
            m.ingest(0, 0, WireEvent::Internal, &["x"]).unwrap(),
            Ingest::Duplicate
        );
        // Future report buffers; its replay is also a duplicate.
        assert_eq!(
            m.ingest(0, 2, WireEvent::Internal, &[]).unwrap(),
            Ingest::Buffered
        );
        assert_eq!(
            m.ingest(0, 2, WireEvent::Internal, &[]).unwrap(),
            Ingest::Duplicate
        );
        assert_eq!(m.interval_len("x"), 1, "duplicates joined no interval");
        // The gap fills; the buffered follower drains with it.
        assert_eq!(
            m.ingest(0, 1, WireEvent::Internal, &[]).unwrap(),
            Ingest::Applied(2)
        );
        assert_eq!(m.pending(), 0);
        assert!(!m.is_degraded());
    }

    #[test]
    fn declare_lost_concedes_gaps_and_degrades() {
        let mut m = OnlineMonitor::new(2);
        // p0's seq-0 send report is lost; its seq-1 internal arrives.
        assert_eq!(
            m.ingest(0, 1, WireEvent::Internal, &["x"]).unwrap(),
            Ingest::Buffered
        );
        // p1 receives the lost send's message; the send clock is unknown.
        assert_eq!(
            m.ingest(1, 0, WireEvent::Recv { msg: 7 }, &["y"]).unwrap(),
            Ingest::Buffered
        );
        assert_eq!(m.pending(), 2);
        assert_eq!(m.declare_lost().unwrap(), 1, "one slot conceded");
        assert_eq!(m.pending(), 0);
        assert_eq!(m.lost(), 1);
        assert!(m.is_degraded(), "degradation is sticky");
        m.close("x");
        m.close("y");
        // The blind receive broke the causal link: nothing settled can
        // be trusted except ∃∃ presence.
        assert_eq!(m.check(Relation::R1, "x", "y"), Verdict::Unknown);
        assert_eq!(m.check(Relation::R4, "x", "y"), Verdict::Unknown);
    }

    #[test]
    fn r4_witness_survives_degradation() {
        let mut m = OnlineMonitor::new(2);
        m.ingest(0, 0, WireEvent::Send { msg: 1 }, &["x"]).unwrap();
        m.ingest(1, 0, WireEvent::Recv { msg: 1 }, &["y"]).unwrap();
        // A second message's send report is lost forever.
        m.ingest(1, 1, WireEvent::Recv { msg: 2 }, &["y"]).unwrap();
        assert_eq!(m.declare_lost().unwrap(), 0, "no slot, only a blind recv");
        assert!(m.is_degraded());
        m.close("x");
        m.close("y");
        // The msg-1 witness was observed with full causal info: the
        // believed x ≺ y is really true, so R4 still Holds.
        assert_eq!(m.check(Relation::R4, "x", "y"), Verdict::Holds);
        // Universal claims can no longer be trusted.
        assert_eq!(m.check(Relation::R1, "x", "y"), Verdict::Unknown);
        assert_eq!(m.check(Relation::R2, "x", "y"), Verdict::Unknown);
        // Exact rules would have said:
        assert_eq!(m.check_exact(Relation::R4, "x", "y"), Verdict::Holds);
    }

    #[test]
    fn flush_retries_after_closed_interval() {
        let mut m = OnlineMonitor::new(1);
        m.ingest(0, 0, WireEvent::Internal, &["x"]).unwrap();
        m.close("x");
        // A buffered report tagged with the closed label fails to drain…
        assert_eq!(
            m.ingest(0, 2, WireEvent::Internal, &["x"]).unwrap(),
            Ingest::Buffered
        );
        assert_eq!(
            m.ingest(0, 1, WireEvent::Internal, &[]).unwrap_err(),
            OnlineError::IntervalClosed("x".into())
        );
        // …but stays buffered rather than being lost.
        assert_eq!(m.pending(), 1);
        assert_eq!(m.flush(), Err(OnlineError::IntervalClosed("x".into())));
    }

    #[test]
    fn unknown_process_rejected() {
        let mut m = OnlineMonitor::new(2);
        assert_eq!(m.internal(5, &[]), Err(OnlineError::UnknownProcess(5)));
    }

    #[test]
    fn empty_interval_semantics() {
        let mut m = OnlineMonitor::new(2);
        m.internal(0, &["x"]).unwrap();
        m.close("x");
        m.close("nothing");
        // ∀∀ vacuous, ∃∃ false.
        assert_eq!(m.check(Relation::R1, "x", "nothing"), Verdict::Holds);
        assert_eq!(m.check(Relation::R4, "x", "nothing"), Verdict::Violated);
        assert_eq!(m.check(Relation::R2, "nothing", "x"), Verdict::Holds);
        assert_eq!(m.check(Relation::R3, "nothing", "x"), Verdict::Violated);
    }

    #[test]
    fn watches_report_transitions() {
        let mut m = OnlineMonitor::new(2);
        m.watch("order", Relation::R1, "x", "y");
        m.watch("flow", Relation::R4, "x", "y");
        assert!(m.poll().is_empty(), "both start Pending");

        let msg = m.send(0, &["x"]).unwrap();
        m.recv(1, msg, &["y"]).unwrap();
        let events = m.poll();
        // R4 settles to Holds as soon as one pair flows.
        assert_eq!(
            events,
            vec![WatchEvent {
                name: "flow".into(),
                verdict: Verdict::Holds
            }]
        );

        m.close("x");
        m.close("y");
        let events = m.poll();
        assert_eq!(
            events,
            vec![WatchEvent {
                name: "order".into(),
                verdict: Verdict::Holds
            }]
        );
        assert!(m.poll().is_empty(), "no repeat notifications");
        assert_eq!(
            m.verdicts(),
            vec![
                ("order".to_string(), Verdict::Holds),
                ("flow".to_string(), Verdict::Holds)
            ]
        );
    }

    #[test]
    fn poll_recheck_is_label_incremental() {
        let mut m = OnlineMonitor::new(2);
        m.watch("order", Relation::R1, "x", "y");
        m.poll(); // initial poll checks the fresh watch once
        let base = m.stats().checks();
        // Events on an unrelated label leave the watch clean.
        m.internal(0, &["z"]).unwrap();
        m.internal(0, &[]).unwrap();
        m.poll();
        assert_eq!(m.stats().checks(), base, "clean watch was re-checked");
        // An event on an operand label dirties exactly that watch.
        m.internal(0, &["x"]).unwrap();
        m.poll();
        assert_eq!(m.stats().checks(), base + 1);
        // A degradation flip forces a re-check with no label movement.
        m.ingest(1, 5, WireEvent::Internal, &[]).unwrap(); // buffered
        assert!(m.is_degraded());
        m.poll();
        assert_eq!(m.stats().checks(), base + 2);
        // Degraded but unchanged, no label movement: nothing to do.
        m.poll();
        assert_eq!(m.stats().checks(), base + 2);
        // Closing an operand dirties the watch again.
        m.close("y");
        m.poll();
        assert_eq!(m.stats().checks(), base + 3);
    }

    #[test]
    fn watch_violation_alarm() {
        let mut m = OnlineMonitor::new(2);
        m.watch("order", Relation::R1, "x", "y");
        m.internal(1, &["y"]).unwrap(); // y before any x
        m.internal(0, &["x"]).unwrap();
        let events = m.poll();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].verdict, Verdict::Violated);
    }

    #[test]
    fn stats_track_ingest_and_verdicts() {
        let mut m = OnlineMonitor::new(2);
        assert_eq!(m.stats(), MonitorStats::default());
        // Out-of-order: seq 1 buffers, seq 0 applies and drains it.
        m.ingest(0, 1, WireEvent::Internal, &["x"]).unwrap();
        m.ingest(0, 1, WireEvent::Internal, &["x"]).unwrap(); // duplicate
        m.ingest(0, 0, WireEvent::Internal, &["x"]).unwrap();
        m.ingest(1, 0, WireEvent::Internal, &["y"]).unwrap();
        let s = m.stats();
        assert_eq!(s.applied, 3);
        assert_eq!(s.buffered, 1);
        assert_eq!(s.duplicates, 1);
        assert_eq!(s.max_pending, 1);
        assert_eq!(s.pending, 0);
        assert!(!s.degraded);
        assert!(s.flushes >= 1);
        // Verdict tallies: x and y are concurrent, R1 is violated.
        assert_eq!(m.check(Relation::R1, "x", "y"), Verdict::Violated);
        assert_eq!(m.check(Relation::R4, "x", "y"), Verdict::Pending);
        let s = m.stats();
        assert_eq!(s.violated, 1);
        assert_eq!(s.pending_verdicts, 1);
        assert_eq!(s.checks(), 2);
        assert_eq!(s.unknown_rate(), 0.0);
    }

    #[test]
    fn stats_unknown_rate_under_degradation() {
        let mut m = OnlineMonitor::new(2);
        m.ingest(0, 1, WireEvent::Internal, &["x"]).unwrap();
        m.ingest(1, 0, WireEvent::Internal, &["y"]).unwrap();
        m.declare_lost().unwrap();
        m.close("x");
        m.close("y");
        assert_eq!(m.check(Relation::R1, "x", "y"), Verdict::Unknown);
        assert_eq!(m.check(Relation::R2, "x", "y"), Verdict::Unknown);
        let s = m.stats();
        assert_eq!(s.lost, 1);
        assert!(s.degraded);
        assert_eq!(s.unknown, 2);
        assert_eq!(s.unknown_rate(), 1.0);
    }

    #[test]
    fn stats_export_to_registry() {
        let mut m = OnlineMonitor::new(1);
        m.ingest(0, 0, WireEvent::Internal, &["x"]).unwrap();
        m.close("x");
        m.check(Relation::R4, "x", "x");
        let mut reg = MetricsRegistry::new();
        m.export_metrics(&mut reg);
        let text = reg.render_prometheus();
        assert!(text.contains("synchrel_monitor_applied_total 1\n"));
        assert!(text.contains("# TYPE synchrel_monitor_verdicts_total counter\n"));
        assert!(text.contains("synchrel_monitor_verdicts_total{verdict=\"holds\"} 1\n"));
        assert!(text.contains("synchrel_monitor_unknown_rate 0\n"));
    }

    #[test]
    fn interval_len_tracks() {
        let mut m = OnlineMonitor::new(1);
        assert_eq!(m.interval_len("x"), 0);
        m.internal(0, &["x"]).unwrap();
        m.internal(0, &["x", "z"]).unwrap();
        assert_eq!(m.interval_len("x"), 2);
        assert_eq!(m.interval_len("z"), 1);
    }

    #[test]
    fn pruning_reclaims_settled_interval_state() {
        let mut m = OnlineMonitor::new(2).with_pruning();
        assert!(m.pruning_enabled());
        m.watch("order", Relation::R1, "x", "y");
        let msg = m.send(0, &["x"]).unwrap();
        m.recv(1, msg, &["y"]).unwrap();
        m.close("x");
        m.close("y");
        let events = m.poll();
        assert_eq!(
            events,
            vec![WatchEvent {
                name: "order".into(),
                verdict: Verdict::Holds
            }]
        );
        // The watch settled, so the auto-prune at the end of poll()
        // retired both intervals; closed/length semantics survive.
        assert!(m.is_retired("x") && m.is_retired("y"));
        assert!(m.is_closed("x") && m.is_closed("y"));
        assert_eq!(m.interval_len("x"), 1);
        assert_eq!(m.interval_len("y"), 1);
        // Frozen verdicts keep reporting without the member data.
        assert_eq!(m.verdicts(), vec![("order".to_string(), Verdict::Holds)]);
        assert!(m.poll().is_empty(), "no repeat notifications");
        // Ad-hoc checks on retired labels concede Unknown.
        assert_eq!(m.check_exact(Relation::R1, "x", "y"), Verdict::Unknown);
        assert_eq!(m.check(Relation::R4, "x", "y"), Verdict::Unknown);
        // Retired labels still reject new members like closed ones.
        assert!(m.internal(0, &["x"]).is_err());
        let s = m.stats();
        assert_eq!(s.intervals_reclaimed, 2);
        assert_eq!(s.resident_intervals, 0);
    }

    #[test]
    fn pruning_is_opt_in() {
        let mut m = OnlineMonitor::new(2);
        assert!(!m.pruning_enabled());
        m.watch("order", Relation::R1, "x", "y");
        let msg = m.send(0, &["x"]).unwrap();
        m.recv(1, msg, &["y"]).unwrap();
        m.close("x");
        m.close("y");
        m.poll();
        assert_eq!(m.prune(), 0, "disabled prune is a no-op");
        assert!(!m.is_retired("x"));
        let s = m.stats();
        assert_eq!(s.intervals_reclaimed, 0);
        assert_eq!(s.resident_intervals, 2);
        // Member data is intact, so ad-hoc checks stay exact.
        assert_eq!(m.check_exact(Relation::R1, "x", "y"), Verdict::Holds);
    }

    #[test]
    fn pruning_waits_for_unsettled_watches() {
        let mut m = OnlineMonitor::new(2).with_pruning();
        m.watch("flow", Relation::R4, "x", "y");
        m.watch("order", Relation::R1, "x", "y");
        let msg = m.send(0, &["x"]).unwrap();
        m.recv(1, msg, &["y"]).unwrap();
        m.poll(); // flow settles Holds; order still Pending
        m.close("x");
        // x is closed but the unsettled R1 watch still references it.
        assert!(!m.is_retired("x"));
        assert_eq!(m.stats().resident_intervals, 2);
        m.close("y");
        m.poll(); // order settles Holds; nothing pins x/y any more
        assert!(m.is_retired("x") && m.is_retired("y"));
        assert_eq!(m.stats().intervals_reclaimed, 2);
    }

    #[test]
    fn long_stream_residency_is_bounded_and_matches_unpruned_twin() {
        // Epoch churn: each epoch opens a fresh pair of intervals,
        // watches R1 across a message, closes both, and polls. With
        // pruning the resident set stays O(active); the unpruned twin
        // accumulates the whole history. Poll events and final
        // verdicts must be identical.
        let mut pruned = OnlineMonitor::new(3).with_pruning();
        let mut plain = OnlineMonitor::new(3);
        let epochs = 300u64;
        let mut max_resident = 0;
        for epoch in 0..epochs {
            let a = format!("a{epoch}");
            let b = format!("b{epoch}");
            let p = (synchrel_sim::fault::mix(9, 1, epoch) % 3) as usize;
            let q = (p + 1) % 3;
            let run = |m: &mut OnlineMonitor| {
                m.watch(format!("w{epoch}"), Relation::R1, &a, &b);
                let msg = m.send(p, &[a.as_str()]).unwrap();
                m.recv(q, msg, &[b.as_str()]).unwrap();
                m.close(&a);
                m.close(&b);
                m.poll()
            };
            let ep = run(&mut pruned);
            let eu = run(&mut plain);
            assert_eq!(ep, eu, "poll events diverged at epoch {epoch}");
            max_resident = max_resident.max(pruned.stats().resident_intervals);
        }
        assert_eq!(pruned.verdicts(), plain.verdicts());
        assert!(
            max_resident <= 4,
            "resident intervals grew with history: {max_resident}"
        );
        let sp = pruned.stats();
        assert_eq!(sp.intervals_reclaimed, 2 * epochs);
        assert_eq!(sp.resident_intervals, 0);
        assert_eq!(plain.stats().resident_intervals, 2 * epochs);
        assert_eq!(plain.stats().intervals_reclaimed, 0);
    }

    #[test]
    fn pruning_counters_export_to_registry() {
        let mut m = OnlineMonitor::new(2).with_pruning();
        m.watch("order", Relation::R1, "x", "y");
        let msg = m.send(0, &["x"]).unwrap();
        m.recv(1, msg, &["y"]).unwrap();
        m.close("x");
        m.close("y");
        m.poll();
        let mut reg = MetricsRegistry::new();
        m.export_metrics(&mut reg);
        let text = reg.render_prometheus();
        assert!(
            text.contains("# TYPE synchrel_monitor_intervals_reclaimed_total counter\n"),
            "{text}"
        );
        assert!(text.contains("synchrel_monitor_intervals_reclaimed_total 2\n"));
        assert!(text.contains("synchrel_monitor_resident_intervals 0\n"));
    }

    /// A monitor mid-stream: a settled watch, an open interval, a
    /// buffered out-of-order report, and a pending wire message.
    fn busy_monitor() -> OnlineMonitor {
        let mut m = OnlineMonitor::new(3);
        m.watch("order", Relation::R1, "x", "y");
        m.watch("witness", Relation::R4, "x", "z");
        m.ingest(0, 0, WireEvent::Send { msg: 9 }, &["x"]).unwrap();
        m.ingest(1, 0, WireEvent::Recv { msg: 9 }, &["y"]).unwrap();
        m.close("x");
        // Out of order on p2: seq 1 buffers until seq 0 arrives.
        assert_eq!(
            m.ingest(2, 1, WireEvent::Internal, &["z"]).unwrap(),
            Ingest::Buffered
        );
        m.poll();
        m
    }

    #[test]
    fn snapshot_round_trip_is_byte_stable_and_equivalent() {
        let m = busy_monitor();
        let bytes = m.snapshot_bytes();
        let restored = OnlineMonitor::restore_bytes(&bytes).expect("restore");
        // Serializing the restored monitor reproduces the same bytes —
        // nothing was lost or reordered.
        assert_eq!(restored.snapshot_bytes(), bytes);

        // Both twins continue identically.
        let mut a = m;
        let mut b = restored;
        for t in [&mut a, &mut b] {
            t.ingest(2, 0, WireEvent::Internal, &["z"]).unwrap();
            t.ingest(1, 1, WireEvent::Send { msg: 11 }, &["y"]).unwrap();
            t.close("y");
            t.close("z");
        }
        assert_eq!(a.verdicts(), b.verdicts());
        let (mut sa, mut sb) = (a.stats(), b.stats());
        sa.flush_nanos = 0;
        sb.flush_nanos = 0;
        assert_eq!(sa, sb);
        for rel in Relation::ALL {
            assert_eq!(a.check(rel, "x", "y"), b.check(rel, "x", "y"));
            assert_eq!(a.check(rel, "x", "z"), b.check(rel, "x", "z"));
        }
    }

    #[test]
    fn snapshot_preserves_held_buffer_and_dedup_evidence() {
        let m = busy_monitor();
        let mut r = OnlineMonitor::restore_bytes(&m.snapshot_bytes()).unwrap();
        assert_eq!(r.pending(), 1);
        // The buffered report is still known: re-delivery dedups.
        assert_eq!(
            r.ingest(2, 1, WireEvent::Internal, &["z"]).unwrap(),
            Ingest::Duplicate
        );
        // The gap report unblocks both.
        assert_eq!(
            r.ingest(2, 0, WireEvent::Internal, &["z"]).unwrap(),
            Ingest::Applied(2)
        );
        assert_eq!(r.pending(), 0);
    }

    #[test]
    fn declare_complete_works_on_a_restored_monitor() {
        // The tail-loss concession must be issuable after a restore:
        // the restored monitor still knows each process's watermark.
        let mut m = OnlineMonitor::new(2);
        m.ingest(0, 0, WireEvent::Send { msg: 0 }, &["x"]).unwrap();
        m.ingest(1, 0, WireEvent::Recv { msg: 0 }, &["y"]).unwrap();
        let mut r = OnlineMonitor::restore_bytes(&m.snapshot_bytes()).unwrap();
        // p1 actually emitted two reports; the second never arrived.
        assert_eq!(r.declare_complete(&[1, 2]).unwrap(), 1);
        assert!(r.is_degraded());
        r.close("x");
        r.close("y");
        assert_eq!(r.check(Relation::R1, "x", "y"), Verdict::Unknown);
        assert_eq!(r.check(Relation::R4, "x", "y"), Verdict::Holds);
    }

    #[test]
    fn restore_rejects_damaged_snapshots() {
        let bytes = busy_monitor().snapshot_bytes();
        // Truncation at any point fails (never a silent partial state).
        for cut in 0..bytes.len() {
            assert!(
                OnlineMonitor::restore_bytes(&bytes[..cut]).is_err(),
                "truncation to {cut} bytes was accepted"
            );
        }
        // Wrong magic and unsupported version are refused.
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert!(OnlineMonitor::restore_bytes(&bad).is_err());
        let mut bad = bytes.clone();
        bad[SNAPSHOT_MAGIC.len()] = SNAPSHOT_VERSION + 1;
        assert!(OnlineMonitor::restore_bytes(&bad).is_err());
        // Trailing garbage is refused too.
        let mut bad = bytes;
        bad.push(0);
        assert!(OnlineMonitor::restore_bytes(&bad).is_err());
    }
}
