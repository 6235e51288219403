//! # synchrel-monitor
//!
//! The real-time application layer on top of [`synchrel_core`]:
//! specification and checking of **synchronization conditions** between
//! the high-level (nonatomic) actions of a distributed application —
//! the use the paper proposes for its relations (§1, and the mutual
//! exclusion / predicate-specification applications of its ref.\[11\]).
//!
//! * [`spec`] — a serializable condition language over named nonatomic
//!   events: any of the 8 base or 32 proxy relations, boolean
//!   combinators, mutual exclusion, and total ordering.
//! * [`checker`] — offline checking of a [`spec::Spec`] against a
//!   recorded trace through one `Detector`, with violation witnesses.
//! * [`online`] — an incremental monitor that consumes events as they
//!   happen, maintains vector clocks and per-interval aggregates online,
//!   and reports each condition as holding, violated, or still pending
//!   (with early, monotonicity-aware verdicts).
//! * [`mutex`] — the distributed-mutual-exclusion checker of the
//!   paper's motivating application: verifies that critical-section
//!   intervals are pairwise ordered by `R1` (the checker's pair test).
//! * [`predicate`] — conjunctive global-predicate detection over local
//!   intervals (possibly-`∧φᵢ`), solved with the condensation cut
//!   `∪⇓S` of the interval starts.
//! * [`shard`] — the sharding protocol's building blocks:
//!   consistent-hash partitioning of processes across K full-width
//!   monitors, and a Theorem-19 coordinator merging per-shard summaries
//!   for cross-shard relation queries — verdicts byte-identical to one
//!   unsharded monitor. The facade over them is `ShardedServer` in
//!   `synchrel-serve`.
//! * [`watch`] — the one verdict rule set (settle table plus decay) and
//!   the watch registry shared by the online monitor and the facades.
//! * [`differential`] — the randomized differential-conformance harness:
//!   fault-injected simulations checked across every evaluator (naive
//!   oracle, counted, fused, online) with single-seed reproduction and
//!   shrinking; `synchrel-serve` adds the sharded stage on top.

pub mod checker;
pub mod differential;
pub mod mutex;
pub mod online;
pub mod predicate;
pub mod shard;
pub mod spec;
pub mod watch;

pub use checker::{CheckReport, Checker, ConditionReport};
pub use differential::{run_case, shrink, DiffCase, Mismatch};
pub use mutex::{MutexReport, MutexViolation};
pub use online::{Ingest, MonitorStats, OnlineError, OnlineMonitor, OnlineMsg, Verdict, WireEvent};
pub use predicate::{possibly_overlap, LocalInterval, PossiblyReport};
pub use shard::{
    next_concession, prune_candidates, shard_stats, transfer_round_masked, Coordinator, ShardMap,
    TransferOp,
};
pub use spec::{Condition, Spec};
pub use watch::{verdict, WatchBook, WatchEvent, WatchSpec};
