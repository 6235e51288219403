//! Sharded online monitoring: consistent-hash partitioning with a
//! Theorem-19 cross-shard coordinator.
//!
//! One [`OnlineMonitor`] holds all clocks, buffers, and watches — the
//! apply path that caps throughput. A sharded deployment splits that
//! state across `K` full-width monitors ("shards"), each ingesting
//! only the wire reports of the **processes it owns** (a [`ShardMap`]
//! routes process groups to shards by consistent hashing). Three
//! observations make the split exact rather than approximate:
//!
//! 1. **Per-node state never straddles shards.** Every process is
//!    owned by exactly one shard, so an interval's per-node extremes
//!    and per-member clocks partition cleanly; merging the per-shard
//!    [`CutSummary`]s ([`CutSummary::merge`]) reconstructs the
//!    unsharded interval state byte-identically.
//! 2. **Theorem 19 bounds what must travel.** A cross-shard relation
//!    query needs only the summary components of the operands — past
//!    cuts plus extremal member clocks — not raw events. The
//!    [`Coordinator`] fetches per-shard summaries and caches them
//!    until the owning shard's frontier (applied-event count)
//!    advances.
//! 3. **Cross-shard causality is carried by send clocks.** A receive
//!    whose matching send applied on another shard is unblocked by
//!    shipping that send's applied clock
//!    ([`OnlineMonitor::learn_send`]); [`transfer_round_masked`]
//!    computes the pending shipments and the facade loops them to a
//!    fixpoint, which reproduces exactly the apply order an unsharded
//!    monitor's drain would have used.
//!
//! The facade itself is `ShardedServer` in `synchrel-serve`: per-shard
//! WAL-backed servers behind the single-server command surface. This
//! module holds its protocol building blocks — [`ShardMap`],
//! [`Coordinator`], [`transfer_round_masked`], [`next_concession`],
//! [`prune_candidates`], [`shard_stats`] — over plain
//! [`OnlineMonitor`]s, next to the [`WatchBook`] registry they work
//! with.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet};

use synchrel_core::thm19::{self, CutSummary};
use synchrel_core::{Relation, VectorClock};
use synchrel_sim::fault::mix;

use crate::online::{MonitorStats, OnlineMonitor, Verdict};
use crate::watch::{verdict, WatchBook};

const SALT_RING: u64 = 0x51A6;
const SALT_GROUP: u64 = 0x56E0;
/// Virtual nodes per shard on the hash ring: enough that load spreads
/// evenly at small `K`, few enough that the ring stays cache-resident.
const VNODES: u64 = 32;

/// Consistent-hash routing of processes (via their group) to shards.
///
/// The ring carries `VNODES` (32) points per shard; adding shard `K+1`
/// only inserts new points, so the assignment is **rebalance-stable**:
/// growing the shard count moves roughly `1/(K+1)` of the groups and
/// leaves the rest where they were.
#[derive(Clone, Debug)]
pub struct ShardMap {
    shards: usize,
    points: Vec<(u64, usize)>,
    /// Shard owning each process (resolved at construction).
    owner: Vec<usize>,
}

impl ShardMap {
    /// A map routing `processes` processes (each its own group) across
    /// `shards` shards.
    pub fn new(shards: usize, processes: usize) -> ShardMap {
        ShardMap::with_process_groups(shards, &(0..processes).collect::<Vec<_>>())
    }

    /// A map with explicit process groups: `groups[p]` names the group
    /// of process `p`, and a whole group always lands on one shard —
    /// how a deployment co-locates processes that message each other
    /// heavily.
    pub fn with_process_groups(shards: usize, groups: &[usize]) -> ShardMap {
        let shards = shards.max(1);
        let mut points = Vec::with_capacity(shards * VNODES as usize);
        for s in 0..shards {
            for v in 0..VNODES {
                points.push((mix(s as u64, v, SALT_RING), s));
            }
        }
        points.sort_unstable();
        let mut map = ShardMap {
            shards,
            points,
            owner: Vec::new(),
        };
        map.owner = groups
            .iter()
            .map(|&g| map.lookup(mix(g as u64, 0, SALT_GROUP)))
            .collect();
        map
    }

    fn lookup(&self, h: u64) -> usize {
        let i = self.points.partition_point(|&(p, _)| p < h);
        let (_, s) = self.points[i % self.points.len()];
        s
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Number of processes routed.
    pub fn num_processes(&self) -> usize {
        self.owner.len()
    }

    /// The shard owning process `p` (its group's ring position).
    pub fn shard_of_process(&self, p: usize) -> usize {
        self.owner[p]
    }

    /// An end-of-stream `totals` vector as shard `shard` must audit it:
    /// the totals of the processes it owns, zero for the rest (it never
    /// ingests their reports).
    pub fn owned_totals(&self, shard: usize, totals: &[u64]) -> Vec<u64> {
        totals
            .iter()
            .enumerate()
            .map(|(p, &t)| if self.owner[p] == shard { t } else { 0 })
            .collect()
    }
}

/// One pending cross-shard shipment: the applied clock of wire send
/// `msg`, destined for shard `dst` whose head-of-sequence receive is
/// blocked on it.
#[derive(Clone, Debug)]
pub struct TransferOp {
    /// Shard whose receive is blocked.
    pub dst: usize,
    /// Wire message id.
    pub msg: u64,
    /// The send's applied clock on its origin shard.
    pub clock: VectorClock,
}

/// Compute one round of cross-shard send-clock shipments: for every
/// reachable shard whose head-of-sequence receive is blocked on a
/// message some *other* reachable shard has applied the send of, emit
/// a [`TransferOp`]. Apply the ops ([`OnlineMonitor::learn_send`]) and
/// call again; an empty round is the fixpoint.
///
/// A shard marked unreachable (network-partitioned from the facade)
/// neither receives transfers nor serves as a clock source this round.
/// Deferring, not dropping — when the partition heals the ordinary
/// fixpoint re-runs over the full shard set and ships everything that
/// was masked, which is what makes post-heal state independent of when
/// the partition held.
pub fn transfer_round_masked(shards: &[&OnlineMonitor], reachable: &[bool]) -> Vec<TransferOp> {
    assert_eq!(shards.len(), reachable.len(), "one mask bit per shard");
    let mut ops = Vec::new();
    for (dst, shard) in shards.iter().enumerate() {
        if !reachable[dst] {
            continue;
        }
        for msg in shard.blocked_recv_msgs() {
            for (src, other) in shards.iter().enumerate() {
                if src == dst || !reachable[src] {
                    continue;
                }
                if let Some(clock) = other.wire_send_clock(msg) {
                    ops.push(TransferOp {
                        dst,
                        msg,
                        clock: clock.clone(),
                    });
                    break;
                }
            }
        }
    }
    ops
}

/// The next `declare_lost` concession a sharded facade must take:
/// the lowest process (ascending, exactly the unsharded order) whose
/// owning shard still buffers reports for it. Returns
/// `(shard, process)`; `None` once nothing is held anywhere.
pub fn next_concession(shards: &[&OnlineMonitor], map: &ShardMap) -> Option<(usize, usize)> {
    (0..map.num_processes()).find_map(|p| {
        let s = map.shard_of_process(p);
        (shards[s].pending_of(p) > 0).then_some((s, p))
    })
}

/// Labels to retire now: closed on their shards and referenced by no
/// unsettled watch in `book` — [`OnlineMonitor::prune`]'s rule (one
/// monitor, its own watches), decided for a sharded facade from
/// *global* watch state (which is why shard-local pruning stays
/// disabled under a facade).
pub fn prune_candidates(shards: &[&OnlineMonitor], book: &WatchBook) -> Vec<String> {
    let referenced = book.referenced();
    let mut out = Vec::new();
    let mut seen = BTreeSet::new();
    for shard in shards {
        for label in shard.interval_labels() {
            if !seen.insert(label) {
                continue;
            }
            let closed = shards.iter().any(|s| s.is_closed(label));
            if closed && !referenced.contains(label) {
                out.push(label.to_string());
            }
        }
    }
    out
}

/// The cross-shard query coordinator: fetches per-shard Theorem-19
/// summaries and caches each until the owning shard's frontier (its
/// applied-event count) advances. Evaluation against merged summaries
/// is byte-identical to the unsharded monitor's
/// ([`CutSummary::merge`] exactness); an RPC deployment would ship
/// [`CutSummary::project`]ed summaries — the cache works the same.
#[derive(Debug, Default)]
pub struct Coordinator {
    /// (shard, label) → the summary fetched at that shard's frontier.
    cache: RefCell<BTreeMap<(usize, String), CachedFetch>>,
    hits: Cell<u64>,
    misses: Cell<u64>,
}

/// One cached per-shard summary fetch: valid while the owning shard's
/// applied-event frontier still matches.
#[derive(Clone, Debug)]
struct CachedFetch {
    frontier: u64,
    summary: Option<CutSummary>,
}

impl Coordinator {
    /// An empty coordinator.
    pub fn new() -> Coordinator {
        Coordinator::default()
    }

    /// Cache hits (a summary served without touching the shard).
    pub fn cache_hits(&self) -> u64 {
        self.hits.get()
    }

    /// Cache misses (summaries fetched from a shard).
    pub fn cache_misses(&self) -> u64 {
        self.misses.get()
    }

    /// Drop every cached summary of `label` (it closed or retired —
    /// changes that do not advance any frontier).
    pub fn invalidate(&self, label: &str) {
        self.cache.borrow_mut().retain(|(_, l), _| l != label);
    }

    /// Drop the whole cache (recovery).
    pub fn clear(&self) {
        self.cache.borrow_mut().clear();
    }

    /// The interval state of `label` merged across `shards`, exactly
    /// equal to the unsharded [`OnlineMonitor`]'s interval state.
    pub fn merged(&self, shards: &[&OnlineMonitor], label: &str) -> CutSummary {
        let mut out = CutSummary::default();
        let mut cache = self.cache.borrow_mut();
        for (i, shard) in shards.iter().enumerate() {
            let frontier = shard.stats().applied;
            let key = (i, label.to_string());
            let entry = match cache.get(&key) {
                Some(c) if c.frontier == frontier => {
                    self.hits.set(self.hits.get() + 1);
                    c.summary.clone()
                }
                _ => {
                    self.misses.set(self.misses.get() + 1);
                    let fetched = shard.interval_summary(label).cloned();
                    cache.insert(
                        key,
                        CachedFetch {
                            frontier,
                            summary: fetched.clone(),
                        },
                    );
                    fetched
                }
            };
            if let Some(s) = entry {
                out.merge(&s);
            }
        }
        out
    }

    /// The facade's [`OnlineMonitor::check`] (and, on a faithful view,
    /// [`OnlineMonitor::check_exact`]): the merged-summary verdict
    /// decayed by [`verdict`] — `degraded` is the *global* flag (any
    /// shard lossy or buffering), `partitioned` that some shard is
    /// severed from the facade.
    pub fn check(
        &self,
        shards: &[&OnlineMonitor],
        degraded: bool,
        partitioned: bool,
        rel: Relation,
        x: &str,
        y: &str,
    ) -> Verdict {
        if shards.iter().any(|s| s.is_retired(x) || s.is_retired(y)) {
            return Verdict::Unknown;
        }
        let sx = self.merged(shards, x);
        let sy = self.merged(shards, y);
        let now = thm19::eval_now(rel, &sx, &sy);
        verdict(rel, now, sx.closed, sy.closed, degraded, partitioned)
    }
}

/// Aggregated monitor counters of a facade's shards: ingest-side
/// counters summed, residency over the union of resident labels,
/// verdict tallies zero (shard monitors never run `check`).
pub fn shard_stats<'a>(shards: impl IntoIterator<Item = &'a OnlineMonitor>) -> MonitorStats {
    let mut out = MonitorStats::default();
    let mut labels = BTreeSet::new();
    for shard in shards {
        let s = shard.stats();
        out.applied += s.applied;
        out.buffered += s.buffered;
        out.duplicates += s.duplicates;
        out.flushes += s.flushes;
        out.flush_nanos += s.flush_nanos;
        out.max_pending += s.max_pending;
        out.pending += s.pending;
        out.lost += s.lost;
        out.degraded |= s.degraded;
        // Retirement is broadcast, so every shard counts the same
        // labels; take the max rather than a K-fold sum.
        out.intervals_reclaimed = out.intervals_reclaimed.max(s.intervals_reclaimed);
        labels.extend(shard.interval_labels());
    }
    out.resident_intervals = labels.len() as u64;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::online::WireEvent;

    #[test]
    fn shard_map_is_deterministic_and_covers() {
        let a = ShardMap::new(4, 16);
        let b = ShardMap::new(4, 16);
        let mut used = BTreeSet::new();
        for p in 0..16 {
            assert_eq!(a.shard_of_process(p), b.shard_of_process(p));
            used.insert(a.shard_of_process(p));
        }
        assert!(used.len() > 1, "every process landed on one shard");
    }

    #[test]
    fn shard_map_growth_is_rebalance_stable() {
        let before = ShardMap::new(4, 256);
        let after = ShardMap::new(5, 256);
        let moved = (0..256)
            .filter(|&p| before.shard_of_process(p) != after.shard_of_process(p))
            .count();
        // Consistent hashing moves ~1/K of the groups on growth; half
        // is a generous ceiling that a mod-K rehash (which moves ~all)
        // blows through.
        assert!(moved > 0, "growth moved nothing — ring is degenerate");
        assert!(
            moved < 256 / 2,
            "growth moved {moved}/256 processes — not rebalance-stable"
        );
    }

    #[test]
    fn coordinator_cache_hits_until_frontier_advances() {
        // Two plain monitors stand in for two shards, each applying
        // the reports of the process it owns.
        let mut a = OnlineMonitor::new(2);
        let mut b = OnlineMonitor::new(2);
        a.ingest(0, 0, WireEvent::Internal, &["a"]).unwrap();
        b.ingest(1, 0, WireEvent::Internal, &["b"]).unwrap();
        let coord = Coordinator::new();
        let check = |a: &OnlineMonitor, b: &OnlineMonitor| {
            coord.check(&[a, b], false, false, Relation::R4, "a", "b")
        };
        check(&a, &b);
        let misses = coord.cache_misses();
        check(&a, &b);
        assert_eq!(
            coord.cache_misses(),
            misses,
            "second check re-fetched despite unchanged frontiers"
        );
        assert!(coord.cache_hits() > 0);
        // Frontier advance invalidates.
        a.ingest(0, 1, WireEvent::Internal, &["a"]).unwrap();
        check(&a, &b);
        assert!(coord.cache_misses() > misses);
    }
}
