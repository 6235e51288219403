//! Seeded fault injection for the deterministic simulator.
//!
//! A real-time deployment never sees the happy path only: messages are
//! dropped, duplicated, reordered and delayed, links partition
//! transiently, and local clocks drift. A [`FaultPlan`] describes all of
//! those behaviours as *pure functions of a single `u64` seed*, so a
//! faulty run is exactly as reproducible as a clean one — the scenario
//! that exposed a bug is recovered byte-for-byte from its seed.
//!
//! Determinism is guaranteed by hashing, not by sampling: every
//! per-message decision (drop? duplicate? how much extra delay?) is
//! derived with a splitmix64-style hash of `(plan seed, message
//! sequence number)`, so it does not depend on the order in which the
//! scheduler happens to interleave processes.
//!
//! Wiring: [`crate::engine::Simulation::with_faults`] installs a plan;
//! the engine consults [`FaultPlan::delivery`] at every send, applies
//! per-process clock skew to *reported* event times (causality is
//! untouched — skew models bad wall clocks, not bad causal order), and
//! resolves blocked receives whose message will never arrive with a
//! deterministic receive *timeout* instead of reporting a deadlock. The
//! run records what happened in a [`FaultLog`].

use std::fmt;

use crate::engine::{Action, Latency, Simulation};

/// splitmix64 finalizer: a high-quality 64-bit mixer.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic hash of `(seed, a, b)`; the basis of every
/// fault decision and of derived case seeds in the differential
/// harness.
pub fn mix(seed: u64, a: u64, b: u64) -> u64 {
    splitmix64(seed ^ splitmix64(a).rotate_left(17) ^ splitmix64(b ^ 0x6A09_E667_F3BC_C909))
}

/// The workspace's one seeded generator: a splitmix64 stream whose
/// state starts at the raw seed. Every sampled workload, script and
/// property case draws from it, so one seed means one execution on
/// every machine and toolchain.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 raw bits.
    pub fn next_u64(&mut self) -> u64 {
        let out = splitmix64(self.0);
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        out
    }

    /// A value in `range` (`lo..hi` or `lo..=hi`): `lo + v % span`.
    /// Panics on an empty range.
    pub fn range<R: UniformRange>(&mut self, range: R) -> R::Item {
        let (lo, span) = range.lo_span();
        let v = self.next_u64();
        // span 0 is the full u64 range: every value is in it.
        R::Item::from_u64(if span == 0 { v } else { lo + v % span })
    }

    /// A float in `[0, 1)` from the top 53 bits.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// `true` with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// A uniformly chosen element, `None` when `items` is empty.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> Option<&'a T> {
        if items.is_empty() {
            return None;
        }
        items.get((self.next_u64() % items.len() as u64) as usize)
    }
}

/// Unsigned integers [`Rng::range`] draws.
pub trait Uniform: Copy {
    /// Widen to `u64`.
    fn to_u64(self) -> u64;
    /// Narrow from `u64` (the value is in range by construction).
    fn from_u64(v: u64) -> Self;
}

macro_rules! uniform {
    ($($t:ty),*) => {$(
        impl Uniform for $t {
            fn to_u64(self) -> u64 {
                self as u64
            }
            fn from_u64(v: u64) -> $t {
                v as $t
            }
        }
    )*};
}
uniform!(u8, u16, u32, u64, usize);

/// An integer range [`Rng::range`] samples: its low end and its size
/// (0 for the full `u64` range).
pub trait UniformRange {
    /// The integer type drawn.
    type Item: Uniform;
    /// `(lo, hi - lo)` for `lo..hi`, `(lo, hi - lo + 1)` for `lo..=hi`.
    fn lo_span(self) -> (u64, u64);
}

impl<T: Uniform> UniformRange for std::ops::Range<T> {
    type Item = T;
    fn lo_span(self) -> (u64, u64) {
        let (lo, hi) = (self.start.to_u64(), self.end.to_u64());
        assert!(hi > lo, "empty range");
        (lo, hi - lo)
    }
}

impl<T: Uniform> UniformRange for std::ops::RangeInclusive<T> {
    type Item = T;
    fn lo_span(self) -> (u64, u64) {
        let (lo, hi) = (self.start().to_u64(), self.end().to_u64());
        assert!(hi >= lo, "empty range");
        (lo, (hi - lo).wrapping_add(1))
    }
}

/// A transient network partition: while active, messages crossing the
/// boundary between `members` and the rest of the processes are held
/// and delivered only after the partition heals.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Partition {
    /// Processes on one side of the partition.
    pub members: Vec<usize>,
    /// Virtual time at which the partition starts.
    pub start: u64,
    /// How long it lasts; it heals at `start + duration`.
    pub duration: u64,
}

impl Partition {
    /// Does a message sent from `from` to `to` at `sent_at` cross the
    /// active partition boundary?
    fn severs(&self, from: usize, to: usize, sent_at: u64) -> bool {
        let inside = |p: usize| self.members.contains(&p);
        inside(from) != inside(to)
            && sent_at >= self.start
            && sent_at < self.start.saturating_add(self.duration)
    }

    /// The time at which held messages are released.
    fn release(&self) -> u64 {
        self.start.saturating_add(self.duration)
    }
}

/// The fate of one message under a [`FaultPlan`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Delivery {
    /// The message is lost.
    Drop,
    /// The message arrives at `arrival`; `duplicate` carries the
    /// arrival time of a spurious second copy, if one is injected.
    Deliver {
        /// Arrival time of the (first) copy.
        arrival: u64,
        /// Was the message held back by a partition?
        held: bool,
        /// Arrival time of an injected duplicate copy.
        duplicate: Option<u64>,
    },
}

/// A deterministic description of injected faults.
///
/// Probabilities are integers per 10 000 so that decisions use exact
/// integer arithmetic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed for all per-message and per-process hash decisions.
    pub seed: u64,
    /// Probability (per 10 000) that a message is dropped.
    pub drop_per_10k: u32,
    /// Probability (per 10 000) that a message is duplicated.
    pub dup_per_10k: u32,
    /// Maximum extra delivery delay per message (uniform `0..=max`);
    /// this is what reorders messages relative to clean latency.
    pub max_extra_delay: u64,
    /// Maximum per-process clock skew added to *reported* event times.
    pub max_skew: u64,
    /// Transient partitions holding crossing messages.
    pub partitions: Vec<Partition>,
}

const SALT_DROP: u64 = 0xD809;
const SALT_DELAY: u64 = 0xDE1A;
const SALT_DUP: u64 = 0xD0B1;
const SALT_DUP_DELAY: u64 = 0xD0B2;
const SALT_SKEW: u64 = 0xC10C;

impl FaultPlan {
    /// A plan that injects nothing. Installing it still arms the
    /// engine's receive-timeout path, so scripts whose receives can
    /// never be satisfied terminate instead of deadlocking.
    pub fn quiet(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            drop_per_10k: 0,
            dup_per_10k: 0,
            max_extra_delay: 0,
            max_skew: 0,
            partitions: Vec::new(),
        }
    }

    /// Derive a full plan (moderate drop/dup rates, delays, skew, and
    /// an occasional partition) entirely from `seed`.
    pub fn from_seed(seed: u64) -> FaultPlan {
        let partitions = if mix(seed, 5, 0).is_multiple_of(4) {
            vec![Partition {
                members: vec![0],
                start: mix(seed, 6, 0) % 16,
                duration: 4 + mix(seed, 7, 0) % 24,
            }]
        } else {
            Vec::new()
        };
        FaultPlan {
            seed,
            drop_per_10k: (mix(seed, 1, 0) % 1200) as u32,
            dup_per_10k: (mix(seed, 2, 0) % 2000) as u32,
            max_extra_delay: mix(seed, 3, 0) % 9,
            max_skew: mix(seed, 4, 0) % 5,
            partitions,
        }
    }

    /// Does this plan inject any fault at all?
    pub fn is_quiet(&self) -> bool {
        self.drop_per_10k == 0
            && self.dup_per_10k == 0
            && self.max_extra_delay == 0
            && self.max_skew == 0
            && self.partitions.is_empty()
    }

    fn chance(h: u64, per_10k: u32) -> bool {
        per_10k > 0 && h % 10_000 < per_10k as u64
    }

    /// The clock-skew offset of process `p` (added to reported times).
    pub fn skew_of(&self, p: usize) -> u64 {
        if self.max_skew == 0 {
            0
        } else {
            mix(self.seed, p as u64, SALT_SKEW) % (self.max_skew + 1)
        }
    }

    /// Decide the fate of message number `msg_seq` sent from `from` to
    /// `to` at `sent_at`, with fault-free arrival `base_arrival`.
    ///
    /// Purely a function of `(self, msg_seq, from, to, sent_at,
    /// base_arrival)` — independent of scheduling order.
    pub fn delivery(
        &self,
        msg_seq: u64,
        from: usize,
        to: usize,
        sent_at: u64,
        base_arrival: u64,
    ) -> Delivery {
        if Self::chance(mix(self.seed, msg_seq, SALT_DROP), self.drop_per_10k) {
            return Delivery::Drop;
        }
        let mut arrival = base_arrival;
        if self.max_extra_delay > 0 {
            arrival += mix(self.seed, msg_seq, SALT_DELAY) % (self.max_extra_delay + 1);
        }
        let mut held = false;
        for part in &self.partitions {
            if part.severs(from, to, sent_at) && arrival <= part.release() {
                arrival = part.release() + 1;
                held = true;
            }
        }
        let duplicate = if Self::chance(mix(self.seed, msg_seq, SALT_DUP), self.dup_per_10k) {
            // Strictly after the first copy so inbox keys stay unique.
            Some(arrival + 1 + mix(self.seed, msg_seq, SALT_DUP_DELAY) % (self.max_extra_delay + 2))
        } else {
            None
        };
        Delivery::Deliver {
            arrival,
            held,
            duplicate,
        }
    }
}

/// What fault injection actually did during one run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultLog {
    /// Messages dropped before delivery.
    pub dropped: u64,
    /// Messages that had a duplicate copy injected.
    pub duplicated: u64,
    /// Spurious duplicate copies discarded at the receiver.
    pub duplicates_discarded: u64,
    /// Messages delivered later than their fault-free arrival.
    pub delayed: u64,
    /// Messages held back by a transient partition.
    pub held: u64,
    /// Receives resolved by timeout (their message never arrived).
    pub timeouts: u64,
}

impl FaultLog {
    /// Did the run complete without any injected effect?
    pub fn is_clean(&self) -> bool {
        *self == FaultLog::default()
    }
}

impl fmt::Display for FaultLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "dropped {} · duplicated {} (discarded {}) · delayed {} · held {} · timeouts {}",
            self.dropped,
            self.duplicated,
            self.duplicates_discarded,
            self.delayed,
            self.held,
            self.timeouts
        )
    }
}

/// A randomized labelled simulation derived entirely from `seed`:
/// `processes` scripts of `steps_per_process` compute/send/receive
/// actions, each action labelled `I0..I{labels}` with high probability.
///
/// Scripts are *not* guaranteed receive-satisfiable — pair them with a
/// [`FaultPlan`] (even [`FaultPlan::quiet`]) so unmatched receives
/// resolve by timeout.
pub fn random_scripts(
    seed: u64,
    processes: usize,
    steps_per_process: usize,
    labels: usize,
) -> Simulation {
    let labels = labels.max(1);
    let mut rng = Rng::new(seed);
    let mut sim = Simulation::new(processes);
    if rng.chance(0.3) {
        sim = sim.with_latency(Latency::Fixed(rng.range(1..4u64)));
    }
    for p in 0..processes {
        for _ in 0..steps_per_process {
            let roll = rng.f64();
            let mut action = if roll < 0.35 && processes > 1 {
                let mut to = rng.range(0..processes - 1);
                if to >= p {
                    to += 1;
                }
                Action::send(to)
            } else if roll < 0.55 && processes > 1 {
                if rng.chance(0.4) {
                    let mut from = rng.range(0..processes - 1);
                    if from >= p {
                        from += 1;
                    }
                    Action::recv_from(from)
                } else {
                    Action::recv()
                }
            } else {
                Action::compute(rng.range(1..5u64))
            };
            if rng.chance(0.75) {
                action = action.label(format!("I{}", rng.range(0..labels)));
            }
            sim.push(p, action);
        }
    }
    sim
}

const SALT_NEM_DROP: u64 = 0x4E0D;
const SALT_NEM_DUP: u64 = 0x4E0B;
const SALT_NEM_DELAY: u64 = 0x4E0E;
const SALT_NEM_SPLIT: u64 = 0x4E05;
const SALT_NEM_RESET: u64 = 0x4E02;
const SALT_NEM_PART_START: u64 = 0x4EA0;
const SALT_NEM_PART_LEN: u64 = 0x4EA1;
const SALT_NEM_PART_DIR: u64 = 0x4EA2;

/// Which directions of an edge pair a partition window severs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PartitionKind {
    /// Both directions are cut (a symmetric partition).
    Symmetric,
    /// Only the even-numbered direction of the pair is cut.
    Forward,
    /// Only the odd-numbered direction of the pair is cut.
    Backward,
}

/// A seeded network-nemesis schedule for frame transports.
///
/// Every decision — drop, duplicate, extra delivery delay (which
/// reorders), byte-granular split, abrupt reset, partition window — is
/// a pure function of `(seed, edge, frame index)`, exactly the
/// schedule-independence discipline of [`FaultPlan`]: two runs that
/// offer the same frame sequence on an edge experience byte-identical
/// faults no matter how threads interleave.
///
/// Edges come in **pairs**: direction `2k` and `2k+1` are the two
/// halves of one link, and partition windows are decided per pair so a
/// window can sever the link symmetrically or in one direction only
/// ([`PartitionKind`]).
///
/// All faults stop at the `horizon` (frame index); every partition
/// window is clipped to it. A retrying client therefore always drives
/// an edge past its last fault, which is what lets existing harnesses
/// run to their probe phase — and byte-exact reference comparison —
/// without nemesis-specific code.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NemesisPlan {
    /// Seed for every per-frame decision.
    pub seed: u64,
    /// Probability (per 10 000) that a frame is dropped.
    pub drop_per_10k: u32,
    /// Probability (per 10 000) that a frame is delivered twice.
    pub dup_per_10k: u32,
    /// Maximum extra delivery slots per frame (reorders in-flight
    /// frames relative to later sends).
    pub max_delay: u64,
    /// Probability (per 10 000) that a frame's bytes are delivered in
    /// several byte-granular chunks instead of one piece.
    pub split_per_10k: u32,
    /// Probability (per 10 000) of an abrupt connection reset at a
    /// frame: the frame and everything in flight on the edge is lost.
    pub reset_per_10k: u32,
    /// Seeded partition windows per edge pair.
    pub partition_windows: u32,
    /// Maximum length of one partition window, in frame slots.
    pub max_partition: u64,
    /// Frame index past which the edge is fault-free (0 disables all
    /// faults).
    pub horizon: u64,
}

impl NemesisPlan {
    /// A plan that injects nothing.
    pub fn quiet(seed: u64) -> NemesisPlan {
        NemesisPlan {
            seed,
            drop_per_10k: 0,
            dup_per_10k: 0,
            max_delay: 0,
            split_per_10k: 0,
            reset_per_10k: 0,
            partition_windows: 0,
            max_partition: 0,
            horizon: 0,
        }
    }

    /// The standard nemesis mix derived entirely from `seed`: moderate
    /// drop/dup/delay rates, frequent byte splits, occasional resets,
    /// and 0–2 partition windows per edge pair, all within a seeded
    /// horizon.
    pub fn from_seed(seed: u64) -> NemesisPlan {
        NemesisPlan {
            seed,
            drop_per_10k: (mix(seed, 1, 0x4E) % 1500) as u32,
            dup_per_10k: (mix(seed, 2, 0x4E) % 1500) as u32,
            max_delay: mix(seed, 3, 0x4E) % 4,
            split_per_10k: 2000 + (mix(seed, 4, 0x4E) % 3000) as u32,
            reset_per_10k: (mix(seed, 5, 0x4E) % 400) as u32,
            partition_windows: (mix(seed, 6, 0x4E) % 3) as u32,
            max_partition: 4 + mix(seed, 7, 0x4E) % 12,
            horizon: 48 + mix(seed, 8, 0x4E) % 64,
        }
    }

    fn chance(&self, salt: u64, edge: u64, index: u64, per_10k: u32) -> bool {
        index < self.horizon
            && per_10k > 0
            && mix(self.seed, salt ^ edge.rotate_left(32), index) % 10_000 < u64::from(per_10k)
    }

    /// Is frame `index` on `edge` dropped?
    pub fn drops(&self, edge: u64, index: u64) -> bool {
        self.chance(SALT_NEM_DROP, edge, index, self.drop_per_10k)
    }

    /// Is frame `index` on `edge` delivered twice?
    pub fn duplicates(&self, edge: u64, index: u64) -> bool {
        self.chance(SALT_NEM_DUP, edge, index, self.dup_per_10k)
    }

    /// Extra delivery slots for frame `index` on `edge` (0 = on time).
    pub fn delay(&self, edge: u64, index: u64) -> u64 {
        if index >= self.horizon || self.max_delay == 0 {
            return 0;
        }
        mix(self.seed, SALT_NEM_DELAY ^ edge.rotate_left(32), index) % (self.max_delay + 1)
    }

    /// Is frame `index` on `edge` delivered in byte-granular chunks?
    pub fn splits(&self, edge: u64, index: u64) -> bool {
        self.chance(SALT_NEM_SPLIT, edge, index, self.split_per_10k)
    }

    /// Does an abrupt connection reset hit `edge` at frame `index`?
    pub fn resets(&self, edge: u64, index: u64) -> bool {
        self.chance(SALT_NEM_RESET, edge, index, self.reset_per_10k)
    }

    /// The seeded partition windows of edge pair `pair`, as
    /// `(start, end, kind)` in frame-index space, each clipped to the
    /// horizon so every partition heals.
    pub fn partitions_of(&self, pair: u64) -> Vec<(u64, u64, PartitionKind)> {
        if self.horizon == 0 {
            return Vec::new();
        }
        (0..u64::from(self.partition_windows))
            .map(|w| {
                let start = mix(self.seed, SALT_NEM_PART_START ^ pair.rotate_left(32), w)
                    % self.horizon.max(1);
                let len = 1 + mix(self.seed, SALT_NEM_PART_LEN ^ pair.rotate_left(32), w)
                    % self.max_partition.max(1);
                let kind = match mix(self.seed, SALT_NEM_PART_DIR ^ pair.rotate_left(32), w) % 3 {
                    0 => PartitionKind::Symmetric,
                    1 => PartitionKind::Forward,
                    _ => PartitionKind::Backward,
                };
                (start, (start + len).min(self.horizon), kind)
            })
            .collect()
    }

    /// Is direction `edge` (of pair `edge >> 1`) severed at frame
    /// `index` by a partition window?
    pub fn severed(&self, edge: u64, index: u64) -> bool {
        if index >= self.horizon {
            return false;
        }
        self.partitions_of(edge >> 1)
            .iter()
            .any(|&(start, end, kind)| {
                let cut = match kind {
                    PartitionKind::Symmetric => true,
                    PartitionKind::Forward => edge & 1 == 0,
                    PartitionKind::Backward => edge & 1 == 1,
                };
                cut && index >= start && index < end
            })
    }

    /// Does this plan inject any fault at all?
    pub fn is_quiet(&self) -> bool {
        self.horizon == 0
            || (self.drop_per_10k == 0
                && self.dup_per_10k == 0
                && self.max_delay == 0
                && self.split_per_10k == 0
                && self.reset_per_10k == 0
                && self.partition_windows == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The generator's stream is frozen: every pinned sweep aggregate,
    /// recorded seed and golden table was drawn from exactly these
    /// values.
    #[test]
    fn rng_stream_is_pinned() {
        let first8 = |seed| {
            let mut rng = Rng::new(seed);
            [0; 8].map(|_: u64| rng.next_u64())
        };
        assert_eq!(
            first8(0),
            [
                0xe220_a839_7b1d_cdaf,
                0x6e78_9e6a_a1b9_65f4,
                0x06c4_5d18_8009_454f,
                0xf88b_b8a8_724c_81ec,
                0x1b39_896a_51a8_749b,
                0x53cb_9f0c_747e_a2ea,
                0x2c82_9abe_1f45_32e1,
                0xc584_133a_c916_ab3c,
            ]
        );
        assert_eq!(
            first8(0xC4A0_5EED),
            [
                0xde99_64ae_0483_1939,
                0x8ae2_eff8_0d6d_0836,
                0xdb87_f415_ee3d_4ae4,
                0xd2a0_6685_3c10_cc29,
                0xf84f_8570_0dc4_1834,
                0xcfa2_432c_6513_7071,
                0xf86a_a02a_7c6b_346e,
                0x4a9f_987a_2b90_3c4e,
            ]
        );
        let mut rng = Rng::new(42);
        assert_eq!(rng.range(3..17usize), 8);
        assert_eq!(rng.range(1..=6u32), 2);
        assert!(rng.chance(0.5));
        assert_eq!(rng.f64().to_bits(), 0x3fd6_0738_7fc3_92b8);
        assert_eq!(rng.choose(&[10u8, 20, 30, 40, 50]), Some(&10));
        assert_eq!(rng.choose::<u8>(&[]), None);
        // The full u64 range is every value: the raw draw.
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        assert_eq!(a.range(0..=u64::MAX), b.next_u64());
    }

    #[test]
    fn nemesis_plan_is_deterministic_and_heals() {
        let plan = NemesisPlan::from_seed(0x4E4E);
        assert_eq!(plan, NemesisPlan::from_seed(0x4E4E));
        for edge in 0..6u64 {
            for i in 0..plan.horizon + 32 {
                assert_eq!(plan.drops(edge, i), plan.drops(edge, i));
                assert_eq!(plan.delay(edge, i), plan.delay(edge, i));
                if i >= plan.horizon {
                    assert!(!plan.drops(edge, i), "fault past horizon");
                    assert!(!plan.severed(edge, i), "partition past horizon");
                    assert_eq!(plan.delay(edge, i), 0);
                    assert!(!plan.resets(edge, i));
                }
            }
        }
        assert!(NemesisPlan::quiet(7).is_quiet());
        let quiet = NemesisPlan::quiet(7);
        assert!((0..64).all(|i| !quiet.drops(0, i) && !quiet.severed(0, i)));
    }

    #[test]
    fn nemesis_partitions_respect_direction() {
        // Scan seeds until both a symmetric and a directed window show
        // up; directed windows must cut exactly one direction.
        // One window per pair: with several, windows may legitimately
        // overlap and the leak assertion below would not hold at one
        // window's end.
        let mut saw_symmetric = false;
        let mut saw_directed = false;
        for s in 0..64u64 {
            let plan = NemesisPlan {
                partition_windows: 1,
                max_partition: 8,
                horizon: 64,
                ..NemesisPlan::quiet(s)
            };
            for (start, end, kind) in plan.partitions_of(0) {
                assert!(end <= plan.horizon);
                let fwd = plan.severed(0, start);
                let bwd = plan.severed(1, start);
                match kind {
                    PartitionKind::Symmetric => {
                        saw_symmetric = true;
                        assert!(fwd && bwd, "symmetric window cut one side");
                    }
                    PartitionKind::Forward | PartitionKind::Backward => {
                        saw_directed = true;
                    }
                }
                assert!(!plan.severed(0, end), "window leaked past its end");
                let _ = (start, fwd, bwd);
            }
        }
        assert!(saw_symmetric && saw_directed, "seed scan too narrow");
    }

    #[test]
    fn plans_are_deterministic_in_seed() {
        assert_eq!(FaultPlan::from_seed(7), FaultPlan::from_seed(7));
        assert_ne!(FaultPlan::from_seed(7), FaultPlan::from_seed(8));
        assert!(FaultPlan::quiet(3).is_quiet());
    }

    #[test]
    fn delivery_is_schedule_independent() {
        let plan = FaultPlan::from_seed(0xFEED);
        for seq in 0..200u64 {
            assert_eq!(
                plan.delivery(seq, 0, 1, 5, 9),
                plan.delivery(seq, 0, 1, 5, 9)
            );
        }
    }

    #[test]
    fn quiet_plan_changes_nothing() {
        let plan = FaultPlan::quiet(42);
        for seq in 0..50u64 {
            assert_eq!(
                plan.delivery(seq, 0, 1, 2, 6),
                Delivery::Deliver {
                    arrival: 6,
                    held: false,
                    duplicate: None
                }
            );
            assert_eq!(plan.skew_of(seq as usize % 4), 0);
        }
    }

    #[test]
    fn partition_holds_crossing_messages() {
        let plan = FaultPlan {
            partitions: vec![Partition {
                members: vec![0],
                start: 0,
                duration: 10,
            }],
            ..FaultPlan::quiet(1)
        };
        // Crossing send during the window is released after healing.
        match plan.delivery(0, 0, 1, 5, 7) {
            Delivery::Deliver { arrival, held, .. } => {
                assert!(held);
                assert_eq!(arrival, 11);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Same-side send is unaffected.
        assert_eq!(
            plan.delivery(1, 1, 2, 5, 7),
            Delivery::Deliver {
                arrival: 7,
                held: false,
                duplicate: None
            }
        );
        // Send after healing is unaffected.
        assert_eq!(
            plan.delivery(2, 0, 1, 30, 33),
            Delivery::Deliver {
                arrival: 33,
                held: false,
                duplicate: None
            }
        );
    }

    #[test]
    fn random_scripts_deterministic() {
        let a = random_scripts(99, 4, 8, 3);
        let b = random_scripts(99, 4, 8, 3);
        // Compare through a quiet-fault run (Action lacks Eq on purpose
        // elsewhere; the run output is the ground truth anyway).
        let ra = a.clone().with_faults(FaultPlan::quiet(0)).run().unwrap();
        let rb = b.clone().with_faults(FaultPlan::quiet(0)).run().unwrap();
        assert_eq!(ra.times, rb.times);
        assert_eq!(ra.labels, rb.labels);
        assert_eq!(ra.exec.to_skeleton(), rb.exec.to_skeleton());
    }
}
