//! The 32-relation family `ℛ` between nonatomic poset events.
//!
//! Causality relations between nonatomic events are specified between
//! their **proxies**: the begin proxy `L_X` and the end proxy `U_X`
//! (paper §1). With 2 proxy choices for `X`, 2 for `Y`, and the 8
//! relations of Table 1, this yields the 32 relations
//! `r(X, Y) ≡ R(X̂, Ŷ)` of `ℛ`.
//!
//! Because proxies are themselves nonatomic poset events (with at most
//! one event per node), each of the 32 relations is evaluated by the same
//! linear-time machinery of [`crate::linear`], applied to proxy
//! summaries. [`ProxySummary`] precomputes the two Definition-2 proxy
//! summaries of an event once (Key Idea 1); every subsequent relation
//! query is then linear in the node counts.

use std::fmt;
use std::ops::Range;

use synchrel_obs::json::{self, Decode, Encode, Value};
use synchrel_obs::{Meter, NoopMeter};

use crate::error::Result;
use crate::execution::Execution;
use crate::linear::{ComparisonCount, Evaluator, EventSummary};
use crate::nonatomic::{NonatomicEvent, ProxyDefinition};
use crate::relations::{naive, Relation};
use crate::timestamp::{arena_seg, SummaryArena};

/// A proxy choice: the beginning (`L`) or the end (`U`) of a nonatomic
/// event.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Proxy {
    /// The begin proxy `L_X`.
    L,
    /// The end proxy `U_X`.
    U,
}

impl Proxy {
    /// Both proxies.
    pub const ALL: [Proxy; 2] = [Proxy::L, Proxy::U];
}

impl Encode for Proxy {
    fn encode(&self) -> Value {
        Value::String(self.to_string())
    }
}

impl Decode for Proxy {
    fn decode(v: &Value) -> std::result::Result<Proxy, json::Error> {
        json::decode_name(v, &["L", "U"], &Proxy::ALL)
    }
}

impl fmt::Display for Proxy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Proxy::L => "L",
            Proxy::U => "U",
        })
    }
}

/// One of the 32 relations of `ℛ`: `R(X̂, Ŷ)` for a Table-1 relation `R`
/// and proxy choices `X̂ ∈ {L_X, U_X}`, `Ŷ ∈ {L_Y, U_Y}`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ProxyRelation {
    /// Proxy chosen for `X`.
    pub x_proxy: Proxy,
    /// Proxy chosen for `Y`.
    pub y_proxy: Proxy,
    /// The Table-1 relation applied to the proxies.
    pub rel: Relation,
}

impl ProxyRelation {
    /// Number of relations in `ℛ`.
    pub const COUNT: usize = 32;

    /// Construct.
    pub fn new(rel: Relation, x_proxy: Proxy, y_proxy: Proxy) -> Self {
        ProxyRelation {
            x_proxy,
            y_proxy,
            rel,
        }
    }

    /// The proxy form of the base relation `rel` on `(X, Y)`: the
    /// Definition-2 proxy pair under which `R(X̂, Ŷ)` equals `R(X, Y)` —
    /// `(U_X, L_Y)` for R1 and R1', `(U_X, U_Y)` for R2 and R2',
    /// `(L_X, L_Y)` for R3 and R3', `(L_X, U_Y)` for R4 and R4' (see
    /// [`crate::proxy_baseline`]).
    pub fn canonical(rel: Relation) -> ProxyRelation {
        let (x_proxy, y_proxy) = match rel {
            Relation::R1 | Relation::R1p => (Proxy::U, Proxy::L),
            Relation::R2 | Relation::R2p => (Proxy::U, Proxy::U),
            Relation::R3 | Relation::R3p => (Proxy::L, Proxy::L),
            Relation::R4 | Relation::R4p => (Proxy::L, Proxy::U),
        };
        ProxyRelation::new(rel, x_proxy, y_proxy)
    }

    /// All 32 relations, ordered by `(x_proxy, y_proxy, relation)`.
    pub fn all() -> impl Iterator<Item = ProxyRelation> {
        Proxy::ALL.into_iter().flat_map(|xp| {
            Proxy::ALL.into_iter().flat_map(move |yp| {
                Relation::ALL
                    .into_iter()
                    .map(move |rel| ProxyRelation::new(rel, xp, yp))
            })
        })
    }

    /// Stable index in `0..32`, matching the bit layout of
    /// [`RelationSet`].
    pub fn index(self) -> usize {
        let xp = match self.x_proxy {
            Proxy::L => 0,
            Proxy::U => 1,
        };
        let yp = match self.y_proxy {
            Proxy::L => 0,
            Proxy::U => 1,
        };
        let r = Relation::ALL
            .iter()
            .position(|&x| x == self.rel)
            .expect("relation in ALL");
        (xp * 2 + yp) * 8 + r
    }

    /// Inverse of [`ProxyRelation::index`].
    pub fn from_index(i: usize) -> ProxyRelation {
        assert!(i < Self::COUNT);
        let r = Relation::ALL[i % 8];
        let combo = i / 8;
        let xp = if combo / 2 == 0 { Proxy::L } else { Proxy::U };
        let yp = if combo.is_multiple_of(2) {
            Proxy::L
        } else {
            Proxy::U
        };
        ProxyRelation::new(r, xp, yp)
    }
}

impl fmt::Display for ProxyRelation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}({}_X, {}_Y)",
            self.rel.name(),
            self.x_proxy,
            self.y_proxy
        )
    }
}

/// A set of relations from `ℛ`, as a 32-bit mask indexed by
/// [`ProxyRelation::index`].
#[derive(Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct RelationSet(pub u32);

impl RelationSet {
    /// The empty set.
    pub fn empty() -> Self {
        RelationSet(0)
    }

    /// Insert a relation.
    pub fn insert(&mut self, r: ProxyRelation) {
        self.0 |= 1 << r.index();
    }

    /// Membership test.
    pub fn contains(self, r: ProxyRelation) -> bool {
        self.0 & (1 << r.index()) != 0
    }

    /// Number of relations in the set.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Is the set empty?
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Iterate over the member relations.
    pub fn iter(self) -> impl Iterator<Item = ProxyRelation> {
        (0..ProxyRelation::COUNT)
            .filter(move |&i| self.0 & (1 << i) != 0)
            .map(ProxyRelation::from_index)
    }
}

impl fmt::Debug for RelationSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "RelationSet({:#010x})", self.0)
    }
}

impl fmt::Display for RelationSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (k, r) in self.iter().enumerate() {
            if k > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{r}")?;
        }
        write!(f, "}}")
    }
}

/// The precomputed summaries of both Definition-2 proxies of a nonatomic
/// event: everything needed to answer any of the 32 relation queries in
/// linear time.
#[derive(Clone, Debug)]
pub struct ProxySummary {
    l: EventSummary,
    u: EventSummary,
}

impl ProxySummary {
    /// Summary of the requested proxy.
    pub fn get(&self, p: Proxy) -> &EventSummary {
        match p {
            Proxy::L => &self.l,
            Proxy::U => &self.u,
        }
    }

    /// Summary of `L_X`.
    pub fn lower(&self) -> &EventSummary {
        &self.l
    }

    /// Summary of `U_X`.
    pub fn upper(&self) -> &EventSummary {
        &self.u
    }
}

impl<'a> Evaluator<'a> {
    /// Precompute the proxy summaries of `x` (Definition-2 proxies).
    pub fn summarize_proxies(&self, x: &NonatomicEvent) -> ProxySummary {
        self.summarize_proxies_with(x, ProxyDefinition::PerNode)
            .expect("per-node proxies always exist")
    }

    /// Precompute proxy summaries under an explicit proxy definition.
    ///
    /// With [`ProxyDefinition::Global`] (Definition 3) the proxies are
    /// the global minimum/maximum of `x`, which may not exist —
    /// [`crate::error::Error::EmptyProxy`] is returned in that case.
    pub fn summarize_proxies_with(
        &self,
        x: &NonatomicEvent,
        def: ProxyDefinition,
    ) -> Result<ProxySummary> {
        let exec = self.execution();
        let l = x.proxy_lower(exec, def)?;
        let u = x.proxy_upper(exec, def)?;
        Ok(ProxySummary {
            l: self.summarize(&l),
            u: self.summarize(&u),
        })
    }

    /// Evaluate one relation of `ℛ` from proxy summaries, with its
    /// comparison count (Theorem 20 applied to the proxies).
    pub fn eval_proxy(
        &self,
        pr: ProxyRelation,
        sx: &ProxySummary,
        sy: &ProxySummary,
    ) -> ComparisonCount {
        self.eval_counted(pr.rel, sx.get(pr.x_proxy), sy.get(pr.y_proxy))
    }

    /// [`Evaluator::eval_proxy`] reporting to a [`Meter`]. The proxy
    /// combo aggregates into its base relation's slot, matching the
    /// per-relation rows of the paper's Table 2.
    #[inline]
    pub fn eval_proxy_with<M: Meter>(
        &self,
        pr: ProxyRelation,
        sx: &ProxySummary,
        sy: &ProxySummary,
        meter: &M,
    ) -> ComparisonCount {
        self.eval_counted_with(pr.rel, sx.get(pr.x_proxy), sy.get(pr.y_proxy), meter)
    }

    /// Evaluate all 32 relations; returns the set that holds and the
    /// total comparison count (Problem 4(ii) for one pair).
    ///
    /// This is the **unfused** path: 32 independent [`Evaluator::eval_proxy`]
    /// calls, each spending exactly its Theorem-20 comparison budget — the
    /// reference for the paper's complexity measurements. The production
    /// hot path is [`Evaluator::eval_all_proxy_fused`].
    pub fn eval_all_proxy(&self, sx: &ProxySummary, sy: &ProxySummary) -> (RelationSet, u64) {
        self.eval_all_proxy_with(sx, sy, &NoopMeter)
    }

    /// [`Evaluator::eval_all_proxy`] reporting to a [`Meter`]: each of
    /// the 32 relation evaluations is reported individually (with its
    /// Theorem-20 budgets), then the pair total.
    #[inline]
    pub fn eval_all_proxy_with<M: Meter>(
        &self,
        sx: &ProxySummary,
        sy: &ProxySummary,
        meter: &M,
    ) -> (RelationSet, u64) {
        let mut set = RelationSet::empty();
        let mut comparisons = 0;
        for pr in ProxyRelation::all() {
            let c = self.eval_proxy_with(pr, sx, sy, meter);
            if c.holds {
                set.insert(pr);
            }
            comparisons += c.comparisons;
        }
        if meter.enabled() {
            meter.on_pair(comparisons);
        }
        (set, comparisons)
    }

    /// Fused evaluation of all 32 relations: per proxy combination
    /// `(X̂, Ŷ)`, the six distinct cut predicates behind the eight
    /// Table-1 verdicts are computed in two node-restricted scans over
    /// adjacent summary rows, and the 8 `RelationSet` bits are derived
    /// from them. Verdict-equivalent to [`Evaluator::eval_all_proxy`]
    /// (same Auto scan sides), but shares work across relations:
    ///
    /// * R1 and R1' are one predicate (identical evaluation condition),
    ///   as are R4 and R4';
    /// * the `N_X` scan fuses R2 (`∪⇓Y ≥ hi_X`, ∀) with R3
    ///   (`∩⇓Y ≥ ∩⇑X`, ∃) — both read the same `ex` / `ey` rows;
    /// * the `N_Y` scan fuses R2' (`∪⇓Y ≥ ∪⇑X`, ∃) with R3'
    ///   (`lo_Y ≥ ∩⇑X`, ∀);
    /// * R1/R4 ride along on whichever scan is shorter (their Auto
    ///   side, `min(|N_X|, |N_Y|)`).
    ///
    /// The per-node `hi`/`lo` guards of the unfused path are dropped:
    /// per-node proxies always have a member on every node of their node
    /// set, so the guards are vacuously true on the restricted scans.
    ///
    /// Returns the relation set and the number of integer comparisons
    /// actually spent: `4·(2|N_X| + 2|N_Y| + 2·min(|N_X|, |N_Y|))`,
    /// versus the unfused `4·(2|N_X| + 2|N_Y| + 4·min(|N_X|, |N_Y|))`.
    pub fn eval_all_proxy_fused(&self, sx: &ProxySummary, sy: &ProxySummary) -> (RelationSet, u64) {
        let mut bits = 0u32;
        let mut comparisons = 0u64;
        // Combo order matches ProxyRelation::index: (xp·2 + yp)·8 + rel.
        for (combo, (xp, yp)) in [
            (Proxy::L, Proxy::L),
            (Proxy::L, Proxy::U),
            (Proxy::U, Proxy::L),
            (Proxy::U, Proxy::U),
        ]
        .into_iter()
        .enumerate()
        {
            let ex = sx.get(xp);
            let ey = sy.get(yp);
            let nx = ex.node_set();
            let ny = ey.node_set();
            let x_min = nx.len() <= ny.len();

            let (ex_hi, ex_c3, ex_c4) = (ex.hi_row(), ex.c3_row(), ex.c4_row());
            let (ey_lo, ey_c1, ey_c2) = (ey.lo_row(), ey.c1_row(), ey.c2_row());

            let mut r1 = true;
            let mut r2 = true;
            let mut r2p = false;
            let mut r3 = false;
            let mut r3p = true;
            let mut r4 = false;

            // Scan over N_X: R2 (∀), R3 (∃); R1/R4 when X is the short side.
            if x_min {
                for &i in nx {
                    r1 &= ey_c1[i] >= ex_hi[i];
                    r2 &= ey_c2[i] >= ex_hi[i];
                    r3 |= ey_c1[i] >= ex_c3[i];
                    r4 |= ey_c2[i] >= ex_c3[i];
                }
                comparisons += 4 * nx.len() as u64;
            } else {
                for &i in nx {
                    r2 &= ey_c2[i] >= ex_hi[i];
                    r3 |= ey_c1[i] >= ex_c3[i];
                }
                comparisons += 2 * nx.len() as u64;
            }

            // Scan over N_Y: R2' (∃), R3' (∀); R1/R4 when Y is the short side.
            if x_min {
                for &j in ny {
                    r2p |= ey_c2[j] >= ex_c4[j];
                    r3p &= ey_lo[j] >= ex_c3[j];
                }
                comparisons += 2 * ny.len() as u64;
            } else {
                for &j in ny {
                    r1 &= ey_lo[j] >= ex_c4[j];
                    r2p |= ey_c2[j] >= ex_c4[j];
                    r3p &= ey_lo[j] >= ex_c3[j];
                    r4 |= ey_c2[j] >= ex_c3[j];
                }
                comparisons += 4 * ny.len() as u64;
            }

            // Bit layout within the combo follows Relation::ALL:
            // [R1, R1', R2, R2', R3, R3', R4, R4'].
            let base = combo as u32 * 8;
            bits |= (r1 as u32) << base;
            bits |= (r1 as u32) << (base + 1);
            bits |= (r2 as u32) << (base + 2);
            bits |= (r2p as u32) << (base + 3);
            bits |= (r3 as u32) << (base + 4);
            bits |= (r3p as u32) << (base + 5);
            bits |= (r4 as u32) << (base + 6);
            bits |= (r4 as u32) << (base + 7);
        }
        (RelationSet(bits), comparisons)
    }

    /// [`Evaluator::eval_all_proxy_fused`] reporting to a [`Meter`].
    ///
    /// Only the pair total is reported: the fused kernel shares its
    /// predicate scans across the eight relations of a combo, so there
    /// is no per-relation comparison count to attribute — per-relation
    /// Theorem-20 accounting is what the counted path
    /// ([`Evaluator::eval_all_proxy_with`]) is for.
    #[inline]
    pub fn eval_all_proxy_fused_with<M: Meter>(
        &self,
        sx: &ProxySummary,
        sy: &ProxySummary,
        meter: &M,
    ) -> (RelationSet, u64) {
        let (set, comparisons) = self.eval_all_proxy_fused(sx, sy);
        if meter.enabled() {
            meter.on_pair(comparisons);
        }
        (set, comparisons)
    }
}

// Accumulator words of the block kernel. Both sides accumulate into
// one `u32` per pair laid out like a `RelationSet` (bit `combo·8 + k`,
// `k` indexing Relation::ALL = [R1, R1', R2, R2', R3, R3', R4, R4']),
// each predicate as an OR: ∃-predicates set a hit bit, ∀-predicates a
// violation bit. R1 and R4 are accumulated on both sides; the shorter
// side's copy is kept, as in the fused kernel.

/// Bits only the `N_X` scan produces: R2 (violation), R3 (hit).
const X_SIDE: u32 = 0x1414_1414;
/// Bits only the `N_Y` scan produces: R2' (hit), R3' (violation).
const Y_SIDE: u32 = 0x2828_2828;
/// R1 (violation) and R4 (hit): taken from the side with fewer nodes.
const SHORT_SIDE: u32 = 0x4141_4141;
/// Bits accumulated as ∀-violations: R1, R2, R3'.
const VIOLATIONS: u32 = 0x2525_2525;

/// `N_X`-side accumulation for one X event and one node `i ∈ N_X`,
/// all four proxy combos at once, over the Y block: `c1`/`c2` hold the
/// Y block's contiguous `∩⇓Y` / `∪⇓Y` rows at node `i` for the `L` and
/// `U` proxies, `hi`/`c3` the X scalars `hi_X[i]` / `∩⇑X[i]` per proxy.
#[inline(always)]
fn scan_x_side(
    hi: [u32; 2],
    c3: [u32; 2],
    c1: [&[u32]; 2],
    c2: [&[u32]; 2],
    acc: &mut [RelationSet],
) {
    let n = acc.len();
    let (c1l, c1u, c2l, c2u) = (&c1[0][..n], &c1[1][..n], &c2[0][..n], &c2[1][..n]);
    let bits = |base: u32, hi: u32, c3: u32, c1: u32, c2: u32| {
        ((c1 < hi) as u32) << base
            | ((c2 < hi) as u32) << (base + 2)
            | ((c1 >= c3) as u32) << (base + 4)
            | ((c2 >= c3) as u32) << (base + 6)
    };
    for k in 0..n {
        // Combo order matches ProxyRelation::index: (xp·2 + yp)·8.
        acc[k].0 |= bits(0, hi[0], c3[0], c1l[k], c2l[k])
            | bits(8, hi[0], c3[0], c1u[k], c2u[k])
            | bits(16, hi[1], c3[1], c1l[k], c2l[k])
            | bits(24, hi[1], c3[1], c1u[k], c2u[k]);
    }
}

/// `N_Y`-side accumulation for one Y event and one node `j ∈ N_Y`, the
/// transpose of [`scan_x_side`]: `c3`/`c4` hold the X block's
/// contiguous `∩⇑X` / `∪⇑X` rows at node `j` per proxy, `lo`/`c2` the
/// Y scalars `lo_Y[j]` / `∪⇓Y[j]` per proxy.
#[inline(always)]
fn scan_y_side(lo: [u32; 2], c2: [u32; 2], c3: [&[u32]; 2], c4: [&[u32]; 2], acc: &mut [u32]) {
    let n = acc.len();
    let (c3l, c3u, c4l, c4u) = (&c3[0][..n], &c3[1][..n], &c4[0][..n], &c4[1][..n]);
    let bits = |base: u32, lo: u32, c2: u32, c3: u32, c4: u32| {
        ((lo < c4) as u32) << base
            | ((c2 >= c4) as u32) << (base + 3)
            | ((lo < c3) as u32) << (base + 5)
            | ((c2 >= c3) as u32) << (base + 6)
    };
    for k in 0..n {
        acc[k] |= bits(0, lo[0], c2[0], c3l[k], c4l[k])
            | bits(8, lo[1], c2[1], c3l[k], c4l[k])
            | bits(16, lo[0], c2[0], c3u[k], c4u[k])
            | bits(24, lo[1], c2[1], c3u[k], c4u[k]);
    }
}

/// The instruction-set build [`SummaryArena::eval_block`] runs on. The
/// kernel has one scalar source, compiled once for the baseline target
/// and once more with AVX-512 enabled; the wider build is chosen at run
/// time when the CPU has it. Both builds give identical answers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelTier {
    /// The baseline-target build: the reference, and the only build
    /// off x86-64.
    Portable,
    /// The same source compiled for AVX-512 F/BW/VL and AVX2 (x86-64).
    Avx512,
}

impl KernelTier {
    /// The tier [`SummaryArena::eval_block`] runs on this CPU.
    pub fn detect() -> KernelTier {
        if avx512_detected() {
            KernelTier::Avx512
        } else {
            KernelTier::Portable
        }
    }

    /// Name recorded in benchmark artifacts: `portable` or `avx512`.
    pub fn name(self) -> &'static str {
        match self {
            KernelTier::Portable => "portable",
            KernelTier::Avx512 => "avx512",
        }
    }
}

/// Does this CPU have every feature the AVX-512 build is compiled for?
#[cfg(target_arch = "x86_64")]
fn avx512_detected() -> bool {
    is_x86_feature_detected!("avx512f")
        && is_x86_feature_detected!("avx512bw")
        && is_x86_feature_detected!("avx512vl")
        && is_x86_feature_detected!("avx2")
}

#[cfg(not(target_arch = "x86_64"))]
fn avx512_detected() -> bool {
    false
}

/// Transpose the row-major `rows × cols` matrix `src` into `dst`
/// (`cols × rows`) in 8×8 tiles, so each tile's reads and writes stay
/// within a few cache lines.
#[inline(always)]
fn transpose(src: &[u32], rows: usize, cols: usize, dst: &mut [u32]) {
    const T: usize = 8;
    let (src, dst) = (&src[..rows * cols], &mut dst[..rows * cols]);
    for r0 in (0..rows).step_by(T) {
        for c0 in (0..cols).step_by(T) {
            for r in r0..(r0 + T).min(rows) {
                for c in c0..(c0 + T).min(cols) {
                    dst[c * rows + r] = src[r * cols + c];
                }
            }
        }
    }
}

impl SummaryArena {
    /// Block kernel: evaluate every pair of the X block `xs` × Y block
    /// `ys` and write each pair's [`RelationSet`] into `out`, x-major
    /// (`out[(x − xs.start)·|ys| + (y − ys.start)]`). Diagonal and
    /// overlapping pairs are evaluated like any other; callers that skip
    /// `x == y` drop it when assembling reports.
    ///
    /// **Bit-identical to [`Evaluator::eval_all_proxy_fused`]** on every
    /// pair, by construction rather than by theorem: R2/R3 come from the
    /// `N_X` scan and R2'/R3' from the `N_Y` scan, exactly as in the
    /// fused scans, and the shared R1/R4 predicates are accumulated on
    /// *both* sides and selected per pair with the same `|N_X| ≤ |N_Y|`
    /// rule the fused kernel branches on.
    ///
    /// Both scans visit member nodes only, from the arena's node lists,
    /// so one pair costs `Θ(|N_X| + |N_Y|)` work (Theorem 20) whatever
    /// `|P|` is:
    ///
    /// * **`N_X` side:** for each X and `i ∈ N_X`, one unit-stride pass
    ///   over the Y block's `C1`/`C2` rows at node `i`;
    /// * **`N_Y` side:** the transpose — for each Y and `j ∈ N_Y`, one
    ///   unit-stride pass over the X block's `C3`/`C4` rows at node `j`,
    ///   into a y-major scratch block;
    /// * **merge:** the scratch block is transposed to x-major in 8×8
    ///   tiles, then each X row is merged with unit stride against its
    ///   `N_Y` words and the block's hoisted `|N_Y|` row.
    ///
    /// Each pass evaluates all four proxy combos into one `u32` word per
    /// pair with branch-free compares, which the compiler auto-vectorizes
    /// for the [`KernelTier`] chosen from the CPU.
    pub fn eval_block(&self, xs: Range<usize>, ys: Range<usize>, out: &mut [RelationSet]) {
        self.eval_block_on(KernelTier::detect(), xs, ys, out);
    }

    /// [`SummaryArena::eval_block`] on the build `tier`; a tier the CPU
    /// lacks runs the portable build.
    fn eval_block_on(
        &self,
        tier: KernelTier,
        xs: Range<usize>,
        ys: Range<usize>,
        out: &mut [RelationSet],
    ) {
        match tier {
            #[cfg(target_arch = "x86_64")]
            KernelTier::Avx512 if avx512_detected() => {
                // SAFETY: `avx512_detected` has just confirmed that this
                // CPU has every feature `eval_block_avx512` enables.
                unsafe { self.eval_block_avx512(xs, ys, out) }
            }
            _ => self.eval_block_body(xs, ys, out),
        }
    }

    /// The kernel body compiled for AVX-512. Callers must first check
    /// `avx512_detected`.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx512bw,avx512vl,avx2")]
    fn eval_block_avx512(&self, xs: Range<usize>, ys: Range<usize>, out: &mut [RelationSet]) {
        self.eval_block_body(xs, ys, out);
    }

    /// The one source of the block kernel, inlined into each build.
    #[inline(always)]
    fn eval_block_body(&self, xs: Range<usize>, ys: Range<usize>, out: &mut [RelationSet]) {
        let (bx, by) = (xs.len(), ys.len());
        assert!(
            xs.end <= self.len() && ys.end <= self.len() && out.len() == bx * by,
            "block out of range: xs={xs:?}, ys={ys:?}, out={}, arena={}",
            out.len(),
            self.len()
        );
        out.fill(RelationSet::empty());
        if bx == 0 || by == 0 {
            return;
        }
        let proxies =
            |seg: usize, i: usize, e: usize| [self.value(0, seg, i, e), self.value(1, seg, i, e)];
        let rows = |seg: usize, i: usize, block: &Range<usize>| {
            [
                &self.plane(0, seg, i)[block.clone()],
                &self.plane(1, seg, i)[block.clone()],
            ]
        };
        for (x, acc) in xs.clone().zip(out.chunks_exact_mut(by)) {
            for &i in self.nodes(x) {
                let i = usize::from(i);
                scan_x_side(
                    proxies(arena_seg::HI, i, x),
                    proxies(arena_seg::C3, i, x),
                    rows(arena_seg::C1, i, &ys),
                    rows(arena_seg::C2, i, &ys),
                    acc,
                );
            }
        }
        let mut scratch = vec![0u32; 2 * bx * by];
        let (y_major, x_major) = scratch.split_at_mut(bx * by);
        for (y, acc) in ys.clone().zip(y_major.chunks_exact_mut(bx)) {
            for &j in self.nodes(y) {
                let j = usize::from(j);
                scan_y_side(
                    proxies(arena_seg::LO, j, y),
                    proxies(arena_seg::C2, j, y),
                    rows(arena_seg::C3, j, &xs),
                    rows(arena_seg::C4, j, &xs),
                    acc,
                );
            }
        }
        transpose(y_major, by, bx, x_major);
        let ny: Vec<u32> = ys.map(|y| self.node_count(y)).collect();
        for ((x, row), wys) in xs
            .zip(out.chunks_exact_mut(by))
            .zip(x_major.chunks_exact(by))
        {
            let nx = self.node_count(x);
            for ((r, &wy), &ny) in row.iter_mut().zip(wys).zip(&ny) {
                let wx = r.0;
                let short = if nx <= ny { wx } else { wy };
                let w = ((wx & X_SIDE) | (wy & Y_SIDE) | (short & SHORT_SIDE)) ^ VIOLATIONS;
                // R1' and R4' repeat R1 and R4.
                *r = RelationSet(w | (w & SHORT_SIDE) << 1);
            }
        }
    }

    /// The relations of one pair: [`SummaryArena::eval_block`] on the
    /// 1×1 block `(x, y)`.
    pub fn eval_pair(&self, x: usize, y: usize) -> RelationSet {
        let mut out = [RelationSet::empty()];
        self.eval_block(x..x + 1, y..y + 1, &mut out);
        out[0]
    }
}

/// Ground truth for a relation of `ℛ`: materialize the proxies under
/// `def` and evaluate the quantifier expression naively.
///
/// With [`ProxyDefinition::Global`] the proxy may not exist
/// ([`crate::error::Error::EmptyProxy`]).
pub fn naive_proxy(
    exec: &Execution,
    pr: ProxyRelation,
    x: &NonatomicEvent,
    y: &NonatomicEvent,
    def: ProxyDefinition,
) -> Result<bool> {
    let xh = match pr.x_proxy {
        Proxy::L => x.proxy_lower(exec, def)?,
        Proxy::U => x.proxy_upper(exec, def)?,
    };
    let yh = match pr.y_proxy {
        Proxy::L => y.proxy_lower(exec, def)?,
        Proxy::U => y.proxy_upper(exec, def)?,
    };
    Ok(naive(exec, pr.rel, &xh, &yh))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::execution::{EventId, ExecutionBuilder};

    #[test]
    fn index_roundtrip() {
        for (k, pr) in ProxyRelation::all().enumerate() {
            assert_eq!(pr.index(), k);
            assert_eq!(ProxyRelation::from_index(k), pr);
        }
        assert_eq!(ProxyRelation::all().count(), 32);
    }

    #[test]
    fn relation_set_ops() {
        let mut s = RelationSet::empty();
        assert!(s.is_empty());
        let r = ProxyRelation::new(Relation::R3, Proxy::U, Proxy::L);
        s.insert(r);
        assert!(s.contains(r));
        assert_eq!(s.len(), 1);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![r]);
        assert!(!s.contains(ProxyRelation::new(Relation::R3, Proxy::L, Proxy::L)));
    }

    #[test]
    fn display() {
        let r = ProxyRelation::new(Relation::R2p, Proxy::U, Proxy::L);
        assert_eq!(r.to_string(), "R2'(U_X, L_Y)");
    }

    fn pool_exec() -> (Execution, Vec<EventId>) {
        let mut bld = ExecutionBuilder::new(3);
        let a = bld.internal(0);
        let (s1, m1) = bld.send(0);
        let r1 = bld.recv(1, m1).unwrap();
        let b = bld.internal(1);
        let (s2, m2) = bld.send(1);
        let r2 = bld.recv(2, m2).unwrap();
        (bld.build().unwrap(), vec![a, s1, r1, b, s2, r2])
    }

    #[test]
    fn linear_matches_naive_proxy_exhaustive() {
        let (e, pool) = pool_exec();
        let ev = Evaluator::new(&e);
        for xm in 1u32..(1 << pool.len()) {
            for ym in 1u32..(1 << pool.len()) {
                if xm & ym != 0 {
                    continue;
                }
                let xs: Vec<EventId> = pool
                    .iter()
                    .enumerate()
                    .filter(|(k, _)| xm & (1 << k) != 0)
                    .map(|(_, &v)| v)
                    .collect();
                let ys: Vec<EventId> = pool
                    .iter()
                    .enumerate()
                    .filter(|(k, _)| ym & (1 << k) != 0)
                    .map(|(_, &v)| v)
                    .collect();
                let x = NonatomicEvent::new(&e, xs).unwrap();
                let y = NonatomicEvent::new(&e, ys).unwrap();
                let sx = ev.summarize_proxies(&x);
                let sy = ev.summarize_proxies(&y);
                let (set, _) = ev.eval_all_proxy(&sx, &sy);
                for pr in ProxyRelation::all() {
                    let want = naive_proxy(&e, pr, &x, &y, ProxyDefinition::PerNode).unwrap();
                    assert_eq!(set.contains(pr), want, "{pr} on X={xm:b} Y={ym:b}");
                }
            }
        }
    }

    #[test]
    fn fused_matches_unfused_exhaustive() {
        let (e, pool) = pool_exec();
        let ev = Evaluator::new(&e);
        for xm in 1u32..(1 << pool.len()) {
            for ym in 1u32..(1 << pool.len()) {
                if xm & ym != 0 {
                    continue;
                }
                let xs: Vec<EventId> = pool
                    .iter()
                    .enumerate()
                    .filter(|(k, _)| xm & (1 << k) != 0)
                    .map(|(_, &v)| v)
                    .collect();
                let ys: Vec<EventId> = pool
                    .iter()
                    .enumerate()
                    .filter(|(k, _)| ym & (1 << k) != 0)
                    .map(|(_, &v)| v)
                    .collect();
                let x = NonatomicEvent::new(&e, xs).unwrap();
                let y = NonatomicEvent::new(&e, ys).unwrap();
                let sx = ev.summarize_proxies(&x);
                let sy = ev.summarize_proxies(&y);
                let (unfused, cmp_unfused) = ev.eval_all_proxy(&sx, &sy);
                let (fused, cmp_fused) = ev.eval_all_proxy_fused(&sx, &sy);
                assert_eq!(fused, unfused, "verdicts on X={xm:b} Y={ym:b}");
                assert!(
                    cmp_fused <= cmp_unfused,
                    "fused {cmp_fused} > unfused {cmp_unfused} on X={xm:b} Y={ym:b}"
                );
            }
        }
    }

    #[test]
    fn fused_comparison_formula() {
        let (e, pool) = pool_exec();
        let ev = Evaluator::new(&e);
        let x = NonatomicEvent::new(&e, [pool[0], pool[1]]).unwrap();
        let y = NonatomicEvent::new(&e, [pool[2], pool[4], pool[5]]).unwrap();
        let sx = ev.summarize_proxies(&x);
        let sy = ev.summarize_proxies(&y);
        let (nx, ny) = (x.node_count() as u64, y.node_count() as u64);
        let (_, cmp) = ev.eval_all_proxy_fused(&sx, &sy);
        assert_eq!(cmp, 4 * (2 * nx + 2 * ny + 2 * nx.min(ny)));
    }

    /// The kernel builds this CPU runs, portable first. Printed, so a
    /// test log shows whether the AVX-512 build was covered.
    fn kernel_tiers(test: &str) -> Vec<KernelTier> {
        let mut tiers = vec![KernelTier::Portable];
        if KernelTier::detect() != KernelTier::Portable {
            tiers.push(KernelTier::detect());
        }
        let names: Vec<&str> = tiers.iter().map(|t| t.name()).collect();
        println!("{test}: kernel tiers {}", names.join(", "));
        tiers
    }

    #[test]
    fn batched_matches_fused_exhaustive_including_overlap() {
        // Unlike the disjoint-only exhaustive tests above, this covers
        // every ordered pair of event sets — including overlapping and
        // identical ones — because the detector evaluates all ordered
        // pairs and the block kernel must be bit-identical to fused on
        // each of them, as one whole block and as 1×1 blocks.
        let (e, pool) = pool_exec();
        let ev = Evaluator::new(&e);
        let mut events = Vec::new();
        for m in 1u32..(1 << pool.len()) {
            let ids: Vec<EventId> = pool
                .iter()
                .enumerate()
                .filter(|(k, _)| m & (1 << k) != 0)
                .map(|(_, &v)| v)
                .collect();
            events.push(NonatomicEvent::new(&e, ids).unwrap());
        }
        let summaries: Vec<ProxySummary> = events.iter().map(|x| ev.summarize_proxies(x)).collect();
        let arena = SummaryArena::build(e.num_processes(), summaries.iter());
        let n = events.len();
        for tier in kernel_tiers("batched_matches_fused_exhaustive_including_overlap") {
            let mut block = vec![RelationSet::empty(); n * n];
            arena.eval_block_on(tier, 0..n, 0..n, &mut block);
            for x in 0..n {
                for y in 0..n {
                    let (fused, cmp) = ev.eval_all_proxy_fused(&summaries[x], &summaries[y]);
                    assert_eq!(block[x * n + y], fused, "{tier:?}: pair ({x}, {y})");
                    let mut one = [RelationSet::empty()];
                    arena.eval_block_on(tier, x..x + 1, y..y + 1, &mut one);
                    assert_eq!(one[0], fused, "{tier:?}: 1×1 block ({x}, {y})");
                    assert_eq!(
                        arena.pair_comparisons(x, y),
                        cmp,
                        "comparisons on pair ({x}, {y})"
                    );
                }
            }
        }
    }

    /// A 5-process execution with messages between varying neighbours
    /// and `n` nonatomic events of 1–5 nodes each. Events repeat every
    /// 35 indices, so identical and overlapping pairs occur, and both
    /// `|N_X| ≤ |N_Y|` and `|N_X| > |N_Y|` do.
    fn mixed_events(n: usize) -> (Execution, Vec<NonatomicEvent>) {
        let procs = 5;
        let mut b = ExecutionBuilder::new(procs);
        for round in 0..12 {
            for p in 0..procs {
                b.internal(p);
                if (round + p) % 3 == 0 {
                    let (_, m) = b.send(p);
                    b.recv((p + 1 + round % (procs - 1)) % procs, m).unwrap();
                }
            }
        }
        let e = b.build().unwrap();
        let events = (0..n)
            .map(|k| {
                let members = (0..1 + k % procs).map(|s| {
                    let p = (k / procs + s) % procs;
                    let avail = e.app_len(crate::execution::ProcessId(p as u32));
                    EventId::new(p as u32, 1 + ((k % 7) * 5 + s * 3) as u32 % avail)
                });
                NonatomicEvent::new(&e, members.collect::<Vec<_>>()).unwrap()
            })
            .collect();
        (e, events)
    }

    #[test]
    fn block_shapes_match_fused() {
        // n = 150 is a multiple of no block edge below, so every tiling
        // has ragged edge blocks; the diagonal blocks contain x == y.
        let n = 150;
        let (e, events) = mixed_events(n);
        let ev = Evaluator::new(&e);
        let summaries: Vec<ProxySummary> = events.iter().map(|x| ev.summarize_proxies(x)).collect();
        let arena = SummaryArena::build(e.num_processes(), summaries.iter());
        let want: Vec<RelationSet> = (0..n * n)
            .map(|k| {
                ev.eval_all_proxy_fused(&summaries[k / n], &summaries[k % n])
                    .0
            })
            .collect();
        for tier in kernel_tiers("block_shapes_match_fused") {
            let check = |xs: Range<usize>, ys: Range<usize>| {
                // Prefilled with junk: the kernel must overwrite every slot.
                let mut out = vec![RelationSet(u32::MAX); xs.len() * ys.len()];
                arena.eval_block_on(tier, xs.clone(), ys.clone(), &mut out);
                for (k, got) in out.iter().enumerate() {
                    let (x, y) = (xs.start + k / ys.len(), ys.start + k % ys.len());
                    assert_eq!(
                        *got,
                        want[x * n + y],
                        "{tier:?}: pair ({x}, {y}) of {xs:?} × {ys:?}"
                    );
                }
            };
            for edge in [1, 7, 64, n + 13] {
                for x0 in (0..n).step_by(edge) {
                    for y0 in (0..n).step_by(edge) {
                        check(x0..(x0 + edge).min(n), y0..(y0 + edge).min(n));
                    }
                }
            }
            // Misaligned and non-square blocks across the diagonal, and
            // empty ones; 9×13 and 17×3 leave partial 8×8 transpose tiles
            // on both edges.
            for (xs, ys) in [
                (3..10, 5..12),
                (60..61, 0..150),
                (0..150, 149..150),
                (40..104, 70..75),
                (10..10, 0..5),
                (0..5, 7..7),
                (20..29, 90..103),
                (100..117, 1..4),
            ] {
                check(xs, ys);
            }
        }
    }

    #[test]
    fn global_proxy_summaries_match_naive() {
        // Where Definition-3 proxies exist, the linear evaluation over
        // their summaries equals the naive evaluation over the
        // materialized singleton proxies.
        let (e, pool) = pool_exec();
        let ev = Evaluator::new(&e);
        // a ≺ s1 ≺ r1 ≺ b ≺ s2 ≺ r2 is a chain: global proxies exist for
        // any sub-chain.
        let x = NonatomicEvent::new(&e, [pool[0], pool[1]]).unwrap();
        let y = NonatomicEvent::new(&e, [pool[2], pool[3], pool[4]]).unwrap();
        let sx = ev
            .summarize_proxies_with(&x, ProxyDefinition::Global)
            .unwrap();
        let sy = ev
            .summarize_proxies_with(&y, ProxyDefinition::Global)
            .unwrap();
        for pr in ProxyRelation::all() {
            let want = naive_proxy(&e, pr, &x, &y, ProxyDefinition::Global).unwrap();
            assert_eq!(ev.eval_proxy(pr, &sx, &sy).holds, want, "{pr}");
        }
    }

    #[test]
    fn global_proxy_summaries_fail_without_extremum() {
        let mut b = ExecutionBuilder::new(2);
        let a = b.internal(0);
        let c = b.internal(1);
        let e = b.build().unwrap();
        let ev = Evaluator::new(&e);
        let x = NonatomicEvent::new(&e, [a, c]).unwrap();
        assert!(ev
            .summarize_proxies_with(&x, ProxyDefinition::Global)
            .is_err());
    }

    #[test]
    fn proxies_may_overlap_between_x_and_y_only_if_events_do() {
        // Sanity: for disjoint X and Y the proxies are also disjoint.
        let (e, pool) = pool_exec();
        let x = NonatomicEvent::new(&e, [pool[0], pool[1]]).unwrap();
        let y = NonatomicEvent::new(&e, [pool[2], pool[3]]).unwrap();
        let lx = x.proxy_lower(&e, ProxyDefinition::PerNode).unwrap();
        let uy = y.proxy_upper(&e, ProxyDefinition::PerNode).unwrap();
        assert!(!lx.overlaps(&uy));
    }

    #[test]
    fn base_relations_equal_specific_proxy_relations() {
        // R1(X,Y) ≡ R1(U_X, L_Y); R4(X,Y) ≡ R4(L_X, U_Y);
        // R2(X,Y) ≡ R2(U_X, U_Y); R3(X,Y) ≡ R3(L_X, L_Y).
        let (e, pool) = pool_exec();
        for xm in 1u32..(1 << pool.len()) {
            for ym in 1u32..(1 << pool.len()) {
                if xm & ym != 0 {
                    continue;
                }
                let xs: Vec<EventId> = pool
                    .iter()
                    .enumerate()
                    .filter(|(k, _)| xm & (1 << k) != 0)
                    .map(|(_, &v)| v)
                    .collect();
                let ys: Vec<EventId> = pool
                    .iter()
                    .enumerate()
                    .filter(|(k, _)| ym & (1 << k) != 0)
                    .map(|(_, &v)| v)
                    .collect();
                let x = NonatomicEvent::new(&e, xs).unwrap();
                let y = NonatomicEvent::new(&e, ys).unwrap();
                for (rel, xp, yp) in [
                    (Relation::R1, Proxy::U, Proxy::L),
                    (Relation::R2, Proxy::U, Proxy::U),
                    (Relation::R2p, Proxy::U, Proxy::U),
                    (Relation::R3, Proxy::L, Proxy::L),
                    (Relation::R3p, Proxy::L, Proxy::L),
                    (Relation::R4, Proxy::L, Proxy::U),
                ] {
                    let pr = ProxyRelation::new(rel, xp, yp);
                    assert_eq!(
                        naive(&e, rel, &x, &y),
                        naive_proxy(&e, pr, &x, &y, ProxyDefinition::PerNode).unwrap(),
                        "{pr}"
                    );
                }
            }
        }
    }
}
