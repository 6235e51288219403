//! Problem 4: relation detection over a set `𝒜` of nonatomic events.
//!
//! Given a recorded trace `(E, ≺)` and nonatomic events `𝒜`, the
//! application needs to know (i) whether a specific `r(X, Y)` holds for
//! `r ∈ ℛ`, and (ii) all relations that hold between each pair.
//!
//! The [`Detector`] owns the event set and implements Key Idea 1: each
//! event's proxy summaries (node sets, extremal positions, condensation
//! cuts) are computed **once** and cached; every subsequent query against
//! any other event is answered in a linear number of integer comparisons
//! (Theorem 20). Construct with [`Detector::without_cache`] to measure
//! the ablation.

use std::mem::MaybeUninit;
use std::sync::{Arc, PoisonError, RwLock};

use synchrel_obs::{Meter, NoopMeter};

use crate::error::{Error, Result};
use crate::execution::Execution;
use crate::incremental::IncrementalDetector;
use crate::linear::Evaluator;
use crate::nonatomic::NonatomicEvent;
use crate::proxy_relations::{ProxyRelation, ProxySummary, RelationSet};
use crate::tile::{RowSlabs, TilePartition, DEFAULT_TILE};
use crate::timestamp::SummaryArena;

/// How a [`Detector`] evaluates the 32 relations of a pair.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum EvalMode {
    /// 32 independent evaluations, each spending exactly its Theorem-20
    /// comparison budget — the reference path whose counts reproduce the
    /// paper's complexity table.
    #[default]
    Counted,
    /// The fused kernel ([`Evaluator::eval_all_proxy_fused`]): identical
    /// verdicts, shared predicate scans, fewer comparisons — the
    /// production hot path.
    Fused,
    /// The SoA block kernel ([`SummaryArena::eval_block`]): one
    /// [`SummaryArena`] is built per detector, then `tile × tile` blocks
    /// of (X, Y) pairs are evaluated branch-free, each side scanning
    /// only its member nodes, so a pair costs `Θ(|N_X| + |N_Y|)` work.
    /// Byte-identical `PairReport`s to [`EvalMode::Fused`] (same
    /// verdicts, same comparison counts — blocking amortizes
    /// orchestration, not Theorem-20 comparisons), with a far lower
    /// per-pair constant on all-pairs scans. Single-pair queries run
    /// the same kernel on a 1×1 block.
    Batched,
    /// The stateful streaming engine
    /// ([`crate::incremental::IncrementalDetector`]): the execution's
    /// linearization is replayed once through per-pair settle state
    /// with implication-lattice pruning, touching only the pairs each
    /// event can still move. Verdicts are byte-identical to every other
    /// mode; `comparisons` reports what the incremental replay actually
    /// spent on the pair (typically far below the batch kernels on
    /// churn-heavy streams). The replay is canonical — presentation
    /// order never affects it — so reports and meter totals are
    /// deterministic. Self-pairs (`x == y`) fall back to the fused
    /// kernel.
    Incremental,
}

/// The relations holding between one ordered pair of nonatomic events.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PairReport {
    /// Index of `X` in the detector's event list.
    pub x: usize,
    /// Index of `Y` in the detector's event list.
    pub y: usize,
    /// The subset of `ℛ` that holds for `(X, Y)`.
    pub relations: RelationSet,
    /// Integer comparisons spent answering this pair (excluding the
    /// amortized one-time summary cost).
    pub comparisons: u64,
}

/// Index of the ordered pair `(x, y)`, `x ≠ y`, in an all-pairs result
/// over `n` events ([`Detector::all_pairs`]): x-major with the diagonal
/// skipped, so row `x` fills `x·(n−1) .. (x+1)·(n−1)`.
#[inline]
pub fn pair_slot(n: usize, x: usize, y: usize) -> usize {
    debug_assert!(x != y && x < n && y < n, "pair ({x}, {y}) of {n}");
    x * (n - 1) + y - usize::from(y > x)
}

/// Relation detector over a fixed execution and event set (Problem 4).
///
/// Every ordered pair `X ≠ Y` is evaluated, including pairs whose
/// member sets overlap. Verdicts on overlapping `X` and `Y` follow the
/// proxy-summary semantics every mode shares; naive quantifier semantics
/// over member pairs is the specification for disjoint pairs only.
pub struct Detector<'a> {
    eval: Evaluator<'a>,
    events: Vec<NonatomicEvent>,
    cache: RwLock<Vec<Option<Arc<ProxySummary>>>>,
    arena: RwLock<Option<Arc<SummaryArena>>>,
    incr: RwLock<Option<Arc<IncrSweep>>>,
    caching: bool,
    mode: EvalMode,
    tile: usize,
}

impl<'a> Detector<'a> {
    /// Create a detector with summary caching enabled (Key Idea 1).
    pub fn new(exec: &'a Execution, events: Vec<NonatomicEvent>) -> Self {
        let n = events.len();
        Detector {
            eval: Evaluator::new(exec),
            events,
            cache: RwLock::new(vec![None; n]),
            arena: RwLock::new(None),
            incr: RwLock::new(None),
            caching: true,
            mode: EvalMode::Counted,
            tile: DEFAULT_TILE,
        }
    }

    /// Create a detector that recomputes summaries on every query
    /// (the Key-Idea-1 ablation baseline).
    pub fn without_cache(exec: &'a Execution, events: Vec<NonatomicEvent>) -> Self {
        let mut d = Detector::new(exec, events);
        d.caching = false;
        d
    }

    /// Select the pair evaluation mode (builder style).
    pub fn with_mode(mut self, mode: EvalMode) -> Self {
        self.mode = mode;
        self
    }

    /// The active pair evaluation mode.
    pub fn mode(&self) -> EvalMode {
        self.mode
    }

    /// Select the tile width used by cache-blocked and parallel sweeps
    /// (builder style). The default, [`DEFAULT_TILE`], keeps one tile
    /// of Y-side summary planes L1/L2-resident; values are clamped to
    /// `≥ 1`. Any width produces byte-identical reports — this is a
    /// pure scheduling knob.
    pub fn with_tile(mut self, tile: usize) -> Self {
        self.tile = tile.max(1);
        self
    }

    /// The active tile width.
    pub fn tile(&self) -> usize {
        self.tile
    }

    /// Number of registered nonatomic events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Is the event set empty?
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The registered events.
    pub fn events(&self) -> &[NonatomicEvent] {
        &self.events
    }

    /// The event at `i`.
    pub fn event(&self, i: usize) -> Option<&NonatomicEvent> {
        self.events.get(i)
    }

    fn summary(&self, i: usize) -> Arc<ProxySummary> {
        if self.caching {
            if let Some(s) = &self.cache.read().unwrap_or_else(PoisonError::into_inner)[i] {
                return Arc::clone(s);
            }
        }
        let s = Arc::new(self.eval.summarize_proxies(&self.events[i]));
        if self.caching {
            let mut w = self.cache.write().unwrap_or_else(PoisonError::into_inner);
            if let Some(existing) = &w[i] {
                return Arc::clone(existing);
            }
            w[i] = Some(Arc::clone(&s));
        }
        s
    }

    /// The shared SoA arena of all events' proxy summaries, built once
    /// on first use (and warming the per-event summary cache as a side
    /// effect). All batched evaluations read from this single structure
    /// instead of fetching two `ProxySummary`s per pair.
    fn arena(&self) -> Arc<SummaryArena> {
        if let Some(a) = &*self.arena.read().unwrap_or_else(PoisonError::into_inner) {
            return Arc::clone(a);
        }
        let summaries: Vec<Arc<ProxySummary>> =
            (0..self.events.len()).map(|i| self.summary(i)).collect();
        let built = Arc::new(SummaryArena::build(
            self.eval.execution().num_processes(),
            summaries.iter().map(|s| s.as_ref()),
        ));
        let mut w = self.arena.write().unwrap_or_else(PoisonError::into_inner);
        if let Some(existing) = &*w {
            return Arc::clone(existing);
        }
        *w = Some(Arc::clone(&built));
        built
    }

    /// The cached incremental sweep: the execution linearization is
    /// replayed once through the streaming engine, in canonical
    /// (construction) order, and every ordered pair's final verdict and
    /// charged comparisons are kept for lookup. Replaying in canonical
    /// order makes reports and meter totals independent of how callers
    /// later iterate the pairs or distribute them over threads.
    fn incremental(&self) -> Arc<IncrSweep> {
        if let Some(s) = &*self.incr.read().unwrap_or_else(PoisonError::into_inner) {
            return Arc::clone(s);
        }
        let built = Arc::new(IncrSweep::build(self.eval.execution(), &self.events));
        let mut w = self.incr.write().unwrap_or_else(PoisonError::into_inner);
        if let Some(existing) = &*w {
            return Arc::clone(existing);
        }
        *w = Some(Arc::clone(&built));
        built
    }

    /// Force all summaries to be computed now (the "one-time cost" of
    /// §2.3, measured by the setup benchmark). In [`EvalMode::Batched`]
    /// this also packs the [`SummaryArena`]; in
    /// [`EvalMode::Incremental`] it runs the replay.
    pub fn warm_up(&self) {
        for i in 0..self.events.len() {
            let _ = self.summary(i);
        }
        if self.mode == EvalMode::Batched {
            let _ = self.arena();
        }
        if self.mode == EvalMode::Incremental {
            let _ = self.incremental();
        }
    }

    /// Problem 4(i): does the specific relation `pr` hold for the pair
    /// `(events[xi], events[yi])`?
    ///
    /// In [`EvalMode::Counted`] only `pr` is evaluated, on its own
    /// Theorem-20 comparison path. Every other mode answers by
    /// membership in the set [`Detector::pair`] returns, self-pairs
    /// included (the incremental mode's fused fallback).
    pub fn holds(&self, pr: ProxyRelation, xi: usize, yi: usize) -> Result<bool> {
        if self.mode != EvalMode::Counted {
            return Ok(self.pair(xi, yi)?.relations.contains(pr));
        }
        self.check_index(xi)?;
        self.check_index(yi)?;
        let sx = self.summary(xi);
        let sy = self.summary(yi);
        Ok(self.eval.eval_proxy(pr, &sx, &sy).holds)
    }

    /// Problem 4(ii) for one pair: all relations of `ℛ` that hold.
    pub fn pair(&self, xi: usize, yi: usize) -> Result<PairReport> {
        self.pair_with(xi, yi, &NoopMeter)
    }

    /// [`Detector::pair`] reporting comparison counts to a [`Meter`].
    ///
    /// In [`EvalMode::Counted`] every one of the 32 relation
    /// evaluations is reported with its Theorem-20 budgets; in
    /// [`EvalMode::Fused`] and [`EvalMode::Batched`] only the pair
    /// total is (those kernels share predicate scans across relations).
    #[inline]
    pub fn pair_with<M: Meter>(&self, xi: usize, yi: usize, meter: &M) -> Result<PairReport> {
        self.check_index(xi)?;
        self.check_index(yi)?;
        let (relations, comparisons) = match self.mode {
            EvalMode::Counted => {
                let sx = self.summary(xi);
                let sy = self.summary(yi);
                self.eval.eval_all_proxy_with(&sx, &sy, meter)
            }
            EvalMode::Fused => {
                let sx = self.summary(xi);
                let sy = self.summary(yi);
                self.eval.eval_all_proxy_fused_with(&sx, &sy, meter)
            }
            EvalMode::Batched => {
                let a = self.arena();
                let comparisons = a.pair_comparisons(xi, yi);
                if meter.enabled() {
                    meter.on_pair(comparisons);
                }
                (a.eval_pair(xi, yi), comparisons)
            }
            EvalMode::Incremental if xi != yi => {
                let s = self.incremental();
                let (relations, comparisons) = s.get(xi, yi);
                if meter.enabled() {
                    meter.on_pair(comparisons);
                }
                (relations, comparisons)
            }
            EvalMode::Incremental => {
                // Self-pair: the streaming engine tracks X ≠ Y only.
                let sx = self.summary(xi);
                let sy = self.summary(yi);
                self.eval.eval_all_proxy_fused_with(&sx, &sy, meter)
            }
        };
        Ok(PairReport {
            x: xi,
            y: yi,
            relations,
            comparisons,
        })
    }

    /// Problem 4(ii): reports for every ordered pair `X ≠ Y`.
    pub fn all_pairs(&self) -> Vec<PairReport> {
        self.all_pairs_with(&NoopMeter)
    }

    /// [`Detector::all_pairs`] reporting to a [`Meter`].
    pub fn all_pairs_with<M: Meter>(&self, meter: &M) -> Vec<PairReport> {
        let n = self.events.len();
        if n < 2 {
            // Zero or one event: no ordered pairs, explicitly empty.
            return Vec::new();
        }
        if self.mode == EvalMode::Batched {
            // The same block sweep the parallel engine runs per band,
            // over the whole row space.
            let a = self.arena();
            return fill_reports(n, |slabs| batched_sweep(&a, self.tile, 0..n, slabs, meter));
        }
        let mut out = Vec::with_capacity((n - 1) * n);
        for x in 0..n {
            for y in 0..n {
                if x != y {
                    out.push(self.pair_with(x, y, meter).expect("indices in range"));
                }
            }
        }
        out
    }

    /// Parallel [`Detector::all_pairs`]: summaries are warmed up first,
    /// then the pair matrix is evaluated on `threads` worker threads.
    ///
    /// Work is distributed by a [`TilePartition`]: each worker owns a
    /// static contiguous band of X rows (no shared counter on the hot
    /// path, no false sharing on result writes — every row writes its
    /// own output slab), and a small stealable tail of rows rebalances
    /// skewed `|N_X|`/`|N_Y|` costs after the bands drain.
    pub fn all_pairs_parallel(&self, threads: usize) -> Vec<PairReport> {
        self.all_pairs_parallel_with(threads, &NoopMeter)
    }

    /// [`Detector::all_pairs_parallel`] reporting to a [`Meter`].
    ///
    /// Each worker thread gets its own [`Meter::fork`] (the counting
    /// meter is `Cell`-based and deliberately `!Sync`), and the forks
    /// are [`Meter::absorb`]ed into `meter` after the join. Because the
    /// merge is commutative and associative, the aggregated metrics are
    /// identical for every thread count and any steal-tail schedule
    /// — only the per-worker partition varies.
    pub fn all_pairs_parallel_with<M: Meter + Send>(
        &self,
        threads: usize,
        meter: &M,
    ) -> Vec<PairReport> {
        let n = self.events.len();
        if n < 2 {
            return Vec::new();
        }
        self.warm_up();
        if self.mode == EvalMode::Batched {
            return self.all_pairs_parallel_batched(threads, meter);
        }
        let part = TilePartition::new(n, threads, 1);
        if part.threads() == 1 {
            return self.all_pairs_with(meter);
        }
        fill_reports(n, |slabs| {
            let forks: Vec<M> = (0..part.threads()).map(|_| meter.fork()).collect();
            let forks = part.run(forks, |fork, rows| {
                for x in rows {
                    // SAFETY: the partition dispatches each row to
                    // exactly one worker; this worker owns row `x`.
                    let slab = unsafe { slabs.item_mut(x) };
                    let ys = (0..n).filter(|&y| y != x);
                    for (slot, y) in slab.iter_mut().zip(ys) {
                        slot.write(self.pair_with(x, y, fork).expect("indices in range"));
                    }
                }
            });
            for fork in &forks {
                meter.absorb(fork);
            }
        })
    }

    /// Parallel batched scan: each worker's static band of X rows is
    /// swept block by block ([`batched_sweep`]), writing straight into
    /// its disjoint output slabs. Reports are byte-identical to the
    /// sequential scan for every thread count, tile width, and steal
    /// schedule.
    fn all_pairs_parallel_batched<M: Meter + Send>(
        &self,
        threads: usize,
        meter: &M,
    ) -> Vec<PairReport> {
        let n = self.events.len();
        let a = self.arena();
        let part = TilePartition::new(n, threads, self.tile);
        if part.threads() == 1 {
            return self.all_pairs_with(meter);
        }
        fill_reports(n, |slabs| {
            let forks: Vec<M> = (0..part.threads()).map(|_| meter.fork()).collect();
            let forks = part.run(forks, |fork, rows| {
                batched_sweep(&a, self.tile, rows, slabs, fork);
            });
            for fork in &forks {
                meter.absorb(fork);
            }
        })
    }

    fn check_index(&self, i: usize) -> Result<()> {
        if i >= self.events.len() {
            return Err(Error::UnknownEventIndex(i));
        }
        Ok(())
    }
}

/// The frozen result of one incremental replay: per ordered pair the
/// final verdict set and the comparisons the streaming engine charged
/// to it, in x-major diagonal-skipping order.
struct IncrSweep {
    n: usize,
    sets: Vec<RelationSet>,
    comps: Vec<u64>,
}

impl IncrSweep {
    fn build(exec: &Execution, events: &[NonatomicEvent]) -> IncrSweep {
        let n = events.len();
        let mut sets = Vec::with_capacity(n.saturating_sub(1) * n);
        let mut comps = Vec::with_capacity(sets.capacity());
        if n >= 2 {
            let det = IncrementalDetector::replay(exec, events);
            for x in 0..n {
                for y in 0..n {
                    if x != y {
                        sets.push(det.relations(x, y).expect("events are non-empty"));
                        comps.push(det.pair_comparisons(x, y));
                    }
                }
            }
        }
        IncrSweep { n, sets, comps }
    }

    fn get(&self, x: usize, y: usize) -> (RelationSet, u64) {
        let k = pair_slot(self.n, x, y);
        (self.sets[k], self.comps[k])
    }
}

/// Output slabs over a report matrix's uninitialised slots.
type ReportSlabs<'a> = RowSlabs<'a, MaybeUninit<PairReport>>;

/// The `n × (n-1)` report matrix, x-major with the diagonal skipped,
/// filled by `fill` through one [`RowSlabs`] slab per X row.
///
/// The slots start uninitialised: no serial pre-fill runs before the
/// workers, which touch the pages themselves. `fill` must write every
/// slot of every slab — each caller dispatches every row exactly once
/// and writes all `n - 1` of its pairs — and a panic in `fill` unwinds
/// before the length is set.
fn fill_reports(n: usize, fill: impl FnOnce(&ReportSlabs<'_>)) -> Vec<PairReport> {
    let len = n * (n - 1);
    let mut out = Vec::with_capacity(len);
    fill(&RowSlabs::new(&mut out.spare_capacity_mut()[..len], n - 1));
    // SAFETY: `fill` initialised all `len` slots (contract above).
    unsafe { out.set_len(len) };
    out
}

/// The batched sweep over one range of X rows, shared by the sequential
/// scan (`rows = 0..n`, one caller) and every parallel worker (its
/// band, then stolen tail chunks).
///
/// The rows are cut into `tile`-row X blocks and each is evaluated
/// against every `tile`-column Y block with
/// [`SummaryArena::eval_block`]. One block's operands — the Y block's
/// `C1`/`C2` rows and the X block's `C3`/`C4` rows at the nodes the two
/// blocks touch — stay L1/L2-resident while the block is evaluated.
/// Row `x`'s reports land in slab `x` at diagonal-skipping offsets, so
/// the output is x-major regardless of the block order.
fn batched_sweep<M: Meter>(
    a: &SummaryArena,
    tile: usize,
    rows: std::ops::Range<usize>,
    slabs: &ReportSlabs<'_>,
    meter: &M,
) {
    let n = a.len();
    let tile = tile.max(1).min(n);
    let mut sets = vec![RelationSet::empty(); tile * tile];
    for x0 in rows.clone().step_by(tile) {
        let xs = x0..(x0 + tile).min(rows.end);
        for y0 in (0..n).step_by(tile) {
            let ys = y0..(y0 + tile).min(n);
            let block = &mut sets[..xs.len() * ys.len()];
            a.eval_block(xs.clone(), ys.clone(), block);
            for (x, row) in xs.clone().zip(block.chunks_exact(ys.len())) {
                // SAFETY: callers only pass row ranges they were
                // dispatched exclusively (or run single-threaded), so
                // slab `x` has no other writer.
                let slab = unsafe { slabs.item_mut(x) };
                let row_start = x * (n - 1);
                for (y, &relations) in ys.clone().zip(row) {
                    if y == x {
                        continue;
                    }
                    let comparisons = a.pair_comparisons(x, y);
                    if meter.enabled() {
                        meter.on_pair(comparisons);
                    }
                    slab[pair_slot(n, x, y) - row_start].write(PairReport {
                        x,
                        y,
                        relations,
                        comparisons,
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use synchrel_obs::CompareCounter;

    use super::*;
    use crate::execution::ExecutionBuilder;
    use crate::proxy_relations::Proxy;
    use crate::relations::Relation;

    fn setup() -> (Execution, Vec<NonatomicEvent>) {
        // Three phases chained by messages: X fully precedes Y, which
        // fully precedes Z.
        let mut b = ExecutionBuilder::new(3);
        let x1 = b.internal(0);
        let (x2, m1) = b.send(0);
        let y1 = b.recv(1, m1).unwrap();
        let (y2, m2) = b.send(1);
        let z1 = b.recv(2, m2).unwrap();
        let z2 = b.internal(2);
        let e = b.build().unwrap();
        let xs = vec![
            NonatomicEvent::new(&e, [x1, x2]).unwrap(),
            NonatomicEvent::new(&e, [y1, y2]).unwrap(),
            NonatomicEvent::new(&e, [z1, z2]).unwrap(),
        ];
        (e, xs)
    }

    #[test]
    fn specific_relation_query() {
        let (e, evs) = setup();
        let d = Detector::new(&e, evs);
        let r1 = ProxyRelation::new(Relation::R1, Proxy::U, Proxy::L);
        assert!(d.holds(r1, 0, 1).unwrap());
        assert!(d.holds(r1, 1, 2).unwrap());
        assert!(d.holds(r1, 0, 2).unwrap());
        assert!(!d.holds(r1, 2, 0).unwrap());
    }

    #[test]
    fn pair_reports_all_relations_for_ordered_phases() {
        let (e, evs) = setup();
        let d = Detector::new(&e, evs);
        let rep = d.pair(0, 1).unwrap();
        // X wholly precedes Y: every one of the 32 relations holds.
        assert_eq!(rep.relations.len(), 32);
        let rev = d.pair(1, 0).unwrap();
        assert!(rev.relations.is_empty());
    }

    #[test]
    fn all_pairs_covers_matrix() {
        let (e, evs) = setup();
        let d = Detector::new(&e, evs);
        let reports = d.all_pairs();
        assert_eq!(reports.len(), 6);
        for rep in &reports {
            if rep.x < rep.y {
                assert_eq!(rep.relations.len(), 32, "({}, {})", rep.x, rep.y);
            } else {
                assert!(rep.relations.is_empty(), "({}, {})", rep.x, rep.y);
            }
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        let (e, evs) = setup();
        let d = Detector::new(&e, evs);
        let seq = d.all_pairs();
        for threads in [1, 2, 4, 16] {
            let par = d.all_pairs_parallel(threads);
            assert_eq!(seq, par, "threads = {threads}");
        }
    }

    #[test]
    fn fused_mode_matches_counted_verdicts() {
        let (e, evs) = setup();
        let counted = Detector::new(&e, evs.clone());
        let fused = Detector::new(&e, evs).with_mode(EvalMode::Fused);
        assert_eq!(fused.mode(), EvalMode::Fused);
        let a = counted.all_pairs();
        let b = fused.all_pairs();
        assert_eq!(a.len(), b.len());
        for (ra, rb) in a.iter().zip(&b) {
            assert_eq!(ra.relations, rb.relations, "({}, {})", ra.x, ra.y);
            assert!(rb.comparisons <= ra.comparisons, "({}, {})", ra.x, ra.y);
        }
    }

    #[test]
    fn parallel_fused_matches_sequential_fused() {
        let (e, evs) = setup();
        let d = Detector::new(&e, evs).with_mode(EvalMode::Fused);
        let seq = d.all_pairs();
        for threads in [2, 3, 8] {
            assert_eq!(seq, d.all_pairs_parallel(threads), "threads = {threads}");
        }
    }

    #[test]
    fn cache_ablation_same_answers() {
        let (e, evs) = setup();
        let cached = Detector::new(&e, evs.clone());
        let uncached = Detector::without_cache(&e, evs);
        assert_eq!(cached.all_pairs(), uncached.all_pairs());
    }

    #[test]
    fn metered_counts_match_reports() {
        let (e, evs) = setup();
        let d = Detector::new(&e, evs);
        let meter = CompareCounter::new();
        let reports = d.all_pairs_with(&meter);
        assert_eq!(meter.pairs(), reports.len() as u64);
        let total: u64 = reports.iter().map(|r| r.comparisons).sum();
        assert_eq!(meter.comparisons(), total);
        let snap = meter.snapshot(Relation::NAMES);
        assert_eq!(snap.pair_comparisons, total);
        for t in &snap.relations {
            assert_eq!(t.sound_violations, 0, "{}", t.name);
            assert_eq!(t.evals, 4 * reports.len() as u64, "{}", t.name);
        }
    }

    #[test]
    fn batched_mode_byte_identical_to_fused() {
        let (e, evs) = setup();
        let fused = Detector::new(&e, evs.clone()).with_mode(EvalMode::Fused);
        let batched = Detector::new(&e, evs).with_mode(EvalMode::Batched);
        assert_eq!(batched.mode(), EvalMode::Batched);
        // Whole reports — relations AND comparisons — must match.
        assert_eq!(fused.all_pairs(), batched.all_pairs());
        // Single-pair queries go through the same arena.
        assert_eq!(fused.pair(0, 2).unwrap(), batched.pair(0, 2).unwrap());
        assert_eq!(fused.pair(2, 1).unwrap(), batched.pair(2, 1).unwrap());
    }

    #[test]
    fn incremental_mode_matches_batched_verdicts() {
        let (e, evs) = setup();
        let batched = Detector::new(&e, evs.clone()).with_mode(EvalMode::Batched);
        let incr = Detector::new(&e, evs).with_mode(EvalMode::Incremental);
        assert_eq!(incr.mode(), EvalMode::Incremental);
        let a = batched.all_pairs();
        let b = incr.all_pairs();
        assert_eq!(a.len(), b.len());
        for (ra, rb) in a.iter().zip(&b) {
            // Verdicts byte-identical; comparison accounting is the
            // engine's own (what the replay actually spent).
            assert_eq!(ra.relations, rb.relations, "({}, {})", ra.x, ra.y);
        }
        // Self-pair falls back to the fused kernel instead of erroring.
        assert_eq!(
            incr.pair(1, 1).unwrap().relations,
            batched.pair(1, 1).unwrap().relations
        );
    }

    #[test]
    fn parallel_incremental_matches_sequential_incremental() {
        let (e, evs) = setup();
        let d = Detector::new(&e, evs).with_mode(EvalMode::Incremental);
        let seq = d.all_pairs();
        for threads in [1, 2, 3, 8] {
            assert_eq!(seq, d.all_pairs_parallel(threads), "threads = {threads}");
        }
    }

    #[test]
    fn parallel_batched_matches_sequential_batched() {
        let (e, evs) = setup();
        let d = Detector::new(&e, evs).with_mode(EvalMode::Batched);
        let seq = d.all_pairs();
        for threads in [1, 2, 3, 8, 16] {
            assert_eq!(seq, d.all_pairs_parallel(threads), "threads = {threads}");
        }
    }

    #[test]
    fn metering_does_not_change_reports() {
        let (e, evs) = setup();
        for mode in [
            EvalMode::Counted,
            EvalMode::Fused,
            EvalMode::Batched,
            EvalMode::Incremental,
        ] {
            let d = Detector::new(&e, evs.clone()).with_mode(mode);
            let plain = d.all_pairs();
            let meter = CompareCounter::new();
            assert_eq!(plain, d.all_pairs_with(&meter), "{mode:?}");
        }
    }

    #[test]
    fn parallel_meter_aggregate_is_thread_count_independent() {
        let (e, evs) = setup();
        for mode in [
            EvalMode::Counted,
            EvalMode::Fused,
            EvalMode::Batched,
            EvalMode::Incremental,
        ] {
            let d = Detector::new(&e, evs.clone()).with_mode(mode);
            let baseline = CompareCounter::new();
            let seq = d.all_pairs_with(&baseline);
            for threads in [1, 2, 4, 8] {
                let meter = CompareCounter::new();
                let par = d.all_pairs_parallel_with(threads, &meter);
                assert_eq!(seq, par, "{mode:?} threads={threads}");
                assert_eq!(
                    baseline.snapshot(Relation::NAMES),
                    meter.snapshot(Relation::NAMES),
                    "{mode:?} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn index_errors() {
        let (e, evs) = setup();
        let d = Detector::new(&e, evs);
        let r = ProxyRelation::new(Relation::R4, Proxy::L, Proxy::U);
        assert!(d.holds(r, 0, 7).is_err());
        assert!(d.pair(9, 0).is_err());
    }

    #[test]
    fn empty_and_singleton_sets() {
        let (e, _) = setup();
        let d = Detector::new(&e, vec![]);
        assert!(d.is_empty());
        assert!(d.all_pairs().is_empty());
        assert!(d.all_pairs_parallel(4).is_empty());
    }

    #[test]
    fn tiny_inputs_empty_reports_in_every_mode() {
        // Regression: 0- and 1-event executions must return an explicit
        // empty report (never panic on zero pairs) in every mode,
        // sequential and parallel, for any thread count.
        let (e, evs) = setup();
        for mode in [
            EvalMode::Counted,
            EvalMode::Fused,
            EvalMode::Batched,
            EvalMode::Incremental,
        ] {
            for events in [vec![], vec![evs[0].clone()]] {
                let d = Detector::new(&e, events.clone()).with_mode(mode);
                assert!(d.all_pairs().is_empty(), "{mode:?} n={}", events.len());
                for threads in [0, 1, 4, 64] {
                    assert!(
                        d.all_pairs_parallel(threads).is_empty(),
                        "{mode:?} n={} threads={threads}",
                        events.len()
                    );
                }
                let m = CompareCounter::new();
                assert!(d.all_pairs_with(&m).is_empty());
                assert_eq!(m.pairs(), 0, "{mode:?}: no pairs, no meter events");
            }
        }
    }
}
