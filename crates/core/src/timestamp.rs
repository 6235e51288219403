//! The timestamp structure of an execution (paper §2.3).
//!
//! Each atomic event `e` carries
//!
//! * a **forward** vector timestamp `T(e)` (Definition 13):
//!   `T(e)[i] = |{e_i | e_i ≼ e}|` — the number of events on node `i`
//!   that causally precede or equal `e` (canonical Fidge/Mattern clocks,
//!   extended to the dummy `⊥ᵢ`/`⊤ᵢ` events), and
//! * a **reverse** vector timestamp `Tᴿ(e)` (Definition 14):
//!   `Tᴿ(e)[i] = |{e_i | e_i ≽ e}|` — the number of events on node `i`
//!   causally at or after `e`.
//!
//! `(E, ≺)` is isomorphic to `(𝒯, <)` where `𝒯 = {T(e)}` and `<` is the
//! strict component-wise vector order; both structures are established in
//! a single forward and a single backward pass over the trace.
//!
//! ## Storage layout
//!
//! All timestamps live in two flat `u32` arenas (one forward, one
//! reverse), row-major with stride `|P|`: the row of event `(p, i)`
//! starts at `(row_base[p] + i) · |P|`. Consecutive events of a process
//! occupy consecutive rows, so the per-process scans of the relation
//! evaluation machinery walk adjacent memory with zero pointer chasing.
//! Rows are exposed as `&[u32]` ([`Timestamps::forward_row`]) or as the
//! `Copy` comparison wrapper [`ClockView`].

use crate::execution::{EventId, EventKind, Message};
use crate::linear::Evaluator;
use crate::nonatomic::NonatomicEvent;
use crate::proxy_relations::ProxySummary;
use crate::vclock::ClockView;

/// Forward and reverse vector timestamps for every event of an execution,
/// stored in two contiguous row-major arenas.
///
/// Owned by [`crate::execution::Execution`]; establishing it is the
/// "one-time cost" of §2.3, amortized over all later relation evaluations
/// (Key Idea 1).
#[derive(Clone, Debug)]
pub struct Timestamps {
    /// Clock width `|P|` — also the arena row stride.
    width: usize,
    /// First row of each process's chain within the arenas.
    row_base: Vec<usize>,
    forward: Box<[u32]>,
    reverse: Box<[u32]>,
}

impl Timestamps {
    /// Establish the timestamp structure for a trace.
    ///
    /// `kinds` are the per-process event kinds including both dummies;
    /// `order` lists the application events in a linearization of `≺`.
    pub(crate) fn establish(
        kinds: &[Vec<EventKind>],
        messages: &[Message],
        order: &[EventId],
    ) -> Timestamps {
        let width = kinds.len();
        let mut row_base = Vec::with_capacity(width);
        let mut rows = 0usize;
        for k in kinds {
            row_base.push(rows);
            rows += k.len();
        }
        fn row(base: &[u32], r: usize, width: usize) -> &[u32] {
            &base[r * width..(r + 1) * width]
        }
        // Rows are computed into a scratch buffer and copied in, because a
        // row under construction may read rows at arbitrary offsets (the
        // matching send/receive event's row).
        let mut scratch = vec![0u32; width];

        // ---- forward pass -------------------------------------------------
        let mut forward = vec![0u32; rows * width].into_boxed_slice();
        // T(⊥ᵢ) = unit vector at i.
        for (p, &base) in row_base.iter().enumerate() {
            forward[base * width + p] = 1;
        }
        for &e in order {
            let p = e.process.idx();
            let i = e.index as usize;
            // Local predecessor, floored at all-ones (⊥ⱼ ≺ e for every j).
            for (s, &v) in scratch
                .iter_mut()
                .zip(row(&forward, row_base[p] + i - 1, width))
            {
                *s = v.max(1);
            }
            if let EventKind::Recv { msg } = kinds[p][i] {
                let snd = messages[msg as usize].send;
                let srow = row(
                    &forward,
                    row_base[snd.process.idx()] + snd.index as usize,
                    width,
                );
                for (s, &v) in scratch.iter_mut().zip(srow) {
                    *s = (*s).max(v);
                }
            }
            scratch[p] += 1;
            let o = (row_base[p] + i) * width;
            forward[o..o + width].copy_from_slice(&scratch);
        }
        // T(⊤ᵢ)[j] = |E_j| − 1 for j ≠ i (everything except ⊤ⱼ), |E_i| at i.
        for (p, &base) in row_base.iter().enumerate() {
            let last = kinds[p].len() - 1;
            let o = (base + last) * width;
            for (j, slot) in forward[o..o + width].iter_mut().enumerate() {
                *slot = kinds[j].len() as u32 - 1;
            }
            forward[o + p] = kinds[p].len() as u32;
        }

        // ---- reverse pass -------------------------------------------------
        let mut reverse = vec![0u32; rows * width].into_boxed_slice();
        // Tᴿ(⊤ᵢ) = unit vector at i.
        for (p, &base) in row_base.iter().enumerate() {
            let last = kinds[p].len() - 1;
            reverse[(base + last) * width + p] = 1;
        }
        for &e in order.iter().rev() {
            let p = e.process.idx();
            let i = e.index as usize;
            // Local successor, floored at all-ones (e ≺ ⊤ⱼ for every j).
            for (s, &v) in scratch
                .iter_mut()
                .zip(row(&reverse, row_base[p] + i + 1, width))
            {
                *s = v.max(1);
            }
            if let EventKind::Send { msg } = kinds[p][i] {
                if let Some(r) = messages[msg as usize].recv {
                    let rrow = row(
                        &reverse,
                        row_base[r.process.idx()] + r.index as usize,
                        width,
                    );
                    for (s, &v) in scratch.iter_mut().zip(rrow) {
                        *s = (*s).max(v);
                    }
                }
            }
            scratch[p] += 1;
            let o = (row_base[p] + i) * width;
            reverse[o..o + width].copy_from_slice(&scratch);
        }
        // Tᴿ(⊥ᵢ)[j] = |E_j| − 1 for j ≠ i (everything except ⊥ⱼ), |E_i| at i.
        for (p, &base) in row_base.iter().enumerate() {
            let o = base * width;
            for (j, slot) in reverse[o..o + width].iter_mut().enumerate() {
                *slot = kinds[j].len() as u32 - 1;
            }
            reverse[o + p] = kinds[p].len() as u32;
        }

        Timestamps {
            width,
            row_base,
            forward,
            reverse,
        }
    }

    /// Number of processes `|P|` (the clock width and the arena stride).
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    #[inline]
    fn offset(&self, e: EventId) -> usize {
        (self.row_base[e.process.idx()] + e.index as usize) * self.width
    }

    /// Forward timestamp row `T(e)` as a raw arena slice.
    #[inline]
    pub fn forward_row(&self, e: EventId) -> &[u32] {
        let o = self.offset(e);
        &self.forward[o..o + self.width]
    }

    /// Reverse timestamp row `Tᴿ(e)` as a raw arena slice.
    #[inline]
    pub fn reverse_row(&self, e: EventId) -> &[u32] {
        let o = self.offset(e);
        &self.reverse[o..o + self.width]
    }

    /// Forward timestamp `T(e)`.
    #[inline]
    pub fn forward(&self, e: EventId) -> ClockView<'_> {
        ClockView::new(self.forward_row(e))
    }

    /// Reverse timestamp `Tᴿ(e)`.
    #[inline]
    pub fn reverse(&self, e: EventId) -> ClockView<'_> {
        ClockView::new(self.reverse_row(e))
    }

    /// Single component `T(e)[i]` without forming a row view.
    #[inline]
    pub fn forward_component(&self, e: EventId, i: usize) -> u32 {
        self.forward[self.offset(e) + i]
    }

    /// Single component `Tᴿ(e)[i]` without forming a row view.
    #[inline]
    pub fn reverse_component(&self, e: EventId, i: usize) -> u32 {
        self.reverse[self.offset(e) + i]
    }
}

/// Segment indices within a [`SummaryArena`] proxy plane, mirroring the
/// `[lo | hi | c1 | c2 | c3 | c4]` layout of
/// [`crate::linear::EventSummary`].
pub(crate) mod arena_seg {
    pub const LO: usize = 0;
    pub const HI: usize = 1;
    pub const C1: usize = 2;
    pub const C2: usize = 3;
    pub const C3: usize = 4;
    pub const C4: usize = 5;
    /// Number of segments per proxy.
    pub const COUNT: usize = 6;
}

/// Every event's four proxy extrema packed into one flat `u32` matrix
/// keyed by event index — the structure-of-arrays twin of a
/// `Vec<ProxySummary>` — plus each event's node list.
///
/// Layout is **transposed** relative to
/// [`EventSummary`](crate::linear::EventSummary): the value of
/// segment `seg` of proxy `p` at node `i` for event `e` lives at
/// `((p·6 + seg)·|P| + i)·n + e`. Fixing `(p, seg, i)` therefore yields
/// one contiguous row across *all* events, which is exactly what the
/// block kernel
/// ([`SummaryArena::eval_block`](crate::proxy_relations)) consumes: for
/// a fixed `X` and node `i ∈ N_X` it walks the Y block's `C1`/`C2` rows
/// at unit stride, and for a fixed `Y` and node `j ∈ N_Y` the X block's
/// `C3`/`C4` rows, with no per-pair summary lookups.
///
/// The node lists `N_X` are packed once as CSR: `u16` node indices in
/// `nodes`, event `e`'s at `nodes[offsets[e]..offsets[e + 1]]`. Per-node
/// proxies share the base event's node set, so one list serves both
/// proxies; it equals `{i : hi[i] ≠ 0}` and `{i : lo[i] ≠ 0}` of either
/// proxy, so the kernel's scans over it visit exactly the nodes the
/// fused kernel's node-restricted scans do.
///
/// Built once per [`crate::detector::Detector`] (or explicitly via
/// [`SummaryArena::build`]); replaces per-pair `summarize_proxies`
/// fetches on the batched path.
#[derive(Clone, Debug)]
pub struct SummaryArena {
    n: usize,
    width: usize,
    /// `data[((proxy·6 + seg)·width + node)·n + event]`.
    data: Box<[u32]>,
    /// CSR offsets into `nodes`, `n + 1` long.
    offsets: Box<[u32]>,
    /// Every event's node list, ascending, concatenated.
    nodes: Box<[u16]>,
}

impl SummaryArena {
    /// Pack precomputed proxy summaries into the arena.
    ///
    /// `width` is the clock width `|P|` (at most 65536); all summaries
    /// must come from an execution of that width, and each must be a
    /// Definition-2 per-node summary, whose two proxies share one node
    /// set.
    pub fn build<'s, I>(width: usize, summaries: I) -> SummaryArena
    where
        I: IntoIterator<Item = &'s ProxySummary>,
    {
        assert!(width <= 1 << 16, "node indices are packed as u16");
        let summaries: Vec<&ProxySummary> = summaries.into_iter().collect();
        let n = summaries.len();
        let mut data = vec![0u32; 2 * arena_seg::COUNT * width * n].into_boxed_slice();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut nodes = Vec::new();
        offsets.push(0u32);
        for (e, s) in summaries.iter().enumerate() {
            assert_eq!(
                s.lower().node_set(),
                s.upper().node_set(),
                "per-node proxies share the base event's node set"
            );
            nodes.extend(s.lower().node_set().iter().map(|&i| i as u16));
            offsets.push(u32::try_from(nodes.len()).expect("node lists fit u32 offsets"));
            for (p, es) in [s.lower(), s.upper()].into_iter().enumerate() {
                debug_assert_eq!(es.lo_row().len(), width, "summary width mismatch");
                debug_assert!(
                    (0..width).all(|i| {
                        let member = es.node_set().contains(&i);
                        (es.hi_row()[i] != 0) == member && (es.lo_row()[i] != 0) == member
                    }),
                    "node list of event {e} differs from its nonzero hi/lo nodes"
                );
                let rows = [
                    es.lo_row(),
                    es.hi_row(),
                    es.c1_row(),
                    es.c2_row(),
                    es.c3_row(),
                    es.c4_row(),
                ];
                for (seg, row) in rows.into_iter().enumerate() {
                    for (i, &v) in row.iter().enumerate() {
                        data[((p * arena_seg::COUNT + seg) * width + i) * n + e] = v;
                    }
                }
            }
        }
        SummaryArena {
            n,
            width,
            data,
            offsets: offsets.into_boxed_slice(),
            nodes: nodes.into_boxed_slice(),
        }
    }

    /// Summarize `events` (Definition-2 per-node proxies) and pack.
    pub fn new(eval: &Evaluator<'_>, events: &[NonatomicEvent]) -> SummaryArena {
        let summaries: Vec<ProxySummary> =
            events.iter().map(|e| eval.summarize_proxies(e)).collect();
        SummaryArena::build(eval.execution().num_processes(), summaries.iter())
    }

    /// Number of packed events.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Is the arena empty?
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Clock width `|P|`.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// `|N_X|` of event `e`.
    #[inline]
    pub fn node_count(&self, e: usize) -> u32 {
        self.offsets[e + 1] - self.offsets[e]
    }

    /// The node list `N_X` of event `e`, ascending.
    #[inline]
    pub fn nodes(&self, e: usize) -> &[u16] {
        &self.nodes[self.offsets[e] as usize..self.offsets[e + 1] as usize]
    }

    /// The contiguous all-events row for `(proxy, seg, node)`.
    #[inline]
    pub(crate) fn plane(&self, proxy: usize, seg: usize, node: usize) -> &[u32] {
        let o = ((proxy * arena_seg::COUNT + seg) * self.width + node) * self.n;
        &self.data[o..o + self.n]
    }

    /// Single value for `(proxy, seg, node, event)`.
    #[inline]
    pub(crate) fn value(&self, proxy: usize, seg: usize, node: usize, event: usize) -> u32 {
        self.data[((proxy * arena_seg::COUNT + seg) * self.width + node) * self.n + event]
    }

    /// Comparisons the fused kernel spends on pair `(x, y)`:
    /// `4·(2|N_X| + 2|N_Y| + 2·min(|N_X|, |N_Y|))`. The block kernel
    /// scans the same `N_X` and `N_Y` nodes (Theorem 20 bounds the
    /// *counts*; blocking only amortizes orchestration), so reports quote
    /// the same figure.
    #[inline]
    pub fn pair_comparisons(&self, x: usize, y: usize) -> u64 {
        let nx = self.node_count(x) as u64;
        let ny = self.node_count(y) as u64;
        4 * (2 * nx + 2 * ny + 2 * nx.min(ny))
    }
}

#[cfg(test)]
mod tests {
    use crate::execution::{EventId, ExecutionBuilder, ProcessId};

    #[test]
    fn forward_clocks_simple_message() {
        // p0: ⊥ a s ⊤ ; p1: ⊥ r b ⊤ ; message s -> r.
        let mut bld = ExecutionBuilder::new(2);
        let a = bld.internal(0);
        let (s, m) = bld.send(0);
        let r = bld.recv(1, m).unwrap();
        let b = bld.internal(1);
        let e = bld.build().unwrap();

        assert_eq!(e.clock(a).components(), &[2, 1]);
        assert_eq!(e.clock(s).components(), &[3, 1]);
        assert_eq!(e.clock(r).components(), &[3, 2]);
        assert_eq!(e.clock(b).components(), &[3, 3]);
        // Dummies.
        assert_eq!(e.clock(e.bottom(ProcessId(0))).components(), &[1, 0]);
        assert_eq!(e.clock(e.bottom(ProcessId(1))).components(), &[0, 1]);
        assert_eq!(e.clock(e.top(ProcessId(0))).components(), &[4, 3]);
        assert_eq!(e.clock(e.top(ProcessId(1))).components(), &[3, 4]);
    }

    #[test]
    fn reverse_clocks_simple_message() {
        let mut bld = ExecutionBuilder::new(2);
        let a = bld.internal(0);
        let (s, m) = bld.send(0);
        let r = bld.recv(1, m).unwrap();
        let b = bld.internal(1);
        let e = bld.build().unwrap();

        // Tᴿ(e)[i] = number of events at i causally ≽ e.
        assert_eq!(e.rclock(b).components(), &[1, 2]);
        assert_eq!(e.rclock(r).components(), &[1, 3]);
        assert_eq!(e.rclock(s).components(), &[2, 3]);
        assert_eq!(e.rclock(a).components(), &[3, 3]);
        // ⊤₀ is followed only by itself; ⊥₀ is followed by everything
        // except the foreign ⊥₁.
        assert_eq!(e.rclock(e.top(ProcessId(0))).components(), &[1, 0]);
        assert_eq!(e.rclock(e.bottom(ProcessId(0))).components(), &[4, 3]);
    }

    #[test]
    fn isomorphism_with_strict_vector_order() {
        // Definition 13: e ≺ e' iff T(e) < T(e') — verified exhaustively
        // against the graph ground truth on a nontrivial execution.
        let mut bld = ExecutionBuilder::new(3);
        let _a = bld.internal(0);
        let (s1, m1) = bld.send(0);
        let _c = bld.internal(2);
        let r1 = bld.recv(1, m1).unwrap();
        let (s2, m2) = bld.send(1);
        let r2 = bld.recv(2, m2).unwrap();
        let (s3, m3) = bld.send(2);
        let _r3 = bld.recv(0, m3).unwrap();
        let _d = bld.internal(1);
        let e = bld.build().unwrap();
        let _ = (s1, r1, s2, r2, s3);

        let all: Vec<EventId> = e.all_events().collect();
        for &x in &all {
            for &y in &all {
                let ground = e.precedes_slow(x, y);
                assert_eq!(
                    e.clock(x).lt(e.clock(y)),
                    ground,
                    "vector order vs ground truth on {x}, {y}"
                );
                assert_eq!(e.precedes(x, y), ground, "fast test on {x}, {y}");
            }
        }
    }

    #[test]
    fn reverse_counts_mirror_forward() {
        // |{e_i ≽ e}| computed by brute force must match Tᴿ.
        let mut bld = ExecutionBuilder::new(3);
        bld.internal(0);
        let (_, m1) = bld.send(0);
        bld.recv(2, m1).unwrap();
        bld.internal(1);
        let (_, m2) = bld.send(2);
        bld.recv(1, m2).unwrap();
        let e = bld.build().unwrap();

        let all: Vec<EventId> = e.all_events().collect();
        for &x in &all {
            for i in 0..e.num_processes() {
                let count = all
                    .iter()
                    .filter(|&&y| y.process.idx() == i && (y == x || e.precedes_slow(x, y)))
                    .count() as u32;
                assert_eq!(
                    e.rclock(x)[i],
                    count,
                    "Tᴿ({x})[{i}] should count events at {i} after-or-equal {x}"
                );
            }
        }
    }

    #[test]
    fn forward_counts_match_definition_13() {
        let mut bld = ExecutionBuilder::new(3);
        bld.internal(1);
        let (_, m1) = bld.send(1);
        bld.recv(0, m1).unwrap();
        bld.internal(2);
        let (_, m2) = bld.send(0);
        bld.recv(2, m2).unwrap();
        let e = bld.build().unwrap();

        let all: Vec<EventId> = e.all_events().collect();
        for &x in &all {
            for i in 0..e.num_processes() {
                let count = all
                    .iter()
                    .filter(|&&y| y.process.idx() == i && (y == x || e.precedes_slow(y, x)))
                    .count() as u32;
                assert_eq!(
                    e.clock(x)[i],
                    count,
                    "T({x})[{i}] should count events at {i} before-or-equal {x}"
                );
            }
        }
    }

    #[test]
    fn empty_process_clocks() {
        let mut bld = ExecutionBuilder::new(2);
        bld.internal(0);
        let e = bld.build().unwrap();
        // Process 1 has only dummies; its ⊤ still sees all of p0 except ⊤₀.
        assert_eq!(e.clock(e.top(ProcessId(1))).components(), &[2, 2]);
        assert_eq!(e.clock(e.bottom(ProcessId(1))).components(), &[0, 1]);
    }

    #[test]
    fn rows_are_contiguous_per_process() {
        // Consecutive events of a process occupy consecutive arena rows.
        let mut bld = ExecutionBuilder::new(3);
        bld.internal(1);
        bld.internal(1);
        let (_, m) = bld.send(0);
        bld.recv(2, m).unwrap();
        let e = bld.build().unwrap();
        let ts = e.timestamps();
        for p in 0..3 {
            let pid = ProcessId(p as u32);
            for i in 0..e.len(pid) - 1 {
                let a = ts
                    .forward_row(EventId {
                        process: pid,
                        index: i,
                    })
                    .as_ptr();
                let b = ts
                    .forward_row(EventId {
                        process: pid,
                        index: i + 1,
                    })
                    .as_ptr();
                assert_eq!(unsafe { a.add(ts.width()) }, b, "p{p} row {i}");
            }
        }
    }

    #[test]
    fn component_accessors_match_rows() {
        let mut bld = ExecutionBuilder::new(2);
        let a = bld.internal(0);
        let (_, m) = bld.send(0);
        let r = bld.recv(1, m).unwrap();
        let e = bld.build().unwrap();
        let ts = e.timestamps();
        for ev in [a, r] {
            for i in 0..2 {
                assert_eq!(ts.forward_component(ev, i), ts.forward_row(ev)[i]);
                assert_eq!(ts.reverse_component(ev, i), ts.reverse_row(ev)[i]);
            }
        }
    }
}
