//! # synchrel-core
//!
//! A library for evaluating fine-grained causality / synchronization
//! relations between **nonatomic poset events** in distributed executions,
//! reproducing
//!
//! > A. D. Kshemkalyani, *"Testing of Synchronization Conditions for
//! > Distributed Real-Time Applications"*, IPPS/SPDP 1998.
//!
//! A distributed execution is a poset `(E, ≺)` of atomic events partitioned
//! into per-process chains, with causality induced by local order and
//! message exchange ([`Execution`]). High-level application actions are
//! **nonatomic events**: sets of atomic events possibly spanning several
//! processes ([`NonatomicEvent`]).
//!
//! Between two nonatomic events `X` and `Y` the paper considers the eight
//! quantifier relations of Table 1 — `R1 = ∀x∀y: x ≺ y`,
//! `R2 = ∀x∃y: x ≺ y`, `R3 = ∃x∀y: x ≺ y`, `R4 = ∃x∃y: x ≺ y` and their
//! order-swapped primed variants — lifted to 32 relations `ℛ` by replacing
//! `X`/`Y` with their begin/end *proxies* `L_X`/`U_X` ([`Proxy`]).
//!
//! The headline result (Theorems 19 and 20) is that every relation can be
//! decided in a **linear** number of integer comparisons —
//! `min(|N_X|, |N_Y|)` for R1, R1', R2', R3, R4, R4'; `|N_X|` for R2;
//! `|N_Y|` for R3' — instead of the naive `|N_X| × |N_Y|`, by re-expressing
//! each relation through the `≪` relation between *cuts* (execution
//! prefixes) condensing the causal past/future of each nonatomic event.
//!
//! This crate implements all of the machinery:
//!
//! * [`execution`] — the poset event-structure model `(E, ≺)`, with dummy
//!   initial (`⊥ᵢ`) and final (`⊤ᵢ`) events per process (paper §1);
//! * [`vclock`] — vector clocks and the component-wise partial order;
//! * [`timestamp`] — forward timestamps `T(e)` (Definition 13) and reverse
//!   timestamps `Tᴿ(e)` (Definition 14), and the isomorphism
//!   `(E,≺) ≅ (𝒯,<)`;
//! * [`cut`] — cuts (Definition 5), surfaces `S(C)` (Definition 6), the cut
//!   lattice, and the `≪` relation in all four forms of Definition 7;
//! * [`nonatomic`] — nonatomic events, node sets (Definition 1), and
//!   proxies under Definition 2 and Definition 3;
//! * [`pastfuture`] — the per-event cuts `↓e` / `e⇑` (Definitions 8–9) and
//!   the condensation cuts `C1(X)=∩⇓X`, `C2(X)=∪⇓X`, `C3(X)=∩⇑X`,
//!   `C4(X)=∪⇑X` of Definition 10 / Table 2, built both extensionally and
//!   through timestamps (Lemma 16, Corollary 17);
//! * [`relations`] — the eight Table-1 relations with naive (ground-truth)
//!   and proxy-baseline evaluation;
//! * [`linear`] — the paper's linear-time evaluation conditions with exact
//!   comparison counting (Theorems 19–20);
//! * [`proxy_relations`] — the full 32-relation family `ℛ`;
//! * [`hierarchy`] — the implication hierarchy between the relations;
//! * [`detector`] — Problem 4: detecting one/all relations over a set `𝒜`
//!   of nonatomic events with cached cut timestamps (Key Idea 1);
//! * [`settle`] — the one settle table: when a relation's verdict can
//!   no longer change, from its quantifier pattern and operand facts;
//! * [`incremental`] — stateful O(delta) Problem-4 maintenance under an
//!   event stream, with settle rules and implication-lattice pruning;
//! * [`tile`] — the tile-parallel scheduler (static row bands plus a
//!   steal-only tail) shared by every parallel sweep;
//! * [`oracle`] — a brute-force causality-matrix oracle for differential
//!   conformance testing of every optimized path;
//! * [`diagram`] — ASCII space-time diagrams for executions and cuts
//!   (used to regenerate Figures 1–3).
//!
//! ## Quickstart
//!
//! ```
//! use synchrel_core::prelude::*;
//!
//! // Two processes; P0 sends a message to P1.
//! let mut b = ExecutionBuilder::new(2);
//! let x0 = b.internal(0);
//! let (s, m) = b.send(0);
//! let r = b.recv(1, m).unwrap();
//! let y1 = b.internal(1);
//! let exec = b.build().unwrap();
//!
//! let x = NonatomicEvent::new(&exec, [x0, s]).unwrap();
//! let y = NonatomicEvent::new(&exec, [r, y1]).unwrap();
//!
//! let eval = Evaluator::new(&exec);
//! // Every event of X causally precedes every event of Y:
//! assert!(eval.holds(Relation::R1, &x, &y));
//! ```

pub mod codec;
pub mod cut;
pub mod detector;
pub mod diagram;
pub mod error;
pub mod execution;
pub mod hierarchy;
pub mod incremental;
pub mod linear;
pub mod nonatomic;
pub mod oracle;
pub mod pastfuture;
pub mod proxy_relations;
pub mod relations;
pub mod settle;
pub mod thm19;
pub mod tile;
pub mod timestamp;
pub mod vclock;

/// The observability crate, re-exported so downstream users get the
/// exact `Meter` types the evaluator generics are instantiated with.
pub use synchrel_obs as obs;
pub use synchrel_obs::{CompareCounter, Meter, MeterSnapshot, NoopMeter};

pub use codec::{CodecError, Reader, Writer};
pub use cut::{ll, not_ll, Cut, EventSet, LlForm};
pub use detector::{pair_slot, Detector, EvalMode, PairReport};
pub use diagram::Diagram;
pub use error::{Error, Result};
pub use execution::{Event, EventId, EventKind, Execution, ExecutionBuilder, MsgToken, ProcessId};
pub use hierarchy::{compose, implies, strongest};
pub use incremental::IncrementalDetector;
pub use linear::{sound_bound, theorem20_bound, ComparisonCount, Evaluator, EventSummary, ScanSet};
pub use nonatomic::{NonatomicEvent, ProxyDefinition};
pub use oracle::Oracle;
pub use pastfuture::{causal_past, ccf, condensation, condense_into, CondensationKind};
pub use proxy_relations::{
    naive_proxy, KernelTier, Proxy, ProxyRelation, ProxySummary, RelationSet,
};
pub use relations::{naive as naive_relation, proxy_baseline, Relation};
pub use settle::{settles, Side};
pub use thm19::{eval_now, CutSummary, Extreme};
pub use tile::{RowSlabs, TilePartition, DEFAULT_TILE};
pub use timestamp::{SummaryArena, Timestamps};
pub use vclock::{ClockView, VectorClock};

/// Convenience re-exports for downstream users.
pub mod prelude {
    pub use synchrel_obs::{CompareCounter, Meter, MeterSnapshot, NoopMeter};

    pub use crate::cut::{ll, not_ll, Cut, EventSet, LlForm};
    pub use crate::detector::{pair_slot, Detector, EvalMode, PairReport};
    pub use crate::diagram::Diagram;
    pub use crate::error::{Error, Result};
    pub use crate::execution::{
        Event, EventId, EventKind, Execution, ExecutionBuilder, MsgToken, ProcessId,
    };
    pub use crate::hierarchy::{compose, implies, strongest};
    pub use crate::incremental::IncrementalDetector;
    pub use crate::linear::{
        sound_bound, theorem20_bound, ComparisonCount, Evaluator, EventSummary, ScanSet,
    };
    pub use crate::nonatomic::{NonatomicEvent, ProxyDefinition};
    pub use crate::oracle::Oracle;
    pub use crate::pastfuture::{causal_past, ccf, condensation, condense_into, CondensationKind};
    pub use crate::proxy_relations::{
        naive_proxy, Proxy, ProxyRelation, ProxySummary, RelationSet,
    };
    pub use crate::relations::{naive as naive_relation, proxy_baseline, Relation};
    pub use crate::tile::{RowSlabs, TilePartition, DEFAULT_TILE};
    pub use crate::timestamp::{SummaryArena, Timestamps};
    pub use crate::vclock::{ClockView, VectorClock};
}
