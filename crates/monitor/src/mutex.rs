//! Distributed mutual exclusion checking — the concrete application the
//! paper's relations were demonstrated on (its ref.\[11\], a real-time
//! air-defence control system).
//!
//! Critical sections executed by a distributed application are nonatomic
//! events (each spans the acquire, the work at possibly several nodes,
//! and the release). Mutual exclusion over a shared resource holds
//! exactly when every pair of its critical sections is ordered by `R1`
//! one way or the other — which the linear-time evaluator decides in
//! `min(|N_A|, |N_B|)` comparisons per direction.
//!
//! [`check_mutual_exclusion`] and the checker's
//! [`Condition::Mutex`](crate::Condition::Mutex) share one pair test,
//! asked of a [`Detector`] over the sections: `R1` in both directions
//! through [`Detector::holds`], then, for an unordered pair, a search
//! for a concurrent member pair as the witness.

use std::fmt;

use synchrel_core::{Detector, EventId, Execution, NonatomicEvent, ProxyRelation, Relation};

/// A violated critical-section pair.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MutexViolation {
    /// Name of the first section.
    pub a: String,
    /// Name of the second section.
    pub b: String,
    /// A concurrent event pair proving the overlap, when one exists.
    pub witness: Option<(EventId, EventId)>,
}

impl fmt::Display for MutexViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sections '{}' and '{}' overlap", self.a, self.b)?;
        if let Some((x, y)) = self.witness {
            write!(f, " ({x} ∥ {y})")?;
        }
        Ok(())
    }
}

/// Result of a mutual-exclusion check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MutexReport {
    /// Number of unordered section pairs examined.
    pub checked_pairs: usize,
    /// All violated pairs.
    pub violations: Vec<MutexViolation>,
    /// Total integer comparisons spent on relation evaluation.
    pub comparisons: u64,
}

impl MutexReport {
    /// Did mutual exclusion hold for every pair?
    pub fn holds(&self) -> bool {
        self.violations.is_empty()
    }
}

impl fmt::Display for MutexReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.holds() {
            write!(
                f,
                "mutual exclusion holds over {} pairs ({} comparisons)",
                self.checked_pairs, self.comparisons
            )
        } else {
            writeln!(
                f,
                "mutual exclusion VIOLATED ({} of {} pairs):",
                self.violations.len(),
                self.checked_pairs
            )?;
            for v in &self.violations {
                writeln!(f, "  {v}")?;
            }
            Ok(())
        }
    }
}

/// Check pairwise mutual exclusion of the named critical sections.
///
/// Every unordered pair must satisfy `R1(A, B) ∨ R1(B, A)` (evaluated
/// via the `R1(U_A, L_B)` proxy form). Violations carry a concurrent
/// witness pair when one exists.
pub fn check_mutual_exclusion(
    exec: &Execution,
    sections: &[(String, NonatomicEvent)],
) -> MutexReport {
    let detector = Detector::new(exec, sections.iter().map(|(_, e)| e.clone()).collect());
    let mut violations = Vec::new();
    let mut comparisons = 0u64;
    let mut checked_pairs = 0usize;
    for i in 0..sections.len() {
        for j in i + 1..sections.len() {
            checked_pairs += 1;
            // Two directed queries; count both (the evaluator's counts
            // are deterministic worst-case bounds).
            comparisons += 2 * synchrel_core::sound_bound(
                Relation::R1,
                sections[i].1.node_count(),
                sections[j].1.node_count(),
            );
            if let Err(witness) = exclusive(exec, &detector, i, j) {
                violations.push(MutexViolation {
                    a: sections[i].0.clone(),
                    b: sections[j].0.clone(),
                    witness,
                });
            }
        }
    }
    MutexReport {
        checked_pairs,
        violations,
        comparisons,
    }
}

/// The mutual-exclusion pair test: `Ok` when `R1` orders events `a` and
/// `b` of `det` one way or the other, else `Err` with a concurrent
/// member pair proving the overlap, when one exists.
pub(crate) fn exclusive(
    exec: &Execution,
    det: &Detector<'_>,
    a: usize,
    b: usize,
) -> Result<(), Option<(EventId, EventId)>> {
    let r1 = ProxyRelation::canonical(Relation::R1);
    let ordered = |x, y| det.holds(r1, x, y).expect("section indices in range");
    if ordered(a, b) || ordered(b, a) {
        return Ok(());
    }
    let (ea, eb) = (&det.events()[a], &det.events()[b]);
    Err(ea
        .events()
        .flat_map(|x| eb.events().map(move |y| (x, y)))
        .find(|&(x, y)| exec.concurrent(x, y)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use synchrel_core::ExecutionBuilder;

    #[test]
    fn serialized_sections_pass() {
        // Token-style hand-off: section A on p0, then message, then B on
        // p1, then message, then C on p0 again.
        let mut bld = ExecutionBuilder::new(2);
        let a1 = bld.internal(0);
        let (a2, m1) = bld.send(0);
        let b1 = bld.recv(1, m1).unwrap();
        let (b2, m2) = bld.send(1);
        let c1 = bld.recv(0, m2).unwrap();
        let c2 = bld.internal(0);
        let e = bld.build().unwrap();
        let sections = vec![
            ("A".to_string(), NonatomicEvent::new(&e, [a1, a2]).unwrap()),
            ("B".to_string(), NonatomicEvent::new(&e, [b1, b2]).unwrap()),
            ("C".to_string(), NonatomicEvent::new(&e, [c1, c2]).unwrap()),
        ];
        let rep = check_mutual_exclusion(&e, &sections);
        assert!(rep.holds(), "{rep}");
        assert_eq!(rep.checked_pairs, 3);
        assert!(rep.comparisons > 0);
    }

    #[test]
    fn overlapping_sections_detected() {
        // A on p0 and B on p1 with no synchronization at all.
        let mut bld = ExecutionBuilder::new(2);
        let a1 = bld.internal(0);
        let a2 = bld.internal(0);
        let b1 = bld.internal(1);
        let b2 = bld.internal(1);
        let e = bld.build().unwrap();
        let sections = vec![
            ("A".to_string(), NonatomicEvent::new(&e, [a1, a2]).unwrap()),
            ("B".to_string(), NonatomicEvent::new(&e, [b1, b2]).unwrap()),
        ];
        let rep = check_mutual_exclusion(&e, &sections);
        assert!(!rep.holds());
        assert_eq!(rep.violations.len(), 1);
        let v = &rep.violations[0];
        assert_eq!((v.a.as_str(), v.b.as_str()), ("A", "B"));
        let (x, y) = v.witness.expect("a concurrent witness exists");
        assert!(e.concurrent(x, y));
        assert!(rep.to_string().contains("VIOLATED"));
    }

    #[test]
    fn partially_overlapping_multinode_sections() {
        // Section A spans p0/p1; section B starts on p1 before A's p0
        // part is finished — overlap despite some ordering.
        let mut bld = ExecutionBuilder::new(2);
        let a1 = bld.internal(1); // A's p1 part
        let b1 = bld.internal(1); // B starts on p1
        let a2 = bld.internal(0); // A's p0 part, concurrent with b1
        let e = bld.build().unwrap();
        let sections = vec![
            ("A".to_string(), NonatomicEvent::new(&e, [a1, a2]).unwrap()),
            ("B".to_string(), NonatomicEvent::new(&e, [b1]).unwrap()),
        ];
        let rep = check_mutual_exclusion(&e, &sections);
        assert!(!rep.holds());
    }

    #[test]
    fn single_section_trivially_holds() {
        let mut bld = ExecutionBuilder::new(1);
        let a = bld.internal(0);
        let e = bld.build().unwrap();
        let sections = vec![("A".to_string(), NonatomicEvent::new(&e, [a]).unwrap())];
        let rep = check_mutual_exclusion(&e, &sections);
        assert!(rep.holds());
        assert_eq!(rep.checked_pairs, 0);
    }
}
