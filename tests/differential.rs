//! Differential conformance suite: randomized, fault-injected
//! executions cross-checked across **every** evaluator in the
//! workspace — the brute-force quantifier oracle, the Theorem-20 linear
//! conditions, the fused 32-relation kernel, both [`Detector`] modes,
//! the online monitor under exact, perturbed, and lossy delivery, and
//! the sharded `ShardedServer` facade fed the same perturbed streams.
//!
//! Every case is reproducible from a single `u64` seed; a failure
//! message prints the seed of the *shrunk* (smallest still-failing)
//! case, which re-runs byte-identically via
//! `run_shard_differential_case(&DiffCase::from_seed(seed))` or
//! `synchrel fuzz --case`.

use synchrel_sim::prop::*;

use synchrel_monitor::differential::{run_seeds, DiffCase};
use synchrel_serve::run_shard_differential_case;

/// The headline sweep: ten thousand randomized fault-injected cases,
/// zero tolerated mismatches. Fault injection follows each seed's own
/// fault bit, so the sweep mixes quiet and faulty runs roughly 50/50.
#[test]
fn ten_thousand_randomized_cases_agree() {
    let stats =
        run_seeds(0xD1FF_0001, 10_000, None, run_shard_differential_case).unwrap_or_else(|m| {
            panic!(
                "differential mismatch — reproduce with seed {:#x}: {}",
                m.seed, m.detail
            )
        });
    assert_eq!(stats.cases, 10_000);
    // The sweep must be doing real work: the vast majority of cases
    // produce at least two labelled intervals to compare.
    assert!(
        stats.skipped < stats.cases / 4,
        "too many degenerate cases: {stats:?}"
    );
    assert!(
        stats.pairs > 10_000,
        "suspiciously little coverage: {stats:?}"
    );
}

/// Every case of this sweep injects faults (drops, duplicates, delays,
/// partitions, skew) regardless of the seed's fault bit.
#[test]
fn forced_fault_sweep_agrees() {
    let stats = run_seeds(0xFA17_5EED, 1_500, Some(true), run_shard_differential_case)
        .unwrap_or_else(|m| {
            panic!(
                "mismatch under forced faults — seed {:#x}: {}",
                m.seed, m.detail
            )
        });
    assert_eq!(stats.cases, 1_500);
}

/// Control sweep with faults forced off: the harness itself must not
/// depend on fault injection to agree.
#[test]
fn quiet_sweep_agrees() {
    let stats = run_seeds(0x0A1E_7000, 1_500, Some(false), run_shard_differential_case)
        .unwrap_or_else(|m| panic!("mismatch on quiet runs — seed {:#x}: {}", m.seed, m.detail));
    assert_eq!(stats.cases, 1_500);
}

/// A case re-runs byte-identically from its seed: the outcome (and any
/// mismatch it would report) is a pure function of the seed.
#[test]
fn cases_replay_identically_from_seed() {
    for seed in [0u64, 0x40, 0xFF, 0xDEAD_BEEF, 0x1234_5678_9ABC_DEF0] {
        let a = run_shard_differential_case(&DiffCase::from_seed(seed));
        let b = run_shard_differential_case(&DiffCase::from_seed(seed));
        assert_eq!(a, b, "seed {seed:#x} not reproducible");
    }
}

/// Pinned regression seeds: size-code corners (smallest and largest
/// case shapes, fault bit both ways) plus past shrinker outputs.
#[test]
fn regression_corpus_agrees() {
    const CORPUS: &[u64] = &[
        0x00, // smallest quiet shape
        0x3F, // largest quiet shape
        0x40, // smallest faulty shape
        0x7F, // largest faulty shape
        0xFF, // all size bits set
        0xB16_B00B5 << 8 | 0x7F,
        0xCAFE_F00D << 8 | 0x40,
        0x0123_4567 << 8,
    ];
    for &seed in CORPUS {
        if let Err(m) = run_shard_differential_case(&DiffCase::from_seed(seed)) {
            panic!("regression seed {seed:#x} regressed: {m}");
        }
    }
}

props! {
    cases = 256;

    /// Free-seed property: any `u64` decodes to a case on which all
    /// evaluators agree.
    #[test]
    fn arbitrary_seed_agrees(seed in any::<u64>()) {
        if let Err(m) = run_shard_differential_case(&DiffCase::from_seed(seed)) {
            return Err(TestCaseError::fail(format!(
                "mismatch at seed {:#x}: {}",
                m.seed, m.detail
            )));
        }
    }
}
