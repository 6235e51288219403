//! E-Pairs — all-pairs throughput of the detection paths.
//!
//! Measures ordered-pairs-per-second for the evaluation strategies the
//! detector offers:
//!
//! * `counted ×1` — sequential, 32 independently-counted evaluations
//!   (the Theorem-20 reference path);
//! * `fused ×1`   — sequential, the fused 32-relation kernel;
//! * `batched ×1` — sequential, the SoA block kernel over the shared
//!   summary arena;
//! * `fused ×t` / `batched ×t` — the same kernels under the tiled
//!   parallel scheduler at `t` worker threads.
//!
//! Thread-sweep rows are only measured for workloads with at least
//! [`MIN_SWEEP_PAIRS`] ordered pairs: below that, per-sweep scheduling
//! overhead dominates and the numbers say nothing about the kernels.
//! Skipped sweeps are logged in the report and listed in the JSON.
//!
//! The **scaling section** drives a generated large workload (default:
//! 1024 intervals ≈ 1.05 M ordered pairs, grown by the hash-seeded
//! deterministic generator, seed and size recorded in the artifact)
//! through the batched kernel at [`SCALING_THREADS`], [`SCALING_TRIALS`]
//! times per point, and gates on the 8-thread speedup of the per-point
//! medians — see [`min_speedup`] for the threshold rules.
//!
//! Every workload here comes from a deterministic generator (the
//! `fault::mix` hash or a fixed topology), so the artifact is
//! byte-reproducible for a given seed on any toolchain.
//!
//! Besides the human-readable table, [`run`] writes a machine-readable
//! `BENCH_pairs.json` (schema v3) at the repository root so CI and
//! regression tooling can diff throughput across commits without
//! parsing prose. The artifact is written with `obs::json`.

use std::time::Instant;

use synchrel_core::{Detector, EvalMode, KernelTier};
use synchrel_obs::json::{array_of, f64_literal, u64_array, ObjectWriter};
use synchrel_sim::workload::{self, Workload};

use crate::table::Table;

/// Threads at which the per-workload parallel paths are sampled.
pub const THREAD_POINTS: [usize; 3] = [2, 4, 8];

/// Thread points of the scaling section, single-thread baseline first.
pub const SCALING_THREADS: [usize; 4] = [1, 2, 4, 8];

/// Workloads with fewer ordered pairs than this skip the thread-sweep
/// rows: one sweep is too short to amortize worker spawning, so the
/// measurement would characterize the scheduler, not the kernel.
pub const MIN_SWEEP_PAIRS: usize = 10_000;

/// Warm-up sweeps run before every timed region (see `sweeps_per_sec`).
pub const WARMUP_ITERS: u64 = 1;

/// Hard cap of the default scaling gate: ≥2.5× at 8 threads.
pub const SCALING_SPEEDUP_CAP: f64 = 2.5;

/// Per-core efficiency assumed when deriving the gate on machines with
/// fewer than 8 cores, and the floor oversubscribed points must hold.
pub const SCALING_EFFICIENCY_FLOOR: f64 = 0.85;

/// Tolerated per-step throughput loss in the monotonicity check (5%).
pub const MONOTONIC_TOLERANCE: f64 = 0.95;

/// Environment variable overriding the scaling gate, for constrained
/// runners: `SYNCHREL_SCALING_MIN_SPEEDUP=1.2 repro -- pairs`.
pub const SCALING_ENV: &str = "SYNCHREL_SCALING_MIN_SPEEDUP";

/// Timed trials per scaling thread point. The gate reads each point's
/// median: on a shared machine one trial of the same code can land on
/// either side of the bound.
pub const SCALING_TRIALS: usize = 5;

/// Intervals of the default scaling workload: 1024 intervals give
/// 1024 × 1023 = 1 047 552 ordered pairs per sweep.
pub const SCALING_INTERVALS: usize = 1024;

/// Cores the OS reports for this process (1 if it cannot tell).
pub fn available_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The scaling gate: [`SCALING_ENV`] when set (parseable as f64),
/// otherwise `min(2.5, 0.85 × min(8, available_cores))` — full 2.5×
/// on an 8-core runner, proportionally less where fewer cores exist
/// (a 1-core container cannot speed up at all, so its gate is 0.85,
/// i.e. "oversubscription must not collapse throughput").
pub fn min_speedup() -> f64 {
    if let Ok(v) = std::env::var(SCALING_ENV) {
        if let Ok(x) = v.trim().parse::<f64>() {
            return x;
        }
    }
    let cores = available_cores().min(SCALING_THREADS[SCALING_THREADS.len() - 1]);
    (SCALING_EFFICIENCY_FLOOR * cores as f64).min(SCALING_SPEEDUP_CAP)
}

/// Throughput of one (workload, mode, threads) point.
#[derive(Clone, Debug)]
pub struct PairsRow {
    /// Workload name.
    pub workload: String,
    /// Evaluation mode: `counted`, `fused`, or `batched`.
    pub mode: &'static str,
    /// Worker threads (1 = the sequential loop).
    pub threads: usize,
    /// Number of nonatomic events.
    pub events: usize,
    /// Ordered pairs per full all-pairs sweep.
    pub pairs: usize,
    /// Measured ordered pairs per second.
    pub pairs_per_sec: f64,
    /// `pairs_per_sec / (threads × single-thread pairs_per_sec)` of
    /// the same mode — 1.0 by definition for sequential rows.
    pub parallel_efficiency: f64,
}

impl PairsRow {
    fn to_json(&self) -> String {
        ObjectWriter::new()
            .str_field("workload", &self.workload)
            .str_field("mode", self.mode)
            .u64_field("threads", self.threads as u64)
            .u64_field("events", self.events as u64)
            .u64_field("pairs", self.pairs as u64)
            .f64_field("pairs_per_sec", self.pairs_per_sec)
            .f64_field("parallel_efficiency", self.parallel_efficiency)
            .finish()
    }
}

/// One thread sweep the harness declined to run, and why.
#[derive(Clone, Debug)]
pub struct SkippedSweep {
    /// Workload name.
    pub workload: String,
    /// Its ordered-pair count, necessarily `< MIN_SWEEP_PAIRS`.
    pub pairs: usize,
}

impl SkippedSweep {
    fn to_json(&self) -> String {
        ObjectWriter::new()
            .str_field("workload", &self.workload)
            .u64_field("pairs", self.pairs as u64)
            .u64_field("min_sweep_pairs", MIN_SWEEP_PAIRS as u64)
            .finish()
    }
}

/// The scaling section: the batched kernel over a generated large
/// workload at every [`SCALING_THREADS`] point.
#[derive(Clone, Debug)]
pub struct ScalingMeasurement {
    /// Workload name.
    pub workload: String,
    /// Seed the workload was grown from.
    pub seed: u64,
    /// Interval (nonatomic event) count — the generated size.
    pub intervals: usize,
    /// Ordered pairs per full all-pairs sweep.
    pub pairs: usize,
    /// Median batched pairs/second over [`SCALING_TRIALS`] trials,
    /// aligned with [`SCALING_THREADS`]; the gate reads these.
    pub batched_pps: Vec<f64>,
    /// Slowest trial per thread point.
    pub batched_pps_min: Vec<f64>,
    /// Fastest trial per thread point.
    pub batched_pps_max: Vec<f64>,
}

impl ScalingMeasurement {
    /// 8-thread throughput over the single-thread baseline.
    pub fn speedup(&self) -> f64 {
        self.batched_pps[self.batched_pps.len() - 1] / self.batched_pps[0]
    }

    /// Parallel efficiency per thread point.
    pub fn efficiencies(&self) -> Vec<f64> {
        SCALING_THREADS
            .iter()
            .zip(&self.batched_pps)
            .map(|(&t, &pps)| pps / (t as f64 * self.batched_pps[0]))
            .collect()
    }

    /// Throughput must not decrease as threads are added, within
    /// [`MONOTONIC_TOLERANCE`] — but only up to the physical core
    /// count: beyond `cores`, extra threads cannot help, so those
    /// points only have to stay above `SCALING_EFFICIENCY_FLOOR ×`
    /// the single-thread baseline (no oversubscription collapse).
    pub fn monotonic_ok(&self, cores: usize) -> bool {
        (1..self.batched_pps.len()).all(|i| {
            if SCALING_THREADS[i] <= cores {
                self.batched_pps[i] >= self.batched_pps[i - 1] * MONOTONIC_TOLERANCE
            } else {
                self.batched_pps[i] >= self.batched_pps[0] * SCALING_EFFICIENCY_FLOOR
            }
        })
    }

    /// The gate CI enforces.
    pub fn scaling_ok(&self, min_speedup: f64, cores: usize) -> bool {
        self.speedup() >= min_speedup && self.monotonic_ok(cores)
    }

    fn to_json(&self, min_speedup: f64, cores: usize) -> String {
        let threads: Vec<u64> = SCALING_THREADS.iter().map(|&t| t as u64).collect();
        ObjectWriter::new()
            .str_field("workload", &self.workload)
            .u64_field("seed", self.seed)
            .u64_field("intervals", self.intervals as u64)
            .u64_field("pairs", self.pairs as u64)
            .u64_field("available_cores", cores as u64)
            .raw_field("threads", &u64_array(&threads))
            .u64_field("trials", SCALING_TRIALS as u64)
            .raw_field("batched_pps", &f64_vec_json(&self.batched_pps))
            .raw_field("batched_pps_min", &f64_vec_json(&self.batched_pps_min))
            .raw_field("batched_pps_max", &f64_vec_json(&self.batched_pps_max))
            .raw_field("parallel_efficiency", &f64_vec_json(&self.efficiencies()))
            .f64_field("min_speedup", min_speedup)
            .f64_field("speedup", self.speedup())
            .bool_field("monotonic_ok", self.monotonic_ok(cores))
            .bool_field("scaling_ok", self.scaling_ok(min_speedup, cores))
            .finish()
    }
}

fn f64_vec_json(v: &[f64]) -> String {
    let mut out = String::from("[");
    for (i, x) in v.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&f64_literal(*x));
    }
    out.push(']');
    out
}

/// Render the whole report as the `BENCH_pairs.json` document.
pub fn report_json(
    seed: u64,
    rows: &[PairsRow],
    skipped: &[SkippedSweep],
    scaling: &ScalingMeasurement,
) -> String {
    let points: Vec<u64> = THREAD_POINTS.iter().map(|&t| t as u64).collect();
    let (gate, cores) = (min_speedup(), available_cores());
    ObjectWriter::new()
        .str_field("schema", "synchrel/BENCH_pairs/v3")
        .str_field("git_rev", &super::git_rev())
        .bool_field("dirty", super::git_dirty())
        .u64_field("workload_seed", seed)
        .u64_field("warmup_iters", WARMUP_ITERS)
        .u64_field("available_cores", cores as u64)
        .str_field("kernel", KernelTier::detect().name())
        .u64_field("min_sweep_pairs", MIN_SWEEP_PAIRS as u64)
        .raw_field("thread_points", &u64_array(&points))
        .raw_field("rows", &array_of(rows.iter().map(PairsRow::to_json)))
        .raw_field(
            "skipped_sweeps",
            &array_of(skipped.iter().map(SkippedSweep::to_json)),
        )
        .raw_field("scaling", &scaling.to_json(gate, cores))
        .finish()
}

/// Time `f` (one full all-pairs sweep per call), repeating until the
/// accumulated wall time is long enough to trust, and return sweeps/sec.
fn sweeps_per_sec(mut f: impl FnMut()) -> f64 {
    // WARMUP_ITERS sweeps so summary caching and allocator state are in
    // steady state before the timed region.
    for _ in 0..WARMUP_ITERS {
        f();
    }
    let mut reps = 0u32;
    let t0 = Instant::now();
    loop {
        f();
        reps += 1;
        let dt = t0.elapsed().as_secs_f64();
        if (reps >= 3 && dt >= 0.05) || dt >= 1.0 {
            return f64::from(reps) / dt;
        }
    }
}

/// Measure one workload. Returns its rows plus the skip record when
/// the thread sweep was declined for being under [`MIN_SWEEP_PAIRS`].
fn measure(w: &Workload) -> (Vec<PairsRow>, Option<SkippedSweep>) {
    let counted = Detector::new(&w.exec, w.events.clone());
    let fused = Detector::new(&w.exec, w.events.clone()).with_mode(EvalMode::Fused);
    let batched = Detector::new(&w.exec, w.events.clone()).with_mode(EvalMode::Batched);
    counted.warm_up();
    fused.warm_up();
    batched.warm_up();

    // Strategies must agree on verdicts before their speed is compared.
    let ref_reports = counted.all_pairs();
    for (d, name) in [(&fused, "fused"), (&batched, "batched")] {
        let reports = d.all_pairs();
        for (a, b) in ref_reports.iter().zip(&reports) {
            assert_eq!(
                a.relations, b.relations,
                "{name} diverged on ({}, {})",
                a.x, a.y
            );
        }
    }

    let pairs = ref_reports.len();
    let events = w.events.len();
    let row = |mode: &'static str, threads: usize, pps: f64, eff: f64| PairsRow {
        workload: w.name.clone(),
        mode,
        threads,
        events,
        pairs,
        pairs_per_sec: pps,
        parallel_efficiency: eff,
    };

    let seq = |d: &Detector| {
        sweeps_per_sec(|| {
            d.all_pairs();
        }) * pairs as f64
    };
    let (seq_fused, seq_batched) = (seq(&fused), seq(&batched));
    let mut rows = vec![
        row("counted", 1, seq(&counted), 1.0),
        row("fused", 1, seq_fused, 1.0),
        row("batched", 1, seq_batched, 1.0),
    ];

    if pairs < MIN_SWEEP_PAIRS {
        return (
            rows,
            Some(SkippedSweep {
                workload: w.name.clone(),
                pairs,
            }),
        );
    }

    for &t in &THREAD_POINTS {
        for (d, mode, base) in [
            (&fused, "fused", seq_fused),
            (&batched, "batched", seq_batched),
        ] {
            let pps = sweeps_per_sec(|| {
                d.all_pairs_parallel(t);
            }) * pairs as f64;
            rows.push(row(mode, t, pps, pps / (t as f64 * base)));
        }
    }
    (rows, None)
}

/// Measure the scaling section on a generated `intervals`-interval
/// workload (16 processes × 64 events grown from `seed`). Parallel
/// sweeps are checked byte-identical to the sequential kernel at every
/// thread point before any timing is trusted. Each trial times every
/// thread point once, so drift in the machine's load spreads over all
/// points alike.
fn measure_scaling(seed: u64, intervals: usize) -> ScalingMeasurement {
    let mut w = workload::seeded(seed, 16, 64, intervals, 8, 2);
    w.name = "seeded-scaling".to_string();
    let batched = Detector::new(&w.exec, w.events.clone()).with_mode(EvalMode::Batched);
    batched.warm_up();

    let reference = batched.all_pairs();
    for &t in &SCALING_THREADS {
        assert_eq!(
            reference,
            batched.all_pairs_parallel(t),
            "batched×{t} diverged on the scaling workload"
        );
    }

    let pairs = reference.len();
    let mut samples = vec![Vec::with_capacity(SCALING_TRIALS); SCALING_THREADS.len()];
    for _ in 0..SCALING_TRIALS {
        for (point, &t) in samples.iter_mut().zip(&SCALING_THREADS) {
            point.push(
                sweeps_per_sec(|| {
                    batched.all_pairs_parallel(t);
                }) * pairs as f64,
            );
        }
    }
    for point in &mut samples {
        point.sort_by(f64::total_cmp);
    }
    let pick = |k: usize| samples.iter().map(|p| p[k]).collect();
    ScalingMeasurement {
        workload: w.name,
        seed,
        intervals,
        pairs,
        batched_pps: pick(SCALING_TRIALS / 2),
        batched_pps_min: pick(0),
        batched_pps_max: pick(SCALING_TRIALS - 1),
    }
}

/// The per-workload measurement set: one mid-size hash-seeded mix
/// (128 intervals = 16 256 pairs, above the sweep threshold) plus
/// three small fixed topologies that exercise the skip rule. All
/// deterministic — no external RNG anywhere in this experiment.
fn workloads(seed: u64) -> Vec<Workload> {
    let mut mixed = workload::seeded(seed, 12, 48, 128, 4, 2);
    mixed.name = "seeded-mixed".to_string();
    vec![
        mixed,
        workload::ring(8, 6),
        workload::broadcast(8, 5),
        workload::phases(8, 6, 4),
    ]
}

/// Pairs/sec of one (mode, threads) point within a workload's rows.
fn pps(rows: &[PairsRow], mode: &str, threads: usize) -> f64 {
    rows.iter()
        .find(|r| r.mode == mode && r.threads == threads)
        .map_or(0.0, |r| r.pairs_per_sec)
}

/// Run the throughput measurement and render the table. When
/// `json_path` is given, also write the JSON report there.
/// `scaling_intervals` sizes the scaling workload — [`run`] passes
/// [`SCALING_INTERVALS`]; tests pass something smaller.
pub fn run_to(seed: u64, json_path: Option<&str>, scaling_intervals: usize) -> String {
    let measured: Vec<(Vec<PairsRow>, Option<SkippedSweep>)> =
        workloads(seed).iter().map(measure).collect();
    let scaling = measure_scaling(seed, scaling_intervals);
    let (gate, cores) = (min_speedup(), available_cores());

    let mut t = Table::new([
        "workload",
        "|𝒜|",
        "pairs",
        "seq counted p/s",
        "seq fused p/s",
        "seq batched p/s",
        "par×8 fused p/s",
        "par×8 batched p/s",
        "fused ×",
        "batched ×",
    ]);
    for (rows, skip) in &measured {
        let first = &rows[0];
        let (c, f, b) = (
            pps(rows, "counted", 1),
            pps(rows, "fused", 1),
            pps(rows, "batched", 1),
        );
        let par = |mode| {
            if skip.is_some() {
                "-".to_string()
            } else {
                format!("{:.0}", pps(rows, mode, 8))
            }
        };
        t.row([
            first.workload.clone(),
            first.events.to_string(),
            first.pairs.to_string(),
            format!("{c:.0}"),
            format!("{f:.0}"),
            format!("{b:.0}"),
            par("fused"),
            par("batched"),
            format!("{:.2}", f / c),
            format!("{:.2}", b / c),
        ]);
    }
    let mut out = t.render();

    let skipped: Vec<SkippedSweep> = measured.iter().filter_map(|(_, s)| s.clone()).collect();
    for s in &skipped {
        out.push_str(&format!(
            "\nthread sweep skipped for {}: {} pairs < {} minimum",
            s.workload, s.pairs, MIN_SWEEP_PAIRS
        ));
    }

    out.push_str(&format!(
        "\n\nscaling: {} — {} intervals, {} pairs (seed {}, {} cores, {} kernel), \
         median of {} trials\n",
        scaling.workload,
        scaling.intervals,
        scaling.pairs,
        scaling.seed,
        cores,
        KernelTier::detect().name(),
        SCALING_TRIALS
    ));
    for (k, (&t, eff)) in SCALING_THREADS
        .iter()
        .zip(scaling.efficiencies())
        .enumerate()
    {
        out.push_str(&format!(
            "  batched ×{t}: {:.0} p/s ({:.0}–{:.0}, efficiency {eff:.2})\n",
            scaling.batched_pps[k], scaling.batched_pps_min[k], scaling.batched_pps_max[k]
        ));
    }
    out.push_str(&format!(
        "  speedup ×{}/×1: {:.2} (gate {:.2}), monotonic: {} => scaling {}\n",
        SCALING_THREADS[SCALING_THREADS.len() - 1],
        scaling.speedup(),
        gate,
        if scaling.monotonic_ok(cores) {
            "ok"
        } else {
            "VIOLATED"
        },
        if scaling.scaling_ok(gate, cores) {
            "PASS"
        } else {
            "FAIL"
        }
    ));

    if let Some(path) = json_path {
        let flat: Vec<PairsRow> = measured.into_iter().flat_map(|(r, _)| r).collect();
        match std::fs::write(path, report_json(seed, &flat, &skipped, &scaling)) {
            Ok(()) => out.push_str(&format!("wrote {path}\n")),
            Err(e) => out.push_str(&format!("could not write {path}: {e}\n")),
        }
    }
    out
}

/// Default entry point: measure and write `BENCH_pairs.json` at the
/// repository root, with the full [`SCALING_INTERVALS`]-interval
/// (≈1.05 M pair) scaling workload.
pub fn run(seed: u64) -> String {
    run_to(
        seed,
        Some(super::bench_artifact("BENCH_pairs.json").to_str().unwrap()),
        SCALING_INTERVALS,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use synchrel_obs::json::is_valid;

    #[test]
    fn small_workload_skips_thread_sweep() {
        let w = workload::ring(4, 3);
        let (rows, skip) = measure(&w);
        // Only the 3 sequential points: 6 pairs is far below threshold.
        assert_eq!(rows.len(), 3);
        assert!(rows.iter().all(|r| r.pairs == 6));
        assert!(rows.iter().all(|r| r.pairs_per_sec > 0.0));
        assert!(rows.iter().all(|r| r.parallel_efficiency == 1.0));
        let skip = skip.expect("6 pairs must skip the sweep");
        assert_eq!(skip.workload, "ring");
        assert_eq!(skip.pairs, 6);
        for mode in ["counted", "fused", "batched"] {
            assert!(pps(&rows, mode, 1) > 0.0, "{mode} missing");
        }
    }

    #[test]
    fn scaling_measures_every_thread_point() {
        let s = measure_scaling(3, 24);
        assert_eq!(s.pairs, 24 * 23);
        assert_eq!(s.batched_pps.len(), SCALING_THREADS.len());
        assert!(s.batched_pps.iter().all(|&p| p > 0.0));
        for k in 0..SCALING_THREADS.len() {
            assert!(s.batched_pps_min[k] <= s.batched_pps[k]);
            assert!(s.batched_pps[k] <= s.batched_pps_max[k]);
        }
        assert_eq!(s.efficiencies().len(), SCALING_THREADS.len());
        assert!((s.efficiencies()[0] - 1.0).abs() < 1e-9);
        assert!(s.speedup() > 0.0);
    }

    #[test]
    fn monotonic_check_is_core_aware() {
        let s = ScalingMeasurement {
            workload: "x".into(),
            seed: 0,
            intervals: 4,
            pairs: 12,
            batched_pps: vec![100.0, 98.0, 97.0, 96.0],
            batched_pps_min: vec![],
            batched_pps_max: vec![],
        };
        // Flat-with-noise is fine on 1 core (only the floor applies)…
        assert!(s.monotonic_ok(1));
        // …and within the 5% tolerance even when 8 cores demand
        // step-wise monotonicity.
        assert!(s.monotonic_ok(8));
        let collapsed = ScalingMeasurement {
            batched_pps: vec![100.0, 100.0, 100.0, 40.0],
            ..s
        };
        // An oversubscription collapse fails on any core count.
        assert!(!collapsed.monotonic_ok(1));
        assert!(!collapsed.monotonic_ok(8));
    }

    #[test]
    fn default_gate_respects_core_count() {
        // Whatever this machine has, the derived gate never exceeds the
        // 2.5× cap and never drops below the 1-core floor.
        let g = min_speedup();
        assert!(
            (SCALING_EFFICIENCY_FLOOR..=SCALING_SPEEDUP_CAP).contains(&g),
            "{g}"
        );
    }

    #[test]
    fn report_serializes() {
        let w = workload::ring(4, 3);
        let (rows, skip) = measure(&w);
        let scaling = measure_scaling(7, 16);
        let json = report_json(7, &rows, &[skip.unwrap()], &scaling);
        assert!(json.starts_with("{\"schema\":\"synchrel/BENCH_pairs/v3\""));
        for field in [
            "\"git_rev\":",
            "\"dirty\":",
            "\"workload_seed\":7",
            "\"warmup_iters\":1",
            "\"available_cores\":",
            "\"kernel\":",
            "\"parallel_efficiency\":",
            "\"skipped_sweeps\":",
            "\"scaling\":",
            "\"trials\":5",
            "\"batched_pps_min\":",
            "\"batched_pps_max\":",
            "\"min_speedup\":",
            "\"monotonic_ok\":",
            "\"scaling_ok\":",
        ] {
            assert!(json.contains(field), "missing {field} in {json}");
        }
        assert!(is_valid(&json), "{json}");
    }
}
