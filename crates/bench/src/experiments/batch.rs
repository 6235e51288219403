//! E-Batch — the batched SoA kernel against the fused baseline, plus
//! O(active) streaming in the online monitor.
//!
//! Two sections:
//!
//! 1. **Kernel throughput.** All-pairs detection on the hash-seeded
//!    workload (the same splitmix-style generator the meter golden
//!    table pins), fused vs batched, sequential and parallel. The two
//!    modes must produce byte-identical [`synchrel_core::PairReport`]s
//!    before any timing is trusted; the JSON carries `speedup_ok` so CI
//!    can fail the build if the batched kernel ever regresses below the
//!    fused baseline.
//!
//! 2. **Monitor streaming.** A label-churn stream (each epoch opens a
//!    pair of intervals, orders them across a message, closes them)
//!    through two [`synchrel_monitor::OnlineMonitor`]s — one with
//!    epoch pruning, one without. Poll events must be identical every
//!    epoch and final verdicts equal, while the pruned monitor's
//!    resident-interval gauge stays O(active) instead of O(history).
//!
//! [`run`] writes `BENCH_batch.json` at the repository root using the
//! hand-rolled JSON emitter, like the other bench artifacts.

use std::time::Instant;

use synchrel_core::{Detector, EvalMode, KernelTier, Relation};
use synchrel_monitor::online::OnlineMonitor;
use synchrel_obs::json::{u64_array, ObjectWriter};
use synchrel_sim::fault::mix;
use synchrel_sim::workload::{self, Workload};

use crate::table::Table;

/// Threads at which the parallel paths are sampled.
pub const THREAD_POINTS: [usize; 3] = [2, 4, 8];

/// Warm-up sweeps run before every timed region (see `sweeps_per_sec`).
pub const WARMUP_ITERS: u64 = 1;

/// Minimum acceptable `seq_batched_pps / seq_fused_pps`. CI enforces
/// that the batched kernel is never slower than fused; the measured
/// speedup itself is reported for trend tracking.
pub const SPEEDUP_GATE: f64 = 1.0;

/// Kernel-throughput section of the report.
#[derive(Clone, Debug)]
pub struct KernelMeasurement {
    /// Workload name.
    pub workload: String,
    /// RNG seed the workload was grown from.
    pub seed: u64,
    /// Number of nonatomic events.
    pub events: usize,
    /// Ordered pairs per full all-pairs sweep.
    pub pairs: usize,
    /// Pairs/second, sequential fused kernel.
    pub seq_fused_pps: f64,
    /// Pairs/second, sequential batched kernel.
    pub seq_batched_pps: f64,
    /// Parallel pairs/second, aligned with [`THREAD_POINTS`].
    pub par_fused_pps: Vec<f64>,
    /// Parallel pairs/second, aligned with [`THREAD_POINTS`].
    pub par_batched_pps: Vec<f64>,
}

impl KernelMeasurement {
    /// Single-thread advantage of the batched kernel over fused.
    pub fn speedup(&self) -> f64 {
        self.seq_batched_pps / self.seq_fused_pps
    }
}

/// Monitor-streaming section of the report.
#[derive(Clone, Debug)]
pub struct ChurnMeasurement {
    /// Total events streamed through each monitor.
    pub events: u64,
    /// Interval-churn epochs driven.
    pub epochs: u64,
    /// Maximum resident-interval gauge seen on the pruned monitor.
    pub resident_max: u64,
    /// Final reclaim counter of the pruned monitor.
    pub intervals_reclaimed: u64,
    /// Final resident-interval gauge of the unpruned twin (= history).
    pub unpruned_resident: u64,
    /// Did every poll event and final verdict match the unpruned twin?
    pub verdicts_match: bool,
}

fn f64_vec_json(v: &[f64]) -> String {
    let mut out = String::from("[");
    for (i, x) in v.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&synchrel_obs::json::f64_literal(*x));
    }
    out.push(']');
    out
}

/// Render the whole report as the `BENCH_batch.json` document.
pub fn report_json(k: &KernelMeasurement, c: &ChurnMeasurement) -> String {
    let points: Vec<u64> = THREAD_POINTS.iter().map(|&t| t as u64).collect();
    let monitor = ObjectWriter::new()
        .u64_field("events", c.events)
        .u64_field("epochs", c.epochs)
        .u64_field("resident_max", c.resident_max)
        .u64_field("intervals_reclaimed", c.intervals_reclaimed)
        .u64_field("unpruned_resident", c.unpruned_resident)
        .bool_field("verdicts_match", c.verdicts_match)
        .finish();
    ObjectWriter::new()
        .str_field("schema", "synchrel/BENCH_batch/v2")
        .str_field("git_rev", &super::git_rev())
        .bool_field("dirty", super::git_dirty())
        .u64_field("workload_seed", k.seed)
        .u64_field("warmup_iters", WARMUP_ITERS)
        .u64_field("available_cores", super::pairs::available_cores() as u64)
        .str_field("kernel", KernelTier::detect().name())
        .str_field("workload", &k.workload)
        .u64_field("seed", k.seed)
        .u64_field("events", k.events as u64)
        .u64_field("pairs", k.pairs as u64)
        .f64_field("seq_fused_pps", k.seq_fused_pps)
        .f64_field("seq_batched_pps", k.seq_batched_pps)
        .f64_field("speedup", k.speedup())
        .bool_field("speedup_ok", k.speedup() >= SPEEDUP_GATE)
        .raw_field("thread_points", &u64_array(&points))
        .raw_field("par_fused_pps", &f64_vec_json(&k.par_fused_pps))
        .raw_field("par_batched_pps", &f64_vec_json(&k.par_batched_pps))
        .raw_field("monitor", &monitor)
        .finish()
}

/// Time `f` (one full all-pairs sweep per call), repeating until the
/// accumulated wall time is long enough to trust, and return sweeps/sec.
fn sweeps_per_sec(mut f: impl FnMut()) -> f64 {
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

fn measure_kernel(w: &Workload, seed: u64) -> KernelMeasurement {
    let fused = Detector::new(&w.exec, w.events.clone()).with_mode(EvalMode::Fused);
    let batched = Detector::new(&w.exec, w.events.clone()).with_mode(EvalMode::Batched);
    fused.warm_up();
    batched.warm_up();

    // Equivalence first: byte-identical reports, including the
    // Theorem-20 comparison counts, sequential and across thread
    // counts.
    let fused_reports = fused.all_pairs();
    assert_eq!(
        fused_reports,
        batched.all_pairs(),
        "batched diverged from fused"
    );
    for &t in &THREAD_POINTS {
        assert_eq!(
            fused_reports,
            batched.all_pairs_parallel(t),
            "batched×{t} diverged"
        );
    }

    let pairs = fused_reports.len();
    let seq_fused_pps = sweeps_per_sec(|| {
        fused.all_pairs();
    }) * pairs as f64;
    let seq_batched_pps = sweeps_per_sec(|| {
        batched.all_pairs();
    }) * pairs as f64;
    let par = |d: &Detector, t: usize| {
        sweeps_per_sec(|| {
            d.all_pairs_parallel(t);
        }) * pairs as f64
    };
    KernelMeasurement {
        workload: w.name.clone(),
        seed,
        events: w.events.len(),
        pairs,
        seq_fused_pps,
        seq_batched_pps,
        par_fused_pps: THREAD_POINTS.iter().map(|&t| par(&fused, t)).collect(),
        par_batched_pps: THREAD_POINTS.iter().map(|&t| par(&batched, t)).collect(),
    }
}

/// Drive `target_events` through a pruned monitor and an unpruned
/// twin in lock-step label-churn epochs, checking observable
/// equivalence along the way.
fn measure_churn(seed: u64, target_events: u64) -> ChurnMeasurement {
    const PROCESSES: usize = 4;
    // Events per epoch: 2 message endpoints + 2 × TAIL internals.
    const TAIL: u64 = 19;
    let per_epoch = 2 * TAIL + 2;

    let mut pruned = OnlineMonitor::new(PROCESSES).with_pruning();
    let mut plain = OnlineMonitor::new(PROCESSES);
    let mut resident_max = 0u64;
    let mut verdicts_match = true;
    let mut events = 0u64;
    let mut epochs = 0u64;
    while events < target_events {
        let a = format!("a{epochs}");
        let b = format!("b{epochs}");
        let p = (mix(seed, 11, epochs) % PROCESSES as u64) as usize;
        let q = (p + 1 + (mix(seed, 12, epochs) % (PROCESSES as u64 - 1)) as usize) % PROCESSES;
        let feed = |m: &mut OnlineMonitor| {
            m.watch(format!("w{epochs}"), Relation::R1, &a, &b);
            for _ in 0..TAIL {
                m.internal(p, &[a.as_str()]).expect("stream event");
            }
            let msg = m.send(p, &[a.as_str()]).expect("stream event");
            m.recv(q, msg, &[b.as_str()]).expect("stream event");
            for _ in 0..TAIL {
                m.internal(q, &[b.as_str()]).expect("stream event");
            }
        };
        feed(&mut pruned);
        feed(&mut plain);
        // Sample the gauge while the epoch's intervals are live: this is
        // the high-water residency the pruned monitor actually holds.
        resident_max = resident_max.max(pruned.stats().resident_intervals);
        let settle = |m: &mut OnlineMonitor| {
            m.close(&a);
            m.close(&b);
            m.poll()
        };
        let ep = settle(&mut pruned);
        let eu = settle(&mut plain);
        verdicts_match &= ep == eu;
        events += per_epoch;
        epochs += 1;
    }
    verdicts_match &= pruned.verdicts() == plain.verdicts();
    ChurnMeasurement {
        events,
        epochs,
        resident_max,
        intervals_reclaimed: pruned.stats().intervals_reclaimed,
        unpruned_resident: plain.stats().resident_intervals,
        verdicts_match,
    }
}

/// Run both sections and render the report. When `json_path` is given,
/// also write the JSON document there. `churn_events` sizes the
/// monitor stream.
pub fn run_to(seed: u64, json_path: Option<&str>, churn_events: u64) -> String {
    // Large interval count: batching pays off when one arena serves
    // many blocks.
    let w = workload::seeded(seed, 8, 60, 128, 8, 3);
    let k = measure_kernel(&w, seed);
    let c = measure_churn(seed, churn_events);

    let mut t = Table::new([
        "section",
        "events",
        "pairs/epochs",
        "seq fused p/s",
        "seq batched p/s",
        "par×8 batched p/s",
        "speedup",
    ]);
    t.row([
        "kernel".to_string(),
        k.events.to_string(),
        k.pairs.to_string(),
        format!("{:.0}", k.seq_fused_pps),
        format!("{:.0}", k.seq_batched_pps),
        format!("{:.0}", k.par_batched_pps[THREAD_POINTS.len() - 1]),
        format!("{:.2}", k.speedup()),
    ]);
    let mut out = t.render();
    out.push_str(&format!(
        "\nbatched vs fused gate (>= {SPEEDUP_GATE:.1}x, {} kernel): {}\n",
        KernelTier::detect().name(),
        if k.speedup() >= SPEEDUP_GATE {
            "PASS"
        } else {
            "FAIL"
        }
    ));
    out.push_str(&format!(
        "monitor churn: {} events / {} epochs, resident max {} (unpruned {}), \
         {} intervals reclaimed, verdicts {}\n",
        c.events,
        c.epochs,
        c.resident_max,
        c.unpruned_resident,
        c.intervals_reclaimed,
        if c.verdicts_match {
            "match"
        } else {
            "DIVERGED"
        }
    ));
    if let Some(path) = json_path {
        match std::fs::write(path, report_json(&k, &c)) {
            Ok(()) => out.push_str(&format!("wrote {path}\n")),
            Err(e) => out.push_str(&format!("could not write {path}: {e}\n")),
        }
    }
    out
}

/// Default entry point: measure (1M-event monitor stream) and write
/// `BENCH_batch.json` at the repository root.
pub fn run(seed: u64) -> String {
    run_to(
        seed,
        Some(super::bench_artifact("BENCH_batch.json").to_str().unwrap()),
        1_000_000,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use synchrel_obs::json::is_valid;

    #[test]
    fn kernel_measurement_sane() {
        let w = workload::seeded(7, 6, 20, 12, 3, 2);
        let k = measure_kernel(&w, 7);
        assert_eq!(k.pairs, 12 * 11);
        assert!(k.seq_fused_pps > 0.0);
        assert!(k.seq_batched_pps > 0.0);
        assert_eq!(k.par_fused_pps.len(), THREAD_POINTS.len());
        assert_eq!(k.par_batched_pps.len(), THREAD_POINTS.len());
    }

    #[test]
    fn churn_is_bounded_and_equivalent() {
        let c = measure_churn(3, 4_000);
        assert!(c.epochs >= 100);
        assert!(c.verdicts_match);
        assert!(c.resident_max <= 4, "resident_max = {}", c.resident_max);
        assert_eq!(c.intervals_reclaimed, 2 * c.epochs);
        assert_eq!(c.unpruned_resident, 2 * c.epochs);
    }

    #[test]
    fn report_is_valid_json() {
        let w = workload::seeded(7, 6, 20, 12, 3, 2);
        let k = measure_kernel(&w, 7);
        let c = measure_churn(7, 2_000);
        let json = report_json(&k, &c);
        assert!(json.starts_with("{\"schema\":\"synchrel/BENCH_batch/v2\""));
        assert!(json.contains("\"git_rev\":"), "{json}");
        assert!(json.contains("\"dirty\":"), "{json}");
        assert!(json.contains("\"workload_seed\":7"), "{json}");
        assert!(json.contains("\"warmup_iters\":1"), "{json}");
        assert!(json.contains("\"speedup_ok\":"), "{json}");
        assert!(json.contains("\"available_cores\":"), "{json}");
        assert!(json.contains("\"kernel\":"), "{json}");
        assert!(json.contains("\"resident_max\":"), "{json}");
        assert!(is_valid(&json), "{json}");
    }
}
