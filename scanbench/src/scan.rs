//! The offline scanner: set-up of each bundle, scans through
//! `UsbDetector::inspect`, and the traced scan composed from Alg. 1 and
//! Alg. 2 so its verdict equals the untraced one bit for bit.

use crate::check::Digest;
use crate::trace::Tracer;
use crate::victims::{Bundle, Seeds};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;
use usb_attacks::persist::read_victim_bytes;
use usb_core::{refine_uap, targeted_uap, UsbConfig, UsbDetector};
use usb_data::Dataset;
use usb_defenses::{ClassResult, Defense, DetectionOutcome};
use usb_nn::Network;
use usb_tensor::{Dtype, Tensor, Workspace};

/// Clean images per scan, as `usb-repro inspect` draws them.
pub const SUBSET: usize = 48;

/// Concurrent closed-loop scanners in the offline measured phase, each
/// running its scans on one per-class worker. On a 2-core x86-64 host a
/// lone scanner's EfficientNet scans took as long as each of two
/// concurrent scanners' (median 15.2 s against 16.1 s over ten alternating
/// runs, with the same run-to-run spread), so two scanners double the
/// verdicts a run holds.
pub const SCANNERS: usize = 2;

/// Scans every scanner completes even when `--seconds` runs out first:
/// an EfficientNet scan takes about 20 s on a 2-core x86-64 host, and
/// fewer than six verdicts per run left its median and tail at the mercy
/// of single slow scans.
pub const MIN_SCANS_PER_SCANNER: usize = 3;

/// A bundle decoded and made ready to scan.
pub struct Loaded {
    /// Bundle label.
    pub label: &'static str,
    /// Weight storage.
    pub dtype: Dtype,
    /// Ground-truth targets.
    pub truth: Vec<usize>,
    /// The decoded victim.
    pub model: Network,
    /// The dataset regenerated from the stored recipe.
    pub data: Dataset,
    /// Serialized size in KiB.
    pub bundle_kb: f64,
}

/// Decodes one bundle, regenerates its recipe, draws the clean subset of
/// `first_seed`, and runs one warm-up forward on it.
pub fn load(
    bundle: &Bundle,
    first_seed: u64,
    tracer: &Tracer,
    parent: u64,
) -> Result<Loaded, String> {
    let decoded = tracer.span("persist.decode", parent, 0, |_| {
        read_victim_bytes(&bundle.bytes)
    });
    let stored = decoded.map_err(|e| format!("decoding {}: {e}", bundle.label))?;
    let data = tracer.span("data.regen", parent, 0, |_| {
        stored.data_spec.generate(stored.data_seed)
    });
    let subset = tracer.span("data.subset", parent, 0, |_| {
        data.clean_subset(SUBSET, &mut StdRng::seed_from_u64(first_seed))
            .0
    });
    let model = stored.victim.model;
    tracer.span("nn.warmup", parent, 0, |_| {
        let mut ws = Workspace::new();
        let logits = model.infer(&subset, &mut ws);
        std::hint::black_box(logits.data()[0]);
    });
    Ok(Loaded {
        label: bundle.label,
        dtype: bundle.dtype,
        truth: bundle.truth.clone(),
        model,
        data,
        bundle_kb: bundle.bytes.len() as f64 / 1024.0,
    })
}

/// Loads every bundle (see [`load`]).
pub fn load_all(
    bundles: &[Bundle],
    first_seed: u64,
    tracer: &Tracer,
) -> Result<Vec<Loaded>, String> {
    tracer.span("setup", 0, 0, |id| {
        bundles
            .iter()
            .map(|b| load(b, first_seed, tracer, id))
            .collect()
    })
}

/// One offline scan as `usb-repro inspect` runs it: seed the rng, draw the
/// clean subset, inspect. Returns the outcome and the seconds of the
/// `inspect` call alone.
pub fn scan(victim: &Loaded, scan_seed: u64, config: UsbConfig) -> (DetectionOutcome, f64) {
    let mut rng = StdRng::seed_from_u64(scan_seed);
    let (x, _) = victim.data.clean_subset(SUBSET, &mut rng);
    let t0 = Instant::now();
    let outcome = UsbDetector::new(config).inspect(&victim.model, &x, &mut rng);
    (outcome, t0.elapsed().as_secs_f64())
}

/// Alg. 1 and Alg. 2 work counts of one traced scan.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScanWork {
    /// DeepFool invocations summed over classes.
    pub deepfool_calls: usize,
    /// UAP data sweeps summed over classes.
    pub uap_passes: usize,
}

/// [`scan`] composed from the public Alg. 1 / Alg. 2 entry points with a
/// span around each stage. It draws the same rng streams in the same
/// order as `UsbDetector::inspect` on one worker, so the outcome is bit
/// for bit the same; the ledger checks that on every traced run.
pub fn scan_traced(
    victim: &Loaded,
    scan_seed: u64,
    config: UsbConfig,
    tracer: &Tracer,
    job: u64,
) -> (DetectionOutcome, ScanWork) {
    let detector = UsbDetector::new(config);
    let mut rng = StdRng::seed_from_u64(scan_seed);
    let x = tracer.span("data.subset", 0, job, |_| {
        victim.data.clean_subset(SUBSET, &mut rng).0
    });
    tracer.span("scan", 0, job, |scan_id| {
        let model = &victim.model;
        let k = model.num_classes();
        let seeds: Vec<u64> = (0..k).map(|_| rng.gen()).collect();
        let mut work = ScanWork::default();
        let per_class: Vec<ClassResult> = seeds
            .iter()
            .enumerate()
            .map(|(t, &seed)| {
                let mut class_rng = StdRng::seed_from_u64(seed);
                let n = x.shape()[0];
                let mut idx: Vec<usize> = (0..n).collect();
                for i in (1..idx.len()).rev() {
                    idx.swap(i, class_rng.gen_range(0..=i));
                }
                idx.truncate(config.uap_samples.min(n));
                let rows: Vec<Tensor> = idx.iter().map(|&i| x.index_axis0(i)).collect();
                let subset = Tensor::stack(&rows);
                let uap = tracer.span("core.uap", scan_id, job, |_| {
                    targeted_uap(model, &subset, t, config.uap)
                });
                work.deepfool_calls += uap.deepfool_calls;
                work.uap_passes += uap.passes;
                let refined = tracer.span("core.refine", scan_id, job, |_| {
                    refine_uap(model, &x, t, &uap.perturbation, config.refine)
                });
                ClassResult {
                    class: t,
                    l1_norm: refined.mask_l1(),
                    attack_success: refined.success_rate,
                    pattern: refined.pattern,
                    mask: refined.mask,
                }
            })
            .collect();
        let outcome = DetectionOutcome::from_class_results(
            detector.static_name(),
            per_class,
            detector.min_success(),
        );
        (outcome, work)
    })
}

/// One completed scan of the measured phase.
pub struct ScanRecord {
    /// Position in the job sequence.
    pub job: u64,
    /// Index of the scanned bundle.
    pub bundle: usize,
    /// Index into the run's scan-seed stream.
    pub seed_index: u64,
    /// Seconds of the `inspect` call.
    pub seconds: f64,
    /// The verdict's digest.
    pub digest: Digest,
    /// Seconds since the phase started at completion.
    pub done_at: f64,
}

/// Bundle and seed index of job `j`: job 1 repeats job 0 (the two
/// scanners start on the same scan, which the repeat check compares);
/// after it the jobs rotate over the bundles, one new seed per round, so
/// a Q8 bundle is scanned with the same seeds as its f32 twin.
pub fn job_plan(j: u64, bundles: usize) -> (usize, u64) {
    let m = j.saturating_sub(1);
    ((m % bundles as u64) as usize, m / bundles as u64)
}

/// Runs [`SCANNERS`] closed-loop scanner threads until `seconds` have
/// passed and each finished [`MIN_SCANS_PER_SCANNER`] scans. Returns the
/// records in job order, the phase's wall seconds (until the last scan
/// completed), and a note for every scan that panicked.
pub fn measured_phase(
    victims: &[Loaded],
    seeds: Seeds,
    seconds: f64,
    config: UsbConfig,
) -> (Vec<ScanRecord>, f64, Vec<String>) {
    let next = AtomicU64::new(0);
    let records = Mutex::new(Vec::new());
    let panics = Mutex::new(Vec::new());
    let start = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..SCANNERS {
            s.spawn(|| {
                let mut mine = 0;
                while mine < MIN_SCANS_PER_SCANNER || start.elapsed().as_secs_f64() < seconds {
                    let job = next.fetch_add(1, Ordering::Relaxed);
                    let (b, seed_index) = job_plan(job, victims.len());
                    mine += 1;
                    let scanned = std::panic::catch_unwind(AssertUnwindSafe(|| {
                        scan(&victims[b], seeds.at(seed_index), config)
                    }));
                    let Ok((outcome, secs)) = scanned else {
                        panics
                            .lock()
                            .expect("the panic list is only pushed to")
                            .push(format!("scan {job} of {} panicked", victims[b].label));
                        continue;
                    };
                    let record = ScanRecord {
                        job,
                        bundle: b,
                        seed_index,
                        seconds: secs,
                        digest: Digest::of_outcome(&outcome),
                        done_at: start.elapsed().as_secs_f64(),
                    };
                    records
                        .lock()
                        .expect("a scanner thread panicked")
                        .push(record);
                }
            });
        }
    });
    let mut records = records.into_inner().expect("a scanner thread panicked");
    records.sort_by_key(|r| r.job);
    let wall = records.iter().map(|r| r.done_at).fold(0.0, f64::max);
    let panics = panics
        .into_inner()
        .expect("the panic list is only pushed to");
    (records, wall, panics)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_plan_repeats_the_first_scan_then_rotates() {
        let plan: Vec<_> = (0..8).map(|j| job_plan(j, 3)).collect();
        assert_eq!(
            plan,
            vec![
                (0, 0),
                (0, 0),
                (1, 0),
                (2, 0),
                (0, 1),
                (1, 1),
                (2, 1),
                (0, 2)
            ]
        );
        assert_eq!(job_plan(3, 1), (0, 2));
    }
}
