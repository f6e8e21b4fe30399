//! Correctness checks on every verdict the benchmark produces.
//!
//! Each verdict is reduced to a [`Digest`]: its flagged set and the bits of
//! every per-class L1 norm, reversed pattern and reversed mask. The
//! [`Ledger`] then requires that
//!
//! * every verdict for the same bundle, scan seed and detector
//!   configuration has the same digest — across repeats, across scanner
//!   threads, between the traced and the untraced scan, and between the
//!   daemon and an offline scan;
//! * a Q8 bundle flags the same classes as its f32 twin for the same seed
//!   wherever the f32 verdict is decisive (it flags exactly the implanted
//!   targets) — the scope of the low-precision tolerance contract
//!   (ARCHITECTURE.md, `tests/quantized_equivalence.rs`). On a marginal
//!   seed a class sits within quantization noise of the MAD threshold and
//!   may flip.
//!
//! The ledger also measures the largest per-class log-norm drift between a
//! Q8 verdict and its f32 twin, which every run publishes in its
//! environment record beside the documented [`LOG_NORM_TOL`]. It is
//! reported, not counted as a failure: the scanner exceeds the tolerance
//! on some seeds of the canonical victim.
//!
//! Every mismatch, error or rejection counts as a failed operation.

use std::collections::BTreeMap;
use usb_defenses::DetectionOutcome;
use usb_eval::serve::proto::verdict_from_outcome;
use usb_eval::serve::WireVerdict;

/// The bit-level identity of a verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Digest {
    /// Flagged classes, ascending.
    pub flagged: Vec<u32>,
    /// `f64::to_bits` of every per-class L1 norm, in class order.
    pub l1_bits: Vec<u64>,
    /// CRC-32 of every per-class reversed pattern and mask.
    pub trigger_crcs: Vec<(u32, u32)>,
}

impl Digest {
    /// Digest of a verdict frame.
    pub fn of_wire(v: &WireVerdict) -> Digest {
        let mut flagged = v.flagged.clone();
        flagged.sort_unstable();
        Digest {
            flagged,
            l1_bits: v.per_class.iter().map(|c| c.l1_norm.to_bits()).collect(),
            trigger_crcs: v
                .per_class
                .iter()
                .map(|c| (c.pattern_crc, c.mask_crc))
                .collect(),
        }
    }

    /// Digest of an offline outcome, through the daemon's own conversion
    /// so both sides are reduced the same way.
    pub fn of_outcome(o: &DetectionOutcome) -> Digest {
        Digest::of_wire(&verdict_from_outcome(0, o, &[], false, 0.0))
    }

    /// Whether the flagged set equals the ground-truth targets.
    pub fn matches_truth(&self, truth: &[usize]) -> bool {
        self.flagged
            .iter()
            .map(|&f| f as usize)
            .eq(truth.iter().copied())
    }
}

/// Largest |ln L1(Q8) − ln L1(f32)| per class ARCHITECTURE.md documents
/// (the constant of `tests/quantized_equivalence.rs`).
pub const LOG_NORM_TOL: f64 = 0.5;

/// What a verdict answers: bundle label, scan seed, detector config.
pub type Key = (&'static str, u64, &'static str);

/// Tallies operations and checks every verdict against the others.
#[derive(Debug, Default)]
pub struct Ledger {
    attempted: usize,
    failed: usize,
    correct_verdicts: usize,
    verdicts: usize,
    seen: BTreeMap<Key, Digest>,
    /// Largest per-class |ln L1(Q8) − ln L1(f32)| seen between twins, if
    /// any twins were compared.
    pub q8_log_drift: Option<f64>,
    /// Human-readable description of every failure.
    pub notes: Vec<String>,
}

impl Ledger {
    /// Counts an operation that failed before producing a verdict.
    pub fn fail(&mut self, note: String) {
        self.attempted += 1;
        self.failed += 1;
        self.notes.push(note);
    }

    /// Records one verdict. Returns `false` (and counts a failure) when it
    /// contradicts an earlier verdict for the same key or its Q8/f32 twin.
    pub fn verdict(&mut self, key: Key, digest: Digest, truth: &[usize]) -> bool {
        self.attempted += 1;
        self.verdicts += 1;
        if digest.matches_truth(truth) {
            self.correct_verdicts += 1;
        }
        let mut ok = true;
        if let Some(prev) = self.seen.get(&key) {
            if *prev != digest {
                ok = false;
                self.notes.push(format!(
                    "{key:?}: verdict differs from an earlier one (flagged {:?} vs {:?})",
                    digest.flagged, prev.flagged
                ));
            }
        }
        if let Some((twin, this_is_f32)) = twin_label(key.0) {
            if let Some(other) = self.seen.get(&(twin, key.1, key.2)) {
                let (f32_side, q8_side) = if this_is_f32 {
                    (&digest, other)
                } else {
                    (other, &digest)
                };
                let drift = log_drift(f32_side, q8_side);
                self.q8_log_drift = Some(self.q8_log_drift.map_or(drift, |d| d.max(drift)));
                if f32_side.matches_truth(truth) && q8_side.flagged != f32_side.flagged {
                    ok = false;
                    self.notes.push(format!(
                        "{key:?}: Q8 flagged {:?} where the decisive f32 verdict flagged {:?}",
                        q8_side.flagged, f32_side.flagged
                    ));
                }
            }
        }
        self.seen.entry(key).or_insert(digest);
        if !ok {
            self.failed += 1;
        }
        ok
    }

    /// Operations attempted.
    pub fn attempted(&self) -> usize {
        self.attempted
    }

    /// Operations failed.
    pub fn failed(&self) -> usize {
        self.failed
    }

    /// Share of verdicts whose flagged set equals the ground truth.
    pub fn detect_acc(&self) -> f64 {
        if self.verdicts == 0 {
            return 0.0;
        }
        self.correct_verdicts as f64 / self.verdicts as f64
    }
}

/// The other storage of the same victim, and whether `label` is the f32
/// side.
fn twin_label(label: &'static str) -> Option<(&'static str, bool)> {
    match label {
        "resnet-badnet-f32" => Some(("resnet-badnet-q8", true)),
        "resnet-badnet-q8" => Some(("resnet-badnet-f32", false)),
        _ => None,
    }
}

/// Largest per-class |ln L1(Q8) − ln L1(f32)|.
fn log_drift(f32_side: &Digest, q8_side: &Digest) -> f64 {
    f32_side
        .l1_bits
        .iter()
        .zip(&q8_side.l1_bits)
        .map(|(&f, &q)| (f64::from_bits(q).ln() - f64::from_bits(f).ln()).abs())
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest(flagged: &[u32], l1: &[f64]) -> Digest {
        Digest {
            flagged: flagged.to_vec(),
            l1_bits: l1.iter().map(|x| x.to_bits()).collect(),
            trigger_crcs: vec![(1, 2); l1.len()],
        }
    }

    #[test]
    fn identical_repeats_pass() {
        let mut l = Ledger::default();
        let key = ("resnet-badnet-f32", 5, "standard");
        assert!(l.verdict(key, digest(&[4], &[1.0, 2.0]), &[4]));
        assert!(l.verdict(key, digest(&[4], &[1.0, 2.0]), &[4]));
        assert_eq!((l.attempted(), l.failed()), (2, 0));
        assert_eq!(l.detect_acc(), 1.0);
    }

    #[test]
    fn a_single_flipped_l1_bit_fails_the_repeat_check() {
        let mut l = Ledger::default();
        let key = ("effnet-badnet-f32", 1, "standard");
        assert!(l.verdict(key, digest(&[0], &[1.0, 2.0]), &[0]));
        let nudged = f64::from_bits(2.0f64.to_bits() + 1);
        assert!(!l.verdict(key, digest(&[0], &[1.0, nudged]), &[0]));
        assert_eq!(l.failed(), 1);
        assert_eq!(l.notes.len(), 1);
    }

    #[test]
    fn a_changed_trigger_fails_the_repeat_check() {
        let mut l = Ledger::default();
        let key = ("effnet-badnet-f32", 1, "standard");
        let a = digest(&[0], &[1.0]);
        let mut b = a.clone();
        b.trigger_crcs[0].1 ^= 1;
        assert!(l.verdict(key, a, &[0]));
        assert!(!l.verdict(key, b, &[0]));
    }

    #[test]
    fn q8_twin_must_flag_the_same_classes_on_a_decisive_seed() {
        let mut l = Ledger::default();
        assert!(l.verdict(
            ("resnet-badnet-f32", 9, "standard"),
            digest(&[4], &[1.0]),
            &[4]
        ));
        // Norms that drift inside the tolerance are fine ...
        assert!(l.verdict(
            ("resnet-badnet-q8", 9, "standard"),
            digest(&[4], &[1.5]),
            &[4]
        ));
        // ... a different flagged set is not, whichever twin comes first.
        assert!(l.verdict(
            ("resnet-badnet-q8", 10, "standard"),
            digest(&[], &[1.5]),
            &[4]
        ));
        assert!(!l.verdict(
            ("resnet-badnet-f32", 10, "standard"),
            digest(&[4], &[1.0]),
            &[4]
        ));
        assert_eq!(l.failed(), 1);
    }

    #[test]
    fn q8_twin_may_differ_in_flags_only_on_a_marginal_seed() {
        let mut l = Ledger::default();
        // f32 flags a clean class too, so the seed is marginal.
        assert!(l.verdict(
            ("resnet-badnet-f32", 9, "standard"),
            digest(&[4, 9], &[1.0, 2.0]),
            &[4]
        ));
        assert!(l.verdict(
            ("resnet-badnet-q8", 9, "standard"),
            digest(&[9], &[1.2, 2.1]),
            &[4]
        ));
        assert_eq!(l.failed(), 0);
    }

    #[test]
    fn q8_norm_drift_is_measured() {
        let mut l = Ledger::default();
        assert!(l.verdict(
            ("resnet-badnet-f32", 9, "standard"),
            digest(&[4, 9], &[1.0, 2.0]),
            &[4]
        ));
        let past = 2.0 * (2.0 * LOG_NORM_TOL).exp();
        assert!(l.verdict(
            ("resnet-badnet-q8", 9, "standard"),
            digest(&[4, 9], &[1.0, past]),
            &[4]
        ));
        let drift = l.q8_log_drift.expect("twins were compared");
        assert!((drift - 2.0 * LOG_NORM_TOL).abs() < 1e-12);
    }

    #[test]
    fn configs_and_seeds_are_compared_separately() {
        let mut l = Ledger::default();
        assert!(l.verdict(("resnet-badnet-f32", 1, "fast"), digest(&[4], &[1.0]), &[4]));
        assert!(l.verdict(
            ("resnet-badnet-f32", 1, "standard"),
            digest(&[], &[3.0]),
            &[4]
        ));
        assert!(l.verdict(("resnet-badnet-f32", 2, "fast"), digest(&[], &[3.0]), &[4]));
        assert_eq!(l.failed(), 0);
        assert!((l.detect_acc() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn errors_count_as_failures() {
        let mut l = Ledger::default();
        l.fail("bundle rejected".to_owned());
        assert_eq!((l.attempted(), l.failed()), (1, 1));
    }
}
