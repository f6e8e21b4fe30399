//! Workload generation: the victims each workload scans, trained once
//! from their recipe's fixed seeds and memoized (keyed the way
//! `FixtureSpec` keys fixtures), then serialized to the bundle bytes that
//! are all the measured code ever sees. The workload seed drives the scan
//! seeds a run feeds those victims.
//!
//! The victims do not vary with the workload seed: detection quality
//! differs from one training seed to the next (on the ResNet recipe at
//! training seed 8, 8 of 21 verdicts matched the ground truth; at seeds 7
//! and 9, all did), which would make `detect_acc` and `verdict_s` report
//! the victim drawn rather than the scanner.
//!
//! Training runs in a child process (`--prepare`), so neither its time nor
//! its memory reaches any metric of the measuring process.

use std::path::{Path, PathBuf};
use usb_attacks::fixtures::{cached_victim_in, FixtureSpec};
use usb_attacks::persist::{load_victim, write_victim, write_victim_dtype, VictimBundle};
use usb_attacks::{train_clean_victim, Attack, BadNet, Victim};
use usb_data::SyntheticSpec;
use usb_nn::models::{Architecture, ModelKind};
use usb_nn::train::TrainConfig;
use usb_tensor::Dtype;

/// Images in an inflated EfficientNet recipe (3×20×20 f32: 4.6 MiB per
/// 1000 images).
const EFFNET_RECIPE_IMAGES: usize = 12_000;
/// Images in an inflated ResNet recipe (1×12×12 f32: 0.56 MiB per 1000).
const RESNET_RECIPE_IMAGES: usize = 42_000;
/// The serve daemon's default resident-cache budget; one regenerated
/// dataset must fit under it, as `usb-repro loadgen` keeps its bundles.
const DAEMON_DEFAULT_BUDGET: usize = 64 << 20;

/// The benchmark workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Offline scans of the Table 2 EfficientNet-B0 stand-in.
    ScanEffnet,
    /// Offline scans rotating over a BadNet f32, its Q8 twin, and a clean
    /// ResNet-18.
    ScanResnet,
}

impl Workload {
    /// Parses a workload name as given on the command line.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "scan-effnet" => Some(Workload::ScanEffnet),
            "scan-resnet" => Some(Workload::ScanResnet),
            _ => None,
        }
    }

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ScanEffnet => "scan-effnet",
            Workload::ScanResnet => "scan-resnet",
        }
    }
}

/// One serialized victim as handed to the scanner.
pub struct Bundle {
    /// Short label, e.g. `badnet-q8`.
    pub label: &'static str,
    /// The USBV bytes.
    pub bytes: Vec<u8>,
    /// Weight storage of the bundle.
    pub dtype: Dtype,
    /// Ground-truth target classes, ascending (empty for a clean victim).
    pub truth: Vec<usize>,
}

struct Recipe {
    key: &'static str,
    spec: SyntheticSpec,
    arch: Architecture,
    attack: Option<BadNet>,
    train: TrainConfig,
    data_seed: u64,
    train_seed: u64,
    recipe_images: usize,
}

impl Recipe {
    fn fixture(&self) -> FixtureSpec {
        let attack = self
            .attack
            .map_or_else(|| "clean".to_owned(), |a| format!("{a:?}"));
        FixtureSpec::new(self.key, self.spec.clone(), self.data_seed, self.train_seed).with_config(
            &[
                &format!("{:?}", self.arch),
                &attack,
                &format!("{:?}", self.train),
            ],
        )
    }

    fn train(&self, data: &usb_data::Dataset) -> Victim {
        match self.attack {
            Some(a) => a.execute(data, self.arch, self.train, self.train_seed),
            None => train_clean_victim(data, self.arch, self.train, self.train_seed),
        }
    }

    /// The stored recipe, inflated the way `usb-repro loadgen` inflates
    /// its bundle (six training images per test image). Verdicts do not
    /// change: class prototypes are drawn before the splits and the clean
    /// subset samples the prototypes.
    fn inflated_spec(&self) -> SyntheticSpec {
        let test = self.recipe_images / 7;
        self.spec
            .clone()
            .with_train_size(self.recipe_images - test)
            .with_test_size(test)
    }
}

/// Table 2 EfficientNet-B0 stand-in, trained on the data and training
/// seed of the Table 7 timing harness's first model.
fn effnet() -> Recipe {
    let spec = SyntheticSpec::imagenet_subset()
        .with_size(20)
        .with_train_size(400)
        .with_test_size(100);
    Recipe {
        key: "scanbench-effnet-badnet",
        arch: Architecture::new(ModelKind::EfficientNetB0, (3, 20, 20), 10).with_width(6),
        spec,
        attack: Some(BadNet::new(3, 0, 0.15)),
        train: TrainConfig::new(20),
        data_seed: 9000,
        train_seed: 9000,
        recipe_images: EFFNET_RECIPE_IMAGES,
    }
}

/// The `usb-repro save --fast` ResNet-18 recipe at its default seeds.
fn resnet(backdoored: bool) -> Recipe {
    let spec = SyntheticSpec::mnist()
        .with_size(12)
        .with_train_size(400)
        .with_test_size(80);
    Recipe {
        key: if backdoored {
            "scanbench-resnet-badnet"
        } else {
            "scanbench-resnet-clean"
        },
        arch: Architecture::new(ModelKind::ResNet18, (1, 12, 12), 10).with_width(4),
        spec,
        attack: backdoored.then(|| BadNet::new(2, 4, 0.15)),
        train: TrainConfig::new(20),
        data_seed: 111,
        train_seed: 7,
        recipe_images: RESNET_RECIPE_IMAGES,
    }
}

fn recipes(workload: Workload) -> Vec<Recipe> {
    match workload {
        Workload::ScanEffnet => vec![effnet()],
        Workload::ScanResnet => vec![resnet(true), resnet(false)],
    }
}

/// Where trained victims are memoized: `.scanbench/victims` at the root
/// of the checkout the benchmark was built in.
pub fn cache_dir() -> PathBuf {
    checkout_root().join(".scanbench").join("victims")
}

/// The checkout root: the parent of this package's directory.
pub fn checkout_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .map_or_else(|| PathBuf::from("."), Path::to_path_buf)
}

/// Trains every victim the workload needs that is not memoized yet.
pub fn prepare(workload: Workload) {
    let dir = cache_dir();
    for recipe in recipes(workload) {
        let _ = cached_victim_in(&dir, &recipe.fixture(), |data| recipe.train(data));
    }
}

fn serialize(
    victim: Victim,
    recipe: &Recipe,
    fixture: &FixtureSpec,
    dtype: Dtype,
) -> Result<Vec<u8>, String> {
    let mut bundle = VictimBundle {
        victim,
        train_seed: fixture.train_seed,
        config_hash: fixture.config_hash,
        data_spec: recipe.inflated_spec(),
        data_seed: fixture.data_seed,
    };
    let mut bytes = Vec::new();
    let written = match dtype {
        Dtype::F32 => write_victim(&mut bytes, &mut bundle),
        other => write_victim_dtype(&mut bytes, &mut bundle, other),
    };
    written.map_err(|e| format!("serializing {}: {e}", recipe.key))?;
    Ok(bytes)
}

/// Loads the memoized victims (see [`prepare`]) and serializes the
/// workload's bundles: the EfficientNet victim alone, or the ResNet
/// BadNet victim in f32 and Q8 plus the clean ResNet victim.
pub fn bundles(workload: Workload) -> Result<Vec<Bundle>, String> {
    let dir = cache_dir();
    let mut out = Vec::new();
    for recipe in recipes(workload) {
        let fixture = recipe.fixture();
        let path = dir.join(fixture.file_name());
        let stored = load_victim(&path).map_err(|e| format!("loading {}: {e}", path.display()))?;
        if stored.config_hash != fixture.config_hash {
            return Err(format!(
                "{} is stale; prepare did not retrain it",
                path.display()
            ));
        }
        let (c, h, w) = recipe.arch.input;
        let dataset_bytes = 4 * recipe.recipe_images * c * h * w;
        assert!(
            dataset_bytes < DAEMON_DEFAULT_BUDGET,
            "an inflated recipe must fit the daemon's default cache budget"
        );
        let truth = stored.victim.targets();
        let victim = stored.victim;
        match (workload, recipe.attack.is_some()) {
            (Workload::ScanEffnet, _) => out.push(Bundle {
                label: "effnet-badnet-f32",
                bytes: serialize(victim, &recipe, &fixture, Dtype::F32)?,
                dtype: Dtype::F32,
                truth,
            }),
            (_, true) => {
                let f32_bytes = serialize(victim, &recipe, &fixture, Dtype::F32)?;
                let twin = usb_attacks::persist::read_victim_bytes(&f32_bytes)
                    .map_err(|e| format!("re-reading {}: {e}", recipe.key))?;
                out.push(Bundle {
                    label: "resnet-badnet-f32",
                    bytes: f32_bytes,
                    dtype: Dtype::F32,
                    truth: truth.clone(),
                });
                out.push(Bundle {
                    label: "resnet-badnet-q8",
                    bytes: serialize(twin.victim, &recipe, &fixture, Dtype::Q8)?,
                    dtype: Dtype::Q8,
                    truth,
                });
            }
            (_, false) => out.push(Bundle {
                label: "resnet-clean-f32",
                bytes: serialize(victim, &recipe, &fixture, Dtype::F32)?,
                dtype: Dtype::F32,
                truth,
            }),
        }
    }
    Ok(out)
}

/// The per-scan seed stream derived from the workload seed.
#[derive(Debug, Clone, Copy)]
pub struct Seeds(pub u64);

impl Seeds {
    /// The `index`-th scan seed (SplitMix64 over the workload seed).
    pub fn at(self, index: u64) -> u64 {
        derive_seed(self.0, index)
    }
}

fn derive_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(index.wrapping_add(1).wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
