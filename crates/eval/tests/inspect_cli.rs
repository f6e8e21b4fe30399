//! The `usb_repro inspect` command on a bundle whose data recipe does not
//! fit its model: the bundle is well formed (valid checksums), so only the
//! semantic check in `read_victim` stands between it and a shape panic in
//! the first forward pass. The command must exit 1 with a message.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::process::Command;
use usb_attacks::persist::{write_victim, VictimBundle};
use usb_attacks::{GroundTruth, Victim};
use usb_data::SyntheticSpec;
use usb_nn::models::{Architecture, ModelKind};

#[test]
fn inspect_rejects_a_recipe_that_does_not_fit_the_model() {
    let spec = SyntheticSpec::mnist().with_size(12).with_classes(4);
    let arch = Architecture::new(ModelKind::BasicCnn, (1, 12, 12), 4).with_width(4);
    let mut bundle = VictimBundle {
        victim: Victim {
            model: arch.build(&mut StdRng::seed_from_u64(3)),
            clean_accuracy: 0.0,
            ground_truth: GroundTruth::Clean,
        },
        train_seed: 0,
        config_hash: 0,
        data_spec: spec.with_size(12 + 4),
        data_seed: 0,
    };
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("misfit-recipe.usbv");
    let mut bytes = Vec::new();
    write_victim(&mut bytes, &mut bundle).expect("encoding the bundle");
    std::fs::write(&path, bytes).expect("writing the bundle");

    let out = Command::new(env!("CARGO_BIN_EXE_usb_repro"))
        .arg("inspect")
        .arg(&path)
        .arg("--fast")
        .output()
        .expect("running usb_repro");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains("does not fit the model") && !stderr.contains("panicked"),
        "expected a clean recipe error, got: {stderr}"
    );
}
