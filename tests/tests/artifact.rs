//! Plan-artifact round-trip and corrupted-input suites.
//!
//! * Every zoo model's calibrated deployment, at 8-bit and 4-bit
//!   weights, saves to `.qplan` bytes and restores through
//!   `Engine::deploy_from_artifact` — with **no** calibration source — to
//!   a deployment whose plan compares equal and whose outputs are
//!   bit-identical to the original's.
//! * The file-path spellings (`save_to_path` /
//!   `deploy_from_artifact_path`) round-trip through a real file.
//! * An artifact saved for one model is rejected with a typed
//!   `FingerprintMismatch` when loaded into an engine serving another.
//! * The model fingerprint equals the checksum of the saved model's body,
//!   for every zoo model.
//! * Property tests: flipping, truncating, version-bumping or
//!   checksum-repairing a valid artifact yields a typed `ArtifactError`
//!   (or a clean parse), never a panic — even when the corrupted bytes
//!   reach the full deploy path.
//!
//! `QUANTMCU_SMOKE=1` shrinks the zoo sweeps for CI.

use std::sync::OnceLock;

use proptest::prelude::*;

use quantmcu::artifact::{graph_fingerprint, ArtifactError, PlanArtifact, FORMAT_VERSION};
use quantmcu::models::Model;
use quantmcu::nn::codec::checksum;
use quantmcu::nn::import::{encode, save_model};
use quantmcu::nn::opt::ModelIr;
use quantmcu::nn::{init, GraphSpecBuilder};
use quantmcu::tensor::{Bitwidth, Shape, Tensor};
use quantmcu::{Engine, Error, SramBudget};
use quantmcu_integration::{calib, eval, graph, SEED};

fn zoo() -> Vec<Model> {
    if std::env::var_os("QUANTMCU_SMOKE").is_some() {
        vec![Model::MobileNetV2, Model::SqueezeNet, Model::McuNet]
    } else {
        Model::ALL.to_vec()
    }
}

fn engine(model: Model) -> Engine {
    Engine::builder(graph(model)).sram_budget(SramBudget::kib(16)).build()
}

fn assert_bit_identical(a: &[Tensor], b: &[Tensor], what: &str) {
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.shape(), y.shape(), "{what}: shape diverged");
        for (va, vb) in x.data().iter().zip(y.data()) {
            assert_eq!(va.to_bits(), vb.to_bits(), "{what}: outputs not bit-identical");
        }
    }
}

// --- round trips ------------------------------------------------------

#[test]
fn zoo_cold_start_is_bit_identical_to_calibrated() {
    // W4 makes the restore re-pack sub-byte weight words.
    for weight_bits in [Bitwidth::W8, Bitwidth::W4] {
        for model in zoo() {
            let engine = Engine::builder(graph(model))
                .sram_budget(SramBudget::kib(16))
                .weight_bits(weight_bits)
                .build();
            let what = format!("{model} at {weight_bits:?} weights");
            let calibrated =
                engine.plan(calib(4)).and_then(|p| engine.deploy(p)).expect("calibrated deploy");
            assert_eq!(calibrated.plan().weight_bits(), weight_bits, "{what}");
            let bytes = calibrated.save().expect("save artifact");
            // The cold start needs the engine and the bytes — nothing else.
            let cold = engine.deploy_from_artifact(&bytes).expect("cold-start deploy");
            assert_eq!(calibrated.plan(), cold.plan(), "{what}: plans diverged");
            let inputs = eval(4);
            let warm_out = calibrated.session().run_batch(&inputs).expect("calibrated outputs");
            let cold_out = cold.session().run_batch(&inputs).expect("cold-start outputs");
            assert_bit_identical(&warm_out, &cold_out, &what);
            // Decode → re-encode must reproduce the exact same bytes.
            let decoded = PlanArtifact::decode(&bytes).expect("decode");
            assert_eq!(decoded.encode(), bytes, "{what}: re-encode diverged");
            assert_eq!(decoded.fingerprint(), graph_fingerprint(engine.graph()), "{what}");
        }
    }
}

#[test]
fn artifact_file_round_trip_reaches_deploy_end_to_end() {
    let path = std::env::temp_dir().join(format!(
        "quantmcu-artifact-e2e-{}-{}.qplan",
        std::process::id(),
        SEED
    ));
    let engine = engine(Model::MobileNetV2);
    let calibrated =
        engine.plan(calib(4)).and_then(|p| engine.deploy(p)).expect("calibrated deploy");
    calibrated.save_to_path(&path).expect("save to path");
    let cold = engine.deploy_from_artifact_path(&path).expect("cold start from path");
    let inputs = eval(2);
    assert_bit_identical(
        &calibrated.session().run_batch(&inputs).expect("calibrated outputs"),
        &cold.session().run_batch(&inputs).expect("cold-start outputs"),
        "file round trip",
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn wrong_model_artifact_is_a_typed_fingerprint_mismatch() {
    let bytes = {
        let engine = engine(Model::MobileNetV2);
        engine.plan(calib(4)).and_then(|p| engine.deploy(p)).expect("deploy").save().expect("save")
    };
    let other = engine(Model::SqueezeNet);
    let err = other.deploy_from_artifact(&bytes).expect_err("wrong model must be rejected");
    match err {
        Error::Artifact(ArtifactError::FingerprintMismatch { expected, found }) => {
            assert_eq!(expected, graph_fingerprint(other.graph()));
            assert_ne!(expected, found);
        }
        other => panic!("expected FingerprintMismatch, got {other:?}"),
    }
}

/// The fingerprint is the checksum `save_model` seals over the model's
/// body, for every zoo model at exec scale, and `save_model`, which writes
/// the body straight from the graph, gives the IR encoder's bytes.
#[test]
fn fingerprint_is_the_saved_models_checksum() {
    for model in Model::ALL {
        let g = graph(model);
        let bytes = save_model(&g);
        assert_eq!(graph_fingerprint(&g), checksum(&bytes[16..]), "{model:?}");
        assert_eq!(bytes, encode(&ModelIr::from_graph(&g)), "{model:?}");
    }
}

#[test]
fn missing_artifact_file_is_a_typed_io_error() {
    let err = engine(Model::McuNet)
        .deploy_from_artifact_path("/nonexistent/cold-start.qplan")
        .expect_err("missing file must fail");
    assert!(matches!(err, Error::Artifact(ArtifactError::Io { .. })), "got {err:?}");
}

// --- corruption properties --------------------------------------------

/// A small planned deployment's artifact bytes, built once — planning is
/// too slow to repeat per proptest case.
fn reference() -> &'static (Engine, Vec<u8>) {
    static REF: OnceLock<(Engine, Vec<u8>)> = OnceLock::new();
    REF.get_or_init(|| {
        let spec = GraphSpecBuilder::new(Shape::hwc(16, 16, 3))
            .conv2d(8, 3, 2, 1)
            .relu6()
            .pwconv(12)
            .relu6()
            .conv2d(16, 3, 2, 1)
            .relu6()
            .global_avg_pool()
            .dense(6)
            .build()
            .unwrap();
        let g = init::with_structured_weights(spec, SEED);
        let engine = Engine::builder(g).sram_budget(SramBudget::kib(256)).build();
        let calib: Vec<Tensor> = (0..4)
            .map(|s| Tensor::from_fn(Shape::hwc(16, 16, 3), |i| ((i + 97 * s) as f32 * 0.19).sin()))
            .collect();
        let dep = engine.plan(calib).and_then(|p| engine.deploy(p)).expect("deploy");
        let bytes = dep.save().expect("save");
        (engine, bytes)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Flipping any byte yields a typed error (or, for bytes the format
    /// ignores, a clean parse) — never a panic.
    #[test]
    fn byte_flips_never_panic(pos in 0usize..65536, xor in 1u8..=255) {
        let (engine, bytes) = reference();
        let mut bytes = bytes.clone();
        let pos = pos % bytes.len();
        bytes[pos] ^= xor;
        match PlanArtifact::decode(&bytes) {
            Ok(_) => {
                // A clean parse (e.g. a fingerprint flip) must still be
                // handled as a typed error — or deploy — downstream.
                prop_assert!(!matches!(
                    engine.deploy_from_artifact(&bytes),
                    Err(Error::Serve(_))
                ));
            }
            Err(
                ArtifactError::BadMagic { .. }
                | ArtifactError::UnsupportedVersion { .. }
                | ArtifactError::ChecksumMismatch { .. }
                | ArtifactError::Truncated { .. }
                | ArtifactError::UnknownOpcode { .. }
                | ArtifactError::Corrupted { .. }
                | ArtifactError::Plan { .. },
            ) => {}
            Err(other) => prop_assert!(false, "unexpected error class: {other:?}"),
        }
    }

    /// Truncating at any length yields a typed error, never a panic.
    #[test]
    fn truncations_yield_typed_errors(len in 0usize..65536) {
        let (_, bytes) = reference();
        let len = len % bytes.len();
        let err = PlanArtifact::decode(&bytes[..len]).expect_err("truncated stream must fail");
        prop_assert!(matches!(
            err,
            ArtifactError::BadMagic { .. }
                | ArtifactError::Truncated { .. }
                | ArtifactError::ChecksumMismatch { .. }
                | ArtifactError::Corrupted { .. }
        ), "unexpected error at len {}: {:?}", len, err);
    }

    /// Body corruption *with a recomputed checksum* still decodes to a
    /// typed error or a valid artifact — the structural and semantic
    /// guards hold even when the integrity layer is defeated — and the
    /// full deploy path stays panic-free on whatever decodes.
    #[test]
    fn checksum_repaired_corruption_never_panics(pos in 16usize..65536, val in 0u8..=255) {
        let (engine, bytes) = reference();
        let mut bytes = bytes.clone();
        let pos = 16 + (pos - 16) % (bytes.len() - 16);
        bytes[pos] = val;
        let sum = checksum(&bytes[16..]);
        bytes[8..16].copy_from_slice(&sum.to_le_bytes());
        match PlanArtifact::decode(&bytes) {
            Ok(_) => match engine.deploy_from_artifact(&bytes) {
                Ok(dep) => prop_assert!(!dep.plan().spec().is_empty()),
                Err(e) => prop_assert!(!format!("{e}").is_empty()),
            },
            Err(e) => prop_assert!(!format!("{e}").is_empty()),
        }
    }

    /// Any version other than the supported one is rejected up front.
    #[test]
    fn version_bumps_are_rejected(version in 0u32..1000) {
        prop_assume!(version != FORMAT_VERSION);
        let (_, bytes) = reference();
        let mut bytes = bytes.clone();
        bytes[4..8].copy_from_slice(&version.to_le_bytes());
        let err = PlanArtifact::decode(&bytes).expect_err("foreign version must fail");
        prop_assert!(matches!(
            err,
            ArtifactError::UnsupportedVersion { found, supported }
                if found == version && supported == FORMAT_VERSION
        ), "unexpected: {:?}", err);
    }
}
