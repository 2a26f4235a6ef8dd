//! Multi-threaded serving parity: one immutable `Arc<Deployment>` shared
//! by per-thread `Session`s must produce **bit-identical** outputs to the
//! single-threaded path — the contract that lets a server fan requests
//! out without re-compiling or locking anything.
//!
//! Bit equality survives the tiled float micro-kernels' summation
//! reassociation because every thread runs the same kernels and the run
//! decomposition depends only on tap geometry, never on thread count or
//! scheduling. (Kernel-vs-naive float parity is the ULP-bounded contract;
//! see `crates/nn/tests/kernel_parity.rs`.)

use std::sync::Arc;

use quantmcu::models::Model;
use quantmcu::tensor::{Shape, Tensor};
use quantmcu::{Deployment, Engine, Session, SramBudget};
use quantmcu_integration::{calib, eval, graph};

fn deployment() -> Deployment {
    let engine =
        Engine::builder(graph(Model::MobileNetV2)).sram_budget(SramBudget::kib(16)).build();
    let plan = engine.plan(calib(6)).unwrap();
    engine.deploy(plan).unwrap()
}

/// The acceptance contract of the owned serving API: `Deployment` has no
/// graph lifetime parameter and crosses threads freely.
#[test]
fn deployment_is_send_sync_and_static() {
    fn assert_send_sync<T: Send + Sync + 'static>() {}
    assert_send_sync::<Deployment>();
    assert_send_sync::<Arc<Deployment>>();
    assert_send_sync::<Session<Arc<Deployment>>>();
    assert_send_sync::<Engine>();
}

/// N detached threads, one `Arc<Deployment>`, one `Session` each: every
/// thread's outputs are bit-identical to the serial session's.
#[test]
fn sessions_across_threads_match_serial_bit_for_bit() {
    let dep = Arc::new(deployment());
    let inputs = eval(10);
    let serial: Vec<Tensor> = dep.session().run_batch(&inputs).unwrap();
    let handles: Vec<_> = (0..3)
        .map(|_| {
            let dep = Arc::clone(&dep);
            let inputs = inputs.clone();
            std::thread::spawn(move || Session::new(dep).run_batch(&inputs).unwrap())
        })
        .collect();
    for h in handles {
        assert_eq!(h.join().unwrap(), serial, "a threaded session diverged from serial");
    }
}

/// The shared-deployment batch entry point (`Deployment::run_batch`, one
/// session per worker) is bit-identical for every worker count.
#[test]
fn parallel_run_batch_matches_serial_for_any_worker_count() {
    let dep = deployment();
    let inputs = eval(11);
    let serial = dep.run_batch(&inputs, 1).unwrap();
    assert_eq!(serial, dep.session().run_batch(&inputs).unwrap());
    for workers in [2, 3, 4, 16] {
        let parallel = dep.run_batch(&inputs, workers).unwrap();
        assert_eq!(serial, parallel, "worker count {workers} changed outputs");
    }
}

/// A batch with two bad inputs fails with the lowest-indexed one's error
/// for every worker count, whichever worker hits its bad input first.
#[test]
fn run_batch_returns_the_lowest_indexed_error_for_any_worker_count() {
    let dep = deployment();
    let mut inputs = eval(8);
    inputs[3] = Tensor::zeros(Shape::hwc(8, 8, 3));
    inputs[6] = Tensor::zeros(Shape::hwc(5, 5, 3));
    let expected = dep.session().run(&inputs[3]).unwrap_err();
    assert_ne!(expected, dep.session().run(&inputs[6]).unwrap_err());
    for workers in [1, 2, 3, 4, 16] {
        let err = dep.run_batch(&inputs, workers).unwrap_err();
        assert_eq!(err, expected, "worker count {workers} reported another input's error");
    }
}

/// A session holds warm scratch; interleaving many runs on one session
/// and fresh runs on new sessions must agree — the arena reuse cannot
/// leak state between inferences.
#[test]
fn warm_sessions_match_fresh_sessions() {
    let dep = Arc::new(deployment());
    let inputs = eval(6);
    let mut warm = Session::new(Arc::clone(&dep));
    for _ in 0..2 {
        for input in &inputs {
            let from_warm = warm.run(input).unwrap();
            let from_fresh = Session::new(Arc::clone(&dep)).run(input).unwrap();
            assert_eq!(from_warm, from_fresh);
        }
    }
}
