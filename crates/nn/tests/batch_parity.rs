//! Concurrency-parity tests for the compile-once / execute-many split:
//! workers sharing one [`CompiledGraph`] must produce **bit-identical**
//! outputs to serial execution, for the float and the integer path alike,
//! regardless of worker count.
//!
//! Bit equality here is intentional even though the float micro-kernels
//! reassociate summation (and are therefore only ULP-close to
//! `kernels::naive`): every worker runs the *same* tiled kernels, whose
//! run decomposition is a pure function of each output element's tap
//! geometry — never of worker count or scheduling. Cross-worker parity is
//! therefore exact, while kernel-vs-oracle parity is ULP-bounded; see
//! `kernel_parity.rs` for that contract.

use std::borrow::Borrow;
use std::sync::Arc;

use quantmcu_nn::exec::{calibrate_ranges, CompiledGraph, ExecState, FloatExecutor, ScopedPool};
use quantmcu_nn::{init, Graph, GraphError, GraphSpecBuilder};
use quantmcu_tensor::{Bitwidth, Shape, Tensor};

fn graph() -> Graph {
    let spec = {
        let b = GraphSpecBuilder::new(Shape::hwc(16, 16, 3)).conv2d(8, 3, 1, 1).relu6();
        let entry = b.mark();
        b.dwconv(3, 1, 1)
            .relu6()
            .pwconv(8)
            .add_from(entry)
            .max_pool(2, 2)
            .conv2d(12, 3, 2, 1)
            .relu()
            .global_avg_pool()
            .dense(10)
            .build()
            .unwrap()
    };
    init::with_structured_weights(spec, 42)
}

fn inputs(n: usize) -> Vec<Tensor> {
    (0..n)
        .map(|s| Tensor::from_fn(Shape::hwc(16, 16, 3), |i| ((i + 53 * s) as f32 * 0.17).sin()))
        .collect()
}

#[test]
fn two_workers_sharing_one_compiled_graph_match_serial_bit_for_bit() {
    let g = graph();
    let compiled = CompiledGraph::new(&g).expect("validated graphs pass analysis");
    let xs = inputs(8);
    // Serial reference through the façade (its own compilation).
    let mut exec = FloatExecutor::new(&g);
    let serial: Vec<Tensor> = xs.iter().map(|x| exec.run(x).unwrap()).collect();
    // Two scoped workers, each with its own ExecState, splitting the
    // batch into contiguous halves — a deliberately different schedule
    // than the shared queue of a ScopedPool.
    let mut outputs: Vec<Option<Tensor>> = (0..xs.len()).map(|_| None).collect();
    let compiled = &compiled;
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (chunk_in, chunk_out) in xs.chunks(4).zip(outputs.chunks_mut(4)) {
            handles.push(scope.spawn(move || {
                let mut state = ExecState::new();
                for (slot, x) in chunk_out.iter_mut().zip(chunk_in) {
                    *slot = Some(compiled.run_float(&mut state, x).unwrap());
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    });
    for (s, p) in serial.iter().zip(&outputs) {
        assert_eq!(s, p.as_ref().unwrap());
    }
}

/// Runs `xs` through `run` on a [`ScopedPool`] of `workers` threads
/// sharing `compiled`, one [`ExecState`] per worker, in input order.
fn pooled<G, F>(compiled: &CompiledGraph<G>, xs: &[Tensor], workers: usize, run: F) -> Vec<Tensor>
where
    G: Borrow<Graph> + Sync,
    F: Fn(&CompiledGraph<G>, &mut ExecState, &Tensor) -> Result<Tensor, GraphError> + Send + Sync,
{
    std::thread::scope(|scope| {
        let pool = ScopedPool::spawned(scope, workers, |_| ExecState::new());
        pool.map(xs.iter().collect(), |state, x| run(compiled, state, x)).unwrap()
    })
}

#[test]
fn float_pool_map_is_worker_count_invariant() {
    let g = graph();
    let compiled = CompiledGraph::new(&g).expect("validated graphs pass analysis");
    let xs = inputs(9);
    let serial = pooled(&compiled, &xs, 1, CompiledGraph::run_float);
    for workers in [2, 3, 4, 9, 32] {
        assert_eq!(serial, pooled(&compiled, &xs, workers, CompiledGraph::run_float));
    }
}

#[test]
fn quant_pool_map_is_worker_count_invariant() {
    let g = graph();
    let xs = inputs(6);
    let ranges = calibrate_ranges(&g, &xs[..2]).unwrap();
    let bits = vec![Bitwidth::W8; g.spec().feature_map_count()];
    let compiled = CompiledGraph::with_quantization(&g, &ranges, &bits, Bitwidth::W8).unwrap();
    let serial = pooled(&compiled, &xs, 1, CompiledGraph::run_quant);
    for workers in [2, 4, 6] {
        assert_eq!(serial, pooled(&compiled, &xs, workers, CompiledGraph::run_quant));
    }
}

#[test]
fn arc_owned_compilation_crosses_thread_boundaries() {
    // An owning compilation behind an Arc outlives the borrow of any
    // particular stack frame — the shape a long-lived inference service
    // would use with non-scoped worker threads.
    let compiled = Arc::new(CompiledGraph::new(graph()).expect("validated graphs pass analysis"));
    let xs = inputs(4);
    let mut state = ExecState::new();
    let expected: Vec<Tensor> =
        xs.iter().map(|x| compiled.run_float(&mut state, x).unwrap()).collect();
    let handles: Vec<_> = (0..2)
        .map(|w| {
            let compiled = Arc::clone(&compiled);
            let xs = xs.clone();
            std::thread::spawn(move || {
                let mut state = ExecState::new();
                xs.iter()
                    .skip(w)
                    .step_by(2)
                    .map(|x| compiled.run_float(&mut state, x).unwrap())
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    let results: Vec<Vec<Tensor>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    for (i, e) in expected.iter().enumerate() {
        assert_eq!(e, &results[i % 2][i / 2]);
    }
}
