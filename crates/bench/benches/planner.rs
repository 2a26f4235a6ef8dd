//! Planner-throughput benchmarks: serial versus parallel
//! `Planner::plan` over a synthetic calibration set, swept across worker
//! counts. The calibration prologue — one streaming float inference per
//! image — dominates planning wall clock, so the speedup tracks the
//! planner's `ScopedPool` scaling on the host (on a single-core host the sweep
//! degenerates to parity, which is itself worth pinning: the parallel
//! path must not be slower than serial at `workers = 1`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use quantmcu::models::Model;
use quantmcu::tensor::Tensor;
use quantmcu::{Planner, QuantMcuConfig};
use quantmcu_bench::{exec_dataset, exec_graph, EXEC_SRAM};

fn planner_throughput(c: &mut Criterion) {
    let graph = exec_graph(Model::MobileNetV2);
    let ds = exec_dataset();
    let calib: Vec<Tensor> = ds.images(32);

    let mut group = c.benchmark_group("planner");
    group.sample_size(10);
    for workers in [1usize, 2, 4, 8] {
        let planner = Planner::new(QuantMcuConfig { workers, ..QuantMcuConfig::paper() });
        group.bench_with_input(BenchmarkId::new("plan_32img", workers), &workers, |b, _| {
            b.iter(|| planner.plan(&graph, &calib, EXEC_SRAM).expect("plan"))
        });
    }
    group.finish();
}

criterion_group!(benches, planner_throughput);
criterion_main!(benches);
