//! Allocation-regression test for serving: after warm-up, one
//! `Session::run` allocates exactly once — the returned output tensor.
//! Every other buffer (the head's feature maps, shared by all branches
//! through one `ExecState`, the stitched stage output and the integer
//! tail's maps) is reused from the session.

use quantmcu::data::classification::ClassificationDataset;
use quantmcu::models::{Model, ModelConfig};
use quantmcu::nn::init;
use quantmcu::{Engine, SramBudget};

#[global_allocator]
static ALLOC: alloc_counter::CountingAllocator = alloc_counter::CountingAllocator;

#[test]
fn warm_session_run_allocates_only_its_output() {
    let data = ClassificationDataset::new(32, 10, 7);
    let images: Vec<_> = (100..104).map(|i| data.sample(i).0).collect();
    for model in [Model::MobileNetV2, Model::SqueezeNet, Model::ResNet18] {
        let spec = model.spec(ModelConfig::exec_scale()).unwrap();
        let engine = Engine::builder(init::with_structured_weights(spec, 42))
            .sram_budget(SramBudget::kib(64))
            .build();
        let deployment = engine.deploy(engine.plan((data, 3)).unwrap()).unwrap();
        let mut session = deployment.session();
        for image in &images {
            session.run(image).unwrap();
        }
        let runs = 8;
        let before = alloc_counter::allocation_count();
        for r in 0..runs {
            session.run(&images[r % images.len()]).unwrap();
        }
        let allocations = alloc_counter::allocation_count() - before;
        assert_eq!(
            allocations,
            runs as u64,
            "{}: {allocations} allocations over {runs} warm runs, expected one per run",
            model.name()
        );
    }
}
