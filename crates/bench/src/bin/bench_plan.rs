//! Planner-throughput measurement emitting `BENCH_plan.json`, so the
//! planning-speed trajectory is machine-readable across revisions.
//!
//! Runs `Planner::plan` over a ~32-image synthetic calibration set at a
//! sweep of worker counts, reports wall clock, a per-stage breakdown
//! (prologue / VDPC / entropy / VDQS) and speedup versus serial, and
//! cross-checks that every worker count produced a bit-identical plan
//! (the determinism contract the pooled planner guarantees).
//!
//! It also reports what planning holds in memory: `PlanStats::sample_bytes`
//! (the calibration values kept at the prologue's end), asserting that the
//! planner stores the tail maps' values except those a `Relu` or `Relu6`
//! computes from a stored tail map, and nothing else: `sample_bytes` must
//! be 4 B × images × the stored maps' lengths, as computed from the graph
//! spec, and the stored maps must be fewer values than the whole tail.
//!
//! A warm row runs first, before any other plan in the process: 13
//! consecutive `Engine::plan` calls on one engine at the default worker
//! count. It reports the first plan's wall clock, the median of the other
//! twelve (the engine keeps its planning workspace between plans), and the
//! process's peak resident set (`VmHWM`, where `/proc/self/status` has it)
//! after the first and after the last plan, and asserts that the last is
//! within 0.5 MiB of the first: re-planning on the same calibration set
//! reserves no new memory.
//!
//! A `scan` section times the entropy engine's counting scan alone, in ns
//! per value of one table row (planning the scan, counting, and the walk
//! that rebuilds the histograms), at the planner's two configurations: a
//! tail map's (512 bins, W8 and W4, read clamped to its percentile clip)
//! and a head map's (32 bins, W8, W4 and W2, the range folded first). It
//! runs on two synthetic maps of 36,864 values, one ReLU6-shaped and one
//! wide and signed, and asserts every row bit-identical to
//! `entropy::naive::table_row`.
//!
//! Set `QUANTMCU_SMOKE=1` to run one repetition for CI smoke runs. The
//! smoke run keeps all 32 calibration images, so the per-chunk sample
//! buffers are long enough that the percentile clip subsamples across
//! chunk boundaries, and the "worker count changed the plan" assertion
//! below covers that path.

use std::time::{Duration, Instant};

use quantmcu::models::Model;
use quantmcu::nn::kernels::GENERATION;
use quantmcu::nn::{FeatureMapId, GraphSpec, OpSpec};
use quantmcu::quant::entropy::{naive, Sample, Scan};
use quantmcu::tensor::{Bitwidth, Tensor};
use quantmcu::{DeploymentPlan, Engine, PlanStats, Planner, QuantMcuConfig, SramBudget};
use quantmcu_bench::{exec_dataset, exec_graph, host_cpu, smoke, EXEC_SRAM};

/// The process's peak resident set (`VmHWM`) in KiB, where
/// `/proc/self/status` reports it.
fn vm_hwm_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// `VmHWM` in MiB, two decimals.
fn mib(kib: u64) -> String {
    format!("{:.2}", kib as f64 / 1024.0)
}

/// Best-of-N wall clock for one worker count, plus the produced plan and
/// the stage breakdown of the fastest repetition.
fn measure(
    graph: &quantmcu::nn::Graph,
    calib: &[Tensor],
    workers: usize,
    reps: usize,
) -> (Duration, DeploymentPlan, PlanStats) {
    let planner = Planner::new(QuantMcuConfig { workers, ..QuantMcuConfig::paper() });
    let mut best = Duration::MAX;
    let mut kept = None;
    for _ in 0..reps {
        let start = Instant::now();
        let (p, stats) = planner.plan_with_stats(graph, calib, EXEC_SRAM).expect("plan");
        let elapsed = start.elapsed();
        if elapsed < best {
            best = elapsed;
            kept = Some((p, stats));
        } else if kept.is_none() {
            kept = Some((p, stats));
        }
    }
    let (plan, stats) = kept.expect("at least one rep");
    (best, plan, stats)
}

/// Plans in the warm row.
const WARM_PLANS: usize = 13;

/// What the warm row measured.
struct Warm {
    /// The first plan's wall clock.
    first: Duration,
    /// The median wall clock of the other plans.
    rest: Duration,
    /// `VmHWM` in KiB after the first and after the last plan.
    hwm: (Option<u64>, Option<u64>),
    /// The plan every call produced.
    plan: DeploymentPlan,
}

/// The warm row: [`WARM_PLANS`] consecutive `Engine::plan` calls on one
/// engine at the default worker count, each checked against the first.
fn warm_row(graph: &quantmcu::nn::Graph, calib: &[Tensor]) -> Warm {
    let engine = Engine::builder(graph.clone()).sram_budget(SramBudget::new(EXEC_SRAM)).build();
    let mut times = Vec::with_capacity(WARM_PLANS);
    let mut first = None;
    let mut first_hwm = None;
    for i in 0..WARM_PLANS {
        let start = Instant::now();
        let plan = engine.plan(calib).expect("warm plan").timeless();
        times.push(start.elapsed());
        match &first {
            None => {
                first_hwm = vm_hwm_kib();
                first = Some(plan);
            }
            Some(first) => assert!(plan == *first, "warm plan {i} diverged from the first"),
        }
    }
    let mut rest = times[1..].to_vec();
    rest.sort_unstable();
    Warm {
        first: times[0],
        rest: rest[rest.len() / 2],
        hwm: (first_hwm, vm_hwm_kib()),
        plan: first.expect("at least one plan"),
    }
}

/// Values per image of the tail maps the planner stores, and of all tail
/// maps: a map that a `Relu` or `Relu6` node computes from a stored tail
/// map is read through it, not stored; every other tail map is stored.
fn tail_values_per_image(spec: &GraphSpec, split: usize) -> (usize, usize) {
    let mut stored = vec![true];
    for node in &spec.nodes()[split..] {
        let relu = matches!(node.op, OpSpec::Relu | OpSpec::Relu6);
        let input = node.inputs[0].feature_map().0;
        stored.push(!(relu && input >= split && stored[input - split]));
    }
    let len = |t: usize| spec.feature_map_shape(FeatureMapId(split + t)).len();
    let stored_len = (0..stored.len()).filter(|&t| stored[t]).map(len).sum();
    (stored_len, (0..stored.len()).map(len).sum())
}

/// Values in each of the scan rows' maps.
const SCAN_VALUES: usize = 36_864;

/// SplitMix64's finalizer: the scan rows' maps are seeded. (The bench
/// crate takes no `rand` dependency: perfbench builds it from a committed
/// lockfile.)
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A draw in `[0, 1)` from the top 24 bits of `r`.
fn unit(r: u64) -> f32 {
    (r >> 40) as f32 / (1u64 << 24) as f32
}

/// The scan rows' maps: a ReLU6 output as the tail holds them (40% exact
/// zeros, 50% exact sixes, the rest uniform in between), and a wide signed
/// map.
fn scan_maps() -> [(&'static str, Vec<f32>); 2] {
    let relu6 = (0..SCAN_VALUES as u64)
        .map(|i| {
            let r = mix(i);
            match r % 10 {
                0..=3 => 0.0,
                4..=8 => 6.0,
                _ => 6.0 * unit(r),
            }
        })
        .collect();
    let wide = (0..SCAN_VALUES as u64)
        .map(|i| {
            let r = mix(i ^ 0xABCD);
            (unit(r) + unit(mix(r)) - 1.0) * 40.0 + 3.0
        })
        .collect();
    [("relu6", relu6), ("wide", wide)]
}

/// One table row of `values` as the planner builds it: a tail map's read
/// clamped to `[lo, hi]`, a head map's scan over its range `[lo, hi]` fed
/// the whole map.
fn table_row(
    config: &str,
    values: &[f32],
    (lo, hi): (f32, f32),
    candidates: &[Bitwidth],
    bins: usize,
) -> (u64, Vec<u64>) {
    let (h, row) = if config == "tail" {
        Sample::clamped(&[values], lo, hi).table_row(candidates, bins)
    } else {
        Scan::new((lo, hi), candidates, bins).and_then(|scan| {
            let mut counts = scan.counts();
            scan.feed(&mut counts, values);
            scan.row(&counts)
        })
    }
    .expect("table row");
    // Bits, so rows compare bit for bit.
    (h.to_bits(), row.iter().map(|d| d.to_bits()).collect())
}

/// The scan rows: best-of-`reps` ns per value of one table row at the
/// tail and at the head configuration of the paper's config, on each
/// map, each asserted bit-identical to the oracle on the values clamped
/// to the row's range. Returns the rows' JSON objects.
fn scan_rows(reps: usize) -> Vec<String> {
    let vdqs = QuantMcuConfig::paper().vdqs;
    // The planner's tail configuration: W2 dropped, a 16x finer histogram.
    let tail: Vec<Bitwidth> =
        vdqs.candidates.iter().copied().filter(|&b| b >= Bitwidth::W4).collect();
    let maps = scan_maps();
    let mut rows = Vec::new();
    for (map, values) in &maps {
        let mut sorted = values.clone();
        sorted.sort_by(f32::total_cmp);
        // A tail map is clamped to its 0.1%/99.9% order statistics, as the
        // percentile clip reads it; a head map's range is its min and max.
        let clip = SCAN_VALUES / 1000;
        let tail_range = (sorted[clip], sorted[SCAN_VALUES - 1 - clip]);
        let head_range = (sorted[0], sorted[SCAN_VALUES - 1]);
        rows.push(("tail", *map, values, tail_range, &tail[..], vdqs.hist_bins * 16));
        rows.push(("head", *map, values, head_range, &vdqs.candidates[..], vdqs.hist_bins));
    }
    for &(config, map, values, (lo, hi), candidates, bins) in &rows {
        let clamped: Vec<f32> = values.iter().map(|v| v.clamp(lo, hi)).collect();
        let oracle = naive::table_row(&clamped, candidates, bins).expect("oracle row");
        let oracle = (oracle.0.to_bits(), oracle.1.iter().map(|d| d.to_bits()).collect());
        let row = table_row(config, values, (lo, hi), candidates, bins);
        assert_eq!(row, oracle, "{config} row on {map} diverged from naive");
    }
    // Each round times every row once, so a slow phase of a shared host
    // costs every row alike.
    let mut best = vec![Duration::MAX; rows.len()];
    for _ in 0..reps {
        for (&(config, _, values, range, candidates, bins), best) in rows.iter().zip(&mut best) {
            let start = Instant::now();
            std::hint::black_box(table_row(config, values, range, candidates, bins));
            *best = (*best).min(start.elapsed());
        }
    }
    println!(
        "\nCounting scan, one {SCAN_VALUES}-value map, best of {reps}; bit-identical to naive"
    );
    rows.iter()
        .zip(&best)
        .map(|(&(config, map, _, _, candidates, bins), best)| {
            let ns = best.as_secs_f64() * 1e9 / SCAN_VALUES as f64;
            let bits: Vec<String> = candidates.iter().map(|b| b.bits().to_string()).collect();
            let label = format!("{config} ({bins} bins, W{})", bits.join("/W"));
            println!("  {label:<26} on {map:5}: {ns:5.2} ns/value");
            format!(
                "    {{\"config\": \"{config}\", \"map\": \"{map}\", \"bins\": {bins}, \
                 \"candidate_bits\": [{}], \"ns_per_value\": {ns:.3}, \"bit_identical\": true}}",
                bits.join(", ")
            )
        })
        .collect()
}

fn main() {
    let images = 32;
    let reps = if smoke() { 1 } else { 3 };
    let graph = exec_graph(Model::MobileNetV2);
    let ds = exec_dataset();
    let calib: Vec<Tensor> = ds.images(images);
    let host_parallelism = quantmcu::default_workers();

    // The warm row runs first, so its `VmHWM` readings see no other plan.
    let warm_run = warm_row(&graph, &calib);
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    println!(
        "Warm engine, {WARM_PLANS} plans at {host_parallelism} workers: first {:.1} ms, \
         median of the rest {:.1} ms",
        ms(warm_run.first),
        ms(warm_run.rest)
    );
    let mut warm = format!(
        "\"plans\": {WARM_PLANS}, \"workers\": {host_parallelism}, \"first_seconds\": {:.6}, \
         \"rest_median_seconds\": {:.6}",
        warm_run.first.as_secs_f64(),
        warm_run.rest.as_secs_f64()
    );
    if let (Some(first), Some(last)) = warm_run.hwm {
        println!(
            "  VmHWM {} MiB after the first plan, {} MiB after the last",
            mib(first),
            mib(last)
        );
        assert!(
            last <= first + 512,
            "the warm engine's peak grew from {first} to {last} KiB over {WARM_PLANS} plans"
        );
        warm += &format!(
            ", \"vm_hwm_mib_first_plan\": {}, \"vm_hwm_mib_last_plan\": {}",
            mib(first),
            mib(last)
        );
    }

    println!("\nPlanner throughput: {images}-image calibration set, best of {reps}\n");
    let (serial_time, serial_plan, serial_stats) = measure(&graph, &calib, 1, reps);
    let serial_plan = serial_plan.timeless();
    assert!(warm_run.plan == serial_plan, "the warm engine's plan diverged from a fresh plan");
    // The planner stores the tail maps' values except those of maps a
    // ReLU computes from a stored map (the percentile clip and the clamped
    // entropy scan read each map twice), and no head value.
    let split = serial_plan.patch_plan().split_at();
    let (stored_len, tail_len) = tail_values_per_image(graph.spec(), split);
    assert!(stored_len < tail_len, "every one of the {tail_len} tail values per image is stored");
    let expected_sample_bytes = std::mem::size_of::<f32>() * images * stored_len;
    let mut rows = Vec::new();
    for workers in [1usize, 2, 4, 8] {
        let (time, plan, stats) = if workers == 1 {
            (serial_time, serial_plan.clone(), serial_stats)
        } else {
            let (t, p, s) = measure(&graph, &calib, workers, reps);
            (t, p.timeless(), s)
        };
        assert_eq!(
            stats.sample_bytes, expected_sample_bytes,
            "the planner holds calibration values beyond the stored tail maps' (workers = {workers})"
        );
        let identical = plan == serial_plan;
        let speedup = serial_time.as_secs_f64() / time.as_secs_f64();
        println!(
            "  workers = {workers}: {:8.1} ms  speedup {speedup:4.2}x  bit-identical: {identical}",
            time.as_secs_f64() * 1e3
        );
        println!(
            "      stages: prologue {:6.1} ms | vdpc {:5.1} ms | entropy {:6.1} ms | vdqs {:5.1} ms",
            stats.prologue.as_secs_f64() * 1e3,
            stats.vdpc.as_secs_f64() * 1e3,
            stats.entropy.as_secs_f64() * 1e3,
            stats.vdqs.as_secs_f64() * 1e3
        );
        assert!(identical, "worker count {workers} changed the plan");
        rows.push(format!(
            "    {{\"workers\": {workers}, \"seconds\": {:.6}, \"speedup\": {speedup:.4}, \
             \"bit_identical\": {identical}, \"stages\": {{\"prologue\": {:.6}, \
             \"vdpc\": {:.6}, \"entropy\": {:.6}, \"vdqs\": {:.6}}}}}",
            time.as_secs_f64(),
            stats.prologue.as_secs_f64(),
            stats.vdpc.as_secs_f64(),
            stats.entropy.as_secs_f64(),
            stats.vdqs.as_secs_f64()
        ));
    }

    // Plan-artifact cold start: persist the serial plan's deployment to
    // `.qplan` bytes, restore it with no calibration data, and compare
    // wall clock against the calibrate-plan-deploy path (outputs must be
    // bit-identical — the artifact contract).
    let engine = Engine::builder(graph.clone()).sram_budget(SramBudget::new(EXEC_SRAM)).build();
    let start = Instant::now();
    let plan = engine.plan(calib.clone()).expect("calibrated plan");
    let calibrated = engine.deploy(plan).expect("calibrated deploy");
    let calibrated_time = start.elapsed();
    let memory = format!(
        "\"sample_bytes\": {}, \"stored_values_per_image\": {stored_len}, \
         \"tail_values_per_image\": {tail_len}",
        serial_stats.sample_bytes
    );
    println!(
        "\nPlanning memory: {} B of calibration values held ({stored_len} of {tail_len} tail \
         values per image stored)",
        serial_stats.sample_bytes
    );
    let artifact_bytes = calibrated.save().expect("save plan artifact");
    let start = Instant::now();
    let cold = engine.deploy_from_artifact(&artifact_bytes).expect("cold-start deploy");
    let cold_time = start.elapsed();
    let probe: Vec<Tensor> = ds.images(4);
    let identical = calibrated.session().run_batch(&probe).expect("calibrated outputs")
        == cold.session().run_batch(&probe).expect("cold-start outputs");
    assert!(identical, "cold-start outputs diverged from the calibrated deployment");
    let cold_speedup = calibrated_time.as_secs_f64() / cold_time.as_secs_f64().max(1e-9);
    println!(
        "\nPlan artifact: {} byte(s); cold start {:7.1} ms vs calibrated {:7.1} ms \
         ({cold_speedup:5.1}x)  bit-identical: {identical}",
        artifact_bytes.len(),
        cold_time.as_secs_f64() * 1e3,
        calibrated_time.as_secs_f64() * 1e3
    );

    let scan_reps = if smoke() { 5 } else { 200 };
    let scan = scan_rows(scan_reps);

    let json = format!(
        "{{\n  \"bench\": \"planner_throughput\",\n  \"model\": \"MobileNetV2 (exec scale)\",\n  \
         \"kernel_generation\": \"{GENERATION}\",\n  \"host_cpu\": \"{}\",\n  \
         \"calibration_images\": {images},\n  \"reps\": {reps},\n  \
         \"host_parallelism\": {host_parallelism},\n  \"sweep\": [\n{}\n  ],\n  \
         \"memory\": {{{memory}}},\n  \"warm\": {{{warm}}},\n  \
         \"artifact\": {{\"bytes\": {}, \"coldstart_seconds\": {:.6}, \
         \"calibrated_seconds\": {:.6}, \"speedup\": {cold_speedup:.1}, \
         \"bit_identical\": {identical}}},\n  \
         \"scan\": {{\"values\": {SCAN_VALUES}, \"reps\": {scan_reps}, \"rows\": [\n{}\n  ]}}\n}}\n",
        host_cpu(),
        rows.join(",\n"),
        artifact_bytes.len(),
        cold_time.as_secs_f64(),
        calibrated_time.as_secs_f64(),
        scan.join(",\n")
    );
    // Smoke runs exist to catch runtime panics; don't let their shrunken
    // measurements clobber the committed full-config snapshot.
    let path = if smoke() { "BENCH_plan.smoke.json" } else { "BENCH_plan.json" };
    std::fs::write(path, &json).expect("write plan benchmark JSON");
    println!("\nwrote {path} ({} bytes)", json.len());
}
