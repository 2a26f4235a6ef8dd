use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use quantmcu_nn::exec::{CompiledGraph, ExecState, ScopedPool};
use quantmcu_nn::{Graph, GraphSpec};
use quantmcu_patch::{Branch, PatchPlan};
use quantmcu_quant::score::ScoreTable;
use quantmcu_quant::vdpc::{PatchClass, VdpcClassifier};
use quantmcu_quant::{entropy, vdqs};
use quantmcu_tensor::{Bitwidth, Region, Tensor};

use crate::config::QuantMcuConfig;
use crate::error::PlanError;
use crate::plan::DeploymentPlan;

/// The QuantMCU planner: calibrate → patch split → VDPC → per-branch VDQS
/// → tail VDQS → [`DeploymentPlan`].
///
/// Every fan-out of a planning call — calibration streaming, VDPC tile
/// classification, per-map entropy rows — runs on **one** [`ScopedPool`]
/// spanning the whole call: a single spawn/join round instead of fresh
/// scoped threads per stage, with results reassembled in item order so
/// plans stay bit-identical for every worker count.
///
/// Besides single-budget planning, the planner can sweep a whole budget
/// ladder in one call ([`Planner::plan_sweep`]): budgets that fit the same
/// patch split share one calibration prologue, one VDPC pass, and one set
/// of entropy/score tables — only the (cheap) VDQS search reruns per
/// budget — while each produced plan stays bit-identical to an independent
/// [`Planner::plan`] call at that budget.
///
/// `Planner` is the borrow-everything façade kept for the
/// paper-reproduction binaries (`fig*` / `table*` / benches), which plan
/// against many graphs and budgets in one process. Serving-style code
/// should use [`crate::Engine`], which owns the graph behind an `Arc`,
/// carries a typed [`crate::SramBudget`], accepts any
/// [`crate::CalibrationSource`], and produces shareable
/// [`crate::Deployment`]s — see the crate-level example.
#[derive(Debug, Clone)]
pub struct Planner {
    cfg: QuantMcuConfig,
}

/// Wall-clock breakdown of one planning call (see
/// [`Planner::plan_with_stats`]). `prologue` is excluded from
/// [`DeploymentPlan::search_time`]; the other three sum to it.
///
/// For plans produced by a sweep, `prologue`, `vdpc` and `entropy` are the
/// cost of the *shared* stage work (paid once per patch split, reported
/// for every plan that reused it); `vdqs` is that plan's own search.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanStats {
    /// Streaming the calibration set through the network and accumulating
    /// per-feature-map value samples.
    pub prologue: Duration,
    /// Gaussian fit plus input-tile outlier classification (zero when VDPC
    /// is disabled).
    pub vdpc: Duration,
    /// Calibration ranges, fused entropy tables and score tables, for the
    /// branches and the tail.
    pub entropy: Duration,
    /// Algorithm 1 (greedy init + pair repair) over every branch and the
    /// tail, plus the end-pinning fixups.
    pub vdqs: Duration,
}

impl PlanStats {
    /// `vdpc + entropy + vdqs` — what [`DeploymentPlan::search_time`]
    /// reports.
    #[must_use]
    pub fn search_total(&self) -> Duration {
        self.vdpc + self.entropy + self.vdqs
    }
}

/// One budget's sweep outcome: the plan and its timing breakdown.
type BudgetOutcome = Result<(DeploymentPlan, PlanStats), PlanError>;

impl Planner {
    /// A planner with the given configuration.
    pub fn new(cfg: QuantMcuConfig) -> Self {
        Planner { cfg }
    }

    /// The active configuration.
    pub fn config(&self) -> &QuantMcuConfig {
        &self.cfg
    }

    /// Runs the full pipeline against an SRAM budget (Eq. 7's `M`).
    ///
    /// # Errors
    ///
    /// * [`PlanError::NoCalibration`] for an empty calibration set;
    /// * [`PlanError::Patch`] when the graph has no usable patch stage;
    /// * [`PlanError::Quant`] when Eq. (7) is infeasible even at the
    ///   narrowest candidates.
    pub fn plan(
        &self,
        graph: &Graph,
        calibration: &[Tensor],
        sram_bytes: usize,
    ) -> Result<DeploymentPlan, PlanError> {
        self.plan_with_stats(graph, calibration, sram_bytes).map(|(plan, _)| plan)
    }

    /// [`Planner::plan`] plus the per-stage wall-clock breakdown.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Planner::plan`].
    pub fn plan_with_stats(
        &self,
        graph: &Graph,
        calibration: &[Tensor],
        sram_bytes: usize,
    ) -> Result<(DeploymentPlan, PlanStats), PlanError> {
        let mut outcomes = self.sweep_impl(graph, calibration, &[sram_bytes])?;
        outcomes.pop().expect("one budget yields exactly one outcome")
    }

    /// Plans one deployment per budget in `budgets` (in order), sharing
    /// every budget-independent stage across budgets that fit the same
    /// patch split: the calibration prologue, the VDPC classification and
    /// the entropy/score tables are computed **once per split point** and
    /// reused, so sweeping a ladder of `B` budgets costs roughly one full
    /// plan plus `B - 1` VDQS searches — not `B` full plans.
    ///
    /// Each returned plan is bit-identical to what an independent
    /// [`Planner::plan`] call at that budget produces.
    ///
    /// # Errors
    ///
    /// Fails on the first budget (lowest index) any stage fails for, with
    /// the same error the independent call would produce. Use
    /// [`Planner::plan_sweep_each`] to keep per-budget outcomes instead.
    pub fn plan_sweep(
        &self,
        graph: &Graph,
        calibration: &[Tensor],
        budgets: &[usize],
    ) -> Result<Vec<DeploymentPlan>, PlanError> {
        self.sweep_impl(graph, calibration, budgets)?
            .into_iter()
            .map(|outcome| outcome.map(|(plan, _)| plan))
            .collect()
    }

    /// [`Planner::plan_sweep`] with per-budget outcomes: a budget whose
    /// patch fit or VDQS search fails (e.g. [`PlanError::Quant`] with an
    /// infeasible Eq. 7) yields an `Err` in its slot without failing the
    /// budgets that do plan — the fleet-exploration building block.
    ///
    /// # Errors
    ///
    /// The outer `Err` is reserved for failures no budget can escape: an
    /// empty calibration set or an uncompilable graph.
    pub fn plan_sweep_each(
        &self,
        graph: &Graph,
        calibration: &[Tensor],
        budgets: &[usize],
    ) -> Result<Vec<Result<DeploymentPlan, PlanError>>, PlanError> {
        Ok(self
            .sweep_impl(graph, calibration, budgets)?
            .into_iter()
            .map(|outcome| outcome.map(|(plan, _)| plan))
            .collect())
    }

    /// Builds a *uniform* deployment plan at `bits` using the same patch
    /// schedule and calibration as [`Planner::plan`], skipping VDPC and
    /// VDQS — the MCUNetV2-style 8-bit baseline the paper compares
    /// against, runnable through the same [`crate::Deployment`] machinery.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Planner::plan`], minus the search errors.
    pub fn plan_uniform(
        &self,
        graph: &Graph,
        calibration: &[Tensor],
        bits: Bitwidth,
        sram_bytes: usize,
    ) -> Result<DeploymentPlan, PlanError> {
        if calibration.is_empty() {
            return Err(PlanError::NoCalibration);
        }
        let spec = graph.spec().clone();
        let patch_plan = PatchPlan::fitted(&spec, self.cfg.grid, sram_bytes)?;
        let compiled = CompiledGraph::new(graph)?;
        let pro = thread::scope(|scope| {
            let pool = ScopedPool::spawned(scope, self.cfg.workers, |_| ExecState::new());
            self.prologue_on_pool(&pool, &compiled, calibration, &spec, &patch_plan)
        })?;
        let Prologue { head, tail, branches, slots, unique_values, tail_values, .. } = pro;
        let unique_ranges: Vec<(f32, f32)> = unique_values.iter().map(|v| min_max(v)).collect();
        let branch_ranges =
            slots.iter().map(|maps| maps.iter().map(|&u| unique_ranges[u]).collect()).collect();
        let tail_ranges: Vec<(f32, f32)> = tail_values.iter().map(|v| min_max(v)).collect();
        let branches = Arc::try_unwrap(branches).unwrap_or_else(|arc| (*arc).clone());
        Ok(DeploymentPlan {
            patch_classes: vec![PatchClass::NonOutlier; branches.len()],
            branch_bits: vec![vec![bits; head.len() + 1]; branches.len()],
            tail_bits: vec![bits; tail.feature_map_count()],
            weight_bits: self.cfg.weight_bits,
            branch_ranges,
            tail_ranges,
            // A uniform plan performs no VDPC/VDQS search, and the
            // calibration prologue is excluded from search timing by
            // definition (see [`DeploymentPlan::search_time`]).
            search_time: Duration::ZERO,
            spec,
            patch_plan,
            branches,
        })
    }

    /// The sweep engine behind every planning entry point: compiles the
    /// graph once, stands up the planning pool once, groups the budgets by
    /// the patch split they fit, and runs [`Planner::build_context`] once
    /// per group + [`Planner::solve`] once per budget.
    fn sweep_impl(
        &self,
        graph: &Graph,
        calibration: &[Tensor],
        budgets: &[usize],
    ) -> Result<Vec<BudgetOutcome>, PlanError> {
        if calibration.is_empty() {
            return Err(PlanError::NoCalibration);
        }
        let spec = graph.spec().clone();
        let compiled = CompiledGraph::new(graph)?;
        Ok(thread::scope(|scope| {
            let pool = ScopedPool::spawned(scope, self.cfg.workers, |_| ExecState::new());
            self.sweep_on_pool(&pool, &compiled, calibration, &spec, budgets)
        }))
    }

    /// One sweep on an already-standing pool. Infallible at the sweep
    /// level: every per-budget failure lands in that budget's slot.
    fn sweep_on_pool<'env>(
        &'env self,
        pool: &ScopedPool<'env, ExecState>,
        compiled: &'env CompiledGraph<&'env Graph>,
        calibration: &'env [Tensor],
        spec: &GraphSpec,
        budgets: &[usize],
    ) -> Vec<BudgetOutcome> {
        let mut slots: Vec<Option<BudgetOutcome>> = budgets.iter().map(|_| None).collect();
        // Group budgets by the patch plan they fit: `PatchPlan::fitted`
        // walks split points shallow → deep and takes the first whose
        // patch stage fits, so nearby budgets frequently share a split —
        // and with it every budget-independent planning stage.
        let mut groups: Vec<(PatchPlan, Vec<usize>)> = Vec::new();
        for (i, &budget) in budgets.iter().enumerate() {
            match PatchPlan::fitted(spec, self.cfg.grid, budget) {
                Ok(pp) => match groups.iter_mut().find(|(p, _)| *p == pp) {
                    Some((_, idxs)) => idxs.push(i),
                    None => groups.push((pp, vec![i])),
                },
                Err(e) => slots[i] = Some(Err(e.into())),
            }
        }
        for (patch_plan, idxs) in groups {
            match self.build_context(pool, compiled, calibration, spec, patch_plan) {
                Ok(ctx) => {
                    for i in idxs {
                        slots[i] = Some(self.solve(&ctx, budgets[i]));
                    }
                }
                // A context failure is budget-independent *within* the
                // group: every member budget fails exactly as its
                // independent `plan` call would.
                Err(e) => {
                    for i in idxs {
                        slots[i] = Some(Err(e.clone()));
                    }
                }
            }
        }
        slots.into_iter().map(|s| s.expect("every budget slot is filled")).collect()
    }

    /// Everything about a plan that does **not** depend on the SRAM
    /// budget, computed once per patch split: the calibration prologue,
    /// the VDPC patch classes, the calibration ranges, and the entropy +
    /// score tables for every searched branch and the tail.
    fn build_context<'env>(
        &'env self,
        pool: &ScopedPool<'env, ExecState>,
        compiled: &'env CompiledGraph<&'env Graph>,
        calibration: &'env [Tensor],
        spec: &GraphSpec,
        patch_plan: PatchPlan,
    ) -> Result<SearchContext, PlanError> {
        let prologue_start = Instant::now();
        let Prologue { head, tail, branches, slots, unique_values, tail_values } =
            self.prologue_on_pool(pool, compiled, calibration, spec, &patch_plan)?;
        let prologue_time = prologue_start.elapsed();

        // ---- VDPC: classify the split feature map's patches (Fig. 3):
        // a patch of the *input* feature map containing an outlier value
        // sends its whole dataflow branch to 8-bit. The Gaussian is fitted
        // on the full input feature map across the calibration set — the
        // input feature map *is* the calibration image, so the fit streams
        // the images in place (no flattened copy is ever materialized).
        let vdpc_start = Instant::now();
        let patch_classes: Vec<PatchClass> = if self.cfg.enable_vdpc {
            let clf = VdpcClassifier::fit_parts(
                calibration.iter().map(|t| t.data()),
                self.cfg.vdpc.rule,
            )?;
            let in_shape = spec.input_shape();
            // Classification looks at the *non-overlapping input tiles*
            // (the "patches" of Fig. 3), not the halo-expanded regions
            // branches read — halos of a deep stage cover most of the
            // image and would give every branch the same verdict. Eq. (1)
            // classifies per inference; a deployment needs a static
            // verdict, so a tile is outlier-class when any calibration
            // image puts an outlier value inside it. Each tile scans the
            // images in place — one pool job per tile, no crop tensors.
            let tiles = patch_plan.input_tiles(in_shape.h, in_shape.w);
            pool.map(tiles, move |_, tile| -> Result<PatchClass, PlanError> {
                for image in calibration {
                    if clf.classify_region(image, tile)? == PatchClass::Outlier {
                        return Ok(PatchClass::Outlier);
                    }
                }
                Ok(PatchClass::NonOutlier)
            })?
        } else {
            vec![PatchClass::NonOutlier; branches.len()]
        };
        let vdpc_time = vdpc_start.elapsed();

        // ---- Ranges + fused entropy rows, one pool job per unique
        // sample target (see [`Planner::prologue_on_pool`] — branches
        // sharing a region share one scan). A target needs an entropy row
        // only when some searched (non-outlier) branch reads it; ranges
        // are measured for every target. Each job owns its value sample
        // and drops it on completion, so peak memory decays as the
        // fan-out drains.
        let entropy_start = Instant::now();
        let candidates = &self.cfg.vdqs.candidates;
        let hist_bins = self.cfg.vdqs.hist_bins;
        let n_branches = branches.len();
        let mut need_row = vec![false; unique_values.len()];
        for (bi, maps) in slots.iter().enumerate() {
            if patch_classes[bi] == PatchClass::NonOutlier {
                for &u in maps {
                    need_row[u] = true;
                }
            }
        }
        let items: Vec<(Vec<f32>, bool)> = unique_values.into_iter().zip(need_row).collect();
        let unique_results = pool.map(items, move |_, (values, need_row): (Vec<f32>, bool)| {
            let range = min_max(&values);
            let row = if need_row {
                Some(entropy::table_row(&values, candidates, hist_bins)?)
            } else {
                None
            };
            Ok::<_, PlanError>((range, row))
        })?;
        let branch_ranges: Vec<Vec<(f32, f32)>> =
            slots.iter().map(|maps| maps.iter().map(|&u| unique_results[u].0).collect()).collect();

        // Per searched branch: the score table (region-restricted entropy
        // + branch-exact ΔB) and the Eq. 7 memory model's element counts.
        // Φ normalizes against the searched scope's own 8-bit reference
        // BitOPs (see `quantmcu_quant::score` for why).
        let w = self.cfg.weight_bits.bits() as u64;
        let head_len = head.len();
        let ch: Vec<usize> = (0..=head_len)
            .map(|i| if i == 0 { head.input_shape().c } else { head.node_shape(i - 1).c })
            .collect();
        let mut branch_search: Vec<Option<BranchSearch>> = Vec::with_capacity(n_branches);
        for (bi, branch) in branches.iter().enumerate() {
            if patch_classes[bi] == PatchClass::Outlier {
                branch_search.push(None);
                continue;
            }
            let (full, reductions): (Vec<f64>, Vec<Vec<f64>>) = slots[bi]
                .iter()
                .map(|&u| {
                    unique_results[u].1.clone().expect("searched branches requested entropy rows")
                })
                .unzip();
            let et = entropy::EntropyTable { full, reductions };
            let branch_ref_bitops = (branch.total_macs(&head)
                * self.cfg.weight_bits.bits() as u64
                * Bitwidth::W8.bits() as u64)
                .max(1);
            // ΔB(i, b): feature map i's consumers within the head (several
            // for residual joins). The stage output feeds the tail, which
            // is pinned to 8-bit, so ΔB = 0 for it — which is why
            // branch-final maps gravitate to 8-bit (Fig. 6).
            let consumer_macs: Vec<u64> = (0..=head_len)
                .map(|i| {
                    head.consumers_of(quantmcu_nn::FeatureMapId(i))
                        .into_iter()
                        .map(|j| branch.layer_macs(&head, j))
                        .sum()
                })
                .collect();
            let table = ScoreTable::build(
                &et,
                |i, b| consumer_macs[i] * w * (8 - b.bits().min(8)) as u64,
                branch_ref_bitops,
                &self.cfg.vdqs,
            )?;
            let elems: Vec<usize> =
                (0..=head_len).map(|i| branch.regions()[i].area() * ch[i]).collect();
            branch_search.push(Some(BranchSearch { table, elems }));
        }

        // ---- Tail ranges + entropy over the merged feature maps, one
        // pool job per map. The tail's ranges are percentile-clipped
        // (0.1%/99.9%): the merged maps pool every patch's values, and a
        // min/max range stretched by rare outlier responses would waste
        // the whole sub-byte grid on empty tail space — the accuracy
        // collapse mode of naive post-merge quantization. Entropy must be
        // estimated on the values the deployment will actually see —
        // clamped into the clipped range — otherwise a blob-stretched map
        // looks information-free (its bulk occupies one histogram bin of
        // the raw range) and the search assigns 2-bit to a map that still
        // carries everything.
        //
        // 2-bit is excluded from the tail's candidates: a merged map
        // serves every patch, and the entropy proxy cannot reliably
        // certify post-training 2-bit there (it underestimates the harm
        // whenever the bulk of a distribution concentrates in few bins).
        // Branch maps keep the full candidate set — they are protected by
        // VDPC and by tight per-branch calibration ranges. The tail also
        // uses a 16x-finer histogram: branch maps are protected by VDPC
        // and tight per-branch ranges, but a tail map serves *every*
        // patch, so its information loss must be measured conservatively.
        let tail_candidates: Vec<Bitwidth> =
            self.cfg.vdqs.candidates.iter().copied().filter(|b| *b >= Bitwidth::W4).collect();
        let tail_cfg = Arc::new(quantmcu_quant::VdqsConfig {
            candidates: tail_candidates,
            ..self.cfg.vdqs.clone()
        });
        let tail_bins = self.cfg.vdqs.hist_bins * 16;
        let tail_items: Vec<(usize, Vec<f32>)> = tail_values.into_iter().enumerate().collect();
        let tail_results = pool.map(tail_items, {
            let tail_cfg = Arc::clone(&tail_cfg);
            move |_, (_, mut values): (usize, Vec<f32>)| {
                let range = clipped_range(&values);
                let (lo, hi) = range;
                for v in values.iter_mut() {
                    *v = v.clamp(lo, hi);
                }
                let row = entropy::table_row(&values, &tail_cfg.candidates, tail_bins)?;
                Ok::<_, PlanError>((range, row))
            }
        })?;
        let mut tail_ranges = Vec::with_capacity(tail_results.len());
        let (full, reductions): (Vec<f64>, Vec<Vec<f64>>) = tail_results
            .into_iter()
            .map(|(range, row)| {
                tail_ranges.push(range);
                row
            })
            .unzip();
        let tail_et = entropy::EntropyTable { full, reductions };
        let tail_ref_bitops = {
            let uniform = quantmcu_nn::cost::BitwidthAssignment::uniform(&tail, Bitwidth::W8);
            quantmcu_nn::cost::total_bitops(&tail, self.cfg.weight_bits, &uniform).max(1)
        };
        let wb = self.cfg.weight_bits;
        let tail_table = ScoreTable::build(
            &tail_et,
            |i, b| quantmcu_nn::cost::bitops_reduction(&tail, quantmcu_nn::FeatureMapId(i), b, wb),
            tail_ref_bitops,
            &tail_cfg,
        )?;
        let tail_elems: Vec<usize> =
            tail.feature_map_ids().map(|id| tail.feature_map_shape(id).len()).collect();
        let entropy_time = entropy_start.elapsed();

        Ok(SearchContext {
            spec: spec.clone(),
            patch_plan,
            head_len,
            branches,
            patch_classes,
            branch_ranges,
            branch_search,
            tail_table,
            tail_elems,
            tail_ranges,
            prologue_time,
            vdpc_time,
            entropy_time,
        })
    }

    /// The budget-dependent remainder of a plan: Algorithm 1 per searched
    /// branch and over the tail, plus the end-pinning fixups. Cheap — a
    /// sweep amortizes everything in [`SearchContext`] across budgets and
    /// pays only this per rung.
    fn solve(&self, ctx: &SearchContext, sram_bytes: usize) -> BudgetOutcome {
        let vdqs_start = Instant::now();
        // ---- Per-branch VDQS (8-bit for outlier-class branches). ----
        let mut branch_bits = Vec::with_capacity(ctx.branches.len());
        for search in &ctx.branch_search {
            let bits = match search {
                None => vec![Bitwidth::W8; ctx.head_len + 1],
                Some(bs) => {
                    vdqs::determine_bitwidths(
                        &bs.table,
                        |i, b| b.bytes_for(bs.elems[i]),
                        sram_bytes,
                    )?
                    .bitwidths
                }
            };
            branch_bits.push(bits);
        }

        // ---- Tail VDQS over the merged feature maps. ----
        let mut outcome =
            vdqs::determine_with_elem_counts(&ctx.tail_table, &ctx.tail_elems, sram_bytes)?;
        // Tiny late maps (global-pool outputs, logits) offer no memory or
        // compute savings worth their precision loss; the paper's Fig. 6
        // likewise shows branch/network ends at 8-bit. Pin them.
        for (bits, &n) in outcome.bitwidths.iter_mut().zip(&ctx.tail_elems) {
            if n <= 2048 {
                *bits = Bitwidth::W8;
            }
        }
        if let Some(last) = outcome.bitwidths.last_mut() {
            *last = Bitwidth::W8;
        }
        let mut tail_bits = outcome.bitwidths;
        // The merged stage buffer must not lose information any branch
        // preserved: it keeps the widest branch stage bitwidth.
        let widest_stage = branch_bits
            .iter()
            .map(|b| *b.last().expect("branches have at least one feature map"))
            .max()
            .unwrap_or(Bitwidth::W8);
        tail_bits[0] = tail_bits[0].max(widest_stage);
        let vdqs_time = vdqs_start.elapsed();

        let stats = PlanStats {
            prologue: ctx.prologue_time,
            vdpc: ctx.vdpc_time,
            entropy: ctx.entropy_time,
            vdqs: vdqs_time,
        };
        Ok((
            DeploymentPlan {
                spec: ctx.spec.clone(),
                patch_plan: ctx.patch_plan.clone(),
                branches: ctx.branches.as_ref().clone(),
                patch_classes: ctx.patch_classes.clone(),
                branch_bits,
                tail_bits,
                weight_bits: self.cfg.weight_bits,
                branch_ranges: ctx.branch_ranges.clone(),
                tail_ranges: ctx.tail_ranges.clone(),
                // The search clock excludes the calibration prologue: it
                // streams data every method pays for alike, and timing it
                // here would make the reported search cost (Table II's
                // "Time") scale with calibration-set size. See
                // [`DeploymentPlan::search_time`].
                search_time: stats.search_total(),
            },
            stats,
        ))
    }

    /// The shared planning prologue: split, branch construction, and one
    /// streaming calibration pass accumulating per-feature-map value
    /// samples for every branch region and every tail map. Feature maps
    /// are recycled as soon as their samples have been extracted — no full
    /// trace is ever materialized.
    ///
    /// Branch regions overlap heavily: receptive-field halos grow with
    /// depth, so the deep head maps clip to (nearly) the full map for
    /// *every* branch. Samples are therefore accumulated once per unique
    /// `(feature map, region)` target, with [`Prologue::slots`] mapping
    /// each (branch, map) pair back to its target — duplicated regions are
    /// streamed (and later entropy-scanned) once instead of once per
    /// branch, without changing a single accumulated value.
    ///
    /// The calibration pass fans out over the pool in contiguous chunks:
    /// each job streams its chunk into an accumulator whose buffers are
    /// reserved at their **exact** final size (the per-image sample count
    /// per feature map is known up front from the branch regions), and the
    /// per-chunk accumulators are merged front to back into exact-capacity
    /// buffers — exactly the serial observation order, so the samples (and
    /// therefore the resulting plan) are bit-identical for every worker
    /// count, with zero reallocation anywhere on the path.
    fn prologue_on_pool<'env>(
        &self,
        pool: &ScopedPool<'env, ExecState>,
        compiled: &'env CompiledGraph<&'env Graph>,
        calibration: &'env [Tensor],
        spec: &GraphSpec,
        patch_plan: &PatchPlan,
    ) -> Result<Prologue, PlanError> {
        let split = patch_plan.split_at();
        let (head, tail) = spec.split_at(split)?;
        let branches = Arc::new(Branch::build_all(spec, patch_plan));
        // Validate every branch region up front so the streaming observer
        // below is infallible.
        for branch in branches.iter() {
            for (i, region) in branch.regions().iter().enumerate() {
                let shape = spec.feature_map_shape(quantmcu_nn::FeatureMapId(i));
                region.check_within(shape.h, shape.w)?;
            }
        }
        let tail_fm_count = tail.feature_map_count();
        // Deduplicate the (map, region) sample targets across branches
        // (deterministic first-seen order, so plans cannot depend on it).
        let mut unique: Vec<(usize, Region)> = Vec::new();
        let slots: Vec<Vec<usize>> = branches
            .iter()
            .map(|b| {
                b.regions()[..=split]
                    .iter()
                    .enumerate()
                    .map(|(g, &region)| {
                        unique.iter().position(|&u| u == (g, region)).unwrap_or_else(|| {
                            unique.push((g, region));
                            unique.len() - 1
                        })
                    })
                    .collect()
            })
            .collect();
        // Per-`g` dispatch table for the streaming observer, plus
        // per-image sample counts per accumulated map — the exact-capacity
        // reservations below come from these.
        let mut by_g: Vec<Vec<(usize, Region)>> = vec![Vec::new(); split + 1];
        for (u, &(g, region)) in unique.iter().enumerate() {
            by_g[g].push((u, region));
        }
        let by_g = Arc::new(by_g);
        let per_image_unique: Arc<Vec<usize>> = Arc::new(
            unique
                .iter()
                .map(|&(g, region)| {
                    let s = spec.feature_map_shape(quantmcu_nn::FeatureMapId(g));
                    s.n * region.area() * s.c
                })
                .collect(),
        );
        let per_image_tail: Arc<Vec<usize>> = Arc::new(
            (0..tail_fm_count)
                .map(|g| spec.feature_map_shape(quantmcu_nn::FeatureMapId(split + g)).len())
                .collect(),
        );
        let chunk_count = pool.workers().min(calibration.len()).max(1);
        let chunk_size = calibration.len().div_ceil(chunk_count);
        let chunks: Vec<&'env [Tensor]> = calibration.chunks(chunk_size).collect();
        let accs = pool.map(chunks, {
            let by_g = Arc::clone(&by_g);
            let per_image_unique = Arc::clone(&per_image_unique);
            let per_image_tail = Arc::clone(&per_image_tail);
            move |state: &mut ExecState, chunk: &[Tensor]| {
                let mut acc = ValueSamples {
                    unique: per_image_unique
                        .iter()
                        .map(|&c| Vec::with_capacity(c * chunk.len()))
                        .collect(),
                    tail: per_image_tail
                        .iter()
                        .map(|&c| Vec::with_capacity(c * chunk.len()))
                        .collect(),
                };
                for input in chunk {
                    compiled.run_float_with(state, input, |fm, t| {
                        let g = fm.0;
                        if g <= split {
                            for &(u, region) in &by_g[g] {
                                extend_region_values(&mut acc.unique[u], t, region);
                            }
                        }
                        if g >= split {
                            acc.tail[g - split].extend_from_slice(t.data());
                        }
                    })?;
                }
                Ok::<_, PlanError>(acc)
            }
        })?;
        // Merge per-chunk samples in chunk order == image order. The
        // single-chunk case is moved out wholesale (its buffers already
        // have the exact final capacity).
        let (unique_values, tail_values) = if accs.len() == 1 {
            let ValueSamples { unique, tail } =
                accs.into_iter().next().expect("length checked above");
            (unique, tail)
        } else {
            let images = calibration.len();
            let mut unique_values: Vec<Vec<f32>> =
                per_image_unique.iter().map(|&c| Vec::with_capacity(c * images)).collect();
            let mut tail_values: Vec<Vec<f32>> =
                per_image_tail.iter().map(|&c| Vec::with_capacity(c * images)).collect();
            for acc in accs {
                for (dst, src) in unique_values.iter_mut().zip(acc.unique) {
                    dst.extend_from_slice(&src);
                }
                for (dst, src) in tail_values.iter_mut().zip(acc.tail) {
                    dst.extend_from_slice(&src);
                }
            }
            (unique_values, tail_values)
        };
        Ok(Prologue { head, tail, branches, slots, unique_values, tail_values })
    }
}

/// The 0.1%/99.9% percentile range of a sample (falls back to min/max for
/// tiny samples).
fn clipped_range(values: &[f32]) -> (f32, f32) {
    if values.len() < 1000 {
        return min_max(values);
    }
    // Subsample; percentiles of 65k values are plenty stable. NaN values
    // are dropped — they carry no range information and break the
    // comparator's total order.
    let stride = (values.len() / 65_536).max(1);
    let mut sample: Vec<f32> =
        values.iter().step_by(stride).copied().filter(|v| !v.is_nan()).collect();
    if sample.is_empty() {
        return min_max(values);
    }
    // Only the two clip percentiles are needed, not the full order: two
    // O(n) selections instead of a sort. A selected k-th order statistic
    // is exactly the value a sort would put at index k, so the range is
    // identical to the sorted implementation's.
    let cmp = |a: &f32, b: &f32| a.partial_cmp(b).expect("NaNs filtered above");
    let ilo = (sample.len() as f64 * 0.001) as usize;
    let ihi = ((sample.len() as f64 * 0.999) as usize).min(sample.len() - 1);
    let (_, &mut lo, rest) = sample.select_nth_unstable_by(ilo, cmp);
    let hi = if ihi > ilo { *rest.select_nth_unstable_by(ihi - ilo - 1, cmp).1 } else { lo };
    if lo < hi {
        (lo, hi)
    } else {
        min_max(values)
    }
}

/// One calibration chunk's accumulated value samples (see
/// [`Planner::prologue_on_pool`]): region-restricted values per unique
/// (map, region) target, plus full-map values per tail feature map.
/// Every buffer is reserved at its exact final size.
struct ValueSamples {
    unique: Vec<Vec<f32>>,
    tail: Vec<Vec<f32>>,
}

/// The shared planning prologue's output: the split graph, branches, and
/// the calibration value samples accumulated by the streaming pass.
struct Prologue {
    head: GraphSpec,
    tail: GraphSpec,
    branches: Arc<Vec<Branch>>,
    /// Per branch, per head feature map (input first, stage output last):
    /// the index into [`Prologue::unique_values`] holding that (branch,
    /// map)'s region-restricted sample. Branches whose regions coincide
    /// on a map share the index.
    slots: Vec<Vec<usize>>,
    /// Per unique (map, region) target: the region-restricted values over
    /// the calibration set.
    unique_values: Vec<Vec<f32>>,
    /// Per tail feature map: the full-map values over the calibration set.
    tail_values: Vec<Vec<f32>>,
}

/// One searched (non-outlier) branch's budget-independent search inputs:
/// the score table and the Eq. 7 memory model's per-map element counts.
struct BranchSearch {
    table: ScoreTable,
    elems: Vec<usize>,
}

/// Every budget-independent stage output of one patch split, shared by all
/// budgets of a sweep group (see [`Planner::plan_sweep`]).
struct SearchContext {
    spec: GraphSpec,
    patch_plan: PatchPlan,
    head_len: usize,
    branches: Arc<Vec<Branch>>,
    patch_classes: Vec<PatchClass>,
    branch_ranges: Vec<Vec<(f32, f32)>>,
    /// `None` for outlier-class branches (pinned all-8-bit, no search).
    branch_search: Vec<Option<BranchSearch>>,
    tail_table: ScoreTable,
    tail_elems: Vec<usize>,
    tail_ranges: Vec<(f32, f32)>,
    prologue_time: Duration,
    vdpc_time: Duration,
    entropy_time: Duration,
}

/// Appends the values of `region` (all batch items and channels) of `t`
/// to `values` without materializing a crop. The region must fit inside
/// the map (validated by the prologue).
fn extend_region_values(values: &mut Vec<f32>, t: &Tensor, region: Region) {
    let s = t.shape();
    let run = region.w * s.c;
    for n in 0..s.n {
        for y in region.y..region.y_end() {
            let start = s.index(n, y, region.x, 0);
            values.extend_from_slice(&t.data()[start..start + run]);
        }
    }
}

/// The min/max of a sample, skipping NaN values (a single NaN produced by
/// a degenerate calibration image must not poison the range). All-NaN or
/// empty samples fall back to `(0.0, 1.0)`.
fn min_max(values: &[f32]) -> (f32, f32) {
    let mut lo = f32::INFINITY;
    let mut hi = f32::NEG_INFINITY;
    for &v in values {
        if v.is_nan() {
            continue;
        }
        lo = lo.min(v);
        hi = hi.max(v);
    }
    if !lo.is_finite() || !hi.is_finite() {
        (0.0, 1.0)
    } else {
        (lo, hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quantmcu_nn::{init, GraphSpecBuilder};
    use quantmcu_tensor::Shape;

    fn graph() -> Graph {
        let spec = GraphSpecBuilder::new(Shape::hwc(16, 16, 3))
            .conv2d(8, 3, 2, 1)
            .relu6()
            .dwconv(3, 1, 1)
            .relu6()
            .pwconv(16)
            .relu6()
            .conv2d(24, 3, 2, 1)
            .relu6()
            .global_avg_pool()
            .dense(10)
            .build()
            .unwrap();
        init::with_structured_weights(spec, 13)
    }

    fn calib(n: usize) -> Vec<Tensor> {
        (0..n)
            .map(|s| {
                Tensor::from_fn(Shape::hwc(16, 16, 3), |i| {
                    let base = ((i + 311 * s) as f32 * 0.23).sin() * 0.5;
                    // A bright top-left blob in half the images drives the
                    // corresponding patch into the outlier class.
                    let (y, x) = ((i / 3) / 16, (i / 3) % 16);
                    if s % 2 == 0 && y < 4 && x < 4 {
                        base + 8.0
                    } else {
                        base
                    }
                })
            })
            .collect()
    }

    #[test]
    fn plan_reduces_bitops_versus_8bit_patching() {
        let g = graph();
        let plan = Planner::new(QuantMcuConfig::paper()).plan(&g, &calib(4), 256 * 1024).unwrap();
        assert!(
            plan.bitops() < plan.baseline_patch_bitops(),
            "{} !< {}",
            plan.bitops(),
            plan.baseline_patch_bitops()
        );
    }

    #[test]
    fn vdpc_marks_bright_patches_as_outliers() {
        let g = graph();
        let plan = Planner::new(QuantMcuConfig::paper()).plan(&g, &calib(4), 256 * 1024).unwrap();
        // The injected bright spots must put at least one patch in the
        // outlier class, and that branch must stay all-8-bit.
        assert!(plan.outlier_patch_count() >= 1, "classes: {:?}", plan.patch_classes);
        for (class, bits) in plan.patch_classes.iter().zip(&plan.branch_bits) {
            if *class == PatchClass::Outlier {
                assert!(bits.iter().all(|&b| b == Bitwidth::W8), "outlier branch: {bits:?}");
            }
        }
    }

    #[test]
    fn without_vdpc_everything_is_searched() {
        let g = graph();
        let plan =
            Planner::new(QuantMcuConfig::without_vdpc()).plan(&g, &calib(4), 256 * 1024).unwrap();
        assert_eq!(plan.outlier_patch_count(), 0);
        // More aggressive quantization than the VDPC-protected plan.
        let protected =
            Planner::new(QuantMcuConfig::paper()).plan(&g, &calib(4), 256 * 1024).unwrap();
        assert!(plan.bitops() <= protected.bitops());
    }

    #[test]
    fn empty_calibration_is_rejected() {
        let g = graph();
        assert!(matches!(
            Planner::new(QuantMcuConfig::paper()).plan(&g, &[], 256 * 1024),
            Err(PlanError::NoCalibration)
        ));
        assert!(matches!(
            Planner::new(QuantMcuConfig::paper()).plan_sweep(&g, &[], &[256 * 1024]),
            Err(PlanError::NoCalibration)
        ));
    }

    #[test]
    fn plan_metrics_are_consistent() {
        let g = graph();
        let plan = Planner::new(QuantMcuConfig::paper()).plan(&g, &calib(3), 256 * 1024).unwrap();
        assert!(plan.peak_memory_bytes().unwrap() > 0);
        let dev = quantmcu_mcusim::Device::nano33_ble_sense();
        assert!(plan.latency(&dev).unwrap() > std::time::Duration::ZERO);
        assert!(plan.mean_branch_bits() >= 2.0 && plan.mean_branch_bits() <= 8.0);
        assert_eq!(plan.branch_bits.len(), plan.patch_plan().branch_count());
    }

    #[test]
    fn uniform_plans_report_zero_search_time() {
        // `plan_uniform` runs no VDPC/VDQS search, and search_time
        // excludes the calibration prologue by definition.
        let g = graph();
        let plan = Planner::new(QuantMcuConfig::paper())
            .plan_uniform(&g, &calib(3), Bitwidth::W8, 256 * 1024)
            .unwrap();
        assert_eq!(plan.search_time(), Duration::ZERO);
    }

    #[test]
    fn min_max_skips_nan_values() {
        assert_eq!(min_max(&[1.0, f32::NAN, 3.0, -2.0]), (-2.0, 3.0));
        assert_eq!(min_max(&[f32::NAN, 5.0]), (5.0, 5.0));
        // All-NaN and empty samples fall back to the unit range.
        assert_eq!(min_max(&[f32::NAN, f32::NAN]), (0.0, 1.0));
        assert_eq!(min_max(&[]), (0.0, 1.0));
    }

    #[test]
    fn nan_in_calibration_does_not_poison_branch_ranges() {
        let g = graph();
        let mut images = calib(3);
        // Inject a NaN into one calibration image; the plan must still
        // come out with finite, non-degenerate ranges.
        images[0].data_mut()[7] = f32::NAN;
        let plan = Planner::new(QuantMcuConfig::paper()).plan(&g, &images, 256 * 1024).unwrap();
        for ranges in &plan.branch_ranges {
            for &(lo, hi) in ranges {
                assert!(lo.is_finite() && hi.is_finite() && lo <= hi);
            }
        }
    }

    #[test]
    fn tight_budget_lowers_memory() {
        let g = graph();
        let planner = Planner::new(QuantMcuConfig::paper());
        let loose = planner.plan(&g, &calib(3), 10 * 1024 * 1024).unwrap();
        let tight = planner.plan(&g, &calib(3), 2 * 1024).unwrap();
        assert!(tight.peak_memory_bytes().unwrap() <= loose.peak_memory_bytes().unwrap());
    }

    #[test]
    fn plan_stats_cover_every_stage() {
        let g = graph();
        let (plan, stats) = Planner::new(QuantMcuConfig::paper())
            .plan_with_stats(&g, &calib(3), 256 * 1024)
            .unwrap();
        assert!(stats.prologue > Duration::ZERO);
        assert!(stats.vdpc > Duration::ZERO);
        assert!(stats.entropy > Duration::ZERO);
        assert!(stats.vdqs > Duration::ZERO);
        assert_eq!(plan.search_time(), stats.search_total());
    }

    #[test]
    fn sweep_plans_are_bit_identical_to_independent_plans() {
        let g = graph();
        let images = calib(4);
        let planner = Planner::new(QuantMcuConfig::paper());
        // Budgets spanning several patch splits plus a duplicate — the
        // sweep must reuse shared stages without perturbing any plan.
        let budgets = [4 * 1024, 16 * 1024, 64 * 1024, 256 * 1024, 10 * 1024 * 1024, 64 * 1024];
        let sweep = planner.plan_sweep(&g, &images, &budgets).unwrap();
        assert_eq!(sweep.len(), budgets.len());
        for (plan, &budget) in sweep.into_iter().zip(&budgets) {
            let independent = planner.plan(&g, &images, budget).unwrap();
            assert_eq!(
                plan.timeless(),
                independent.timeless(),
                "sweep plan diverged at budget {budget}"
            );
        }
    }

    #[test]
    fn sweep_each_isolates_per_budget_failures() {
        let g = graph();
        let images = calib(3);
        let planner = Planner::new(QuantMcuConfig::paper());
        // 64 bytes cannot hold any patch stage; its slot must fail with
        // the same error an independent call produces, while the workable
        // budget still plans.
        let outcomes = planner.plan_sweep_each(&g, &images, &[64, 256 * 1024]).unwrap();
        assert_eq!(outcomes.len(), 2);
        let expected = planner.plan(&g, &images, 64).unwrap_err();
        assert_eq!(outcomes[0].as_ref().unwrap_err(), &expected);
        assert!(outcomes[1].is_ok());
    }

    #[test]
    fn empty_budget_sweep_is_empty() {
        let g = graph();
        assert!(Planner::new(QuantMcuConfig::paper())
            .plan_sweep(&g, &calib(2), &[])
            .unwrap()
            .is_empty());
    }
}
