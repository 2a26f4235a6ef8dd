use std::sync::Arc;
use std::time::{Duration, Instant};
use std::{fmt, mem, thread};

use quantmcu_nn::exec::{CompiledGraph, ExecState, ScopedPool};
use quantmcu_nn::{FeatureMapId, Graph, GraphError, GraphSpec, OpSpec};
use quantmcu_patch::{Branch, PatchPlan};
use quantmcu_quant::entropy::{self, RangeFold};
use quantmcu_quant::score::ScoreTable;
use quantmcu_quant::vdpc::{PatchClass, VdpcClassifier};
use quantmcu_quant::vdqs;
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
/// paper-reproduction binaries (`fig*` / `table*` / `bench_*`), which plan
/// against many graphs and budgets in one process. Each call builds its
/// planning memory afresh and frees it on return. Serving-style code
/// should use [`crate::Engine`], which owns the graph behind an `Arc`,
/// carries a typed [`crate::SramBudget`], accepts any
/// [`crate::CalibrationSource`], produces shareable
/// [`crate::Deployment`]s — see the crate-level example — and keeps its
/// planning memory warm between plans.
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
    /// Streaming the calibration set through the network, folding the
    /// head maps' ranges and keeping the stored tail maps' values.
    pub prologue: Duration,
    /// Gaussian fit plus input-tile outlier classification (zero when VDPC
    /// is disabled).
    pub vdpc: Duration,
    /// Head entropy rows (a second, head-only float pass, when a searched
    /// branch needs one), tail clips and entropy rows, and the score
    /// tables, for the branches and the tail.
    pub entropy: Duration,
    /// Algorithm 1 (greedy init + pair repair) over every branch and the
    /// tail, plus the end-pinning fixups.
    pub vdqs: Duration,
    /// Bytes of calibration values the planner holds at the prologue's
    /// end: the stored tail maps' values, 4 B per value per image (counted
    /// values, not buffer capacity). A tail map that a `Relu` or `Relu6`
    /// node computes from a stored tail map is not stored: its clip and
    /// entropy row read the producer's values through the activation. Head
    /// maps keep no values; their ranges and entropy rows are folded as
    /// values stream.
    pub sample_bytes: usize,
}

impl PlanStats {
    /// `vdpc + entropy + vdqs` — what [`DeploymentPlan::search_time`]
    /// reports.
    #[must_use]
    pub fn search_total(&self) -> Duration {
        self.vdpc + self.entropy + self.vdqs
    }
}

/// What planning keeps between plans (see [`crate::Engine`]): one executor
/// state per planning worker and the last plan's sample buffers, per stored
/// tail map one per calibration chunk, which the next prologue refills in
/// place. Planning the same calibration set again reserves no new memory;
/// [`Planner`]'s calls plan in a fresh one each.
#[derive(Default)]
pub(crate) struct PlanWorkspace {
    states: Vec<ExecState>,
    samples: Vec<Segments>,
}

impl PlanWorkspace {
    /// Moves out one executor state per worker (at least one), building
    /// the missing ones.
    fn take_states(&mut self, workers: usize) -> Vec<ExecState> {
        let mut states = mem::take(&mut self.states);
        states.resize_with(workers.max(1), ExecState::new);
        states
    }
}

impl fmt::Debug for PlanWorkspace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let reserved: usize = self.samples.iter().flatten().map(Vec::capacity).sum();
        f.debug_struct("PlanWorkspace")
            .field("states", &self.states.len())
            .field("stored_maps", &self.samples.len())
            .field("sample_bytes_reserved", &(reserved * mem::size_of::<f32>()))
            .finish()
    }
}

/// One budget's sweep outcome: the plan and its timing breakdown.
type BudgetOutcome = Result<(DeploymentPlan, PlanStats), PlanError>;

/// Rejects a calibration set no plan can be fitted on: an empty one, or one
/// with an image holding `±∞` (VDPC fits its Gaussian on the input map,
/// unclipped, and an infinite pixel leaves it no finite moments; NaN pixels
/// are skipped).
fn check_calibration(calibration: &[Tensor]) -> Result<(), PlanError> {
    if calibration.is_empty() {
        return Err(PlanError::NoCalibration);
    }
    match calibration.iter().position(|t| t.data().iter().any(|v| v.is_infinite())) {
        Some(image) => Err(PlanError::NonFiniteCalibration { image }),
        None => Ok(()),
    }
}

/// Rejects a calibration image of another shape than the graph's input, as
/// the float pass would, before VDPC reads the images as input maps.
fn check_shapes(calibration: &[Tensor], spec: &GraphSpec) -> Result<(), PlanError> {
    let expected = spec.input_shape();
    match calibration.iter().find(|t| t.shape() != expected) {
        Some(t) => Err(GraphError::InputShapeMismatch { expected, actual: t.shape() }.into()),
        None => Ok(()),
    }
}

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
    /// * [`PlanError::NonFiniteCalibration`] when a calibration image holds
    ///   `±∞`;
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
        self.plan_in(&mut PlanWorkspace::default(), graph, calibration, sram_bytes)
    }

    /// [`Planner::plan_with_stats`] in `ws`.
    pub(crate) fn plan_in(
        &self,
        ws: &mut PlanWorkspace,
        graph: &Graph,
        calibration: &[Tensor],
        sram_bytes: usize,
    ) -> Result<(DeploymentPlan, PlanStats), PlanError> {
        let mut outcomes = self.sweep_in(ws, graph, calibration, &[sram_bytes])?;
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
        self.sweep_in(&mut PlanWorkspace::default(), graph, calibration, budgets)?
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
            .sweep_in(&mut PlanWorkspace::default(), graph, calibration, budgets)?
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
        self.plan_uniform_in(&mut PlanWorkspace::default(), graph, calibration, bits, sram_bytes)
    }

    /// [`Planner::plan_uniform`] in `ws`.
    pub(crate) fn plan_uniform_in(
        &self,
        ws: &mut PlanWorkspace,
        graph: &Graph,
        calibration: &[Tensor],
        bits: Bitwidth,
        sram_bytes: usize,
    ) -> Result<DeploymentPlan, PlanError> {
        check_calibration(calibration)?;
        let spec = graph.spec().clone();
        let patch_plan = PatchPlan::fitted(&spec, self.cfg.grid, sram_bytes)?;
        let compiled = CompiledGraph::new(graph)?;
        let states = ws.take_states(self.cfg.workers);
        let pro = thread::scope(|scope| {
            let pool = ScopedPool::with_states(scope, states);
            let pro = self.prologue_on_pool(
                &pool,
                &mut ws.samples,
                &compiled,
                calibration,
                &patch_plan,
                false,
            );
            ws.states = pool.into_states();
            pro
        })?;
        let branch_ranges = pro.branch_ranges();
        let Prologue { head, tail, branches, tail_ranges, .. } = pro;
        let tail_ranges = tail_ranges.into_iter().map(finite_or_unit).collect();
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

    /// The sweep engine behind every searched planning entry point:
    /// compiles the graph once, stands up the planning pool once over
    /// `ws`'s executor states, groups the budgets by the patch split they
    /// fit, and runs [`Planner::build_context`] once per group +
    /// [`Planner::solve`] once per budget.
    pub(crate) fn sweep_in(
        &self,
        ws: &mut PlanWorkspace,
        graph: &Graph,
        calibration: &[Tensor],
        budgets: &[usize],
    ) -> Result<Vec<BudgetOutcome>, PlanError> {
        check_calibration(calibration)?;
        let spec = graph.spec().clone();
        let compiled = CompiledGraph::new(graph)?;
        let states = ws.take_states(self.cfg.workers);
        Ok(thread::scope(|scope| {
            let pool = ScopedPool::with_states(scope, states);
            let outcomes =
                self.sweep_on_pool(&pool, &mut ws.samples, &compiled, calibration, &spec, budgets);
            ws.states = pool.into_states();
            outcomes
        }))
    }

    /// One sweep on an already-standing pool. Infallible at the sweep
    /// level: every per-budget failure lands in that budget's slot.
    fn sweep_on_pool<'env>(
        &'env self,
        pool: &ScopedPool<'env, ExecState>,
        samples: &mut Vec<Segments>,
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
            match self.build_context(pool, samples, compiled, calibration, spec, patch_plan) {
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
        samples: &mut Vec<Segments>,
        compiled: &'env CompiledGraph<&'env Graph>,
        calibration: &'env [Tensor],
        spec: &GraphSpec,
        patch_plan: PatchPlan,
    ) -> Result<SearchContext, PlanError> {
        // ---- VDPC: classify the split feature map's patches (Fig. 3):
        // a patch of the *input* feature map containing an outlier value
        // sends its whole dataflow branch to 8-bit. It reads only the
        // images and the input tiles, so it runs first: the prologue then
        // knows which head maps need entropy rows. The Gaussian is fitted
        // on the full input feature map across the calibration set — the
        // input feature map *is* the calibration image, so the fit streams
        // the images in place (no flattened copy is ever materialized).
        let vdpc_start = Instant::now();
        check_shapes(calibration, spec)?;
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
            vec![PatchClass::NonOutlier; patch_plan.branch_count()]
        };
        let vdpc_time = vdpc_start.elapsed();

        let prologue_start = Instant::now();
        let pro = self.prologue_on_pool(pool, samples, compiled, calibration, &patch_plan, true)?;
        let prologue_time = prologue_start.elapsed();
        let sample_bytes: usize =
            pro.tail_values.iter().flatten().map(|v| v.len() * mem::size_of::<f32>()).sum();

        // ---- Ranges + entropy rows per unique head target (see
        // [`Planner::prologue_on_pool`] — branches sharing a region share
        // one target). Ranges were folded by the prologue; a target needs
        // an entropy row only when some searched (non-outlier) branch
        // reads it.
        let entropy_start = Instant::now();
        let mut need_row = vec![false; pro.targets.len()];
        for (bi, maps) in pro.slots.iter().enumerate() {
            if patch_classes[bi] == PatchClass::NonOutlier {
                for &u in maps {
                    need_row[u] = true;
                }
            }
        }
        let head_rows = self.head_rows(pool, compiled.graph(), calibration, &pro, &need_row)?;
        let branch_ranges = pro.branch_ranges();
        let Prologue { head, tail, branches, slots, tail_maps, tail_values, .. } = pro;
        let n_branches = branches.len();

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
                .map(|&u| head_rows[u].clone().expect("searched branches requested entropy rows"))
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
        // Each map is read twice: once by the clip's selection, once by
        // the entropy scan, which reads each value clamped. Both clip ends
        // are values of the sample, so the clamped values' range is the
        // clip itself and needs no min/max pass. Only a map without a
        // finite min/max (all NaN, or holding ±∞ where the clip falls back
        // to it) gets the unit range, which need not hold its values: they
        // are read clamped into it and folded first. A derived map (see
        // [`TailMap`]) is read from its producer's buffers through its
        // activation, in the producer's job, so every job owns the buffers
        // it reads and hands them back for the next plan.
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
        let (tail_ranges, tail_et) =
            tail_tables(pool, samples, &tail_maps, tail_values, &tail_cfg, tail_bins)?;
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
            sample_bytes,
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
            sample_bytes: ctx.sample_bytes,
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
    /// streaming calibration pass that folds the range of every branch
    /// region of every head map and keeps the stored tail maps' values (see
    /// [`TailMap`]) — or, without `keep_tail_values`, folds every tail
    /// map's range too. Feature maps are recycled as soon as they have been
    /// read — no full trace is ever materialized, and no head value is
    /// kept.
    ///
    /// Branch regions overlap heavily: receptive-field halos grow with
    /// depth, so the deep head maps clip to (nearly) the full map for
    /// *every* branch. Ranges are therefore folded once per unique
    /// `(feature map, region)` target, with [`Prologue::slots`] mapping
    /// each (branch, map) pair back to its target.
    ///
    /// The calibration pass fans out over the pool in contiguous chunks
    /// (see [`calibration_chunks`]). Each job folds its chunk's ranges and
    /// fills tail buffers reserved at their **exact** final size (the
    /// per-image value count per map is known up front). The buffers are
    /// taken from `samples`, where the last plan left them, so a workspace
    /// that planned the same calibration set before reserves nothing new.
    /// The folds merge
    /// in chunk order, which is image order, into the range of the whole
    /// set; the tail buffers are never merged: each map keeps them as its
    /// [`Segments`], in chunk order, and every later stage reads a map as
    /// their concatenation. Ranges and values (and therefore the plan) are
    /// bit-identical for every worker count, with no copy and no
    /// reallocation anywhere on the path.
    fn prologue_on_pool<'env>(
        &self,
        pool: &ScopedPool<'env, ExecState>,
        samples: &mut [Segments],
        compiled: &'env CompiledGraph<&'env Graph>,
        calibration: &'env [Tensor],
        patch_plan: &PatchPlan,
        keep_tail_values: bool,
    ) -> Result<Prologue, PlanError> {
        let spec = compiled.graph().spec();
        let split = patch_plan.split_at();
        let (head, tail) = spec.split_at(split)?;
        let branches = Arc::new(Branch::build_all(spec, patch_plan));
        // Validate every branch region up front so the streaming observer
        // below is infallible.
        for branch in branches.iter() {
            for (i, region) in branch.regions().iter().enumerate() {
                let shape = spec.feature_map_shape(FeatureMapId(i));
                region.check_within(shape.h, shape.w)?;
            }
        }
        let tail_fm_count = tail.feature_map_count();
        // Deduplicate the (map, region) targets across branches
        // (deterministic first-seen order, so plans cannot depend on it).
        let mut targets: Vec<(usize, Region)> = Vec::new();
        let slots: Vec<Vec<usize>> = branches
            .iter()
            .map(|b| {
                b.regions()[..=split]
                    .iter()
                    .enumerate()
                    .map(|(g, &region)| {
                        targets.iter().position(|&u| u == (g, region)).unwrap_or_else(|| {
                            targets.push((g, region));
                            targets.len() - 1
                        })
                    })
                    .collect()
            })
            .collect();
        let by_g = Arc::new(dispatch(&targets, split, |_| true));
        // Kept, the tail maps are stored or derived; otherwise every one
        // is folded.
        let tail_maps = if keep_tail_values { tail_layout(&tail) } else { Vec::new() };
        let folded = if keep_tail_values { 0 } else { tail_fm_count };
        let per_image_tail: Vec<usize> = (0..tail_maps.len())
            .filter(|&t| matches!(tail_maps[t], TailMap::Stored(_)))
            .map(|t| spec.feature_map_shape(FeatureMapId(split + t)).len())
            .collect();
        // The buffers are reserved here, on the planning thread, not in
        // the workers: freed with a one-shot workspace, they return to
        // this thread's heap, where what the caller allocates next (a
        // deployment) reuses them. Had the workers reserved them, they
        // would stay with the workers' allocator arenas, which the
        // allocator need not give back.
        let chunks: Vec<(&'env [Tensor], ChunkStats)> = calibration_chunks(pool, calibration)
            .enumerate()
            .map(|(c, chunk)| {
                let tail_values = per_image_tail
                    .iter()
                    .enumerate()
                    .map(|(s, &len)| {
                        let kept = samples.get_mut(s).and_then(|parts| parts.get_mut(c));
                        let mut values = kept.map(mem::take).unwrap_or_default();
                        values.clear();
                        values.reserve_exact(len * chunk.len());
                        values
                    })
                    .collect();
                let stats = ChunkStats {
                    head: vec![RangeFold::new(); targets.len()],
                    tail_values,
                    tail_folds: vec![RangeFold::new(); folded],
                };
                (chunk, stats)
            })
            .collect();
        let observed = tail_maps.clone();
        let accs = pool.map(chunks, move |state: &mut ExecState, (chunk, mut acc)| {
            for input in chunk {
                compiled.run_float_with(state, input, |fm, t| {
                    let g = fm.0;
                    if g <= split {
                        for &(u, region) in &by_g[g] {
                            region_runs(t, region, |run| acc.head[u].feed(run));
                        }
                    }
                    if g >= split {
                        match observed.get(g - split) {
                            Some(&TailMap::Stored(s)) => {
                                acc.tail_values[s].extend_from_slice(t.data())
                            }
                            Some(TailMap::Derived { .. }) => {}
                            None => acc.tail_folds[g - split].feed(t.data()),
                        }
                    }
                })?;
            }
            Ok::<_, PlanError>(acc)
        })?;
        let mut head_folds = vec![RangeFold::new(); targets.len()];
        let mut tail_folds = vec![RangeFold::new(); folded];
        let mut tail_values: Vec<Segments> =
            per_image_tail.iter().map(|_| Vec::with_capacity(accs.len())).collect();
        for acc in accs {
            for (dst, src) in head_folds.iter_mut().zip(&acc.head) {
                dst.merge(src);
            }
            for (dst, src) in tail_folds.iter_mut().zip(&acc.tail_folds) {
                dst.merge(src);
            }
            for (dst, src) in tail_values.iter_mut().zip(acc.tail_values) {
                dst.push(src);
            }
        }
        Ok(Prologue {
            head,
            tail,
            branches,
            slots,
            targets,
            head_ranges: head_folds.iter().map(RangeFold::range).collect(),
            tail_maps,
            tail_values,
            tail_ranges: tail_folds.iter().map(RangeFold::range).collect(),
        })
    }

    /// The entropy rows of the prologue's head targets marked in
    /// `need_row` (`None` elsewhere), from a second, head-only float pass:
    /// the prologue kept no head values, and a row's bins and grids need
    /// the target's range before its values are counted. The head is
    /// compiled once, over its own weights, as the patch engine compiles
    /// it; its maps are the full graph's, bit for bit. Each pool job counts
    /// its chunk's region values block by block into one
    /// [`entropy::Counts`] per target; the counts add exactly, so the rows
    /// are the same for every worker count. No pass runs when no target
    /// needs a row (every branch outlier-class).
    fn head_rows<'env>(
        &self,
        pool: &ScopedPool<'env, ExecState>,
        graph: &Graph,
        calibration: &'env [Tensor],
        pro: &Prologue,
        need_row: &[bool],
    ) -> Result<Vec<Option<Row>>, PlanError> {
        let (candidates, k) = (&self.cfg.vdqs.candidates, self.cfg.vdqs.hist_bins);
        let scans = pro
            .head_ranges
            .iter()
            .zip(need_row)
            .map(|(&range, &need)| {
                need.then(|| entropy::Scan::new(range, candidates, k)).transpose()
            })
            .collect::<Result<Vec<_>, _>>()?;
        if scans.iter().all(Option::is_none) {
            return Ok(vec![None; scans.len()]);
        }
        let split = pro.head.len();
        let params = (0..split).map(|i| graph.params(i).clone()).collect();
        let head = Arc::new(CompiledGraph::new(Graph::new(pro.head.clone(), params))?);
        let by_g = Arc::new(dispatch(&pro.targets, split, |u| need_row[u]));
        let scans = Arc::new(scans);
        let chunks: Vec<&'env [Tensor]> = calibration_chunks(pool, calibration).collect();
        let per_chunk = pool.map(chunks, {
            let scans = Arc::clone(&scans);
            move |state: &mut ExecState, chunk: &'env [Tensor]| {
                let mut counts: Vec<Option<entropy::Counts>> =
                    scans.iter().map(|s| s.as_ref().map(entropy::Scan::counts)).collect();
                for input in chunk {
                    head.run_float_with(state, input, |fm, t| {
                        for &(u, region) in &by_g[fm.0] {
                            let scan = scans[u].as_ref().expect("dispatched targets are scanned");
                            let counts = counts[u].as_mut().expect("scanned targets count");
                            region_runs(t, region, |run| scan.feed(counts, run));
                        }
                    })?;
                }
                Ok::<_, PlanError>(counts)
            }
        })?;
        let mut per_chunk = per_chunk.into_iter();
        let mut total = per_chunk.next().expect("a non-empty calibration set has a chunk");
        for counts in per_chunk {
            for (dst, src) in total.iter_mut().zip(&counts) {
                if let (Some(dst), Some(src)) = (dst, src) {
                    dst.merge(src);
                }
            }
        }
        scans
            .iter()
            .zip(&total)
            .map(|(scan, counts)| match (scan, counts) {
                (Some(scan), Some(counts)) => Ok(Some(scan.row(counts)?)),
                _ => Ok(None),
            })
            .collect()
    }
}

/// The tail maps' ranges and entropy table (see [`tail_stats`]), one pool
/// job per stored map that also reads the maps derived from it, so every
/// job owns the buffers it reads. The buffers then go back to `samples`
/// for the next plan, replacing what it held.
fn tail_tables<'env>(
    pool: &ScopedPool<'env, ExecState>,
    samples: &mut Vec<Segments>,
    tail_maps: &[TailMap],
    tail_values: Vec<Segments>,
    cfg: &Arc<quantmcu_quant::VdqsConfig>,
    bins: usize,
) -> Result<(Vec<(f32, f32)>, entropy::EntropyTable), PlanError> {
    // Per stored map: its buffers, then the tail maps its job reads —
    // itself first, then the maps derived from it, which follow it.
    let mut jobs: Vec<TailJob> = tail_values.into_iter().map(|parts| (parts, Vec::new())).collect();
    for (t, &map) in tail_maps.iter().enumerate() {
        let (s, relu) = match map {
            TailMap::Stored(s) => (s, None),
            TailMap::Derived { of, hi } => (of, Some(hi)),
        };
        jobs[s].1.push((t, relu));
    }
    let per_job = pool.map(jobs, {
        let cfg = Arc::clone(cfg);
        move |_, (parts, reads): TailJob| {
            let stats = reads
                .into_iter()
                .map(|(t, relu)| Ok((t, tail_stats(&parts, relu, &cfg.candidates, bins)?)))
                .collect::<Result<Vec<_>, PlanError>>()?;
            Ok::<_, PlanError>((parts, stats))
        }
    })?;
    let mut by_map: Vec<Option<TailStats>> = vec![None; tail_maps.len()];
    samples.clear();
    for (parts, stats) in per_job {
        samples.push(parts);
        for (t, stat) in stats {
            by_map[t] = Some(stat);
        }
    }
    let (ranges, rows): (Vec<_>, Vec<Row>) =
        by_map.into_iter().map(|stat| stat.expect("every tail map has a job")).unzip();
    let (full, reductions) = rows.into_iter().unzip();
    Ok((ranges, entropy::EntropyTable { full, reductions }))
}

/// The calibration set in the contiguous chunks a planning pass fans out
/// over: one per worker (at most one per image), in image order.
fn calibration_chunks<'env>(
    pool: &ScopedPool<'env, ExecState>,
    calibration: &'env [Tensor],
) -> std::slice::Chunks<'env, Tensor> {
    let chunk_count = pool.workers().min(calibration.len()).max(1);
    calibration.chunks(calibration.len().div_ceil(chunk_count).max(1))
}

/// Per head map `g ≤ split`: the `(target index, region)` pairs of the
/// targets on that map that `wanted` selects, for a streaming observer.
fn dispatch(
    targets: &[(usize, Region)],
    split: usize,
    wanted: impl Fn(usize) -> bool,
) -> Vec<Vec<(usize, Region)>> {
    let mut by_g = vec![Vec::new(); split + 1];
    for (u, &(g, region)) in targets.iter().enumerate() {
        if wanted(u) {
            by_g[g].push((u, region));
        }
    }
    by_g
}

/// How the planner holds a tail map's calibration values.
#[derive(Debug, Clone, Copy, PartialEq)]
enum TailMap {
    /// Kept by the prologue, at this index of [`Prologue::tail_values`].
    Stored(usize),
    /// Computed by a `Relu` (`hi = +∞`) or `Relu6` (`hi = 6`) node from the
    /// stored map at index `of`: not kept, but read from the producer's
    /// values through the node's own formula (see [`tail_stats`]).
    Derived { of: usize, hi: f32 },
}

/// The tail maps' [`TailMap`]s, in tail map order. The stage output (the
/// tail's input) is always stored.
fn tail_layout(tail: &GraphSpec) -> Vec<TailMap> {
    let mut maps = vec![TailMap::Stored(0)];
    let mut stored = 1;
    for node in tail.nodes() {
        // The upper bounds the float executor runs the activations with.
        let hi = match node.op {
            OpSpec::Relu => Some(f32::INFINITY),
            OpSpec::Relu6 => Some(6.0),
            _ => None,
        };
        let map = match (hi, maps[node.inputs[0].feature_map().0]) {
            (Some(hi), TailMap::Stored(of)) => TailMap::Derived { of, hi },
            _ => {
                stored += 1;
                TailMap::Stored(stored - 1)
            }
        };
        maps.push(map);
    }
    maps
}

/// A tail map's clipped range and entropy row.
type TailStats = ((f32, f32), Row);

/// A tail map's range and entropy row from the values of `parts`, read
/// through the activation when `relu` gives its upper bound (a derived
/// map) and as they are otherwise: the 0.1%/99.9% clip of
/// [`clipped_range`], and the row of the values clamped into it. A map
/// without a finite clip gets the unit range, and its row is that of the
/// values clamped into it, binned on their own min/max.
fn tail_stats(
    parts: &[Vec<f32>],
    relu: Option<f32>,
    candidates: &[Bitwidth],
    bins: usize,
) -> Result<TailStats, PlanError> {
    // `kernels::relu`'s formulas, value by value, so a derived map reads
    // exactly the values the float executor computes: `max` sends NaN to
    // 0, `clamp` keeps it. One monomorphized reader per formula keeps each
    // read inline.
    match relu {
        None => tail_stats_through(parts, |v| v, candidates, bins),
        Some(hi) if hi.is_finite() => {
            tail_stats_through(parts, move |v: f32| v.clamp(0.0, hi), candidates, bins)
        }
        Some(_) => tail_stats_through(parts, |v: f32| v.max(0.0), candidates, bins),
    }
}

/// [`tail_stats`] over the values of `parts` read as `read(v)`.
fn tail_stats_through(
    parts: &[Vec<f32>],
    read: impl Fn(f32) -> f32 + Copy,
    candidates: &[Bitwidth],
    bins: usize,
) -> Result<TailStats, PlanError> {
    let (range, (lo, hi)) = match clipped_range(parts, read) {
        Some(clip) => (clip, clip),
        None => {
            // `finite_or_unit`'s unit range.
            let unit = (0.0, 1.0);
            let mut fold = RangeFold::new();
            read_blocks::<BLOCK>(parts, |v| read(v).clamp(unit.0, unit.1), |b| fold.feed(b));
            (unit, fold.range())
        }
    };
    let scan = entropy::Scan::new((lo, hi), candidates, bins)?;
    let mut counts = scan.counts();
    read_blocks::<SCAN_BLOCK>(
        parts,
        |v| read(v).clamp(range.0, range.1),
        |block| scan.feed(&mut counts, block),
    );
    Ok((range, scan.row(&counts)?))
}

/// Values per block of the entropy scan's read.
const SCAN_BLOCK: usize = 1024;

/// Hands `visit` the values of `parts`, in order, read as `read(v)`, up to
/// `N` at a time.
#[inline(always)]
fn read_blocks<const N: usize>(
    parts: &[Vec<f32>],
    read: impl Fn(f32) -> f32,
    mut visit: impl FnMut(&[f32]),
) {
    let mut block = [0f32; N];
    for chunk in parts.iter().flat_map(|part| part.chunks(N)) {
        let block = &mut block[..chunk.len()];
        for (x, &v) in block.iter_mut().zip(chunk) {
            *x = read(v);
        }
        visit(block);
    }
}

/// The 0.1%/99.9% percentile range of a tail map's sample, the values of
/// `parts` read as `read(v)`, falling back to the min/max for samples under
/// 1000 values and for a degenerate clip.
/// Both ends are values of the sample. `None` when the fallback min/max is
/// not finite (an all-NaN sample, or one holding ±∞): the plan then uses
/// the unit range of [`finite_or_unit`].
///
/// The percentiles are those of a positional subsample of ≤ 131,072
/// values (every value whose index across the segments is a multiple of
/// `stride`), with NaN dropped — it carries no range information. Only
/// ranks `⌊0.001·n⌋` and `⌊0.999·n⌋` of the `n` kept values are needed,
/// and both lie within `⌊0.001·m⌋ + 2` of their end of the order, where
/// `m ≥ n` counts the subsample's positions. So one read keeps that many
/// least and greatest values, and no copy of the subsample is made.
/// Among equal values the earlier one ranks first, which can matter only
/// for the sign of a zero end.
fn clipped_range(parts: &[Vec<f32>], read: impl Fn(f32) -> f32 + Copy) -> Option<(f32, f32)> {
    let fallback = || {
        let mut fold = RangeFold::new();
        read_blocks::<BLOCK>(parts, read, |block| fold.feed(block));
        let (lo, hi) = fold.range();
        (lo.is_finite() && hi.is_finite()).then_some((lo, hi))
    };
    let len: usize = parts.iter().map(Vec::len).sum();
    if len < 1000 {
        return fallback();
    }
    let stride = (len / 65_536).max(1);
    let keep = (((len - 1) / stride + 1) as f64 * 0.001) as usize + 2;
    // The greatest values are kept negated: negation is exact and
    // reverses the order.
    let (mut least, mut greatest) = (Least::new(keep), Least::new(keep));
    let mut n = 0;
    // Most blocks hold nothing for either end: a vectorized min/max/count
    // decides that before any value is offered.
    let mut visit = |block: &[f32]| {
        let (lo, hi, kept) = fold_block(block);
        n += kept;
        if least.wants(lo) || greatest.wants(-hi) {
            for &v in block {
                least.offer(v);
                greatest.offer(-v);
            }
        }
    };
    if stride == 1 {
        read_blocks::<BLOCK>(parts, read, &mut visit);
    } else {
        let mut block = [0f32; BLOCK];
        let mut offset = 0;
        for part in parts {
            let first = (stride - offset % stride) % stride;
            let mut subsample = part.iter().skip(first).step_by(stride);
            loop {
                let mut len = 0;
                for (slot, &v) in block.iter_mut().zip(&mut subsample) {
                    *slot = read(v);
                    len += 1;
                }
                if len == 0 {
                    break;
                }
                visit(&block[..len]);
            }
            offset += part.len();
        }
    }
    if n == 0 {
        return fallback();
    }
    let ilo = (n as f64 * 0.001) as usize;
    let ihi = ((n as f64 * 0.999) as usize).min(n - 1);
    debug_assert!(ilo < keep && n - 1 - ihi < keep, "ranks {ilo}, {ihi} of {n} kept");
    if ihi > ilo {
        let (lo, hi) = (least.values[ilo], -greatest.values[n - 1 - ihi]);
        if lo < hi {
            return Some((lo, hi));
        }
    }
    fallback()
}

/// Values per block of the clip's selection read.
const BLOCK: usize = 64;

/// A block's min and max over its non-NaN values, and their count, in
/// independent lanes the compiler vectorizes.
fn fold_block(block: &[f32]) -> (f32, f32, usize) {
    const LANES: usize = 16;
    let mut lo = [f32::INFINITY; LANES];
    let mut hi = [f32::NEG_INFINITY; LANES];
    let mut kept = [0u32; LANES];
    let mut chunks = block.chunks_exact(LANES);
    for chunk in &mut chunks {
        for (((l, h), k), &v) in lo.iter_mut().zip(&mut hi).zip(&mut kept).zip(chunk) {
            *l = if v < *l { v } else { *l };
            *h = if v > *h { v } else { *h };
            *k += u32::from(!v.is_nan());
        }
    }
    for &v in chunks.remainder() {
        lo[0] = if v < lo[0] { v } else { lo[0] };
        hi[0] = if v > hi[0] { v } else { hi[0] };
        kept[0] += u32::from(!v.is_nan());
    }
    let lo = lo.into_iter().fold(f32::INFINITY, |a, v| if v < a { v } else { a });
    let hi = hi.into_iter().fold(f32::NEG_INFINITY, |a, v| if v > a { v } else { a });
    (lo, hi, kept.into_iter().sum::<u32>() as usize)
}

/// The `keep` least non-NaN values offered so far, ascending; among equal
/// values the one offered first ranks first.
struct Least {
    keep: usize,
    values: Vec<f32>,
}

impl Least {
    fn new(keep: usize) -> Self {
        Least { keep, values: Vec::with_capacity(keep + 1) }
    }

    /// Whether [`Least::offer`] could keep some value no less than `v` —
    /// `false` lets a block whose least value is `v` be skipped.
    fn wants(&self, v: f32) -> bool {
        self.values.len() < self.keep || v < self.values[self.keep - 1]
    }

    #[inline]
    fn offer(&mut self, v: f32) {
        if self.values.len() == self.keep {
            // NaN fails the comparison too.
            if v < self.values[self.keep - 1] {
                self.values.pop();
            } else {
                return;
            }
        } else if v.is_nan() {
            return;
        }
        let at = self.values.partition_point(|&x| x <= v);
        self.values.insert(at, v);
    }
}

/// A tail map's calibration values: one buffer per prologue chunk, in
/// chunk order (= image order), read as their concatenation.
type Segments = Vec<Vec<f32>>;

/// One job of [`tail_tables`]: a stored map's buffers, and the tail maps
/// read from them, as (tail map index, ReLU upper bound of a derived map).
type TailJob = (Segments, Vec<(usize, Option<f32>)>);

/// A map's entropy row: `(H, ΔH per candidate)`.
type Row = (f64, Vec<f64>);

/// One calibration chunk's statistics (see [`Planner::prologue_on_pool`]):
/// a range fold per unique (map, region) head target, plus either the
/// values of each stored tail map (in a buffer reserved at its exact final
/// size) or a range fold per tail map.
struct ChunkStats {
    head: Vec<RangeFold>,
    tail_values: Vec<Vec<f32>>,
    tail_folds: Vec<RangeFold>,
}

/// The shared planning prologue's output: the split graph, branches, and
/// what the streaming pass kept of the calibration set.
struct Prologue {
    head: GraphSpec,
    tail: GraphSpec,
    branches: Arc<Vec<Branch>>,
    /// Per branch, per head feature map (input first, stage output last):
    /// the index into [`Prologue::targets`] of that (branch, map)'s
    /// region. Branches whose regions coincide on a map share the index.
    slots: Vec<Vec<usize>>,
    /// The unique (map, region) head targets.
    targets: Vec<(usize, Region)>,
    /// Per target: the region's [`RangeFold::range`] over the calibration
    /// set.
    head_ranges: Vec<(f32, f32)>,
    /// Per tail feature map: stored or derived (empty unless the prologue
    /// kept the tail maps' values).
    tail_maps: Vec<TailMap>,
    /// Per stored tail map ([`TailMap::Stored`]): the full-map values over
    /// the calibration set.
    tail_values: Vec<Segments>,
    /// Per tail feature map: the [`RangeFold::range`] over the calibration
    /// set (empty when the prologue kept the values instead).
    tail_ranges: Vec<(f32, f32)>,
}

impl Prologue {
    /// Per branch, per head map: the calibrated range, with the unit-range
    /// fallback for a non-finite one.
    fn branch_ranges(&self) -> Vec<Vec<(f32, f32)>> {
        self.slots
            .iter()
            .map(|maps| maps.iter().map(|&u| finite_or_unit(self.head_ranges[u])).collect())
            .collect()
    }
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
    sample_bytes: usize,
}

/// Hands `visit` the values of `region` (all batch items and channels) of
/// `t`, one row run at a time, in memory order, without materializing a
/// crop. The region must fit inside the map (validated by the prologue).
fn region_runs(t: &Tensor, region: Region, mut visit: impl FnMut(&[f32])) {
    let s = t.shape();
    let run = region.w * s.c;
    for n in 0..s.n {
        for y in region.y..region.y_end() {
            let start = s.index(n, y, region.x, 0);
            visit(&t.data()[start..start + run]);
        }
    }
}

/// A folded `(min, max)`, or `(0.0, 1.0)` when either end is not finite.
fn finite_or_unit((lo, hi): (f32, f32)) -> (f32, f32) {
    if !lo.is_finite() || !hi.is_finite() {
        (0.0, 1.0)
    } else {
        (lo, hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quantmcu_data::classification::ClassificationDataset;
    use quantmcu_models::{Model, ModelConfig};
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

    /// The min/max of a sample, skipping NaN values, with the unit-range
    /// fallback the planner applies.
    fn min_max<S: AsRef<[f32]>>(parts: &[S]) -> (f32, f32) {
        finite_or_unit(entropy::Sample::new(parts).range())
    }

    #[test]
    fn min_max_skips_nan_values() {
        assert_eq!(min_max(&[[1.0, f32::NAN, 3.0, -2.0]]), (-2.0, 3.0));
        assert_eq!(min_max(&[[f32::NAN, 5.0]]), (5.0, 5.0));
        // All-NaN and empty samples fall back to the unit range.
        assert_eq!(min_max(&[[f32::NAN, f32::NAN]]), (0.0, 1.0));
        assert_eq!(min_max::<[f32; 0]>(&[]), (0.0, 1.0));
    }

    /// Seeded values with NaNs and signed zeros mixed in, split into 1–5
    /// segments at seeded cut points (coinciding cuts leave some empty).
    fn segmented(len: usize, seed: u64) -> (Vec<f32>, Segments) {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let values: Vec<f32> = (0..len)
            .map(|_| match next() % 64 {
                0 => f32::NAN,
                1 => 0.0,
                2 => -0.0,
                r => (r as f32 - 32.0) * (next() % 1000) as f32 * 1e-3,
            })
            .collect();
        let mut cuts: Vec<usize> = (0..next() % 5).map(|_| next() as usize % (len + 1)).collect();
        cuts.sort_unstable();
        cuts.push(len);
        let mut start = 0;
        let parts = cuts
            .into_iter()
            .map(|end| {
                let part = values[start..end].to_vec();
                start = end;
                part
            })
            .collect();
        (values, parts)
    }

    #[test]
    fn segmented_ranges_match_the_concatenated_sample() {
        let bits = |(lo, hi): (f32, f32)| (lo.to_bits(), hi.to_bits());
        for len in [999, 1000, 131_071, 131_072, 196_609] {
            for seed in 1..=4 {
                let (values, parts) = segmented(len, seed);
                let whole = [values];
                assert_eq!(bits(min_max(&parts)), bits(min_max(&whole)), "len {len} seed {seed}");
                assert_eq!(
                    clipped_range(&parts, |v| v).map(bits),
                    clipped_range(&whole, |v| v).map(bits),
                    "len {len} seed {seed}"
                );
            }
        }
    }

    /// Pins the row of a segmented sample to the oracle's row of `values`
    /// (the values the sample reads, concatenated), bit for bit.
    fn assert_rows_match_naive(
        sample: entropy::Sample<'_, Vec<f32>>,
        values: &[f32],
        candidates: &[Bitwidth],
        k: usize,
    ) {
        let (h_fast, row_fast) = sample.table_row(candidates, k).unwrap();
        let (h_slow, row_slow) = entropy::naive::table_row(values, candidates, k).unwrap();
        assert_eq!(h_fast.to_bits(), h_slow.to_bits(), "H diverged: {h_fast} vs {h_slow}");
        for (f, s) in row_fast.iter().zip(&row_slow) {
            assert_eq!(f.to_bits(), s.to_bits(), "ΔH diverged: {f} vs {s}");
        }
    }

    #[test]
    fn fused_rows_match_naive_on_real_relu6_maps() {
        // Real ReLU6 maps hold masses of exact 0.0 and 6.0, on level and
        // bin edges that synthetic samples rarely reach. Run MobileNetV2's
        // exec-scale prologue on 4 images with 2 workers (so 2 chunks per
        // target). Head targets: the streamed range and the streamed row
        // (every target scanned, as if every branch were searched) must
        // equal the oracle's on the region's values gathered image by
        // image from full float traces. Tail maps, stored and derived:
        // clip them and read them clamped as `build_context` does, and pin
        // every row to the oracle on the clamped values.
        let spec = Model::MobileNetV2.spec(ModelConfig::exec_scale()).unwrap();
        let g = init::with_structured_weights(spec, 7);
        let images = ClassificationDataset::new(32, 10, 7).images(4);
        let planner = Planner::new(QuantMcuConfig { workers: 2, ..QuantMcuConfig::paper() });
        let spec = g.spec().clone();
        let patch_plan = PatchPlan::fitted(&spec, planner.cfg.grid, 16 * 1024).unwrap();
        let compiled = CompiledGraph::new(&g).unwrap();
        let (pro, rows) = thread::scope(|scope| {
            let pool = ScopedPool::spawned(scope, planner.cfg.workers, |_| ExecState::new());
            let pro = planner
                .prologue_on_pool(&pool, &mut Vec::new(), &compiled, &images, &patch_plan, true)
                .unwrap();
            let every = vec![true; pro.targets.len()];
            let rows = planner.head_rows(&pool, &g, &images, &pro, &every).unwrap();
            (pro, rows)
        });
        // Each tail map's values as `(parts, relu bound)`.
        let tail_maps: Vec<(&Segments, Option<f32>)> = pro
            .tail_maps
            .iter()
            .map(|&map| match map {
                TailMap::Stored(s) => (&pro.tail_values[s], None),
                TailMap::Derived { of, hi } => (&pro.tail_values[of], Some(hi)),
            })
            .collect();
        let read = |v: f32, relu: Option<f32>| match relu {
            Some(hi) if hi.is_finite() => v.clamp(0.0, hi),
            Some(_) => v.max(0.0),
            None => v,
        };
        let derived: Vec<f32> = tail_maps
            .iter()
            .filter(|(_, relu)| relu.is_some())
            .flat_map(|&(parts, relu)| parts.iter().flatten().map(move |&v| read(v, relu)))
            .collect();
        let holds = |x: f32| derived.contains(&x);
        assert!(
            holds(0.0) && holds(6.0),
            "the derived tail maps should saturate ReLU6 at both ends"
        );

        let vdqs = &planner.cfg.vdqs;
        let traces: Vec<Vec<Tensor>> = images
            .iter()
            .map(|image| quantmcu_nn::exec::FloatExecutor::new(&g).run_trace(image).unwrap())
            .collect();
        let mut zero_ends = 0;
        for (u, &(fm, region)) in pro.targets.iter().enumerate() {
            let mut values = Vec::new();
            for t in traces.iter().map(|trace| &trace[fm]) {
                let s = t.shape();
                for y in region.y..region.y_end() {
                    for x in region.x..region.x + region.w {
                        values.extend((0..s.c).map(|c| t.data()[s.index(0, y, x, c)]));
                    }
                }
            }
            let m = quantmcu_tensor::stats::moments(&values).unwrap();
            let (lo, hi) = pro.head_ranges[u];
            assert_eq!(
                (lo.to_bits(), hi.to_bits()),
                (m.min.to_bits(), m.max.to_bits()),
                "target {u}: streamed range ({lo}, {hi}) vs ({}, {})",
                m.min,
                m.max
            );
            zero_ends += usize::from(lo == 0.0);
            let (h_fast, row_fast) = rows[u].clone().expect("every target was scanned");
            let (h_slow, row_slow) =
                entropy::naive::table_row(&values, &vdqs.candidates, vdqs.hist_bins).unwrap();
            assert_eq!(h_fast.to_bits(), h_slow.to_bits(), "target {u}: H {h_fast} vs {h_slow}");
            for (f, s) in row_fast.iter().zip(&row_slow) {
                assert_eq!(f.to_bits(), s.to_bits(), "target {u}: ΔH {f} vs {s}");
            }
        }
        assert!(zero_ends > 0, "some head ReLU6 region should bottom out at zero");

        let tail_candidates: Vec<Bitwidth> =
            vdqs.candidates.iter().copied().filter(|b| *b >= Bitwidth::W4).collect();
        let bins = vdqs.hist_bins * 16;
        for &(parts, relu) in &tail_maps {
            assert_eq!(parts.len(), 2);
            let values = [parts.iter().flatten().map(|&v| read(v, relu)).collect::<Vec<f32>>()];
            let (lo, hi) = clipped_range(&values, |v| v).expect("these maps have a finite clip");
            let clamped: Vec<f32> = values[0].iter().map(|v| v.clamp(lo, hi)).collect();
            let sample = entropy::Sample::clamped(&values, lo, hi);
            assert_rows_match_naive(sample, &clamped, &tail_candidates, bins);
            // The clamped range is the clip itself: no min/max pass needed.
            let (clo, chi) = entropy::Sample::new(&[&clamped]).range();
            assert!(clo == lo && chi == hi, "clamped range ({clo}, {chi}) vs clip ({lo}, {hi})");
            // The planner's read of the segments is the same.
            let ((plo, phi), (h, row)) = tail_stats(parts, relu, &tail_candidates, bins).unwrap();
            let (h_slow, row_slow) =
                entropy::naive::table_row(&clamped, &tail_candidates, bins).unwrap();
            assert_eq!((plo.to_bits(), phi.to_bits()), (lo.to_bits(), hi.to_bits()));
            assert_eq!(h.to_bits(), h_slow.to_bits());
            assert_eq!(
                row.iter().map(|d| d.to_bits()).collect::<Vec<_>>(),
                row_slow.iter().map(|d| d.to_bits()).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn derived_tail_maps_match_their_materialized_values() {
        // A 1×1 identity conv with a −0.0 bias passes the images' NaN, −0.0
        // and +0.0 through unchanged (the accumulator starts at the bias),
        // then a ReLU sends NaN to 0 while a ReLU6 keeps it. Split after
        // the first conv, the tail is [conv, act, conv, act]: stored,
        // derived, stored, derived. Each tail map's range and entropy row
        // must equal, bit for bit, those computed from its values as
        // `run_float_with` materializes them, on both percentile paths
        // (3 images: under 1000 values; 8 images: the clip) and at one and
        // two workers.
        let identity: Vec<f32> = (0..9).map(|i| if i % 4 == 0 { 1.0 } else { 0.0 }).collect();
        let image = |s: usize| {
            Tensor::from_fn(Shape::hwc(8, 8, 3), |i| match (i / 3 + s) % 11 {
                0 => f32::NAN,
                1 => -0.0,
                2 => 0.0,
                _ => ((i * 7 + s * 31) as f32 * 0.37).sin() * 4.0 + 1.5,
            })
        };
        let vdqs = &QuantMcuConfig::paper().vdqs;
        let tail_cfg = Arc::new(quantmcu_quant::VdqsConfig {
            candidates: vec![Bitwidth::W8, Bitwidth::W4],
            ..vdqs.clone()
        });
        let bins = vdqs.hist_bins * 16;
        let bits = |(lo, hi): (f32, f32)| (lo.to_bits(), hi.to_bits());
        let row_bits =
            |(h, row): &Row| (h.to_bits(), row.iter().map(|d| d.to_bits()).collect::<Vec<_>>());
        for (first, second) in [(OpSpec::Relu, OpSpec::Relu6), (OpSpec::Relu6, OpSpec::Relu)] {
            let act =
                |b: GraphSpecBuilder, op| if op == OpSpec::Relu { b.relu() } else { b.relu6() };
            let spec = act(
                act(GraphSpecBuilder::new(Shape::hwc(8, 8, 3)).pwconv(3), first).conv2d(4, 3, 1, 1),
                second,
            )
            .build()
            .unwrap();
            let mut params: Vec<_> = (0..spec.len())
                .map(|i| init::with_structured_weights(spec.clone(), 5).params(i).clone())
                .collect();
            params[0] =
                quantmcu_nn::OpParams::Weights { weights: identity.clone(), bias: vec![-0.0; 3] };
            let g = Graph::new(spec.clone(), params);
            let compiled = CompiledGraph::new(&g).unwrap();
            let patch_plan = PatchPlan::new(&spec, 1, 2, 2).unwrap();
            for (images, workers) in [(3, 1), (3, 2), (8, 1), (8, 2)] {
                let images: Vec<Tensor> = (0..images).map(image).collect();
                // The tail maps as the float pass computes them.
                let mut maps = vec![Vec::new(); 4];
                let mut state = ExecState::new();
                for input in &images {
                    compiled
                        .run_float_with(&mut state, input, |fm, t| {
                            if fm.0 >= 1 {
                                maps[fm.0 - 1].extend_from_slice(t.data());
                            }
                        })
                        .unwrap();
                }
                let has = |v: &[f32], x: f32| v.iter().any(|y| y.to_bits() == x.to_bits());
                assert!(
                    has(&maps[0], -0.0) && has(&maps[0], 0.0) && maps[0].iter().any(|v| v.is_nan())
                );
                let planner = Planner::new(QuantMcuConfig { workers, ..QuantMcuConfig::paper() });
                let (layout, ranges, table) = thread::scope(|scope| {
                    let pool = ScopedPool::spawned(scope, workers, |_| ExecState::new());
                    let mut samples = Vec::new();
                    let pro = planner
                        .prologue_on_pool(
                            &pool,
                            &mut samples,
                            &compiled,
                            &images,
                            &patch_plan,
                            true,
                        )
                        .unwrap();
                    let (ranges, table) = tail_tables(
                        &pool,
                        &mut samples,
                        &pro.tail_maps,
                        pro.tail_values,
                        &tail_cfg,
                        bins,
                    )
                    .unwrap();
                    (pro.tail_maps, ranges, table)
                });
                assert_eq!(
                    layout,
                    [
                        TailMap::Stored(0),
                        TailMap::Derived {
                            of: 0,
                            hi: if first == OpSpec::Relu { f32::INFINITY } else { 6.0 }
                        },
                        TailMap::Stored(1),
                        TailMap::Derived {
                            of: 1,
                            hi: if second == OpSpec::Relu { f32::INFINITY } else { 6.0 }
                        }
                    ]
                );
                for (t, values) in maps.into_iter().enumerate() {
                    let mut parts = [values];
                    let (range, row) = match clipped_range(&parts, |v| v) {
                        Some((lo, hi)) => (
                            (lo, hi),
                            entropy::Sample::clamped(&parts, lo, hi)
                                .table_row(&tail_cfg.candidates, bins)
                                .unwrap(),
                        ),
                        None => {
                            for v in &mut parts[0] {
                                *v = v.clamp(0.0, 1.0);
                            }
                            (
                                (0.0, 1.0),
                                entropy::Sample::new(&parts)
                                    .table_row(&tail_cfg.candidates, bins)
                                    .unwrap(),
                            )
                        }
                    };
                    let at = format!(
                        "{first:?} then {second:?}, {} images, {workers} workers, map {t}",
                        images.len()
                    );
                    assert_eq!(bits(ranges[t]), bits(range), "{at}");
                    let planned = (table.full[t], table.reductions[t].clone());
                    assert_eq!(row_bits(&planned), row_bits(&row), "{at}");
                }
            }
        }
    }

    #[test]
    fn nan_in_calibration_does_not_poison_branch_ranges() {
        let g = graph();
        let mut images = calib(3);
        // Inject a NaN into one calibration image; the plan must still
        // come out with finite, non-degenerate ranges, in the branches
        // and in the tail.
        images[0].data_mut()[7] = f32::NAN;
        let plan = Planner::new(QuantMcuConfig::paper()).plan(&g, &images, 256 * 1024).unwrap();
        for &(lo, hi) in plan.branch_ranges.iter().flatten().chain(&plan.tail_ranges) {
            assert!(lo.is_finite() && hi.is_finite() && lo <= hi, "({lo}, {hi})");
        }
    }

    #[test]
    fn infinite_calibration_values_give_finite_ranges_or_a_typed_error() {
        // An infinite pixel leaves the input map's distribution no finite
        // moments: planning, searched or uniform, stops with a typed error
        // naming the image — on both signs, whether one pixel or a run of 40 is
        // infinite, in the first or a later image — and never panics.
        let g = graph();
        for v in [f32::INFINITY, f32::NEG_INFINITY] {
            for count in [1, 40] {
                for at in [0, 2] {
                    let mut images = calib(3);
                    for j in 0..count {
                        images[at].data_mut()[7 + 3 * j] = v;
                    }
                    let planner = Planner::new(QuantMcuConfig::paper());
                    let err = planner.plan(&g, &images, 256 * 1024);
                    assert!(
                        matches!(err, Err(PlanError::NonFiniteCalibration { image }) if image == at),
                        "{v} × {count} in image {at}: {err:?}"
                    );
                    let err = planner.plan_uniform(&g, &images, Bitwidth::W8, 256 * 1024);
                    assert!(
                        matches!(err, Err(PlanError::NonFiniteCalibration { image }) if image == at),
                        "uniform, {v} × {count} in image {at}: {err:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn a_calibration_image_of_another_shape_is_a_shape_error() {
        // VDPC reads the images before any float pass does: an image
        // smaller or larger than the input must still fail as the float
        // pass would, not as a tile outside the image or a misread one.
        let g = graph();
        for shape in [Shape::hwc(8, 8, 3), Shape::hwc(16, 16, 4)] {
            let mut images = calib(3);
            images[1] = Tensor::zeros(shape);
            for cfg in [QuantMcuConfig::paper(), QuantMcuConfig::without_vdpc()] {
                let err = Planner::new(cfg).plan(&g, &images, 256 * 1024).unwrap_err();
                assert!(
                    matches!(
                        err,
                        PlanError::Graph(GraphError::InputShapeMismatch { actual, .. })
                            if actual == shape
                    ),
                    "{shape:?}: {err:?}"
                );
            }
        }
    }

    /// The tail clip as a full sort computes it: the reference for the
    /// bounded selection of [`clipped_range`]. `None` stands for the unit
    /// range of a non-finite min/max, as there.
    fn sorted_clip(values: &[f32]) -> Option<(f32, f32)> {
        let min_max = || {
            let (mut lo, mut hi) = (f32::INFINITY, f32::NEG_INFINITY);
            for &v in values {
                lo = if v < lo { v } else { lo };
                hi = if v > hi { v } else { hi };
            }
            (lo.is_finite() && hi.is_finite()).then_some((lo, hi))
        };
        if values.len() < 1000 {
            return min_max();
        }
        let stride = (values.len() / 65_536).max(1);
        let mut sample: Vec<f32> =
            values.iter().step_by(stride).copied().filter(|v| !v.is_nan()).collect();
        if sample.is_empty() {
            return min_max();
        }
        sample.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let n = sample.len();
        let ilo = (n as f64 * 0.001) as usize;
        let ihi = ((n as f64 * 0.999) as usize).min(n - 1);
        let (lo, hi) = (sample[ilo], sample[ihi.max(ilo)]);
        if lo < hi {
            Some((lo, hi))
        } else {
            min_max()
        }
    }

    /// Seeded values of one of six kinds: mixed values salted with NaN,
    /// ±0 and ±∞; one repeated value; ReLU6-like masses of ±0 and 6;
    /// ±∞ above the 0.1% tails; all NaN but a few; and one value with
    /// under 0.1% others, whose clip collapses to `lo == hi`.
    fn clip_values(len: usize, seed: u64, kind: u64) -> Vec<f32> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let uniform = |r: u64| (r % 20_001) as f32 * 1e-3 - 10.0;
        (0..len)
            .map(|_| {
                let r = next();
                match (kind, r % 1000) {
                    (0, 0) => f32::NAN,
                    (0, 1) => 0.0,
                    (0, 2) => -0.0,
                    (0, 3) => f32::INFINITY,
                    (0, 4) => f32::NEG_INFINITY,
                    (0, _) => uniform(r >> 10),
                    (1, _) => 2.5,
                    (2, x) if x < 400 => 0.0,
                    (2, x) if x < 500 => -0.0,
                    (2, x) if x < 700 => 6.0,
                    (2, _) => (r >> 10) as f32 % 6.0,
                    (3, x) if x < 5 => f32::INFINITY,
                    (3, x) if x < 10 => f32::NEG_INFINITY,
                    (3, _) => uniform(r >> 10),
                    (4, x) if x < 2 => uniform(r >> 10),
                    (4, _) => f32::NAN,
                    (_, x) if x == 0 && r % 3 == 0 => uniform(r >> 10),
                    (_, _) => -1.25,
                }
            })
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// The bounded selection pinned to the sort-based reference.
        /// Nonzero ends must match bit for bit; a zero end must match with
        /// `==`, because among equal values a sort (or the parent's
        /// `select_nth_unstable`) may pick either sign of zero.
        #[test]
        fn clipped_range_matches_the_sorted_reference(
            len in proptest::prelude::prop::sample::select(
                vec![0usize, 1, 999, 1000, 1001, 4096, 65_537, 131_071, 131_072, 131_073, 200_003]
            ),
            seed in 0u64..10_000,
            kind in 0u64..6,
            segments in 1u64..6,
        ) {
            let values = clip_values(len, seed, kind);
            let (_, parts) = {
                let mut state = seed | 1;
                let mut cuts: Vec<usize> = (1..segments)
                    .map(|_| {
                        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                        (state >> 33) as usize % (len + 1)
                    })
                    .collect();
                cuts.sort_unstable();
                cuts.push(len);
                let mut start = 0;
                let parts: Segments = cuts
                    .into_iter()
                    .map(|end| {
                        let part = values[start..end].to_vec();
                        start = end;
                        part
                    })
                    .collect();
                ((), parts)
            };
            let same = |a: f32, b: f32| if b == 0.0 { a == 0.0 } else { a.to_bits() == b.to_bits() };
            match (clipped_range(&parts, |v| v), sorted_clip(&values)) {
                (Some((lo, hi)), Some((rlo, rhi))) => {
                    proptest::prop_assert!(
                        same(lo, rlo) && same(hi, rhi),
                        "({lo}, {hi}) vs reference ({rlo}, {rhi})"
                    );
                }
                (got, want) => proptest::prop_assert!(
                    got.is_none() && want.is_none(),
                    "{got:?} vs reference {want:?}"
                ),
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
