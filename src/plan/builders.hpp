// The built-in sampler plans (DESIGN.md §9): each sampling algorithm is a
// ~20-line plan definition over the shared op vocabulary. The same plan
// serves every execution mode — a replicated MatrixSampler runs it directly,
// a partitioned one runs lower_to_dist(plan). make_sampler maps each
// SamplerKind onto one of these builders.
#pragma once

#include "common/types.hpp"
#include "plan/plan.hpp"

namespace dms {

/// GraphSAGE (§4.1): stack → Q·A → NORM → ITS(s per vertex) → extract.
SamplePlan build_sage_plan();

/// LADIES (§4.2): indicator Q → Q·A → NORM(e²) → ITS(s per batch) →
/// masked extraction (Q_R·A)[:, S] → union assembly.
SamplePlan build_ladies_plan();

/// FastGCN (Chen et al. 2018): batch-independent global-importance ITS →
/// masked extraction → union assembly. Needs bound global weights (the
/// squared-in-degree prefix, fastgcn_importance_prefix).
SamplePlan build_fastgcn_plan();

/// LABOR (Balin & Çatalyürek 2023, "Layer-Neighbor Sampling — Defusing
/// Neighborhood Explosion in GNNs"), the first sampler defined purely as a
/// plan: stack → Q·A → NORM → per-vertex Poisson thinning with batch-shared
/// randoms → extract.
///
/// LABOR-0 semantics: per layer, vertex u enters the sample of frontier
/// vertex v iff r_u < s / deg(v), where r_u ~ U[0,1) is drawn once per
/// (batch, layer, vertex) and shared by every v of the batch. Per vertex
/// the expected sample size matches GraphSAGE's fanout s (each neighbor is
/// kept with probability min(1, s/deg)), but because the r_u are shared, a
/// vertex admitted by one row is admitted by every row that reaches it —
/// the union frontier (and hence the feature-fetch volume) shrinks relative
/// to independent per-row sampling.
///
/// Determinism: r_u = uniform(derive_seed(epoch, global batch id, layer,
/// u)) depends only on logical coordinates, so LABOR obeys the same
/// bit-identity contract as every other plan — replicated and partitioned
/// runs agree for every grid shape and thread count.
SamplePlan build_labor_plan();

/// GraphSAINT-RW (Zeng et al. 2020): walk_length rounds of
/// stack → Q·A → NORM → ITS(1) → walk advance, then an induced-subgraph
/// epilogue emitting model_layers identical layers. Dist-lowerable (the
/// partitioned kInducedLayers assembles rows from the owner blocks); on the
/// replicated path the walk rounds run fused through the walk engine
/// (src/walk) when it matches the plan shape.
SamplePlan build_saint_plan(index_t walk_length, index_t model_layers);

/// node2vec (Grover & Leskovec 2016): the GraphSAINT walk shape with a
/// kWalkBias op between the probability SpGEMM and NORM — candidates are
/// reweighted 1/p (return), 1 (neighbor of the previous vertex), or 1/q —
/// plus a persistent prev slot maintained by kWalkAdvance. Uses the same
/// walk seeds as GraphSAINT, so p = q = 1 reproduces saint_rw's walks
/// bit-for-bit. Everything else (seeding, ITS with s = 1, the
/// induced-subgraph epilogue) is the saint_rw machinery: replicated runs
/// fuse through the walk engine (src/walk), partitioned runs lower like
/// every other plan.
SamplePlan build_node2vec_plan(index_t walk_length, index_t model_layers,
                               value_t p, value_t q);

/// PinSAGE-style importance sampling (Ying et al. 2018): the GraphSAGE plan
/// shape run against a walk-derived weighted adjacency — short simulated
/// walks per vertex score its neighborhood, the top-T visited vertices
/// become weighted edges (core/pinsage.hpp builds that graph), and the
/// plan's NORM → ITS then draws a weighted fanout per row. Pure plan: the
/// probability SpGEMM reads the weights, so the op program needs nothing
/// new and lowers to the 1.5D collectives unchanged.
SamplePlan build_pinsage_plan();

}  // namespace dms
