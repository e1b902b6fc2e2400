// Plan optimizer pass pipeline (DESIGN.md §12): runs between plan
// construction and execution, by default for every PlanExecutor.
//
// Passes, in order:
//  1. normalize fusion  — an adjacent kSpgemm → kNormalize pair collapses
//     into one kSpgemm with fused_norm set. Replicated execution then runs
//     the normalization as the SpGEMM engine's per-block epilogue (in
//     parallel, on cache-resident rows) instead of a separate serial pass
//     over the stitched product; the 1.5D form normalizes after its
//     all-reduce. Skipped on unlowered walk-shaped plans — the fused walk
//     engine (§11) matches the exact unfused op sequence.
//  2. slice fusion      — an adjacent kSlice → kMaskedExtract pair collapses
//     into one kMaskedExtract with slice_fused set: the op reads its
//     sampled sets straight from the sampled-columns matrix and writes them
//     to the absorbed slice's output slot for downstream readers.
//  3. dead-slot elimination — drops slots no op or persistent binding
//     references and renumbers the survivors compactly.
//  4. analysis stamping — precomputes sole_reader_of_input per matrix op so
//     the executor's move-vs-copy decision is free at run time.
//
// Every pass preserves results bit-for-bit: fusions reorder no arithmetic
// (adjacency means nothing observes the intermediate state) and renumbering
// touches only symbolic ids. The golden-hash suite of tests/test_plan.cpp
// holds over optimized plans unchanged.
//
// Cross-batch plan caching: PlanCache::global() keys the optimized form by
// the full structural signature of the input plan plus the fanouts, so
// every sampler/serving engine constructed over the same plan shape shares
// one immutable optimized plan (and its stamped analyses) — training
// epochs, coalesced serving batches, and replica engines pay the
// optimization once.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "core/sample.hpp"  // SamplerConfig
#include "plan/plan.hpp"

namespace dms {

/// Runs the pass pipeline over a validated plan and returns the optimized
/// (revalidated) copy. Deterministic: equal inputs yield equal outputs.
SamplePlan optimize(const SamplePlan& plan);

/// Exhaustive structural signature: every op field plus the plan's slot and
/// loop structure. Two plans with equal signatures execute identically, so
/// the signature (plus fanouts) is the PlanCache key.
std::string plan_signature(const SamplePlan& plan);

/// Unified-style listing diff of two plans' describe() output: unchanged
/// lines indented, removed lines prefixed "-", added lines "+". The
/// --dump-plan tool prints optimize() before/after through this.
std::string describe_diff(const SamplePlan& before, const SamplePlan& after);

/// Process-wide cache of optimized plans, keyed by plan signature +
/// fanouts. Values are immutable shared plans: a PlanExecutor holds the
/// shared_ptr, so two samplers with the same plan shape and fanouts
/// literally share one SamplePlan object.
class PlanCache {
 public:
  struct Stats {
    std::uint64_t lookups = 0;
    std::uint64_t hits = 0;
    std::uint64_t entries = 0;
  };

  static PlanCache& global();

  /// Returns the cached optimized form of `plan` (optimizing and inserting
  /// on first sight). `plan` must already be validated. Thread-safe.
  std::shared_ptr<const SamplePlan> get_or_optimize(
      const SamplePlan& plan, const SamplerConfig& config);

  Stats stats() const;
  void clear();

 private:
  mutable std::mutex mu_;
  std::unordered_map<std::string, std::shared_ptr<const SamplePlan>> map_;
  Stats stats_;
};

}  // namespace dms
