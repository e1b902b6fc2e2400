#include "plan/optimize.hpp"

#include <algorithm>
#include <sstream>
#include <vector>

#include "walk/walk_engine.hpp"  // match_walk_plan (pass 1 guard)

namespace dms {

namespace {

bool is_spgemm(PlanOpKind k) {
  return k == PlanOpKind::kSpgemm || k == PlanOpKind::kSpgemm15d;
}

bool is_masked_extract(PlanOpKind k) {
  return k == PlanOpKind::kMaskedExtract || k == PlanOpKind::kMaskedExtract15d;
}

/// Pass 1: collapse adjacent kSpgemm → kNormalize (normalize.in == the
/// product slot) into one spgemm op with fused_norm. Adjacency is the
/// legality argument: no op observes the unnormalized product, so applying
/// the identical normalization inside the producing op reorders nothing.
void fuse_normalize(std::vector<PlanOp>& ops) {
  for (std::size_t i = 0; i + 1 < ops.size();) {
    PlanOp& op = ops[i];
    const PlanOp& next = ops[i + 1];
    if (is_spgemm(op.kind) && !op.fused_norm &&
        next.kind == PlanOpKind::kNormalize && next.in == op.out) {
      op.fused_norm = true;
      op.norm = next.norm;
      ops.erase(ops.begin() + static_cast<std::ptrdiff_t>(i) + 1);
      continue;  // re-check i against its new successor
    }
    ++i;
  }
}

/// Pass 2: collapse adjacent kSlice → kMaskedExtract (extract.in == the
/// sliced sets) into one masked extraction with slice_fused: it reads the
/// sets from the slice's input matrix rows and writes them to the slice's
/// old output slot, so downstream readers (kFrontierUnion's in2) are
/// untouched. The set materialization is bit-for-bit the slice's own.
void fuse_slice(std::vector<PlanOp>& ops) {
  for (std::size_t i = 0; i + 1 < ops.size();) {
    const PlanOp& op = ops[i];
    PlanOp& next = ops[i + 1];
    if (op.kind == PlanOpKind::kSlice && is_masked_extract(next.kind) &&
        !next.slice_fused && next.in == op.out) {
      next.slice_fused = true;
      next.out2 = op.out;  // the sets still land where the slice put them
      next.in = op.in;     // ... but are read off the matrix rows directly
      ops.erase(ops.begin() + static_cast<std::ptrdiff_t>(i));
      continue;
    }
    ++i;
  }
}

/// Pass 3: drop slots nothing references and renumber compactly. The
/// persistent bindings (frontier / visited / prev) always stay live — the
/// executor binds them before the first op runs.
void eliminate_dead_slots(SamplePlan& plan) {
  std::vector<bool> used(static_cast<std::size_t>(plan.num_slots), false);
  auto mark = [&](SlotId s) {
    if (s != kNoSlot) used[static_cast<std::size_t>(s)] = true;
  };
  mark(plan.frontier_slot);
  mark(plan.visited_slot);
  mark(plan.prev_slot);
  for (const auto* ops : {&plan.body, &plan.epilogue}) {
    for (const PlanOp& op : *ops) {
      mark(op.in);
      mark(op.in2);
      mark(op.out);
      mark(op.out2);
    }
  }
  std::vector<SlotId> remap(static_cast<std::size_t>(plan.num_slots), kNoSlot);
  SlotId next = 0;
  for (SlotId s = 0; s < plan.num_slots; ++s) {
    if (used[static_cast<std::size_t>(s)]) remap[static_cast<std::size_t>(s)] = next++;
  }
  if (next == plan.num_slots) return;  // nothing dead
  auto apply = [&](SlotId& s) {
    if (s != kNoSlot) s = remap[static_cast<std::size_t>(s)];
  };
  apply(plan.frontier_slot);
  apply(plan.visited_slot);
  apply(plan.prev_slot);
  for (auto* ops : {&plan.body, &plan.epilogue}) {
    for (PlanOp& op : *ops) {
      apply(op.in);
      apply(op.in2);
      apply(op.out);
      apply(op.out2);
    }
  }
  plan.num_slots = next;
}

}  // namespace

SamplePlan optimize(const SamplePlan& plan) {
  validate_plan(plan);
  SamplePlan out = plan;
  // Unlowered walk-shaped plans must keep the exact op sequence the fused
  // walk engine recognizes (its ~100x path outweighs any fusion here);
  // lowered walk plans never take that path and fuse freely.
  const bool keep_walk_shape = match_walk_plan(out).matched;
  if (!keep_walk_shape) {
    fuse_normalize(out.body);
    fuse_normalize(out.epilogue);
  }
  fuse_slice(out.body);
  fuse_slice(out.epilogue);
  eliminate_dead_slots(out);
  for (auto* ops : {&out.body, &out.epilogue}) {
    for (PlanOp& op : *ops) {
      if (is_spgemm(op.kind) || is_masked_extract(op.kind)) {
        op.sole_reader_in = sole_reader_of_input(out, op);
      }
    }
  }
  validate_plan(out);
  return out;
}

std::string plan_signature(const SamplePlan& plan) {
  std::ostringstream os;
  os << plan.name << '|' << plan.num_slots << '|' << plan.frontier_slot << '|'
     << plan.visited_slot << '|' << plan.prev_slot << '|'
     << plan.rounds_from_fanouts << '|' << plan.explicit_rounds << '|'
     << plan.stop_on_empty_frontier << '|' << plan.needs_global_weights << '|'
     << plan.distributed;
  auto dump = [&](const std::vector<PlanOp>& ops) {
    for (const PlanOp& op : ops) {
      os << ';' << static_cast<int>(op.kind) << ',' << op.label << ','
         << op.phase << ',' << op.in << ',' << op.in2 << ',' << op.out << ','
         << op.out2 << ',' << static_cast<int>(op.qmode) << ','
         << static_cast<int>(op.norm) << ',' << static_cast<int>(op.source)
         << ',' << op.seed.layer_salt << ',' << static_cast<int>(op.seed.row)
         << ',' << static_cast<int>(op.assemble) << ',' << op.fixed_s << ','
         << op.copies << ',' << op.bias_p << ',' << op.bias_q << ','
         << op.fused_norm << op.slice_fused << op.sole_reader_in;
    }
  };
  dump(plan.body);
  os << "|epi";
  dump(plan.epilogue);
  return os.str();
}

std::string describe_diff(const SamplePlan& before, const SamplePlan& after) {
  auto split = [](const std::string& s) {
    std::vector<std::string> lines;
    std::istringstream is(s);
    for (std::string line; std::getline(is, line);) lines.push_back(line);
    return lines;
  };
  const std::vector<std::string> a = split(describe(before));
  const std::vector<std::string> b = split(describe(after));
  // Longest common subsequence over listing lines (plans are tiny).
  const std::size_t n = a.size(), m = b.size();
  std::vector<std::vector<std::size_t>> lcs(n + 1, std::vector<std::size_t>(m + 1, 0));
  for (std::size_t i = n; i-- > 0;) {
    for (std::size_t j = m; j-- > 0;) {
      lcs[i][j] = a[i] == b[j] ? lcs[i + 1][j + 1] + 1
                               : std::max(lcs[i + 1][j], lcs[i][j + 1]);
    }
  }
  std::ostringstream os;
  std::size_t i = 0, j = 0;
  while (i < n || j < m) {
    if (i < n && j < m && a[i] == b[j]) {
      os << "  " << a[i] << "\n";
      ++i, ++j;
    } else if (j < m && (i == n || lcs[i][j + 1] >= lcs[i + 1][j])) {
      os << "+ " << b[j] << "\n";
      ++j;
    } else {
      os << "- " << a[i] << "\n";
      ++i;
    }
  }
  return os.str();
}

PlanCache& PlanCache::global() {
  static PlanCache cache;
  return cache;
}

std::shared_ptr<const SamplePlan> PlanCache::get_or_optimize(
    const SamplePlan& plan, const SamplerConfig& config) {
  std::ostringstream key;
  key << plan_signature(plan) << "|fanouts=";
  for (const index_t f : config.fanouts) key << f << ',';
  const std::string k = key.str();
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.lookups;
    const auto it = map_.find(k);
    if (it != map_.end()) {
      ++stats_.hits;
      return it->second;
    }
  }
  // Optimize outside the lock (pure function of the inputs: a racing
  // constructor computes the same plan and the first insert wins).
  auto optimized = std::make_shared<const SamplePlan>(optimize(plan));
  std::lock_guard<std::mutex> lock(mu_);
  const auto [it, inserted] = map_.emplace(k, std::move(optimized));
  stats_.entries = map_.size();
  return it->second;
}

PlanCache::Stats PlanCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void PlanCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  map_.clear();
  stats_ = Stats{};
}

}  // namespace dms
