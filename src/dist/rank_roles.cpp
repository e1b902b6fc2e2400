#include "dist/rank_roles.hpp"

#include <algorithm>
#include <string>

namespace dms {

namespace {

/// Largest divisor of n that is <= cap (n >= 1, cap >= 1).
int largest_divisor_at_most(int n, int cap) {
  for (int d = std::min(n, cap); d >= 1; --d) {
    if (n % d == 0) return d;
  }
  return 1;
}

}  // namespace

RankRoles make_rank_roles(DistMode mode, const ProcessGrid& full,
                          const DisaggOptions& opts) {
  const int p = full.size();
  if (mode == DistMode::kPartitioned) {
    return {full, full, SamplingCluster::kMain, full};
  }
  if (mode == DistMode::kReplicated) {
    return {ProcessGrid(p, 1), full, SamplingCluster::kNone, full};
  }
  check(p >= 2, "make_rank_roles: disaggregation needs at least 2 ranks "
                "(1 sampler + 1 trainer)");
  check(opts.sampler_ranks >= 0 && opts.sampler_c >= 0 && opts.trainer_c >= 0,
        "make_rank_roles: sampler_ranks / sampler_c / trainer_c must be "
        ">= 0 (0 = auto)");
  const int s = opts.sampler_ranks > 0 ? opts.sampler_ranks : std::max(1, p / 4);
  check(s >= 1 && s < p,
        "make_rank_roles: sampler_ranks must be in [1, p): got " +
            std::to_string(s) + " of " + std::to_string(p));
  const int t = p - s;
  const int cs = opts.sampler_c > 0 ? opts.sampler_c : 1;
  check(s % cs == 0, "make_rank_roles: sampler_c must divide sampler_ranks");
  const int ct = opts.trainer_c > 0
                     ? opts.trainer_c
                     : largest_divisor_at_most(t, full.replication());
  check(t % ct == 0, "make_rank_roles: trainer_c must divide the trainer "
                     "count (p - sampler_ranks)");
  return {ProcessGrid(p, 1), ProcessGrid(s, cs), SamplingCluster::kOwned,
          ProcessGrid(t, ct)};
}

}  // namespace dms
