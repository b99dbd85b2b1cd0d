// HykSort (Sundar, Malhotra & Biros, ICS'13) — hypercube k-way quicksort:
// recursively split the rank group into k subgroups around k-1 histogrammed
// splitters, exchange buckets within the group, and recurse. Compared with
// the paper's flat histogram sort this moves data O(log_k P) times and pays
// an MPI_Comm_split per recursion level (the blocking O(P) cost Sec. III-C
// argues against); in exchange each all-to-all involves only k peers.
//
// The public HykSort code the authors tried to evaluate failed to run
// (Sec. VI); this reimplementation stands in for it on the same runtime.
#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "common/bits.h"
#include "common/error.h"
#include "core/exchange.h"
#include "core/local_sort.h"
#include "core/merge.h"
#include "core/multiselect.h"
#include "runtime/comm.h"

namespace hds::baselines {

struct HyksortConfig {
  /// Subgroups per recursion level (k >= 2); the effective k at each level
  /// is the largest divisor of the group size not exceeding this.
  int k = 8;
  double epsilon = 0.0;
  core::MergeStrategy merge = core::MergeStrategy::Tournament;
  core::LocalSortKernel kernel = core::LocalSortKernel::Auto;
};

struct HyksortStats {
  usize levels = 0;
  usize histogram_iterations = 0;
  usize elements_after = 0;
};

namespace detail {
inline int effective_k(int group_size, int k_max) {
  // Largest k <= k_max that divides the group size evenly; group sizes are
  // kept composite by construction when starting from a power of two.
  for (int k = std::min(k_max, group_size); k >= 2; --k)
    if (group_size % k == 0) return k;
  return group_size;  // prime group: split fully
}
}  // namespace detail

/// HykSort over the given communicator. Works for any rank count whose
/// recursive factorizations are nontrivial (powers of two are the intended
/// use, matching the original implementation).
template <class T>
HyksortStats hyksort(runtime::Comm& comm, std::vector<T>& local,
                     const HyksortConfig& cfg = {}) {
  core::IdentityKey identity;
  HyksortStats stats;
  {
    net::PhaseScope phase(comm.clock(), net::Phase::LocalSort);
    core::local_sort(comm, local, identity, cfg.kernel);
  }

  // Recurse by value on Comm handles (they are cheap views).
  runtime::Comm group = comm;
  while (group.size() > 1) {
    ++stats.levels;
    const int P = group.size();
    const int k = detail::effective_k(P, cfg.k);
    const int sub = P / k;  // ranks per subgroup

    // Global targets: split the group's keys into k equal buckets scaled to
    // the subgroup capacities. The size reduction is part of splitter
    // determination, so it counts as Histogram, not Other.
    u64 N = 0;
    {
      net::PhaseScope phase(group.clock(), net::Phase::Histogram);
      N = group.allreduce_value<u64>(local.size(),
                                     [](u64 a, u64 b) { return a + b; });
    }
    std::vector<usize> targets(k - 1);
    for (int b = 0; b + 1 < k; ++b)
      targets[b] = static_cast<usize>(
          static_cast<double>(N) * (b + 1) / k);

    core::MultiselectConfig mcfg;
    mcfg.epsilon = cfg.epsilon;
    const auto sp = core::find_splitters(
        group, std::span<const T>(local.data(), local.size()), identity,
        std::span<const usize>(targets), mcfg);
    stats.histogram_iterations += sp.iterations;

    // Cut local data into k buckets; bucket g goes to subgroup g, spread so
    // rank (g0, j) sends to rank (g, j) — the hypercube-style personalized
    // exchange with k peers. Boundary-cut resolution (two control
    // alltoalls) and bucketing belong to the data movement.
    std::vector<usize> recv_counts;
    std::vector<T> received;
    {
      net::PhaseScope phase(group.clock(), net::Phase::Exchange);
      const std::vector<usize> cuts =
          core::compute_boundary_cuts(group, local.size(), sp);
      std::vector<usize> send(P, 0);
      const int j = group.rank() % sub;  // my index within my subgroup
      usize prev = 0;
      for (int g = 0; g < k; ++g) {
        const usize cut = (g + 1 < k) ? cuts[g] : local.size();
        send[g * sub + j] = cut - prev;
        prev = cut;
      }
      core::note_exchange_metrics(group, send, sizeof(T));
      group.alltoallv_into(std::span<const T>(local.data(), local.size()),
                           std::span<const usize>(send), received,
                           recv_counts);
    }
    core::merge_chunks(group, received, std::span<const usize>(recv_counts),
                       cfg.merge, identity, cfg.kernel);
    local = std::move(received);

    // Descend into my subgroup (the communicator split the paper's
    // Sec. III-C charges against this algorithm). The blocking O(P) split
    // is part of restructuring the exchange, so it counts as Exchange.
    {
      net::PhaseScope phase(group.clock(), net::Phase::Exchange);
      group = group.split(group.rank() / sub, group.rank() % sub);
    }
  }

  stats.elements_after = local.size();
  return stats;
}

}  // namespace hds::baselines
