// Sample sort (Sec. III-A): the classic three-superstep algorithm, with both
// random sampling (Frazer & McKellar lineage) and regular sampling
// (Shi & Schaeffer). Splitters are chosen once from a sample — fast, but
// with no load-balance guarantee; the resulting imbalance is exactly what
// the histogramming approach of the paper eliminates.
#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "common/rng.h"
#include "core/exchange.h"
#include "core/key_traits.h"
#include "core/local_sort.h"
#include "core/merge.h"
#include "runtime/comm.h"

namespace hds::baselines {

enum class Sampling : u8 { Random, Regular };

struct SampleSortConfig {
  Sampling sampling = Sampling::Regular;
  /// Oversampling ratio s: samples contributed per rank.
  usize oversampling = 32;
  u64 seed = 1;
  core::MergeStrategy merge = core::MergeStrategy::Sort;
  core::LocalSortKernel kernel = core::LocalSortKernel::Auto;
};

struct SampleSortStats {
  usize elements_after = 0;
  /// max_i n'_i / (N/P): 1.0 is perfect balance.
  double imbalance = 1.0;
};

/// Sort a distributed vector with sample sort. Output partition sizes are
/// whatever the splitters produce (no balance guarantee).
template <class T>
SampleSortStats sample_sort(runtime::Comm& comm, std::vector<T>& local,
                            const SampleSortConfig& cfg = {}) {
  using Traits = core::KeyTraits<T>;
  core::IdentityKey identity;
  const int P = comm.size();

  // Superstep 0: local sort (needed for regular sampling and for cheap
  // partitioning by binary search).
  {
    net::PhaseScope phase(comm.clock(), net::Phase::LocalSort);
    core::local_sort(comm, local, identity, cfg.kernel);
  }

  // Superstep 1: sampling.
  std::vector<T> my_sample;
  {
    net::PhaseScope phase(comm.clock(), net::Phase::Histogram);
    const usize s = std::min(cfg.oversampling, local.size());
    if (cfg.sampling == Sampling::Regular) {
      // Probe evenly from the locally sorted partition.
      for (usize i = 0; i < s; ++i)
        my_sample.push_back(local[(local.size() - 1) * (2 * i + 1) /
                                  (2 * s)]);
    } else {
      Xoshiro256 rng(hash_mix(cfg.seed, comm.rank()));
      for (usize i = 0; i < s; ++i)
        my_sample.push_back(local[rng.uniform_u64(0, local.size() - 1)]);
    }
    comm.charge_control_scan(s);
  }

  // Superstep 2: the central processor sorts the samples and broadcasts
  // P-1 splitters.
  std::vector<T> splitters(P - 1);
  {
    net::PhaseScope phase(comm.clock(), net::Phase::Histogram);
    std::vector<T> gathered =
        comm.gatherv(std::span<const T>(my_sample), /*root=*/0);
    if (comm.rank() == 0) {
      std::sort(gathered.begin(), gathered.end());
      comm.charge_control_sort(gathered.size());
      for (int i = 1; i < P; ++i) {
        const usize idx = gathered.empty()
                              ? 0
                              : std::min(gathered.size() - 1,
                                         i * gathered.size() / P);
        splitters[i - 1] =
            gathered.empty() ? T{} : gathered[idx];
      }
    }
    if (P > 1) comm.broadcast(splitters.data(), splitters.size(), 0);
  }

  // Superstep 3: partition by splitters and exchange.
  std::vector<T> received;
  std::vector<usize> recv_counts;
  {
    net::PhaseScope phase(comm.clock(), net::Phase::Exchange);
    std::vector<usize> send(P, 0);
    usize prev = 0;
    for (int d = 0; d < P - 1; ++d) {
      const usize cut = core::count_below_equal(
          std::span<const T>(local.data(), local.size()), splitters[d],
          identity);
      send[d] = cut - prev;
      prev = cut;
    }
    send[P - 1] = local.size() - prev;
    comm.charge_binary_search(local.size(), P - 1);
    core::note_exchange_metrics(comm, send, sizeof(T));
    comm.alltoallv_into(std::span<const T>(local.data(), local.size()),
                        std::span<const usize>(send), received, recv_counts);
  }

  // Final merge of received runs.
  core::merge_chunks(comm, received, std::span<const usize>(recv_counts),
                     cfg.merge, identity, cfg.kernel);
  local = std::move(received);

  SampleSortStats stats;
  stats.elements_after = local.size();
  // Imbalance verification reductions: part of assessing the sampling
  // quality, so they count as Histogram, not Other.
  net::PhaseScope stats_phase(comm.clock(), net::Phase::Histogram);
  const u64 N =
      comm.allreduce_value<u64>(local.size(), [](u64 a, u64 b) { return a + b; });
  const u64 max_n = comm.allreduce_value<u64>(
      local.size(), [](u64 a, u64 b) { return std::max(a, b); });
  stats.imbalance =
      N == 0 ? 1.0
             : static_cast<double>(max_n) * P / static_cast<double>(N);
  (void)Traits::to_uint(T{});  // T must be a bisectable key type
  return stats;
}

}  // namespace hds::baselines
