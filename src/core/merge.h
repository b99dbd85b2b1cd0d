// Local k-way merging of the sorted chunks received in the exchange
// (Sec. V-C and the merging study of Sec. VI-E2). Four strategies:
//
//  * Sort        — re-sort the concatenation with a fast shared-memory sort
//                  (what the paper's evaluated implementation does);
//  * BinaryTree  — out-of-place pairwise merge tree, O(n log k), each element
//                  moves log k times;
//  * Tournament  — stable k-way loser-tree merge (kway_merge_into in
//                  merge_inplace.h), O(n log k) comparisons but each
//                  element moves once;
//  * Auto        — per call, whichever of Tournament and Sort the cost model
//                  prices cheaper: the k-way merge at small fan-in, the
//                  re-sort once the run heads fall out of cache (Sec. VI-E2).
#pragma once

#include <algorithm>
#include <bit>
#include <limits>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "common/error.h"
#include "core/local_sort.h"
#include "core/merge_inplace.h"
#include "runtime/comm.h"

namespace hds::core {

namespace detail {

/// View of the rank's pooled byte arena (Comm::scratch_arena) as `n`
/// elements of T. The arena is grown on demand and then reused across
/// merge passes and sort calls, replacing the per-call staging allocations
/// the merge strategies used to make. T must be trivially copyable (the
/// same constraint the wire format imposes) because the bytes are
/// reinterpreted without constructing objects. The returned span is
/// invalidated by the next pooled_scratch call on the same rank.
template <class T>
std::span<T> pooled_scratch(runtime::Comm& comm, usize n) {
  static_assert(std::is_trivially_copyable_v<T>);
  const std::span<std::byte> arena =
      comm.scratch_arena(n * sizeof(T) + alignof(T));
  void* p = arena.data();
  usize space = arena.size();
  p = std::align(alignof(T), n * sizeof(T), p, space);
  HDS_CHECK(p != nullptr);
  return {static_cast<T*>(p), n};
}

}  // namespace detail

enum class MergeStrategy : u8 { Sort, BinaryTree, Tournament, Auto };

constexpr std::string_view merge_name(MergeStrategy m) {
  switch (m) {
    case MergeStrategy::Sort: return "sort";
    case MergeStrategy::BinaryTree: return "binary-tree";
    case MergeStrategy::Tournament: return "tournament";
    case MergeStrategy::Auto: return "auto";
  }
  return "?";
}

/// Simulated seconds MergeStrategy::Sort would charge to re-sort the runs
/// concatenated in `data`, in O(k) and without touching the run interiors.
/// The kernel resolves exactly as local_sort resolves it. For the radix
/// kernel the scatter-pass count is bounded from the run endpoints: every
/// key lies between the smallest run head and the largest run tail, so the
/// digits above their highest differing byte are constant and the kernel
/// skips them.
template <class T, class KeyFn>
double resort_charge(const net::CostModel& cost, std::span<const T> data,
                     std::span<const usize> counts, KeyFn key,
                     LocalSortKernel kernel) {
  using K = std::decay_t<decltype(key(std::declval<T>()))>;
  const usize n = data.size();
  if constexpr (Bisectable<K>) {
    if (resolve_local_sort_kernel<K>(cost.machine(), n, kernel) ==
        LocalSortKernel::Radix) {
      using Traits = KeyTraits<K>;
      using UK = typename Traits::uint_type;
      UK lo = std::numeric_limits<UK>::max();
      UK hi = 0;
      usize off = 0;
      for (usize c : counts) {
        if (c > 0) {
          lo = std::min(lo, Traits::to_uint(key(data[off])));
          hi = std::max(hi, Traits::to_uint(key(data[off + c - 1])));
        }
        off += c;
      }
      const usize passes =
          lo >= hi ? 0
                   : (static_cast<usize>(std::bit_width(
                          static_cast<u64>(lo ^ hi))) +
                      radix_detail::kDigitBits - 1) /
                         radix_detail::kDigitBits;
      return cost.radix_sort(n, passes) +
             (radix_sorts_pairs<T, KeyFn> ? cost.merge_pass(n) : 0.0);
    }
  }
  return cost.sort(n);
}

/// Resolve MergeStrategy::Auto for the runs concatenated in `data`:
/// Tournament when the cost model prices the k-way merge strictly below
/// the re-sort (resort_charge), Sort otherwise. Mirrors
/// LocalSortKernel::Auto: the merge wins at small fan-in, and the re-sort
/// keeps the fan-ins where the cache-miss term of
/// CostModel::kway_heap_merge makes merging dearer. Any other requested
/// strategy resolves to itself.
template <class T, class KeyFn>
MergeStrategy resolve_merge_strategy(const net::CostModel& cost,
                                     std::span<const T> data,
                                     std::span<const usize> counts, KeyFn key,
                                     MergeStrategy requested,
                                     LocalSortKernel kernel) {
  if (requested != MergeStrategy::Auto) return requested;
  const auto nonempty = static_cast<usize>(std::count_if(
      counts.begin(), counts.end(), [](usize c) { return c > 0; }));
  return cost.kway_heap_merge(data.size(), nonempty) <
                 resort_charge(cost, data, counts, key, kernel)
             ? MergeStrategy::Tournament
             : MergeStrategy::Sort;
}

/// Merge `k` sorted runs (concatenated in `data`, lengths in `counts`) into
/// a single sorted sequence, charging simulated time per strategy. The Sort
/// strategy re-sorts through the local-sort kernel layer, so `kernel`
/// selects the same comparison/radix dispatch as superstep 1; Auto picks
/// Tournament or Sort per call (resolve_merge_strategy).
template <class T, class KeyFn>
void merge_chunks(runtime::Comm& comm, std::vector<T>& data,
                  std::span<const usize> counts, MergeStrategy strategy,
                  KeyFn key,
                  LocalSortKernel kernel = LocalSortKernel::Auto) {
  net::PhaseScope phase(comm.clock(), net::Phase::Merge);
  const usize n = data.size();
  // Comparator invocations feed the MergeComparisons counter for the
  // comparison-based strategies; the Sort strategy's radix path does no
  // comparisons, so it emits nothing.
  u64 comparisons = 0;
  auto less = [&](const T& a, const T& b) {
    ++comparisons;
    return key(a) < key(b);
  };

  usize nonempty = 0;
  for (usize c : counts)
    if (c > 0) ++nonempty;
  if (nonempty <= 1) return;  // zero or one chunk: already sorted

  switch (resolve_merge_strategy(comm.cost(), std::span<const T>(data),
                                 counts, key, strategy, kernel)) {
    case MergeStrategy::Auto:  // resolve_merge_strategy never returns it
    case MergeStrategy::Sort: {
      local_sort(comm, data, key, kernel);
      return;
    }
    case MergeStrategy::BinaryTree: {
      // Out-of-place pairwise merge levels; each level halves the number of
      // runs and touches every element once.
      std::vector<std::pair<usize, usize>> runs;  // (offset, length)
      usize off = 0;
      for (usize c : counts) {
        if (c > 0) runs.emplace_back(off, c);
        off += c;
      }
      if (runs.size() == 2 && runs[0].first == 0 &&
          runs[1].first == runs[0].second &&
          runs[0].second + runs[1].second == n) {
        // Two adjacent runs spanning the buffer — the shape every pull-path
        // exchange produces at P=2 and the one-factor overlap path feeds.
        // Merge in place: only the second run is staged (pooled scratch of
        // l2 elements, not a full-size ping-pong buffer), then a backward
        // merge places everything at its final offset.
        const usize l1 = runs[0].second;
        const usize l2 = runs[1].second;
        std::span<T> scratch = detail::pooled_scratch<T>(comm, l2);
        std::copy(data.begin() + l1, data.end(), scratch.begin());
        merge_tail_inplace(std::span<T>(data), l1,
                           std::span<const T>(scratch), less);
        comm.charge_merge_pass(n);
        comm.metrics().add(obs::Counter::MergeComparisons, comparisons);
        return;
      }
      // Ping-pong between `data` and the pooled arena — no per-call
      // full-size buffer allocation.
      std::span<T> src(data.data(), n);
      std::span<T> dst = detail::pooled_scratch<T>(comm, n);
      while (runs.size() > 1) {
        std::vector<std::pair<usize, usize>> next;
        usize out_off = 0;
        for (usize i = 0; i + 1 < runs.size(); i += 2) {
          const auto [o1, l1] = runs[i];
          const auto [o2, l2] = runs[i + 1];
          std::merge(src.begin() + o1, src.begin() + o1 + l1,
                     src.begin() + o2, src.begin() + o2 + l2,
                     dst.begin() + out_off, less);
          next.emplace_back(out_off, l1 + l2);
          out_off += l1 + l2;
        }
        if (runs.size() % 2 == 1) {
          const auto [o, l] = runs.back();
          std::copy(src.begin() + o, src.begin() + o + l,
                    dst.begin() + out_off);
          next.emplace_back(out_off, l);
        }
        comm.charge_merge_pass(n);
        runs.swap(next);
        std::swap(src, dst);
      }
      if (src.data() != data.data())
        std::copy(src.begin(), src.end(), data.begin());
      comm.metrics().add(obs::Counter::MergeComparisons, comparisons);
      return;
    }
    case MergeStrategy::Tournament: {
      // The first run is the base of the two-segment loser-tree kernel and
      // the others are its chunks. The output is the rank's spare buffer
      // (Comm::spare), swapped into `data`, so the runs' buffer becomes the
      // spare and a warm rank merges without allocating.
      std::vector<std::span<const T>> runs;
      usize off = 0;
      for (usize c : counts) {
        if (c > 0)
          runs.emplace_back(std::span<const T>(data.data() + off, c));
        off += c;
      }
      std::vector<T>& out = comm.spare<T>(n);
      HDS_CHECK(&out != &data);
      kway_merge_into(std::span<T>(out), runs.front(),
                      std::span<const std::span<const T>>(runs).subspan(1),
                      less);
      data.swap(out);
      comm.charge_kway_merge(n, nonempty);
      comm.metrics().add(obs::Counter::MergeComparisons, comparisons);
      return;
    }
  }
}

}  // namespace hds::core
