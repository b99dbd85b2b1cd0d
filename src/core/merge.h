// Local k-way merging of the sorted chunks received in the exchange
// (Sec. V-C and the merging study of Sec. VI-E2). Four strategies:
//
//  * Sort        — re-sort the concatenation with a fast shared-memory sort
//                  (what the paper's evaluated implementation does);
//  * BinaryTree  — pairwise merge tree, O(n log k), charged one pass over
//                  every element per level: two runs merge in place, more
//                  go through kway_merge_into, whose segments are merged by
//                  exactly such a tree;
//  * Tournament  — the stable k-way merge kernel (kway_merge_into in
//                  merge_inplace.h): the runs cut at exact output ranks into
//                  cache-sized segments, each merged by a tree of branch-free
//                  2-way merges, four segments stepped in lockstep; O(n log k)
//                  comparisons, charged as the k-way loser-tree merge of the
//                  cost model (CostModel::kway_heap_merge);
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

namespace detail {

/// The non-empty runs concatenated in `data`, lengths in `counts`.
template <class T>
std::vector<std::span<const T>> split_runs(const std::vector<T>& data,
                                           std::span<const usize> counts) {
  std::vector<std::span<const T>> runs;
  usize off = 0;
  for (usize c : counts) {
    if (c > 0) runs.emplace_back(data.data() + off, c);
    off += c;
  }
  return runs;
}

/// kway_merge_into of `runs` (views into `data`). The output is the
/// rank's spare buffer (Comm::spare), swapped into `data`, so the runs'
/// buffer becomes the spare and a warm rank merges without allocating.
/// Returns the comparisons made.
template <class T, class Less>
u64 merge_runs_into_spare(runtime::Comm& comm, std::vector<T>& data,
                          std::span<const std::span<const T>> runs,
                          Less less) {
  std::vector<T>& out = comm.spare<T>(data.size());
  HDS_CHECK(&out != &data);
  const u64 comparisons =
      kway_merge_into(std::span<T>(out), runs.front(), runs.subspan(1), less);
  data.swap(out);
  return comparisons;
}

}  // namespace detail

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
  // comparisons, so it emits nothing. The k-way kernel counts its own, so
  // its hot loop gets a comparator without a side effect.
  auto by_key = [&key](const T& a, const T& b) { return key(a) < key(b); };
  u64 comparisons = 0;
  auto less = [&](const T& a, const T& b) {
    ++comparisons;
    return by_key(a, b);
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
      // Pairwise merge levels; each level halves the number of runs and
      // is charged one pass over every element.
      const std::vector<std::span<const T>> runs =
          detail::split_runs(data, counts);
      if (runs.size() == 2) {
        // Two adjacent runs spanning the buffer — the shape every pull-path
        // exchange produces at P=2 and the one-factor overlap path feeds.
        // Merge in place: only the second run is staged (pooled scratch of
        // l2 elements, not a full-size buffer), then a backward merge
        // places everything at its final offset.
        const usize l1 = runs[0].size();
        const usize l2 = runs[1].size();
        std::span<T> scratch = detail::pooled_scratch<T>(comm, l2);
        std::copy(data.begin() + l1, data.end(), scratch.begin());
        merge_tail_inplace(std::span<T>(data), l1,
                           std::span<const T>(scratch), less);
        comm.charge_merge_pass(n);
        comm.metrics().add(obs::Counter::MergeComparisons, comparisons);
        return;
      }
      // More runs: the k-way kernel's pairwise tree, into the spare.
      comparisons = detail::merge_runs_into_spare(
          comm, data, std::span<const std::span<const T>>(runs), by_key);
      for (usize width = 1; width < runs.size(); width *= 2)
        comm.charge_merge_pass(n);
      comm.metrics().add(obs::Counter::MergeComparisons, comparisons);
      return;
    }
    case MergeStrategy::Tournament: {
      const std::vector<std::span<const T>> runs =
          detail::split_runs(data, counts);
      comparisons = detail::merge_runs_into_spare(
          comm, data, std::span<const std::span<const T>>(runs), by_key);
      comm.charge_kway_merge(n, nonempty);
      comm.metrics().add(obs::Counter::MergeComparisons, comparisons);
      return;
    }
  }
}

}  // namespace hds::core
