// Non-comparison local-sort kernel: a cache-efficient LSD radix sort over
// the KeyTraits order-preserving bijection onto unsigned integers — the same
// projection FIND_SPLITTERS bisects, reused here to make superstep 1 ("fast
// shared-memory sort") and the Sort merge strategy O(n * key_bytes) instead
// of O(n log n) comparisons.
//
// Design (see DESIGN.md, "Local-sort kernel layer"):
//  * 8-bit digits — key_bytes counting passes over the data;
//  * all per-pass digit histograms are built in ONE read of the input, so a
//    pass whose digit is constant across the whole array (common for keys
//    that occupy only the low bytes of their type) is detected and skipped
//    without ever touching the data for that pass;
//  * ping-pong scatter between the input and one scratch buffer, allocated
//    per call without zero-fill (the scatter overwrites it) and freed on
//    return so it adds nothing to a rank's resident memory between sorts;
//    if an odd number of passes executed, the result is copied back;
//  * stable throughout (counting sort per digit), so payload order among
//    equal keys is preserved — unlike introsort.
//
// Records are sorted by materializing (uint key, value) pairs — the key
// projection runs exactly once per element, not O(log n) times as under a
// comparison sort — or, for large values, (uint key, index) pairs followed
// by a single gather permutation.
#pragma once

#include <algorithm>
#include <array>
#include <memory>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/types.h"
#include "core/key_traits.h"

namespace hds::core {

/// What a radix kernel invocation actually did; the caller charges
/// simulated time from these (see Comm::charge_radix_sort).
struct RadixSortStats {
  usize passes_planned = 0;   ///< key_bytes: upper bound for this key type
  usize passes_executed = 0;  ///< scatter passes run (trivial digits skipped)
  bool used_pairs = false;    ///< by-key path materialized (key, value) pairs
};

namespace radix_detail {

inline constexpr int kDigitBits = 8;
inline constexpr usize kBuckets = usize{1} << kDigitBits;

/// LSD radix sort of `data` by an unsigned key projection `key_of` (called
/// up to key_bytes + 1 times per element; callers that need single key
/// extraction materialize pairs first). Stable.
template <class E, class KeyOf>
RadixSortStats lsd_radix_sort(std::vector<E>& data, KeyOf key_of) {
  using UK = std::decay_t<decltype(key_of(std::declval<const E&>()))>;
  static_assert(std::is_unsigned_v<UK>,
                "radix sort operates on the KeyTraits uint projection");
  constexpr usize kPasses = sizeof(UK);
  RadixSortStats st;
  st.passes_planned = kPasses;
  const usize n = data.size();
  if (n < 2) return st;

  // Histograms for every pass in a single read of the input.
  std::vector<usize> hist(kPasses * kBuckets, 0);
  for (const E& e : data) {
    const UK k = key_of(e);
    for (usize p = 0; p < kPasses; ++p)
      ++hist[p * kBuckets + ((k >> (p * kDigitBits)) & (kBuckets - 1))];
  }

  const auto scratch = std::make_unique_for_overwrite<E[]>(n);
  E* src = data.data();
  E* dst = scratch.get();
  std::array<usize, kBuckets> offs;
  for (usize p = 0; p < kPasses; ++p) {
    const usize* h = &hist[p * kBuckets];
    // Trivial-digit detection: one bucket holding every element means the
    // scatter would be the identity permutation.
    bool trivial = false;
    for (usize b = 0; b < kBuckets; ++b) {
      if (h[b] == n) {
        trivial = true;
        break;
      }
    }
    if (trivial) continue;
    usize acc = 0;
    for (usize b = 0; b < kBuckets; ++b) {
      offs[b] = acc;
      acc += h[b];
    }
    const usize shift = p * kDigitBits;
    for (usize i = 0; i < n; ++i) {
      const usize d =
          static_cast<usize>((key_of(src[i]) >> shift) & (kBuckets - 1));
      dst[offs[d]++] = src[i];
    }
    std::swap(src, dst);
    ++st.passes_executed;
  }
  if (src != data.data()) std::copy(src, src + n, data.data());
  return st;
}

}  // namespace radix_detail

/// Sort a vector of bisectable keys in place. Stable; equal keys (including
/// -0.0 vs +0.0, which KeyTraits distinguishes) keep their input order.
template <Bisectable T>
RadixSortStats radix_sort_keys(std::vector<T>& keys) {
  using Traits = KeyTraits<T>;
  return radix_detail::lsd_radix_sort(
      keys, [](const T& v) { return Traits::to_uint(v); });
}

/// Sort records by a bisectable key projection. The projection is evaluated
/// exactly once per element: small records ride along as (uint key, value)
/// pairs through every pass; large records are sorted as (uint key, index)
/// pairs and gathered once at the end. Stable.
template <class T, class KeyFn>
RadixSortStats radix_sort_by_key(std::vector<T>& data, KeyFn key) {
  using K = std::decay_t<decltype(key(std::declval<T>()))>;
  using Traits = KeyTraits<K>;
  using UK = typename Traits::uint_type;
  RadixSortStats st;
  st.passes_planned = sizeof(UK);
  st.used_pairs = true;
  const usize n = data.size();
  if (n < 2) return st;

  if constexpr (sizeof(T) <= 3 * sizeof(UK)) {
    struct Pair {
      UK k;
      T v;
    };
    std::vector<Pair> pairs;
    pairs.reserve(n);
    for (const T& v : data) pairs.push_back(Pair{Traits::to_uint(key(v)), v});
    st = radix_detail::lsd_radix_sort(pairs,
                                      [](const Pair& p) { return p.k; });
    for (usize i = 0; i < n; ++i) data[i] = std::move(pairs[i].v);
  } else {
    struct Ref {
      UK k;
      usize i;
    };
    std::vector<Ref> refs;
    refs.reserve(n);
    for (usize i = 0; i < n; ++i)
      refs.push_back(Ref{Traits::to_uint(key(data[i])), i});
    st = radix_detail::lsd_radix_sort(refs,
                                      [](const Ref& r) { return r.k; });
    std::vector<T> out;
    out.reserve(n);
    for (const Ref& r : refs) out.push_back(std::move(data[r.i]));
    data = std::move(out);
  }
  st.used_pairs = true;
  return st;
}

}  // namespace hds::core
