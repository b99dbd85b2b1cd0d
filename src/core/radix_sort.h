// Non-comparison local-sort kernel: a cache-resident radix sort over the
// KeyTraits order-preserving bijection onto unsigned integers — the same
// projection FIND_SPLITTERS bisects, reused here to make superstep 1 ("fast
// shared-memory sort") and the Sort merge strategy O(n * key_bytes) instead
// of O(n log n) comparisons.
//
// Design (see DESIGN.md, "Local-sort kernel layer"):
//  * one read of the input ORs and ANDs every key image: a byte is constant
//    across the array exactly when (OR ^ AND) is zero there, so its pass is
//    skipped (common for keys that occupy only the low bytes of their type)
//    and RadixSortStats::passes_executed counts the varying bytes;
//  * arrays above kMsdMinBytes get ONE stable MSD scatter on the top 8
//    varying bits into a scratch buffer, which leaves 256 cache-sized
//    buckets; each bucket then runs LSD over its remaining varying bytes,
//    ping-ponging between its scratch range and the same (already vacated)
//    range of the input, so the last pass lands in the input. The whole
//    sort touches DRAM about three times instead of once per pass;
//  * where SSE2 is available, the element size divides a 64-byte line and
//    no MSD bucket exceeds kStreamBucketMaxBytes, the MSD scatter writes
//    its full lines with non-temporal stores through per-bucket line
//    buffers, so the one DRAM-bound pass pays no read-for-ownership;
//  * smaller arrays already fit in cache and run plain LSD on the same pass
//    routine (the MSD split only adds bookkeeping there);
//  * 8-bit digits; every LSD digit histogram of a range is built in one
//    read of it, and a digit constant over the range is skipped;
//  * the scratch buffer is the caller's when it passes one (local_sort
//    passes the rank's recycled spare buffer, Comm::spare, so a warm rank
//    sorts without allocating); otherwise it is allocated per call
//    without zero-fill (the scatter overwrites it) and freed on return;
//  * stable throughout (counting sort per digit), so payload order among
//    equal keys is preserved — unlike introsort.
//
// Records of at most 3x the key width are sorted in place, evaluating the
// key projection once per pass; larger records are sorted as
// (uint key, index) pairs followed by a single gather permutation.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "common/types.h"
#include "core/key_traits.h"

namespace hds::core {

/// What a radix kernel invocation actually did; the caller charges
/// simulated time from these (see Comm::charge_radix_sort).
struct RadixSortStats {
  usize passes_planned = 0;   ///< key_bytes: upper bound for this key type
  usize passes_executed = 0;  ///< key bytes not constant across the input:
                              ///< the byte-digit scatter passes charged
  bool used_pairs = false;    ///< by-key path sorted (key, index) pairs
  bool streamed = false;      ///< the MSD scatter used streaming stores
};

/// Whether radix-sorting T by `KeyFn` goes through materialized
/// (uint key, index) pairs plus a gather, which Comm::charge_radix_sort
/// prices one merge pass above the in-place path. Records of at most 3x
/// the key width are sorted in place.
template <class T, class KeyFn>
inline constexpr bool radix_sorts_pairs = [] {
  using K = std::decay_t<std::invoke_result_t<KeyFn, const T&>>;
  if constexpr (Bisectable<K>) {
    return sizeof(T) > 3 * sizeof(typename KeyTraits<K>::uint_type);
  } else {
    return false;
  }
}();

namespace radix_detail {

inline constexpr int kDigitBits = 8;
inline constexpr usize kBuckets = usize{1} << kDigitBits;

/// Arrays of more bytes than this get the MSD split before LSD; at or
/// below it the array and its scratch fit in a 2 MiB L2 and plain LSD
/// stays cache-resident. Measured on a 4-core Xeon (48 KiB L1d, 2 MiB L2
/// per core) with u64 keys and 16-byte records, 1 and 4 threads: the split
/// tied plain LSD at 1 MiB, won from 2 MiB up (2^20 u64 keys on 4 threads:
/// 0.038 vs 0.080 s) and lost below 512 KiB (2^12 u64 keys: 3x slower).
inline constexpr usize kMsdMinBytes = usize{1} << 20;

/// The MSD scatter streams its output past the cache only when no bucket
/// is larger than this: a bucket above it is not cache-resident in the LSD
/// passes anyway, and on skewed input (Zipf keys) the streamed giant
/// buckets were measured slower than plain stores. Same budget as
/// kMsdMinBytes, a bucket plus its scratch range in a 2 MiB L2.
inline constexpr usize kStreamBucketMaxBytes = kMsdMinBytes;

/// The 8-bit digit of key image `k` at bit `shift`. The image is promoted
/// to u64 first, so u8/u16 images never shift by their own width or more.
template <class UK>
constexpr usize digit(UK k, unsigned shift) {
  return static_cast<usize>((static_cast<u64>(k) >> shift) & (kBuckets - 1));
}

/// Add the histograms of the `ND` digits at `shifts` of [a, a + n) to
/// `hist` in one read. ND is a template argument so the digit loop unrolls.
template <usize ND, class E, class KeyOf>
void count_digits(const E* a, usize n, const unsigned* shifts, usize* hist,
                  KeyOf key_of) {
  for (usize i = 0; i < n; ++i) {
    const auto k = key_of(a[i]);
    for (usize d = 0; d < ND; ++d) ++hist[d * kBuckets + digit(k, shifts[d])];
  }
}

/// Stable LSD over the digits at `shifts` (ascending, at most one per key
/// byte) of [a, a + n), n >= 1, ping-ponging with [b, b + n). Every digit
/// histogram comes from one read of the range; a digit constant over the
/// range is skipped. Returns the buffer that holds the sorted range, a or b.
template <class E, class KeyOf>
E* lsd_passes(E* a, E* b, usize n, std::span<const unsigned> shifts,
              KeyOf key_of) {
  constexpr usize kMaxDigits = sizeof(decltype(key_of(*a)));
  const usize nd = shifts.size();
  // Only the nd histograms in use are zeroed: the buckets of the MSD path
  // call this 256 times per sort.
  std::array<usize, kMaxDigits * kBuckets> hist;
  std::fill_n(hist.begin(), nd * kBuckets, usize{0});
  // Dispatch nd to count_digits<nd>.
  [&]<usize... D>(std::index_sequence<D...>) {
    ((nd == D + 1 ? count_digits<D + 1>(a, n, shifts.data(), hist.data(),
                                        key_of)
                  : void()),
     ...);
  }(std::make_index_sequence<kMaxDigits>{});
  for (usize d = 0; d < nd; ++d) {
    usize* h = &hist[d * kBuckets];
    const unsigned shift = shifts[d];
    if (h[digit(key_of(a[0]), shift)] == n) continue;  // constant digit
    usize acc = 0;
    for (usize v = 0; v < kBuckets; ++v) acc += std::exchange(h[v], acc);
    for (usize i = 0; i < n; ++i)
      b[h[digit(key_of(a[i]), shift)]++] = std::move(a[i]);
    std::swap(a, b);
  }
  return a;
}

#if defined(__SSE2__)
/// Whether scatter_streaming can write E into `b`: a trivially copyable
/// element whose size divides a 64-byte line, and a scratch aligned to
/// that size, so no element straddles a line.
template <class E>
bool can_stream(const E* b) {
  if constexpr (std::is_trivially_copyable_v<E> && 64 % sizeof(E) == 0)
    return reinterpret_cast<std::uintptr_t>(b) % sizeof(E) == 0;
  return false;
}

/// Stable scatter of [a, a + n) into b by the digit at `shift`, bucket v
/// filling b[pos[v] ..) (pos[v] ends one past its last element), through
/// one 64-byte line buffer per bucket (16 KiB, in L1): a full destination
/// line that belongs to one bucket is written with non-temporal stores,
/// so it costs no read-for-ownership; a bucket's partial head and tail
/// lines, shared with its neighbours, are written with plain stores.
/// `start[v]` is bucket v's first index. Requires can_stream(b).
template <class E, class KeyOf>
void scatter_streaming(const E* a, E* b, usize n, unsigned shift,
                       usize* pos, const usize* start, KeyOf key_of) {
  constexpr usize kLine = 64;
  constexpr usize L = kLine / sizeof(E);  // elements per line
  alignas(kLine) std::byte lines[kBuckets * kLine] = {};
  // Slot of index i within its destination line: (base + i) mod L.
  const usize base =
      (reinterpret_cast<std::uintptr_t>(b) / sizeof(E)) & (L - 1);
  for (usize i = 0; i < n; ++i) {
    const usize v = digit(key_of(a[i]), shift);
    const usize idx = pos[v]++;
    const usize slot = (base + idx) & (L - 1);
    std::byte* const line = lines + v * kLine;
    std::memcpy(line + slot * sizeof(E), &a[i], sizeof(E));
    if (slot != L - 1) continue;
    if (idx + 1 >= start[v] + L) {  // the whole line is bucket v's
      const auto* src = reinterpret_cast<const __m128i*>(line);
      auto* dst = reinterpret_cast<__m128i*>(b + (idx + 1 - L));
      for (usize q = 0; q < kLine / 16; ++q)
        _mm_stream_si128(dst + q, _mm_load_si128(src + q));
    } else {  // the bucket's head line
      const usize from = start[v];
      std::memcpy(static_cast<void*>(b + from),
                  line + (slot + 1 - (idx + 1 - from)) * sizeof(E),
                  (idx + 1 - from) * sizeof(E));
    }
  }
  for (usize v = 0; v < kBuckets; ++v) {  // partial tail lines
    const usize end = pos[v];
    const usize filled = (base + end) & (L - 1);
    const usize from = std::max(end - std::min(end, filled), start[v]);
    if (from == end) continue;
    std::memcpy(static_cast<void*>(b + from),
                lines + v * kLine + (filled - (end - from)) * sizeof(E),
                (end - from) * sizeof(E));
  }
  _mm_sfence();
}
#endif

/// Radix sort of `data` by an unsigned key projection `key_of`, called a
/// bounded number of times per element (once per read or scatter of it).
/// Stable. The result is in `data`; extra memory is one n-element scratch:
/// the caller's `scratch` (its first n elements, contents overwritten)
/// when it holds at least n elements, else a buffer allocated for the call.
template <class E, class KeyOf>
RadixSortStats radix_sort_impl(std::span<E> data, KeyOf key_of,
                               std::span<E> scratch = {}) {
  using UK = std::decay_t<decltype(key_of(std::declval<const E&>()))>;
  static_assert(std::is_unsigned_v<UK>,
                "radix sort operates on the KeyTraits uint projection");
  RadixSortStats st;
  st.passes_planned = sizeof(UK);
  const usize n = data.size();
  if (n < 2) return st;

  UK any = 0;
  UK all = static_cast<UK>(~UK{0});
  for (const E& e : data) {
    const UK k = key_of(e);
    any |= k;
    all &= k;
  }
  const u64 varying = static_cast<u64>(static_cast<UK>(any ^ all));
  std::array<unsigned, sizeof(UK)> shifts{};
  usize nd = 0;
  for (unsigned s = 0; s < 8 * sizeof(UK); s += kDigitBits)
    if (digit(varying, s) != 0) shifts[nd++] = s;
  st.passes_executed = nd;
  if (nd == 0) return st;

  std::unique_ptr<E[]> owned;
  if (scratch.size() < n) {
    owned = std::make_unique_for_overwrite<E[]>(n);
    scratch = std::span<E>(owned.get(), n);
  }
  E* const a = data.data();
  E* const b = scratch.data();
  const auto top = static_cast<unsigned>(std::bit_width(varying));
  if (n * sizeof(E) <= kMsdMinBytes || top <= kDigitBits) {
    if (lsd_passes(a, b, n, std::span<const unsigned>(shifts.data(), nd),
                   key_of) != a)
      std::move(b, b + n, a);
    return st;
  }

  // MSD split on the top 8 varying bits (the bits above them are constant).
  const unsigned msd = top - kDigitBits;
  std::array<usize, kBuckets + 1> start{};
  for (usize i = 0; i < n; ++i) ++start[digit(key_of(a[i]), msd) + 1];
  for (usize v = 0; v < kBuckets; ++v) start[v + 1] += start[v];
  std::array<usize, kBuckets> pos{};
  std::copy_n(start.begin(), kBuckets, pos.begin());
#if defined(__SSE2__)
  usize largest = 0;
  for (usize v = 0; v < kBuckets; ++v)
    largest = std::max(largest, start[v + 1] - start[v]);
  if (can_stream(b) && largest * sizeof(E) <= kStreamBucketMaxBytes) {
    scatter_streaming(a, b, n, msd, pos.data(), start.data(), key_of);
    st.streamed = true;
  }
#endif
  if (!st.streamed)
    for (usize i = 0; i < n; ++i)
      b[pos[digit(key_of(a[i]), msd)]++] = std::move(a[i]);

  // Inside a bucket only bits below `msd` vary: LSD over the bytes of those
  // that vary anywhere. A digit that reaches into the bucket-constant bits
  // above `msd` still orders the bucket correctly.
  const u64 low = varying & ((u64{1} << msd) - 1);
  usize nl = 0;
  for (unsigned s = 0; s < msd; s += kDigitBits)
    if (digit(low, s) != 0) shifts[nl++] = s;
  const std::span<const unsigned> low_shifts(shifts.data(), nl);
  for (usize v = 0; v < kBuckets; ++v) {
    const usize lo = start[v];
    const usize m = start[v + 1] - lo;
    if (m == 0) continue;
    if (lsd_passes(b + lo, a + lo, m, low_shifts, key_of) != a + lo)
      std::move(b + lo, b + lo + m, a + lo);
  }
  return st;
}

}  // namespace radix_detail

/// Sort a vector of bisectable keys in place. Stable; equal keys (including
/// -0.0 vs +0.0, which KeyTraits distinguishes) keep their input order.
template <Bisectable T>
RadixSortStats radix_sort_keys(std::vector<T>& keys) {
  using Traits = KeyTraits<T>;
  return radix_detail::radix_sort_impl(
      std::span<T>(keys), [](const T& v) { return Traits::to_uint(v); });
}

/// Sort records by a bisectable key projection. Stable. Records of at most
/// 3x the key width are sorted in place, evaluating the projection once
/// per pass; larger records are sorted as (uint key, index) pairs, with the
/// projection evaluated once per element, and gathered once at the end.
/// A caller's `spare` of exactly data.size() elements (contents
/// overwritten) is the in-place path's scratch, and on the pairs path the
/// gather target, swapped with `data`; without one the kernel allocates.
template <class T, class KeyFn>
RadixSortStats radix_sort_by_key(std::vector<T>& data, KeyFn key,
                                 std::vector<T>* spare = nullptr) {
  using K = std::decay_t<decltype(key(std::declval<T>()))>;
  using Traits = KeyTraits<K>;
  using UK = typename Traits::uint_type;
  const bool use_spare = spare != nullptr && spare->size() == data.size();
  if constexpr (!radix_sorts_pairs<T, KeyFn>) {
    return radix_detail::radix_sort_impl(
        std::span<T>(data),
        [&key](const T& v) { return Traits::to_uint(key(v)); },
        use_spare ? std::span<T>(*spare) : std::span<T>());
  } else {
    struct Ref {
      UK k;
      usize i;
    };
    const usize n = data.size();
    std::vector<Ref> refs;
    refs.reserve(n);
    for (usize i = 0; i < n; ++i)
      refs.push_back(Ref{Traits::to_uint(key(data[i])), i});
    RadixSortStats st = radix_detail::radix_sort_impl(
        std::span<Ref>(refs), [](const Ref& r) { return r.k; });
    if (use_spare) {
      for (usize i = 0; i < n; ++i) (*spare)[i] = std::move(data[refs[i].i]);
      data.swap(*spare);
    } else {
      std::vector<T> out;
      out.reserve(n);
      for (const Ref& r : refs) out.push_back(std::move(data[r.i]));
      data = std::move(out);
    }
    st.used_pairs = true;
    return st;
  }
}

}  // namespace hds::core
