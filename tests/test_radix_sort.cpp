// The local-sort kernel layer: radix sort property tests against std::sort
// over every KeyTraits type (including IEEE specials) on both sides of the
// MSD-split threshold, skewed MSD buckets, stability, the streaming MSD
// scatter at every scratch alignment, pass-skipping stats,
// batched binary searches, the Auto crossover, and the kernel x
// exchange-algorithm grid through the full distributed sort.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "core/histogram_sort.h"
#include "core/local_sort.h"
#include "core/radix_sort.h"
#include "runtime/team.h"
#include "workload/distributions.h"

namespace hds::core {
namespace {

using runtime::Comm;
using runtime::Team;

// ---------------------------------------------------------------------------
// Typed property tests: radix_sort_keys must agree with std::sort.
// ---------------------------------------------------------------------------

template <class T>
T random_key(Xoshiro256& rng) {
  if constexpr (std::is_same_v<T, float>) {
    return static_cast<float>((rng.uniform01() - 0.5) * 1e6);
  } else if constexpr (std::is_same_v<T, double>) {
    return (rng.uniform01() - 0.5) * 1e12;
  } else if constexpr (std::is_signed_v<T>) {
    return static_cast<T>(rng());  // wraps over the full signed range
  } else {
    return static_cast<T>(rng());
  }
}

template <class T>
class RadixTyped : public ::testing::Test {};

using KeyTypes = ::testing::Types<u32, u64, i32, i64, float, double>;
TYPED_TEST_SUITE(RadixTyped, KeyTypes);

template <class T>
void expect_matches_std_sort(std::vector<T> data) {
  std::vector<T> expected = data;
  std::sort(expected.begin(), expected.end());
  const RadixSortStats st = radix_sort_keys(data);
  EXPECT_TRUE(std::is_sorted(data.begin(), data.end()));
  ASSERT_EQ(data.size(), expected.size());
  for (usize i = 0; i < data.size(); ++i)
    EXPECT_EQ(data[i], expected[i]) << "mismatch at index " << i;
  EXPECT_EQ(st.passes_planned,
            sizeof(typename KeyTraits<T>::uint_type));
  EXPECT_LE(st.passes_executed, st.passes_planned);
}

TYPED_TEST(RadixTyped, RandomFullRange) {
  Xoshiro256 rng(2024);
  std::vector<TypeParam> data(5000);
  for (auto& v : data) v = random_key<TypeParam>(rng);
  expect_matches_std_sort(std::move(data));
}

TYPED_TEST(RadixTyped, DuplicatesHeavy) {
  Xoshiro256 rng(7);
  std::vector<TypeParam> data(4000);
  for (auto& v : data)
    v = static_cast<TypeParam>(static_cast<i64>(rng() % 17) - 8);
  expect_matches_std_sort(std::move(data));
}

TYPED_TEST(RadixTyped, PreSorted) {
  std::vector<TypeParam> data(3000);
  for (usize i = 0; i < data.size(); ++i)
    data[i] = static_cast<TypeParam>(static_cast<i64>(i) - 1500);
  expect_matches_std_sort(std::move(data));
}

TYPED_TEST(RadixTyped, ReverseSorted) {
  std::vector<TypeParam> data(3000);
  for (usize i = 0; i < data.size(); ++i)
    data[i] =
        static_cast<TypeParam>(1500 - static_cast<i64>(i));
  expect_matches_std_sort(std::move(data));
}

TYPED_TEST(RadixTyped, EmptyAndSingle) {
  expect_matches_std_sort(std::vector<TypeParam>{});
  expect_matches_std_sort(std::vector<TypeParam>{TypeParam{1}});
}

TYPED_TEST(RadixTyped, AllEqual) {
  expect_matches_std_sort(
      std::vector<TypeParam>(2000, static_cast<TypeParam>(42)));
}

// ---------------------------------------------------------------------------
// IEEE-754 specials: +-0.0, +-inf, denormals, negatives.
// ---------------------------------------------------------------------------

template <class F>
void float_specials_case() {
  using Lim = std::numeric_limits<F>;
  Xoshiro256 rng(33);
  std::vector<F> data = {F{0.0},       -F{0.0},     Lim::infinity(),
                         -Lim::infinity(), Lim::denorm_min(),
                         -Lim::denorm_min(), Lim::max(), Lim::lowest(),
                         F{-1.5},      F{1.5}};
  for (int i = 0; i < 500; ++i)
    data.push_back(static_cast<F>((rng.uniform01() - 0.5) * 1e3));
  std::vector<F> expected = data;
  // Compare in KeyTraits uint space so -0.0 vs +0.0 placement is exact (the
  // radix kernel orders -0.0 before +0.0; operator< calls them equal).
  auto uk = [](F v) { return KeyTraits<F>::to_uint(v); };
  std::sort(expected.begin(), expected.end(),
            [&](F a, F b) { return uk(a) < uk(b); });
  radix_sort_keys(data);
  ASSERT_EQ(data.size(), expected.size());
  for (usize i = 0; i < data.size(); ++i)
    EXPECT_EQ(uk(data[i]), uk(expected[i])) << "bit mismatch at " << i;
  EXPECT_TRUE(std::is_sorted(data.begin(), data.end()));
}

TEST(RadixFloatSpecials, Float) { float_specials_case<float>(); }
TEST(RadixFloatSpecials, Double) { float_specials_case<double>(); }

// ---------------------------------------------------------------------------
// The MSD split: sizes on both sides of radix_detail::kMsdMinBytes, skewed
// buckets, every KeyTraits type and stability of in-place records. Every
// output is compared with a stable sort in KeyTraits uint space, so the
// placement of -0.0 vs +0.0 and of equal keys is checked exactly.
// ---------------------------------------------------------------------------

/// Element counts around the MSD threshold for elements of `bytes` bytes:
/// the largest plain-LSD size, the smallest split size, and a larger one.
std::vector<usize> threshold_sizes(usize bytes) {
  const usize edge = radix_detail::kMsdMinBytes / bytes;
  return {edge, edge + 1, 3 * edge + 7};
}

template <class T>
void expect_matches_stable_sort(std::vector<T> data) {
  auto uk = [](T v) { return KeyTraits<T>::to_uint(v); };
  std::vector<T> expected = data;
  std::stable_sort(expected.begin(), expected.end(),
                   [&](T a, T b) { return uk(a) < uk(b); });
  radix_sort_keys(data);
  ASSERT_EQ(data.size(), expected.size());
  EXPECT_EQ(std::memcmp(data.data(), expected.data(), data.size() * sizeof(T)),
            0);
}

template <class T>
T spread_key(Xoshiro256& rng) {
  if constexpr (std::is_floating_point_v<T>) {
    using Lim = std::numeric_limits<T>;
    switch (rng() % 16) {
      case 0: return T{0.0};
      case 1: return -T{0.0};
      case 2: return Lim::infinity();
      case 3: return -Lim::infinity();
      default: return static_cast<T>((rng.uniform01() - 0.5) * 1e6);
    }
  } else {
    return static_cast<T>(rng());
  }
}

template <class T>
class RadixMsdTyped : public ::testing::Test {};

using AllKeyTypes =
    ::testing::Types<u8, u16, u32, u64, i8, i16, i32, i64, float, double>;
TYPED_TEST_SUITE(RadixMsdTyped, AllKeyTypes);

TYPED_TEST(RadixMsdTyped, BothSidesOfThreshold) {
  Xoshiro256 rng(77);
  for (const usize n : threshold_sizes(sizeof(TypeParam))) {
    std::vector<TypeParam> data(n);
    for (auto& v : data) v = spread_key<TypeParam>(rng);
    expect_matches_stable_sort(std::move(data));
  }
}

TYPED_TEST(RadixMsdTyped, AllEqualAboveThreshold) {
  const usize n = threshold_sizes(sizeof(TypeParam)).back();
  Xoshiro256 rng(78);
  std::vector<TypeParam> data(n, spread_key<TypeParam>(rng));
  const std::vector<TypeParam> before = data;
  const RadixSortStats st = radix_sort_keys(data);
  EXPECT_EQ(st.passes_executed, 0u);
  EXPECT_EQ(std::memcmp(data.data(), before.data(), n * sizeof(TypeParam)),
            0);
}

TEST(RadixMsd, OneOutlierPutsAllButOneKeyInBucketZero) {
  // The outlier sets the top varying bit, so every other key lands in MSD
  // bucket 0, which is then as large as the whole array.
  Xoshiro256 rng(79);
  for (const usize n : threshold_sizes(sizeof(u64))) {
    std::vector<u64> data(n);
    for (auto& v : data) v = rng() & 0xfffff;
    data[n / 3] = u64{1} << 40;
    expect_matches_stable_sort(std::move(data));
  }
}

TEST(RadixMsd, OnlyTopVaryingBitDiffers) {
  // Two key values that differ in one bit: two non-empty MSD buckets and no
  // varying digit below them.
  Xoshiro256 rng(80);
  for (const usize n : threshold_sizes(sizeof(u64))) {
    std::vector<u64> data(n);
    for (auto& v : data) v = 0x5a5a'0000'0000'0005 | ((rng() & 1) << 37);
    const std::vector<u64> copy = data;
    expect_matches_stable_sort(std::move(data));
    std::vector<u64> again = copy;
    EXPECT_EQ(radix_sort_keys(again).passes_executed, 1u);
  }
  // Keys spread below the top bit as well: the top bit alone splits the
  // array into MSD buckets 0 and 128.
  for (const usize n : threshold_sizes(sizeof(u64))) {
    std::vector<u64> data(n);
    for (auto& v : data) v = ((rng() & 1) << 45) | (rng() & 0xffff);
    expect_matches_stable_sort(std::move(data));
  }
}

TEST(RadixMsd, SixteenByteRecordsStableBothSides) {
  struct Rec {
    u64 key;
    u64 seq;
  };
  static_assert(sizeof(Rec) == 16);
  Xoshiro256 rng(81);
  for (const usize n : threshold_sizes(sizeof(Rec))) {
    for (const u64 mask : {u64{0x3ff}, ~u64{0}}) {  // duplicates / distinct
      std::vector<Rec> data(n);
      for (usize i = 0; i < n; ++i) data[i] = Rec{rng() & mask, i};
      std::vector<Rec> expected = data;
      std::stable_sort(expected.begin(), expected.end(),
                       [](const Rec& a, const Rec& b) { return a.key < b.key; });
      const RadixSortStats st =
          radix_sort_by_key(data, [](const Rec& r) { return r.key; });
      EXPECT_FALSE(st.used_pairs);
      ASSERT_EQ(data.size(), expected.size());
      EXPECT_EQ(
          std::memcmp(data.data(), expected.data(), n * sizeof(Rec)), 0)
          << "n=" << n << " mask=" << mask;
    }
  }
}

// ---------------------------------------------------------------------------
// The streaming MSD scatter: element sizes 4 to 32 bytes, the scratch at
// every 8-byte offset from a 64-byte line, both sides of the skew guard.
// ---------------------------------------------------------------------------

struct Rec8 {
  u32 key;
  u32 seq;
};
struct Rec16 {
  u64 key;
  u64 seq;
};
struct Rec24 {  // does not divide a line: always the plain scatter
  u64 key;
  u64 seq;
  u64 pad;
};
struct Rec32 {
  u64 key;
  u64 seq;
  u64 pad[2];
};

/// radix_sort_impl of `data` with its scratch `misalign` bytes past a line
/// boundary; the output must equal std::stable_sort by key byte for byte.
/// Returns whether the MSD scatter streamed.
template <class E, class KeyOf>
bool sort_with_scratch_at(std::vector<E> data, usize misalign, KeyOf key_of) {
  auto less = [&](const E& a, const E& b) { return key_of(a) < key_of(b); };
  std::vector<E> expected = data;
  std::stable_sort(expected.begin(), expected.end(), less);
  const usize n = data.size();
  std::vector<std::byte> raw(n * sizeof(E) + 128);
  const auto addr = reinterpret_cast<std::uintptr_t>(raw.data());
  std::byte* const at = raw.data() + (64 - addr % 64) % 64 + misalign;
  const RadixSortStats st = radix_detail::radix_sort_impl(
      std::span<E>(data), key_of,
      std::span<E>(reinterpret_cast<E*>(at), n));
  EXPECT_EQ(std::memcmp(data.data(), expected.data(), n * sizeof(E)), 0)
      << sizeof(E) << "-byte elements, scratch at +" << misalign;
  return st.streamed;
}

/// Every 8-byte misalignment, on uniform keys (every MSD bucket far below
/// the streaming budget) and on keys of which 60% are one value (one
/// bucket above it). `make(key, seq)` builds an element.
template <class E, class Make, class KeyOf>
void streaming_scatter_cases(Make make, KeyOf key_of) {
  // Twice the MSD threshold, so every sort takes the MSD split.
  const usize n = 2 * radix_detail::kMsdMinBytes / sizeof(E) + 13;
  Xoshiro256 rng(90 + sizeof(E));
  for (const bool skewed : {false, true}) {
    std::vector<E> data(n);
    for (usize i = 0; i < n; ++i)
      data[i] = make(skewed && rng() % 10 < 6 ? u64{12345} : rng(), i);
    for (usize misalign = 0; misalign < 64; misalign += 8) {
      bool want = false;
#if defined(__SSE2__)
      want = !skewed && 64 % sizeof(E) == 0 && misalign % sizeof(E) == 0;
#endif
      EXPECT_EQ(sort_with_scratch_at(data, misalign, key_of), want)
          << sizeof(E) << "-byte elements, scratch at +" << misalign
          << (skewed ? ", skewed" : ", uniform");
    }
  }
}

TEST(RadixStreamingScatter, FourByteKeys) {
  streaming_scatter_cases<u32>([](u64 k, usize) { return static_cast<u32>(k); },
                               [](u32 v) { return v; });
}

TEST(RadixStreamingScatter, EightByteRecords) {
  streaming_scatter_cases<Rec8>(
      [](u64 k, usize i) {
        return Rec8{static_cast<u32>(k), static_cast<u32>(i)};
      },
      [](const Rec8& r) { return r.key; });
}

TEST(RadixStreamingScatter, SixteenByteRecords) {
  streaming_scatter_cases<Rec16>([](u64 k, usize i) { return Rec16{k, i}; },
                                 [](const Rec16& r) { return r.key; });
}

TEST(RadixStreamingScatter, TwentyFourByteRecordsStayPlain) {
  streaming_scatter_cases<Rec24>(
      [](u64 k, usize i) { return Rec24{k, i, ~u64{0}}; },
      [](const Rec24& r) { return r.key; });
}

TEST(RadixStreamingScatter, ThirtyTwoByteRecords) {
  streaming_scatter_cases<Rec32>(
      [](u64 k, usize i) { return Rec32{k, i, {i, ~i}}; },
      [](const Rec32& r) { return r.key; });
}

// ---------------------------------------------------------------------------
// Stats: trivial passes are skipped without touching the data.
// ---------------------------------------------------------------------------

TEST(RadixStats, NarrowRangeSkipsHighPasses) {
  Xoshiro256 rng(5);
  std::vector<u64> data(4096);
  for (auto& v : data) v = rng() & 0xffULL;  // one non-trivial byte
  const RadixSortStats st = radix_sort_keys(data);
  EXPECT_EQ(st.passes_planned, 8u);
  EXPECT_LE(st.passes_executed, 1u);
  EXPECT_TRUE(std::is_sorted(data.begin(), data.end()));
}

TEST(RadixStats, PassesMatchPerByteHistogramRule) {
  // passes_executed must count exactly the bytes whose digit is not the
  // same for every element: the rule the per-byte histograms implemented
  // (a pass is skipped iff one bucket holds all n elements).
  auto histogram_rule = [](const std::vector<u64>& v) {
    usize passes = 0;
    for (unsigned s = 0; s < 64; s += 8) {
      std::vector<usize> h(256, 0);
      for (u64 k : v) ++h[(k >> s) & 0xff];
      if (std::none_of(h.begin(), h.end(),
                       [&](usize c) { return c == v.size(); }))
        ++passes;
    }
    return passes;
  };
  const usize big = 2 * radix_detail::kMsdMinBytes / sizeof(u64) + 5;
  Xoshiro256 rng(8);
  for (const usize n : {usize{2}, usize{3}, usize{700}, big}) {
    for (const u64 mask : {u64{1}, u64{0xff}, u64{0x100}, u64{0xff00ff},
                           u64{0x3fffffff}, u64{1} << 63,
                           u64{0xf0000000000000f0}, ~u64{0}}) {
      for (const u64 base : {u64{0}, u64{0x0123456789abcdef}}) {
        std::vector<u64> data(n);
        for (auto& v : data) v = base ^ (rng() & mask);
        const usize want = histogram_rule(data);
        std::vector<u64> expected = data;
        std::sort(expected.begin(), expected.end());
        const RadixSortStats st = radix_sort_keys(data);
        EXPECT_EQ(st.passes_executed, want)
            << "n=" << n << " mask=" << mask << " base=" << base;
        EXPECT_EQ(data, expected) << "n=" << n << " mask=" << mask;
      }
    }
  }
}

TEST(RadixStats, FullRangeRunsAllPasses) {
  Xoshiro256 rng(6);
  std::vector<u64> data(4096);
  for (auto& v : data) v = rng();
  const RadixSortStats st = radix_sort_keys(data);
  EXPECT_EQ(st.passes_executed, 8u);
  EXPECT_FALSE(st.used_pairs);
}

// ---------------------------------------------------------------------------
// Stability of radix_sort_by_key (both the in-place and the index path).
// ---------------------------------------------------------------------------

TEST(RadixByKey, PairsPathIsStable) {
  struct Rec {  // sizeof == 8 <= 3 * sizeof(u32): sorted in place
    u32 key;
    u32 seq;
  };
  Xoshiro256 rng(21);
  std::vector<Rec> data(3000);
  for (u32 i = 0; i < data.size(); ++i)
    data[i] = Rec{static_cast<u32>(rng() % 50), i};
  std::vector<Rec> expected = data;
  std::stable_sort(expected.begin(), expected.end(),
                   [](const Rec& a, const Rec& b) { return a.key < b.key; });
  const RadixSortStats st =
      radix_sort_by_key(data, [](const Rec& r) { return r.key; });
  EXPECT_FALSE(st.used_pairs);  // small records sort in place
  ASSERT_EQ(data.size(), expected.size());
  for (usize i = 0; i < data.size(); ++i) {
    EXPECT_EQ(data[i].key, expected[i].key);
    EXPECT_EQ(data[i].seq, expected[i].seq) << "instability at " << i;
  }
}

TEST(RadixByKey, IndexPathIsStableForLargeRecords) {
  struct Big {  // sizeof > 3 * sizeof(u32): (key, index) + gather path
    u32 key;
    u64 a, b, c;
    u32 seq;
  };
  Xoshiro256 rng(22);
  std::vector<Big> data(2000);
  for (u32 i = 0; i < data.size(); ++i)
    data[i] = Big{static_cast<u32>(rng() % 40), rng(), rng(), rng(), i};
  std::vector<Big> expected = data;
  std::stable_sort(expected.begin(), expected.end(),
                   [](const Big& a, const Big& b) { return a.key < b.key; });
  const RadixSortStats st =
      radix_sort_by_key(data, [](const Big& r) { return r.key; });
  EXPECT_TRUE(st.used_pairs);
  for (usize i = 0; i < data.size(); ++i) {
    EXPECT_EQ(data[i].key, expected[i].key);
    EXPECT_EQ(data[i].seq, expected[i].seq) << "instability at " << i;
  }
}

TEST(RadixByKey, NegativeDoubleKeys) {
  struct Rec {
    double key;
    u32 seq;
  };
  Xoshiro256 rng(23);
  std::vector<Rec> data(1500);
  for (u32 i = 0; i < data.size(); ++i)
    data[i] = Rec{(rng.uniform01() - 0.5) * 100.0, i};
  radix_sort_by_key(data, [](const Rec& r) { return r.key; });
  EXPECT_TRUE(std::is_sorted(
      data.begin(), data.end(),
      [](const Rec& a, const Rec& b) { return a.key < b.key; }));
}

// ---------------------------------------------------------------------------
// Batched binary search agrees with the per-probe searches.
// ---------------------------------------------------------------------------

TEST(BatchedCounts, MatchesIndividualSearches) {
  Xoshiro256 rng(44);
  std::vector<u64> data(5000);
  for (auto& v : data) v = rng() % 1000;
  std::sort(data.begin(), data.end());
  const std::span<const u64> sorted(data.data(), data.size());

  std::vector<u64> probes;
  for (int i = 0; i < 200; ++i) probes.push_back(rng() % 1100);
  probes.push_back(probes.back());  // duplicate probes must be handled
  probes.push_back(0);
  probes.push_back(2000);  // out of range both sides
  std::sort(probes.begin(), probes.end());

  IdentityKey id;
  std::vector<usize> lb(probes.size()), ub(probes.size());
  batched_counts(sorted, std::span<const u64>(probes), id, lb.data(),
                 ub.data());
  for (usize i = 0; i < probes.size(); ++i) {
    EXPECT_EQ(lb[i], count_below(sorted, probes[i], id)) << "probe " << i;
    EXPECT_EQ(ub[i], count_below_equal(sorted, probes[i], id))
        << "probe " << i;
  }
}

TEST(BatchedCounts, EmptyHaystackAndProbes) {
  IdentityKey id;
  std::vector<u64> none;
  std::vector<u64> probes = {1, 2, 3};
  std::vector<usize> lb(3, 99), ub(3, 99);
  batched_counts(std::span<const u64>(none.data(), 0),
                 std::span<const u64>(probes), id, lb.data(), ub.data());
  for (usize i = 0; i < 3; ++i) {
    EXPECT_EQ(lb[i], 0u);
    EXPECT_EQ(ub[i], 0u);
  }
  batched_counts(std::span<const u64>(none.data(), 0),
                 std::span<const u64>(none.data(), 0), id, nullptr, nullptr);
}

// ---------------------------------------------------------------------------
// Auto crossover and kernel resolution.
// ---------------------------------------------------------------------------

TEST(KernelDispatch, ExplicitRequestsAreHonoured) {
  const net::MachineModel m;
  EXPECT_EQ(resolve_local_sort_kernel<u64>(m, 10, LocalSortKernel::Radix),
            LocalSortKernel::Radix);
  EXPECT_EQ(resolve_local_sort_kernel<u64>(m, usize{1} << 24,
                                           LocalSortKernel::Comparison),
            LocalSortKernel::Comparison);
}

TEST(KernelDispatch, AutoUsesComparisonBelowFloor) {
  const net::MachineModel m;
  EXPECT_EQ(
      resolve_local_sort_kernel<u64>(m, kRadixMinN - 1, LocalSortKernel::Auto),
      LocalSortKernel::Comparison);
  EXPECT_EQ(resolve_local_sort_kernel<u64>(m, usize{1} << 20,
                                           LocalSortKernel::Auto),
            LocalSortKernel::Radix);
}

TEST(KernelDispatch, SlowRadixConstantDisablesAuto) {
  net::MachineModel m;
  m.radix_s_per_elem_pass = 1e-3;  // pathological calibration
  EXPECT_EQ(resolve_local_sort_kernel<u64>(m, usize{1} << 20,
                                           LocalSortKernel::Auto),
            LocalSortKernel::Comparison);
  EXPECT_EQ(radix_crossover_n(m, 64), std::numeric_limits<usize>::max());
}

TEST(KernelDispatch, NonBisectableKeyAlwaysComparison) {
  struct Opaque {
    int x;
    bool operator<(const Opaque& o) const { return x < o.x; }
  };
  static_assert(!Bisectable<Opaque>);
  const net::MachineModel m;
  EXPECT_EQ(resolve_local_sort_kernel<Opaque>(m, usize{1} << 20,
                                              LocalSortKernel::Radix),
            LocalSortKernel::Comparison);
}

TEST(KernelDispatch, CrossoverRespectsFloor) {
  const net::MachineModel m;
  EXPECT_GE(radix_crossover_n(m, 64), kRadixMinN);
  EXPECT_GE(radix_crossover_n(m, 32), kRadixMinN);
}

// ---------------------------------------------------------------------------
// local_sort through a Comm: charges differ by kernel, output identical.
// ---------------------------------------------------------------------------

TEST(LocalSortKernels, SameOutputDifferentCharge) {
  const usize n = 20000;
  Xoshiro256 rng(55);
  std::vector<u64> base(n);
  for (auto& v : base) v = rng();

  auto run = [&](LocalSortKernel k) {
    std::vector<u64> data = base;
    double elapsed = 0.0;
    Team team({.nranks = 1});
    team.run([&](Comm& c) {
      local_sort(c, data, IdentityKey{}, k);
    });
    elapsed = team.stats().makespan_s;
    EXPECT_TRUE(std::is_sorted(data.begin(), data.end()));
    return std::make_pair(data, elapsed);
  };
  const auto [cmp_data, cmp_t] = run(LocalSortKernel::Comparison);
  const auto [rad_data, rad_t] = run(LocalSortKernel::Radix);
  EXPECT_EQ(cmp_data, rad_data);
  EXPECT_GT(cmp_t, 0.0);
  EXPECT_GT(rad_t, 0.0);
  // Full-range u64 at this n: the charged radix time (8 passes) must be
  // cheaper than n log2(n) comparisons under the default model.
  EXPECT_LT(rad_t, cmp_t);
}

// ---------------------------------------------------------------------------
// Kernel x ExchangeAlgorithm grid: the full sort's output must not depend
// on either choice. The KAry cells run k = 2, the hypercube schedule.
// ---------------------------------------------------------------------------

using GridParam = std::tuple<LocalSortKernel, ExchangeAlgorithm>;

class KernelExchangeGrid : public ::testing::TestWithParam<GridParam> {};

TEST_P(KernelExchangeGrid, InvariantsAndIdenticalOutput) {
  const auto [kernel, exchange] = GetParam();
  const int P = 8;
  workload::GenConfig gen;
  gen.dist = workload::Dist::Normal;
  gen.seed = 321;
  std::vector<std::vector<u64>> shards(P);
  std::vector<u64> all;
  for (int r = 0; r < P; ++r) {
    shards[r] = workload::generate_u64(gen, r, P, 900);
    all.insert(all.end(), shards[r].begin(), shards[r].end());
  }
  std::sort(all.begin(), all.end());

  SortConfig cfg;
  cfg.kernel = kernel;
  cfg.exchange = exchange;
  cfg.exchange_k = 2;  // only read by KAry
  std::vector<std::vector<u64>> out(P);
  Team team({.nranks = P});
  team.run([&](Comm& c) {
    auto local = shards[c.rank()];
    sort(c, local, cfg);
    EXPECT_TRUE(is_globally_sorted(
        c, std::span<const u64>(local.data(), local.size()), IdentityKey{}));
    out[c.rank()] = std::move(local);
  });

  std::vector<u64> merged;
  for (const auto& o : out) {
    EXPECT_TRUE(std::is_sorted(o.begin(), o.end()));
    merged.insert(merged.end(), o.begin(), o.end());
  }
  // Identical output across every (kernel, exchange) cell: with epsilon == 0
  // the sorted permutation and the per-rank capacities pin the result
  // exactly, so comparing against the one reference covers all cells.
  EXPECT_EQ(merged, all);
}

std::string grid_name(const ::testing::TestParamInfo<GridParam>& info) {
  const auto [kernel, exchange] = info.param;
  std::string e;
  switch (exchange) {
    case ExchangeAlgorithm::Alltoallv: e = "Alltoallv"; break;
    case ExchangeAlgorithm::OneFactor: e = "OneFactor"; break;
    case ExchangeAlgorithm::Hierarchical: e = "Hierarchical"; break;
    case ExchangeAlgorithm::KAry: e = "KAryK2"; break;
  }
  return std::string(kernel_name(kernel)) + "_" + e;
}

INSTANTIATE_TEST_SUITE_P(
    AllCells, KernelExchangeGrid,
    ::testing::Combine(::testing::Values(LocalSortKernel::Comparison,
                                         LocalSortKernel::Radix,
                                         LocalSortKernel::Auto),
                       ::testing::Values(ExchangeAlgorithm::Alltoallv,
                                         ExchangeAlgorithm::OneFactor,
                                         ExchangeAlgorithm::KAry,
                                         ExchangeAlgorithm::Hierarchical)),
    grid_name);

// ---------------------------------------------------------------------------
// sort_by_key exercises the record path end to end when Radix is forced.
// ---------------------------------------------------------------------------

TEST(KernelDispatch, SortByKeyRadixEndToEnd) {
  struct Rec {
    u64 key;
    u32 payload;
  };
  const int P = 4;
  Xoshiro256 rng(66);
  std::vector<std::vector<Rec>> shards(P);
  usize total = 0;
  for (auto& s : shards)
    for (int i = 0; i < 800; ++i, ++total)
      s.push_back(Rec{rng(), static_cast<u32>(total)});

  SortConfig cfg;
  cfg.kernel = LocalSortKernel::Radix;
  std::vector<std::vector<Rec>> out(P);
  Team team({.nranks = P});
  team.run([&](Comm& c) {
    auto local = shards[c.rank()];
    sort_by_key(c, local, [](const Rec& r) { return r.key; }, cfg);
    out[c.rank()] = std::move(local);
  });
  u64 prev = 0;
  usize count = 0;
  for (const auto& o : out)
    for (const auto& r : o) {
      EXPECT_GE(r.key, prev);
      prev = r.key;
      ++count;
    }
  EXPECT_EQ(count, total);
}

}  // namespace
}  // namespace hds::core
