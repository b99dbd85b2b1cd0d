// Tests for the local k-way merge strategies (Sec. V-C): the k-way
// merge kernel, binary merge tree, re-sort and the cost-priced Auto
// dispatch between them, against std::sort / std::stable_sort oracles.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <string>

#include "common/rng.h"
#include "core/merge.h"
#include "runtime/team.h"

namespace hds::core {
namespace {

using runtime::Comm;
using runtime::Team;

[[maybe_unused]] auto identity = [](const auto& v) { return v; };

/// Build `k` sorted chunks with the given sizes; returns (data, counts).
std::pair<std::vector<u32>, std::vector<usize>> make_chunks(
    std::vector<usize> sizes, u64 seed) {
  Xoshiro256 rng(seed);
  std::vector<u32> data;
  for (usize sz : sizes) {
    std::vector<u32> chunk(sz);
    for (auto& v : chunk) v = static_cast<u32>(rng() % 100000);
    std::sort(chunk.begin(), chunk.end());
    data.insert(data.end(), chunk.begin(), chunk.end());
  }
  return {std::move(data), std::move(sizes)};
}

void check_strategy(MergeStrategy strategy, std::vector<usize> sizes,
                    u64 seed) {
  auto [data, counts] = make_chunks(std::move(sizes), seed);
  std::vector<u32> expected = data;
  std::sort(expected.begin(), expected.end());

  Team team({.nranks = 1});
  team.run([&](Comm& c) {
    merge_chunks(c, data, std::span<const usize>(counts), strategy, identity);
  });
  EXPECT_EQ(data, expected);
}

class MergeStrategyTest : public ::testing::TestWithParam<MergeStrategy> {};

TEST_P(MergeStrategyTest, TwoEqualChunks) {
  check_strategy(GetParam(), {100, 100}, 1);
}

TEST_P(MergeStrategyTest, ManySmallChunks) {
  check_strategy(GetParam(), std::vector<usize>(33, 17), 2);
}

TEST_P(MergeStrategyTest, SkewedChunkSizes) {
  check_strategy(GetParam(), {1, 1000, 3, 500, 1}, 3);
}

TEST_P(MergeStrategyTest, WithEmptyChunks) {
  check_strategy(GetParam(), {0, 50, 0, 0, 75, 0}, 4);
}

TEST_P(MergeStrategyTest, SingleChunkNoop) {
  check_strategy(GetParam(), {250}, 5);
}

TEST_P(MergeStrategyTest, AllChunksEmpty) {
  check_strategy(GetParam(), {0, 0, 0}, 6);
}

TEST_P(MergeStrategyTest, PowerOfTwoAndOddCounts) {
  check_strategy(GetParam(), {64, 64, 64, 64, 64, 64, 64}, 7);
  check_strategy(GetParam(), {10, 20, 30}, 8);
}

TEST_P(MergeStrategyTest, DuplicateHeavy) {
  Xoshiro256 rng(9);
  std::vector<u32> data;
  std::vector<usize> counts;
  for (int c = 0; c < 6; ++c) {
    std::vector<u32> chunk(200);
    for (auto& v : chunk) v = static_cast<u32>(rng() % 5);
    std::sort(chunk.begin(), chunk.end());
    data.insert(data.end(), chunk.begin(), chunk.end());
    counts.push_back(chunk.size());
  }
  std::vector<u32> expected = data;
  std::sort(expected.begin(), expected.end());
  Team team({.nranks = 1});
  team.run([&](Comm& c) {
    merge_chunks(c, data, std::span<const usize>(counts), GetParam(),
                 identity);
  });
  EXPECT_EQ(data, expected);
}

std::string strategy_test_name(MergeStrategy m) {
  switch (m) {
    case MergeStrategy::Sort: return "Sort";
    case MergeStrategy::BinaryTree: return "BinaryTree";
    case MergeStrategy::Tournament: return "Tournament";
    case MergeStrategy::Auto: return "Auto";
  }
  return "Unknown";
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, MergeStrategyTest,
                         ::testing::Values(MergeStrategy::Sort,
                                           MergeStrategy::BinaryTree,
                                           MergeStrategy::Tournament,
                                           MergeStrategy::Auto),
                         [](const auto& pinfo) {
                           return strategy_test_name(pinfo.param);
                         });

// ---------------------------------------------------------------------------
// Stability: 16-byte records whose payload records the input position.
// ---------------------------------------------------------------------------

struct Rec {
  u64 key;
  u64 tag;
};
struct RecKey {
  u64 operator()(const Rec& r) const { return r.key; }
};
struct BigRec {  // wider than 3 keys: the radix kernel sorts (key, index)
  u64 key;
  u64 tag;
  u64 pad[2];
};
struct BigRecKey {
  u64 operator()(const BigRec& r) const { return r.key; }
};

/// Merge the concatenated runs with `strategy` (radix kernel, so the Sort
/// fallback is stable too) and require the bytes of std::stable_sort.
void check_stable(MergeStrategy strategy, std::vector<Rec> data,
                  std::vector<usize> counts) {
  std::vector<Rec> expected = data;
  std::stable_sort(expected.begin(), expected.end(),
                   [](const Rec& a, const Rec& b) { return a.key < b.key; });
  Team team({.nranks = 1});
  team.run([&](Comm& c) {
    merge_chunks(c, data, std::span<const usize>(counts), strategy, RecKey{},
                 LocalSortKernel::Radix);
  });
  ASSERT_EQ(data.size(), expected.size());
  EXPECT_EQ(std::memcmp(data.data(), expected.data(),
                        data.size() * sizeof(Rec)),
            0);
}

class MergeStabilityTest : public ::testing::TestWithParam<MergeStrategy> {};

TEST_P(MergeStabilityTest, EqualKeysKeepRunOrder) {
  // A later run's smaller key must not drag the earlier run's equal key
  // behind its own.
  check_stable(GetParam(), {{5, 'a'}, {4, 'b'}, {5, 'c'}}, {1, 2});
}

TEST_P(MergeStabilityTest, DuplicateHeavyRecords) {
  Xoshiro256 rng(21);
  for (const usize k : {2, 3, 4, 9, 33}) {
    std::vector<Rec> data;
    std::vector<usize> counts;
    for (usize r = 0; r < k; ++r) {
      std::vector<Rec> run(rng() % 700);
      for (auto& e : run) e.key = rng() % 7;
      std::sort(run.begin(), run.end(),
                [](const Rec& a, const Rec& b) { return a.key < b.key; });
      for (usize i = 0; i < run.size(); ++i) run[i].tag = data.size() + i;
      data.insert(data.end(), run.begin(), run.end());
      counts.push_back(run.size());
    }
    check_stable(GetParam(), std::move(data), std::move(counts));
  }
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, MergeStabilityTest,
                         ::testing::Values(MergeStrategy::Sort,
                                           MergeStrategy::BinaryTree,
                                           MergeStrategy::Tournament,
                                           MergeStrategy::Auto),
                         [](const auto& pinfo) {
                           return strategy_test_name(pinfo.param);
                         });

// ---------------------------------------------------------------------------
// The k-way merge kernel (kway_merge_into) on its own.
// ---------------------------------------------------------------------------

/// kway_merge_into over `runs`: the first is the base, the rest the chunks.
template <class T>
std::vector<T> kway_merge(const std::vector<std::vector<T>>& runs) {
  std::vector<std::span<const T>> chunks(runs.begin() + 1, runs.end());
  usize n = 0;
  for (const auto& r : runs) n += r.size();
  std::vector<T> out(n);
  kway_merge_into(std::span<T>(out), std::span<const T>(runs.front()),
                  std::span<const std::span<const T>>(chunks),
                  [](const T& x, const T& y) { return x < y; });
  return out;
}

TEST(KWayMergeTest, PopsInGlobalOrder) {
  const std::vector<std::vector<u32>> runs = {{1, 4, 9}, {2, 3, 10}, {0, 5}};
  EXPECT_EQ(kway_merge(runs), (std::vector<u32>{0, 1, 2, 3, 4, 5, 9, 10}));
}

TEST(KWayMergeTest, SingleRun) {
  const std::vector<std::vector<u32>> runs = {{3, 7, 11}};
  EXPECT_EQ(kway_merge(runs), runs[0]);
}

TEST(KWayMergeTest, StressAgainstSort) {
  Xoshiro256 rng(10);
  for (int trial = 0; trial < 20; ++trial) {
    const usize k = 1 + rng() % 12;
    std::vector<std::vector<u64>> chunks(k);
    std::vector<u64> expected;
    for (auto& ch : chunks) {
      const usize n = rng() % 40;
      for (usize i = 0; i < n; ++i) ch.push_back(rng() % 1000);
      std::sort(ch.begin(), ch.end());
      expected.insert(expected.end(), ch.begin(), ch.end());
    }
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(kway_merge(chunks), expected) << "trial " << trial;
  }
}

/// A (key, payload) record; the payload is the element's input index.
struct KeyedRec {
  u64 key;
  u64 payload;
};

/// k sorted runs of `sizes[r]` records; keys from `draw`, payloads the
/// input index, so a stable merge is fully determined.
template <class Draw>
std::vector<std::vector<KeyedRec>> keyed_runs(const std::vector<usize>& sizes,
                                              Draw draw) {
  std::vector<std::vector<KeyedRec>> runs;
  u64 idx = 0;
  for (const usize sz : sizes) {
    std::vector<KeyedRec> run(sz);
    for (auto& e : run) e.key = draw();
    std::stable_sort(run.begin(), run.end(),
                     [](const KeyedRec& a, const KeyedRec& b) {
                       return a.key < b.key;
                     });
    for (auto& e : run) e.payload = idx++;
    runs.push_back(std::move(run));
  }
  return runs;
}

/// kway_merge_into (first run the base) must equal std::stable_sort of
/// the concatenation byte for byte.
void expect_stable_kway(const std::vector<std::vector<KeyedRec>>& runs,
                        const std::string& what) {
  auto less = [](const KeyedRec& a, const KeyedRec& b) {
    return a.key < b.key;
  };
  std::vector<KeyedRec> expected;
  for (const auto& r : runs)
    expected.insert(expected.end(), r.begin(), r.end());
  std::stable_sort(expected.begin(), expected.end(), less);
  const std::vector<std::span<const KeyedRec>> chunks(runs.begin() + 1,
                                                      runs.end());
  std::vector<KeyedRec> out(expected.size());
  kway_merge_into(std::span<KeyedRec>(out),
                  std::span<const KeyedRec>(runs.front()),
                  std::span<const std::span<const KeyedRec>>(chunks), less);
  ASSERT_EQ(std::memcmp(out.data(), expected.data(),
                        out.size() * sizeof(KeyedRec)),
            0)
      << what;
}

TEST(KWayMergeTest, StableAgainstStableSortAcrossFanIn) {
  // k = 1..17 with empty runs among them, on four key distributions: few
  // distinct keys, all equal, one key holding more than half, and
  // uniform. At these totals (below one full segment per lane) every group
  // shrinks its segments to fit its levels into dst's tail, and the merge
  // ends in head selection.
  Xoshiro256 rng(31);
  for (usize k = 1; k <= 17; ++k) {
    std::vector<usize> sizes(k);
    for (usize r = 0; r < k; ++r)
      sizes[r] = r % 4 == 2 ? 0 : 600 + rng() % (40000 / k);
    const std::vector<std::pair<const char*, std::function<u64()>>> dists = {
        {"few", [&] { return rng() % 7; }},
        {"equal", [] { return u64{42}; }},
        {"majority", [&] { return rng() % 10 < 6 ? u64{500} : rng() % 1000; }},
        {"uniform", [&] { return rng(); }},
    };
    for (const auto& [name, draw] : dists)
      expect_stable_kway(keyed_runs(sizes, draw),
                         "k=" + std::to_string(k) + " " + name);
  }
}

TEST(KWayMergeTest, StableAcrossSegmentAndGroupBoundaries) {
  // 16-byte records: a full segment is 32768 elements. A group of four
  // segments needs room for one (k <= 4) or two (k >= 5) intermediate
  // buffers behind its output, so full groups start at 8 or 12 segments
  // left; below that the segments shrink, and the last few elements go
  // through head selection. Totals on both sides of each edge.
  constexpr usize kSeg = detail::kMergeSegmentBytes / sizeof(KeyedRec);
  Xoshiro256 rng(32);
  for (const usize total : {usize{700}, kSeg - 1, 8 * kSeg - 1, 8 * kSeg + 1,
                            12 * kSeg + 7}) {
    for (const usize k : {2, 3, 5, 16}) {
      std::vector<usize> sizes(k, total / k);
      sizes.back() += total % k;
      expect_stable_kway(
          keyed_runs(sizes,
                     [&] { return rng() % 4 == 0 ? rng() % 64 : u64{7}; }),
          "majority total=" + std::to_string(total) +
              " k=" + std::to_string(k));
      expect_stable_kway(keyed_runs(sizes, [&] { return rng(); }),
                         "uniform total=" + std::to_string(total) +
                             " k=" + std::to_string(k));
    }
  }
}

TEST(KWayMergeTest, ManyTinyRuns) {
  // Fan-in far above the segment count: 1024 one- or two-element runs in
  // ascending, descending and random key order.
  for (const int order : {0, 1, 2}) {
    Xoshiro256 rng(34);
    std::vector<usize> sizes(1024);
    for (auto& sz : sizes) sz = 1 + rng() % 2;
    u64 next = 0;
    auto runs = keyed_runs(sizes, [&] {
      ++next;
      return order == 0 ? next : order == 1 ? 1'000'000 - next : rng() % 500;
    });
    expect_stable_kway(runs, "tiny runs, order " + std::to_string(order));
  }
}

TEST(KWayMergeTest, DisjointAndInterleavedRunRanges) {
  // Runs holding disjoint key ranges (every 2-way merge one long side and
  // an exhausted other), in both run orders, and one run of a few large
  // keys against long runs of small ones (the galloping finish).
  std::vector<std::vector<KeyedRec>> runs;
  for (const bool descending : {false, true}) {
    u64 idx = 0;
    runs.clear();
    for (usize r = 0; r < 6; ++r) {
      const u64 band = descending ? 5 - r : r;
      std::vector<KeyedRec> run(30000);
      for (usize i = 0; i < run.size(); ++i)
        run[i] = KeyedRec{band * 1'000'000 + i * 3, idx++};
      runs.push_back(std::move(run));
    }
    expect_stable_kway(runs, descending ? "disjoint descending"
                                        : "disjoint ascending");
  }
  Xoshiro256 rng(33);
  const std::vector<usize> sizes = {50000, 5, 50000, 17, 3};
  u64 idx = 0;
  runs.clear();
  for (const usize sz : sizes) {
    std::vector<KeyedRec> run(sz);
    for (auto& e : run)
      e.key = sz < 100 ? 1'000'000 + rng() % 10 : rng() % 1000;
    std::sort(run.begin(), run.end(), [](const KeyedRec& a, const KeyedRec& b) {
      return a.key < b.key;
    });
    for (auto& e : run) e.payload = idx++;
    runs.push_back(std::move(run));
  }
  expect_stable_kway(runs, "few large keys");
}

TEST(MergeCosts, TournamentChargedByLogK) {
  // The simulated charge for a tournament merge grows with the chunk count,
  // while a re-sort is charged by n log n regardless of k.
  Team team({.nranks = 1});
  double t_few = 0.0, t_many = 0.0;
  team.run([&](Comm& c) {
    auto [d1, c1] = make_chunks(std::vector<usize>(2, 4096), 1);
    const double t0 = c.clock().now();
    merge_chunks(c, d1, std::span<const usize>(c1),
                 MergeStrategy::Tournament, identity);
    t_few = c.clock().now() - t0;
    auto [d2, c2] = make_chunks(std::vector<usize>(64, 128), 2);
    const double t1 = c.clock().now();
    merge_chunks(c, d2, std::span<const usize>(c2),
                 MergeStrategy::Tournament, identity);
    t_many = c.clock().now() - t1;
  });
  EXPECT_GT(t_many, t_few);  // same n, more chunks -> deeper tournament
}

// ---------------------------------------------------------------------------
// MergeStrategy::Auto dispatch.
// ---------------------------------------------------------------------------

/// `k` sorted runs of `per` keys each, uniform in [0, span) (span 0 = the
/// whole u64 range); returns (data, counts).
std::pair<std::vector<u64>, std::vector<usize>> uniform_runs(usize k,
                                                             usize per,
                                                             u64 span,
                                                             u64 seed) {
  Xoshiro256 rng(seed);
  std::vector<u64> data;
  std::vector<usize> counts(k, per);
  for (usize r = 0; r < k; ++r) {
    std::vector<u64> run(per);
    for (auto& v : run) v = span == 0 ? rng() : rng() % span;
    std::sort(run.begin(), run.end());
    data.insert(data.end(), run.begin(), run.end());
  }
  return {std::move(data), std::move(counts)};
}

TEST(MergeAutoDispatch, MergesAtSmallFanIn) {
  // P=4 on the default machine: a k=4 merge is priced below the 4-pass
  // radix re-sort of keys in [0, 1e9].
  const net::CostModel cost{net::MachineModel{}};
  const auto [data, counts] = uniform_runs(4, 1 << 14, 1'000'000'000, 1);
  EXPECT_EQ(resolve_merge_strategy(cost, std::span<const u64>(data),
                                   std::span<const usize>(counts),
                                   IdentityKey{}, MergeStrategy::Auto,
                                   LocalSortKernel::Auto),
            MergeStrategy::Tournament);
}

TEST(MergeAutoDispatch, ResortsAtLargeFanIn) {
  // Fig. 2's P=1024 point: 1024 keys per rank standing for 2^31 in total.
  // The run heads of a k=1024 merge fall out of cache (Sec. VI-E2), so the
  // re-sort stays.
  const int P = 1024;
  const net::CostModel cost{
      net::MachineModel::supermuc_phase2(64, 16),
      static_cast<double>(u64{1} << 31) / static_cast<double>(P * 1024)};
  const auto [data, counts] = uniform_runs(P, 1, 1'000'000'000, 2);
  EXPECT_EQ(resolve_merge_strategy(cost, std::span<const u64>(data),
                                   std::span<const usize>(counts),
                                   IdentityKey{}, MergeStrategy::Auto,
                                   LocalSortKernel::Auto),
            MergeStrategy::Sort);
}

/// Simulated charge and output of one merge_chunks call on a one-rank team.
template <class T, class KeyFn>
std::pair<double, std::vector<T>> charged_merge(
    const runtime::TeamConfig& tc, std::vector<T> data,
    const std::vector<usize>& counts, MergeStrategy strategy, KeyFn key) {
  double charged = 0.0;
  Team team(tc);
  team.run([&](Comm& c) {
    const double t0 = c.clock().now();
    merge_chunks(c, data, std::span<const usize>(counts), strategy, key);
    charged = c.clock().now() - t0;
  });
  return {charged, std::move(data)};
}

TEST(MergeAutoDispatch, NeverChargedAboveResort) {
  // Over (n, k, key span), on a single-node and a data-scaled cluster
  // machine, for keys, in-place 16-byte records and 32-byte records on the
  // (key, index) pairs path: Auto's charge never exceeds the re-sort's, and
  // the output is the same.
  runtime::TeamConfig small;
  small.nranks = 1;
  runtime::TeamConfig scaled = small;
  scaled.machine = net::MachineModel::supermuc_phase2(64, 16);
  scaled.data_scale = 2048.0;
  u64 seed = 100;
  for (const auto& tc : {small, scaled}) {
    for (const usize n : {64, 700, 6000}) {
      for (const usize k : {2, 3, 4, 16, 64, 256, 1024}) {
        for (const u64 span : {u64{1} << 8, u64{1} << 20, u64{1} << 40,
                               u64{0}}) {
          const usize per = std::max<usize>(n / k, 1);
          auto [keys, counts] = uniform_runs(k, per, span, ++seed);
          const auto [auto_s, auto_out] = charged_merge(
              tc, keys, counts, MergeStrategy::Auto, IdentityKey{});
          const auto [sort_s, sort_out] = charged_merge(
              tc, keys, counts, MergeStrategy::Sort, IdentityKey{});
          EXPECT_LE(auto_s, sort_s) << "n=" << n << " k=" << k
                                    << " span=" << span;
          EXPECT_EQ(auto_out, sort_out);

          std::vector<Rec> recs(keys.size());
          for (usize i = 0; i < keys.size(); ++i) recs[i] = {keys[i], i};
          const auto [rec_auto_s, rec_auto_out] = charged_merge(
              tc, recs, counts, MergeStrategy::Auto, RecKey{});
          const auto [rec_sort_s, rec_sort_out] = charged_merge(
              tc, recs, counts, MergeStrategy::Sort, RecKey{});
          EXPECT_LE(rec_auto_s, rec_sort_s) << "records n=" << n
                                            << " k=" << k << " span=" << span;

          std::vector<BigRec> big(keys.size());
          for (usize i = 0; i < keys.size(); ++i) big[i] = {keys[i], i, {}};
          const auto [big_auto_s, big_auto_out] = charged_merge(
              tc, big, counts, MergeStrategy::Auto, BigRecKey{});
          const auto [big_sort_s, big_sort_out] = charged_merge(
              tc, big, counts, MergeStrategy::Sort, BigRecKey{});
          EXPECT_LE(big_auto_s, big_sort_s) << "big records n=" << n
                                            << " k=" << k << " span=" << span;
        }
      }
    }
  }
}

}  // namespace
}  // namespace hds::core
