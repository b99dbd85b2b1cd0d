// Tests for the alternative exchange algorithms (Sec. VI-E1): the 1-factor
// pairwise exchange (matching structure of the schedule, overlap-merge
// equivalence), the hypercube store-and-forward schedule (the k-ary
// exchange at k = 2, also at non-power-of-two P) and the hierarchical
// node-leader exchange — sort correctness and edge cases for each.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/rng.h"
#include "core/exchange.h"
#include "core/histogram_sort.h"
#include "runtime/team.h"
#include "workload/distributions.h"

namespace hds::core {
namespace {

using runtime::Comm;
using runtime::Team;

TEST(OneFactorSchedule, EvenPIsPerfectMatchingEveryRound) {
  for (int P : {2, 4, 6, 8, 16}) {
    std::set<std::pair<int, int>> seen;
    for (int r = 0; r < P - 1; ++r) {
      std::vector<int> partner(P);
      for (int i = 0; i < P; ++i) {
        partner[i] = one_factor_partner(P, r, i);
        ASSERT_NE(partner[i], i) << "P=" << P << " r=" << r << " i=" << i;
        ASSERT_GE(partner[i], 0);
        ASSERT_LT(partner[i], P);
      }
      for (int i = 0; i < P; ++i) {
        EXPECT_EQ(partner[partner[i]], i)
            << "not symmetric at P=" << P << " r=" << r << " i=" << i;
        if (i < partner[i]) seen.insert({i, partner[i]});
      }
    }
    // All P*(P-1)/2 pairs covered exactly once over P-1 rounds.
    EXPECT_EQ(seen.size(), static_cast<usize>(P) * (P - 1) / 2);
  }
}

TEST(OneFactorSchedule, OddPEveryRankIdlesOncePerCycle) {
  for (int P : {3, 5, 7, 9}) {
    std::set<std::pair<int, int>> seen;
    std::vector<int> idle_count(P, 0);
    for (int r = 0; r < P; ++r) {
      for (int i = 0; i < P; ++i) {
        const int j = one_factor_partner(P, r, i);
        if (j == i) {
          ++idle_count[i];
          continue;
        }
        EXPECT_EQ(one_factor_partner(P, r, j), i);
        if (i < j) seen.insert({i, j});
      }
    }
    for (int i = 0; i < P; ++i) EXPECT_EQ(idle_count[i], 1) << "i=" << i;
    EXPECT_EQ(seen.size(), static_cast<usize>(P) * (P - 1) / 2);
  }
}

/// Full sort through a given config; verifies invariants and returns sizes.
void check_sort(int P, const SortConfig& cfg, workload::GenConfig gen,
                usize n_rank) {
  std::vector<std::vector<u64>> shards(P);
  std::vector<u64> all;
  for (int r = 0; r < P; ++r) {
    shards[r] = workload::generate_u64(gen, r, P, n_rank);
    all.insert(all.end(), shards[r].begin(), shards[r].end());
  }
  std::sort(all.begin(), all.end());

  std::vector<std::vector<u64>> out(P);
  Team team({.nranks = P});
  team.run([&](Comm& c) {
    auto local = shards[c.rank()];
    sort(c, local, cfg);
    EXPECT_TRUE(is_globally_sorted(
        c, std::span<const u64>(local.data(), local.size()),
        [](u64 v) { return v; }));
    out[c.rank()] = std::move(local);
  });
  std::vector<u64> merged;
  for (int r = 0; r < P; ++r) {
    merged.insert(merged.end(), out[r].begin(), out[r].end());
    if (cfg.epsilon == 0.0) {
      EXPECT_EQ(out[r].size(), shards[r].size());
    }
  }
  std::sort(merged.begin(), merged.end());
  EXPECT_EQ(merged, all);
}

TEST(OneFactorExchange, SortsEvenP) {
  SortConfig cfg;
  cfg.exchange = ExchangeAlgorithm::OneFactor;
  check_sort(8, cfg, {}, 700);
}

TEST(OneFactorExchange, SortsOddP) {
  SortConfig cfg;
  cfg.exchange = ExchangeAlgorithm::OneFactor;
  check_sort(7, cfg, {}, 500);
}

TEST(OneFactorExchange, OverlapMergeProducesSameResult) {
  SortConfig cfg;
  cfg.exchange = ExchangeAlgorithm::OneFactor;
  cfg.overlap_merge = true;
  check_sort(8, cfg, {}, 900);
  check_sort(5, cfg, {}, 400);
}

TEST(OneFactorExchange, OverlapWithDuplicatesAndSkew) {
  workload::GenConfig gen;
  gen.dist = workload::Dist::Zipf;
  SortConfig cfg;
  cfg.exchange = ExchangeAlgorithm::OneFactor;
  cfg.overlap_merge = true;
  check_sort(6, cfg, gen, 800);
}

TEST(OneFactorExchange, SparseInput) {
  workload::GenConfig gen;
  gen.sparsity = 0.4;
  gen.seed = 9;
  SortConfig cfg;
  cfg.exchange = ExchangeAlgorithm::OneFactor;
  check_sort(10, cfg, gen, 300);
}

TEST(OneFactorExchange, TwoRanks) {
  SortConfig cfg;
  cfg.exchange = ExchangeAlgorithm::OneFactor;
  cfg.overlap_merge = true;
  check_sort(2, cfg, {}, 1000);
}

/// The hypercube store-and-forward schedule (Sec. VI-E1): the k-ary
/// exchange at k = 2, log2(P) rounds of one partner each at a power of two.
SortConfig hypercube_cfg() {
  SortConfig cfg;
  cfg.exchange = ExchangeAlgorithm::KAry;
  cfg.exchange_k = 2;
  return cfg;
}

TEST(HypercubeExchange, SortsPowerOfTwo) {
  const SortConfig cfg = hypercube_cfg();
  check_sort(8, cfg, {}, 700);
  check_sort(16, cfg, {}, 300);
  check_sort(2, cfg, {}, 500);
  check_sort(4, cfg, {}, 400);
}

TEST(HypercubeExchange, SortsNonPowerOfTwo) {
  // The factorized schedule runs wherever the dimension-swap hypercube
  // cannot: 3 is one 3-wide round, 6 = 2 x 3, 12 = 2 x 2 x 3.
  const SortConfig cfg = hypercube_cfg();
  check_sort(3, cfg, {}, 500);
  check_sort(6, cfg, {}, 400);
  check_sort(12, cfg, {}, 250);
}

TEST(HypercubeExchange, DuplicatesAndSkew) {
  workload::GenConfig gen;
  gen.dist = workload::Dist::Staircase;
  const SortConfig cfg = hypercube_cfg();
  check_sort(8, cfg, gen, 600);
  check_sort(6, cfg, gen, 500);
  gen.dist = workload::Dist::AllEqual;
  check_sort(4, cfg, gen, 400);
  check_sort(12, cfg, gen, 200);
}

TEST(HypercubeExchange, SparseInput) {
  workload::GenConfig gen;
  gen.sparsity = 0.5;
  gen.seed = 77;
  const SortConfig cfg = hypercube_cfg();
  check_sort(8, cfg, gen, 250);
  check_sort(6, cfg, gen, 250);
}

TEST(HypercubeExchange, CheaperLatencyForTinyPartitions) {
  // The Sec. VI-E1 trade: for very small N/P the log2(P)-round
  // store-and-forward beats the (P-1)-message direct exchange.
  auto time_with = [&](const SortConfig& cfg) {
    runtime::TeamConfig tcfg;
    tcfg.nranks = 32;
    tcfg.machine = net::MachineModel::supermuc_phase2(8, 4);
    Team team(tcfg);
    workload::GenConfig gen;
    std::vector<std::vector<u64>> shards(32);
    for (int r = 0; r < 32; ++r)
      shards[r] = workload::generate_u64(gen, r, 32, 64);  // tiny N/P
    team.run([&](Comm& c) {
      auto local = shards[c.rank()];
      sort(c, local, cfg);
    });
    return team.stats().phase_seconds(net::Phase::Exchange);
  };
  SortConfig one_factor;
  one_factor.exchange = ExchangeAlgorithm::OneFactor;
  EXPECT_LT(time_with(hypercube_cfg()), time_with(one_factor));
}

TEST(HierarchicalExchange, SortsOnMultiNodeMachine) {
  // 4 nodes x 4 ranks: intra-node slices go direct, the rest through the
  // node leaders.
  runtime::TeamConfig tcfg;
  tcfg.nranks = 16;
  tcfg.machine = net::MachineModel::supermuc_phase2(4, 4);
  Team team(tcfg);
  workload::GenConfig gen;
  std::vector<std::vector<u64>> shards(16);
  std::vector<u64> all;
  for (int r = 0; r < 16; ++r) {
    shards[r] = workload::generate_u64(gen, r, 16, 400);
    all.insert(all.end(), shards[r].begin(), shards[r].end());
  }
  std::sort(all.begin(), all.end());
  std::vector<std::vector<u64>> out(16);
  team.run([&](Comm& c) {
    auto local = shards[c.rank()];
    SortConfig cfg;
    cfg.exchange = ExchangeAlgorithm::Hierarchical;
    sort(c, local, cfg);
    out[c.rank()] = std::move(local);
  });
  std::vector<u64> merged;
  for (const auto& o : out) {
    EXPECT_EQ(o.size(), 400u);
    merged.insert(merged.end(), o.begin(), o.end());
  }
  std::sort(merged.begin(), merged.end());
  EXPECT_EQ(merged, all);
}

TEST(HierarchicalExchange, SingleNodeDegeneratesToDirect) {
  SortConfig cfg;
  cfg.exchange = ExchangeAlgorithm::Hierarchical;
  check_sort(6, cfg, {}, 500);  // default machine: one node
}

TEST(HierarchicalExchange, UnevenNodesAndDuplicates) {
  runtime::TeamConfig tcfg;
  tcfg.nranks = 12;
  tcfg.machine = net::MachineModel::supermuc_phase2(3, 4);
  Team team(tcfg);
  workload::GenConfig gen;
  gen.dist = workload::Dist::FewDistinct;
  gen.alphabet = 3;
  std::vector<std::vector<u64>> shards(12);
  std::vector<u64> all;
  for (int r = 0; r < 12; ++r) {
    shards[r] = workload::generate_u64(gen, r, 12, 100 * (r % 3 + 1));
    all.insert(all.end(), shards[r].begin(), shards[r].end());
  }
  std::sort(all.begin(), all.end());
  std::vector<std::vector<u64>> out(12);
  team.run([&](Comm& c) {
    auto local = shards[c.rank()];
    SortConfig cfg;
    cfg.exchange = ExchangeAlgorithm::Hierarchical;
    sort(c, local, cfg);
    out[c.rank()] = std::move(local);
  });
  std::vector<u64> merged;
  for (const auto& o : out)
    merged.insert(merged.end(), o.begin(), o.end());
  std::sort(merged.begin(), merged.end());
  EXPECT_EQ(merged, all);
}

TEST(HierarchicalExchange, SparseInputAcrossNodes) {
  runtime::TeamConfig tcfg;
  tcfg.nranks = 8;
  tcfg.machine = net::MachineModel::supermuc_phase2(2, 4);
  Team team(tcfg);
  workload::GenConfig gen;
  gen.sparsity = 0.5;
  gen.seed = 21;
  std::vector<std::vector<u64>> shards(8);
  std::vector<u64> all;
  for (int r = 0; r < 8; ++r) {
    shards[r] = workload::generate_u64(gen, r, 8, 300);
    all.insert(all.end(), shards[r].begin(), shards[r].end());
  }
  std::sort(all.begin(), all.end());
  std::vector<std::vector<u64>> out(8);
  team.run([&](Comm& c) {
    auto local = shards[c.rank()];
    SortConfig cfg;
    cfg.exchange = ExchangeAlgorithm::Hierarchical;
    sort(c, local, cfg);
    out[c.rank()] = std::move(local);
  });
  std::vector<u64> merged;
  for (const auto& o : out)
    merged.insert(merged.end(), o.begin(), o.end());
  std::sort(merged.begin(), merged.end());
  EXPECT_EQ(merged, all);
}

TEST(OneFactorExchange, EpsilonBalanced) {
  SortConfig cfg;
  cfg.exchange = ExchangeAlgorithm::OneFactor;
  cfg.epsilon = 0.1;
  check_sort(8, cfg, {}, 1500);
}

TEST(OneFactorExchange, OverlapSkipsSeparateMergePhase) {
  // With overlap the final data is one sorted run, so merge_chunks is a
  // no-op; the Merge phase time comes from the per-round merges instead.
  const int P = 4;
  workload::GenConfig gen;
  std::vector<std::vector<u64>> shards(P);
  for (int r = 0; r < P; ++r)
    shards[r] = workload::generate_u64(gen, r, P, 2000);
  Team team({.nranks = P});
  team.run([&](Comm& c) {
    auto local = shards[c.rank()];
    SortConfig cfg;
    cfg.exchange = ExchangeAlgorithm::OneFactor;
    cfg.overlap_merge = true;
    sort(c, local, cfg);
  });
  EXPECT_GT(team.stats().phase_seconds(net::Phase::Merge), 0.0);
  EXPECT_GT(team.stats().phase_seconds(net::Phase::Exchange), 0.0);
}

}  // namespace
}  // namespace hds::core
