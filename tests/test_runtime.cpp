// Tests for the thread-backed message-passing runtime: collectives against
// sequential oracles, split semantics, point-to-point, error propagation,
// and simulated-clock behaviour.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>

#include "common/rng.h"
#include "runtime/comm.h"
#include "runtime/global_vector.h"
#include "runtime/team.h"

namespace hds::runtime {
namespace {

using net::Phase;

TeamConfig small_cfg(int p) {
  TeamConfig cfg;
  cfg.nranks = p;
  return cfg;
}

TEST(Team, RunsEveryRankExactlyOnce) {
  Team team(small_cfg(8));
  std::atomic<int> count{0};
  std::array<std::atomic<int>, 8> per_rank{};
  team.run([&](Comm& c) {
    count.fetch_add(1);
    per_rank[c.rank()].fetch_add(1);
  });
  EXPECT_EQ(count.load(), 8);
  for (auto& pr : per_rank) EXPECT_EQ(pr.load(), 1);
}

TEST(Team, SizeAndRankConsistent) {
  Team team(small_cfg(5));
  team.run([&](Comm& c) {
    EXPECT_EQ(c.size(), 5);
    EXPECT_GE(c.rank(), 0);
    EXPECT_LT(c.rank(), 5);
    EXPECT_EQ(c.world_rank(), c.rank());
  });
}

TEST(Team, SingleRankWorks) {
  Team team(small_cfg(1));
  team.run([&](Comm& c) {
    EXPECT_EQ(c.allreduce_value<int>(41, std::plus<>{}), 41);
    c.barrier();
    EXPECT_EQ(c.broadcast_value(7, 0), 7);
  });
}

TEST(Team, ExceptionPropagatesAndUnblocksPeers) {
  Team team(small_cfg(6));
  EXPECT_THROW(team.run([&](Comm& c) {
                 if (c.rank() == 3) throw std::runtime_error("rank 3 died");
                 // Other ranks park in a collective and must be released.
                 c.barrier();
                 c.barrier();
               }),
               std::runtime_error);
  // The team must be reusable after an aborted run.
  team.run([&](Comm& c) { c.barrier(); });
}

TEST(Team, CheckFailureSurfacesAsInvariantError) {
  Team team(small_cfg(4));
  EXPECT_THROW(team.run([&](Comm& c) {
                 if (c.rank() == 0) HDS_CHECK(1 == 2);
                 c.barrier();
               }),
               invariant_error);
}

TEST(Collectives, BroadcastFromEveryRoot) {
  Team team(small_cfg(7));
  team.run([&](Comm& c) {
    for (int root = 0; root < c.size(); ++root) {
      std::vector<u64> data(5, c.rank() == root ? 100 + root : 0);
      c.broadcast(data.data(), data.size(), root);
      for (u64 v : data) EXPECT_EQ(v, 100u + root);
    }
  });
}

TEST(Collectives, AllreduceSumMinMax) {
  Team team(small_cfg(9));
  team.run([&](Comm& c) {
    const int r = c.rank();
    EXPECT_EQ(c.allreduce_value<i64>(r + 1, std::plus<>{}), 45);
    EXPECT_EQ(c.allreduce_value<i64>(r, [](i64 a, i64 b) {
      return std::min(a, b);
    }), 0);
    EXPECT_EQ(c.allreduce_value<i64>(r, [](i64 a, i64 b) {
      return std::max(a, b);
    }), 8);
  });
}

TEST(Collectives, AllreduceVector) {
  Team team(small_cfg(6));
  team.run([&](Comm& c) {
    std::vector<u64> in(16), out(16);
    for (usize i = 0; i < in.size(); ++i) in[i] = i * (c.rank() + 1);
    c.allreduce(in.data(), out.data(), in.size(), std::plus<>{});
    for (usize i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * 21);
  });
}

TEST(Collectives, AllgatherOrderedByRank) {
  Team team(small_cfg(8));
  team.run([&](Comm& c) {
    const std::array<int, 2> mine{c.rank(), c.rank() * 10};
    std::vector<int> all(2 * c.size());
    c.allgather(mine.data(), 2, all.data());
    for (int r = 0; r < c.size(); ++r) {
      EXPECT_EQ(all[2 * r], r);
      EXPECT_EQ(all[2 * r + 1], r * 10);
    }
  });
}

TEST(Collectives, AllgathervVariableSizes) {
  Team team(small_cfg(5));
  team.run([&](Comm& c) {
    std::vector<u32> mine(c.rank());  // rank r contributes r elements
    std::iota(mine.begin(), mine.end(), 100u * c.rank());
    std::vector<usize> counts;
    const auto all = c.allgatherv(std::span<const u32>(mine), &counts);
    ASSERT_EQ(counts.size(), 5u);
    usize off = 0;
    for (int r = 0; r < 5; ++r) {
      EXPECT_EQ(counts[r], static_cast<usize>(r));
      for (usize i = 0; i < counts[r]; ++i)
        EXPECT_EQ(all[off + i], 100u * r + i);
      off += counts[r];
    }
    EXPECT_EQ(all.size(), 10u);
  });
}

TEST(Collectives, GathervOnlyRootReceives) {
  Team team(small_cfg(4));
  team.run([&](Comm& c) {
    std::vector<u64> mine{static_cast<u64>(c.rank())};
    const auto got = c.gatherv(std::span<const u64>(mine), 2);
    if (c.rank() == 2) {
      ASSERT_EQ(got.size(), 4u);
      for (usize r = 0; r < 4; ++r) EXPECT_EQ(got[r], r);
    } else {
      EXPECT_TRUE(got.empty());
    }
  });
}

TEST(Collectives, AlltoallTransposes) {
  Team team(small_cfg(6));
  team.run([&](Comm& c) {
    const int P = c.size();
    std::vector<int> in(P), out(P);
    for (int d = 0; d < P; ++d) in[d] = c.rank() * 100 + d;
    c.alltoall(in.data(), 1, out.data());
    for (int s = 0; s < P; ++s) EXPECT_EQ(out[s], s * 100 + c.rank());
  });
}

TEST(Collectives, AlltoallvMovesExactSlices) {
  Team team(small_cfg(4));
  team.run([&](Comm& c) {
    const int P = c.size();
    // Rank r sends d+1 copies of value r*10+d to destination d.
    std::vector<u64> data;
    std::vector<usize> counts(P);
    for (int d = 0; d < P; ++d) {
      counts[d] = d + 1;
      for (usize i = 0; i < counts[d]; ++i)
        data.push_back(static_cast<u64>(c.rank() * 10 + d));
    }
    std::vector<u64> recv;
    std::vector<usize> rcounts;
    c.alltoallv_into(std::span<const u64>(data),
                     std::span<const usize>(counts), recv, rcounts);
    ASSERT_EQ(rcounts.size(), static_cast<usize>(P));
    usize off = 0;
    for (int s = 0; s < P; ++s) {
      EXPECT_EQ(rcounts[s], static_cast<usize>(c.rank() + 1));
      for (usize i = 0; i < rcounts[s]; ++i)
        EXPECT_EQ(recv[off + i], static_cast<u64>(s * 10 + c.rank()));
      off += rcounts[s];
    }
  });
}

TEST(Collectives, AlltoallvEmptyContributions) {
  Team team(small_cfg(3));
  team.run([&](Comm& c) {
    std::vector<usize> counts(3, 0);
    std::vector<u64> data;
    if (c.rank() == 1) {
      counts = {2, 0, 1};
      data = {7, 7, 9};
    }
    std::vector<u64> recv;
    std::vector<usize> rcounts;
    c.alltoallv_into(std::span<const u64>(data),
                     std::span<const usize>(counts), recv, rcounts);
    if (c.rank() == 0) {
      EXPECT_EQ(recv, (std::vector<u64>{7, 7}));
    } else if (c.rank() == 2) {
      EXPECT_EQ(recv, (std::vector<u64>{9}));
    } else {
      EXPECT_TRUE(recv.empty());
    }
  });
}

TEST(Collectives, ExscanAndScan) {
  Team team(small_cfg(8));
  team.run([&](Comm& c) {
    const u64 ex = c.exscan_value<u64>(c.rank() + 1, std::plus<>{}, 0);
    // exclusive prefix of 1..8: rank r gets sum of 1..r
    EXPECT_EQ(ex, static_cast<u64>(c.rank()) * (c.rank() + 1) / 2);
    const u64 in = c.scan_value<u64>(c.rank() + 1, std::plus<>{});
    EXPECT_EQ(in, static_cast<u64>(c.rank() + 1) * (c.rank() + 2) / 2);
  });
}

TEST(Collectives, MixedSequenceStress) {
  // Interleave many collective types to exercise the epoch double-buffering.
  Team team(small_cfg(7));
  team.run([&](Comm& c) {
    Xoshiro256 rng(99);  // same seed on all ranks: same op sequence
    u64 acc = 0;
    for (int round = 0; round < 50; ++round) {
      switch (rng() % 5) {
        case 0:
          acc += c.allreduce_value<u64>(c.rank(), std::plus<>{});
          break;
        case 1:
          acc += c.broadcast_value<u64>(round * 3, round % c.size());
          break;
        case 2: {
          std::vector<u64> all(c.size());
          const u64 mine = round + c.rank();
          c.allgather(&mine, 1, all.data());
          acc += all[round % c.size()];
          break;
        }
        case 3:
          c.barrier();
          break;
        case 4:
          acc += c.exscan_value<u64>(1, std::plus<>{}, 0);
          break;
      }
    }
    // Every rank must have seen identical collective results where the
    // result is rank-independent; sanity: reduce the accumulators.
    (void)c.allreduce_value<u64>(acc, std::plus<>{});
  });
}

TEST(Split, GroupsByColorOrderedByKey) {
  Team team(small_cfg(8));
  team.run([&](Comm& c) {
    // Even ranks -> color 0, odd -> color 1; key reverses order.
    Comm sub = c.split(c.rank() % 2, -c.rank());
    EXPECT_EQ(sub.size(), 4);
    // Reversed key: world rank 6 is member 0 of color 0.
    const int expected_idx = (7 - c.rank()) / 2;
    EXPECT_EQ(sub.rank(), expected_idx);
    // Collectives on the subcomm see only the subgroup.
    const int sum = sub.allreduce_value<int>(c.rank(), std::plus<>{});
    if (c.rank() % 2 == 0)
      EXPECT_EQ(sum, 0 + 2 + 4 + 6);
    else
      EXPECT_EQ(sum, 1 + 3 + 5 + 7);
  });
}

TEST(Split, RecursiveSplits) {
  Team team(small_cfg(8));
  team.run([&](Comm& c) {
    Comm half = c.split(c.rank() / 4, c.rank());
    Comm quarter = half.split(half.rank() / 2, half.rank());
    EXPECT_EQ(quarter.size(), 2);
    const int partner_sum =
        quarter.allreduce_value<int>(c.world_rank(), std::plus<>{});
    // Partners are adjacent world ranks {0,1},{2,3},...
    EXPECT_EQ(partner_sum, (c.world_rank() / 2) * 4 + 1);
  });
}

TEST(Split, SingletonColors) {
  Team team(small_cfg(4));
  team.run([&](Comm& c) {
    Comm solo = c.split(c.rank(), 0);
    EXPECT_EQ(solo.size(), 1);
    EXPECT_EQ(solo.allreduce_value<int>(c.rank() * 5, std::plus<>{}),
              c.rank() * 5);
  });
}

TEST(P2P, SendRecvRoundTrip) {
  Team team(small_cfg(4));
  team.run([&](Comm& c) {
    if (c.rank() == 0) {
      std::vector<u64> payload{1, 2, 3, 4, 5};
      c.send(3, /*tag=*/7, std::span<const u64>(payload));
    } else if (c.rank() == 3) {
      const auto got = c.recv<u64>(0, 7);
      EXPECT_EQ(got, (std::vector<u64>{1, 2, 3, 4, 5}));
    }
  });
}

TEST(P2P, TagAndSourceMatching) {
  Team team(small_cfg(3));
  team.run([&](Comm& c) {
    if (c.rank() == 0) {
      const std::vector<u32> a{10};
      const std::vector<u32> b{20};
      c.send(2, 1, std::span<const u32>(a));
      c.send(2, 2, std::span<const u32>(b));
    } else if (c.rank() == 1) {
      const std::vector<u32> x{30};
      c.send(2, 1, std::span<const u32>(x));
    } else {
      // Receive out of arrival order: tag 2 from 0, then tag 1 from 1,
      // then tag 1 from 0.
      EXPECT_EQ(c.recv<u32>(0, 2), (std::vector<u32>{20}));
      EXPECT_EQ(c.recv<u32>(1, 1), (std::vector<u32>{30}));
      EXPECT_EQ(c.recv<u32>(0, 1), (std::vector<u32>{10}));
    }
  });
}

TEST(SimClock, CollectivesSynchronizeClocks) {
  Team team(small_cfg(4));
  std::array<double, 4> after{};
  team.run([&](Comm& c) {
    // Rank 2 does extra local work; the barrier must drag everyone to it.
    if (c.rank() == 2) c.charge_seconds(1.0);
    c.barrier();
    after[c.rank()] = c.clock().now();
  });
  for (double t : after) EXPECT_GE(t, 1.0);
  // All ranks leave the collective at the same simulated instant.
  for (double t : after) EXPECT_DOUBLE_EQ(t, after[0]);
}

TEST(SimClock, ChargesAccumulatePhases) {
  Team team(small_cfg(2));
  team.run([&](Comm& c) {
    {
      net::PhaseScope p(c.clock(), Phase::LocalSort);
      c.charge_seconds(0.5);
    }
    {
      net::PhaseScope p(c.clock(), Phase::Exchange);
      c.charge_seconds(0.25);
    }
  });
  EXPECT_DOUBLE_EQ(team.stats().phase_seconds(Phase::LocalSort), 0.5);
  EXPECT_DOUBLE_EQ(team.stats().phase_seconds(Phase::Exchange), 0.25);
  EXPECT_GE(team.stats().makespan_s, 0.75);
}

TEST(SimClock, MakespanIsMaxOverRanks) {
  Team team(small_cfg(3));
  team.run([&](Comm& c) {
    c.charge_seconds(0.1 * (c.rank() + 1));
  });
  EXPECT_NEAR(team.stats().makespan_s, 0.3, 1e-12);
  EXPECT_NEAR(team.rank_time(0), 0.1, 1e-12);
  EXPECT_NEAR(team.rank_time(2), 0.3, 1e-12);
}

TEST(SimClock, LargerMessagesCostMore) {
  Team team(small_cfg(4));
  double t_small = 0.0, t_big = 0.0;
  team.run([&](Comm& c) {
    std::vector<u64> small_buf(8), big_buf(1 << 16);
    c.broadcast(small_buf.data(), small_buf.size(), 0);
    if (c.rank() == 0) t_small = c.clock().now();
    c.broadcast(big_buf.data(), big_buf.size(), 0);
    if (c.rank() == 0) t_big = c.clock().now() - t_small;
  });
  EXPECT_GT(t_big, t_small);
}

TEST(SimClock, DataScaleMultipliesDataTraffic) {
  auto run_alltoallv = [&](double scale) {
    TeamConfig cfg = small_cfg(4);
    cfg.data_scale = scale;
    Team team(cfg);
    double t = 0.0;
    team.run([&](Comm& c) {
      std::vector<u64> data(4096);
      std::vector<usize> counts(4, 1024);
      std::vector<u64> recv;
      std::vector<usize> rcounts;
      c.alltoallv_into(std::span<const u64>(data),
                       std::span<const usize>(counts), recv, rcounts);
      if (c.rank() == 0) t = c.clock().now();
    });
    return t;
  };
  const double t1 = run_alltoallv(1.0);
  const double t100 = run_alltoallv(100.0);
  EXPECT_GT(t100, t1 * 20);  // beta term dominates and scales
}

TEST(GlobalVectorTest, LocalAccessAndIndex) {
  Team team(small_cfg(4));
  GlobalVector<u64> gv(4);
  team.run([&](Comm& c) {
    auto& mine = gv.local(c);
    mine.assign(c.rank() + 1, static_cast<u64>(c.rank()));
    gv.rebuild_index(c);
    EXPECT_EQ(gv.global_size(), 1u + 2 + 3 + 4);
    // locate: global index 0 is on rank 0; last index on rank 3.
    EXPECT_EQ(gv.locate(0).first, 0);
    EXPECT_EQ(gv.locate(9).first, 3);
    EXPECT_EQ(gv.locate(1).first, 1);
    c.barrier();
    // One-sided reads see every rank's data.
    EXPECT_EQ(gv.get(c, 0), 0u);
    EXPECT_EQ(gv.get(c, 6), 3u);
  });
}

TEST(GlobalVectorTest, PutWritesRemote) {
  Team team(small_cfg(2));
  GlobalVector<int> gv(2);
  team.run([&](Comm& c) {
    gv.local(c).assign(3, 0);
    gv.rebuild_index(c);
    c.barrier();
    if (c.rank() == 0) gv.put(c, 5, 42);  // last element of rank 1
    c.barrier();
    if (c.rank() == 1) {
      EXPECT_EQ(gv.local(c)[2], 42);
    }
  });
}

TEST(Machine, PlacementMapping) {
  const auto m = net::MachineModel::supermuc_phase2(4, 16);
  EXPECT_EQ(m.total_ranks(), 64);
  EXPECT_EQ(m.node_of(0), 0);
  EXPECT_EQ(m.node_of(15), 0);
  EXPECT_EQ(m.node_of(16), 1);
  EXPECT_EQ(m.node_of(63), 3);
  EXPECT_TRUE(m.same_node(0, 15));
  EXPECT_FALSE(m.same_node(15, 16));
  EXPECT_EQ(m.ranks_per_numa(), 4);
  EXPECT_TRUE(m.same_numa(0, 3));
  EXPECT_FALSE(m.same_numa(3, 4));
}

TEST(Machine, BandwidthHierarchy) {
  const auto m = net::MachineModel::supermuc_phase2(2, 8);
  EXPECT_GT(m.p2p_bandwidth(0, 1), m.p2p_bandwidth(0, 7));   // numa < memcpy
  EXPECT_GT(m.p2p_bandwidth(0, 7), m.p2p_bandwidth(0, 8));   // net < numa
  EXPECT_LT(m.p2p_latency(0, 7), m.p2p_latency(0, 8));
}

TEST(CostModel, CollectiveCostsGrowWithP) {
  const auto m = net::MachineModel::supermuc_phase2(64, 16);
  net::CostModel cm(m);
  EXPECT_LT(cm.allreduce(16, 1, 64, net::Traffic::Control),
            cm.allreduce(1024, 64, 64, net::Traffic::Control));
  EXPECT_LT(cm.barrier(4, 1), cm.barrier(1024, 64));
  EXPECT_LT(cm.allgather(16, 1, 8, net::Traffic::Control),
            cm.allgather(512, 32, 8, net::Traffic::Control));
}

TEST(CostModel, IntraNodeCheaperThanInterNode) {
  auto m = net::MachineModel::supermuc_phase2(16, 16);
  net::CostModel cm(m);
  // 16 ranks on one node vs 16 ranks spread over 16 nodes.
  EXPECT_LT(cm.allreduce(16, 1, 1024, net::Traffic::Control),
            cm.allreduce(16, 16, 1024, net::Traffic::Control));
}

TEST(CostModel, ShortcutAblationMakesIntraNodeMoreExpensive) {
  auto m = net::MachineModel::supermuc_phase2(1, 16);
  net::CostModel with(m);
  m.intra_node_shortcut = false;
  net::CostModel without(m);
  EXPECT_LT(with.allreduce(16, 1, 4096, net::Traffic::Control),
            without.allreduce(16, 1, 4096, net::Traffic::Control));
}

TEST(CostModel, ComputeCostsScale) {
  net::CostModel cm{net::MachineModel{}, 1.0};
  EXPECT_LT(cm.sort(1000), cm.sort(100000));
  EXPECT_LT(cm.merge_pass(1000), cm.merge_pass(10000));
  EXPECT_GT(cm.sort(100000), cm.linear_scan(100000));
  // data_scale multiplies computation.
  net::CostModel scaled{net::MachineModel{}, 64.0};
  EXPECT_GT(scaled.sort(1000), cm.sort(1000) * 32);
}

}  // namespace
}  // namespace hds::runtime
