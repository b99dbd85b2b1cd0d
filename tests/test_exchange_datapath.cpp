// Single-copy data path (DESIGN.md sec. 11): the pull-based alltoallv_into
// must deliver exactly the source-ordered slices every sender addressed to
// each receiver, with per-rank simulated time independent of which overload
// sized the destination; every exchange algorithm, local-sort kernel and
// merge strategy must produce output byte-identical to the alltoallv
// exchange, with bit-identical simulated time from run to run; and the
// borrowed-payload P2P and the channel-indexed mailbox must preserve the
// FIFO-per-channel semantics the runtime's P2P ordering rests on.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <functional>
#include <vector>

#include "core/exchange.h"
#include "core/histogram_sort.h"
#include "runtime/comm.h"
#include "runtime/fault.h"
#include "runtime/mailbox.h"
#include "runtime/team.h"
#include "workload/distributions.h"

namespace hds::core {
namespace {

using runtime::Comm;
using runtime::Mailbox;
using runtime::Message;
using runtime::Team;

// ---------------------------------------------------------------------------
// Comm-level: alltoallv_into vs the host-side packed layout

/// Per-destination send counts as a pure function of (P, rank), so the test
/// can derive every rank's expected receive layout without communication.
using CountsFn = std::function<std::vector<usize>(int P, int rank)>;

/// Element i of rank r's send buffer.
u64 element(int rank, usize i) { return (static_cast<u64>(rank) << 32) | i; }

struct PathResult {
  std::vector<std::vector<u64>> data;    // per rank, received elements
  std::vector<std::vector<usize>> counts;  // per rank, per-source counts
  std::vector<double> times;             // per rank, final simulated clock
};

/// The packed receive layout, built sequentially on the host: rank r gets
/// the concatenation over sources s (ascending) of the slice s addressed
/// to r, and recv_counts[s] is that slice's length.
PathResult packed_reference(int P, const CountsFn& counts_fn) {
  PathResult res;
  res.data.resize(P);
  res.counts.assign(P, std::vector<usize>(static_cast<usize>(P), 0));
  for (int src = 0; src < P; ++src) {
    const std::vector<usize> send = counts_fn(P, src);
    usize off = 0;
    for (int dst = 0; dst < P; ++dst) {
      const usize c = send[static_cast<usize>(dst)];
      for (usize i = 0; i < c; ++i)
        res.data[dst].push_back(element(src, off + i));
      res.counts[dst][static_cast<usize>(src)] = c;
      off += c;
    }
  }
  return res;
}

enum class IntoMode { Vector, Span };

PathResult run_alltoallv(int P, const CountsFn& counts_fn, IntoMode mode) {
  Team team({.nranks = P});
  PathResult res;
  res.data.resize(P);
  res.counts.resize(P);
  res.times.resize(P);
  team.run([&](Comm& c) {
    const std::vector<usize> send = counts_fn(P, c.rank());
    usize total = 0;
    for (usize s : send) total += s;
    std::vector<u64> data(total);
    for (usize i = 0; i < total; ++i) data[i] = element(c.rank(), i);

    std::vector<u64> out;
    std::vector<usize> rc;
    if (mode == IntoMode::Vector) {
      c.alltoallv_into(std::span<const u64>(data),
                       std::span<const usize>(send), out, rc);
    } else {
      // The span overload needs a pre-sized destination; incoming totals
      // are derivable locally because counts_fn is a pure function.
      usize incoming = 0;
      for (int src = 0; src < P; ++src)
        incoming += counts_fn(P, src)[static_cast<usize>(c.rank())];
      out.resize(incoming);
      c.alltoallv_into(std::span<const u64>(data),
                       std::span<const usize>(send), std::span<u64>(out), rc);
    }
    res.data[c.rank()] = std::move(out);
    res.counts[c.rank()] = std::move(rc);
  });
  for (int r = 0; r < P; ++r) res.times[r] = team.rank_time(r);
  return res;
}

void expect_matches_packed(int P, const CountsFn& counts_fn) {
  const PathResult want = packed_reference(P, counts_fn);
  const PathResult vec = run_alltoallv(P, counts_fn, IntoMode::Vector);
  const PathResult span = run_alltoallv(P, counts_fn, IntoMode::Span);
  for (int r = 0; r < P; ++r) {
    EXPECT_EQ(want.data[r], vec.data[r]) << "P=" << P << " rank " << r;
    EXPECT_EQ(want.data[r], span.data[r]) << "P=" << P << " rank " << r;
    EXPECT_EQ(want.counts[r], vec.counts[r]) << "P=" << P << " rank " << r;
    EXPECT_EQ(want.counts[r], span.counts[r]) << "P=" << P << " rank " << r;
    // Bit-identical simulated time: the cost model charges volume, and both
    // overloads charge from the same byte matrix.
    EXPECT_EQ(vec.times[r], span.times[r]) << "P=" << P << " rank " << r;
  }
}

std::vector<usize> random_counts(int P, int rank) {
  // Deterministic, asymmetric, with some zero blocks.
  std::vector<usize> send(static_cast<usize>(P));
  for (int d = 0; d < P; ++d) {
    const u64 h = static_cast<u64>(rank) * 2654435761u + static_cast<u64>(d);
    send[static_cast<usize>(d)] = (h % 7 == 0) ? 0 : (h % 53);
  }
  return send;
}

TEST(AlltoallvInto, MatchesPackedOnRandomLayouts) {
  for (int P : {4, 8, 16}) expect_matches_packed(P, random_counts);
}

TEST(AlltoallvInto, MatchesPackedOnEmptyExchange) {
  for (int P : {4, 8, 16})
    expect_matches_packed(
        P, [](int p, int) { return std::vector<usize>(p, 0); });
}

TEST(AlltoallvInto, MatchesPackedOnAllToSelf) {
  for (int P : {4, 8, 16})
    expect_matches_packed(P, [](int p, int rank) {
      std::vector<usize> send(static_cast<usize>(p), 0);
      send[static_cast<usize>(rank)] = 37;
      return send;
    });
}

TEST(AlltoallvInto, MatchesPackedOnSkewedAllToOne) {
  // One rank receives everything: the most skewed receive layout.
  for (int P : {4, 8, 16})
    expect_matches_packed(P, [](int p, int rank) {
      std::vector<usize> send(static_cast<usize>(p), 0);
      send[0] = 29 + static_cast<usize>(rank);
      return send;
    });
}

TEST(AlltoallvInto, SpanOverloadRejectsWrongSize) {
  Team team({.nranks = 4});
  EXPECT_THROW(team.run([&](Comm& c) {
                 std::vector<u64> data(4, 7);
                 std::vector<usize> send(4, 1);
                 std::vector<u64> dst(1);  // needs 4
                 std::vector<usize> rc;
                 c.alltoallv_into(std::span<const u64>(data),
                                  std::span<const usize>(send),
                                  std::span<u64>(dst), rc);
               }),
               invariant_error);
}

// ---------------------------------------------------------------------------
// Sort-level grid: exchange algorithm x kernel x merge, vs alltoallv

struct SortRun {
  std::vector<std::vector<u64>> out;
  std::vector<double> times;
};

SortRun run_sort(int P, const runtime::TeamConfig& tcfg, SortConfig cfg,
                 usize n_rank, const workload::GenConfig& gen = {}) {
  std::vector<std::vector<u64>> shards(P);
  for (int r = 0; r < P; ++r)
    shards[r] = workload::generate_u64(gen, r, P, n_rank);
  SortRun res;
  res.out.resize(P);
  res.times.resize(P);
  Team team(tcfg);
  team.run([&](Comm& c) {
    auto local = shards[c.rank()];
    sort(c, local, cfg);
    EXPECT_TRUE(is_globally_sorted(
        c, std::span<const u64>(local.data(), local.size()),
        [](u64 v) { return v; }));
    res.out[c.rank()] = std::move(local);
  });
  for (int r = 0; r < P; ++r) res.times[r] = team.rank_time(r);
  return res;
}

/// cfg's per-rank output must be byte-identical to the alltoallv exchange
/// with the default merge, and a second run of cfg must reproduce every
/// rank's simulated time exactly (the borrowed sends and member pulls run
/// on real threads, but the clock must not depend on their interleaving).
void expect_matches_alltoallv(int P, SortConfig cfg, usize n_rank,
                              runtime::TeamConfig tcfg = {},
                              const workload::GenConfig& gen = {}) {
  tcfg.nranks = P;
  SortConfig ref_cfg;
  ref_cfg.kernel = cfg.kernel;
  const SortRun ref = run_sort(P, tcfg, ref_cfg, n_rank, gen);
  const SortRun first = run_sort(P, tcfg, cfg, n_rank, gen);
  const SortRun again = run_sort(P, tcfg, cfg, n_rank, gen);
  for (int r = 0; r < P; ++r) {
    EXPECT_EQ(first.out[r], ref.out[r])
        << "P=" << P << " rank " << r << " algo "
        << static_cast<int>(cfg.exchange);
    EXPECT_EQ(first.out[r], again.out[r]) << "P=" << P << " rank " << r;
    EXPECT_EQ(first.times[r], again.times[r])
        << "P=" << P << " rank " << r << " algo "
        << static_cast<int>(cfg.exchange);
  }
}

TEST(DataPathGrid, AlgorithmsTimesKernelsAtP8) {
  struct Ex {
    ExchangeAlgorithm algo;
    int k;
  };
  for (const Ex ex : {Ex{ExchangeAlgorithm::Alltoallv, 0},
                      Ex{ExchangeAlgorithm::OneFactor, 0},
                      Ex{ExchangeAlgorithm::KAry, 2},
                      Ex{ExchangeAlgorithm::Hierarchical, 0}}) {
    for (LocalSortKernel kernel :
         {LocalSortKernel::Comparison, LocalSortKernel::Radix}) {
      SortConfig cfg;
      cfg.exchange = ex.algo;
      if (ex.k > 0) cfg.exchange_k = ex.k;
      cfg.kernel = kernel;
      expect_matches_alltoallv(8, cfg, 500);
    }
  }
}

TEST(DataPathGrid, AlltoallvAtP4AndP16) {
  SortConfig cfg;
  expect_matches_alltoallv(4, cfg, 800);
  expect_matches_alltoallv(16, cfg, 250);
}

TEST(DataPathGrid, OneFactorOverlapMerge) {
  SortConfig cfg;
  cfg.exchange = ExchangeAlgorithm::OneFactor;
  cfg.overlap_merge = true;
  expect_matches_alltoallv(8, cfg, 600);
  expect_matches_alltoallv(5, cfg, 400);  // odd P: idle rounds
}

TEST(DataPathGrid, MergeStrategiesSeeIdenticalChunks) {
  for (MergeStrategy m : {MergeStrategy::Sort, MergeStrategy::BinaryTree,
                          MergeStrategy::Tournament, MergeStrategy::Auto}) {
    SortConfig cfg;
    cfg.merge = m;
    expect_matches_alltoallv(8, cfg, 400);
  }
}

TEST(DataPathGrid, HierarchicalOnMultiNodeMachine) {
  runtime::TeamConfig tcfg;
  tcfg.machine = net::MachineModel::supermuc_phase2(4, 4);
  SortConfig cfg;
  cfg.exchange = ExchangeAlgorithm::Hierarchical;
  expect_matches_alltoallv(16, cfg, 300, tcfg);
}

TEST(DataPathGrid, SkewedInputWithDuplicates) {
  workload::GenConfig gen;
  gen.dist = workload::Dist::Zipf;
  SortConfig cfg;
  cfg.exchange = ExchangeAlgorithm::KAry;
  cfg.exchange_k = 2;
  expect_matches_alltoallv(8, cfg, 700, {}, gen);
  runtime::TeamConfig tcfg;
  tcfg.nranks = 8;
  const SortRun run = run_sort(8, tcfg, SortConfig{}, 700, gen);
  usize total = 0;
  for (const auto& o : run.out) total += o.size();
  EXPECT_EQ(total, 8u * 700u);
}

// ---------------------------------------------------------------------------
// hds::check coverage of the pull path

TEST(DataPathCheck, PullPathRunsViolationFree) {
  for (int P : {4, 8, 16}) {
    runtime::TeamConfig tcfg;
    tcfg.nranks = P;
    tcfg.check.enabled = true;
    workload::GenConfig gen;
    std::vector<std::vector<u64>> shards(P);
    for (int r = 0; r < P; ++r)
      shards[r] = workload::generate_u64(gen, r, P, 400);
    Team team(tcfg);
    team.run([&](Comm& c) {
      auto local = shards[c.rank()];
      sort(c, local, SortConfig{});
    });
    ASSERT_NE(team.check_report(), nullptr);
    EXPECT_TRUE(team.check_report()->clean())
        << team.check_report()->summary();
    EXPECT_GT(team.check_report()->collectives_checked, 0u);
  }
}

TEST(DataPathCheck, ElidedAlltoallvJoinIsNoticedOnPullPath) {
  // Mutation test: logically delete the exchange's happens-before joins.
  // The physical pull still happens (ranks synchronize through the real
  // barriers), but the checker must flag the now-unordered consumption of
  // the published spans — proving the pull reads are modeled.
  runtime::TeamConfig tcfg;
  tcfg.nranks = 8;
  tcfg.check.enabled = true;
  tcfg.check.elide_op = obs::OpKind::Alltoallv;
  tcfg.check.elide_index = 0;
  workload::GenConfig gen;
  std::vector<std::vector<u64>> shards(8);
  for (int r = 0; r < 8; ++r)
    shards[r] = workload::generate_u64(gen, r, 8, 500);
  Team team(tcfg);
  team.run([&](Comm& c) {
    auto local = shards[c.rank()];
    sort(c, local, SortConfig{});
  });
  ASSERT_NE(team.check_report(), nullptr);
  EXPECT_GT(team.check_report()->joins_elided, 0u);
  EXPECT_FALSE(team.check_report()->clean());
}

// ---------------------------------------------------------------------------
// Borrowed-payload P2P

TEST(BorrowedSend, PairwiseSwapThroughRecvInto) {
  const int P = 4;
  Team team({.nranks = P});
  std::vector<std::vector<u64>> got(P);
  team.run([&](Comm& c) {
    const int partner = c.rank() ^ 1;
    std::vector<u64> mine(64);
    for (usize i = 0; i < mine.size(); ++i)
      mine[i] = (static_cast<u64>(c.rank()) << 16) | i;
    auto loan =
        c.send_borrowed(partner, /*tag=*/42, std::span<const u64>(mine));
    std::vector<u64> theirs(64);
    const usize n = c.recv_into(partner, 42, std::span<u64>(theirs));
    loan.wait();
    EXPECT_FALSE(loan.pending());
    ASSERT_EQ(n, 64u);
    for (usize i = 0; i < n; ++i)
      EXPECT_EQ(theirs[i], (static_cast<u64>(partner) << 16) | i);
    got[c.rank()] = std::move(theirs);
  });
}

TEST(BorrowedSend, PlainRecvAndRecvAppendConsumeLoans) {
  Team team({.nranks = 2});
  team.run([&](Comm& c) {
    if (c.rank() == 0) {
      std::vector<u32> a{1, 2, 3}, b{4, 5};
      auto la = c.send_borrowed(1, 7, std::span<const u32>(a));
      auto lb = c.send_borrowed(1, 8, std::span<const u32>(b));
      la.wait();
      lb.wait();
    } else {
      const std::vector<u32> a = c.recv<u32>(0, 7);
      EXPECT_EQ(a, (std::vector<u32>{1, 2, 3}));
      std::vector<u32> acc{9};
      EXPECT_EQ(c.recv_append(0, 8, acc), 2u);
      EXPECT_EQ(acc, (std::vector<u32>{9, 4, 5}));
    }
  });
}

TEST(BorrowedSend, EmptyPayloadRoundTrips) {
  Team team({.nranks = 2});
  team.run([&](Comm& c) {
    if (c.rank() == 0) {
      std::vector<u64> empty;
      auto loan = c.send_borrowed(1, 3, std::span<const u64>(empty));
      loan.wait();
    } else {
      std::vector<u64> dst;
      EXPECT_EQ(c.recv_append(0, 3, dst), 0u);
      EXPECT_TRUE(dst.empty());
    }
  });
}

TEST(BorrowedSend, DroppedMessageReturnsLoanImmediately) {
  // A fault-dropped borrowed send must pre-signal the token: the receiver
  // never sees the message, so nobody else would return the loan.
  runtime::TeamConfig tcfg;
  tcfg.nranks = 2;
  auto plan = std::make_shared<runtime::FaultPlan>();
  plan->drop_message(0, 1, /*tag=*/11);
  tcfg.fault = plan;
  Team team(tcfg);
  team.run([&](Comm& c) {
    if (c.rank() == 0) {
      std::vector<u64> data(16, 5);
      auto loan = c.send_borrowed(1, 11, std::span<const u64>(data));
      loan.wait();  // must not hang: the drop signals the token
      EXPECT_FALSE(loan.pending());
    }
    // Rank 1 deliberately does not receive (the message was dropped).
  });
}

TEST(BorrowedSend, RecvIntoRejectsTooSmallSpan) {
  Team team({.nranks = 2});
  EXPECT_THROW(team.run([&](Comm& c) {
                 if (c.rank() == 0) {
                   std::vector<u64> data(8, 1);
                   c.send(1, 5, std::span<const u64>(data));
                 } else {
                   std::vector<u64> dst(4);  // too small for 8
                   c.recv_into(0, 5, std::span<u64>(dst));
                 }
               }),
               invariant_error);
}

// ---------------------------------------------------------------------------
// Channel-indexed mailbox

Message make_msg(rank_t src, u64 tag, u8 payload) {
  Message m;
  m.src = src;
  m.tag = tag;
  m.data.assign(1, static_cast<std::byte>(payload));
  return m;
}

u8 payload_of(const Message& m) { return static_cast<u8>(m.data.at(0)); }

TEST(MailboxChannels, FifoPerChannelAcrossInterleavedChannels) {
  std::atomic<bool> abort{false};
  Mailbox mb(&abort);
  mb.push(make_msg(1, 7, 10));
  mb.push(make_msg(2, 7, 20));
  mb.push(make_msg(1, 7, 11));
  mb.push(make_msg(1, 9, 30));
  mb.push(make_msg(2, 7, 21));
  EXPECT_EQ(mb.pending(), 5u);

  EXPECT_EQ(payload_of(mb.pop(1, 7)), 10);  // FIFO within (1,7)
  EXPECT_EQ(payload_of(mb.pop(1, 7)), 11);
  EXPECT_EQ(payload_of(mb.pop(2, 7)), 20);  // (2,7) unaffected
  EXPECT_EQ(payload_of(mb.pop(1, 9)), 30);
  EXPECT_EQ(payload_of(mb.pop(2, 7)), 21);
  EXPECT_EQ(mb.pending(), 0u);
}

TEST(MailboxChannels, PendingChannelsListsDistinctChannels) {
  std::atomic<bool> abort{false};
  Mailbox mb(&abort);
  mb.push(make_msg(3, 1, 1));
  mb.push(make_msg(3, 1, 2));
  mb.push(make_msg(4, 2, 3));
  const auto chans = mb.pending_channels();
  ASSERT_EQ(chans.size(), 2u);  // two distinct channels, not three messages
  EXPECT_TRUE(std::count(chans.begin(), chans.end(),
                         std::make_pair(rank_t{3}, u64{1})) == 1);
  EXPECT_TRUE(std::count(chans.begin(), chans.end(),
                         std::make_pair(rank_t{4}, u64{2})) == 1);
}

TEST(MailboxChannels, AbortUnblocksPop) {
  std::atomic<bool> abort{true};
  Mailbox mb(&abort);
  EXPECT_THROW(mb.pop(0, 0), runtime::team_aborted);
}

}  // namespace
}  // namespace hds::core
