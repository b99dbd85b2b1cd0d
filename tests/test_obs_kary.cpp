// Observability attribution of the k-ary interleaved exchange (PR 7):
// the traced per-round payload matrices must reconcile send-vs-receive and
// with the trace's communication matrix, KAryRoundTrace::comm_s must cover
// the round's charged send costs, the overlapped tail merge must land in
// the Merge phase (not hide inside Exchange), and the traced slices must
// reconcile with the SimClock phase sums across the k x P grid.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <span>
#include <vector>

#include "common/rng.h"
#include "core/exchange.h"
#include "core/multiselect.h"
#include "obs/report.h"
#include "runtime/comm.h"
#include "runtime/team.h"

namespace hds {
namespace {

using runtime::Comm;
using runtime::Team;
using runtime::TeamConfig;

/// exchange_kary's wire tags: header = base + 2r (Control), payload =
/// base + 2r + 1 (Data) for round r.
constexpr u64 kKAryTagBase = u64{0x4a59} << 24;

struct TracedKAry {
  std::unique_ptr<Team> team;
  std::vector<std::vector<core::KAryRoundTrace>> rounds;  ///< per rank
};

/// One traced run of the k-ary exchange pipeline: per-rank local sort
/// (LocalSort), splitter determination (Histogram), then exchange_kary with
/// overlap merging (Exchange + Merge), capturing each rank's round trace.
TracedKAry run_traced_kary(int P, int k, usize n, u64 seed) {
  TracedKAry out;
  TeamConfig cfg;
  cfg.nranks = P;
  cfg.trace = true;
  out.team = std::make_unique<Team>(cfg);
  out.rounds.assign(static_cast<usize>(P), {});
  out.team->run([&](Comm& c) {
    const auto key = [](u64 v) { return v; };
    Xoshiro256 rng(hash_mix(seed, static_cast<u64>(c.rank())));
    std::vector<u64> local(n);
    for (auto& v : local) v = rng();
    {
      net::PhaseScope ps(c.clock(), net::Phase::LocalSort);
      std::sort(local.begin(), local.end());
      c.charge_sort(local.size());
    }
    const std::span<const u64> sorted_view(local.data(), local.size());
    std::vector<usize> targets(static_cast<usize>(P) - 1);
    for (usize b = 0; b < targets.size(); ++b) targets[b] = (b + 1) * n;
    const auto sp = [&] {
      net::PhaseScope ps(c.clock(), net::Phase::Histogram);
      return core::find_splitters(c, sorted_view, key,
                                  std::span<const usize>(targets));
    }();
    auto ex = core::exchange_kary(c, sorted_view, sp, key, k,
                                  /*overlap_merge=*/true,
                                  &out.rounds[static_cast<usize>(c.rank())]);
    EXPECT_TRUE(std::is_sorted(ex.data.begin(), ex.data.end()));
  });
  return out;
}

TEST(KAryObs, PhaseSumsReconcileAcrossKAndP) {
  for (int P : {4, 8, 16}) {
    for (int k : {2, 4, P}) {
      const TracedKAry run = run_traced_kary(P, k, 1500, 31);
      const obs::TraceReport* trace = run.team->trace();
      ASSERT_NE(trace, nullptr);
      for (int r = 0; r < P; ++r) {
        const auto traced = trace->traced_phase_seconds(r);
        const auto& clock = trace->clock_phase_s[static_cast<usize>(r)];
        for (usize p = 0; p < net::kPhaseCount; ++p) {
          EXPECT_NEAR(traced[p], clock[p], 1e-9 * std::max(1.0, clock[p]))
              << "P=" << P << " k=" << k << " rank " << r << " phase "
              << net::phase_name(static_cast<net::Phase>(p));
        }
      }
    }
  }
}

TEST(KAryObs, PerRoundMatricesReconcileSendRecvAndCommMatrix) {
  for (int k : {2, 4, 16}) {
    const int P = 16;
    const TracedKAry run = run_traced_kary(P, k, 2000, 7);
    const obs::TraceReport* trace = run.team->trace();
    ASSERT_NE(trace, nullptr);
    const usize nrounds = run.rounds[0].size();
    ASSERT_GT(nrounds, 0u);
    for (const auto& rt : run.rounds) ASSERT_EQ(rt.size(), nrounds);

    // Per-round P x P payload matrices from the traced slices: one built
    // from the senders' events, one from the receivers'.
    const auto idx = [P](int src, int dst) {
      return static_cast<usize>(src) * static_cast<usize>(P) +
             static_cast<usize>(dst);
    };
    std::vector<std::vector<u64>> sent(nrounds),
        recvd(nrounds);  // [round][src * P + dst]
    for (usize r = 0; r < nrounds; ++r) {
      sent[r].assign(static_cast<usize>(P) * P, 0);
      recvd[r].assign(static_cast<usize>(P) * P, 0);
    }
    std::vector<std::vector<double>> send_model(
        static_cast<usize>(P), std::vector<double>(nrounds, 0.0));
    for (int rank = 0; rank < P; ++rank) {
      for (const obs::TraceEvent& e :
           trace->events[static_cast<usize>(rank)]) {
        if (e.tag < kKAryTagBase || e.tag >= kKAryTagBase + 2 * nrounds)
          continue;
        const usize round = static_cast<usize>(e.tag - kKAryTagBase) / 2;
        const bool payload = (e.tag - kKAryTagBase) % 2 == 1;
        if (e.cls == obs::OpClass::Send) {
          send_model[static_cast<usize>(rank)][round] += e.model_s;
          if (payload) sent[round][idx(rank, e.peer)] += e.bytes;
        } else if (e.cls == obs::OpClass::Recv && payload) {
          recvd[round][idx(e.peer, rank)] += e.bytes;
        }
      }
    }

    u64 total_payload = 0;
    for (usize r = 0; r < nrounds; ++r) {
      // Send-side and receive-side views of the same round must agree
      // cell-for-cell, and something must move in every round.
      EXPECT_EQ(sent[r], recvd[r]) << "k=" << k << " round " << r;
      u64 round_bytes = 0;
      for (u64 b : sent[r]) round_bytes += b;
      EXPECT_GT(round_bytes, 0u) << "k=" << k << " round " << r;
      total_payload += round_bytes;
    }

    // The rounds' payloads are the run's only Data-plane traffic, so the
    // summed per-round matrices must equal the trace's comm matrix exactly
    // (store-and-forward bytes included on the forwarding rank's row).
    const obs::CommMatrix m = trace->comm_matrix(/*data_only=*/true);
    ASSERT_EQ(m.nranks, P);
    u64 matrix_total = 0;
    for (int src = 0; src < P; ++src) {
      for (int dst = 0; dst < P; ++dst) {
        u64 from_rounds = 0;
        for (usize r = 0; r < nrounds; ++r)
          from_rounds += sent[r][idx(src, dst)];
        EXPECT_EQ(m.at(src, dst), from_rounds)
            << "k=" << k << " " << src << "->" << dst;
        matrix_total += from_rounds;
      }
    }
    EXPECT_EQ(m.total(/*include_self=*/true), matrix_total);

    // comm_s is the round's clock span minus the overlapped merge: it must
    // cover at least the send-side model charges of that round's header
    // and payload ops (receive waits only add to it).
    for (int rank = 0; rank < P; ++rank) {
      for (usize r = 0; r < nrounds; ++r) {
        const double comm_s =
            run.rounds[static_cast<usize>(rank)][r].comm_s;
        EXPECT_GE(comm_s + 1e-12,
                  send_model[static_cast<usize>(rank)][r])
            << "k=" << k << " rank " << rank << " round " << r;
      }
    }
  }
}

TEST(KAryObs, OverlappedMergeResidueLandsInMergePhase) {
  const int P = 16;
  const TracedKAry run = run_traced_kary(P, /*k=*/4, 4096, 13);
  const obs::TraceReport* trace = run.team->trace();
  ASSERT_NE(trace, nullptr);
  ASSERT_EQ(run.rounds[0].size(), 2u);  // kary_round_factors(16, 4) = {4,4}

  double total_round_merge = 0.0;
  for (int rank = 0; rank < P; ++rank) {
    const auto& clock = trace->clock_phase_s[static_cast<usize>(rank)];
    double rank_merge = 0.0;
    for (const core::KAryRoundTrace& rt :
         run.rounds[static_cast<usize>(rank)]) {
      EXPECT_GE(rt.merge_s, 0.0);
      EXPECT_GT(rt.comm_s, 0.0);
      rank_merge += rt.merge_s;
    }
    total_round_merge += rank_merge;
    // Every overlapped merge is charged under PhaseScope(Merge); the final
    // un-overlapped drain (outside the round loop) only adds to it.
    const double merge_clock = clock[static_cast<usize>(net::Phase::Merge)];
    EXPECT_GE(merge_clock + 1e-12, rank_merge) << "rank " << rank;
    EXPECT_GT(merge_clock, 0.0) << "rank " << rank;

    // The overlap series records (full, charged) pairs; the charged cost
    // is what reached the clock, strictly below the un-overlapped cost
    // whenever a communication window hid part of the merge.
    const obs::Metrics& met = run.team->metrics(rank);
    const auto full = met.series(obs::Series::OverlapMergeFull);
    const auto charged = met.series(obs::Series::OverlapMergeCharged);
    ASSERT_EQ(full.size(), charged.size());
    ASSERT_FALSE(full.empty()) << "rank " << rank;
    double full_sum = 0.0, charged_sum = 0.0;
    for (usize i = 0; i < full.size(); ++i) {
      EXPECT_LE(charged[i], full[i] + 1e-15);
      full_sum += full[i];
      charged_sum += charged[i];
    }
    EXPECT_GT(full_sum, 0.0);
    EXPECT_LT(charged_sum, full_sum) << "rank " << rank;
    // The charged residue is real time on the clock: it cannot exceed the
    // rank's total Merge-phase seconds.
    EXPECT_LE(charged_sum, merge_clock + 1e-12) << "rank " << rank;
  }
  // With 2 rounds and overlap on, round 1's in-flight window must have
  // hidden merges somewhere: the attribution is not allowed to vanish.
  EXPECT_GT(total_round_merge, 0.0);
}

}  // namespace
}  // namespace hds
