// The rank's recycled spare buffer (Comm::spare, DESIGN.md sec. 11): a
// Team that already sorted — so every rank holds a warm, stale spare of
// some element type and size — must produce exactly what a fresh Team
// produces, sort after sort, across element types, exchanges, merge
// strategies, kernels and partition shapes; a warm Team's steady-state sort
// must run on the two recycled buffers without fresh page faults; and an
// aborted sort must leave the spare reusable.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/histogram_sort.h"
#include "runtime/comm.h"
#include "runtime/fault.h"
#include "runtime/team.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define HDS_SANITIZED_ALLOCATOR 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define HDS_SANITIZED_ALLOCATOR 1
#endif
#endif

namespace hds::core {
namespace {

using runtime::Comm;
using runtime::Team;
using runtime::TeamConfig;

template <class T>
using Parts = std::vector<std::vector<T>>;

/// Sorted in place by the radix kernel (16 bytes <= 3x the key width).
struct Rec16 {
  u64 key;
  u64 idx;
};
/// Sorted through (key, index) pairs plus a gather (40 > 3x the key width).
struct Rec40 {
  u64 key;
  u64 pad[4];
};
struct Rec16Key {
  u64 operator()(const Rec16& r) const { return r.key; }
};
struct Rec40Key {
  u64 operator()(const Rec40& r) const { return r.key; }
};
static_assert(!radix_sorts_pairs<Rec16, Rec16Key>);
static_assert(radix_sorts_pairs<Rec40, Rec40Key>);

TeamConfig team_config(int P) {
  TeamConfig cfg;
  cfg.nranks = P;
  // Several nodes, so the hierarchical exchange funnels through leaders.
  const int nodes = P >= 4 ? 2 : P;
  cfg.machine = net::MachineModel::supermuc_phase2(nodes, P / nodes);
  cfg.watchdog_timeout_s = 20.0;
  return cfg;
}

/// Per-rank partition sizes of shape `shape`: equal, one empty rank,
/// quadratically skewed, or everything on the last rank.
std::vector<usize> partition_sizes(int P, usize n, int shape) {
  std::vector<usize> sizes(static_cast<usize>(P), n);
  for (int r = 0; r < P; ++r) {
    const auto ur = static_cast<usize>(r);
    switch (shape) {
      case 1:
        if (r == P / 2) sizes[ur] = 0;
        break;
      case 2:
        sizes[ur] = n * (ur + 1) * (ur + 1) / static_cast<usize>(P);
        break;
      case 3:
        sizes[ur] = r == P - 1 ? n * static_cast<usize>(P) : 0;
        break;
      default:
        break;
    }
  }
  return sizes;
}

/// Deterministic raw keys: full-range, or few distinct values.
u64 raw_key(Xoshiro256& rng, bool few_distinct) {
  return few_distinct ? rng() % 7 : rng();
}

template <class T>
T make_elem(Xoshiro256& rng, bool few, u64 idx);
template <>
u64 make_elem<u64>(Xoshiro256& rng, bool few, u64) {
  return raw_key(rng, few);
}
template <>
double make_elem<double>(Xoshiro256& rng, bool few, u64) {
  // Signed values, so the float key image's sign handling is exercised.
  return static_cast<double>(static_cast<i64>(raw_key(rng, few))) / 1024.0;
}
template <>
Rec16 make_elem<Rec16>(Xoshiro256& rng, bool few, u64 idx) {
  return Rec16{raw_key(rng, few), idx};
}
template <>
Rec40 make_elem<Rec40>(Xoshiro256& rng, bool few, u64 idx) {
  return Rec40{raw_key(rng, few), {idx, ~idx, idx * 3, idx ^ 0x55}};
}

template <class T>
Parts<T> make_input(const std::vector<usize>& sizes, u64 seed, bool few) {
  Parts<T> parts(sizes.size());
  u64 idx = 0;
  for (usize r = 0; r < sizes.size(); ++r) {
    Xoshiro256 rng(hash_mix(seed, r));
    for (usize i = 0; i < sizes[r]; ++i)
      parts[r].push_back(make_elem<T>(rng, few, idx++));
  }
  return parts;
}

struct Outcome {
  std::vector<std::vector<unsigned char>> bytes;  ///< per-rank output
  double makespan_s = 0.0;
};

template <class T, class KeyFn>
Outcome run_sort(Team& team, const Parts<T>& input, KeyFn key,
                 const SortConfig& cfg) {
  Parts<T> work = input;
  team.run([&](Comm& c) { sort_by_key(c, work[c.rank()], key, cfg); });
  Outcome out;
  out.makespan_s = team.stats().makespan_s;
  for (const auto& p : work) {
    const auto* b = reinterpret_cast<const unsigned char*>(p.data());
    out.bytes.emplace_back(b, b + p.size() * sizeof(T));
  }
  // The concatenation must be sorted by key.
  std::vector<T> all;
  for (const auto& p : work) all.insert(all.end(), p.begin(), p.end());
  EXPECT_TRUE(std::is_sorted(all.begin(), all.end(),
                             [&](const T& a, const T& b) {
                               return key(a) < key(b);
                             }));
  return out;
}

/// The same sort on `warm` and on a fresh Team of the same configuration:
/// byte-identical per-rank output and an identical simulated makespan.
template <class T, class KeyFn>
void expect_matches_fresh(Team& warm, const Parts<T>& input, KeyFn key,
                          const SortConfig& cfg, const std::string& what) {
  const Outcome got = run_sort(warm, input, key, cfg);
  Team fresh(warm.config());
  const Outcome want = run_sort(fresh, input, key, cfg);
  ASSERT_EQ(got.bytes.size(), want.bytes.size()) << what;
  for (usize r = 0; r < got.bytes.size(); ++r)
    EXPECT_TRUE(got.bytes[r] == want.bytes[r]) << what << " rank " << r;
  EXPECT_EQ(got.makespan_s, want.makespan_s) << what;
}

TEST(SortSpare, ReusedTeamMatchesFreshTeam) {
  constexpr ExchangeAlgorithm kExchanges[] = {
      ExchangeAlgorithm::Alltoallv, ExchangeAlgorithm::OneFactor,
      ExchangeAlgorithm::Hierarchical, ExchangeAlgorithm::KAry};
  constexpr MergeStrategy kMerges[] = {MergeStrategy::Sort,
                                       MergeStrategy::BinaryTree,
                                       MergeStrategy::Tournament,
                                       MergeStrategy::Auto};
  constexpr LocalSortKernel kKernels[] = {LocalSortKernel::Comparison,
                                          LocalSortKernel::Radix};
  for (int P : {2, 3, 4, 8}) {
    Team team(team_config(P));
    // One sequence of 64 sorts per P covers exchange x merge x kernel x
    // epsilon, each exchange meeting every partition shape and element
    // type. The type changes every third sort, so the spare is both reused
    // with stale contents and replaced by another type, and the sizes
    // change every sort, so outputs sometimes outgrow it.
    for (int i = 0; i < 64; ++i) {
      SortConfig cfg;
      cfg.exchange = kExchanges[i % 4];
      cfg.merge = kMerges[(i / 4) % 4];
      cfg.kernel = kKernels[(i / 16) % 2];
      cfg.epsilon = (i / 32) % 2 == 0 ? 0.0 : 0.05;
      cfg.exchange_k = 2 + i % 3;
      cfg.overlap_merge = i % 8 >= 4;
      // One sort per P is large enough for the radix kernel's MSD split.
      const usize n =
          i == 21 ? 140000 : 200 + static_cast<usize>(i) * 397 % 2500;
      const int shape = (i + i / 4) % 4;
      const bool few = i % 5 == 2;
      const auto sizes = partition_sizes(P, n, shape);
      const u64 seed = hash_mix(static_cast<u64>(P), static_cast<u64>(i));
      const std::string what = "P=" + std::to_string(P) +
                               " sort=" + std::to_string(i);
      switch ((i / 3 + i / 12) % 4) {
        case 0:
          expect_matches_fresh(team, make_input<u64>(sizes, seed, few),
                               IdentityKey{}, cfg, what + " u64");
          break;
        case 1:
          expect_matches_fresh(team, make_input<double>(sizes, seed, few),
                               IdentityKey{}, cfg, what + " f64");
          break;
        case 2:
          expect_matches_fresh(team, make_input<Rec16>(sizes, seed, few),
                               Rec16Key{}, cfg, what + " rec16");
          break;
        default:
          expect_matches_fresh(team, make_input<Rec40>(sizes, seed, few),
                               Rec40Key{}, cfg, what + " rec40");
          break;
      }
    }
  }
}

long minor_faults() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_minflt;
}

TEST(SortSpare, SteadyStateAllocatesNothing) {
  constexpr int P = 4;
  constexpr usize kPerRank = usize{1} << 20;
  TeamConfig tcfg;
  tcfg.nranks = P;
  Team team(tcfg);
  const Parts<u64> input =
      make_input<u64>(std::vector<usize>(P, kPerRank), 77, false);
  Parts<u64> work = input;
  auto sort_all = [&] {
    team.run([&](Comm& c) { sort(c, work[c.rank()]); });
  };
  auto spare_data = [&] {
    std::vector<const u64*> ptrs(P);
    team.run([&](Comm& c) { ptrs[c.rank()] = c.spare<u64>().data(); });
    return ptrs;
  };
  sort_all();  // warm-up: sizes both buffers
  const std::vector<const u64*> spare_before = spare_data();
  std::vector<const u64*> out_before(P);
  for (int r = 0; r < P; ++r) {
    work[r] = input[r];  // same size: copied into the existing buffer
    out_before[r] = work[r].data();
  }

  const long f0 = minor_faults();
  sort_all();
  const long faults = minor_faults() - f0;

  const std::vector<const u64*> spare_after = spare_data();
  for (int r = 0; r < P; ++r) {
    const u64* out = work[r].data();
    EXPECT_TRUE(out == out_before[r] || out == spare_before[r])
        << "rank " << r << " output is in a fresh buffer";
    EXPECT_TRUE(spare_after[r] == out_before[r] ||
                spare_after[r] == spare_before[r])
        << "rank " << r << " spare is a fresh buffer";
    EXPECT_NE(out, spare_after[r]);
    EXPECT_TRUE(std::is_sorted(work[r].begin(), work[r].end()));
  }
#ifndef HDS_SANITIZED_ALLOCATOR
  // One n-element buffer is kPerRank * 8 bytes = 2048 pages; without the
  // spare a sort takes about three such buffers per rank.
  const long buffer_pages = static_cast<long>(kPerRank * sizeof(u64) / 4096);
  EXPECT_LT(faults, buffer_pages / 4);
#else
  (void)faults;  // the sanitizer allocators map and fault differently
#endif
}

/// A crash in superstep 3 on a warm Team, for every exchange algorithm
/// (OneFactor and KAry overlap the merge with the exchange, so their crash
/// lands while runs are being merged into the spare): the next clean sort
/// on the same Team matches a fresh Team.
TEST(SortSpare, CrashMidExchangeThenCleanSortIsCorrect) {
  constexpr int P = 4;
  for (ExchangeAlgorithm ex :
       {ExchangeAlgorithm::Alltoallv, ExchangeAlgorithm::OneFactor,
        ExchangeAlgorithm::Hierarchical, ExchangeAlgorithm::KAry}) {
    SortConfig cfg;
    cfg.exchange = ex;
    cfg.exchange_k = 2;
    cfg.overlap_merge = true;
    cfg.merge = MergeStrategy::Tournament;
    auto plan = std::make_shared<runtime::FaultPlan>();
    TeamConfig tcfg = team_config(P);
    tcfg.fault = plan;
    Team team(tcfg);
    const auto sizes = partition_sizes(P, 3000, 0);
    const std::string what =
        "exchange " + std::to_string(static_cast<int>(ex));
    expect_matches_fresh(team, make_input<u64>(sizes, 1, false),
                         IdentityKey{}, cfg, what + " warm-up");
    // Rank 1's last exchange op: the deepest point of superstep 3.
    plan->crash_rank_at_phase_op(
        1, net::Phase::Exchange,
        plan->ops_observed_in_phase(1, net::Phase::Exchange) - 1);
    Parts<u64> doomed = make_input<u64>(sizes, 2, false);
    EXPECT_THROW(team.run([&](Comm& c) {
                   sort(c, doomed[c.rank()], cfg);
                 }),
                 runtime::rank_failed)
        << what;
    expect_matches_fresh(team, make_input<u64>(sizes, 3, false),
                         IdentityKey{}, cfg, what + " after crash");
    expect_matches_fresh(team, make_input<Rec16>(sizes, 4, false),
                         Rec16Key{}, cfg, what + " after crash, rec16");
  }
}

/// Throws out of superstep 4 on one rank once it has made `after` key
/// projections there: a failure in the middle of the k-way merge into the
/// spare.
struct ThrowingKey {
  int victim;
  int rank;
  u64 after;
  u64* calls;
  u64 operator()(const u64& v) const {
    if (rank == victim && ++*calls == after)
      throw std::runtime_error("merge failed");
    return v;
  }
};

TEST(SortSpare, CrashMidMergeThenCleanSortIsCorrect) {
  constexpr int P = 4;
  Team team(team_config(P));
  SortConfig cfg;
  cfg.merge = MergeStrategy::Tournament;
  const auto sizes = partition_sizes(P, 5000, 2);
  expect_matches_fresh(team, make_input<u64>(sizes, 5, false), IdentityKey{},
                       cfg, "warm-up");
  Parts<u64> doomed = make_input<u64>(sizes, 6, false);
  EXPECT_THROW(
      team.run([&](Comm& c) {
        using UK = SortKeyImage<u64, IdentityKey>;
        SortState<u64, UK> st;
        st.out_capacity = doomed[c.rank()].size();
        st.data = std::move(doomed[c.rank()]);
        superstep_local_sort(c, st, IdentityKey{}, cfg);
        superstep_splitters(c, st, IdentityKey{}, cfg);
        superstep_exchange(c, st, IdentityKey{}, cfg);
        u64 calls = 0;
        superstep_merge(c, st, ThrowingKey{1, c.rank(), 1000, &calls}, cfg);
      }),
      std::runtime_error);
  expect_matches_fresh(team, make_input<u64>(sizes, 7, false), IdentityKey{},
                       cfg, "after merge crash");
  expect_matches_fresh(team, make_input<double>(sizes, 8, true),
                       IdentityKey{}, cfg, "after merge crash, f64");
}

/// sort_resilient on a warm Team (its spares hold another type and size)
/// gives the same partitions and the same report as on a cold Team, in
/// every recovery mode, with a rank crashing mid-exchange.
TEST(SortSpare, ResilientRecoveryUnchangedOnWarmTeam) {
  constexpr int P = 4;
  const auto sizes = partition_sizes(P, 2000, 0);
  const Parts<u64> original = make_input<u64>(sizes, 9, false);
  std::vector<u64> expected;
  for (const auto& p : original) expected.insert(expected.end(), p.begin(), p.end());
  std::sort(expected.begin(), expected.end());

  for (RecoveryMode mode :
       {RecoveryMode::RestartFull, RecoveryMode::ResumeCheckpoint,
        RecoveryMode::ShrinkSurvivors}) {
    auto run = [&](bool warm) {
      auto plan = std::make_shared<runtime::FaultPlan>();
      TeamConfig tcfg = team_config(P);
      tcfg.fault = plan;
      Team team(tcfg);
      if (warm) {
        Parts<Rec16> other = make_input<Rec16>(partition_sizes(P, 7000, 2),
                                               10, false);
        team.run([&](Comm& c) {
          sort_by_key(c, other[c.rank()], Rec16Key{});
        });
        Parts<u64> same = make_input<u64>(partition_sizes(P, 2600, 1), 11,
                                          false);
        team.run([&](Comm& c) { sort(c, same[c.rank()]); });
      }
      plan->crash_rank_at_phase_op(2, net::Phase::Exchange, 1);
      Parts<u64> parts = original;
      ResilienceConfig rcfg;
      rcfg.mode = mode;
      ResilienceReport rep;
      (void)sort_resilient(team, parts, IdentityKey{}, SortConfig{}, rcfg,
                           &rep);
      return std::make_pair(parts, rep);
    };
    const std::string what(recovery_mode_name(mode));
    const auto [cold_parts, cold_rep] = run(false);
    const auto [warm_parts, warm_rep] = run(true);
    EXPECT_EQ(warm_parts, cold_parts) << what;
    EXPECT_EQ(warm_rep.attempts, cold_rep.attempts) << what;
    EXPECT_EQ(warm_rep.failures, cold_rep.failures) << what;
    EXPECT_EQ(warm_rep.supersteps_executed, cold_rep.supersteps_executed)
        << what;
    EXPECT_EQ(warm_rep.sim_seconds_total, cold_rep.sim_seconds_total) << what;
    EXPECT_EQ(warm_rep.final_ranks, cold_rep.final_ranks) << what;
    std::vector<u64> flat;
    for (const auto& p : warm_parts) flat.insert(flat.end(), p.begin(), p.end());
    EXPECT_EQ(flat, expected) << what;
  }
}

}  // namespace
}  // namespace hds::core
