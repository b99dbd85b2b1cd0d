// Exchange wall-clock study: the direct ALL-TO-ALLV exchange
// (Comm::alltoallv_into, the single-copy data path of DESIGN.md sec. 11)
// and the k-ary interleaved exchange (DESIGN.md sec. 13) for the exchange
// and merge supersteps, at P in {8, 16} on u64 keys and 64-byte records.
//
// Like bench_local_sort this measures *real* time, not simulated time: the
// simulated clock is fixed by the cost model, so the wall-clock is what
// shows the copies and the merge work the code actually performs. The
// alltoallv exchange superstep and the exchange+merge supersteps are timed
// separately (barrier-to-barrier on rank 0's clock): the exchange cell
// isolates the copy cost, the exchange+merge cell is the comparand of the
// k-ary cells, whose overlapped merge makes them one combined phase.
// Splitters are computed once per cell and reused across reps. Emits
// BENCH_exchange.json (one object per (type, P, algo, k, phase) cell),
// shape-checked by tools/validate_bench.py.
#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"
#include "core/exchange.h"
#include "core/histogram_sort.h"
#include "core/merge.h"
#include "runtime/comm.h"
#include "runtime/team.h"

namespace {

using namespace hds;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// 64-byte record: sort key plus 56 payload bytes, the paper's "large
/// element" regime where copy cost dominates comparison cost.
struct Rec64 {
  u64 key;
  u64 pad[7];
};

struct Cell {
  std::string type;
  int nranks = 0;
  std::string phase;  // "exchange" | "exchange+merge"
  usize n_per_rank = 0;
  double seconds_median = 0.0;
  std::string algo = "alltoallv";  // "alltoallv" | "kary"
  int k = 0;                       // k-ary radix; 0 for alltoallv
  /// k-ary cells only: the alltoallv exchange+merge median of the same
  /// (type, P, n) divided by this cell's median.
  double speedup_vs_alltoallv = 0.0;
  /// Per-round simulated-time attribution (k-ary cells only): how much of
  /// each round is communication vs overlapped tail merge on rank 0.
  std::vector<core::KAryRoundTrace> rounds;
};

struct Timing {
  double exchange = 0.0;  ///< median seconds, exchange superstep only
  double total = 0.0;     ///< median seconds, exchange + merge
};

template <class T, class KeyFn, class MakeFn>
Timing time_exchange(int P, usize n, int reps, u64 seed,
                     core::MergeStrategy merge, KeyFn key, MakeFn make) {
  runtime::Team team({.nranks = P});
  std::vector<double> t_exchange, t_total;
  team.run([&](runtime::Comm& c) {
    Xoshiro256 rng(hash_mix(seed, static_cast<u64>(c.rank())));
    std::vector<T> local(n);
    for (auto& v : local) v = make(rng);
    std::sort(local.begin(), local.end(),
              [&](const T& a, const T& b) { return key(a) < key(b); });
    const std::span<const T> sorted_view(local.data(), local.size());

    std::vector<usize> targets(static_cast<usize>(P) - 1);
    for (usize b = 0; b < targets.size(); ++b) targets[b] = (b + 1) * n;
    const auto sp = core::find_splitters(c, sorted_view, key,
                                         std::span<const usize>(targets));

    // Two separate rep loops rather than split timestamps in one: the merge
    // between reps perturbs allocator and cache state enough to swamp the
    // copy cost on an oversubscribed host, so the exchange cells are
    // measured with nothing else in the loop.
    for (int r = 0; r <= reps; ++r) {  // rep 0 is a warmup
      c.barrier();
      const double t0 = now_s();
      auto ex = core::exchange(c, sorted_view, sp);
      c.barrier();
      const double t1 = now_s();
      usize off = 0;
      for (const usize cnt : ex.recv_counts) {
        if (!std::is_sorted(
                ex.data.begin() + static_cast<std::ptrdiff_t>(off),
                ex.data.begin() + static_cast<std::ptrdiff_t>(off + cnt),
                            [&](const T& a, const T& b) {
                              return key(a) < key(b);
                            })) {
          std::cerr << "FATAL: exchange produced an unsorted chunk\n";
          std::exit(1);
        }
        off += cnt;
      }
      if (c.rank() == 0 && r > 0) t_exchange.push_back(t1 - t0);
    }
    for (int r = 0; r <= reps; ++r) {  // rep 0 is a warmup
      c.barrier();
      const double t0 = now_s();
      auto ex = core::exchange(c, sorted_view, sp);
      core::merge_chunks(c, ex.data, std::span<const usize>(ex.recv_counts),
                         merge, key);
      c.barrier();
      const double t1 = now_s();
      if (!std::is_sorted(ex.data.begin(), ex.data.end(),
                          [&](const T& a, const T& b) {
                            return key(a) < key(b);
                          })) {
        std::cerr << "FATAL: exchange+merge produced unsorted output\n";
        std::exit(1);
      }
      if (c.rank() == 0 && r > 0) t_total.push_back(t1 - t0);
    }
  });
  return {median(std::move(t_exchange)), median(std::move(t_total))};
}

/// The k-ary exchange with overlap returns one already-merged run; timing
/// it barrier-to-barrier therefore covers the "exchange+merge" phase. The
/// per-round simulated breakdown (communication vs overlapped merge) is
/// captured from rank 0 during the warmup rep — it is deterministic.
template <class T, class KeyFn, class MakeFn>
double time_kary(int P, usize n, int reps, u64 seed, int k, KeyFn key,
                 MakeFn make,
                 std::vector<core::KAryRoundTrace>& trace_out) {
  runtime::Team team({.nranks = P});
  std::vector<double> t_total;
  team.run([&](runtime::Comm& c) {
    Xoshiro256 rng(hash_mix(seed, static_cast<u64>(c.rank())));
    std::vector<T> local(n);
    for (auto& v : local) v = make(rng);
    std::sort(local.begin(), local.end(),
              [&](const T& a, const T& b) { return key(a) < key(b); });
    const std::span<const T> sorted_view(local.data(), local.size());

    std::vector<usize> targets(static_cast<usize>(P) - 1);
    for (usize b = 0; b < targets.size(); ++b) targets[b] = (b + 1) * n;
    const auto sp = core::find_splitters(c, sorted_view, key,
                                         std::span<const usize>(targets));

    for (int r = 0; r <= reps; ++r) {  // rep 0 is a warmup
      c.barrier();
      const double t0 = now_s();
      auto ex = core::exchange_kary(
          c, sorted_view, sp, key, k, /*overlap_merge=*/true,
          (r == 0 && c.rank() == 0) ? &trace_out : nullptr);
      c.barrier();
      const double t1 = now_s();
      if (!std::is_sorted(ex.data.begin(), ex.data.end(),
                          [&](const T& a, const T& b) {
                            return key(a) < key(b);
                          })) {
        std::cerr << "FATAL: k-ary exchange produced unsorted output\n";
        std::exit(1);
      }
      if (c.rank() == 0 && r > 0) t_total.push_back(t1 - t0);
    }
  });
  return median(std::move(t_total));
}

/// One representative traced run for --trace / --ledger (satellite of the
/// observability PR): u64 keys at P=16 through the k-ary exchange with
/// merge overlap — the configuration the perf history tracks — executed
/// once in a trace-enabled team so the run ledger gets real slices. The
/// wall-clock cells above stay untraced: tracing is observational for
/// simulated time but not for the real time they measure.
void run_traced_representative(const bench::Args& args, usize n, u64 seed,
                               const std::vector<Cell>& cells) {
  if (!args.has("trace") && !args.has("ledger")) return;
  constexpr int P = 16;
  constexpr int kArity = 4;
  runtime::TeamConfig tcfg;
  tcfg.nranks = P;
  tcfg.trace = true;
  runtime::Team team(tcfg);
  team.run([&](runtime::Comm& c) {
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
    net::PhaseScope ps(c.clock(), net::Phase::Exchange);
    auto ex = core::exchange_kary(c, sorted_view, sp, key, kArity,
                                  /*overlap_merge=*/true);
    if (!std::is_sorted(ex.data.begin(), ex.data.end())) {
      std::cerr << "FATAL: traced k-ary exchange produced unsorted output\n";
      std::exit(1);
    }
  });
  bench::write_trace_if_requested(args, team);

  // Headline cells for the perf history: deterministic simulated seconds
  // from the traced run (gated at >10% regression) plus the best k-ary
  // wall-clock speedup over alltoallv (recorded, warn-only — it moves with
  // the host machine).
  std::vector<std::pair<std::string, double>> scalars = {
      {"sim_makespan_s", team.stats().makespan_s},
      {"sim_exchange_s", team.stats().phase_seconds(net::Phase::Exchange)},
      {"sim_merge_s", team.stats().phase_seconds(net::Phase::Merge)},
      {"sim_histogram_s", team.stats().phase_seconds(net::Phase::Histogram)},
  };
  double best_kary = 0.0;
  for (const Cell& cell : cells)
    if (cell.type == "u64" && cell.nranks == P && cell.algo == "kary")
      best_kary = std::max(best_kary, cell.speedup_vs_alltoallv);
  if (best_kary > 0.0)
    scalars.emplace_back("wall_kary_best_vs_alltoallv_u64", best_kary);

  bench::write_ledger_if_requested(
      args, team, "bench_exchange", static_cast<u64>(n) * P,
      {{"type", "u64"},
       {"algo", "kary"},
       {"k", std::to_string(kArity)},
       {"n_per_rank", std::to_string(n)},
       {"seed", std::to_string(seed)}},
      std::move(scalars));
}

void write_json(const std::string& path, const std::vector<Cell>& cells) {
  std::ofstream out(path);
  out << "[\n";
  for (usize i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    out << "  {\"type\": \"" << c.type << "\", \"nranks\": " << c.nranks
        << ", \"phase\": \"" << c.phase
        << "\", \"n_per_rank\": " << c.n_per_rank
        << ", \"seconds_median\": " << c.seconds_median
        << ", \"algo\": \"" << c.algo << "\", \"k\": " << c.k;
    if (c.algo == "kary")
      out << ", \"speedup_vs_alltoallv\": " << c.speedup_vs_alltoallv;
    if (!c.rounds.empty()) {
      out << ", \"rounds\": [";
      for (usize r = 0; r < c.rounds.size(); ++r)
        out << (r ? ", " : "") << "{\"round\": " << r
            << ", \"exchange_s\": " << c.rounds[r].comm_s
            << ", \"merge_s\": " << c.rounds[r].merge_s << "}";
      out << "]";
    }
    out << "}" << (i + 1 < cells.size() ? "," : "") << "\n";
  }
  out << "]\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hds;
  const bench::Args args(argc, argv);
  const int reps = static_cast<int>(args.get_int("reps", 7));
  const u64 seed = static_cast<u64>(args.get_int("seed", 1));
  const usize n_u64 =
      static_cast<usize>(args.get_int("n_u64", i64{1} << 18));
  const usize n_rec =
      static_cast<usize>(args.get_int("n_rec", i64{1} << 15));
  const std::string out_path = args.get_string("out", "BENCH_exchange.json");
  const std::string merge_arg = args.get_string("merge", "binary-tree");
  const core::MergeStrategy merge =
      merge_arg == "sort"
          ? core::MergeStrategy::Sort
          : (merge_arg == "tournament" ? core::MergeStrategy::Tournament
                                       : core::MergeStrategy::BinaryTree);

  bench::print_header(
      "Exchange study (real wall-clock)",
      "alltoallv exchange and k-ary interleaved exchange; exchange and "
      "merge supersteps, median of " +
          std::to_string(reps) + " reps, merge=" + merge_arg);

  Table table({"type", "P", "n/rank", "exchange t[s]",
               "exchange+merge t[s]"});
  std::vector<Cell> cells;

  Table kary_table({"type", "P", "n/rank", "k", "rounds", "alltoallv t[s]",
                    "kary t[s]", "speedup"});

  // Returns the alltoallv exchange+merge median — the comparand of the
  // k-ary cells of the same (type, P, n).
  auto run_cell = [&](const std::string& type, int P, usize n, auto key,
                      auto make) {
    using T = std::decay_t<decltype(make(std::declval<Xoshiro256&>()))>;
    const Timing t = time_exchange<T>(P, n, reps, seed, merge, key, make);
    for (const auto& [phase, secs] :
         {std::pair<std::string, double>{"exchange", t.exchange},
          std::pair<std::string, double>{"exchange+merge", t.total}}) {
      Cell cell;
      cell.type = type;
      cell.nranks = P;
      cell.phase = phase;
      cell.n_per_rank = n;
      cell.seconds_median = secs;
      cells.push_back(std::move(cell));
    }
    table.add_row({type, std::to_string(P), std::to_string(n),
                   fmt(t.exchange), fmt(t.total)});
    return t.total;
  };

  auto run_kary_cell = [&](const std::string& type, int P, usize n, int k,
                           double alltoallv_total, auto key, auto make) {
    using T = std::decay_t<decltype(make(std::declval<Xoshiro256&>()))>;
    Cell cell;
    cell.type = type;
    cell.nranks = P;
    cell.phase = "exchange+merge";
    cell.n_per_rank = n;
    cell.algo = "kary";
    cell.k = k;
    cell.seconds_median =
        time_kary<T>(P, n, reps, seed, k, key, make, cell.rounds);
    cell.speedup_vs_alltoallv = cell.seconds_median > 0.0
                                    ? alltoallv_total / cell.seconds_median
                                    : 0.0;
    kary_table.add_row({type, std::to_string(P), std::to_string(n),
                        std::to_string(k),
                        std::to_string(cell.rounds.size()),
                        fmt(alltoallv_total), fmt(cell.seconds_median),
                        fmt(cell.speedup_vs_alltoallv) + "x"});
    cells.push_back(std::move(cell));
  };

  const auto u64_key = [](u64 v) { return v; };
  const auto u64_make = [](Xoshiro256& rng) { return rng(); };
  const auto rec_key = [](const Rec64& r) { return r.key; };
  const auto rec_make = [](Xoshiro256& rng) {
    Rec64 r{};
    r.key = rng();
    return r;
  };

  for (int P : {8, 16}) {
    const double u64_total = run_cell("u64", P, n_u64, u64_key, u64_make);
    const double rec_total = run_cell("rec64", P, n_rec, rec_key, rec_make);
    for (int k : {2, 4, 8, P}) {
      if (k == P && P == 8) continue;  // k=8 already covers it
      run_kary_cell("u64", P, n_u64, k, u64_total, u64_key, u64_make);
      run_kary_cell("rec64", P, n_rec, k, rec_total, rec_key, rec_make);
    }
  }

  std::cout << table.to_string();
  std::cout << "\nk-ary interleaved exchange (overlap_merge) vs alltoallv "
               "exchange+merge:\n"
            << kary_table.to_string();
  run_traced_representative(args, n_u64, seed, cells);
  write_json(out_path, cells);
  std::cout << "wrote " << out_path << " (" << cells.size() << " cells)\n";
  return 0;
}
