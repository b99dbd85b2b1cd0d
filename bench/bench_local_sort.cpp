// Local-sort kernel study: real wall-clock comparison of the comparison
// kernel (std::sort) against the LSD radix kernel (core/radix_sort.h) across
// the KeyTraits-bisectable key types and a range of sizes, plus a 16-byte
// (key, payload) record row, which radix_sort_by_key sorts in place; and
// the k-way merge kernel (core/merge_inplace.h) against a radix re-sort of
// the same runs, for k in {4, 16} on u64 keys and 16-byte records.
//
// Unlike the figure benchmarks this measures *real* time, not simulated
// time: it exists to validate the machine-model constant
// `radix_s_per_elem_pass`, the Auto-dispatch crossover and the premise of
// MergeStrategy::Auto (a small fan-in merges faster than it re-sorts)
// against the hardware CI runs on. Emits a machine-readable JSON file (one
// object per (type, n, kernel[, k]) cell, each with its median, quartiles
// and rep count) consumed by the ci.sh perf smoke.
#include <algorithm>
#include <chrono>
#include <cstring>
#include <span>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"
#include "core/local_sort.h"
#include "core/merge_inplace.h"
#include "core/radix_sort.h"

namespace {

using namespace hds;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

template <class T>
T random_value(Xoshiro256& rng);

template <>
u32 random_value<u32>(Xoshiro256& rng) {
  return static_cast<u32>(rng());
}
template <>
u64 random_value<u64>(Xoshiro256& rng) {
  return rng();
}
template <>
i32 random_value<i32>(Xoshiro256& rng) {
  return static_cast<i32>(static_cast<u32>(rng()));
}
template <>
i64 random_value<i64>(Xoshiro256& rng) {
  return static_cast<i64>(rng());
}
template <>
float random_value<float>(Xoshiro256& rng) {
  return static_cast<float>((rng.uniform01() - 0.5) * 1e6);
}
template <>
double random_value<double>(Xoshiro256& rng) {
  return (rng.uniform01() - 0.5) * 1e9;
}

/// Median and quartiles of a cell's timed reps.
struct Timing {
  double median = 0.0;
  double p25 = 0.0;
  double p75 = 0.0;
  int reps = 0;
};

Timing summarize(std::vector<double> times) {
  Timing t;
  t.reps = static_cast<int>(times.size());
  t.median = median(times);
  t.p25 = percentile(times, 25.0);
  t.p75 = percentile(std::move(times), 75.0);
  return t;
}

struct Cell {
  std::string type;
  usize n = 0;
  std::string kernel;
  Timing t;
  double speedup_vs_comparison = 1.0;  ///< sort cells
  usize k = 0;                         ///< merge cells: runs merged
  double speedup_vs_resort = 0.0;      ///< kway_merge cells
};

/// Wall-clock seconds of `fn` on a fresh copy of `base` per rep; `check`
/// validates every output. Rep 0 is a cache/allocator warmup.
template <class T, class Fn, class Check>
Timing time_reps(const std::vector<T>& base, int reps, Fn fn, Check check) {
  std::vector<double> times;
  times.reserve(static_cast<usize>(reps));
  for (int r = 0; r <= reps; ++r) {
    std::vector<T> data = base;
    const double t0 = now_s();
    fn(data);
    const double t1 = now_s();
    if (!check(data)) {
      std::cerr << "FATAL: kernel produced wrong output\n";
      std::exit(1);
    }
    if (r > 0) times.push_back(t1 - t0);
  }
  return summarize(std::move(times));
}

/// time_reps checking only that the output is sorted.
template <class T, class Fn>
Timing time_kernel(const std::vector<T>& base, int reps, Fn fn) {
  return time_reps(base, reps, fn, [](const std::vector<T>& d) {
    return std::is_sorted(d.begin(), d.end());
  });
}

template <class T>
void bench_type(const std::string& type, const std::vector<usize>& sizes,
                int reps, u64 seed, Table& table, std::vector<Cell>& cells) {
  for (const usize n : sizes) {
    Xoshiro256 rng(hash_mix(seed, n));
    std::vector<T> base(n);
    for (auto& v : base) v = random_value<T>(rng);

    const Timing t_cmp = time_kernel(base, reps, [](std::vector<T>& d) {
      std::sort(d.begin(), d.end());
    });
    const Timing t_rad = time_kernel(base, reps, [](std::vector<T>& d) {
      core::radix_sort_keys(d);
    });
    const double speedup = t_rad.median > 0.0 ? t_cmp.median / t_rad.median
                                              : 0.0;

    cells.push_back({type, n, "comparison", t_cmp});
    cells.push_back({type, n, "radix", t_rad, speedup});
    table.add_row({type, std::to_string(n), fmt(t_cmp.median),
                   fmt(t_rad.median), fmt(speedup) + "x"});
  }
}

/// Record row: 16-byte (u64 key, u64 payload) records via radix_sort_by_key,
/// which sorts records of at most 3x the key width in place, against
/// std::sort with the same key projection.
/// 16-byte (u64 key, u64 payload) record, ordered by key.
struct Rec {
  u64 key;
  u64 payload;
  bool operator<(const Rec& o) const { return key < o.key; }
};

/// Record row: 16-byte records via radix_sort_by_key, which sorts records
/// of at most 3x the key width in place, against std::sort with the same
/// key projection.
void bench_records(const std::vector<usize>& sizes, int reps, u64 seed,
                   Table& table, std::vector<Cell>& cells) {
  for (const usize n : sizes) {
    Xoshiro256 rng(hash_mix(seed ^ 0xabcdULL, n));
    std::vector<Rec> base(n);
    for (auto& r : base) r = Rec{rng(), rng()};

    const Timing t_cmp = time_kernel(
        base, reps, [](std::vector<Rec>& d) { std::sort(d.begin(), d.end()); });
    const Timing t_rad = time_kernel(base, reps, [](std::vector<Rec>& d) {
      core::radix_sort_by_key(d, [](const Rec& r) { return r.key; });
    });
    const double speedup = t_rad.median > 0.0 ? t_cmp.median / t_rad.median
                                              : 0.0;
    cells.push_back({"u64x2_record", n, "comparison", t_cmp});
    cells.push_back({"u64x2_record", n, "radix", t_rad, speedup});
    table.add_row({"u64x2_record", std::to_string(n), fmt(t_cmp.median),
                   fmt(t_rad.median), fmt(speedup) + "x"});
  }
}

/// Elements of every merge cell.
constexpr usize kMergeN = usize{1} << 22;

/// One k-way merge cell and, next to it, the radix re-sort of the same
/// runs: `k` sorted runs of kMergeN / k keys uniform in [0, 1e9) (the
/// bulk_u64 benchmark's key range, so the re-sort skips its constant high
/// bytes as it does there). The merge runs kway_merge_into into a reused
/// output, as MergeStrategy::Tournament does with the rank's spare; the
/// re-sort runs radix_sort_by_key with a reused spare, as
/// MergeStrategy::Sort does through local_sort. Both are stable, so their
/// outputs must be identical.
template <class T, class Make, class KeyFn>
void bench_merge(const std::string& type, usize k, int reps, u64 seed,
                 Make make, KeyFn key, Table& table,
                 std::vector<Cell>& cells) {
  Xoshiro256 rng(hash_mix(seed ^ 0x3e76ULL, k));
  const usize per = kMergeN / k;
  std::vector<T> runs(per * k);
  for (usize i = 0; i < runs.size(); ++i)
    runs[i] = make(rng() % 1'000'000'000, i);
  auto less = [&key](const T& a, const T& b) { return key(a) < key(b); };
  std::vector<std::span<const T>> chunks;
  for (usize r = 0; r < k; ++r) {
    std::stable_sort(runs.begin() + r * per, runs.begin() + (r + 1) * per,
                     less);
    if (r > 0) chunks.emplace_back(runs.data() + r * per, per);
  }
  std::vector<T> expected = runs;
  std::stable_sort(expected.begin(), expected.end(), less);
  auto same = [&](const std::vector<T>& d) {
    return std::memcmp(d.data(), expected.data(), d.size() * sizeof(T)) == 0;
  };

  std::vector<T> out(runs.size());
  const Timing t_merge = time_reps(
      runs, reps,
      [&](std::vector<T>& d) {
        core::kway_merge_into(std::span<T>(out),
                              std::span<const T>(runs.data(), per),
                              std::span<const std::span<const T>>(chunks),
                              less);
        d.swap(out);
      },
      same);
  std::vector<T> spare(runs.size());
  const Timing t_sort = time_reps(
      runs, reps,
      [&](std::vector<T>& d) { core::radix_sort_by_key(d, key, &spare); },
      same);
  const double speedup =
      t_merge.median > 0.0 ? t_sort.median / t_merge.median : 0.0;
  cells.push_back({type, kMergeN, "kway_merge", t_merge, 1.0, k, speedup});
  cells.push_back({type, kMergeN, "radix_resort", t_sort, 1.0, k});
  table.add_row({type, std::to_string(k), std::to_string(kMergeN),
                 fmt(t_merge.median), fmt(t_merge.p75 - t_merge.p25),
                 fmt(t_sort.median), fmt(t_sort.p75 - t_sort.p25),
                 fmt(speedup) + "x"});
}

void write_json(const std::string& path, const std::vector<Cell>& cells) {
  std::ofstream out(path);
  out << "[\n";
  for (usize i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    out << "  {\"type\": \"" << c.type << "\", \"n\": " << c.n
        << ", \"kernel\": \"" << c.kernel
        << "\", \"seconds_median\": " << c.t.median
        << ", \"seconds_p25\": " << c.t.p25
        << ", \"seconds_p75\": " << c.t.p75 << ", \"reps\": " << c.t.reps;
    if (c.k == 0) {
      out << ", \"speedup_vs_comparison\": " << c.speedup_vs_comparison;
    } else {
      out << ", \"k\": " << c.k;
      if (c.kernel == "kway_merge")
        out << ", \"speedup_vs_resort\": " << c.speedup_vs_resort;
    }
    out << "}" << (i + 1 < cells.size() ? "," : "") << "\n";
  }
  out << "]\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hds;
  const bench::Args args(argc, argv);
  const int max_exp = static_cast<int>(args.get_int("max_exp", 20));
  const int reps = static_cast<int>(args.get_int("reps", 5));
  const u64 seed = static_cast<u64>(args.get_int("seed", 1));
  const std::string out_path =
      args.get_string("out", "BENCH_local_sort.json");

  std::vector<usize> sizes;
  for (int e : {16, 18, max_exp})
    if (e <= max_exp) sizes.push_back(usize{1} << e);
  sizes.erase(std::unique(sizes.begin(), sizes.end()), sizes.end());

  bench::print_header(
      "Local-sort kernel study (real wall-clock)",
      "kernel layer validation; uniform keys, median of " +
          std::to_string(reps) + " reps");

  Table table({"type", "n", "std::sort t[s]", "radix t[s]", "speedup"});
  std::vector<Cell> cells;
  bench_type<u32>("u32", sizes, reps, seed, table, cells);
  bench_type<u64>("u64", sizes, reps, seed, table, cells);
  bench_type<i32>("i32", sizes, reps, seed, table, cells);
  bench_type<i64>("i64", sizes, reps, seed, table, cells);
  bench_type<float>("f32", sizes, reps, seed, table, cells);
  bench_type<double>("f64", sizes, reps, seed, table, cells);
  bench_records(sizes, reps, seed, table, cells);

  std::cout << table.to_string();

  Table merge_table({"type", "k", "n", "merge t[s]", "IQR", "re-sort t[s]",
                     "IQR", "speedup"});
  auto rec_key = [](const Rec& r) { return r.key; };
  for (const usize k : {usize{4}, usize{16}}) {
    bench_merge<u64>(
        "u64", k, reps, seed, [](u64 v, usize) { return v; },
        [](u64 v) { return v; }, merge_table, cells);
    bench_merge<Rec>(
        "u64x2_record", k, reps, seed,
        [](u64 v, usize i) { return Rec{v, i}; }, rec_key, merge_table,
        cells);
  }
  std::cout << "\nk-way merge vs radix re-sort of the same runs (keys in "
               "[0, 1e9), median and IQR of "
            << reps << " reps)\n"
            << merge_table.to_string();

  // Derived machine-model constant: per-element per-pass seconds from the
  // largest u64 run (8 executed passes on full-range uniform keys).
  for (const Cell& c : cells) {
    if (c.type == "u64" && c.n == sizes.back() && c.kernel == "radix") {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.3g",
                    c.t.median / (static_cast<double>(c.n) * 8.0));
      std::cout << "\nimplied radix_s_per_elem_pass ~ " << buf
                << " s (machine.h default: 1.2e-9)\n";
    }
  }

  // --ledger: wall-clock benches have no Team, so emit the scalar-only
  // ledger variant. Cells carry the "wall_" prefix — tools/perf_history.py
  // only warns on these (hardware-dependent), never gates.
  {
    u64 total = 0;
    std::vector<std::pair<std::string, double>> scalars;
    for (const Cell& c : cells) {
      if (c.kernel == "kway_merge") {
        scalars.emplace_back(
            "wall_kway_merge_vs_resort_" + c.type + "_k" + std::to_string(c.k),
            c.speedup_vs_resort);
        continue;
      }
      if (c.n != sizes.back() || c.kernel != "radix") continue;
      total += c.n;
      scalars.emplace_back("wall_radix_speedup_" + c.type,
                           c.speedup_vs_comparison);
      if (c.type == "u64")
        scalars.emplace_back(
            "wall_radix_s_per_elem_pass",
            c.t.median / (static_cast<double>(c.n) * 8.0));
    }
    bench::write_wallclock_ledger_if_requested(
        args, "bench_local_sort", total,
        {{"max_exp", std::to_string(max_exp)},
         {"reps", std::to_string(reps)},
         {"seed", std::to_string(seed)}},
        std::move(scalars));
  }

  write_json(out_path, cells);
  std::cout << "wrote " << out_path << " (" << cells.size() << " cells)\n";
  return 0;
}
