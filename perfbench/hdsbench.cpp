// hdsbench: the repository benchmark program (see README.md).
//
//   hdsbench --workload=NAME --seed=N --seconds=S --trace=0|1
//            [--small] [--spans=FILE]
//
// Generates the workload's input partitions from the seed, sorts them with
// the library's public entry point (core::sort / core::sort_by_key inside
// runtime::Team::run) for S seconds, verifies every output from outside the
// library, and prints one JSON object as its last stdout line.
//
//   --trace=0  end-to-end metrics, tracing off: simulated makespan, median
//              wall seconds per sort, set-up seconds, peak RSS, load ratio
//              and the fraction of sorts that verified.
//   --trace=1  per-layer metrics: the four core::superstep_* calls are
//              timed per rank from here (wall, thread CPU, simulated
//              clock), next to the Team's phase stats, obs counters, the
//              run ledger's op classes and a one-thread std::sort
//              reference. Spans are held in memory and written to --spans
//              at exit.
//   --small    shrinks every workload for the self-test (test_perfbench.py).
//
// Exit status: 0 when every sort verified, 1 when one failed or threw (the
// JSON line is still printed), 2 on a usage error or a fault of the
// benchmark itself (nothing printed).
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <exception>
#include <fstream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "core/histogram_sort.h"
#include "net/machine.h"
#include "obs/ledger.h"
#include "runtime/comm.h"
#include "runtime/team.h"
#include "workload/distributions.h"

namespace {

using namespace hds;

template <class T>
using Parts = std::vector<std::vector<T>>;

/// 16-byte record of the records_zipf workload: the payload is the
/// record's global input index, so a lost or duplicated record changes the
/// output checksum even when its key survives.
struct Record {
  u64 key;
  u64 payload;
};
struct RecordKey {
  u64 operator()(const Record& r) const { return r.key; }
};

// --- workloads ---------------------------------------------------------------

struct Spec {
  std::string name;
  int nranks = 4;
  usize per_rank = 0;
  double epsilon = 0.0;
  bool records = false;
  net::MachineModel machine{};
  double data_scale = 1.0;
};

std::optional<Spec> make_spec(const std::string& name, bool small) {
  Spec s;
  s.name = name;
  if (name == "bulk_u64") {
    s.per_rank = small ? usize{1} << 14 : usize{1} << 22;
  } else if (name == "records_zipf") {
    s.per_rank = small ? usize{1} << 13 : usize{1} << 21;
    s.epsilon = 0.01;
    s.records = true;
  } else if (name == "scale_p1024") {
    // Fig. 2 strong scaling at 64 nodes x 16 ranks; the cost model charges
    // 2^31 keys while each rank holds 1024 (DESIGN.md, virtual workloads).
    const int nodes = small ? 4 : 64;
    s.machine = net::MachineModel::supermuc_phase2(nodes, 16);
    s.nranks = nodes * 16;
    s.per_rank = 1024;
    s.data_scale = static_cast<double>(u64{1} << 31) /
                   static_cast<double>(s.nranks * s.per_rank);
  } else {
    return std::nullopt;
  }
  return s;
}

runtime::TeamConfig team_config(const Spec& s, bool trace) {
  runtime::TeamConfig cfg;
  cfg.nranks = s.nranks;
  cfg.machine = s.machine;
  cfg.data_scale = s.data_scale;
  cfg.trace = trace;
  return cfg;
}

workload::GenConfig gen_config(const Spec& s, u64 seed) {
  workload::GenConfig g;
  g.seed = seed;
  if (s.records) {
    g.dist = workload::Dist::Zipf;
    g.zipf_s = 1.2;
    g.alphabet = 16;  // the Zipf sampler spans alphabet * 64 = 1024 values
  } else {
    g.dist = workload::Dist::Uniform;
    g.lo = 0;
    g.hi = 1'000'000'000;
  }
  return g;
}

template <class T>
Parts<T> generate(const Spec& s, u64 seed) {
  const workload::GenConfig g = gen_config(s, seed);
  Parts<T> parts(s.nranks);
  for (int r = 0; r < s.nranks; ++r) {
    std::vector<u64> keys = workload::generate_u64(g, r, s.nranks, s.per_rank);
    if constexpr (std::is_same_v<T, u64>) {
      parts[r] = std::move(keys);
    } else {
      parts[r].resize(keys.size());
      const u64 base = static_cast<u64>(r) * s.per_rank;
      for (usize i = 0; i < keys.size(); ++i) parts[r][i] = {keys[i], base + i};
    }
  }
  return parts;
}

// --- element traits: key projection and the library entry point ------------

template <class T>
struct Elem;

template <>
struct Elem<u64> {
  using Key = core::IdentityKey;
  static void sort(runtime::Comm& c, std::vector<u64>& v,
                   const core::SortConfig& cfg) {
    core::sort(c, v, cfg);
  }
  static u64 hash(u64 v) { return hash_mix(v, 0x5eed); }
};

template <>
struct Elem<Record> {
  using Key = RecordKey;
  static void sort(runtime::Comm& c, std::vector<Record>& v,
                   const core::SortConfig& cfg) {
    core::sort_by_key(c, v, RecordKey{}, cfg);
  }
  static u64 hash(const Record& r) { return hash_mix(r.key, r.payload); }
};

// --- verification (outside every timed span) --------------------------------

/// Order-independent multiset fingerprint: count plus a wrapping sum of
/// per-element hashes.
struct Fingerprint {
  u64 count = 0;
  u64 sum = 0;
  bool operator==(const Fingerprint&) const = default;
};

template <class T>
Fingerprint fingerprint(const Parts<T>& parts) {
  Fingerprint f;
  for (const auto& p : parts)
    for (const T& x : p) {
      ++f.count;
      f.sum += Elem<T>::hash(x);
    }
  return f;
}

struct Verdict {
  bool ok = true;
  std::string why;
  double max_load_ratio = 0.0;
};

/// Every partition sorted; each partition's maximum <= the next non-empty
/// partition's minimum; same count and checksum as the input; every
/// partition within N(1+eps)/P.
template <class T>
Verdict verify(const Parts<T>& out, const Fingerprint& in, double epsilon) {
  const typename Elem<T>::Key key{};
  Verdict v;
  const double P = static_cast<double>(out.size());
  const double fair = static_cast<double>(in.count) / P;
  const double cap = fair * (1.0 + epsilon) + 1e-9;
  bool have_prev = false;
  u64 prev_max = 0;
  usize largest = 0;
  for (usize r = 0; r < out.size(); ++r) {
    const auto& p = out[r];
    largest = std::max(largest, p.size());
    if (static_cast<double>(p.size()) > cap) {
      v.ok = false;
      v.why = "rank " + std::to_string(r) + " holds " +
              std::to_string(p.size()) + " > N(1+eps)/P";
    }
    if (p.empty()) continue;
    for (usize i = 1; i < p.size(); ++i)
      if (key(p[i]) < key(p[i - 1])) {
        v.ok = false;
        v.why = "rank " + std::to_string(r) + " not sorted at " +
                std::to_string(i);
        break;
      }
    if (have_prev && key(p.front()) < prev_max) {
      v.ok = false;
      v.why = "rank " + std::to_string(r) + " starts below the previous max";
    }
    prev_max = key(p.back());
    have_prev = true;
  }
  if (!(fingerprint(out) == in)) {
    v.ok = false;
    v.why = "output count/checksum differs from the input";
  }
  v.max_load_ratio = fair > 0.0 ? static_cast<double>(largest) / fair : 0.0;
  return v;
}

// --- clocks -------------------------------------------------------------------

using SteadyClock = std::chrono::steady_clock;
const SteadyClock::time_point kEpoch = SteadyClock::now();

double wall_now() {
  return std::chrono::duration<double>(SteadyClock::now() - kEpoch).count();
}

double thread_cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

// --- result -------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Result {
  std::vector<Metric> metrics;
  u64 attempted = 0;
  u64 failed = 0;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void print() const {
    for (const Metric& m : metrics)
      std::printf("  %-36s %.17g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (usize i = 0; i < metrics.size(); ++i)
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit.c_str());
    std::printf("}}\n");
    std::fflush(stdout);
  }
};

/// Sample count and quartiles of a sampled wall metric, printed above the
/// JSON line (the reps-and-spread protocol; see README.md).
void print_spread(const char* name, const std::vector<double>& xs) {
  std::printf("  %-28s n=%zu  p25=%.6g  median=%.6g  p75=%.6g s\n", name,
              xs.size(), percentile(xs, 25.0), percentile(xs, 50.0),
              percentile(xs, 75.0));
}

// --- the benchmark ------------------------------------------------------------

/// Superstep layers in call order, named after their modules.
constexpr std::array<const char*, 4> kLayers = {"local_sort", "multiselect",
                                                "exchange", "merge"};
constexpr std::array<net::Phase, 4> kLayerPhase = {
    net::Phase::LocalSort, net::Phase::Histogram, net::Phase::Exchange,
    net::Phase::Merge};

struct Stamp {
  double wall = 0.0, cpu = 0.0, sim = 0.0;
};

/// One traced interval on one rank. Superstep spans have the rank's sort
/// span as parent; sort spans have parent 0.
struct Span {
  const char* name = "";
  int rank = 0;
  u64 id = 0;
  u64 parent = 0;
  Stamp t0, t1;
};

/// Per-sort layer figures, each the max over ranks.
struct LayerSample {
  std::array<double, 4> host{}, cpu{}, wait{};
  double sort_host = 0.0;
  double residual = 0.0;  ///< sort span time no superstep span covers
};

/// Deterministic outcome of one traced sort: everything the self-test
/// requires to repeat exactly for a fixed seed.
struct Counts {
  std::array<double, 4> sim{};
  u64 rounds = 0, probes = 0, hist_bytes = 0;
  u64 bytes_on_node = 0, bytes_off_node = 0, elems_off_rank = 0;
  u64 comparisons = 0;
  std::array<obs::OpClassStats, obs::kOpClassCount> op_class{};
};

constexpr int kSetupReps = 5;
constexpr double kSetupMinSeconds = 1.0;
constexpr int kReferenceReps = 3;

template <class T>
class Bench {
 public:
  Bench(Spec spec, u64 seed) : spec_(std::move(spec)), seed_(seed) {
    cfg_.epsilon = spec_.epsilon;
  }

  /// Team construction plus input generation, on the main thread only,
  /// repeated for at least kSetupReps reps and kSetupMinSeconds so the
  /// median is steady even where one set-up takes milliseconds; the last
  /// Team and input are kept. Each rep's input must fingerprint identically
  /// (the generators are seeded).
  void setup() {
    const double start = wall_now();
    for (int i = 0; i < kSetupReps || wall_now() - start < kSetupMinSeconds;
         ++i) {
      team_.reset();
      input_ = Parts<T>();
      const double t0 = wall_now();
      team_ = std::make_unique<runtime::Team>(team_config(spec_, false));
      const double t1 = wall_now();
      input_ = generate<T>(spec_, seed_);
      const double t2 = wall_now();
      setup_s_.push_back(t2 - t0);
      gen_s_.push_back(t2 - t1);
      const Fingerprint f = fingerprint(input_);
      if (i > 0 && !(f == input_fp_))
        throw std::runtime_error("generator is not deterministic");
      input_fp_ = f;
    }
    work_.resize(input_.size());
  }

  /// One core::sort in one Team::run; returns the wall seconds of the run,
  /// or nothing when it threw.
  std::optional<double> plain_sort(runtime::Team& team) {
    ++attempted_;
    copy_input();
    double wall = 0.0;
    try {
      const double t0 = wall_now();
      team.run([&](runtime::Comm& c) { Elem<T>::sort(c, work_[c.rank()], cfg_); });
      wall = wall_now() - t0;
    } catch (const std::exception& e) {
      fail(std::string("sort threw: ") + e.what());
      return std::nullopt;
    }
    makespans_.push_back(team.stats().makespan_s);
    check_output();
    return wall;
  }

  /// The same sort driven through the four public supersteps, each call
  /// bracketed by a span on its rank; returns the wall seconds of the run,
  /// or nothing when it threw.
  std::optional<double> traced_sort(runtime::Team& team) {
    using Key = typename Elem<T>::Key;
    using UK = core::SortKeyImage<T, Key>;
    ++attempted_;
    copy_input();
    const u64 sort_no = ++traced_sorts_;
    if (spans_.empty()) spans_.resize(spec_.nranks);
    std::vector<core::SortStats> stats(spec_.nranks);
    double wall = 0.0;
    try {
      const double w0 = wall_now();
      team.run([&](runtime::Comm& c) {
        const int r = c.rank();
        auto stamp = [&c] {
          return Stamp{wall_now(), thread_cpu_now(), c.clock().now()};
        };
        std::vector<Span>& out = spans_[r];
        const u64 sort_id =
            (sort_no * static_cast<u64>(spec_.nranks) + static_cast<u64>(r)) *
            8;
        const Stamp s0 = stamp();
        core::SortState<T, UK> st;
        st.out_capacity = work_[r].size();
        st.data = std::move(work_[r]);
        st.stats.elements_before = st.data.size();
        auto step = [&](usize i, auto&& call) {
          const Stamp a = stamp();
          call();
          out.push_back({kLayers[i], r, sort_id + 1 + i, sort_id, a, stamp()});
        };
        step(0, [&] { core::superstep_local_sort(c, st, Key{}, cfg_); });
        step(1, [&] { core::superstep_splitters(c, st, Key{}, cfg_); });
        step(2, [&] { core::superstep_exchange(c, st, Key{}, cfg_); });
        step(3, [&] { core::superstep_merge(c, st, Key{}, cfg_); });
        work_[r] = std::move(st.data);
        stats[r] = st.stats;
        out.push_back({"sort", r, sort_id, 0, s0, stamp()});
      });
      wall = wall_now() - w0;
    } catch (const std::exception& e) {
      fail(std::string("traced sort threw: ") + e.what());
      return std::nullopt;
    }
    check_output();
    layer_samples_.push_back(layer_sample());
    record_counts(team, stats);
    return wall;
  }

  /// One-thread std::sort of the same N elements by key; returns seconds.
  double reference_sort() {
    std::vector<T> all;
    all.reserve(input_fp_.count);
    for (const auto& p : input_) all.insert(all.end(), p.begin(), p.end());
    const typename Elem<T>::Key key{};
    const double t0 = wall_now();
    std::sort(all.begin(), all.end(),
              [&](const T& a, const T& b) { return key(a) < key(b); });
    const double dt = wall_now() - t0;
    Parts<T> one(1);
    one[0] = std::move(all);
    // A single partition holds all N; the load cap is then N(1+eps)/1.
    const Verdict v = verify(one, input_fp_, 0.0);
    if (!v.ok) throw std::runtime_error("reference std::sort output: " + v.why);
    return dt;
  }

  Result run_untraced(double seconds) {
    setup();
    plain_sort(*team_);  // warm-up, discarded
    std::vector<double> walls;
    const double deadline = wall_now() + seconds;
    do {
      if (const auto w = plain_sort(*team_)) walls.push_back(*w);
    } while (wall_now() < deadline);

    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    std::printf("workload %s seed %llu: P=%d, %zu elements/rank\n",
                spec_.name.c_str(), static_cast<unsigned long long>(seed_),
                spec_.nranks, spec_.per_rank);
    print_spread("sort_wall_s", walls);
    print_spread("setup_s", setup_s_);
    Result res;
    res.add("sim_makespan_s", median(makespans_), "s");
    res.add("sort_wall_s", median(walls), "s");
    res.add("setup_s", median(setup_s_), "s");
    res.add("peak_rss_mib", static_cast<double>(ru.ru_maxrss) / 1024.0, "MiB");
    res.add("max_load_ratio", max_load_, "ratio");
    res.add("sort_ok_frac",
            static_cast<double>(attempted_ - failed_) /
                static_cast<double>(attempted_),
            "frac");
    res.attempted = attempted_;
    res.failed = failed_;
    return res;
  }

  Result run_traced(double seconds, const std::string& spans_path) {
    setup();
    runtime::Team traced(team_config(spec_, true));
    plain_sort(*team_);  // warm-ups, discarded
    traced_sort(traced);
    layer_samples_.clear();
    std::vector<double> plain_walls, traced_walls;
    const double deadline = wall_now() + seconds;
    do {
      if (const auto w = plain_sort(*team_)) plain_walls.push_back(*w);
      if (const auto w = traced_sort(traced)) traced_walls.push_back(*w);
    } while (wall_now() < deadline);
    if (!counts_) throw std::runtime_error("no traced sort completed");
    std::vector<double> ref;
    for (int i = 0; i < kReferenceReps; ++i) ref.push_back(reference_sort());

    std::printf("workload %s seed %llu (traced): P=%d, %zu elements/rank\n",
                spec_.name.c_str(), static_cast<unsigned long long>(seed_),
                spec_.nranks, spec_.per_rank);
    print_spread("sort_wall_s (untraced)", plain_walls);
    print_spread("sort_wall_s (traced)", traced_walls);
    print_spread("reference.std_sort_s", ref);

    Result res;
    const Counts& k = *counts_;
    auto layer_median = [&](auto field) {
      std::vector<double> xs;
      for (const LayerSample& s : layer_samples_) xs.push_back(field(s));
      return median(xs);
    };
    for (usize i = 0; i < kLayers.size(); ++i) {
      const std::string l = kLayers[i];
      const double host = layer_median([i](const LayerSample& s) { return s.host[i]; });
      const double cpu = layer_median([i](const LayerSample& s) { return s.cpu[i]; });
      res.add(l + ".host_s", host, "s");
      res.add(l + ".cpu_s", cpu, "s");
      res.add(l + ".sim_s", k.sim[i], "s");
      res.add(l + ".model_host_ratio", cpu > 0.0 ? k.sim[i] / cpu : 0.0,
              "ratio");
      if (l == "multiselect" || l == "exchange")
        res.add(l + ".wait_s",
                layer_median([i](const LayerSample& s) { return s.wait[i]; }),
                "s");
    }
    res.add("multiselect.rounds", static_cast<double>(k.rounds), "count");
    res.add("multiselect.probes", static_cast<double>(k.probes), "count");
    res.add("multiselect.probes_per_boundary",
            spec_.nranks > 1 ? static_cast<double>(k.probes) /
                                   static_cast<double>(spec_.nranks - 1)
                             : 0.0,
            "count");
    res.add("multiselect.hist_bytes", static_cast<double>(k.hist_bytes),
            "bytes");
    res.add("exchange.bytes_on_node", static_cast<double>(k.bytes_on_node),
            "bytes");
    res.add("exchange.bytes_off_node", static_cast<double>(k.bytes_off_node),
            "bytes");
    res.add("exchange.elems_off_rank", static_cast<double>(k.elems_off_rank),
            "count");
    res.add("merge.comparisons", static_cast<double>(k.comparisons), "count");
    const std::array<std::pair<const char*, std::vector<obs::OpClass>>, 5>
        classes = {{{"sync", {obs::OpClass::Sync}},
                    {"tree", {obs::OpClass::Tree}},
                    {"gather", {obs::OpClass::Gather}},
                    {"alltoall", {obs::OpClass::Alltoall}},
                    {"p2p", {obs::OpClass::Send, obs::OpClass::Recv}}}};
    for (const auto& [name, members] : classes) {
      obs::OpClassStats sum;
      for (obs::OpClass c : members) {
        const obs::OpClassStats& s = k.op_class[static_cast<usize>(c)];
        sum.count += s.count;
        sum.bytes += s.bytes;
        sum.slice_s += s.slice_s;
        sum.model_s += s.model_s;
      }
      // Ops and bytes are totals over ranks; seconds are rank-averaged like
      // <layer>.sim_s. The wait is clamped at 0 against rounding.
      const double P = static_cast<double>(spec_.nranks);
      const std::string p = std::string("runtime.") + name;
      res.add(p + ".ops", static_cast<double>(sum.count), "count");
      res.add(p + ".bytes", static_cast<double>(sum.bytes), "bytes");
      res.add(p + ".sim_s", sum.model_s / P, "s");
      res.add(p + ".sim_wait_s", std::max(0.0, sum.slice_s - sum.model_s) / P,
              "s");
    }
    res.add("workload.gen_s", median(gen_s_), "s");
    const double plain = median(plain_walls);
    res.add("obs.trace_overhead_frac",
            plain > 0.0 ? (median(traced_walls) - plain) / plain : 0.0, "frac");
    res.add("sort.host_s",
            layer_median([](const LayerSample& s) { return s.sort_host; }), "s");
    res.add("sort.residual_s",
            layer_median([](const LayerSample& s) { return s.residual; }), "s");
    const double ref_s = median(ref);
    res.add("reference.std_sort_s", ref_s, "s");
    res.add("reference.speedup", plain > 0.0 ? ref_s / plain : 0.0, "ratio");
    res.attempted = attempted_;
    res.failed = failed_;
    if (!spans_path.empty()) write_spans(spans_path);
    return res;
  }

 private:
  void copy_input() {
    for (usize r = 0; r < input_.size(); ++r) work_[r] = input_[r];
  }

  void fail(const std::string& why) {
    ++failed_;
    std::fprintf(stderr, "hdsbench: %s: %s\n", spec_.name.c_str(), why.c_str());
  }

  void check_output() {
    const Verdict v = verify(work_, input_fp_, spec_.epsilon);
    max_load_ = std::max(max_load_, v.max_load_ratio);
    if (!v.ok) fail("output failed verification: " + v.why);
  }

  /// Layer figures of the latest traced sort (the last five spans on each
  /// rank). The four superstep spans must nest in order inside the sort
  /// span; a violation means the trace itself is wrong.
  LayerSample layer_sample() {
    LayerSample s;
    for (int r = 0; r < spec_.nranks; ++r) {
      const std::vector<Span>& sp = spans_[r];
      const Span* step = &sp[sp.size() - 5];
      const Span& sort = sp.back();
      double covered = 0.0;
      double t = sort.t0.wall;
      for (usize i = 0; i < 4; ++i) {
        const double host = step[i].t1.wall - step[i].t0.wall;
        const double cpu = step[i].t1.cpu - step[i].t0.cpu;
        if (step[i].t0.wall < t || step[i].t1.wall < step[i].t0.wall)
          throw std::runtime_error(
              "superstep spans do not nest inside the sort span");
        t = step[i].t1.wall;
        covered += host;
        s.host[i] = std::max(s.host[i], host);
        s.cpu[i] = std::max(s.cpu[i], cpu);
        s.wait[i] = std::max(s.wait[i], host - cpu);
      }
      if (t > sort.t1.wall)
        throw std::runtime_error("superstep spans end after the sort span");
      const double sort_host = sort.t1.wall - sort.t0.wall;
      s.sort_host = std::max(s.sort_host, sort_host);
      s.residual = std::max(s.residual, sort_host - covered);
    }
    return s;
  }

  void record_counts(const runtime::Team& team,
                     const std::vector<core::SortStats>& stats) {
    Counts k;
    for (usize i = 0; i < kLayers.size(); ++i)
      k.sim[i] = team.stats().phase_seconds(kLayerPhase[i]);
    for (const core::SortStats& s : stats) {
      k.rounds = std::max<u64>(k.rounds, s.histogram_iterations);
      k.probes = std::max<u64>(k.probes, s.splitter_probes);
      k.hist_bytes =
          std::max<u64>(k.hist_bytes, s.hist_bytes_sampled + s.hist_bytes_dense);
      k.elems_off_rank += s.elements_sent_off_rank;
    }
    for (int r = 0; r < spec_.nranks; ++r) {
      const obs::Metrics& m = team.metrics(r);
      k.bytes_on_node += m.value(obs::Counter::ExchangeBytesOnNode);
      k.bytes_off_node += m.value(obs::Counter::ExchangeBytesOffNode);
      k.comparisons += m.value(obs::Counter::MergeComparisons);
    }
    k.op_class = obs::RunLedger::from_trace(*team.trace(), team.cost()).op_class;
    counts_ = k;
  }

  void write_spans(const std::string& path) const {
    std::ofstream os(path);
    if (!os) {
      std::fprintf(stderr, "hdsbench: cannot write spans to %s\n", path.c_str());
      return;
    }
    os.precision(17);
    for (const auto& rank_spans : spans_)
      for (const Span& s : rank_spans)
        os << "{\"name\": \"" << s.name << "\", \"rank\": " << s.rank
           << ", \"id\": " << s.id << ", \"parent\": " << s.parent
           << ", \"wall\": [" << s.t0.wall << ", " << s.t1.wall
           << "], \"cpu\": [" << s.t0.cpu << ", " << s.t1.cpu
           << "], \"sim\": [" << s.t0.sim << ", " << s.t1.sim << "]}\n";
  }

  Spec spec_;
  u64 seed_;
  core::SortConfig cfg_;
  std::unique_ptr<runtime::Team> team_;
  Parts<T> input_, work_;
  Fingerprint input_fp_;
  std::vector<double> setup_s_, gen_s_, makespans_;
  double max_load_ = 0.0;
  u64 attempted_ = 0, failed_ = 0;
  u64 traced_sorts_ = 0;
  std::vector<std::vector<Span>> spans_;  ///< per rank, own thread writes
  std::vector<LayerSample> layer_samples_;
  std::optional<Counts> counts_;
};

template <class T>
Result run(const Spec& spec, u64 seed, double seconds, bool trace,
           const std::string& spans_path) {
  Bench<T> bench(spec, seed);
  return trace ? bench.run_traced(seconds, spans_path)
               : bench.run_untraced(seconds);
}

int usage(const char* why) {
  std::fprintf(stderr,
               "hdsbench: %s\nusage: hdsbench --workload=bulk_u64|records_zipf|"
               "scale_p1024 --seed=N --seconds=S --trace=0|1 [--small] "
               "[--spans=FILE]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, spans_path;
  std::optional<u64> seed;
  double seconds = -1.0;
  int trace = -1;
  bool small = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      const auto eq = a.find('=');
      const std::string k = a.substr(0, eq);
      const std::string v = eq == std::string::npos ? "" : a.substr(eq + 1);
      if (k == "--workload") workload = v;
      else if (k == "--seed") seed = std::stoull(v);
      else if (k == "--seconds") seconds = std::stod(v);
      else if (k == "--trace") trace = std::stoi(v);
      else if (k == "--spans") spans_path = v;
      else if (a == "--small") small = true;
      else return usage(("unknown argument " + a).c_str());
    }
  } catch (const std::exception&) {
    return usage("malformed argument value");
  }
  if (!seed || seconds < 0.0 || (trace != 0 && trace != 1))
    return usage("--seed, --seconds and --trace are required");
  const std::optional<Spec> spec = make_spec(workload, small);
  if (!spec) return usage(("unknown workload '" + workload + "'").c_str());

  Result res;
  try {
    res = spec->records
              ? run<Record>(*spec, *seed, seconds, trace == 1, spans_path)
              : run<u64>(*spec, *seed, seconds, trace == 1, spans_path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hdsbench: %s\n", e.what());
    return 2;
  }
  res.print();
  return res.failed == 0 ? 0 : 1;
}
