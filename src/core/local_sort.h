// Local (per-rank) sorting and searching primitives with simulated-time
// charges. The paper's superstep 1 ("Local Sort") and the binary-search
// local histogramming of Alg. 3 both go through here so every bench and the
// phase breakdown see consistent costs.
//
// Sorting dispatches over a kernel layer: the comparison kernel (introsort,
// the seed behaviour) or the radix kernel of radix_sort.h, selected
// explicitly or — under LocalSortKernel::Auto — by a crossover derived from
// the machine model's calibrated per-element constants. Simulated charges
// always reflect the kernel that actually ran, so phase breakdowns stay
// comparable across kernels (see DESIGN.md, "Local-sort kernel layer").
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <string_view>
#include <vector>

#include "core/key_traits.h"
#include "core/radix_sort.h"
#include "net/machine.h"
#include "net/sim.h"
#include "runtime/comm.h"

namespace hds::core {

/// Identity key projection: "the record is the key".
struct IdentityKey {
  template <class V>
  constexpr const V& operator()(const V& v) const {
    return v;
  }
};

/// Which local-sort kernel to run.
enum class LocalSortKernel : u8 {
  Comparison,  ///< std::sort (introsort) — the seed behaviour
  Radix,       ///< radix over the KeyTraits projection (radix_sort.h)
  Auto,        ///< Radix iff the key is Bisectable and n clears the
               ///< calibrated crossover; Comparison otherwise
};

constexpr std::string_view kernel_name(LocalSortKernel k) {
  switch (k) {
    case LocalSortKernel::Comparison: return "comparison";
    case LocalSortKernel::Radix: return "radix";
    case LocalSortKernel::Auto: return "auto";
  }
  return "?";
}

/// Below this n the radix kernel's setup (key_bytes * 256 counters plus the
/// OR/AND and histogram reads) dominates any pass savings. The kernel's own
/// size threshold, radix_detail::kMsdMinBytes, picks plain LSD or the MSD
/// split above this floor.
inline constexpr usize kRadixMinN = 512;

/// Auto-crossover size for a key of `key_bits` bits, derived from the
/// machine model's calibrated constants: the comparison kernel costs
/// k_cmp * n * log2(n), the radix kernel k_rad * n * passes, so they break
/// even at log2(n) = passes * k_rad / k_cmp. A freshly calibrated model
/// (net/calibrate.cpp measures both constants on the build host) keeps this
/// threshold honest on hardware the defaults were not tuned for.
inline usize radix_crossover_n(const net::MachineModel& m, int key_bits) {
  const int passes = (key_bits + radix_detail::kDigitBits - 1) /
                     radix_detail::kDigitBits;
  const double k_cmp = std::max(m.sort_s_per_elem_log, 1e-15);
  const double breakeven_log2n =
      static_cast<double>(passes) * m.radix_s_per_elem_pass / k_cmp;
  if (breakeven_log2n >= 62.0) return std::numeric_limits<usize>::max();
  const double n = std::exp2(breakeven_log2n);
  return std::max(kRadixMinN, static_cast<usize>(n));
}

/// Resolve Auto to a concrete kernel for key type K and input size n.
/// Non-bisectable keys always resolve to Comparison (there is no uint
/// projection to radix over), even when Radix was requested explicitly.
template <class K>
LocalSortKernel resolve_local_sort_kernel(const net::MachineModel& m, usize n,
                                          LocalSortKernel requested) {
  if constexpr (!Bisectable<K>) {
    (void)m;
    (void)n;
    return LocalSortKernel::Comparison;
  } else {
    if (requested != LocalSortKernel::Auto) return requested;
    return n >= radix_crossover_n(m, KeyTraits<K>::key_bits)
               ? LocalSortKernel::Radix
               : LocalSortKernel::Comparison;
  }
}

/// Sort the local partition by a key projection; charged as the shared
/// memory sort of superstep 1 with the cost of the kernel that ran. The
/// radix kernel's scratch is the rank's spare buffer (Comm::spare), so a
/// warm rank sorts without allocating; `data` must not be that buffer.
template <class T, class KeyFn>
void local_sort(runtime::Comm& comm, std::vector<T>& data, KeyFn key,
                LocalSortKernel kernel = LocalSortKernel::Auto) {
  using K = std::decay_t<decltype(key(std::declval<T>()))>;
  if constexpr (Bisectable<K>) {
    if (resolve_local_sort_kernel<K>(comm.machine(), data.size(), kernel) ==
        LocalSortKernel::Radix) {
      std::vector<T>& spare = comm.spare<T>(data.size());
      HDS_CHECK(&spare != &data);
      const RadixSortStats st = radix_sort_by_key(data, key, &spare);
      comm.charge_radix_sort(data.size(), st.passes_executed,
                             radix_sorts_pairs<T, KeyFn>);
      return;
    }
  }
  std::sort(data.begin(), data.end(),
            [&](const T& a, const T& b) { return key(a) < key(b); });
  comm.charge_sort(data.size());
}

/// Count of elements with key(elem) < probe (the splitter lower bound l_i).
template <class T, class K, class KeyFn>
usize count_below(std::span<const T> sorted, K probe, KeyFn key) {
  const auto it = std::lower_bound(
      sorted.begin(), sorted.end(), probe,
      [&](const T& elem, const K& p) { return key(elem) < p; });
  return static_cast<usize>(it - sorted.begin());
}

/// Count of elements with key(elem) <= probe (the splitter upper bound u_i).
template <class T, class K, class KeyFn>
usize count_below_equal(std::span<const T> sorted, K probe, KeyFn key) {
  const auto it = std::upper_bound(
      sorted.begin(), sorted.end(), probe,
      [&](const K& p, const T& elem) { return p < key(elem); });
  return static_cast<usize>(it - sorted.begin());
}

/// (count_below, count_below_equal) for a whole batch of ASCENDING probes in
/// one forward sweep: each probe's searches are restricted to the subrange
/// right of the previous probe's upper bound, so A probes over n elements
/// cost ~A * log2(n / A) steps instead of A * log2(n). Equal adjacent
/// probes reuse the previous answer.
template <class T, class K, class KeyFn>
void batched_counts(std::span<const T> sorted, std::span<const K> probes,
                    KeyFn key, usize* lb_out, usize* ub_out) {
  usize pos = 0;
  for (usize i = 0; i < probes.size(); ++i) {
    if (i > 0 && !(probes[i - 1] < probes[i])) {
      lb_out[i] = lb_out[i - 1];
      ub_out[i] = ub_out[i - 1];
      continue;
    }
    const auto lo = std::lower_bound(
        sorted.begin() + pos, sorted.end(), probes[i],
        [&](const T& elem, const K& p) { return key(elem) < p; });
    const auto hi = std::upper_bound(
        lo, sorted.end(), probes[i],
        [&](const K& p, const T& elem) { return p < key(elem); });
    lb_out[i] = static_cast<usize>(lo - sorted.begin());
    ub_out[i] = static_cast<usize>(hi - sorted.begin());
    pos = ub_out[i];
  }
}

/// Is the local partition sorted under the key projection?
template <class T, class KeyFn>
bool is_locally_sorted(std::span<const T> data, KeyFn key) {
  return std::is_sorted(data.begin(), data.end(), [&](const T& a, const T& b) {
    return key(a) < key(b);
  });
}

}  // namespace hds::core
