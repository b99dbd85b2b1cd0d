// The merge kernels of the local merge phase and of the k-way exchange's
// round pipeline (DESIGN.md sec. 11 and 13).
//
//  * merge_tail_inplace — backward binary merge into the tail of the
//    destination buffer, the in-place building block of the single-copy
//    data path: the accumulated run stays where it is, the arriving chunk
//    is merged in from a separate scratch buffer, and no full-size staging
//    allocation is made. The chunk must NOT alias the destination: a
//    backward merge whose second range is the tail of the same buffer can
//    overwrite unread chunk elements (when the write cursor k-1 lands
//    inside the unread chunk region while acc elements remain), which is
//    why callers keep the chunk in a pooled scratch vector.
//  * kway_merge_into — the repository's one stable k-way merge: the runs
//    are cut at exact output ranks into cache-sized segments, and each
//    segment is merged by a pairwise tree of branch-free 2-way merges, four
//    segments stepped in lockstep.
#pragma once

#include <algorithm>
#include <array>
#include <span>
#include <vector>

#include "common/error.h"
#include "common/types.h"

namespace hds::core {

/// Merge `acc[0 .. n1)` (sorted, already in place) with the sorted `chunk`
/// into `acc[0 .. n1 + chunk.size())`. `acc` must already be resized to the
/// merged length and must not overlap `chunk`. Equal keys keep range order
/// (acc before chunk), matching std::merge's stability.
template <class T, class Less>
void merge_tail_inplace(std::span<T> acc, usize n1, std::span<const T> chunk,
                        Less less) {
  const usize n2 = chunk.size();
  HDS_CHECK(acc.size() == n1 + n2);
  usize i = n1;
  usize j = n2;
  usize k = n1 + n2;
  // Ternaries instead of an if/else: the comparison is data-dependent, so
  // conditional moves beat a mispredicted branch per element.
  while (i > 0 && j > 0) {
    const bool take_acc = less(chunk[j - 1], acc[i - 1]);
    acc[--k] = take_acc ? acc[i - 1] : chunk[j - 1];
    i -= take_acc ? 1 : 0;
    j -= take_acc ? 0 : 1;
  }
  while (j > 0) acc[--k] = chunk[--j];
  // j == 0: acc[0 .. i) is already in final position.
}

namespace detail {

/// Output bytes of one merge segment: a quarter of a 2 MiB L2, so the four
/// segments merged together keep their intermediate levels in cache.
inline constexpr usize kMergeSegmentBytes = usize{512} << 10;
/// Segments merged together; their 2-way merges are stepped in lockstep.
inline constexpr usize kMergeLanes = 4;
/// Fewest elements of a segment: below it the cut costs more than the
/// lockstep gains, and the last elements are placed by head selection.
inline constexpr usize kMergeMinSegment = 64;
/// A 2-way merge whose shorter side has fewer elements than this leaves the
/// lockstep loop and gallops to its end.
inline constexpr usize kGallopBelow = 16;

/// One 2-way merge of [a, a_end) and [b, b_end) into `out`, ties to a. The
/// right input may already sit at the tail of its own output range: every
/// write lands at or below the unread right elements.
template <class T>
struct MergeLane {
  const T* a;
  const T* a_end;
  const T* b;
  const T* b_end;
  T* out;
};

template <class T>
usize shorter_side(const MergeLane<T>& l) {
  return static_cast<usize>(std::min(l.a_end - l.a, l.b_end - l.b));
}

/// Copy [src, end) to `out`, which is at or below src; a run already in
/// place is left alone.
template <class T>
T* move_down(const T* src, const T* end, T* out) {
  if (src == out) return out + (end - src);
  return std::copy(src, end, out);
}

/// One branch-free merge step. Both heads are loaded, the value selected,
/// and the cursors advanced by the comparison bit: written as `t ? 0 : 1`,
/// gcc turns the advance into a data-dependent branch and the step costs
/// about five times as much. A record wider than a register is selected by
/// its source pointer instead, which gcc keeps in registers where the two
/// loaded records would go through the stack.
template <class T, class Less>
inline void merge_step(MergeLane<T>& l, Less& less) {
  const bool t = less(*l.b, *l.a);
  if constexpr (sizeof(T) <= sizeof(u64)) {
    const T va = *l.a;
    const T vb = *l.b;
    *l.out++ = t ? vb : va;
  } else {
    *l.out++ = *(t ? l.b : l.a);
  }
  l.a += !t;
  l.b += t;
}

/// `steps` steps of each of N lanes, interleaved so their dependency
/// chains overlap. No lane may run out: steps <= shorter_side of each.
template <usize N, class T, class Less>
void step_lanes(MergeLane<T>* lanes, usize steps, Less& less) {
  std::array<MergeLane<T>, N> l{};
  std::copy_n(lanes, N, l.begin());
  for (usize s = 0; s < steps; ++s) {
#pragma GCC unroll 4
    for (usize q = 0; q < N; ++q) merge_step(l[q], less);
  }
  std::copy_n(l.begin(), N, lanes);
}

/// Finish a lane by galloping: place the shorter side one element at a
/// time, each after a binary search and a block copy of the longer side.
/// Returns the comparisons made.
template <class T, class Less>
u64 gallop_finish(MergeLane<T> l, Less& less) {
  u64 cmp = 0;
  auto counted = [&](const T& x, const T& y) {
    ++cmp;
    return less(x, y);
  };
  while (l.a != l.a_end && l.b != l.b_end) {
    if (l.a_end - l.a <= l.b_end - l.b) {
      // Right elements strictly below the left head come first.
      const T* stop = std::lower_bound(l.b, l.b_end, *l.a, counted);
      l.out = move_down(l.b, stop, l.out);
      l.b = stop;
      *l.out++ = *l.a++;
    } else {
      // Left elements up to and including the right head come first.
      const T* stop = std::upper_bound(l.a, l.a_end, *l.b, counted);
      l.out = std::copy(l.a, stop, l.out);
      l.a = stop;
      *l.out++ = *l.b++;
    }
  }
  l.out = std::copy(l.a, l.a_end, l.out);
  move_down(l.b, l.b_end, l.out);
  return cmp;
}

/// Run every merge of `jobs`, kMergeLanes at a time in lockstep: each round
/// steps all live lanes as far as the shortest side allows, retires lanes
/// whose shorter side fell below kGallopBelow, and refills from the queue.
/// Returns the comparisons made.
template <class T, class Less>
u64 run_merges(std::span<const MergeLane<T>> jobs, Less& less) {
  std::array<MergeLane<T>, kMergeLanes> live{};
  usize nlive = 0;
  usize next = 0;
  u64 cmp = 0;
  while (true) {
    usize w = 0;
    for (usize q = 0; q < nlive; ++q) {
      if (shorter_side(live[q]) < kGallopBelow)
        cmp += gallop_finish(live[q], less);
      else
        live[w++] = live[q];
    }
    nlive = w;
    while (nlive < kMergeLanes && next < jobs.size()) {
      const MergeLane<T>& l = jobs[next++];
      if (shorter_side(l) < kGallopBelow)
        cmp += gallop_finish(l, less);
      else
        live[nlive++] = l;
    }
    if (nlive == 0) return cmp;
    usize steps = shorter_side(live[0]);
    for (usize q = 1; q < nlive; ++q)
      steps = std::min(steps, shorter_side(live[q]));
    cmp += steps * nlive;
    switch (nlive) {
      case 4: step_lanes<4>(live.data(), steps, less); break;
      case 3: step_lanes<3>(live.data(), steps, less); break;
      case 2: step_lanes<2>(live.data(), steps, less); break;
      default: step_lanes<1>(live.data(), steps, less); break;
    }
  }
}

/// Move the exact stable cut of `runs` forward by `step` output ranks.
/// On entry cut[i] is the number of run i's elements among the first r
/// outputs, in the stable order (key, then run index, then position); on
/// return among the first r + step, which must not exceed the total.
/// Multisequence selection: each run's new cut lies in the window
/// [cut[i], hi[i]]. A pivot is ranked against every window by binary
/// search, and each window shrinks to the side of it that holds the cut.
/// The pivot is the middle element of one window, chosen as the median of
/// all windows' middle elements weighted by window width, so every round
/// discards at least a quarter of the total width. `hi` and `pos` are
/// scratch of runs.size() entries, `open_runs` a reusable index list.
/// Returns the comparisons made.
template <class T, class Less>
u64 advance_cut(std::span<const std::span<const T>> runs, usize* cut,
                usize* hi, usize* pos, std::vector<usize>& open_runs,
                usize step, Less& less) {
  const usize m = runs.size();
  u64 cmp = 0;
  auto counted = [&](const T& x, const T& y) {
    ++cmp;
    return less(x, y);
  };
  usize target = step;
  for (usize i = 0; i < m; ++i) {
    target += cut[i];
    hi[i] = std::min(runs[i].size(), cut[i] + step);
  }
  auto mid = [&](usize i) -> const T& {
    return runs[i][cut[i] + (hi[i] - cut[i]) / 2];
  };
  while (true) {
    open_runs.clear();
    usize width = 0;
    for (usize i = 0; i < m; ++i) {
      if (hi[i] == cut[i]) continue;
      open_runs.push_back(i);
      width += hi[i] - cut[i];
    }
    if (open_runs.empty()) return cmp;
    std::sort(open_runs.begin(), open_runs.end(), [&](usize a, usize b) {
      if (counted(mid(a), mid(b))) return true;
      if (counted(mid(b), mid(a))) return false;
      return a < b;
    });
    usize j = open_runs.back();
    usize acc = 0;
    for (const usize i : open_runs) {
      acc += hi[i] - cut[i];
      if (2 * acc >= width) {
        j = i;
        break;
      }
    }
    const usize p = cut[j] + (hi[j] - cut[j]) / 2;
    const T& pivot = runs[j][p];
    // Elements before the pivot, each run's count clamped into its window:
    // below r + step exactly when the pivot is among the first r + step.
    usize before = p;
    for (usize i = 0; i < m; ++i) {
      if (i == j) continue;
      const T* first = runs[i].data() + cut[i];
      const T* last = runs[i].data() + hi[i];
      // Equal keys of an earlier run precede the pivot, of a later follow.
      const T* at = i < j ? std::upper_bound(first, last, pivot, counted)
                          : std::lower_bound(first, last, pivot, counted);
      pos[i] = static_cast<usize>(at - runs[i].data());
      before += pos[i];
    }
    usize* const side = before < target ? cut : hi;
    for (usize i = 0; i < m; ++i)
      if (i != j) side[i] = pos[i];
    side[j] = before < target ? p + 1 : p;
  }
}

}  // namespace detail

/// Merge the sorted `base` run and the sorted `chunks` into `dst`, which
/// must already have size base.size() + sum(chunks) and must not alias any
/// input. Equal keys keep range order (base first, then the chunks in the
/// given order), matching std::merge's stability. Returns the number of
/// comparator calls, so callers can count them without a stateful
/// comparator in the hot loop.
///
/// The output is cut at exact ranks into segments of up to
/// kMergeSegmentBytes (detail::advance_cut, ties to the earlier run, so a
/// run of equal keys cannot inflate a segment). The k slices of a segment
/// are merged by a pairwise tree of branch-free 2-way merges: O(n log k)
/// comparisons, each element moved once per level. Four segments are
/// merged together and their 2-way merges stepped in lockstep, so four
/// independent dependency chains fill the out-of-order window. The
/// intermediate levels need no memory of their own: they live in the part
/// of `dst` no segment has been written to yet, its tail, which the same
/// few segments' worth of elements reuse group after group, so it stays in
/// cache. Segments shrink as that tail runs out, and the last few elements
/// are placed by selecting the smallest head.
template <class T, class Less>
u64 kway_merge_into(std::span<T> dst, std::span<const T> base,
                    std::span<const std::span<const T>> chunks, Less less) {
  using detail::kMergeLanes;
  // Non-empty runs only: stability is by run order, and an empty run would
  // add a level for nothing.
  std::vector<std::span<const T>> runs;
  runs.reserve(chunks.size() + 1);
  usize total = 0;
  for (usize i = 0; i <= chunks.size(); ++i) {
    const std::span<const T> r = i == 0 ? base : chunks[i - 1];
    if (r.empty()) continue;
    runs.push_back(r);
    total += r.size();
  }
  HDS_CHECK(dst.size() == total);
  if (runs.empty()) return 0;
  if (runs.size() == 1) {
    std::copy(runs[0].begin(), runs[0].end(), dst.begin());
    return 0;
  }

  const usize m = runs.size();
  // Intermediate buffers per segment: none when the one level writes
  // straight into dst, one for two levels, two (alternating) for more.
  const usize bufs = m <= 2 ? 0 : m <= 4 ? 1 : 2;
  const usize cap =
      std::max<usize>(detail::kMergeSegmentBytes / sizeof(T), 1);
  // cuts[g * m + i]: run i's elements before segment g of the current
  // group of kMergeLanes segments; row 0 is where the group starts.
  std::vector<usize> cuts((kMergeLanes + 1) * m, 0);
  std::vector<usize> hi(m);
  std::vector<usize> pos(m);
  std::vector<usize> open_runs;
  open_runs.reserve(m);
  // items[g * m + t]: item t of segment g at the current level, in run
  // order; an item at a buffer level sits at its natural offset (the sizes
  // of the items before it), which is what lets an odd last item pass
  // through a level without being copied.
  std::vector<std::span<const T>> items(kMergeLanes * m);
  std::vector<detail::MergeLane<T>> jobs;
  jobs.reserve(kMergeLanes * (m / 2));
  std::array<usize, kMergeLanes> off{};
  const std::span<const std::span<const T>> rs(runs);
  u64 cmp = 0;

  usize start = 0;
  while (true) {
    // The group's output [start, start + 4 seg) and its intermediate
    // buffers at the end of dst must not overlap.
    const usize rest = total - start;
    const usize seg = std::min(cap, rest / ((1 + bufs) * kMergeLanes));
    if (seg < detail::kMergeMinSegment) break;
    T* const inter = dst.data() + total - bufs * kMergeLanes * seg;
    for (usize g = 0; g < kMergeLanes; ++g) {
      usize* const row = &cuts[(g + 1) * m];
      std::copy_n(&cuts[g * m], m, row);
      if (start + (g + 1) * seg == total) {  // only with no buffers
        for (usize i = 0; i < m; ++i) row[i] = runs[i].size();
      } else {
        cmp += detail::advance_cut(rs, row, hi.data(), pos.data(), open_runs,
                                   seg, less);
      }
      for (usize i = 0; i < m; ++i)
        items[g * m + i] = runs[i].subspan(cuts[g * m + i],
                                           row[i] - cuts[g * m + i]);
    }
    usize count = m;
    for (usize level = 0; count > 1; ++level) {
      const bool last = count == 2;
      off.fill(0);
      jobs.clear();
      // Pair-major, segment-minor: consecutive jobs belong to different
      // segments, so the lockstep lanes are independent merges.
      for (usize t = 0; t + 1 < count; t += 2) {
        for (usize g = 0; g < kMergeLanes; ++g) {
          const std::span<const T> a = items[g * m + t];
          const std::span<const T> b = items[g * m + t + 1];
          T* const base_out =
              last ? dst.data() + start + g * seg
                   : inter + ((level % 2) * kMergeLanes + g) * seg;
          T* const out = base_out + off[g];
          jobs.push_back({a.data(), a.data() + a.size(), b.data(),
                          b.data() + b.size(), out});
          items[g * m + t / 2] =
              std::span<const T>(out, a.size() + b.size());
          off[g] += a.size() + b.size();
        }
      }
      if (count % 2 == 1)
        for (usize g = 0; g < kMergeLanes; ++g)
          items[g * m + count / 2] = items[g * m + count - 1];
      cmp += detail::run_merges(std::span<const detail::MergeLane<T>>(jobs),
                                less);
      count = (count + 1) / 2;
    }
    start += kMergeLanes * seg;
    // The next group starts where this one ended.
    std::copy_n(&cuts[kMergeLanes * m], m, cuts.begin());
  }

  // Too few elements left for segments with room for their levels: take
  // the smallest head each time, the earliest run on ties.
  usize* const at = cuts.data();
  for (usize o = start; o < total; ++o) {
    usize j = m;
    for (usize i = 0; i < m; ++i) {
      if (at[i] == runs[i].size()) continue;
      if (j == m) {
        j = i;
      } else {
        ++cmp;
        if (less(runs[i][at[i]], runs[j][at[j]])) j = i;
      }
    }
    dst[o] = runs[j][at[j]++];
  }
  return cmp;
}

/// K-way generalization of merge_tail_inplace for the k-ary exchange's
/// round pipeline: merge `acc[0 .. n1)` (sorted, in place) with the sorted
/// `chunks` into `acc[0 .. n1 + sum(chunks))`. The only staging allocation
/// is a copy of acc's own n1-element prefix (not the full merged size),
/// evacuated so kway_merge_into may write anywhere in `acc`. The chunks
/// must NOT alias `acc`; `acc` must already be resized to the merged
/// length. Equal keys keep range order (acc first, then the chunks in the
/// given order).
template <class T, class Less>
void merge_tail_inplace_kway(std::span<T> acc, usize n1,
                             std::span<const std::span<const T>> chunks,
                             Less less) {
  usize total = n1;
  for (const auto& c : chunks) total += c.size();
  HDS_CHECK(acc.size() == total);
  if (total == n1) return;
  if (chunks.size() == 1) {  // binary case: no evacuation needed
    merge_tail_inplace(acc, n1, chunks[0], less);
    return;
  }
  std::vector<T> run0(acc.begin(), acc.begin() + n1);
  kway_merge_into(acc, std::span<const T>(run0), chunks, less);
}

}  // namespace hds::core
