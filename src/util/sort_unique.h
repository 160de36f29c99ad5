// Sort-unique over packed integer keys: the one kernel behind Distinct
// (Table::SortDistinct) and every closure result (SortUniquePairs).
//
// Keys are scattered by their top bits into buckets (per-morsel
// histograms and disjoint cursors, as in util/radix.h), each bucket is
// LSD-radix-sorted on its remaining bits and deduplicated, and the
// buckets concatenate in bucket order. No comparison sort runs except on
// tiny buckets. The output is the canonical sorted set of the input keys,
// so it is bit-identical at every dop no matter which worker scattered
// which key.

#ifndef GQOPT_UTIL_SORT_UNIQUE_H_
#define GQOPT_UTIL_SORT_UNIQUE_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "util/exec_context.h"
#include "util/mem_tracker.h"
#include "util/offsets.h"
#include "util/thread_pool.h"

namespace gqopt {

/// Spans up to this many keys take std::sort: below it, clearing and
/// prefix-summing radix histograms costs more than the comparisons.
constexpr size_t kSortUniqueSmall = 256;

/// Keys per top-bit bucket the scatter aims for: a bucket and its
/// ping-pong half stay cache-resident through the LSD passes.
constexpr size_t kSortUniqueBucketRows = size_t{1} << 12;

/// Widest LSD digit (2048 counters: the histogram stays in L1).
constexpr int kSortUniqueDigitBits = 11;

/// Sorts keys[0, n) on their low `bits` bits (all higher bits must be
/// equal across the span) and drops duplicates. `scratch` holds n keys.
/// Returns the unique count; the result is keys[0, count).
template <typename K>
size_t SortUniqueSpan(K* keys, K* scratch, size_t n, int bits) {
  if (n <= kSortUniqueSmall) {
    std::sort(keys, keys + n);
    return static_cast<size_t>(std::unique(keys, keys + n) - keys);
  }
  K* src = keys;
  K* dst = scratch;
  if (bits > 0) {
    int passes = (bits + kSortUniqueDigitBits - 1) / kSortUniqueDigitBits;
    int digit = (bits + passes - 1) / passes;
    size_t radix = size_t{1} << digit;
    K mask = static_cast<K>(radix - 1);
    uint32_t counts[size_t{1} << kSortUniqueDigitBits];
    for (int shift = 0; shift < bits; shift += digit) {
      std::fill(counts, counts + radix, 0);
      for (size_t i = 0; i < n; ++i) ++counts[(src[i] >> shift) & mask];
      // A digit every key shares would move nothing: skip the scatter.
      if (counts[(src[0] >> shift) & mask] == n) continue;
      uint32_t running = 0;
      for (size_t d = 0; d < radix; ++d) {
        uint32_t c = counts[d];
        counts[d] = running;
        running += c;
      }
      for (size_t i = 0; i < n; ++i) {
        dst[counts[(src[i] >> shift) & mask]++] = src[i];
      }
      std::swap(src, dst);
    }
  }
  // Deduplicate into `keys`, which is also the copy back when an odd
  // number of passes left the sorted run in `scratch`.
  size_t m = 1;
  keys[0] = src[0];
  for (size_t i = 1; i < n; ++i) {
    if (src[i] != keys[m - 1]) keys[m++] = src[i];
  }
  return m;
}

/// Sorts `keys` ascending and drops duplicates; every key must be below
/// 2^key_bits. Parallel when ctx.EffectiveDop(n) > 1, serial radix
/// otherwise. The scratch buffer and histograms are charged to ctx.mem.
/// Returns false on deadline expiry or memory breach (the caller turns
/// that into AbortStatus), leaving `keys` unspecified.
template <typename K>
bool SortUniqueKeys(std::vector<K>* keys, int key_bits,
                    const ExecContext& ctx) {
  size_t n = keys->size();
  if (n <= 1) return true;
  int top = std::min(
      {static_cast<int>(std::bit_width((n - 1) / kSortUniqueBucketRows)), 12,
       key_bits});
  size_t buckets = size_t{1} << top;
  int dop = ctx.EffectiveDop(n);
  ThreadPool* pool = dop > 1 ? ctx.TaskPool() : nullptr;
  if (pool == nullptr) dop = 1;
  size_t chunk = (n + dop - 1) / dop;
  size_t chunks = (n + chunk - 1) / chunk;
  TrackedBytes charge(ctx.mem);
  if (!charge.Add(static_cast<int64_t>(n * sizeof(K) +
                                       (chunks + 1) * buckets * 4))) {
    return false;
  }
  if (ctx.deadline.Expired()) return false;
  std::unique_ptr<K[]> scratch(new K[n]);  // no zero fill: fully written
  K* data = keys->data();
  if (top == 0) {
    keys->resize(SortUniqueSpan(data, scratch.get(), n, key_bits));
    return true;
  }
  int shift = key_bits - top;

  // Scatter by the top bits: per-chunk histograms, then a bucket-major,
  // chunk-minor prefix walk gives each chunk disjoint write cursors.
  std::vector<std::vector<uint32_t>> counts(
      chunks, std::vector<uint32_t>(buckets, 0));
  auto not_aborted = [&ctx] { return !ctx.MemBreached(); };
  bool ok = ParallelFor(pool, dop, n, chunk, ctx.deadline,
                        [&](size_t b, size_t e) {
                          std::vector<uint32_t>& c = counts[b / chunk];
                          for (size_t i = b; i < e; ++i) {
                            ++c[data[i] >> shift];
                          }
                          return not_aborted();
                        });
  if (!ok) return false;
  std::vector<uint32_t> offsets(buckets + 1, 0);
  uint32_t running = 0;
  for (size_t p = 0; p < buckets; ++p) {
    offsets[p] = running;
    for (size_t c = 0; c < chunks; ++c) {
      uint32_t count = counts[c][p];
      counts[c][p] = running;
      running += count;
    }
  }
  offsets[buckets] = running;
  ok = ParallelFor(pool, dop, n, chunk, ctx.deadline,
                   [&](size_t b, size_t e) {
                     std::vector<uint32_t>& cursor = counts[b / chunk];
                     K* out = scratch.get();
                     for (size_t i = b; i < e; ++i) {
                       out[cursor[data[i] >> shift]++] = data[i];
                     }
                     return not_aborted();
                   });
  if (!ok) return false;

  // Sort and deduplicate each bucket in place in `scratch`, with the
  // same span of `keys` as its ping-pong half.
  std::vector<uint32_t> kept(buckets + 1, 0);
  size_t grain = std::max<size_t>(1, buckets / (static_cast<size_t>(dop) * 8));
  ok = ParallelFor(pool, dop, buckets, grain, ctx.deadline,
                   [&](size_t b, size_t e) {
                     for (size_t p = b; p < e; ++p) {
                       size_t len = offsets[p + 1] - offsets[p];
                       if (len == 0) continue;
                       kept[p] = static_cast<uint32_t>(SortUniqueSpan(
                           scratch.get() + offsets[p], data + offsets[p],
                           len, shift));
                     }
                     return not_aborted();
                   });
  if (!ok) return false;

  // Concatenate the deduplicated buckets, in bucket order, into `keys`.
  uint32_t total = ExclusivePrefixSum(&kept);
  ok = ParallelFor(pool, dop, buckets, grain, ctx.deadline,
                   [&](size_t b, size_t e) {
                     for (size_t p = b; p < e; ++p) {
                       const K* from = scratch.get() + offsets[p];
                       std::copy(from, from + (kept[p + 1] - kept[p]),
                                 data + kept[p]);
                     }
                     return true;
                   });
  if (!ok) return false;
  keys->resize(total);
  return true;
}

/// Sort-unique over n tuples of `width` (1 or 2) uint32 columns: the one
/// pack/sort/unpack path of Distinct and closure results. `at(r, c)`
/// reads column c of row r. Each column is rebased to its minimum and
/// packed in its value range's bit width, so LDBC's 14-bit ids sort as
/// 28-bit keys (32-bit keys whenever the widths fit, 64-bit otherwise).
/// On success `resize(m)` is called once with the unique count, then
/// `put(i, a, b)` writes unique tuple i (b is unused at width 1) from
/// parallel morsels over disjoint i; tuples come in ascending
/// lexicographic order. Returns false on deadline expiry or memory
/// breach.
template <typename At, typename Resize, typename Put>
bool SortUniqueTuples(size_t n, size_t width, const At& at,
                      const ExecContext& ctx, const Resize& resize,
                      const Put& put) {
  int dop = ctx.EffectiveDop(n);
  ThreadPool* pool = dop > 1 ? ctx.TaskPool() : nullptr;
  size_t grain = ParallelGrain(n, dop);
  // Per-morsel column ranges, reduced serially.
  struct Range {
    uint32_t lo[2] = {UINT32_MAX, UINT32_MAX};
    uint32_t hi[2] = {0, 0};
  };
  std::vector<Range> ranges(n == 0 ? 0 : (n + grain - 1) / grain);
  bool ok = ParallelFor(pool, dop, n, grain, ctx.deadline,
                        [&](size_t b, size_t e) {
                          // Accumulate in locals: neighbouring morsels'
                          // Range slots share cache lines.
                          Range range;
                          for (size_t r = b; r < e; ++r) {
                            for (size_t c = 0; c < width; ++c) {
                              uint32_t v = at(r, c);
                              range.lo[c] = std::min(range.lo[c], v);
                              range.hi[c] = std::max(range.hi[c], v);
                            }
                          }
                          ranges[b / grain] = range;
                          return true;
                        });
  if (!ok) return false;
  Range all;
  for (const Range& range : ranges) {
    for (size_t c = 0; c < width; ++c) {
      all.lo[c] = std::min(all.lo[c], range.lo[c]);
      all.hi[c] = std::max(all.hi[c], range.hi[c]);
    }
  }
  uint32_t lo0 = all.lo[0];
  uint32_t lo1 = width == 2 ? all.lo[1] : 0;
  int bits1 =
      width == 2 ? static_cast<int>(std::bit_width(all.hi[1] - lo1)) : 0;
  int key_bits =
      (n == 0 ? 0 : static_cast<int>(std::bit_width(all.hi[0] - lo0))) +
      bits1;
  uint64_t mask1 = (uint64_t{1} << bits1) - 1;

  auto run = [&](auto zero) -> bool {
    using K = decltype(zero);
    TrackedBytes charge(ctx.mem);
    if (!charge.Add(static_cast<int64_t>(n * sizeof(K)))) return false;
    std::vector<K> keys(n);
    // Shifts go through uint64_t: bits1 may be 32 even for 32-bit keys
    // (a constant first column).
    bool packed = ParallelFor(
        pool, dop, n, grain, ctx.deadline, [&](size_t b, size_t e) {
          for (size_t r = b; r < e; ++r) {
            uint64_t key = static_cast<uint64_t>(at(r, 0) - lo0) << bits1;
            if (width == 2) key |= at(r, 1) - lo1;
            keys[r] = static_cast<K>(key);
          }
          return !ctx.MemBreached();
        });
    if (!packed || !SortUniqueKeys(&keys, key_bits, ctx)) return false;
    size_t m = keys.size();
    resize(m);
    int out_dop = ctx.EffectiveDop(m);
    return ParallelFor(
        out_dop > 1 ? pool : nullptr, out_dop, m, ParallelGrain(m, out_dop),
        ctx.deadline, [&](size_t b, size_t e) {
          for (size_t i = b; i < e; ++i) {
            uint64_t key = keys[i];
            put(i, static_cast<uint32_t>(lo0 + (key >> bits1)),
                static_cast<uint32_t>(lo1 + (key & mask1)));
          }
          return true;
        });
  };
  return key_bits <= 32 ? run(uint32_t{0}) : run(uint64_t{0});
}

}  // namespace gqopt

#endif  // GQOPT_UTIL_SORT_UNIQUE_H_
