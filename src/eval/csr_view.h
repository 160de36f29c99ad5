// CSR (compressed-sparse-row) index over a sorted (source, target) pair
// array: a prefix-offset table giving the contiguous index range of every
// source's pairs in O(1), replacing the per-pair binary searches of the
// naive evaluation core.
//
// A CsrView stores *positions*, not pointers, so it remains valid across
// copies and moves of the pair vector it was built from, as long as the
// contents are unchanged. It is deliberately independent of the graph
// headers: it indexes any vector of (uint32, uint32) pairs sorted by
// (first, second) — per-label edge lists, BinaryRelation pair sets, and
// reversed adjacency alike.

#ifndef GQOPT_EVAL_CSR_VIEW_H_
#define GQOPT_EVAL_CSR_VIEW_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/exec_context.h"

namespace gqopt {

/// \brief Offset-array view of a sorted pair set, indexed by pair source.
class CsrView {
 public:
  using Pair = std::pair<uint32_t, uint32_t>;

  CsrView() = default;

  /// Largest source id the offset array will cover. Pair sets whose
  /// maximum source exceeds this (pathologically sparse id spaces — the
  /// offset array would cost O(max id) memory) are left unindexed;
  /// callers must check indexed() and fall back to binary search.
  static constexpr uint32_t kMaxIndexedSource = uint32_t{1} << 27;

  /// Builds over `pairs`, which must be sorted by (first, second).
  /// O(max_source + pairs.size()) time; no re-sorting.
  static CsrView Build(const std::vector<Pair>& pairs);

  /// False when the source domain was too sparse to index; Range() must
  /// not be used then.
  bool indexed() const { return indexed_; }

  /// Index range [first, second) into the pair array whose source is `v`.
  /// O(1); empty range for sources beyond the indexed domain. Only valid
  /// when indexed().
  std::pair<uint32_t, uint32_t> Range(uint32_t v) const {
    if (v >= num_sources_) return {0, 0};
    return {offsets_[v], offsets_[v + 1]};
  }

  /// Number of pairs with source `v`.
  uint32_t Degree(uint32_t v) const {
    auto [lo, hi] = Range(v);
    return hi - lo;
  }

  /// One past the largest indexed source id (0 when empty).
  uint32_t num_sources() const { return num_sources_; }

  /// Number of indexed pairs.
  size_t edges() const {
    return num_sources_ == 0 ? 0 : offsets_[num_sources_];
  }

 private:
  std::vector<uint32_t> offsets_;  // size num_sources_ + 1
  uint32_t num_sources_ = 0;
  bool indexed_ = true;
};

/// Sorts `pairs` by (first, second) and drops duplicates through the
/// radix sort-unique kernel (util/sort_unique.h), parallel when
/// ctx.EffectiveDop(size) > 1. Returns false on deadline expiry or memory
/// breach (the caller turns that into AbortStatus).
bool SortUniquePairs(std::vector<CsrView::Pair>* pairs,
                     const ExecContext& ctx);

/// Serial, ungoverned SortUniquePairs.
void SortUniquePairs(std::vector<CsrView::Pair>* pairs);

}  // namespace gqopt

#endif  // GQOPT_EVAL_CSR_VIEW_H_
