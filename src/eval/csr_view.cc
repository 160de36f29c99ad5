#include "eval/csr_view.h"

#include <algorithm>

#include "util/offsets.h"
#include "util/sort_unique.h"

namespace gqopt {

CsrView CsrView::Build(const std::vector<Pair>& pairs) {
  CsrView view;
  if (pairs.empty()) return view;
  // Gate on density, not just the absolute cap: the offset array costs
  // O(max source), which only pays off when the source domain is within
  // a constant factor of the pair count.
  if (pairs.back().first >= kMaxIndexedSource ||
      pairs.back().first > 8 * pairs.size() + 1024) {
    view.indexed_ = false;
    return view;
  }
  view.num_sources_ = pairs.back().first + 1;
  FillSortedOffsets(
      pairs.size(), view.num_sources_,
      [&pairs](uint32_t i) { return pairs[i].first; }, &view.offsets_);
  return view;
}

bool SortUniquePairs(std::vector<CsrView::Pair>* pairs,
                     const ExecContext& ctx) {
  std::vector<CsrView::Pair>& p = *pairs;
  // In place: the keys are packed before `resize` shrinks the vector.
  return SortUniqueTuples(
      p.size(), 2,
      [&p](size_t r, size_t c) { return c == 0 ? p[r].first : p[r].second; },
      ctx, [&p](size_t m) { p.resize(m); },
      [&p](size_t i, uint32_t a, uint32_t b) { p[i] = {a, b}; });
}

void SortUniquePairs(std::vector<CsrView::Pair>* pairs) {
  ExecContext serial;
  serial.dop = 1;
  // No deadline and no memory tracker: the serial run cannot abort.
  (void)SortUniquePairs(pairs, serial);
}

}  // namespace gqopt
