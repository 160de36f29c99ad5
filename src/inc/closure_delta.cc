#include "inc/closure_delta.h"

#include <algorithm>

#include "eval/closure_expand.h"
#include "eval/csr_view.h"
#include "util/flat_hash.h"

namespace gqopt {
namespace inc {
namespace {

// Same hard cap (and the same "transitive closure exceeded the result
// cap" status) as eval/binary_relation.cc: an extension must fail
// exactly where the full recompute would.
constexpr size_t kMaxPairs = size_t{1} << 24;

}  // namespace

Result<BinaryRelation> ExtendTransitiveClosure(
    const BinaryRelation& old_closure, const std::vector<Edge>& new_edges,
    const BinaryRelation& merged, const ExecContext& ctx) {
  if (new_edges.empty()) return old_closure;
  if (old_closure.empty()) {
    return BinaryRelation::TransitiveClosure(merged, ctx);
  }
  const Deadline& deadline = ctx.deadline;
  const std::vector<Edge>& old_pairs = old_closure.pairs();
  const std::vector<Edge>& merged_pairs = merged.pairs();
  // Force the lazy CSR build before any parallel round (same discipline
  // as TransitiveClosure).
  merged.SourceCsr();

  // Dedup domain: sources come from the old closure or the new edges,
  // targets from anywhere in the merged relation or the old closure.
  NodeId max_x = 0, max_z = 0;
  for (const Edge& e : old_pairs) {
    max_x = std::max(max_x, e.first);
    max_z = std::max(max_z, e.second);
  }
  for (const Edge& e : new_edges) {
    max_x = std::max(max_x, e.first);
    max_z = std::max(max_z, e.second);
  }
  for (const Edge& e : merged_pairs) max_z = std::max(max_z, e.second);

  PairDedupSet seen(static_cast<uint64_t>(max_x) + 1,
                    static_cast<uint64_t>(max_z) + 1,
                    old_pairs.size() + new_edges.size() * 4, ctx.mem);
  std::vector<Edge> acc = old_pairs;
  DeadlinePoller poll(deadline);
  for (const Edge& e : acc) {
    seen.Insert(e.first, e.second);
    if (poll.Due() && (deadline.Expired() || ctx.MemBreached())) {
      return AbortStatus(ctx, "transitive closure");
    }
  }

  // Frontier seed: the new edges themselves plus every old-closure pair
  // extended through a new edge (old prefix + first new edge). The
  // suffix closes via the semi-naive rounds below.
  std::vector<Edge> delta;
  for (const Edge& e : new_edges) {
    if (seen.Insert(e.first, e.second)) delta.push_back(e);
  }
  for (const Edge& p : old_pairs) {
    // New-edge adjacency of the old pair's target, by binary search in
    // the (small, sorted) batch.
    auto lo = std::lower_bound(new_edges.begin(), new_edges.end(),
                               Edge{p.second, 0});
    for (auto it = lo; it != new_edges.end() && it->first == p.second; ++it) {
      if (seen.Insert(p.first, it->second)) {
        delta.emplace_back(p.first, it->second);
      }
    }
    if (poll.Due()) {
      if (deadline.Expired() || ctx.MemBreached()) {
        return AbortStatus(ctx, "transitive closure");
      }
      if (acc.size() + delta.size() > kMaxPairs) {
        return Status::ResourceExhausted(
            "transitive closure exceeded the result cap");
      }
    }
  }
  acc.insert(acc.end(), delta.begin(), delta.end());
  if (acc.size() > kMaxPairs) {
    return Status::ResourceExhausted(
        "transitive closure exceeded the result cap");
  }

  // Semi-naive right-composition over the merged relation — the same
  // round structure (parallel generate/Contains pre-filter with a
  // serial-insert fallback) as BinaryRelation::TransitiveClosure.
  std::vector<Edge> next;
  GrowthCharge mem_charge(ctx.mem);
  while (!delta.empty()) {
    if (deadline.Expired() || ctx.MemBreached()) {
      return AbortStatus(ctx, "transitive closure");
    }
    next.clear();
    bool round_done = false;
    if (ctx.EffectiveDop(delta.size()) > 1) {
      Result<bool> round = ExpandRoundParallel(
          delta,
          [&merged, &merged_pairs, &seen](const Edge& e,
                                          DeadlinePoller& gen_poll,
                                          std::vector<Edge>* out) {
            auto [lo, hi] = merged.EqualRange(e.second);
            for (uint32_t i = lo; i < hi; ++i) {
              NodeId z = merged_pairs[i].second;
              if (!seen.Contains(e.first, z)) out->emplace_back(e.first, z);
              if (gen_poll.Expired()) return false;
            }
            return true;
          },
          ctx, &seen, &next, acc.size(), kMaxPairs, "transitive closure");
      if (!round.ok()) return round.status();
      round_done = *round;
    }
    if (!round_done) {
      for (const Edge& e : delta) {
        auto [lo, hi] = merged.EqualRange(e.second);
        for (uint32_t i = lo; i < hi; ++i) {
          NodeId z = merged_pairs[i].second;
          if (seen.Insert(e.first, z)) next.emplace_back(e.first, z);
          if (poll.Due()) {
            if (deadline.Expired() || ctx.MemBreached()) {
              return AbortStatus(ctx, "transitive closure");
            }
            if (acc.size() + next.size() > kMaxPairs) {
              return Status::ResourceExhausted(
                  "transitive closure exceeded the result cap");
            }
          }
        }
      }
    }
    acc.insert(acc.end(), next.begin(), next.end());
    if (acc.size() > kMaxPairs) {
      return Status::ResourceExhausted(
          "transitive closure exceeded the result cap");
    }
    if (!mem_charge.Update(static_cast<size_t>(
            (acc.capacity() + delta.capacity() + next.capacity()) *
            sizeof(Edge)))) {
      return AbortStatus(ctx, "transitive closure");
    }
    delta.swap(next);
  }
  if (!SortUniquePairs(&acc, ctx)) {
    return AbortStatus(ctx, "transitive closure");
  }
  return BinaryRelation::FromSortedUnique(std::move(acc));
}

}  // namespace inc
}  // namespace gqopt
