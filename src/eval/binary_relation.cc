#include "eval/binary_relation.h"

#include <algorithm>
#include <limits>
#include <mutex>
#include <new>

#include "eval/closure_expand.h"
#include "util/fault_injection.h"
#include "util/flat_hash.h"

namespace gqopt {
namespace {

// Hard cap on materialized pairs per operation (~128 MB of Edge storage).
// Queries whose intermediate results exceed it fail with ResourceExhausted,
// which the benchmark harness counts as infeasible — the in-memory analogue
// of the paper's 30-minute timeout.
constexpr size_t kMaxPairs = size_t{1} << 24;

// Largest node id for which SemiJoinTarget builds a membership bitmap;
// beyond it (sparse ids) the per-pair binary search is used instead.
constexpr NodeId kMaxBitmapNode = NodeId{1} << 26;

}  // namespace

// Copies share the already-built index when the source has published one;
// a source mid-build simply yields a copy without an index (it rebuilds
// lazily). Reading csr_ is safe exactly when the acquire-load of csr_raw_
// returns non-null: the raw pointer is release-stored after csr_ is set
// and neither changes afterwards.

BinaryRelation::BinaryRelation(const BinaryRelation& other)
    : pairs_(other.pairs_) {
  if (const CsrView* raw = other.csr_raw_.load(std::memory_order_acquire)) {
    csr_ = other.csr_;
    csr_raw_.store(raw, std::memory_order_relaxed);
  }
}

BinaryRelation& BinaryRelation::operator=(const BinaryRelation& other) {
  if (this != &other) {
    pairs_ = other.pairs_;
    if (const CsrView* raw =
            other.csr_raw_.load(std::memory_order_acquire)) {
      csr_ = other.csr_;
      csr_raw_.store(raw, std::memory_order_relaxed);
    } else {
      csr_.reset();
      csr_raw_.store(nullptr, std::memory_order_relaxed);
    }
  }
  return *this;
}

BinaryRelation::BinaryRelation(BinaryRelation&& other) noexcept
    : pairs_(std::move(other.pairs_)), csr_(std::move(other.csr_)) {
  // Moving requires exclusive ownership of `other`, so relaxed is enough.
  csr_raw_.store(other.csr_raw_.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
  other.csr_raw_.store(nullptr, std::memory_order_relaxed);
}

BinaryRelation& BinaryRelation::operator=(BinaryRelation&& other) noexcept {
  if (this != &other) {
    pairs_ = std::move(other.pairs_);
    csr_ = std::move(other.csr_);
    csr_raw_.store(other.csr_raw_.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
    other.csr_raw_.store(nullptr, std::memory_order_relaxed);
  }
  return *this;
}

BinaryRelation BinaryRelation::FromPairs(std::vector<Edge> pairs) {
  SortUniquePairs(&pairs);
  BinaryRelation r;
  r.pairs_ = std::move(pairs);
  return r;
}

BinaryRelation BinaryRelation::FromSortedUnique(
    std::vector<Edge> pairs, std::shared_ptr<const CsrView> csr) {
  BinaryRelation r;
  r.pairs_ = std::move(pairs);
  r.csr_ = std::move(csr);
  if (r.csr_) r.csr_raw_.store(r.csr_.get(), std::memory_order_relaxed);
  return r;
}

bool BinaryRelation::Contains(Edge pair) const {
  return std::binary_search(pairs_.begin(), pairs_.end(), pair);
}

const CsrView& BinaryRelation::SourceCsr() const {
  // Hot path (EqualRange calls this per lookup): one acquire load.
  if (const CsrView* csr = csr_raw_.load(std::memory_order_acquire)) {
    return *csr;
  }
  return BuildSourceCsr();
}

const CsrView& BinaryRelation::BuildSourceCsr() const {
  // One process-wide build mutex: builds are rare (once per relation) and
  // short, so contention is irrelevant next to per-relation mutex bloat.
  static std::mutex build_mu;
  std::lock_guard<std::mutex> lock(build_mu);
  if (const CsrView* csr = csr_raw_.load(std::memory_order_relaxed)) {
    return *csr;
  }
  if (FaultHit(FaultPoint::kCsrBuild) == FaultKind::kAlloc) {
    throw std::bad_alloc();
  }
  if (!csr_) csr_ = std::make_shared<const CsrView>(CsrView::Build(pairs_));
  csr_raw_.store(csr_.get(), std::memory_order_release);
  return *csr_;
}

std::pair<uint32_t, uint32_t> BinaryRelation::EqualRange(NodeId v) const {
  const CsrView& csr = SourceCsr();
  if (csr.indexed()) return csr.Range(v);
  auto lo = std::lower_bound(pairs_.begin(), pairs_.end(), Edge{v, 0});
  auto hi = std::upper_bound(
      lo, pairs_.end(), Edge{v, std::numeric_limits<NodeId>::max()});
  return {static_cast<uint32_t>(lo - pairs_.begin()),
          static_cast<uint32_t>(hi - pairs_.begin())};
}

Result<BinaryRelation> BinaryRelation::Compose(const BinaryRelation& a,
                                               const BinaryRelation& b,
                                               const Deadline& deadline) {
  if (a.empty() || b.empty()) return BinaryRelation();
  const std::vector<Edge>& bp = b.pairs_;
  const std::vector<Edge>& ap = a.pairs_;
  // a is sorted by source, so the output is produced in runs of equal x.
  // Sorting/deduping each run's targets independently yields globally
  // sorted-unique output without a final full-size sort.
  std::vector<Edge> out;
  std::vector<NodeId> targets;
  DeadlinePoller poll(deadline);
  size_t i = 0;
  while (i < ap.size()) {
    NodeId x = ap[i].first;
    targets.clear();
    for (; i < ap.size() && ap[i].first == x; ++i) {
      auto [lo, hi] = b.EqualRange(ap[i].second);
      for (uint32_t j = lo; j < hi; ++j) {
        targets.push_back(bp[j].second);
        if (poll.Due()) {
          if (deadline.Expired()) {
            return Status::DeadlineExceeded("compose timed out");
          }
          if (out.size() + targets.size() > kMaxPairs) {
            return Status::ResourceExhausted(
                "compose exceeded the intermediate-result cap");
          }
        }
      }
    }
    std::sort(targets.begin(), targets.end());
    targets.erase(std::unique(targets.begin(), targets.end()),
                  targets.end());
    for (NodeId z : targets) out.emplace_back(x, z);
  }
  return FromSortedUnique(std::move(out));
}

BinaryRelation BinaryRelation::Union(const BinaryRelation& a,
                                     const BinaryRelation& b) {
  std::vector<Edge> out;
  out.reserve(a.size() + b.size());
  std::set_union(a.pairs_.begin(), a.pairs_.end(), b.pairs_.begin(),
                 b.pairs_.end(), std::back_inserter(out));
  return FromSortedUnique(std::move(out));
}

BinaryRelation BinaryRelation::Intersect(const BinaryRelation& a,
                                         const BinaryRelation& b) {
  std::vector<Edge> out;
  std::set_intersection(a.pairs_.begin(), a.pairs_.end(), b.pairs_.begin(),
                        b.pairs_.end(), std::back_inserter(out));
  return FromSortedUnique(std::move(out));
}

BinaryRelation BinaryRelation::Difference(const BinaryRelation& a,
                                         const BinaryRelation& b) {
  std::vector<Edge> out;
  std::set_difference(a.pairs_.begin(), a.pairs_.end(), b.pairs_.begin(),
                      b.pairs_.end(), std::back_inserter(out));
  return FromSortedUnique(std::move(out));
}

BinaryRelation BinaryRelation::Reverse() const {
  std::vector<Edge> out;
  out.reserve(pairs_.size());
  for (const Edge& e : pairs_) out.emplace_back(e.second, e.first);
  // Reversing a unique pair set keeps it unique: sort directly, no dedup.
  std::sort(out.begin(), out.end());
  return FromSortedUnique(std::move(out));
}

Result<BinaryRelation> BinaryRelation::TransitiveClosure(
    const BinaryRelation& r, const Deadline& deadline) {
  return TransitiveClosure(r, ExecContext{deadline});
}

Result<BinaryRelation> BinaryRelation::TransitiveClosure(
    const BinaryRelation& r, const ExecContext& ctx) {
  const Deadline& deadline = ctx.deadline;
  if (r.empty()) return r;
  const std::vector<Edge>& base = r.pairs_;
  // Force the lazy CSR build before any parallel round: EqualRange from
  // several threads must only ever read an already-built index.
  r.SourceCsr();

  // Semi-naive iteration with a dedup set: each candidate pair costs one
  // bitmap test-and-set (dense id domains) or flat hash insert instead of
  // a full sort + Difference + Union re-merge of the accumulator per
  // round.
  NodeId max_target = 0;
  for (const Edge& e : base) max_target = std::max(max_target, e.second);
  PairDedupSet seen(static_cast<uint64_t>(base.back().first) + 1,
                    static_cast<uint64_t>(max_target) + 1, r.size() * 4,
                    ctx.mem);
  std::vector<Edge> acc = base;
  for (const Edge& e : acc) seen.Insert(e.first, e.second);
  std::vector<Edge> delta = base;
  std::vector<Edge> next;
  // Charges the accumulator/frontier buffers against the query budget,
  // re-measured once per round (they only grow).
  GrowthCharge mem_charge(ctx.mem);
  DeadlinePoller poll(deadline);
  while (!delta.empty()) {
    if (deadline.Expired() || ctx.MemBreached()) {
      return AbortStatus(ctx, "transitive closure");
    }
    next.clear();
    bool round_done = false;
    if (ctx.EffectiveDop(delta.size()) > 1) {
      // Parallel frontier expansion: generation + Contains pre-filter fan
      // out per delta morsel, the dedup Insert stays serial (see
      // closure_expand.h for why this is bit-identical to the loop
      // below). A false result means the round's candidate buffers grew
      // past the memory bound — redo the round serially below.
      Result<bool> round = ExpandRoundParallel(
          delta,
          [&r, &base, &seen](const Edge& e, DeadlinePoller& gen_poll,
                             std::vector<Edge>* out) {
            auto [lo, hi] = r.EqualRange(e.second);
            for (uint32_t i = lo; i < hi; ++i) {
              NodeId z = base[i].second;
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
        auto [lo, hi] = r.EqualRange(e.second);
        for (uint32_t i = lo; i < hi; ++i) {
          NodeId z = base[i].second;
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
  // The dedup set guarantees uniqueness; one final sort restores order.
  if (!SortUniquePairs(&acc, ctx)) {
    return AbortStatus(ctx, "transitive closure");
  }
  return FromSortedUnique(std::move(acc));
}

BinaryRelation BinaryRelation::SemiJoinSource(
    const std::vector<NodeId>& nodes) const {
  if (empty() || nodes.empty()) return BinaryRelation();
  // Each kept source contributes a contiguous pair range; `nodes` is
  // sorted and unique, so concatenating the ranges preserves sorted
  // order.
  std::vector<Edge> out;
  for (NodeId v : nodes) {
    auto [lo, hi] = EqualRange(v);
    out.insert(out.end(), pairs_.begin() + lo, pairs_.begin() + hi);
  }
  return FromSortedUnique(std::move(out));
}

BinaryRelation BinaryRelation::SemiJoinTarget(
    const std::vector<NodeId>& nodes) const {
  if (empty() || nodes.empty()) return BinaryRelation();
  std::vector<Edge> out;
  // The bitmap costs O(max node id); require the id domain to be dense
  // relative to the input sizes, else binary-search per pair.
  if (nodes.back() < kMaxBitmapNode &&
      nodes.back() < 64 * (nodes.size() + pairs_.size()) + 1024) {
    // O(1) membership via a dense bitmap over the node-id domain.
    std::vector<bool> member(nodes.back() + 1, false);
    for (NodeId v : nodes) member[v] = true;
    for (const Edge& e : pairs_) {
      if (e.second < member.size() && member[e.second]) out.push_back(e);
    }
  } else {
    for (const Edge& e : pairs_) {
      if (std::binary_search(nodes.begin(), nodes.end(), e.second)) {
        out.push_back(e);
      }
    }
  }
  return FromSortedUnique(std::move(out));
}

std::vector<NodeId> BinaryRelation::Sources() const {
  std::vector<NodeId> out;
  out.reserve(pairs_.size());
  for (const Edge& e : pairs_) out.push_back(e.first);
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<NodeId> BinaryRelation::Targets() const {
  std::vector<NodeId> out;
  out.reserve(pairs_.size());
  for (const Edge& e : pairs_) out.push_back(e.second);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace gqopt
