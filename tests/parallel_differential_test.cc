// Differential tests for partition-parallel execution: every operator
// must produce BIT-IDENTICAL tables at dop=1 and dop=N — same rows, same
// row order, same sort-prefix claim — across join strategies, seeded and
// unseeded closures, selections and projections, including empty and
// single-partition inputs. The parallel row threshold is lowered to 0 so
// small (fast) inputs still exercise the parallel code paths.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "eval/binary_relation.h"
#include "eval/csr_view.h"
#include "graph/property_graph.h"
#include "ra/catalog.h"
#include "ra/executor.h"
#include "api/stages.h"  // white-box stage access
#include "ra/ra_expr.h"
#include "ra/table.h"
#include "util/exec_context.h"
#include "util/radix.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace gqopt {
namespace {

// A pool with enough workers for dop=4 even on single-core CI boxes.
ThreadPool& TestPool() {
  static ThreadPool pool(3);
  return pool;
}

ExecContext At(int dop) {
  ExecContext ctx;
  ctx.dop = dop;
  ctx.parallel_min_rows = 0;  // parallelize regardless of input size
  ctx.pool = &TestPool();
  return ctx;
}

// Runs `plan` serially and at dop, asserting bit-identical results.
void ExpectDopAgnostic(const Catalog& catalog, const RaExprPtr& plan,
                       int dop = 4) {
  Executor executor(catalog);
  auto serial = executor.Run(plan, At(1));
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  auto parallel = executor.Run(plan, At(dop));
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  EXPECT_EQ(serial->columns(), parallel->columns());
  EXPECT_EQ(serial->sort_prefix(), parallel->sort_prefix());
  // data() compares raw row-major storage: rows AND row order must match.
  EXPECT_EQ(serial->data(), parallel->data());
}

PropertyGraph RandomGraph(size_t nodes, size_t edges_per_label,
                          uint64_t seed) {
  Rng rng(seed);
  PropertyGraph graph;
  for (size_t i = 0; i < nodes; ++i) {
    graph.AddNode(i % 64 == 0 ? "SEED" : "N");
  }
  for (size_t i = 0; i < edges_per_label; ++i) {
    (void)graph.AddEdge(static_cast<NodeId>(rng.Uniform(nodes)), "e1",
                        static_cast<NodeId>(rng.Uniform(nodes)));
    (void)graph.AddEdge(static_cast<NodeId>(rng.Uniform(nodes)), "e2",
                        static_cast<NodeId>(rng.Uniform(nodes)));
  }
  return graph;
}

TEST(ParallelDifferentialTest, FlatHashJoin) {
  PropertyGraph graph = RandomGraph(2000, 8000, 11);
  Catalog catalog(graph);
  // Shared column trailing on the left, leading-but-unsorted via the
  // projection reorder on the right: hash fallback.
  RaExprPtr plan = RaExpr::Join(
      RaExpr::EdgeScan("e1", "x", "y"),
      RaExpr::Project(RaExpr::EdgeScan("e2", "z", "y"),
                      {{"y", "y"}, {"z", "z"}}),
      JoinStrategy::kFlatHash);
  ExpectDopAgnostic(catalog, plan);
}

TEST(ParallelDifferentialTest, RadixHashJoinWithRealPartitions) {
  // Build side above kRadixTargetPartitionRows => radix_bits >= 1, so the
  // per-partition build/probe loop actually fans out.
  PropertyGraph graph = RandomGraph(20000, 40000, 12);
  Catalog catalog(graph);
  RaExprPtr plan = RaExpr::Join(
      RaExpr::EdgeScan("e1", "x", "y"),
      RaExpr::Project(RaExpr::EdgeScan("e2", "z", "y"),
                      {{"y", "y"}, {"z", "z"}}),
      JoinStrategy::kRadixHash);
  ASSERT_GE(RadixBitsFor(40000), 1);
  ExpectDopAgnostic(catalog, plan);
  ExpectDopAgnostic(catalog, plan, /*dop=*/2);
}

TEST(ParallelDifferentialTest, RadixAnnotationOnSmallBuildDegrades) {
  // Forced radix on a build below the partition target: radix_bits == 0,
  // single logical partition — the degrade path must stay dop-agnostic.
  PropertyGraph graph = RandomGraph(500, 2000, 13);
  Catalog catalog(graph);
  RaExprPtr plan = RaExpr::Join(
      RaExpr::EdgeScan("e1", "x", "y"),
      RaExpr::Project(RaExpr::EdgeScan("e2", "z", "y"),
                      {{"y", "y"}, {"z", "z"}}),
      JoinStrategy::kRadixHash);
  ASSERT_EQ(RadixBitsFor(2000), 0);
  ExpectDopAgnostic(catalog, plan);
}

TEST(ParallelDifferentialTest, MergeAndOffsetJoins) {
  PropertyGraph graph = RandomGraph(2000, 8000, 14);
  Catalog catalog(graph);
  // Both sides sorted on the shared (x, y) prefix: merge.
  RaExprPtr merge = RaExpr::Join(RaExpr::EdgeScan("e1", "x", "y"),
                                 RaExpr::EdgeScan("e2", "x", "y"),
                                 JoinStrategy::kMergeSorted);
  ExpectDopAgnostic(catalog, merge);
  // Right side sorted on the single shared column: offset.
  RaExprPtr offset = RaExpr::Join(RaExpr::EdgeScan("e1", "x", "y"),
                                  RaExpr::EdgeScan("e2", "y", "z"),
                                  JoinStrategy::kOffset);
  ExpectDopAgnostic(catalog, offset);
}

TEST(ParallelDifferentialTest, SelectionAndProjection) {
  PropertyGraph graph = RandomGraph(300, 3000, 15);
  Catalog catalog(graph);
  RaExprPtr join = RaExpr::Join(RaExpr::EdgeScan("e1", "x", "y"),
                                RaExpr::EdgeScan("e2", "y", "z"));
  // Non-identity projection (column reorder) over a selection.
  RaExprPtr plan = RaExpr::Project(RaExpr::SelectEq(join, "x", "z"),
                                   {{"z", "a"}, {"y", "b"}});
  ExpectDopAgnostic(catalog, plan);
}

TEST(ParallelDifferentialTest, SeededAndUnseededClosure) {
  PropertyGraph graph = RandomGraph(1500, 3000, 16);
  Catalog catalog(graph);
  for (SeedSide side : {SeedSide::kSource, SeedSide::kTarget}) {
    RaExprPtr plan = RaExpr::TransitiveClosure(
        RaExpr::EdgeScan("e1", "s", "t"), "s", "t",
        RaExpr::NodeScan({"SEED"}, side == SeedSide::kSource ? "s" : "t"),
        side);
    ExpectDopAgnostic(catalog, plan);
  }
  RaExprPtr unseeded =
      RaExpr::TransitiveClosure(RaExpr::EdgeScan("e1", "s", "t"), "s", "t");
  ExpectDopAgnostic(catalog, unseeded);
}

TEST(ParallelDifferentialTest, BinaryRelationClosureMatchesAcrossDop) {
  Rng rng(17);
  std::vector<Edge> pairs;
  for (size_t i = 0; i < 4000; ++i) {
    pairs.emplace_back(static_cast<NodeId>(rng.Uniform(900)),
                       static_cast<NodeId>(rng.Uniform(900)));
  }
  BinaryRelation r = BinaryRelation::FromPairs(std::move(pairs));
  auto serial = BinaryRelation::TransitiveClosure(r, At(1));
  ASSERT_TRUE(serial.ok());
  for (int dop : {2, 4}) {
    auto parallel = BinaryRelation::TransitiveClosure(r, At(dop));
    ASSERT_TRUE(parallel.ok());
    EXPECT_EQ(serial->pairs(), parallel->pairs()) << "dop " << dop;
  }
}

TEST(ParallelDifferentialTest, EmptyInputs) {
  PropertyGraph graph = RandomGraph(100, 400, 18);
  Catalog catalog(graph);
  // "nope" has no edges: empty scans flow through every strategy.
  for (JoinStrategy s :
       {JoinStrategy::kAuto, JoinStrategy::kFlatHash, JoinStrategy::kRadixHash,
        JoinStrategy::kMergeSorted, JoinStrategy::kOffset}) {
    RaExprPtr plan = RaExpr::Join(RaExpr::EdgeScan("e1", "x", "y"),
                                  RaExpr::EdgeScan("nope", "y", "z"), s);
    ExpectDopAgnostic(catalog, plan);
  }
  RaExprPtr closure =
      RaExpr::TransitiveClosure(RaExpr::EdgeScan("nope", "s", "t"), "s", "t");
  ExpectDopAgnostic(catalog, closure);
  RaExprPtr empty_probe = RaExpr::Join(RaExpr::EdgeScan("nope", "x", "y"),
                                       RaExpr::EdgeScan("e1", "y", "z"),
                                       JoinStrategy::kFlatHash);
  ExpectDopAgnostic(catalog, empty_probe);
}

TEST(ParallelDifferentialTest, OptimizedPlansEndToEnd) {
  // The full pipeline at a parallel-planning optimizer setting: annotated
  // plans (with p= hints) and an optimizer-seeded closure must execute
  // dop-agnostically too. "e3" is sparse so the closure stays small.
  Rng rng(19);
  PropertyGraph graph = RandomGraph(20000, 40000, 19);
  for (size_t i = 0; i < 6000; ++i) {
    (void)graph.AddEdge(static_cast<NodeId>(rng.Uniform(20000)), "e3",
                        static_cast<NodeId>(rng.Uniform(20000)));
  }
  Catalog catalog(graph);
  OptimizerOptions options;
  options.dop = 4;
  RaExprPtr plan = RaExpr::Join(
      RaExpr::Join(RaExpr::EdgeScan("e1", "x", "y"),
                   RaExpr::Project(RaExpr::EdgeScan("e2", "z", "y"),
                                   {{"y", "y"}, {"z", "z"}})),
      RaExpr::TransitiveClosure(RaExpr::EdgeScan("e3", "z", "w"), "z", "w"));
  RaExprPtr optimized = OptimizePlan(plan, catalog, options);
  ExpectDopAgnostic(catalog, optimized);
}

// --- Sort-unique kernel: Distinct and closure results ---------------------

// The canonical answer: rows sorted lexicographically, duplicates dropped.
std::vector<NodeId> ReferenceDistinct(const std::vector<NodeId>& data,
                                      size_t arity) {
  std::vector<std::vector<NodeId>> rows;
  for (size_t r = 0; r < data.size() / arity; ++r) {
    rows.emplace_back(data.begin() + r * arity,
                      data.begin() + (r + 1) * arity);
  }
  std::sort(rows.begin(), rows.end());
  rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
  std::vector<NodeId> out;
  for (const auto& row : rows) out.insert(out.end(), row.begin(), row.end());
  return out;
}

// `n` rows of `arity` ids below `range`, of which about `dup_ratio` are
// repeats of the others.
std::vector<NodeId> RandomRows(size_t n, size_t arity, double dup_ratio,
                               uint64_t range, uint64_t seed) {
  Rng rng(seed);
  // Draw at most half the id space, so distinct rows are always found.
  double space = std::pow(static_cast<double>(range), arity) / 2;
  size_t unique = static_cast<size_t>(std::min(
      {static_cast<double>(n) * (1 - dup_ratio), static_cast<double>(n),
       space}));
  unique = std::max<size_t>(unique, 1);
  std::set<std::vector<NodeId>> pool;
  while (pool.size() < unique && n > 0) {
    std::vector<NodeId> row;
    for (size_t c = 0; c < arity; ++c) {
      row.push_back(static_cast<NodeId>(rng.Uniform(range)));
    }
    pool.insert(row);
  }
  std::vector<std::vector<NodeId>> rows(pool.begin(), pool.end());
  while (rows.size() < n) rows.push_back(rows[rng.Uniform(pool.size())]);
  for (size_t i = rows.size(); i > 1; --i) {
    std::swap(rows[i - 1], rows[rng.Uniform(i)]);
  }
  std::vector<NodeId> out;
  for (const auto& row : rows) out.insert(out.end(), row.begin(), row.end());
  return out;
}

enum class Prefix { kNone, kAscending, kDescending, kFull };

// A table over `data` laid out and marked as `prefix` declares.
Table MakeTable(size_t arity, std::vector<NodeId> data, Prefix prefix) {
  std::vector<std::vector<NodeId>> rows;
  for (size_t r = 0; r < data.size() / arity; ++r) {
    rows.emplace_back(data.begin() + r * arity,
                      data.begin() + (r + 1) * arity);
  }
  auto first = [](const auto& a, const auto& b) { return a[0] < b[0]; };
  if (prefix == Prefix::kAscending) {
    std::stable_sort(rows.begin(), rows.end(), first);
  } else if (prefix == Prefix::kDescending) {
    std::stable_sort(rows.rbegin(), rows.rend(), first);
  } else if (prefix == Prefix::kFull) {
    std::sort(rows.begin(), rows.end());
  }
  data.clear();
  for (const auto& row : rows) data.insert(data.end(), row.begin(), row.end());
  const char* names[] = {"c0", "c1", "c2"};
  Table t = Table::FromData({names, names + arity}, std::move(data));
  if (prefix == Prefix::kAscending) t.MarkSortPrefix(1);
  if (prefix == Prefix::kDescending) t.MarkSortPrefix(1, {true});
  if (prefix == Prefix::kFull) t.MarkSorted();
  return t;
}

// SortDistinct at dop 1, 2 and 4 must equal the reference exactly, mark
// the result fully sorted, and leave a table sharing the block untouched.
void ExpectDistinct(size_t arity, const std::vector<NodeId>& data,
                    Prefix prefix, const std::string& what) {
  std::vector<NodeId> expected = ReferenceDistinct(data, arity);
  for (int dop : {1, 2, 4}) {
    Table t = MakeTable(arity, data, prefix);
    Table shared = t;
    std::vector<NodeId> before = shared.data();
    Status status = t.SortDistinct(At(dop));
    ASSERT_TRUE(status.ok()) << status.ToString();
    EXPECT_EQ(t.data(), expected) << what << " dop " << dop;
    EXPECT_TRUE(t.sorted()) << what << " dop " << dop;
    EXPECT_EQ(shared.data(), before) << what << " dop " << dop;
  }
}

TEST(ParallelDifferentialTest, SortDistinctMatchesReferenceAtEveryDop) {
  uint64_t seed = 40;
  for (size_t arity : {1, 2, 3}) {
    for (Prefix prefix : {Prefix::kNone, Prefix::kAscending,
                          Prefix::kDescending, Prefix::kFull}) {
      for (double dup : {0.0, 0.5, 0.95}) {
        for (size_t n : {0, 1, 2, 7, 300, 5000, 20000}) {
          // Dense ids (LDBC-like 14-bit) and the full 32-bit range.
          for (uint64_t range : {uint64_t{12000}, uint64_t{1} << 32}) {
            std::string what = "arity " + std::to_string(arity) +
                               " prefix " +
                               std::to_string(static_cast<int>(prefix)) +
                               " dup " + std::to_string(dup) + " n " +
                               std::to_string(n) + " range " +
                               std::to_string(range);
            ExpectDistinct(arity, RandomRows(n, arity, dup, range, ++seed),
                           prefix, what);
          }
        }
      }
    }
  }
}

TEST(ParallelDifferentialTest, SortDistinctEdgeCases) {
  for (size_t arity : {1, 2, 3}) {
    for (Prefix prefix : {Prefix::kNone, Prefix::kAscending,
                          Prefix::kDescending, Prefix::kFull}) {
      std::string what = "arity " + std::to_string(arity) + " prefix " +
                         std::to_string(static_cast<int>(prefix));
      // All rows equal, across the scatter's bucket threshold.
      ExpectDistinct(arity, std::vector<NodeId>(20000 * arity, 7), prefix,
                     what + " all equal");
      // Ids 0 and 0xFFFFFFFF: pairs need a full 64-bit key.
      std::vector<NodeId> extremes;
      Rng rng(arity);
      for (size_t r = 0; r < 30000; ++r) {
        for (size_t c = 0; c < arity; ++c) {
          extremes.push_back(rng.Chance(0.5) ? 0 : 0xFFFFFFFFu -
                             static_cast<NodeId>(rng.Uniform(3)));
        }
      }
      ExpectDistinct(arity, extremes, prefix, what + " extremes");
      // A constant first column over a 32-bit second column.
      std::vector<NodeId> constant_first;
      for (size_t r = 0; r < 20000; ++r) {
        constant_first.push_back(5);
        for (size_t c = 1; c < arity; ++c) {
          constant_first.push_back(static_cast<NodeId>(rng.Next()));
        }
      }
      ExpectDistinct(arity, constant_first, prefix, what + " constant first");
    }
  }
}

TEST(ParallelDifferentialTest, SortUniquePairsMatchesReferenceAtEveryDop) {
  for (size_t n : {0, 1, 2, 300, 9000, 60000}) {
    for (uint64_t range : {uint64_t{900}, uint64_t{1} << 32}) {
      std::vector<NodeId> flat = RandomRows(n, 2, 0.5, range, n + range);
      std::vector<NodeId> expected = ReferenceDistinct(flat, 2);
      for (int dop : {1, 2, 4}) {
        std::vector<CsrView::Pair> pairs;
        for (size_t r = 0; r < n; ++r) {
          pairs.emplace_back(flat[2 * r], flat[2 * r + 1]);
        }
        ASSERT_TRUE(SortUniquePairs(&pairs, At(dop)));
        std::vector<NodeId> got;
        for (const auto& [a, b] : pairs) {
          got.push_back(a);
          got.push_back(b);
        }
        EXPECT_EQ(got, expected) << "n " << n << " dop " << dop;
      }
    }
  }
}

}  // namespace
}  // namespace gqopt
