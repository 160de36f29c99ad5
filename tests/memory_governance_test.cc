// Memory governance end to end through the api facade
// (docs/ROBUSTNESS.md): a tight GQOPT_MEM_LIMIT aborts execution with the
// typed "resource: " status (never a bad_alloc or an OOM kill), a
// generous or absent budget returns bit-identical results, the injected
// kMemReserve fault drives the same abort path deterministically, the
// low-memory degradation rung changes plans but never results, and the
// plan cache respects its byte budget.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "api/database.h"
#include "api/server.h"
#include "datasets/yago.h"
#include "ra/explain.h"
#include "ra/table.h"
#include "util/exec_context.h"
#include "util/fault_injection.h"
#include "util/mem_tracker.h"
#include "util/rng.h"

namespace gqopt {
namespace {

using api::ClassifyError;
using api::Database;
using api::ExecOptions;
using api::PreparedQueryPtr;
using api::QueryStage;
using api::Server;
using api::Session;

constexpr const char* kClosureQuery =
    "x1, x2 <- (x1, livesIn/isLocatedIn+/dealsWith+, x2)";
constexpr const char* kJoinQuery = "x1, x2 <- (x1, worksAt/isLocatedIn, x2)";

class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) saved_ = old;
    ::setenv(name, value, /*overwrite=*/1);
  }
  ~ScopedEnv() {
    if (saved_.has_value()) {
      ::setenv(name_, saved_->c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  std::optional<std::string> saved_;
};

TEST(MemoryGovernanceTest, TightBudgetAbortsWithTypedResourceError) {
  Database db(YagoSchema(), GenerateYago({.persons = 200, .seed = 11}));
  ExecOptions options;
  options.mem_limit_bytes = 4096;  // far below the closure's footprint
  Session session(db, options);
  auto result = session.Query(kClosureQuery);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted)
      << result.status().ToString();
  EXPECT_EQ(ClassifyError(result.status()), QueryStage::kResource)
      << result.status().ToString();
  EXPECT_NE(result.status().message().find("resource: "), std::string::npos);
}

TEST(MemoryGovernanceTest, BoundedAndUnboundedResultsIdentical) {
  Database db(YagoSchema(), GenerateYago({.persons = 120, .seed = 5}));
  Session unbounded(db);
  auto baseline = unbounded.Query(kClosureQuery);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  ExecOptions generous;
  generous.mem_limit_bytes = int64_t{256} << 20;
  Session bounded(db, generous);
  auto tracked = bounded.Query(kClosureQuery);
  ASSERT_TRUE(tracked.ok()) << tracked.status().ToString();

  EXPECT_EQ(baseline->SortedRows(), tracked->SortedRows());
  // The run is accounted either way (the per-query tracker exists even
  // without a limit), so the peak is observable.
  EXPECT_GT(tracked->mem_peak_bytes, 0);
  EXPECT_GT(baseline->mem_peak_bytes, 0);
}

TEST(MemoryGovernanceTest, InjectedReservationFaultIsTypedAndClean) {
  Database db(YagoSchema(), GenerateYago({.persons = 60, .seed = 3}));
  Session session(db);
  ASSERT_TRUE(session.Query(kJoinQuery).ok());

  FaultInjector& injector = FaultInjector::Global();
  injector.Arm(FaultPoint::kMemReserve, FaultKind::kAlloc);
  auto result = session.Query(kJoinQuery);
  injector.DisarmAll();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(ClassifyError(result.status()), QueryStage::kResource)
      << result.status().ToString();

  // Disarmed, the same session serves the query again: the breach left
  // no residue in the database (trackers are per-execution).
  auto after = session.Query(kJoinQuery);
  EXPECT_TRUE(after.ok()) << after.status().ToString();
}

TEST(MemoryGovernanceTest, LowMemoryModeKeepsResultsIdentical) {
  Database db(YagoSchema(), GenerateYago({.persons = 150, .seed = 9}));
  Session regular(db);
  ExecOptions low;
  low.low_memory = true;
  low.dop = 4;
  Session degraded(db, low);
  for (const char* query : {kClosureQuery, kJoinQuery}) {
    auto a = regular.Query(query);
    auto b = degraded.Query(query);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    EXPECT_EQ(a->SortedRows(), b->SortedRows()) << query;
  }
}

TEST(MemoryGovernanceTest, LowMemoryIsPartOfThePlanCacheKey) {
  Database db(YagoSchema(), GenerateYago({.persons = 40}));
  db.set_plan_cache_enabled(true);
  ExecOptions options;
  bool hit = true;
  ASSERT_TRUE(db.Prepare(kJoinQuery, options, &hit).ok());
  EXPECT_FALSE(hit);
  // Same text, low-memory planning: must NOT reuse the full-fidelity
  // plan — the option changes join strategies.
  options.low_memory = true;
  ASSERT_TRUE(db.Prepare(kJoinQuery, options, &hit).ok());
  EXPECT_FALSE(hit);
  ASSERT_TRUE(db.Prepare(kJoinQuery, options, &hit).ok());
  EXPECT_TRUE(hit);
}

TEST(MemoryGovernanceTest, EstimateAndPeakAreObservable) {
  Database db(YagoSchema(), GenerateYago({.persons = 80, .seed = 2}));
  Session session(db);
  auto prepared = session.Prepare(kJoinQuery);
  ASSERT_TRUE(prepared.ok());
  EXPECT_GT((*prepared)->estimated_memory_bytes(), 0);
  EXPECT_EQ(EstimatePlanMemory((*prepared)->plan(), db.catalog()),
            (*prepared)->estimated_memory_bytes());

  auto analyzed = (*prepared)->ExplainAnalyze(session);
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  EXPECT_NE(analyzed->find("mem = "), std::string::npos) << *analyzed;
  EXPECT_NE(analyzed->find("peak memory "), std::string::npos) << *analyzed;
}

TEST(MemoryGovernanceTest, ExecOptionsReadMemLimitFromEnv) {
  ScopedEnv env("GQOPT_MEM_LIMIT", "4k");
  ExecOptions options = ExecOptions::FromEnv();
  EXPECT_EQ(options.mem_limit_bytes, 4096);
  options.mem_limit_bytes = 0;  // explicit beats env
  EXPECT_EQ(options.mem_limit_bytes, 0);
}

TEST(MemoryGovernanceTest, ServerBudgetReadFromEnvAndSettable) {
  ScopedEnv env("GQOPT_SERVER_MEM_LIMIT", "8m");
  Database db(YagoSchema(), GenerateYago({.persons = 20}));
  EXPECT_EQ(db.memory().limit(), int64_t{8} << 20);
  EXPECT_EQ(db.memory().label(), "server");
  db.set_memory_limit(int64_t{16} << 20);
  EXPECT_EQ(db.memory().limit(), int64_t{16} << 20);
}

TEST(MemoryGovernanceTest, ServerBudgetCapsUnlimitedQueries) {
  Database db(YagoSchema(), GenerateYago({.persons = 200, .seed = 11}));
  db.set_memory_limit(64 << 10);  // tiny server ceiling
  Session session(db);  // per-query limit unset: the root still governs
  auto result = session.Query(kClosureQuery);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(ClassifyError(result.status()), QueryStage::kResource)
      << result.status().ToString();
  // The failed run released everything: the budget is whole again, and
  // a query that fits proceeds — one overrun must not poison the server.
  EXPECT_EQ(db.memory().consumed(), 0);
  auto small = session.Query(kJoinQuery);
  EXPECT_TRUE(small.ok()) << small.status().ToString();
}

TEST(MemoryGovernanceTest, LargeDistinctAbortsTypedOnBudgetAndDeadline) {
  // 1M unsorted pairs over the full 32-bit range sort as 64-bit keys:
  // 8 MB of packed keys, then 8 MB of kernel scratch.
  Rng rng(23);
  std::vector<NodeId> data(size_t{2} << 20);
  for (NodeId& v : data) v = static_cast<NodeId>(rng.Next());
  const Table input = Table::FromData({"x", "y"}, std::move(data));
  for (int dop : {1, 4}) {
    // Below the keys, and between the keys and keys + scratch.
    for (int64_t budget : {int64_t{4} << 20, int64_t{12} << 20}) {
      MemoryTracker query(budget, "query");
      ExecContext ctx;
      ctx.dop = dop;
      ctx.mem = &query;
      Table t = input;
      Status status = t.SortDistinct(ctx);
      EXPECT_EQ(ClassifyError(status), QueryStage::kResource)
          << "dop " << dop << " budget " << budget << ": "
          << status.ToString();
      EXPECT_EQ(t.data(), input.data());  // a failed sort changes nothing
    }
    ExecContext late;
    late.dop = dop;
    late.deadline = Deadline::AfterMillis(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    Table t = input;
    Status status = t.SortDistinct(late);
    EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded)
        << "dop " << dop << ": " << status.ToString();
  }
}

TEST(MemoryGovernanceTest, ResourceErrorsAreNotRetryable) {
  Status resource = Status::ResourceExhausted(
      "execute: resource: memory limit exceeded in join (query: consumed "
      "9000 of 8192 bytes)");
  EXPECT_EQ(ClassifyError(resource), QueryStage::kResource);
  EXPECT_FALSE(Server::IsRetryable(resource));
  Status shed = Status::ResourceExhausted(
      "overloaded: insufficient memory budget (estimated 1 bytes, "
      "available 0 of 1); retry with backoff");
  EXPECT_EQ(ClassifyError(shed), QueryStage::kOverloaded);
  EXPECT_TRUE(Server::IsRetryable(shed));
}

TEST(MemoryGovernanceTest, MemoryPressureEngagesLowMemoryRung) {
  EXPECT_EQ(Server::MemoryPressureLevel(0, 0), 0);  // unbounded
  EXPECT_EQ(Server::MemoryPressureLevel(100, 1000), 0);
  EXPECT_EQ(Server::MemoryPressureLevel(500, 1000), 1);
  EXPECT_EQ(Server::MemoryPressureLevel(750, 1000), 2);

  ExecOptions options;
  auto report = Server::ApplyDegradation(0, /*memory_level=*/1, &options);
  EXPECT_TRUE(options.low_memory);
  EXPECT_TRUE(report.low_memory);
  EXPECT_TRUE(report.any());
  EXPECT_NE(report.Summary().find("low-memory"), std::string::npos);
  EXPECT_NE(report.Summary().find("memory pressure 1"), std::string::npos);
}

TEST(MemoryGovernanceTest, PlanCacheRespectsByteBudget) {
  Database db(YagoSchema(), GenerateYago({.persons = 30}));
  db.set_plan_cache_enabled(true);
  db.set_plan_cache_memory_capacity(1);  // absurdly small: keep newest only
  std::string q1 = "x1, x2 <- (x1, owns, x2)";
  std::string q2 = "x1, x2 <- (x1, livesIn, x2)";
  ASSERT_TRUE(db.Prepare(q1).ok());
  ASSERT_TRUE(db.Prepare(q2).ok());
  api::PlanCacheStats stats = db.plan_cache_stats();
  // The newest entry survives its own oversize; the older one was
  // evicted for bytes, not count.
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GE(stats.evictions, 1u);
  EXPECT_EQ(stats.mem_capacity, 1u);
  EXPECT_GT(stats.bytes, 0u);

  bool hit = false;
  ASSERT_TRUE(db.Prepare(q2, ExecOptions(), &hit).ok());
  EXPECT_TRUE(hit);  // the surviving newest entry still serves
}

}  // namespace
}  // namespace gqopt
