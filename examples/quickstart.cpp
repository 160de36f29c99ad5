// Quickstart, through the public facade (src/api, docs/API.md): build a
// schema and a graph inside a Database, prepare a recursive query once
// (the schema-based rewriter optimizes it during Prepare), execute it,
// and show the plan cache serving the repeat.
//
//   $ ./build/examples/example_quickstart

#include <cstdio>

#include "api/database.h"
#include "graph/consistency.h"
#include "schema/schema_parser.h"

using namespace gqopt;

int main() {
  // 1. A graph schema (the paper's Fig 1, in the text format).
  auto schema = ParseSchema(R"(
node PERSON {name:string, age:int}
node CITY {name:string}
node PROPERTY {address:string}
node REGION {name:string}
node COUNTRY {name:string}
edge PERSON -isMarriedTo-> PERSON
edge PERSON -livesIn-> CITY
edge PERSON -owns-> PROPERTY
edge PROPERTY -isLocatedIn-> CITY
edge CITY -isLocatedIn-> REGION
edge REGION -isLocatedIn-> COUNTRY
edge COUNTRY -dealsWith-> COUNTRY
)");
  if (!schema.ok()) {
    std::fprintf(stderr, "schema: %s\n", schema.status().ToString().c_str());
    return 1;
  }

  // 2. A tiny database conforming to it (the paper's Fig 2). The Database
  //    facade owns the graph; mutations go through it so cached plans and
  //    statistics can never go stale silently. Writes buffer in the delta
  //    store until it merges; Compact() folds the load into the master
  //    graph that db.graph() reads.
  api::Database db(std::move(*schema), PropertyGraph());
  NodeId property = db.AddNode(
      "PROPERTY", {{"address", Value::String("7 Queen Street")}});
  NodeId john = db.AddNode(
      "PERSON", {{"name", Value::String("John")}, {"age", Value::Int(28)}});
  NodeId shradha = db.AddNode(
      "PERSON",
      {{"name", Value::String("Shradha")}, {"age", Value::Int(25)}});
  NodeId elerslie = db.AddNode("CITY", {{"name", Value::String("Elerslie")}});
  NodeId grenoble =
      db.AddNode("REGION", {{"name", Value::String("Grenoble")}});
  NodeId montbonnot =
      db.AddNode("CITY", {{"name", Value::String("Montbonnot")}});
  NodeId france = db.AddNode("COUNTRY", {{"name", Value::String("France")}});
  (void)db.AddEdge(john, "isMarriedTo", shradha);
  (void)db.AddEdge(shradha, "isMarriedTo", john);
  (void)db.AddEdge(john, "livesIn", elerslie);
  (void)db.AddEdge(shradha, "livesIn", montbonnot);
  (void)db.AddEdge(john, "owns", property);
  (void)db.AddEdge(property, "isLocatedIn", montbonnot);
  (void)db.AddEdge(montbonnot, "isLocatedIn", grenoble);
  (void)db.AddEdge(elerslie, "isLocatedIn", grenoble);
  (void)db.AddEdge(grenoble, "isLocatedIn", france);
  if (!db.Compact().ok()) return 1;

  ConsistencyReport report = CheckConsistency(db.graph(), db.schema());
  std::printf("graph is %s with the schema\n",
              report.consistent() ? "consistent" : "INCONSISTENT");

  // 3. A session fixes the execution options once (defaults here; use
  //    api::ExecOptions::FromEnv() to opt into the GQOPT_* env knobs).
  api::Session session(db);

  // 4. Prepare runs the whole pipeline once: parse, schema-based
  //    rewriting (the paper's contribution), translation to recursive
  //    relational algebra, and cost-based optimization.
  const char* text = "x1, x2 <- (x1, livesIn/isLocatedIn+, x2)";
  auto prepared = session.Prepare(text);
  if (!prepared.ok()) {
    std::fprintf(stderr, "prepare: %s\n",
                 prepared.status().ToString().c_str());
    return 1;
  }
  const api::PreparedQuery& query = **prepared;
  std::printf("original:  %s\n", query.query().ToString().c_str());
  std::printf("rewritten: %s\n", query.executable().ToString().c_str());
  std::printf("recursive before: %s, after: %s\n",
              query.query().IsRecursive() ? "yes" : "no",
              query.executable().IsRecursive() ? "yes" : "no");

  // 5. Execute the prepared plan, and the baseline (rewrite disabled) for
  //    comparison: both return the same result set.
  auto schema_result = query.Execute(session);
  api::ExecOptions baseline_options = session.options();
  baseline_options.apply_schema_rewrite = false;
  auto baseline = db.Prepare(text, baseline_options);
  if (!schema_result.ok() || !baseline.ok()) return 1;
  api::Session baseline_session(db, baseline_options);
  auto baseline_result = (*baseline)->Execute(baseline_session);
  if (!baseline_result.ok()) return 1;
  std::printf("results agree: %s\n",
              baseline_result->SortedRows() == schema_result->SortedRows()
                  ? "yes"
                  : "NO");
  for (const auto& row : schema_result->SortedRows()) {
    std::printf("  %s -> %s\n",
                db.graph().GetProperty(row[0], "name")->AsString().c_str(),
                db.graph().GetProperty(row[1], "name")->AsString().c_str());
  }

  // 6. Repeated traffic skips parse/rewrite/plan: the same query text
  //    (even reformatted) hits the plan cache.
  bool cache_hit = false;
  auto again = db.Prepare("x1,  x2   <-  (x1, livesIn/isLocatedIn+, x2)",
                          session.options(), &cache_hit);
  api::PlanCacheStats stats = db.plan_cache_stats();
  std::printf("re-prepare was a cache %s (hits %llu, misses %llu)\n",
              again.ok() && cache_hit ? "hit" : "miss",
              static_cast<unsigned long long>(stats.hits),
              static_cast<unsigned long long>(stats.misses));
  return 0;
}
