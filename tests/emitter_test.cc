// Golden tests for the SQL and Cypher emitters, mirroring the paper's
// Fig 15 (SQL) and Fig 16 (Cypher) Q1/Q2 pair.

#include <gtest/gtest.h>

#include "query/query_parser.h"
#include "translate/cypher_emitter.h"
#include "translate/sql_emitter.h"

namespace gqopt {
namespace {

Ucqt Parse(const std::string& text) {
  auto result = ParseUcqt(text);
  EXPECT_TRUE(result.ok()) << text << ": " << result.status().ToString();
  return result.ok() ? *result : Ucqt{};
}

bool Contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

// ---- SQL (Fig 15) ----------------------------------------------------------

TEST(SqlEmitterTest, BaselineQ1Shape) {
  // Q1: knows/workAt/isLocatedIn.
  auto sql = EmitSql(
      Parse("SRC, TRG <- (SRC, knows/workAt/isLocatedIn, TRG)"));
  ASSERT_TRUE(sql.ok()) << sql.status().ToString();
  EXPECT_TRUE(Contains(*sql, "SELECT DISTINCT"));
  EXPECT_TRUE(Contains(*sql, "FROM knows"));
  EXPECT_TRUE(Contains(*sql, "JOIN"));
  EXPECT_TRUE(Contains(*sql, "isLocatedIn"));
  EXPECT_FALSE(Contains(*sql, "Organisation"));
  EXPECT_FALSE(Contains(*sql, "WITH RECURSIVE"));
}

TEST(SqlEmitterTest, SchemaEnrichedQ2AddsOrganisationSemiJoin) {
  // Q2: knows/workAt/{Organisation}isLocatedIn — the annotated junction
  // becomes an extra join with the Organisation node table (Fig 15 top).
  auto sql = EmitSql(Parse(
      "SRC, TRG <- (SRC, knows/workAt/{Organisation}isLocatedIn, TRG)"));
  ASSERT_TRUE(sql.ok()) << sql.status().ToString();
  EXPECT_TRUE(Contains(*sql, "SELECT Sr FROM Organisation"));
  EXPECT_TRUE(Contains(*sql, "isLocatedIn"));
}

TEST(SqlEmitterTest, ClosureBecomesRecursiveCte) {
  auto sql = EmitSql(Parse("x, y <- (x, knows+, y)"));
  ASSERT_TRUE(sql.ok());
  EXPECT_TRUE(Contains(*sql, "WITH RECURSIVE"));
  EXPECT_TRUE(Contains(*sql, "tc_0(Sr, Tr) AS ("));
  EXPECT_TRUE(Contains(*sql, "UNION"));
  EXPECT_TRUE(Contains(*sql, "ON t.Tr = s.Sr"));
}

TEST(SqlEmitterTest, ReverseSwapsColumns) {
  auto sql = EmitSql(Parse("x, y <- (x, -hasCreator, y)"));
  ASSERT_TRUE(sql.ok());
  EXPECT_TRUE(Contains(*sql, "SELECT Tr AS Sr, Sr AS Tr FROM hasCreator"));
}

TEST(SqlEmitterTest, BranchBecomesExists) {
  auto sql = EmitSql(Parse("x, y <- (x, livesIn[isLocatedIn], y)"));
  ASSERT_TRUE(sql.ok());
  EXPECT_TRUE(Contains(*sql, "WHERE EXISTS"));
}

TEST(SqlEmitterTest, ConjunctionJoinsBothColumns) {
  auto sql = EmitSql(Parse("x, y <- (x, knows & follows, y)"));
  ASSERT_TRUE(sql.ok());
  EXPECT_TRUE(Contains(*sql, ".Sr = "));
  EXPECT_TRUE(Contains(*sql, ".Tr = "));
}

TEST(SqlEmitterTest, LabelAtomBecomesInPredicate) {
  auto sql = EmitSql(
      Parse("x, y <- (x, knows, y), label(y) in {Person, Organisation}"));
  ASSERT_TRUE(sql.ok());
  EXPECT_TRUE(Contains(
      *sql, "IN (SELECT Sr FROM Organisation UNION SELECT Sr FROM Person)"));
}

TEST(SqlEmitterTest, SharedVariablesBecomeEqualities) {
  auto sql = EmitSql(Parse("x <- (x, owns, z), (x, livesIn, c)"));
  ASSERT_TRUE(sql.ok());
  EXPECT_TRUE(Contains(*sql, "r0.Sr = r1.Sr"));
}

TEST(SqlEmitterTest, UnionOfDisjuncts) {
  auto sql = EmitSql(Parse("x, y <- (x, knows, y) ++ (x, follows, y)"));
  ASSERT_TRUE(sql.ok());
  EXPECT_TRUE(Contains(*sql, "UNION"));
}

TEST(SqlEmitterTest, OrderLimitOffsetSuffix) {
  auto sql = EmitSql(
      Parse("x, y <- (x, knows, y) order by y desc, x limit 10 offset 3"));
  ASSERT_TRUE(sql.ok()) << sql.status().ToString();
  EXPECT_TRUE(Contains(*sql, "ORDER BY y DESC, x"));
  EXPECT_TRUE(Contains(*sql, "LIMIT 10"));
  EXPECT_TRUE(Contains(*sql, "OFFSET 3"));
  // A zero offset is the default window: not rendered.
  auto plain = EmitSql(Parse("x, y <- (x, knows, y) order by x limit 10"));
  ASSERT_TRUE(plain.ok());
  EXPECT_FALSE(Contains(*plain, "OFFSET"));
}

TEST(SqlEmitterTest, EmptyQueryEmitsFalsePredicate) {
  Ucqt empty;
  empty.head_vars = {"x", "y"};
  auto sql = EmitSql(empty);
  ASSERT_TRUE(sql.ok());
  EXPECT_TRUE(Contains(*sql, "WHERE 1 = 0"));
}

TEST(SqlEmitterTest, ViewWrappersPerDialect) {
  Ucqt q = Parse("x, y <- (x, knows, y)");
  SqlOptions options;
  options.as_view = true;
  options.view_name = std::string("v");
  options.dialect = SqlDialect::kPostgres;
  EXPECT_TRUE(Contains(*EmitSql(q, options), "CREATE TEMPORARY VIEW v AS"));
  options.dialect = SqlDialect::kMySql;
  EXPECT_TRUE(Contains(*EmitSql(q, options), "CREATE OR REPLACE VIEW v AS"));
  options.dialect = SqlDialect::kSqlite;
  EXPECT_TRUE(Contains(*EmitSql(q, options), "CREATE VIEW v AS"));
}

// ---- Cypher (Fig 16) -------------------------------------------------------

TEST(CypherEmitterTest, BaselineQ1Pattern) {
  auto cypher = EmitCypher(
      Parse("SRC, TRG <- (SRC, knows/workAt/isLocatedIn, TRG)"));
  ASSERT_TRUE(cypher.ok()) << cypher.status().ToString();
  EXPECT_TRUE(Contains(
      *cypher,
      "MATCH (SRC)-[:knows]->()-[:workAt]->()-[:isLocatedIn]->(TRG)"));
  EXPECT_TRUE(Contains(*cypher, "RETURN DISTINCT SRC, TRG"));
}

TEST(CypherEmitterTest, SchemaEnrichedQ2AddsNodeLabel) {
  // Fig 16 top: the junction annotation becomes a node label.
  auto cypher = EmitCypher(Parse(
      "SRC, TRG <- (SRC, knows/workAt/{Organisation}isLocatedIn, TRG)"));
  ASSERT_TRUE(cypher.ok()) << cypher.status().ToString();
  EXPECT_TRUE(Contains(*cypher, "-[:workAt]->(_j0:Organisation)"))
      << *cypher;
}

TEST(CypherEmitterTest, ReverseUsesLeftArrow) {
  auto cypher = EmitCypher(Parse("x, y <- (x, -hasCreator/knows, y)"));
  ASSERT_TRUE(cypher.ok());
  EXPECT_TRUE(Contains(*cypher, "(x)<-[:hasCreator]-"));
}

TEST(CypherEmitterTest, ClosureOfSingleEdgeIsVariableLength) {
  auto cypher = EmitCypher(Parse("x, y <- (x, knows+, y)"));
  ASSERT_TRUE(cypher.ok());
  EXPECT_TRUE(Contains(*cypher, "-[:knows*1..]->"));
}

TEST(CypherEmitterTest, BoundedRepeat) {
  auto cypher = EmitCypher(Parse("x, y <- (x, knows{1,3}/likes, y)"));
  ASSERT_TRUE(cypher.ok());
  EXPECT_TRUE(Contains(*cypher, "-[:knows*1..3]->"));
}

TEST(CypherEmitterTest, LabelAtomsBecomeNodeLabels) {
  auto cypher =
      EmitCypher(Parse("x, y <- (x, knows, y), label(y) = Person"));
  ASSERT_TRUE(cypher.ok());
  EXPECT_TRUE(Contains(*cypher, "(y:Person)"));
}

TEST(CypherEmitterTest, UnionOfDisjuncts) {
  auto cypher = EmitCypher(Parse("x, y <- (x, knows, y) ++ (x, likes, y)"));
  ASSERT_TRUE(cypher.ok());
  EXPECT_TRUE(Contains(*cypher, "UNION"));
}

TEST(CypherEmitterTest, OrderLimitSkipSuffix) {
  // Cypher spells the window prefix SKIP, placed before LIMIT.
  auto cypher = EmitCypher(
      Parse("x, y <- (x, knows, y) order by y desc, x limit 10 offset 3"));
  ASSERT_TRUE(cypher.ok()) << cypher.status().ToString();
  EXPECT_TRUE(Contains(*cypher, "ORDER BY y DESC, x"));
  EXPECT_TRUE(Contains(*cypher, "SKIP 3"));
  EXPECT_TRUE(Contains(*cypher, "LIMIT 10"));
  EXPECT_LT(cypher->find("SKIP 3"), cypher->find("LIMIT 10"));
  auto plain = EmitCypher(Parse("x, y <- (x, knows, y) order by x limit 10"));
  ASSERT_TRUE(plain.ok());
  EXPECT_FALSE(Contains(*plain, "SKIP"));
}

TEST(CypherEmitterTest, RejectsBeyondUc2rpq) {
  // Branch, conjunction, union inside a path and compound closures are
  // outside Cypher's fragment (paper §5.5: only 15 of 30 LDBC queries).
  for (const char* text : {
           "x, y <- (x, likes[hasTag], y)",
           "x, y <- (x, knows & follows, y)",
           "x, y <- (x, knows | follows, y)",
           "x, y <- (x, (knows/likes)+, y)",
           "x, y <- (x, [knows]likes, y)",
       }) {
    Ucqt q = Parse(text);
    EXPECT_FALSE(IsCypherExpressible(q)) << text;
    auto cypher = EmitCypher(q);
    ASSERT_FALSE(cypher.ok()) << text;
    EXPECT_EQ(cypher.status().code(), StatusCode::kUnimplemented);
  }
}

TEST(CypherEmitterTest, ExpressibleFragmentDetection) {
  EXPECT_TRUE(IsCypherExpressible(
      Parse("x, y <- (x, knows+/workAt/isLocatedIn, y)")));
  EXPECT_TRUE(IsCypherExpressible(
      Parse("x, y <- (x, -hasCreator/-replyOf/hasCreator, y)")));
  EXPECT_FALSE(IsCypherExpressible(
      Parse("x, y <- (x, (knows & (studyAt/-studyAt))+, y)")));
}

}  // namespace
}  // namespace gqopt
