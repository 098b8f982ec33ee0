// Edge-case coverage across modules: parser oddities, engine options,
// round statistics, query shapes, ToString formats.
#include <gtest/gtest.h>

#include "src/core/evaluator.h"
#include "src/core/incremental.h"
#include "src/gdb/serialize.h"
#include "src/parser/parser.h"
#include "src/templog/templog.h"

namespace lrpdb {
namespace {

TEST(RoundStatsTest, Example41RoundShape) {
  Database db;
  auto unit = Parse(R"(
    .decl course(time, time, data)
    .decl problems(time, time, data)
    .fact course(168n+8, 168n+10, "database") with T2 = T1 + 2.
    problems(t1 + 2, t2 + 2, N) :- course(t1, t2, N).
    problems(t1 + 48, t2 + 48, N) :- problems(t1, t2, N).
  )",
                    &db);
  ASSERT_TRUE(unit.ok()) << unit.status();
  auto result = Evaluate(unit->program, db);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->rounds.size(), 8u);
  // Rounds 1..7 insert one tuple each; round 8 inserts nothing.
  for (int r = 0; r < 7; ++r) {
    EXPECT_EQ(result->rounds[r].round, r + 1);
    EXPECT_EQ(result->rounds[r].inserted, 1) << "round " << r + 1;
    EXPECT_EQ(result->rounds[r].new_free_extensions, 1) << "round " << r + 1;
  }
  EXPECT_EQ(result->rounds[7].inserted, 0);
  EXPECT_GE(result->rounds[7].candidates, 1);  // The subsumed 8th tuple.
}

TEST(RoundStatsTest, StrataAreRecorded) {
  Database db;
  auto unit = Parse(R"(
    .decl e(time)
    .decl p(time)
    .decl q(time)
    .fact e(4n).
    p(t) :- e(t).
    q(t) :- e(t), !p(t + 1).
  )",
                    &db);
  ASSERT_TRUE(unit.ok()) << unit.status();
  auto result = Evaluate(unit->program, db);
  ASSERT_TRUE(result.ok()) << result.status();
  bool saw_stratum_0 = false;
  bool saw_stratum_1 = false;
  for (const RoundStats& stats : result->rounds) {
    saw_stratum_0 = saw_stratum_0 || stats.stratum == 0;
    saw_stratum_1 = saw_stratum_1 || stats.stratum == 1;
  }
  EXPECT_TRUE(saw_stratum_0);
  EXPECT_TRUE(saw_stratum_1);
}

TEST(EvaluatorOptionsTest, MaxIterationsStopsEarly) {
  Database db;
  auto unit = Parse(R"(
    .decl e(time)
    .decl p(time)
    .fact e(97n).
    p(t) :- e(t).
    p(t + 1) :- p(t).
  )",
                    &db);
  ASSERT_TRUE(unit.ok()) << unit.status();
  EvaluationOptions options;
  options.max_iterations = 5;
  auto result = Evaluate(unit->program, db, options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_FALSE(result->reached_fixpoint);
  EXPECT_EQ(result->iterations, 5);
  EXPECT_NE(result->gave_up_reason.find("max_iterations"),
            std::string::npos);
}

TEST(EvaluatorOptionsTest, CompactionShrinksRepresentation) {
  // Two rules deriving complementary residue classes of the same period;
  // compaction merges them into one coarse tuple.
  Database db;
  auto unit = Parse(R"(
    .decl e(time)
    .decl p(time)
    .fact e(4n).
    p(t) :- e(t).
    p(t + 2) :- e(t).
  )",
                    &db);
  ASSERT_TRUE(unit.ok()) << unit.status();
  EvaluationOptions compact;
  compact.compact_results = true;
  auto compacted = Evaluate(unit->program, db, compact);
  ASSERT_TRUE(compacted.ok());
  EvaluationOptions raw;
  raw.compact_results = false;
  auto uncompacted = Evaluate(unit->program, db, raw);
  ASSERT_TRUE(uncompacted.ok());
  EXPECT_LT(compacted->Relation("p").size(),
            uncompacted->Relation("p").size());
  for (int64_t t = -12; t <= 12; ++t) {
    EXPECT_EQ(compacted->Relation("p").ContainsGround({t}, {}),
              FloorMod(t, 2) == 0)
        << t;
    EXPECT_EQ(uncompacted->Relation("p").ContainsGround({t}, {}),
              FloorMod(t, 2) == 0)
        << t;
  }
}

TEST(QueryAtomTest, RepeatedVariableSelectsDiagonal) {
  Database db;
  auto unit = Parse(R"(
    .decl pair(time, time)
    .decl copy(time, time)
    .fact pair(3n, 3n).
    copy(t1, t2) :- pair(t1, t2).
  )",
                    &db);
  ASSERT_TRUE(unit.ok()) << unit.status();
  auto result = Evaluate(unit->program, db);
  ASSERT_TRUE(result.ok()) << result.status();
  // ?- copy(s, s): only the diagonal.
  PredicateAtom query;
  query.predicate = unit->program.predicates().Find("copy");
  SymbolId s = unit->program.variables().Intern("s");
  query.temporal_args = {TemporalTerm::Variable(s),
                         TemporalTerm::Variable(s)};
  auto answers = QueryAtom(unit->program, db, *result, query);
  ASSERT_TRUE(answers.ok()) << answers.status();
  EXPECT_EQ(answers->schema().temporal_arity, 1);
  for (int64_t t = -9; t <= 9; ++t) {
    EXPECT_EQ(answers->ContainsGround({t}, {}), FloorMod(t, 3) == 0) << t;
  }
}

TEST(QueryAtomTest, OffsetInQueryTerm) {
  Database db;
  auto unit = Parse(R"(
    .decl tick(time)
    .decl echo(time)
    .fact tick(5n).
    echo(t) :- tick(t).
  )",
                    &db);
  ASSERT_TRUE(unit.ok()) << unit.status();
  auto result = Evaluate(unit->program, db);
  ASSERT_TRUE(result.ok()) << result.status();
  // ?- echo(s + 2): s such that s + 2 is a tick, i.e. s in 5n + 3.
  PredicateAtom query;
  query.predicate = unit->program.predicates().Find("echo");
  SymbolId s = unit->program.variables().Intern("s");
  query.temporal_args = {TemporalTerm::Variable(s, 2)};
  auto answers = QueryAtom(unit->program, db, *result, query);
  ASSERT_TRUE(answers.ok()) << answers.status();
  for (int64_t t = -15; t <= 15; ++t) {
    EXPECT_EQ(answers->ContainsGround({t}, {}), FloorMod(t + 2, 5) == 0)
        << t;
  }
}

// The query shapes below each take a distinct branch of the batch kernel
// QueryAtom runs on; every answer set is written out by hand.
TEST(QueryAtomTest, RepeatedDataVariableSelectsEqualColumns) {
  Database db;
  auto unit = Parse(R"(
    .decl d2(time, data, data)
    .fact d2(24n+1, "a", "a").
    .fact d2(24n+5, "a", "b").
    .fact d2(24n+9, "b", "b").
  )",
                    &db);
  ASSERT_TRUE(unit.ok()) << unit.status();
  auto result = Evaluate(unit->program, db);
  ASSERT_TRUE(result.ok()) << result.status();
  // ?- d2(t, N, N): the intra-atom equality keeps the "a","a" and "b","b"
  // facts only.
  PredicateAtom query;
  query.predicate = unit->program.predicates().Find("d2");
  SymbolId t = unit->program.variables().Intern("t");
  SymbolId n = unit->program.variables().Intern("N");
  query.temporal_args = {TemporalTerm::Variable(t)};
  query.data_args = {DataTerm::Variable(n), DataTerm::Variable(n)};
  auto answers = QueryAtom(unit->program, db, *result, query);
  ASSERT_TRUE(answers.ok()) << answers.status();
  EXPECT_EQ(answers->schema().temporal_arity, 1);
  EXPECT_EQ(answers->schema().data_arity, 1);
  const DataValue a = db.Constant("a");
  const DataValue b = db.Constant("b");
  EXPECT_EQ(answers->EnumerateGround(0, 24),
            (std::vector<GroundTuple>{{{1}, {a}}, {{9}, {b}}}));
}

TEST(QueryAtomTest, AbsentDataConstantAnswersNothing) {
  Database db;
  auto unit = Parse(R"(
    .decl e(time, data, data)
    .fact e(6n, "a", "b").
  )",
                    &db);
  ASSERT_TRUE(unit.ok()) << unit.status();
  auto result = Evaluate(unit->program, db);
  ASSERT_TRUE(result.ok()) << result.status();
  // "zzz" is interned but no entry carries it: its posting does not exist,
  // so the query answers nothing, alone or next to a present constant.
  const DataValue a = db.Constant("a");
  const DataValue b = db.Constant("b");
  const DataValue zzz = db.Constant("zzz");
  PredicateAtom query;
  query.predicate = unit->program.predicates().Find("e");
  SymbolId t = unit->program.variables().Intern("t");
  query.temporal_args = {TemporalTerm::Variable(t)};
  for (DataValue first : {zzz, a}) {
    query.data_args = {DataTerm::Constant(first), DataTerm::Constant(zzz)};
    auto answers = QueryAtom(unit->program, db, *result, query);
    ASSERT_TRUE(answers.ok()) << answers.status();
    EXPECT_TRUE(answers->empty());
  }
  query.data_args = {DataTerm::Constant(a), DataTerm::Constant(b)};
  auto present = QueryAtom(unit->program, db, *result, query);
  ASSERT_TRUE(present.ok()) << present.status();
  EXPECT_EQ(present->EnumerateGround(0, 12),
            (std::vector<GroundTuple>{{{0}, {}}, {{6}, {}}}));
}

TEST(QueryAtomTest, OpenQuerySkipsRetractedFacts) {
  Database db;
  auto unit = Parse(R"(
    .decl e(time, data)
    .decl p(time, data)
    .fact e(24n+1, "a").
    .fact e(24n+2, "b").
    .fact e(24n+3, "c").
    p(t + 1, N) :- e(t, N).
  )",
                    &db);
  ASSERT_TRUE(unit.ok()) << unit.status();
  IncrementalEvaluator inc(unit->program, &db);
  ASSERT_TRUE(inc.Initialize().ok());
  const DataValue a = db.Constant("a");
  const DataValue b = db.Constant("b");
  const DataValue c = db.Constant("c");
  ASSERT_TRUE(inc.RetractFacts({FactUpdate{
                                   "e", GeneralizedTuple::Unconstrained(
                                            {Lrp(24, 2)}, {b})}})
                  .ok());
  auto e = db.Relation("e");
  ASSERT_TRUE(e.ok());
  ASSERT_TRUE((*e)->store().has_tombstones());
  // ?- e(t, N) and ?- p(t, N) pin no data column, so the kernel scans the
  // whole entry range; the retracted fact and its consequence must not
  // come back.
  SymbolId t = unit->program.variables().Intern("t");
  SymbolId n = unit->program.variables().Intern("N");
  PredicateAtom query;
  query.temporal_args = {TemporalTerm::Variable(t)};
  query.data_args = {DataTerm::Variable(n)};
  query.predicate = unit->program.predicates().Find("e");
  auto edb = QueryAtom(unit->program, db, inc.Result(), query);
  ASSERT_TRUE(edb.ok()) << edb.status();
  EXPECT_EQ(edb->EnumerateGround(0, 24),
            (std::vector<GroundTuple>{{{1}, {a}}, {{3}, {c}}}));
  query.predicate = unit->program.predicates().Find("p");
  auto idb = QueryAtom(unit->program, db, inc.Result(), query);
  ASSERT_TRUE(idb.ok()) << idb.status();
  EXPECT_EQ(idb->EnumerateGround(0, 24),
            (std::vector<GroundTuple>{{{2}, {a}}, {{4}, {c}}}));
}

TEST(ParserEdgeTest, CommentsAndWhitespaceEverywhere) {
  Database db;
  auto unit = Parse(
      "% leading comment\n"
      ".decl p(time) // trailing\n"
      ".fact p( 7n + 3 ) . % post-fact\n"
      "// done\n",
      &db);
  ASSERT_TRUE(unit.ok()) << unit.status();
  auto relation = db.Relation("p");
  EXPECT_TRUE((*relation)->ContainsGround({3}, {}));
}

TEST(ParserEdgeTest, NegativeOffsetsInRules) {
  Database db;
  auto unit = Parse(R"(
    .decl e(time)
    .decl before(time)
    .fact e(6n).
    before(t - 2) :- e(t).
  )",
                    &db);
  ASSERT_TRUE(unit.ok()) << unit.status();
  auto result = Evaluate(unit->program, db);
  ASSERT_TRUE(result.ok()) << result.status();
  for (int64_t t = -12; t <= 12; ++t) {
    EXPECT_EQ(result->Relation("before").ContainsGround({t}, {}),
              FloorMod(t + 2, 6) == 0)
        << t;
  }
}

TEST(ParserEdgeTest, MultipleQueriesCollected) {
  Database db;
  auto unit = Parse(R"(
    .decl a(time)
    .fact a(2n).
    ?- a(t).
    ?- a(5).
  )",
                    &db);
  ASSERT_TRUE(unit.ok()) << unit.status();
  EXPECT_EQ(unit->queries.size(), 2u);
  EXPECT_TRUE(unit->queries[1].temporal_args[0].is_constant());
}

TEST(TemplogEdgeTest, ZeroArityAndChainedNext) {
  auto program = ParseTemplog(R"(
    next next next heartbeat.
    always next^2 heartbeat :- heartbeat.
  )");
  ASSERT_TRUE(program.ok()) << program.status();
  EXPECT_EQ(program->clauses[0].head.next_count, 3);
  Database db;
  auto translated = TranslateToDatalog1S(*program, &db);
  ASSERT_TRUE(translated.ok()) << translated.status();
  // heartbeat at 3, 5, 7, ...
}

TEST(SerializeEdgeTest, ZeroArityRelationRoundTrips) {
  Database db;
  auto unit = Parse(R"(
    .decl flag()
    .fact flag().
  )",
                    &db);
  ASSERT_TRUE(unit.ok()) << unit.status();
  std::string text = SerializeDatabase(db);
  Database reloaded;
  auto reparsed = Parse(text, &reloaded);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status() << "\n" << text;
  auto relation = reloaded.Relation("flag");
  ASSERT_TRUE(relation.ok());
  EXPECT_EQ((*relation)->size(), 1u);
}

TEST(ToStringTest, TupleAndRelationFormats) {
  Interner interner;
  DataValue city = interner.Intern("liege");
  Dbm c(2);
  c.AddLowerBound(1, 0);
  c.AddDifferenceEquality(2, 1, 60);
  GeneralizedTuple t({Lrp(40, 5), Lrp(40, 65)}, {city}, c);
  std::string s = t.ToString(&interner);
  EXPECT_NE(s.find("40n+5"), std::string::npos) << s;
  EXPECT_NE(s.find("liege"), std::string::npos) << s;
  EXPECT_NE(s.find("with"), std::string::npos) << s;
  // Without an interner, data prints as #id.
  std::string anonymous = t.ToString();
  EXPECT_NE(anonymous.find("#"), std::string::npos) << anonymous;
}

}  // namespace
}  // namespace lrpdb
