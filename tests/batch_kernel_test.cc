// Oracle suite for the generalized evaluator's join path, the compiled-plan
// batch kernel (DESIGN.md §9). The oracle is the paper's §4.3 baseline, an
// independent semantics: every randomized program's closed-form model must
// hold exactly the ground points EvaluateGround derives, over a window
// interior that every derivation of an interior fact fits inside (the
// approach of evaluator_property_test.cc, widened to data columns, joins,
// negation, clause constraints, and aliased columns). Each model must also
// be bit-identical — relation dumps in stored order plus the timing-free
// Explain() — at 1, 2, and 8 worker threads.
//
// Both evaluators compile their atoms through the same CompileAtom, so a
// fault there could make them agree on a wrong answer. The fixed corner
// cases therefore assert ground points written out by hand, against the
// generalized model and the ground model alike.
#include <algorithm>
#include <map>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/evaluator.h"
#include "src/core/ground_evaluator.h"
#include "src/parser/parser.h"
#include "tests/random_program.h"

namespace lrpdb {
namespace {

// A model fingerprint: timing-free EXPLAIN (rule/round counts) plus every
// relation's dump in stored order.
struct Fingerprint {
  std::string explain;
  std::string relations;
};

Fingerprint FingerprintOf(const EvaluationResult& result, const Database& db) {
  Fingerprint fp;
  fp.explain = result.Explain(/*include_timings=*/false);
  for (const auto& [name, relation] : result.idb) {
    fp.relations += name + ":\n" + relation.ToString(&db.interner());
  }
  return fp;
}

// "t1 t2 ... d1 d2 ..." with data constants by name: ground points in a
// form a test can write out by hand. Point lists below are sorted as
// strings.
std::string Render(const GroundTuple& point, const Database& db) {
  std::string s;
  for (int64_t t : point.times) s += (s.empty() ? "" : " ") + std::to_string(t);
  for (DataValue d : point.data) {
    s += (s.empty() ? "" : " ") + db.interner().NameOf(d);
  }
  return s;
}

// The generalized relation's ground points with every time in [lo, hi).
std::vector<std::string> Points(const GeneralizedRelation& relation,
                                const Database& db, int64_t lo, int64_t hi) {
  std::set<GroundTuple> points;
  for (GroundTuple& point : relation.EnumerateGround(lo, hi)) {
    points.insert(std::move(point));
  }
  std::vector<std::string> out;
  for (const GroundTuple& point : points) out.push_back(Render(point, db));
  std::sort(out.begin(), out.end());
  return out;
}

// The ground model's facts with every time in [lo, hi).
std::vector<std::string> Points(const GroundFactStore& facts,
                                const Database& db, int64_t lo, int64_t hi) {
  std::set<GroundTuple> points;
  for (const GroundTuple& fact : facts) {
    if (std::all_of(fact.times.begin(), fact.times.end(),
                    [&](int64_t t) { return t >= lo && t < hi; })) {
      points.insert(fact);
    }
  }
  std::vector<std::string> out;
  for (const GroundTuple& point : points) out.push_back(Render(point, db));
  std::sort(out.begin(), out.end());
  return out;
}

// Evaluates `text` at 1, 2, and 8 threads (asserting bit-identical
// fingerprints) and over the ground window [interior_lo - reach,
// interior_hi + kAbove); then requires every IDB relation to hold the same
// ground points in both models inside [interior_lo, interior_hi). `reach`
// bounds how far below a fact's time its derivations may go; no rule looks
// more than kAbove above its head. Returns the generalized model's points
// per relation, for callers that also pin them by hand.
constexpr int64_t kAbove = 32;

std::map<std::string, std::vector<std::string>> ExpectMatchesGroundOracle(
    const std::string& text, int64_t interior_lo, int64_t interior_hi,
    int64_t reach) {
  SCOPED_TRACE(text);
  std::map<std::string, std::vector<std::string>> model;
  Database db;
  auto unit = Parse(text, &db);
  EXPECT_TRUE(unit.ok()) << unit.status();
  if (!unit.ok()) return model;
  std::optional<EvaluationResult> reference;
  Fingerprint reference_fp;
  for (int threads : {1, 2, 8}) {
    EvaluationOptions options;
    options.num_threads = threads;
    auto result = Evaluate(unit->program, db, options);
    EXPECT_TRUE(result.ok()) << result.status();
    if (!result.ok()) return model;
    EXPECT_TRUE(result->reached_fixpoint);
    Fingerprint fp = FingerprintOf(*result, db);
    if (!reference.has_value()) {
      reference = std::move(*result);
      reference_fp = std::move(fp);
      continue;
    }
    EXPECT_EQ(fp.explain, reference_fp.explain) << "threads=" << threads;
    EXPECT_EQ(fp.relations, reference_fp.relations) << "threads=" << threads;
  }
  GroundEvaluationOptions ground_options;
  ground_options.window_lo = interior_lo - reach;
  ground_options.window_hi = interior_hi + kAbove;
  auto ground = EvaluateGround(unit->program, db, ground_options);
  EXPECT_TRUE(ground.ok()) << ground.status();
  if (!ground.ok()) return model;
  for (const auto& [name, relation] : reference->idb) {
    model[name] = Points(relation, db, interior_lo, interior_hi);
    EXPECT_EQ(model[name],
              Points(ground->idb.at(name), db, interior_lo, interior_hi))
        << "relation " << name << " (generalized vs ground) over ["
        << interior_lo << ", " << interior_hi << ")";
  }
  return model;
}

class BatchKernelRandomTest : public ::testing::TestWithParam<int> {};

// 25 seeds x 8 programs = 200 random programs, each evaluated at 1, 2, and
// 8 threads and against the ground oracle over two periods. (The name
// predates the ground oracle; it is kept so the suite's test ids stay
// stable.)
TEST_P(BatchKernelRandomTest, BitIdenticalToLegacyAcrossThreadCounts) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()) * 9176 + 11);
  for (int iter = 0; iter < 8; ++iter) {
    RandomProgram program = GenerateRandomProgram(rng);
    ExpectMatchesGroundOracle(program.text, 0, 2 * program.period,
                              program.reach);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchKernelRandomTest,
                         ::testing::Range(1, 26));

// --- Fixed corner cases: ground points written out by hand ---------------

using Model = std::map<std::string, std::vector<std::string>>;

TEST(BatchKernelTest, Example41IntervalsWithConstraints) {
  // problems starts at (168n+10, 168n+12) and steps by 48; gcd(48, 168) =
  // 24, so it holds (t, t + 2) for every t = 10 mod 24.
  Model model = ExpectMatchesGroundOracle(R"(
    .decl course(time, time, data)
    .decl problems(time, time, data)
    .fact course(168n+8, 168n+10, "database") with T2 = T1 + 2.
    problems(t1 + 2, t2 + 2, N) :- course(t1, t2, N).
    problems(t1 + 48, t2 + 48, N) :- problems(t1, t2, N).
  )",
                                          0, 61, 400);
  EXPECT_EQ(model["problems"],
            (std::vector<std::string>{"10 12 database", "34 36 database",
                                      "58 60 database"}));
}

TEST(BatchKernelTest, NegationOverComplement) {
  Model model = ExpectMatchesGroundOracle(R"(
    .decl tick(time)
    .decl quiet(time)
    .fact tick(3n).
    quiet(t) :- tick(t), !tick(t + 1).
  )",
                                          0, 10, 16);
  EXPECT_EQ(model["quiet"], (std::vector<std::string>{"0", "3", "6", "9"}));
}

TEST(BatchKernelTest, ConstantOnlyAtomAndProjection) {
  // A head that projects a body variable away, and a recursion that adds
  // nothing new to z.
  Model model = ExpectMatchesGroundOracle(R"(
    .decl iv(time, time)
    .decl w(time)
    .decl z(time)
    .fact iv(24n+1, 24n+3) with T2 = T1 + 2.
    w(t1) :- iv(t1, t2).
    z(t + 24) :- z(t), w(t).
    z(t) :- w(t).
  )",
                                          0, 50, 64);
  EXPECT_EQ(model["w"], (std::vector<std::string>{"1", "25", "49"}));
  EXPECT_EQ(model["z"], (std::vector<std::string>{"1", "25", "49"}));
}

TEST(BatchKernelTest, MissingConstantValueEmptiesJoin) {
  // "nope" never appears in e's data column: the compiled plan's constant
  // posting probe must yield an empty frontier.
  Model model = ExpectMatchesGroundOracle(R"(
    .decl e(time, data)
    .decl p(time, data)
    .fact e(6n, "a").
    p(t, N) :- e(t, N), e(t, "nope").
    p(t + 1, N) :- p(t, N).
  )",
                                          0, 24, 16);
  EXPECT_TRUE(model["p"].empty());
}

TEST(BatchKernelTest, WideMultiRuleRecursion) {
  // p = seed + 12i + 11j (i >= 1 or j = 0) and 11 is coprime to 96, so p
  // and q both hold at every time for every one of the eight values.
  Model model = ExpectMatchesGroundOracle(R"(
    .decl seed(time, data)
    .decl p(time, data)
    .decl q(time, data)
    .fact seed(96n+1, "a").
    .fact seed(96n+2, "b").
    .fact seed(96n+3, "c").
    .fact seed(96n+5, "d").
    .fact seed(96n+7, "e").
    .fact seed(96n+11, "f").
    .fact seed(96n+13, "g").
    .fact seed(96n+17, "h").
    p(t, N) :- seed(t, N).
    q(t + 5, N) :- p(t, N).
    p(t + 7, N) :- q(t, N).
    q(t + 11, N) :- q(t, N).
  )",
                                          0, 4, 96 * 12 + 96 * 11);
  std::vector<std::string> everywhere;
  for (const char* value : {"a", "b", "c", "d", "e", "f", "g", "h"}) {
    for (int t = 0; t < 4; ++t) {
      everywhere.push_back(std::to_string(t) + " " + value);
    }
  }
  std::sort(everywhere.begin(), everywhere.end());
  EXPECT_EQ(model["p"], everywhere);
  EXPECT_EQ(model["q"], everywhere);
}

TEST(BatchKernelTest, UnindexedStorageFallsBackToRangeScans) {
  // With indexed_storage off the kernel scans ranges and filters every
  // data column itself; the points must not change.
  Database db;
  auto unit = Parse(R"(
    .decl e(time, data)
    .decl p(time, data)
    .fact e(12n+1, "a").
    .fact e(12n+5, "b").
    p(t + 2, N) :- e(t, N), e(t, N).
    p(t + 12, N) :- p(t, N).
  )",
                    &db);
  ASSERT_TRUE(unit.ok()) << unit.status();
  for (bool indexed : {true, false}) {
    EvaluationOptions options;
    options.indexed_storage = indexed;
    auto result = Evaluate(unit->program, db, options);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(Points(result->Relation("p"), db, 0, 24),
              (std::vector<std::string>{"15 a", "19 b", "3 a", "7 b"}))
        << "indexed=" << indexed;
  }
}

TEST(BatchKernelTest, RepeatedDataVariableWithinAtom) {
  // Only the ("a", "a") fact has equal columns.
  Model model = ExpectMatchesGroundOracle(R"(
    .decl d2(time, data, data)
    .decl q(time, data)
    .fact d2(24n+1, "a", "a").
    .fact d2(24n+5, "a", "b").
    q(t, N) :- d2(t, N, N).
  )",
                                          0, 30, 16);
  EXPECT_EQ(model["q"], (std::vector<std::string>{"1 a", "25 a"}));
}

TEST(BatchKernelTest, AliasedTemporalColumnsHonorTheTupleConstraint) {
  // Both facts put T1 and T2 in one residue class, but the first holds
  // them a period apart: iv(t, t) only matches the second.
  Model model = ExpectMatchesGroundOracle(R"(
    .decl iv(time, time)
    .decl diag(time)
    .fact iv(24n+3, 24n+3) with T2 = T1 + 24.
    .fact iv(24n+7, 24n+7) with T2 = T1.
    diag(t) :- iv(t, t).
  )",
                                          0, 48, 16);
  EXPECT_EQ(model["diag"], (std::vector<std::string>{"31", "7"}));
}

TEST(BatchKernelTest, ResidueMaskKeepsCompatibleUnequalPeriods) {
  // The residue mask compares a row's lrp with the lrp an earlier atom bound
  // for the same variable. 4n+1 and 6n+3 are both odd, so they meet (at
  // 12n+9); 6n+2 is even and never meets 4n+1. Through b(t + 2), 6n+3 puts t
  // at 6n+1, meeting 4n+1 at 12n+1, and 6n+2 puts t at 6n, even again.
  // Reading b first swaps which side the mask tests; c's 4n+1 and 4n+3
  // cover the equal-period compare.
  Model model = ExpectMatchesGroundOracle(R"(
    .decl a(time)
    .decl b(time)
    .decl c(time)
    .decl j(time)
    .decl k(time)
    .decl l(time)
    .decl m(time)
    .fact a(4n+1).
    .fact b(6n+3).
    .fact b(6n+2).
    .fact c(4n+1).
    .fact c(4n+3).
    j(t) :- a(t), b(t).
    k(t) :- a(t), b(t + 2).
    l(t) :- b(t), a(t).
    m(t) :- a(t), c(t).
  )",
                                          0, 24, 16);
  EXPECT_EQ(model["j"], (std::vector<std::string>{"21", "9"}));
  EXPECT_EQ(model["k"], (std::vector<std::string>{"1", "13"}));
  EXPECT_EQ(model["l"], (std::vector<std::string>{"21", "9"}));
  EXPECT_EQ(model["m"], (std::vector<std::string>{"1", "13", "17", "21", "5",
                                                  "9"}));
}

TEST(BatchKernelTest, ClauseConstraintsBoundTheJoin) {
  // e holds "a" at 0 and 5 mod 12 and "b" at 3 and 4 mod 12.
  // soon(t, N): p(t, N) = e(t + 1, N), and some e(u, N) has t < u <= t + 2:
  // t = 4 (u = 5), 11 (u = 12) for "a"; 2 (u = 3, 4), 3 (u = 4) for "b".
  // close(N): two e(., N) at most 2 apart — "b" only; near(t, N) = p(t, N)
  // with close(N).
  Model model = ExpectMatchesGroundOracle(R"(
    .decl e(time, data)
    .decl p(time, data)
    .decl soon(time, data)
    .decl close(data)
    .decl near(time, data)
    .fact e(12n, "a").
    .fact e(12n+5, "a").
    .fact e(12n+3, "b").
    .fact e(12n+4, "b").
    p(t, N) :- e(t + 1, N).
    soon(t, N) :- p(t, N), e(u, N), t < u, u <= t + 2.
    close(N) :- e(u, N), e(v, N), u < v, v <= u + 2.
    near(t, N) :- p(t, N), close(N).
  )",
                                          0, 12, 32);
  EXPECT_EQ(model["soon"],
            (std::vector<std::string>{"11 a", "2 b", "3 b", "4 a"}));
  EXPECT_EQ(model["close"], (std::vector<std::string>{"b"}));
  EXPECT_EQ(model["near"], (std::vector<std::string>{"2 b", "3 b"}));
}

}  // namespace
}  // namespace lrpdb
