// Differential gauntlet for incremental maintenance (DESIGN.md §13):
// randomized programs driven through random add/retract schedules must
// stay semantically identical to a from-scratch refixpoint of the updated
// database after every batch, and the incremental runs themselves must be
// bit-identical across {1, 2, 8} worker threads.
//
// The oracle for each step is deliberately built from the *surviving live
// EDB entries* (not from a replayed fact list): retraction's unit is the
// stored model — a fact absorbed at insert time has no entry of its own,
// so retracting it is a miss and does not resurrect what its absorber
// covered (src/core/incremental.h). Copying the live entries into a fresh
// database and refixpointing gives exactly the semantics the evaluator
// promises.
#include <memory>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/incremental.h"
#include "src/obs/metrics.h"
#include "src/parser/parser.h"
#include "tests/random_program.h"

namespace lrpdb {
namespace {

constexpr int64_t kWindowLo = 0;
constexpr int64_t kWindowHi = 200;

int64_t CounterValue(const char* name) {
#if defined(LRPDB_NO_METRICS)
  (void)name;
  return 0;
#else
  return obs::MetricsRegistry::Global().GetCounter(name)->value();
#endif
}

// One incremental run: a parsed program + database + evaluator at one
// thread count.
struct Instance {
  std::unique_ptr<Database> db;
  std::unique_ptr<ParsedUnit> unit;
  std::unique_ptr<IncrementalEvaluator> inc;
};

Instance MakeRun(const std::string& text, int num_threads) {
  Instance run;
  run.db = std::make_unique<Database>();
  auto unit = Parse(text, run.db.get());
  EXPECT_TRUE(unit.ok()) << unit.status() << "\n" << text;
  run.unit = std::make_unique<ParsedUnit>(std::move(*unit));
  EvaluationOptions options;
  options.num_threads = num_threads;
  run.inc = std::make_unique<IncrementalEvaluator>(run.unit->program,
                                                   run.db.get(), options);
  EXPECT_TRUE(run.inc->Initialize().ok()) << text;
  return run;
}

// Refixpoints the surviving live EDB of `db` from scratch and returns the
// canonical ground-window fingerprint — the semantic oracle.
std::string OracleFingerprint(const Program& program, const Database& db) {
  Database scratch;
  // Copy the interner first so the program's interned rule constants keep
  // their ids in the scratch database.
  scratch.interner() = db.interner();
  for (const std::string& name : db.RelationNames()) {
    auto rel = db.Relation(name);
    if (!rel.ok()) {
      ADD_FAILURE() << rel.status();
      return "";
    }
    auto declared = scratch.Declare(name, (*rel)->schema());
    if (!declared.ok()) {
      ADD_FAILURE() << declared;
      return "";
    }
    auto dst = scratch.MutableRelation(name);
    if (!dst.ok()) {
      ADD_FAILURE() << dst.status();
      return "";
    }
    const TupleStore& store = (*rel)->store();
    for (size_t i = 0; i < store.size(); ++i) {
      const EntryId id = static_cast<EntryId>(i);
      if (!store.is_live(id)) continue;
      auto restored = (*dst)->mutable_store().RestoreEntry(store.tuple(id));
      if (!restored.ok()) {
        ADD_FAILURE() << restored;
        return "";
      }
    }
  }
  IncrementalEvaluator oracle(program, &scratch);
  auto init = oracle.Initialize();
  EXPECT_TRUE(init.ok()) << init;
  return oracle.Fingerprint(kWindowLo, kWindowHi);
}

// One random update step: an add batch of fresh facts or a retract batch
// aimed at previously added (sometimes never-present) facts.
struct Step {
  bool add = false;
  // (relation, period, offset, value) per fact; tuples are built against
  // each run's own database so interner ids stay run-local.
  struct Spec {
    std::string relation;
    int64_t period;
    int64_t offset;
    std::string value;
  };
  std::vector<Spec> specs;
};

std::vector<Step> GenerateSchedule(std::mt19937& rng, int num_steps) {
  const char* values[] = {"a", "b", "c"};
  const char* relations[] = {"e", "f"};
  std::vector<Step::Spec> pool;  // Everything ever added; retract targets.
  std::vector<Step> schedule;
  for (int i = 0; i < num_steps; ++i) {
    Step step;
    step.add = pool.empty() || rng() % 3 != 0;
    const int batch = 1 + static_cast<int>(rng() % 3);
    for (int k = 0; k < batch; ++k) {
      if (step.add) {
        Step::Spec spec{relations[rng() % 2],
                        24 + 12 * static_cast<int64_t>(rng() % 3),
                        static_cast<int64_t>(rng() % 20), values[rng() % 3]};
        pool.push_back(spec);
        step.specs.push_back(spec);
      } else if (rng() % 5 == 0) {
        // A miss: retract something that was never added.
        step.specs.push_back(
            Step::Spec{relations[rng() % 2], 60, 59, values[rng() % 3]});
      } else {
        step.specs.push_back(pool[rng() % pool.size()]);
      }
    }
    schedule.push_back(std::move(step));
  }
  return schedule;
}

std::vector<FactUpdate> BuildBatch(const Step& step, Database* db) {
  std::vector<FactUpdate> batch;
  for (const Step::Spec& spec : step.specs) {
    batch.push_back(FactUpdate{
        spec.relation,
        GeneralizedTuple::Unconstrained({Lrp(spec.period, spec.offset)},
                                        {db->Constant(spec.value)})});
  }
  return batch;
}

// Drives one program through one schedule at 1, 2, and 8 threads,
// checking after every step that (a) each run's ground fingerprint equals
// the from-scratch oracle and (b) all runs' stored dumps and provenance
// record counts are identical.
void RunGauntlet(const std::string& text, const std::vector<Step>& schedule) {
  SCOPED_TRACE(text);
  std::vector<Instance> runs;
  for (int threads : {1, 2, 8}) runs.push_back(MakeRun(text, threads));
  for (size_t si = 0; si < schedule.size(); ++si) {
    const Step& step = schedule[si];
    SCOPED_TRACE("step " + std::to_string(si) +
                 (step.add ? " (add)" : " (retract)"));
    for (Instance& run : runs) {
      std::vector<FactUpdate> batch = BuildBatch(step, run.db.get());
      Status status = step.add ? run.inc->AddFacts(batch)
                               : run.inc->RetractFacts(batch);
      ASSERT_TRUE(status.ok()) << status;
      ASSERT_TRUE(run.inc->at_fixpoint());
    }
    const std::string oracle =
        OracleFingerprint(runs[0].unit->program, *runs[0].db);
    const std::string reference_dump = runs[0].inc->DumpStored();
    for (size_t r = 0; r < runs.size(); ++r) {
      EXPECT_EQ(runs[r].inc->Fingerprint(kWindowLo, kWindowHi), oracle)
          << "run " << r;
      EXPECT_EQ(runs[r].inc->DumpStored(), reference_dump) << "run " << r;
      // The recorded provenance steers later over-deletes, so it must match
      // across thread counts too.
      if (runs[r].inc->provenance() != nullptr) {
        EXPECT_EQ(runs[r].inc->provenance()->records(),
                  runs[0].inc->provenance()->records())
            << "run " << r;
      }
    }
  }
}

class IncrementalRandomTest : public ::testing::TestWithParam<int> {};

// 18 seeds x 6 programs = 108 random programs, each with a 6-step random
// add/retract schedule, each step checked at 3 thread counts against the
// from-scratch oracle. The programs come from the shared generator
// (random_program.h), goal shapes included; two of the six carry a negated
// rule one time in two, so the fallback path is exercised throughout. (The
// name predates the removal of the second kernel; it is kept so the
// suite's test ids stay stable.)
TEST_P(IncrementalRandomTest, MatchesRefixpointAcrossKernelsAndThreads) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()) * 7919 + 3);
  for (int iter = 0; iter < 6; ++iter) {
    RandomProgramOptions options;
    options.negation_one_in = iter >= 4 ? 2 : 0;
    const std::string text = GenerateRandomProgram(rng, options).text;
    RunGauntlet(text, GenerateSchedule(rng, 6));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalRandomTest,
                         ::testing::Range(1, 19));

// --- Directed cases -------------------------------------------------------

constexpr char kChain[] = R"(
  .decl e(time, data)
  .decl p(time, data)
  .decl q(time, data)
  .fact e(24n+1, "a").
  p(t + 1, N) :- e(t, N).
  q(t + 1, N) :- p(t, N).
)";

TEST(IncrementalTest, AddFactsGrowsDerivations) {
  Instance run = MakeRun(kChain, /*num_threads=*/1);
  ASSERT_TRUE(run.inc
                  ->AddFacts({FactUpdate{
                      "e", GeneralizedTuple::Unconstrained(
                               {Lrp(24, 5)}, {run.db->Constant("b")})}})
                  .ok());
  EXPECT_EQ(run.inc->Fingerprint(kWindowLo, kWindowHi),
            OracleFingerprint(run.unit->program, *run.db));
}

TEST(IncrementalTest, DuplicateAddIsAbsorbedWithoutWork) {
  Instance run = MakeRun(kChain, 1);
  const std::string before = run.inc->DumpStored();
  // Bit-for-bit the same fact the program seeded: absorbed, no delta.
  ASSERT_TRUE(run.inc
                  ->AddFacts({FactUpdate{
                      "e", GeneralizedTuple::Unconstrained(
                               {Lrp(24, 1)}, {run.db->Constant("a")})}})
                  .ok());
  EXPECT_EQ(run.inc->DumpStored(), before);
}

TEST(IncrementalTest, RetractBaseFactRemovesItsDerivations) {
  Instance run = MakeRun(kChain, 1);
  ASSERT_TRUE(run.inc
                  ->RetractFacts({FactUpdate{
                      "e", GeneralizedTuple::Unconstrained(
                               {Lrp(24, 1)}, {run.db->Constant("a")})}})
                  .ok());
  // Everything derived hung off the one base fact: the model empties.
  const std::string fp = run.inc->Fingerprint(kWindowLo, kWindowHi);
  EXPECT_EQ(fp, OracleFingerprint(run.unit->program, *run.db));
  EXPECT_EQ(fp.find("("), std::string::npos) << fp;
}

TEST(IncrementalTest, AlternativeDerivationSurvivesRetraction) {
  Instance run = MakeRun(R"(
    .decl e(time, data)
    .decl f(time, data)
    .decl p(time, data)
    .decl k(time, data)
    .fact e(24n+1, "a").
    .fact f(24n+1, "a").
    p(t, N) :- e(t, N).
    p(t, N) :- f(t, N).
    k(t, "b") :- p(t, N).
  )",
                    1);
  const int64_t goals_before = CounterValue("eval.inc.goal_values");
  const int64_t unrestricted_before =
      CounterValue("eval.inc.unrestricted_rederives");
  ASSERT_TRUE(run.inc
                  ->RetractFacts({FactUpdate{
                      "e", GeneralizedTuple::Unconstrained(
                               {Lrp(24, 1)}, {run.db->Constant("a")})}})
                  .ok());
  // p's tuple was over-deleted with e's support but re-derives through f;
  // k's follows it.
  const std::string fp = run.inc->Fingerprint(kWindowLo, kWindowHi);
  EXPECT_EQ(fp, OracleFingerprint(run.unit->program, *run.db));
  EXPECT_NE(fp.find("idb p:\n  ("), std::string::npos) << fp;
  EXPECT_NE(fp.find("idb k:\n  ("), std::string::npos) << fp;
#if !defined(LRPDB_NO_METRICS)
  if (run.inc->provenance() != nullptr) {
    // Goals p:{a} and k:{b}. Both p clauses bind N through their one atom;
    // k's constant head column binds nothing, so its clause re-derives
    // unrestricted.
    EXPECT_EQ(CounterValue("eval.inc.goal_values") - goals_before, 2);
    EXPECT_EQ(CounterValue("eval.inc.unrestricted_rederives") -
                  unrestricted_before,
              1);
  }
#endif
}

// Provenance recorded by one single-fact retraction on a copy + join
// program over `num_facts` EDB facts, next to the stored entries it
// touched (over-deleted + re-derived IDB entries).
struct RetractionGrowth {
  int64_t records = 0;
  int64_t touched = 0;
};

RetractionGrowth MeasureRetractionGrowth(int num_facts) {
  Database db;
  auto unit = Parse(R"(
    .decl ev(time, data)
    .decl alt(time, data)
    .decl derived(time, data)
    .decl joined(time, data)
    .fact alt(24n+0, "item0").
    derived(t, N) :- ev(t, N).
    derived(t, N) :- alt(t, N).
    joined(t, N) :- derived(t, N), ev(t, N).
  )",
                    &db);
  EXPECT_TRUE(unit.ok()) << unit.status();
  if (!unit.ok()) return {};
  // ev carries no .fact, so the parser left it undeclared.
  EXPECT_TRUE(db.Declare("ev", RelationSchema{1, 1}).ok());
  auto fact = [&db](int i) {
    return GeneralizedTuple::Unconstrained(
        {Lrp(24, i % 24)}, {db.Constant("item" + std::to_string(i))});
  };
  for (int i = 0; i < num_facts; ++i) {
    EXPECT_TRUE(db.AddTuple("ev", fact(i)).ok());
  }
  IncrementalEvaluator inc(unit->program, &db);
  EXPECT_TRUE(inc.Initialize().ok());
  if (inc.provenance() == nullptr) return {};
  auto census = [&inc](int64_t* entries, int64_t* dead) {
    *entries = *dead = 0;
    for (const auto& [unused, relation] : inc.Result().idb) {
      const TupleStore& store = relation.store();
      *entries += static_cast<int64_t>(store.size());
      *dead += static_cast<int64_t>(store.size() - store.live_size());
    }
  };
  int64_t entries_before = 0;
  int64_t dead_before = 0;
  census(&entries_before, &dead_before);
  const int64_t records_before = inc.provenance()->records();
  // ev(24n+0, "item0") is also derivable through alt: derived's entry is
  // over-deleted and comes back, joined's is over-deleted for good.
  EXPECT_TRUE(inc.RetractFacts({FactUpdate{"ev", fact(0)}}).ok());
  // Compared without EXPECT_EQ's line diff, which is quadratic in the
  // fingerprint's tens of thousands of lines.
  EXPECT_TRUE(inc.Fingerprint(kWindowLo, kWindowHi) ==
              OracleFingerprint(unit->program, db))
      << "model differs from the refixpoint after retracting ev fact 0";
  int64_t entries_after = 0;
  int64_t dead_after = 0;
  census(&entries_after, &dead_after);
  RetractionGrowth growth;
  growth.records = inc.provenance()->records() - records_before;
  growth.touched =
      (dead_after - dead_before) + (entries_after - entries_before);
  return growth;
}

TEST(IncrementalTest, RetractionProvenanceGrowthTracksTouchedEntries) {
  if (!kProvenanceCompiledIn) {
    GTEST_SKIP() << "retraction recomputes in full without provenance";
  }
  const RetractionGrowth small = MeasureRetractionGrowth(200);
  const RetractionGrowth large = MeasureRetractionGrowth(2000);
  // Two over-deleted entries, one re-derived.
  EXPECT_EQ(small.touched, 3);
  EXPECT_EQ(large.touched, 3);
  // The re-derive round records origins only for candidates the goal
  // restriction admits, never one per surviving EDB fact.
  EXPECT_GT(small.records, 0);
  EXPECT_LE(small.records, 2 * small.touched);
  EXPECT_LE(large.records, 2 * large.touched);
  EXPECT_EQ(large.records, small.records);
}

TEST(IncrementalTest, GoalRestrictionFiltersASmallerPosting) {
  if (!kProvenanceCompiledIn) {
    GTEST_SKIP() << "retraction recomputes in full without provenance";
  }
  // Retracting b(24n+1, m1, x1) over-deletes j(24n+1, x1) alone: goal
  // j:{x1}. a carries no head variable, so b's x1 entries (8 of them)
  // become the goal list. Each binding of a then probes b through its M
  // posting, one live entry each, smaller than that list, and goal
  // membership must filter those rows: b(24n+1, m1, y1) is dropped, and the
  // one derivation left is j(24n+2, x1), already stored, so it records one
  // origin on it.
  std::string text = R"(
    .decl a(time, data)
    .decl b(time, data, data)
    .decl j(time, data)
    .fact a(24n+1, "m1").
    .fact a(24n+2, "m2").
    .fact b(24n+1, "m1", "x1").
    .fact b(24n+1, "m1", "y1").
    .fact b(24n+2, "m2", "x1").
    j(t, N) :- a(t, M), b(t, M, N).
  )";
  for (int i = 3; i < 10; ++i) {
    text += ".fact b(24n+" + std::to_string(i) + ", \"m3\", \"x1\").\n";
  }
  Instance run = MakeRun(text, 1);
  ASSERT_NE(run.inc->provenance(), nullptr);
  const int64_t records_before = run.inc->provenance()->records();
  ASSERT_TRUE(run.inc
                  ->RetractFacts({FactUpdate{
                      "b", GeneralizedTuple::Unconstrained(
                               {Lrp(24, 1)}, {run.db->Constant("m1"),
                                              run.db->Constant("x1")})}})
                  .ok());
  EXPECT_EQ(run.inc->Fingerprint(kWindowLo, kWindowHi),
            OracleFingerprint(run.unit->program, *run.db));
  const EvaluationResult& resumed = run.inc->Result();
  ASSERT_EQ(resumed.profile.rules.size(), 1u);
  EXPECT_EQ(resumed.profile.rules[0].derivations, 1);
  EXPECT_EQ(resumed.profile.rules[0].inserted, 0);
  EXPECT_EQ(run.inc->provenance()->records() - records_before, 1);
}

TEST(IncrementalTest, GoalRestrictionSkipsAtomsBoundByEarlierAtoms) {
  if (!kProvenanceCompiledIn) {
    GTEST_SKIP() << "retraction recomputes in full without provenance";
  }
  // Retracting a(24n+1, x1) over-deletes j(24n+1, x1): goal j:{x1}. b keeps
  // the smaller share of its entries under that goal (3 of 17 against a's 1
  // of 3), but a binds N before b is reached, so restricting b would still
  // enumerate all of a. The goal list goes on a: one probe of a scanning
  // its one x1 entry, then one posting probe of b for that binding.
  std::string text = R"(
    .decl a(time, data)
    .decl b(time, data)
    .decl j(time, data)
    .fact a(24n+1, "x1").
    .fact a(24n+5, "x1").
    .fact a(24n+2, "x2").
    .fact a(24n+3, "x3").
    .fact b(24n+1, "x1").
    .fact b(24n+5, "x1").
    .fact b(24n+9, "x1").
    .fact b(24n+2, "x2").
    .fact b(24n+3, "x3").
    j(t, N) :- a(t, N), b(t, N).
  )";
  for (int i = 0; i < 12; ++i) {
    text += ".fact b(24n+" + std::to_string(i) + ", \"y" +
            std::to_string(i) + "\").\n";
  }
  Instance run = MakeRun(text, 1);
  ASSERT_TRUE(run.inc
                  ->RetractFacts({FactUpdate{
                      "a", GeneralizedTuple::Unconstrained(
                               {Lrp(24, 1)}, {run.db->Constant("x1")})}})
                  .ok());
  EXPECT_EQ(run.inc->Fingerprint(kWindowLo, kWindowHi),
            OracleFingerprint(run.unit->program, *run.db));
  const EvaluationResult& resumed = run.inc->Result();
  ASSERT_EQ(resumed.profile.rules.size(), 1u);
  EXPECT_EQ(resumed.profile.rules[0].derivations, 1);
  const StoreStats totals = resumed.StoreTotals();
  EXPECT_EQ(totals.index_probes, 2);
  EXPECT_EQ(totals.tuples_scanned, 1 + 3);
}

TEST(IncrementalTest, RetractMissIsANoop) {
  Instance run = MakeRun(kChain, 1);
  const std::string before = run.inc->DumpStored();
  ASSERT_TRUE(run.inc
                  ->RetractFacts({FactUpdate{
                      "e", GeneralizedTuple::Unconstrained(
                               {Lrp(60, 59)}, {run.db->Constant("zz")})}})
                  .ok());
  EXPECT_EQ(run.inc->DumpStored(), before);
}

TEST(IncrementalTest, CompactRetractedPreservesTheModel) {
  Instance run = MakeRun(kChain, 1);
  ASSERT_TRUE(run.inc
                  ->AddFacts({FactUpdate{
                      "e", GeneralizedTuple::Unconstrained(
                               {Lrp(24, 5)}, {run.db->Constant("b")})}})
                  .ok());
  ASSERT_TRUE(run.inc
                  ->RetractFacts({FactUpdate{
                      "e", GeneralizedTuple::Unconstrained(
                               {Lrp(24, 1)}, {run.db->Constant("a")})}})
                  .ok());
  const std::string fp = run.inc->Fingerprint(kWindowLo, kWindowHi);
  const std::string dump = run.inc->DumpStored();
  EXPECT_GT(run.inc->CompactRetracted(), 0u);
  EXPECT_EQ(run.inc->Fingerprint(kWindowLo, kWindowHi), fp);
  EXPECT_EQ(run.inc->DumpStored(), dump);
  // Updates keep working on the compacted store (stable EntryIds).
  ASSERT_TRUE(run.inc
                  ->AddFacts({FactUpdate{
                      "e", GeneralizedTuple::Unconstrained(
                               {Lrp(24, 9)}, {run.db->Constant("c")})}})
                  .ok());
  EXPECT_EQ(run.inc->Fingerprint(kWindowLo, kWindowHi),
            OracleFingerprint(run.unit->program, *run.db));
}

TEST(IncrementalTest, UpdateBeforeInitializeFails) {
  Database db;
  auto unit = Parse(kChain, &db);
  ASSERT_TRUE(unit.ok());
  IncrementalEvaluator inc(unit->program, &db);
  EXPECT_FALSE(inc.AddFacts({}).ok());
  EXPECT_FALSE(inc.RetractFacts({}).ok());
  ASSERT_TRUE(inc.Initialize().ok());
  EXPECT_FALSE(inc.Initialize().ok()) << "second Initialize must fail";
}

TEST(IncrementalTest, UpdateValidationRejectsBadBatches) {
  Instance run = MakeRun(kChain, 1);
  // Undeclared relation.
  EXPECT_FALSE(run.inc
                   ->AddFacts({FactUpdate{
                       "nope", GeneralizedTuple::Unconstrained(
                                   {Lrp(24, 1)}, {run.db->Constant("a")})}})
                   .ok());
  // Arity mismatch (two temporal columns against e's one).
  EXPECT_FALSE(run.inc
                   ->AddFacts({FactUpdate{
                       "e", GeneralizedTuple::Unconstrained(
                                {Lrp(24, 1), Lrp(24, 2)},
                                {run.db->Constant("a")})}})
                   .ok());
}

TEST(IncrementalTest, NegationFallsBackToFullRecompute) {
  Instance run = MakeRun(R"(
    .decl e(time, data)
    .decl p(time, data)
    .decl r(time, data)
    .fact e(24n+1, "a").
    .fact e(24n+3, "b").
    p(t + 1, N) :- e(t, N).
    r(t, N) :- e(t, N), !p(t, N).
  )",
                    1);
  ASSERT_TRUE(run.inc
                  ->AddFacts({FactUpdate{
                      "e", GeneralizedTuple::Unconstrained(
                               {Lrp(24, 2)}, {run.db->Constant("a")})}})
                  .ok());
  EXPECT_EQ(run.inc->Fingerprint(kWindowLo, kWindowHi),
            OracleFingerprint(run.unit->program, *run.db));
  ASSERT_TRUE(run.inc
                  ->RetractFacts({FactUpdate{
                      "e", GeneralizedTuple::Unconstrained(
                               {Lrp(24, 1)}, {run.db->Constant("a")})}})
                  .ok());
  EXPECT_EQ(run.inc->Fingerprint(kWindowLo, kWindowHi),
            OracleFingerprint(run.unit->program, *run.db));
}

}  // namespace
}  // namespace lrpdb
