// Why-provenance suite (DESIGN.md §10).
//
// The load-bearing check is the replay differential: for randomized
// programs (the shared generator, random_program.h), every recorded origin is
// re-executed — the origin's clause, stripped of its negated atoms, is
// compiled and applied over singleton relations holding exactly the
// recorded parent tuples — and at least one replayed candidate must be
// subsumed by the derived entry it was recorded for. That holds the log to
// its soundness contract (each origin derives a subset of its entry's
// ground set, exact on non-absorbed inserts). On top of that: {1,2,8}
// threads must record the identical log, every IDB entry must carry at
// least one origin, and the fixed cases pin absorber attribution,
// cycle-safe graph queries, the render/DOT output, and the ExecContext
// byte-budget charge.
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/exec_context.h"
#include "src/core/clause_plan.h"
#include "src/core/evaluator.h"
#include "src/core/ground_evaluator.h"
#include "src/core/normalizer.h"
#include "src/core/provenance.h"
#include "src/gdb/database.h"
#include "src/gdb/generalized_relation.h"
#include "src/parser/parser.h"
#include "tests/random_program.h"

namespace lrpdb {
namespace {

// One evaluation with recording on: everything a check needs to resolve
// recorded addresses back to tuples (db for EDB parents and the interner,
// the normalized clauses for replay).
struct ProvRun {
  Database db;
  std::optional<ParsedUnit> unit;
  NormalizedProgram normalized;
  EvaluationResult result;
  ProvenanceLog log;

  const Program& program() const { return unit->program; }
};

std::unique_ptr<ProvRun> RunWithProvenance(const std::string& text,
                                           int num_threads) {
  auto run = std::make_unique<ProvRun>();
  auto unit = Parse(text, &run->db);
  EXPECT_TRUE(unit.ok()) << unit.status() << "\n" << text;
  if (!unit.ok()) return nullptr;
  run->unit = std::move(*unit);
  auto normalized = Normalize(run->program());
  EXPECT_TRUE(normalized.ok()) << normalized.status();
  if (!normalized.ok()) return nullptr;
  run->normalized = std::move(*normalized);
  EvaluationOptions options;
  options.num_threads = num_threads;
  options.provenance = &run->log;
  auto result = Evaluate(run->program(), run->db, options);
  EXPECT_TRUE(result.ok()) << result.status() << "\n" << text;
  if (!result.ok()) return nullptr;
  run->result = std::move(*result);
  return run;
}

// Canonical dump of the whole log against the model: per IDB relation, per
// entry, every origin in recorded order. Compared verbatim across thread
// counts — order included, since the determinism contract says the
// candidate stream (and therefore the record stream) is bit-identical.
std::string DumpLog(const ProvRun& run) {
  std::ostringstream out;
  for (const auto& [name, relation] : run.result.idb) {
    out << name << " (" << relation.size() << " entries)\n";
    auto rid = run.log.FindRelation(name);
    if (!rid.has_value()) continue;
    for (size_t e = 0; e < relation.size(); ++e) {
      const auto& origins =
          run.log.Origins({*rid, static_cast<EntryId>(e)});
      for (const DerivationOrigin& o : origins) {
        out << "  #" << e << " <- rule " << o.rule << " @ round " << o.round
            << ":";
        for (const ProvRef& p : o.parents) {
          out << " " << run.log.RelationName(p.relation) << "#" << p.entry;
        }
        out << "\n";
      }
    }
  }
  return out.str();
}

// Resolves a recorded parent address to its tuple: IDB first (rule heads),
// then the extensional store.
const GeneralizedTuple* ResolveTuple(const ProvRun& run,
                                     const std::string& name, EntryId entry) {
  auto it = run.result.idb.find(name);
  if (it != run.result.idb.end()) {
    if (entry >= it->second.size()) return nullptr;
    return &it->second.tuple(entry);
  }
  auto rel = run.db.Relation(name);
  if (!rel.ok()) return nullptr;
  if (entry >= (*rel)->size()) return nullptr;
  return &(*rel)->tuple(entry);
}

// True iff `piece`'s ground set is contained in `entry_tuple`'s: insert the
// entry into a fresh relation, then an exact insert of the piece must come
// back subsumed.
bool SubsumedBy(const GeneralizedTuple& piece,
                const GeneralizedTuple& entry_tuple, RelationSchema schema) {
  NormalizeLimits limits;
  GeneralizedRelation scratch(schema);
  auto seeded = scratch.InsertIfNew(entry_tuple, limits);
  EXPECT_TRUE(seeded.ok()) << seeded.status();
  if (!seeded.ok()) return false;
  auto probe = scratch.InsertIfNew(piece, limits);
  EXPECT_TRUE(probe.ok()) << probe.status();
  return probe.ok() && !*probe;
}

// Replays one origin: compile its clause without the negated atoms (the
// parents were recorded in body order), run the batch kernel over
// singleton parent relations, and demand a candidate subsumed by the
// derived entry. Dropping negation only widens
// the candidate set, so the original (filter-surviving) candidate is
// guaranteed to be regenerated.
void ReplayOrigin(const ProvRun& run, const std::string& head_name,
                  EntryId entry, const DerivationOrigin& origin) {
  SCOPED_TRACE(head_name + "#" + std::to_string(entry) + " rule " +
               std::to_string(origin.rule));
  ASSERT_GE(origin.rule, 0);
  ASSERT_LT(static_cast<size_t>(origin.rule), run.normalized.clauses.size());
  NormalizedClause clause = run.normalized.clauses[origin.rule];
  std::vector<NormalizedBodyAtom> positive;
  for (const NormalizedBodyAtom& atom : clause.body) {
    if (!atom.negated) positive.push_back(atom);
  }
  clause.body = std::move(positive);
  ASSERT_EQ(clause.body.size(), origin.parents.size());

  std::vector<std::unique_ptr<GeneralizedRelation>> singletons;
  std::vector<AtomSource> sources;
  NormalizeLimits limits;
  for (size_t k = 0; k < clause.body.size(); ++k) {
    const ProvRef& p = origin.parents[k];
    const std::string& pname = run.log.RelationName(p.relation);
    const GeneralizedTuple* parent = ResolveTuple(run, pname, p.entry);
    ASSERT_NE(parent, nullptr) << "unresolvable parent " << pname << "#"
                               << p.entry;
    RelationSchema schema;
    schema.temporal_arity =
        static_cast<int>(clause.body[k].temporal_args.size());
    schema.data_arity = static_cast<int>(clause.body[k].data_args.size());
    auto rel = std::make_unique<GeneralizedRelation>(schema);
    auto inserted = rel->InsertUnlessEmpty(*parent);
    ASSERT_TRUE(inserted.ok()) << inserted.status();
    ASSERT_TRUE(*inserted) << "recorded parent is an empty tuple";
    AtomSource source;
    source.relation = rel.get();
    source.generation = TupleStore::Generation::kAll;
    sources.push_back(source);
    singletons.push_back(std::move(rel));
  }

  ClausePlan plan = CompileClausePlan(clause);
  std::vector<GeneralizedTuple> candidates;
  Status applied =
      ApplyClauseBatch(clause, plan, sources, limits, nullptr, &candidates);
  ASSERT_TRUE(applied.ok()) << applied.ToString();
  ASSERT_FALSE(candidates.empty())
      << "replaying the origin's rule over its parents produced nothing";

  const GeneralizedTuple* derived = ResolveTuple(run, head_name, entry);
  ASSERT_NE(derived, nullptr);
  RelationSchema head_schema;
  head_schema.temporal_arity =
      static_cast<int>(clause.head_temporal_vars.size());
  head_schema.data_arity = static_cast<int>(clause.head_data.size());
  bool witnessed = false;
  for (const GeneralizedTuple& candidate : candidates) {
    if (SubsumedBy(candidate, *derived, head_schema)) {
      witnessed = true;
      break;
    }
  }
  EXPECT_TRUE(witnessed)
      << "no replayed candidate is contained in the derived entry";
}

// Full-run check: every IDB entry carries at least one origin, and every
// origin replays.
void ExpectCompleteAndReplayable(const ProvRun& run) {
  for (const auto& [name, relation] : run.result.idb) {
    if (relation.size() == 0) continue;
    auto rid = run.log.FindRelation(name);
    ASSERT_TRUE(rid.has_value()) << "no origins recorded for " << name;
    for (size_t e = 0; e < relation.size(); ++e) {
      const auto& origins =
          run.log.Origins({*rid, static_cast<EntryId>(e)});
      ASSERT_FALSE(origins.empty())
          << name << "#" << e << " has no recorded origin";
      for (const DerivationOrigin& origin : origins) {
        ReplayOrigin(run, name, static_cast<EntryId>(e), origin);
      }
    }
  }
}

// Every thread count must record the identical derivation log (same
// model, same entry numbering, same origin stream); the reference log must
// be complete and replayable.
void ExpectEquivalentLogsAndReplay(const std::string& text) {
  SCOPED_TRACE(text);
  auto reference = RunWithProvenance(text, /*num_threads=*/1);
  ASSERT_NE(reference, nullptr);
  const std::string reference_dump = DumpLog(*reference);
  EXPECT_GT(reference->log.records(), 0);
  for (int threads : {2, 8}) {
    auto other = RunWithProvenance(text, threads);
    ASSERT_NE(other, nullptr);
    EXPECT_EQ(DumpLog(*other), reference_dump) << "threads=" << threads;
  }
  ExpectCompleteAndReplayable(*reference);
}

class ProvenanceRandomTest : public ::testing::TestWithParam<int> {};

// 10 seeds x 4 programs, each: log equality across {1,2,8} threads,
// completeness, and a full origin replay. (The name predates the removal
// of the second kernel; it is kept so the suite's test ids stay stable.)
TEST_P(ProvenanceRandomTest, LogsMatchAcrossEnginesAndOriginsReplay) {
  if (!kProvenanceCompiledIn) GTEST_SKIP() << "built with LRPDB_NO_PROVENANCE";
  std::mt19937 rng(static_cast<unsigned>(GetParam()) * 7351 + 29);
  for (int iter = 0; iter < 4; ++iter) {
    ExpectEquivalentLogsAndReplay(GenerateRandomProgram(rng).text);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProvenanceRandomTest, ::testing::Range(1, 11));

// --- Fixed cases ----------------------------------------------------------

TEST(ProvenanceTest, AbsorbedCandidateAttachesOriginToAbsorber) {
  if (!kProvenanceCompiledIn) GTEST_SKIP() << "built with LRPDB_NO_PROVENANCE";
  // f carries the same ground set as e, so rule 1's candidate lands on the
  // same signature as the entry rule 0 already inserted and is absorbed
  // into it — p#0 must end up with two origins from two distinct rules.
  auto run = RunWithProvenance(R"(
    .decl e(time, data)
    .decl f(time, data)
    .decl p(time, data)
    .fact e(24n, "a").
    .fact f(24n, "a").
    p(t, N) :- e(t, N).
    p(t, N) :- f(t, N).
  )",
                               1);
  ASSERT_NE(run, nullptr);
  ASSERT_EQ(run->result.idb.at("p").size(), 1u);
  auto rid = run->log.FindRelation("p");
  ASSERT_TRUE(rid.has_value());
  const auto& origins = run->log.Origins({*rid, 0});
  ASSERT_EQ(origins.size(), 2u);
  EXPECT_NE(origins[0].rule, origins[1].rule);
  std::vector<std::string> parent_names;
  for (const DerivationOrigin& o : origins) {
    ASSERT_EQ(o.parents.size(), 1u);
    parent_names.push_back(run->log.RelationName(o.parents[0].relation));
  }
  EXPECT_EQ(parent_names, (std::vector<std::string>{"e", "f"}));
  ExpectCompleteAndReplayable(*run);
}

TEST(ProvenanceTest, AbsorbedCandidateRecordsOnItsCoveringEntriesOnly) {
  if (!kProvenanceCompiledIn) GTEST_SKIP() << "built with LRPDB_NO_PROVENANCE";
  // Rules 0 and 1 store two overlapping same-signature entries, p#0 over
  // [0, 96] and p#1 over [48, 192]. Rule 2's candidate, [0, 24], lies inside
  // p#0 alone, so its origin lands on p#0 only. Rule 3's candidate,
  // [24, 144], is covered by neither entry alone, only by their union: its
  // origin lands on both.
  auto run = RunWithProvenance(R"(
    .decl a(time, data)
    .decl b(time, data)
    .decl c(time, data)
    .decl d(time, data)
    .decl p(time, data)
    .fact a(24n, "x") with T1 >= 0, T1 <= 96.
    .fact b(24n, "x") with T1 >= 48, T1 <= 192.
    .fact c(24n, "x") with T1 >= 0, T1 <= 24.
    .fact d(24n, "x") with T1 >= 24, T1 <= 144.
    p(t, N) :- a(t, N).
    p(t, N) :- b(t, N).
    p(t, N) :- c(t, N).
    p(t, N) :- d(t, N).
  )",
                               1);
  ASSERT_NE(run, nullptr);
  ASSERT_EQ(run->result.idb.at("p").size(), 2u);
  auto rid = run->log.FindRelation("p");
  ASSERT_TRUE(rid.has_value());
  auto rules_of = [&](EntryId entry) {
    std::vector<int32_t> rules;
    for (const DerivationOrigin& o : run->log.Origins({*rid, entry})) {
      rules.push_back(o.rule);
    }
    return rules;
  };
  EXPECT_EQ(rules_of(0), (std::vector<int32_t>{0, 2, 3}));
  EXPECT_EQ(rules_of(1), (std::vector<int32_t>{1, 3}));
  // No replay check: rule 3's origin derives a set neither entry contains
  // alone, which is what the union fallback's whole-bucket attribution
  // means.
}

TEST(ProvenanceTest, DerivationAcrossEntriesRecordsEachPieceOnItsOwner) {
  if (!kProvenanceCompiledIn) GTEST_SKIP() << "built with LRPDB_NO_PROVENANCE";
  // c's tuple (t1 in {4, 8}) lies inside no single stored p entry: its
  // t1 = 4 points come from a (t1 in {0, 4}), its t1 = 8 points from b
  // (t1 in {8, 12, 16}). The kernel emits one candidate per residue piece
  // (period 12 on both columns, t2 in 12n or 12n+6), so rule 2 derives four
  // single-piece candidates, and each is absorbed by the one entry that
  // holds its piece: every origin re-derives a subset of the entry it is
  // recorded on, and the replay check holds.
  auto run = RunWithProvenance(R"(
    .decl a(time, time)
    .decl b(time, time)
    .decl c(time, time)
    .decl p(time, time)
    .fact a(4n, 6n) with T1 >= 0, T1 <= 4.
    .fact b(4n, 6n) with T1 >= 8, T1 <= 16.
    .fact c(4n, 6n) with T1 >= 4, T1 <= 8.
    p(t1, t2) :- a(t1, t2).
    p(t1, t2) :- b(t1, t2).
    p(t1, t2) :- c(t1, t2).
  )",
                               1);
  ASSERT_NE(run, nullptr);
  // a's pieces are p#0..#3 (t1 = 0, then t1 = 4), b's p#4..#9.
  ASSERT_EQ(run->result.idb.at("p").size(), 10u);
  auto rid = run->log.FindRelation("p");
  ASSERT_TRUE(rid.has_value());
  std::vector<EntryId> rule2_entries;
  for (EntryId entry = 0; entry < 10; ++entry) {
    for (const DerivationOrigin& o : run->log.Origins({*rid, entry})) {
      if (o.rule == 2) rule2_entries.push_back(entry);
    }
  }
  // One record per piece: p#2 and #3 (t1 = 4), #8 and #9 (t1 = 8).
  EXPECT_EQ(rule2_entries, (std::vector<EntryId>{2, 3, 8, 9}));
  ExpectCompleteAndReplayable(*run);
}

TEST(ProvenanceTest, RecursiveSelfLoopIsCycleSafe) {
  if (!kProvenanceCompiledIn) GTEST_SKIP() << "built with LRPDB_NO_PROVENANCE";
  // p(24n) shifted by 24 is a subset of itself: the recursive rule's
  // candidate is absorbed into p#0 with p#0 as its own parent. The graph
  // query must terminate and the tree render must back-reference instead of
  // recursing forever.
  auto run = RunWithProvenance(R"(
    .decl e(time, data)
    .decl p(time, data)
    .fact e(24n, "a").
    p(t, N) :- e(t, N).
    p(t + 24, N) :- p(t, N).
  )",
                               1);
  ASSERT_NE(run, nullptr);
  auto rid = run->log.FindRelation("p");
  ASSERT_TRUE(rid.has_value());
  ProvRef root{*rid, 0};
  ASSERT_GE(run->log.Origins(root).size(), 2u);

  auto graph = run->log.WhyProvenance(root);
  ASSERT_TRUE(graph.ok()) << graph.status();
  ASSERT_FALSE(graph->nodes.empty());
  EXPECT_EQ(graph->nodes[0].ref, root);
  // Reachable set: p#0 itself plus the EDB leaf e#0.
  EXPECT_EQ(graph->nodes.size(), 2u);
  EXPECT_TRUE(graph->index.count(root));

  auto tuple_label = [&](const std::string& relation, EntryId entry) {
    return relation + "#" + std::to_string(entry);
  };
  auto rule_label = [&](int32_t rule) {
    return "rule-" + std::to_string(rule);
  };
  std::string tree = run->log.RenderTree(*graph, tuple_label, rule_label);
  EXPECT_NE(tree.find("[base fact]"), std::string::npos) << tree;
  EXPECT_NE(tree.find("[see above]"), std::string::npos) << tree;
  EXPECT_NE(tree.find("rule-1"), std::string::npos) << tree;

  std::string dot = run->log.ToDot(*graph, tuple_label, rule_label);
  EXPECT_EQ(dot.rfind("digraph why", 0), 0u) << dot;
  EXPECT_NE(dot.find("->"), std::string::npos);
  EXPECT_NE(dot.find("rule-1"), std::string::npos);
}

TEST(ProvenanceTest, WhyProvenanceOnUnknownRefIsALeafGraph) {
  ProvenanceLog log;
  ProvRelationId rid = log.InternRelation("p");
  auto graph = log.WhyProvenance({rid, 42});
  ASSERT_TRUE(graph.ok()) << graph.status();
  ASSERT_EQ(graph->nodes.size(), 1u);
  EXPECT_TRUE(graph->nodes[0].origins.empty());
}

TEST(ProvenanceTest, RecordRejectsUnknownRelation) {
  ProvenanceLog log;
  Status status = log.Record({/*relation=*/7, /*entry=*/0}, {});
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(ProvenanceTest, InternRelationIsIdempotent) {
  ProvenanceLog log;
  ProvRelationId a = log.InternRelation("p");
  ProvRelationId b = log.InternRelation("q");
  EXPECT_NE(a, b);
  EXPECT_EQ(log.InternRelation("p"), a);
  EXPECT_EQ(log.RelationName(a), "p");
  ASSERT_TRUE(log.FindRelation("q").has_value());
  EXPECT_EQ(*log.FindRelation("q"), b);
  EXPECT_FALSE(log.FindRelation("r").has_value());
  EXPECT_EQ(log.num_relations(), 2u);
}

TEST(ProvenanceTest, RecordChargesAmbientByteBudget) {
  ProvenanceLog log;
  ProvRelationId rid = log.InternRelation("p");
  ExecContext exec;
  exec.set_byte_budget(1);
  exec.set_poll_stride(1);
  ExecContext::ScopedCurrent scope(&exec);
  DerivationOrigin origin;
  origin.rule = 0;
  origin.parents.push_back({rid, 0});
  Status status = log.Record({rid, 0}, origin);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
}

TEST(ProvenanceTest, AccountingTracksRecords) {
  ProvenanceLog log;
  ProvRelationId rid = log.InternRelation("p");
  EXPECT_EQ(log.records(), 0);
  DerivationOrigin origin;
  origin.rule = 3;
  origin.round = 2;
  origin.parents.push_back({rid, 1});
  ASSERT_TRUE(log.Record({rid, 0}, origin).ok());
  EXPECT_EQ(log.records(), 1);
  EXPECT_GT(log.approx_bytes(), 0);
  const auto& origins = log.Origins({rid, 0});
  ASSERT_EQ(origins.size(), 1u);
  EXPECT_EQ(origins[0], origin);
  // Unknown entry: the empty sentinel, not a crash.
  EXPECT_TRUE(log.Origins({rid, 99}).empty());
  EXPECT_FALSE(log.HasOrigins({rid, 99}));
}

TEST(ProvenanceTest, NegatedAtomsAreOmittedFromParents) {
  if (!kProvenanceCompiledIn) GTEST_SKIP() << "built with LRPDB_NO_PROVENANCE";
  auto run = RunWithProvenance(R"(
    .decl e(time, data)
    .decl q(time, data)
    .decl r(time, data)
    .fact e(24n, "a").
    .fact e(24n+1, "b").
    q(t, N) :- e(t, N), e(t, "a").
    r(t, N) :- e(t, N), !q(t, N).
  )",
                               1);
  ASSERT_NE(run, nullptr);
  auto rid = run->log.FindRelation("r");
  ASSERT_TRUE(rid.has_value());
  const auto& relation = run->result.idb.at("r");
  ASSERT_GT(relation.size(), 0u);
  for (size_t e = 0; e < relation.size(); ++e) {
    const auto& origins = run->log.Origins({*rid, static_cast<EntryId>(e)});
    ASSERT_FALSE(origins.empty());
    for (const DerivationOrigin& o : origins) {
      // The clause has two body atoms but only the positive one records.
      EXPECT_EQ(o.parents.size(), 1u);
      EXPECT_EQ(run->log.RelationName(o.parents[0].relation), "e");
    }
  }
  ExpectCompleteAndReplayable(*run);
}

// --- Windowed ground evaluator --------------------------------------------

// "name(t..., data...)" for the fact at `index` of a window EDB or IDB
// store.
std::string RenderGroundFact(const GroundEvaluationResult& result,
                             const Database& db, const std::string& name,
                             EntryId index) {
  auto it = result.idb.find(name);
  const GroundFactStore& store =
      it != result.idb.end() ? it->second : result.edb.at(name);
  if (index >= store.size()) return name + "#" + std::to_string(index) + "?";
  const GroundTuple& fact = store.fact(index);
  std::string out = name + "(";
  for (size_t k = 0; k < fact.times.size(); ++k) {
    out += (k > 0 ? "," : "") + std::to_string(fact.times[k]);
  }
  for (DataValue d : fact.data) out += "," + db.interner().NameOf(d);
  return out + ")";
}

// Every recorded origin, one line each, with heads and parents rendered as
// facts: per relation, per fact in insertion order.
std::string DumpGroundLog(const GroundEvaluationResult& result,
                          const ProvenanceLog& log, const Database& db) {
  std::ostringstream out;
  for (const auto& [name, store] : result.idb) {
    auto rid = log.FindRelation(name);
    if (!rid.has_value()) continue;
    for (size_t i = 0; i < store.size(); ++i) {
      for (const DerivationOrigin& o :
           log.Origins({*rid, static_cast<EntryId>(i)})) {
        out << RenderGroundFact(result, db, name, static_cast<EntryId>(i))
            << " <- rule " << o.rule << " @ " << o.round << ":";
        for (const ProvRef& p : o.parents) {
          out << " "
              << RenderGroundFact(result, db, log.RelationName(p.relation),
                                  p.entry);
        }
        out << "\n";
      }
    }
  }
  return out.str();
}

TEST(GroundProvenanceTest, RecordsACompleteResolvableLog) {
  if (!kProvenanceCompiledIn) GTEST_SKIP() << "built with LRPDB_NO_PROVENANCE";
  Database db;
  auto unit = Parse(R"(
    .decl e(time, data)
    .decl p(time, data)
    .decl q(time, data)
    .decl r(time, data)
    .fact e(6n, "a").
    .fact e(6n+2, "b").
    p(t + 1, N) :- e(t, N).
    p(t + 3, N) :- p(t, N).
    q(t, N) :- p(t, N), e(t + 5, N).
    r(t, N) :- e(t, N), !q(t + 1, N).
  )",
                    &db);
  ASSERT_TRUE(unit.ok()) << unit.status();
  ProvenanceLog log;
  GroundEvaluationOptions options;
  options.window_lo = 0;
  options.window_hi = 10;
  options.provenance = &log;
  auto result = EvaluateGround(unit->program, db, options);
  ASSERT_TRUE(result.ok()) << result.status();
  // Window EDB: e(0,a), e(2,b), e(6,a), e(8,b). Round 1 applies each
  // stratum-0 clause once over the facts stored when the round began, so
  // only rule 0 fires (p is still empty). Round 2 pivots on round 1's p
  // facts: rule 1 adds p(4,a) and p(6,b) (p(10,a) and p(12,b) fall outside
  // the window), and rule 2 adds q(t, N) from p(t, N) and e(t + 5, N):
  // t + 5 = 6 (a) or 8 (b). Round 3 pivots on p(4,a) and p(6,b), re-deriving
  // p(7,a) and p(9,b) (recorded against the existing facts) and adding
  // none, which ends the stratum. Every derivation is recorded once. Round
  // 4 is stratum 1: r drops e(0,a) and e(2,b), one step before a q fact,
  // and its negated atom records no parent.
  EXPECT_EQ(DumpGroundLog(*result, log, db),
            "p(1,a) <- rule 0 @ 1: e(0,a)\n"
            "p(3,b) <- rule 0 @ 1: e(2,b)\n"
            "p(7,a) <- rule 0 @ 1: e(6,a)\n"
            "p(7,a) <- rule 1 @ 3: p(4,a)\n"
            "p(9,b) <- rule 0 @ 1: e(8,b)\n"
            "p(9,b) <- rule 1 @ 3: p(6,b)\n"
            "p(4,a) <- rule 1 @ 2: p(1,a)\n"
            "p(6,b) <- rule 1 @ 2: p(3,b)\n"
            "q(1,a) <- rule 2 @ 2: p(1,a) e(6,a)\n"
            "q(3,b) <- rule 2 @ 2: p(3,b) e(8,b)\n"
            "r(6,a) <- rule 3 @ 4: e(6,a)\n"
            "r(8,b) <- rule 3 @ 4: e(8,b)\n");
  // Every recorded parent resolves against the returned window EDB / IDB.
  for (const auto& [name, store] : result->idb) {
    auto rid = log.FindRelation(name);
    ASSERT_TRUE(rid.has_value()) << name;
    for (size_t i = 0; i < store.size(); ++i) {
      for (const DerivationOrigin& o :
           log.Origins({*rid, static_cast<EntryId>(i)})) {
        for (const ProvRef& p : o.parents) {
          EXPECT_EQ(RenderGroundFact(*result, db,
                                     log.RelationName(p.relation), p.entry)
                        .find('?'),
                    std::string::npos);
        }
      }
    }
  }
}

TEST(GroundProvenanceTest, InsertIndexedReturnsStableIndices) {
  GroundFactStore store;
  GroundTuple a{{1}, {2}};
  GroundTuple b{{3}, {4}};
  auto [ia, fresh_a] = store.InsertIndexed(a);
  auto [ib, fresh_b] = store.InsertIndexed(b);
  EXPECT_TRUE(fresh_a);
  EXPECT_TRUE(fresh_b);
  EXPECT_EQ(ia, 0u);
  EXPECT_EQ(ib, 1u);
  auto [ia2, fresh_a2] = store.InsertIndexed(a);
  EXPECT_FALSE(fresh_a2);
  EXPECT_EQ(ia2, ia);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.fact(0), a);
  EXPECT_EQ(store.fact(1), b);
}

}  // namespace
}  // namespace lrpdb
