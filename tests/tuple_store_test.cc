// Tests for the signature-indexed tuple store (src/gdb/tuple_store.h):
// differential equivalence of the indexed and brute-force linear-scan
// reference paths over whole program evaluations, plus unit tests of the
// store's probe counters, delta-generation protocol, and index invariants.
// The counter assertions are the acceptance check that InsertIfNew and join
// matching never scan tuples outside the probed signature / posting bucket.
#include <algorithm>
#include <atomic>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/evaluator.h"
#include "src/gdb/tuple_store.h"
#include "src/obs/metrics.h"
#include "src/parser/parser.h"

namespace lrpdb {

// Corrupts private index state so the tests below can assert that
// CheckConsistency reports the same first inconsistency on every run
// regardless of hash layout (it walks buckets by SignatureId and postings
// by DataValue, never in hash order).
class TupleStoreTestPeer {
 public:
  static void AppendToBucketWithId(TupleStore& store, SignatureId id,
                                   EntryId bogus) {
    for (auto& [fe, bucket] : store.signature_index_) {
      if (bucket.id == id) {
        bucket.entries.push_back(bogus);
        return;
      }
    }
    FAIL() << "no bucket with signature id " << id;
  }

  static void SetEntrySignature(TupleStore& store, EntryId id,
                                SignatureId signature) {
    store.entries_[id].signature = signature;
  }

  static void ReversePosting(TupleStore& store, int column, DataValue value) {
    auto it = store.data_index_[column].find(value);
    ASSERT_NE(it, store.data_index_[column].end());
    std::reverse(it->second.begin(), it->second.end());
  }

  static void AppendToPosting(TupleStore& store, int column, DataValue value,
                              EntryId bogus) {
    auto it = store.data_index_[column].find(value);
    ASSERT_NE(it, store.data_index_[column].end());
    it->second.push_back(bogus);
  }

  static void SetLrpMirror(TupleStore& store, int column, EntryId id,
                           Lrp lrp) {
    store.lrp_columns_[column][id] = lrp;
  }
};

namespace {

// A banded tuple (period n + offset) restricted to [lo, hi] with one data
// column, for exercising signature buckets and postings independently.
GeneralizedTuple Banded(int64_t period, int64_t offset, int64_t lo, int64_t hi,
                        DataValue data) {
  Dbm constraint(1);
  constraint.AddLowerBound(1, lo);
  constraint.AddUpperBound(1, hi);
  return GeneralizedTuple({Lrp(period, offset)}, {data}, constraint);
}

TEST(TupleStoreTest, InsertProbesOnlySameSignatureBucket) {
  TupleStore store({1, 1});
  // Five distinct signatures (different offsets), then three entries of one
  // signature in disjoint bands.
  for (int64_t offset = 0; offset < 5; ++offset) {
    ASSERT_TRUE(store.Insert(Banded(7, offset, 0, 10, 1))->inserted);
  }
  for (int64_t band = 0; band < 3; ++band) {
    ASSERT_TRUE(
        store.Insert(Banded(7, 6, 100 * band, 100 * band + 10, 1))->inserted);
  }
  ASSERT_EQ(store.size(), 8u);
  ASSERT_EQ(store.num_signatures(), 6u);

  // A candidate with the 3-entry signature must be compared against exactly
  // those 3 entries -- never the other 5.
  StoreStats round;
  auto outcome = store.Insert(Banded(7, 6, 5, 8, 1), NormalizeLimits(), &round);
  ASSERT_TRUE(outcome.ok());
  EXPECT_FALSE(outcome->new_signature);
  EXPECT_EQ(round.signature_probes, 1);
  EXPECT_EQ(round.subsumption_checks, 1);
  EXPECT_EQ(round.subsumption_candidates, 3);

  // A candidate with a fresh signature skips subsumption entirely.
  round = StoreStats();
  outcome = store.Insert(Banded(7, 5, 0, 10, 1), NormalizeLimits(), &round);
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome->inserted);
  EXPECT_TRUE(outcome->new_signature);
  EXPECT_EQ(round.subsumption_checks, 0);
  EXPECT_EQ(round.subsumption_candidates, 0);
}

TEST(TupleStoreTest, MultiPieceCandidateAcrossEntriesNamesEveryOwner) {
  // Lrps of periods 4 and 6 normalize to period-12 residue pieces. Entry 0
  // holds t1 in {0, 4}, entry 1 t1 in {8, 12, 16}; the candidate, t1 in
  // {4, 8}, has each of its pieces inside a piece of one entry, but lies
  // inside neither entry alone. The single-piece check subsumes it and
  // names both owners: an origin recorded on them would re-derive a set
  // neither contains. (The evaluator never inserts such a candidate: its
  // kernel emits one candidate per residue piece.)
  auto t1_band = [](int64_t lo, int64_t hi) {
    Dbm constraint(2);
    constraint.AddLowerBound(1, lo);
    constraint.AddUpperBound(1, hi);
    return GeneralizedTuple({Lrp(4, 0), Lrp(6, 0)}, {}, constraint);
  };
  TupleStore store({2, 0});
  ASSERT_TRUE(store.Insert(t1_band(0, 4))->inserted);
  ASSERT_TRUE(store.Insert(t1_band(8, 16))->inserted);
  StoreStats round;
  auto outcome = store.Insert(t1_band(4, 8), NormalizeLimits(), &round);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_FALSE(outcome->inserted);
  EXPECT_EQ(round.subsumed_single, 1);
  EXPECT_EQ(outcome->absorbers, (std::vector<EntryId>{0, 1}));
}

TEST(TupleStoreTest, InsertOutcomesMatchBruteForceReference) {
  // The indexed path and the linear-scan reference path must agree on every
  // outcome bit for the same insertion sequence.
  std::vector<GeneralizedTuple> sequence;
  for (int64_t offset = 0; offset < 4; ++offset) {
    sequence.push_back(Banded(6, offset, 0, 50, offset % 2));
  }
  sequence.push_back(Banded(6, 1, 10, 20, 1));   // Subsumed by offset 1.
  sequence.push_back(Banded(6, 1, 40, 120, 1));  // Overlaps; not subsumed.
  sequence.push_back(Banded(3, 1, 0, 50, 0));    // New signature.
  sequence.push_back(Banded(6, 1, 70, 90, 1));   // Now subsumed.

  TupleStore indexed({1, 1});
  TupleStore reference({1, 1});
  reference.set_index_enabled(false);
  for (const GeneralizedTuple& tuple : sequence) {
    auto a = indexed.Insert(tuple);
    auto b = reference.Insert(tuple);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a->inserted, b->inserted);
    EXPECT_EQ(a->new_signature, b->new_signature);
  }
  ASSERT_EQ(indexed.size(), reference.size());
  for (EntryId id = 0; id < indexed.size(); ++id) {
    EXPECT_EQ(indexed.tuple(id).ToString(), reference.tuple(id).ToString());
  }
  EXPECT_TRUE(indexed.CheckConsistency().ok());
  EXPECT_TRUE(reference.CheckConsistency().ok());
}

// A tuple of the one signature (6n+1, 4n+3, data 7): common period 12, so
// up to six residue pieces. T1's band and the T2 - T1 band are drawn from
// `rng`, each side sometimes left open.
GeneralizedTuple RandomSameSignature(std::mt19937& rng) {
  std::uniform_int_distribution<int64_t> start(0, 60);
  std::uniform_int_distribution<int64_t> width(0, 60);
  std::uniform_int_distribution<int64_t> gap(-12, 12);
  std::uniform_int_distribution<int64_t> gap_width(0, 24);
  Dbm constraint(2);
  const int64_t lo = start(rng);
  if (rng() % 4 != 0) constraint.AddLowerBound(1, lo);
  if (rng() % 4 != 0) constraint.AddUpperBound(1, lo + width(rng));
  const int64_t g = gap(rng);
  if (rng() % 4 != 0) constraint.AddDifferenceUpperBound(1, 2, -g);
  if (rng() % 4 != 0) {
    constraint.AddDifferenceUpperBound(2, 1, g + gap_width(rng));
  }
  return GeneralizedTuple({Lrp(6, 1), Lrp(4, 3)}, {7}, constraint);
}

// Insert decides subsumption piece by piece first, then by union
// containment. Over random same-signature buckets (restored unfiltered, so
// entries overlap and nest), the decision must equal PiecesContainedIn over
// all of the bucket's pieces, on the indexed and the unindexed path alike;
// the absorbers must be sorted, distinct, and cover the candidate by
// themselves.
TEST(TupleStoreTest, InsertDecisionMatchesUnionContainment) {
  std::mt19937 rng(20260);
  int single = 0;
  int union_only = 0;
  int inserted = 0;
  for (int trial = 0; trial < 400; ++trial) {
    std::vector<GeneralizedTuple> bucket;
    const int size = 1 + static_cast<int>(rng() % 4);
    for (int i = 0; i < size; ++i) bucket.push_back(RandomSameSignature(rng));
    const GeneralizedTuple candidate = RandomSameSignature(rng);
    auto candidate_pieces = NormalizedTuple::Normalize(candidate);
    ASSERT_TRUE(candidate_pieces.ok());
    if (candidate_pieces->empty()) continue;
    std::vector<NormalizedTuple> bucket_pieces;
    for (const GeneralizedTuple& tuple : bucket) {
      auto pieces = NormalizedTuple::Normalize(tuple);
      ASSERT_TRUE(pieces.ok());
      bucket_pieces.insert(bucket_pieces.end(), pieces->begin(), pieces->end());
    }
    auto want = PiecesContainedIn(*candidate_pieces, bucket_pieces);
    ASSERT_TRUE(want.ok());
    for (bool indexed : {true, false}) {
      SCOPED_TRACE("trial " + std::to_string(trial) +
                   (indexed ? " indexed" : " unindexed"));
      TupleStore store({2, 1});
      store.set_index_enabled(indexed);
      for (const GeneralizedTuple& tuple : bucket) {
        ASSERT_TRUE(store.RestoreEntry(tuple).ok());
      }
      StoreStats round;
      auto outcome = store.Insert(candidate, NormalizeLimits(), &round);
      ASSERT_TRUE(outcome.ok()) << outcome.status();
      EXPECT_EQ(!outcome->inserted, *want);
      EXPECT_EQ(round.subsumed, *want ? 1 : 0);
      if (outcome->inserted) {
        EXPECT_TRUE(outcome->absorbers.empty());
        if (indexed) ++inserted;
        continue;
      }
      const std::vector<EntryId>& absorbers = outcome->absorbers;
      ASSERT_FALSE(absorbers.empty());
      EXPECT_TRUE(std::is_sorted(absorbers.begin(), absorbers.end()));
      EXPECT_EQ(std::adjacent_find(absorbers.begin(), absorbers.end()),
                absorbers.end());
      std::vector<NormalizedTuple> absorbed;
      for (EntryId id : absorbers) {
        ASSERT_LT(id, bucket.size());
        auto pieces = store.pieces(id);
        ASSERT_TRUE(pieces.ok());
        absorbed.insert(absorbed.end(), (*pieces)->begin(), (*pieces)->end());
      }
      auto covered = PiecesContainedIn(*candidate_pieces, absorbed);
      ASSERT_TRUE(covered.ok());
      EXPECT_TRUE(*covered);
      if (!indexed) continue;
      if (round.subsumed_single == 1) {
        ++single;
      } else {
        // The union fallback names the whole bucket.
        EXPECT_EQ(absorbers.size(), bucket.size());
        ++union_only;
      }
    }
  }
  // Every branch of the decision was exercised.
  EXPECT_GT(single, 0);
  EXPECT_GT(union_only, 0);
  EXPECT_GT(inserted, 0);
}

// With corruptions in two different signature buckets, the reported error
// must always be the lower-id bucket's, independent of the hash layout the
// store happens to have (regression test for the hash-order walk this
// replaced). Varying the signature count varies bucket load factors and
// therefore the unordered_map's internal ordering.
TEST(TupleStoreTest, CheckConsistencyReportsLowestSignatureBucketFirst) {
  for (int64_t signatures : {4, 9, 17, 40}) {
    TupleStore store({1, 1});
    // Band [0, 100] is wide enough that every offset < signatures + 1 keeps
    // at least one point (an empty band would make Insert report a no-op).
    for (int64_t offset = 0; offset < signatures; ++offset) {
      ASSERT_TRUE(
          store.Insert(Banded(signatures + 1, offset, 0, 100, 1))->inserted);
    }
    ASSERT_TRUE(store.CheckConsistency().ok());
    // Lower bucket id: an out-of-range entry. Higher bucket id: an entry
    // whose signature field disagrees. Distinct messages, so the walk order
    // is observable.
    TupleStoreTestPeer::AppendToBucketWithId(
        store, 1, static_cast<EntryId>(store.size() + 100));
    TupleStoreTestPeer::SetEntrySignature(
        store, static_cast<EntryId>(signatures - 1), 9999);
    Status status = store.CheckConsistency();
    ASSERT_FALSE(status.ok());
    EXPECT_NE(status.ToString().find("bucket id out of range"),
              std::string::npos)
        << "signatures=" << signatures << ": " << status.ToString();
  }
}

// Same discipline for the per-column postings: with corruptions under two
// different data values, the reported error is always the lower value's.
TEST(TupleStoreTest, CheckConsistencyReportsLowestPostingValueFirst) {
  for (int64_t values : {4, 9, 17, 40}) {
    TupleStore store({1, 1});
    for (int64_t v = 0; v < values; ++v) {
      // Two entries per value (distinct signatures) so postings have
      // length two and sortedness is observable. Band [0, 100] keeps every
      // canonicalized offset non-empty.
      ASSERT_TRUE(store.Insert(Banded(values + 1, 2 * v, 0, 100,
                                      static_cast<DataValue>(v)))
                      ->inserted);
      ASSERT_TRUE(store.Insert(Banded(values + 1, 2 * v + 1, 0, 100,
                                      static_cast<DataValue>(v)))
                      ->inserted);
    }
    ASSERT_TRUE(store.CheckConsistency().ok());
    TupleStoreTestPeer::ReversePosting(store, 0, static_cast<DataValue>(1));
    TupleStoreTestPeer::AppendToPosting(
        store, 0, static_cast<DataValue>(values - 1),
        static_cast<EntryId>(store.size() + 100));
    Status status = store.CheckConsistency();
    ASSERT_FALSE(status.ok());
    EXPECT_NE(status.ToString().find("posting list not sorted"),
              std::string::npos)
        << "values=" << values << ": " << status.ToString();
  }
}

TEST(TupleStoreTest, DeltaGenerationProtocol) {
  TupleStore store({1, 0});
  auto insert = [&](int64_t offset) {
    ASSERT_TRUE(
        store
            .Insert(GeneralizedTuple({Lrp(9, offset)}, {}, Dbm(1)))
            ->inserted);
  };
  insert(0);
  insert(1);
  store.AdvanceGeneration();  // Delta = {0, 1}.
  insert(2);
  EXPECT_EQ(store.delta_lo(), 0u);
  EXPECT_EQ(store.delta_hi(), 2u);
  EXPECT_EQ(store.delta_size(), 2u);


  store.AdvanceGeneration();  // Delta = {2}.
  EXPECT_EQ(store.delta_lo(), 2u);
  EXPECT_EQ(store.delta_hi(), 3u);

  store.AdvanceGeneration();  // Nothing appended: delta empty.
  EXPECT_EQ(store.delta_size(), 0u);
  EXPECT_TRUE(store.CheckConsistency().ok());
}

TEST(TupleStoreTest, DataRequirementProbeScansOnlyPostingBucket) {
  TupleStore store({1, 1});
  // 12 tuples; data value 5 on every third one.
  for (int64_t i = 0; i < 12; ++i) {
    ASSERT_TRUE(
        store.Insert(Banded(13, i, 0, 25, i % 3 == 0 ? 5 : 100 + i))
            ->inserted);
  }
  // The posting for value 5 is exactly its bucket, ascending; a value no
  // entry carries has no posting at all.
  const std::vector<EntryId>* posting = store.PostingFor(0, 5);
  ASSERT_NE(posting, nullptr);
  EXPECT_EQ(*posting, (std::vector<EntryId>{0, 3, 6, 9}));
  EXPECT_EQ(store.PostingFor(0, 999), nullptr);

  // A probe that scans the posting counts it as scanned and the rest of
  // the range as pruned, in the caller's round stats and the lifetime
  // stats alike.
  StoreStats probe;
  const int64_t scanned = static_cast<int64_t>(posting->size());
  store.CountProbe(&probe, scanned, static_cast<int64_t>(store.size()) -
                                        scanned);
  EXPECT_EQ(probe.index_probes, 1);
  EXPECT_EQ(probe.tuples_scanned, 4);
  EXPECT_EQ(probe.tuples_pruned, 8);
  // A probe whose value has no posting prunes everything; a null round
  // stats pointer still counts toward the lifetime stats.
  store.CountProbe(nullptr, 0, static_cast<int64_t>(store.size()));
  StoreStats lifetime = store.stats();
  EXPECT_EQ(lifetime.index_probes, 2);
  EXPECT_EQ(lifetime.tuples_scanned, 4);
  EXPECT_EQ(lifetime.tuples_pruned, 20);

  // Disabling the index for probing leaves the postings maintained.
  store.set_index_enabled(false);
  ASSERT_TRUE(store.Insert(Banded(13, 12, 0, 25, 5))->inserted);
  EXPECT_EQ(*store.PostingFor(0, 5), (std::vector<EntryId>{0, 3, 6, 9, 12}));
}

TEST(TupleStoreTest, GroundFactStoreDedupOrderAndDelta) {
  GroundFactStore store;
  EXPECT_TRUE(store.Insert({{3}, {}}));
  EXPECT_TRUE(store.Insert({{1}, {}}));
  EXPECT_FALSE(store.Insert({{3}, {}}));  // Duplicate.
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.fact(0).times, (std::vector<int64_t>{3}));
  EXPECT_EQ(store.fact(1).times, (std::vector<int64_t>{1}));
  EXPECT_EQ(store.count({{3}, {}}), 1u);
  EXPECT_EQ(store.count({{7}, {}}), 0u);

  store.AdvanceGeneration();
  EXPECT_EQ(store.delta_lo(), 0u);
  EXPECT_EQ(store.delta_hi(), 2u);
  EXPECT_TRUE(store.Insert({{7}, {}}));
  store.AdvanceGeneration();
  EXPECT_EQ(store.delta_lo(), 2u);
  EXPECT_EQ(store.delta_hi(), 3u);

  // Range-for iterates in insertion order (set-style reading).
  std::vector<int64_t> seen;
  for (const GroundTuple& fact : store) seen.push_back(fact.times[0]);
  EXPECT_EQ(seen, (std::vector<int64_t>{3, 1, 7}));

  // Move preserves contents (pointers into the node-based set are stable).
  GroundFactStore moved = std::move(store);
  EXPECT_EQ(moved.size(), 3u);
  EXPECT_TRUE(moved.Contains({{7}, {}}));
}

// ---- Whole-evaluation differential tests: indexed vs brute force ----

const char* const kDifferentialPrograms[] = {
    // Orbit program (E2 shape): recursion over shifted offsets.
    R"(
      .decl e(time, time)
      .decl p(time, time)
      .fact e(24n+8, 24n+10) with T2 = T1 + 2.
      p(t1 + 2, t2 + 2) :- e(t1, t2).
      p(t1 + 5, t2 + 5) :- p(t1, t2).
    )",
    // Data join: the posting-list probe path with constants and bound vars.
    R"(
      .decl route(time, data, data)
      .decl hop2(time, data, data)
      .fact route(12n+1, "a", "b").
      .fact route(12n+3, "b", "c").
      .fact route(12n+4, "b", "d").
      .fact route(12n+9, "c", "a").
      hop2(t, X, Z) :- route(t, X, Y), route(t + 2, Y, Z).
      hop2(t + 12, X, Z) :- hop2(t, X, Z).
    )",
    // Stratified negation on top of recursion.
    R"(
      .decl tick(time)
      .decl busy(time)
      .decl quiet(time)
      .fact tick(6n).
      busy(t + 2) :- tick(t).
      busy(t + 6) :- busy(t).
      quiet(t) :- tick(t), !busy(t + 1).
    )",
};

class TupleStoreDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(TupleStoreDifferentialTest, IndexedMatchesBruteForceGroundSets) {
  const char* source = kDifferentialPrograms[GetParam()];
  EvaluationResult results[2];
  for (bool indexed : {true, false}) {
    Database db;
    auto unit = Parse(source, &db);
    ASSERT_TRUE(unit.ok()) << unit.status();
    EvaluationOptions options;
    options.indexed_storage = indexed;
    auto result = Evaluate(unit->program, db, options);
    ASSERT_TRUE(result.ok()) << result.status();
    ASSERT_TRUE(result->reached_fixpoint);
    results[indexed ? 0 : 1] = std::move(*result);
  }
  EXPECT_EQ(results[0].iterations, results[1].iterations);
  ASSERT_EQ(results[0].idb.size(), results[1].idb.size());
  for (const auto& [name, indexed_relation] : results[0].idb) {
    const GeneralizedRelation& reference_relation = results[1].idb.at(name);
    std::vector<GroundTuple> a = indexed_relation.EnumerateGround(-10, 300);
    std::vector<GroundTuple> b = reference_relation.EnumerateGround(-10, 300);
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(a == b, true) << "ground sets differ for " << name;
    EXPECT_TRUE(indexed_relation.store().CheckConsistency().ok());
    EXPECT_TRUE(reference_relation.store().CheckConsistency().ok());
  }
  // The indexed run's counters certify bucket-bounded work: every insert
  // probed a signature, and subsumption compared no more tuples than the
  // store holds (bucket-bounded, not relation-bounded).
  StoreStats totals = results[0].StoreTotals();
  EXPECT_GT(totals.signature_probes, 0);
  // Every probed candidate ends exactly one way: stored or subsumed.
  // (Empty-ground-set candidates are dropped before any probe.)
  EXPECT_EQ(totals.signature_probes, totals.inserts + totals.subsumed);
}

INSTANTIATE_TEST_SUITE_P(Programs, TupleStoreDifferentialTest,
                         ::testing::Range(0, 3));

TEST(TupleStoreEvaluatorTest, JoinProbesPruneByBoundDataColumns) {
  // The hop2 join binds Y by the first atom, so the second atom's probe must
  // prune by posting list: pruned > 0 in the round counters, and
  // scanned + pruned must account exactly for a full scan.
  Database db;
  auto unit = Parse(kDifferentialPrograms[1], &db);
  ASSERT_TRUE(unit.ok()) << unit.status();
  auto result = Evaluate(unit->program, db);
  ASSERT_TRUE(result.ok()) << result.status();
  StoreStats totals = result->StoreTotals();
  EXPECT_GT(totals.index_probes, 0);
  EXPECT_GT(totals.tuples_pruned, 0);
  for (const RoundStats& round : result->rounds) {
    EXPECT_GE(round.store.tuples_scanned, 0);
    EXPECT_GE(round.store.tuples_pruned, 0);
  }
}

// Every join probe the evaluator issues reaches the registry's store.*
// probe counters too: across one Evaluate, each counter moves by exactly
// the matching field of the round totals.
TEST(TupleStoreEvaluatorTest, ProbeCountersMirrorIntoTheRegistry) {
#if defined(LRPDB_NO_METRICS)
  GTEST_SKIP() << "built with LRPDB_NO_METRICS";
#else
  Database db;
  auto unit = Parse(kDifferentialPrograms[1], &db);
  ASSERT_TRUE(unit.ok()) << unit.status();
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  obs::Counter* probes = registry.GetCounter("store.index_probes");
  obs::Counter* scanned = registry.GetCounter("store.tuples_scanned");
  obs::Counter* pruned = registry.GetCounter("store.tuples_pruned");
  const int64_t probes_before = probes->value();
  const int64_t scanned_before = scanned->value();
  const int64_t pruned_before = pruned->value();
  auto result = Evaluate(unit->program, db);
  ASSERT_TRUE(result.ok()) << result.status();
  const StoreStats totals = result->StoreTotals();
  EXPECT_GT(totals.index_probes, 0);
  EXPECT_EQ(probes->value() - probes_before, totals.index_probes);
  EXPECT_EQ(scanned->value() - scanned_before, totals.tuples_scanned);
  EXPECT_EQ(pruned->value() - pruned_before, totals.tuples_pruned);
#endif
}

// The insert path's subsumption counters reach the registry too, the
// single-piece hits (store.subsumed_single) among them.
TEST(TupleStoreEvaluatorTest, SubsumptionCountersMirrorIntoTheRegistry) {
#if defined(LRPDB_NO_METRICS)
  GTEST_SKIP() << "built with LRPDB_NO_METRICS";
#else
  Database db;
  auto unit = Parse(kDifferentialPrograms[0], &db);
  ASSERT_TRUE(unit.ok()) << unit.status();
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  obs::Counter* subsumed = registry.GetCounter("store.subsumed");
  obs::Counter* single = registry.GetCounter("store.subsumed_single");
  const int64_t subsumed_before = subsumed->value();
  const int64_t single_before = single->value();
  EvaluationOptions options;
  options.compact_results = false;  // Compaction inserts outside the rounds.
  auto result = Evaluate(unit->program, db, options);
  ASSERT_TRUE(result.ok()) << result.status();
  const StoreStats totals = result->StoreTotals();
  EXPECT_GT(totals.subsumed_single, 0);
  EXPECT_LE(totals.subsumed_single, totals.subsumed);
  EXPECT_EQ(subsumed->value() - subsumed_before, totals.subsumed);
  EXPECT_EQ(single->value() - single_before, totals.subsumed_single);
#endif
}

// Contention coverage for the store's documented const surface: with the
// store fully built, PostingFor, CountProbe (whose probe counters go
// through stats_mu_), pieces() (whose lazy normalized-piece cache goes
// through pieces_mu_), and stats() must all be callable from many threads
// at once.
// Runs under TSan via ci/check.sh --tsan. Failures are accumulated into
// atomics and asserted after the join, keeping gtest single-threaded.
TEST(TupleStoreTest, ConcurrentConstReadsShareCachesSafely) {
  TupleStore store({1, 1});
  for (int64_t offset = 0; offset < 8; ++offset) {
    for (int64_t band = 0; band < 8; ++band) {
      ASSERT_TRUE(store
                      .Insert(Banded(9, offset, 50 * band, 50 * band + 10,
                                     static_cast<DataValue>(band % 3)))
                      ->inserted);
    }
  }
  const size_t num_entries = store.size();
  ASSERT_EQ(num_entries, 64u);

  constexpr int kThreads = 8;
  constexpr int kIterations = 200;
  std::atomic<int> started{0};
  std::atomic<int> failures{0};
  std::atomic<int64_t> matched{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      started.fetch_add(1);
      while (started.load() < kThreads) {
      }
      for (int i = 0; i < kIterations; ++i) {
        const std::vector<EntryId>* posting =
            store.PostingFor(0, static_cast<DataValue>(t % 3));
        const int64_t local =
            posting == nullptr ? 0 : static_cast<int64_t>(posting->size());
        StoreStats probe_stats;
        store.CountProbe(&probe_stats, local,
                         static_cast<int64_t>(num_entries) - local);
        matched.fetch_add(local);
        auto pieces =
            store.pieces(static_cast<EntryId>((t * 37 + i) % num_entries));
        if (!pieces.ok() || (*pieces)->empty()) failures.fetch_add(1);
        StoreStats totals = store.stats();
        if (totals.inserts < static_cast<int64_t>(num_entries)) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  // Every thread's probe matched the posting bucket of its data value:
  // values 0, 1, 2 appear in 24, 24, and 16 entries respectively, and
  // threads are spread as t % 3 = {0, 0, 0, 1, 1, 1, 2, 2}.
  EXPECT_EQ(matched.load(), kIterations * (3 * 24 + 3 * 24 + 2 * 16));
  // The lifetime counters kept counting during the stampede: one index
  // probe per CountProbe call, none lost to racing bumps.
  EXPECT_EQ(store.stats().index_probes, int64_t{kThreads} * kIterations);
}

TEST(TupleStoreTest, ApproxBytesGrowsWithEveryInsertAndSurvivesMoves) {
  TupleStore store({1, 1});
  EXPECT_EQ(store.approx_bytes(), 0);
  int64_t previous = 0;
  for (int64_t offset = 0; offset < 6; ++offset) {
    ASSERT_TRUE(store.Insert(Banded(11, offset, 0, 20, offset))->inserted);
    EXPECT_GT(store.approx_bytes(), previous);
    previous = store.approx_bytes();
  }
  // Subsumed candidates retain nothing and charge nothing.
  ASSERT_FALSE(store.Insert(Banded(11, 0, 5, 10, 0))->inserted);
  EXPECT_EQ(store.approx_bytes(), previous);
  // The counter rides along with the store through moves.
  TupleStore moved(std::move(store));
  EXPECT_EQ(moved.approx_bytes(), previous);
  TupleStore assigned({1, 1});
  assigned = std::move(moved);
  EXPECT_EQ(assigned.approx_bytes(), previous);
}

// One writer inserts while seven readers hammer the two accessors that are
// documented safe concurrently *with* mutation: approx_bytes() and stats().
// Each reader checks its sampled byte count is monotone non-decreasing and
// never ahead of the lifetime insert count's plausible ceiling -- a torn or
// non-atomic counter would trip both this and TSan (ci/check.sh --tsan).
TEST(TupleStoreTest, ApproxBytesIsReadableWhileAnotherThreadInserts) {
  TupleStore store({1, 1});
  constexpr int kReaders = 7;
  constexpr int kInserts = 400;
  std::atomic<int> started{0};
  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&] {
      started.fetch_add(1);
      while (started.load() < kReaders + 1) {
      }
      int64_t last_bytes = 0;
      int64_t last_inserts = 0;
      while (!done.load(std::memory_order_acquire)) {
        int64_t bytes = store.approx_bytes();
        int64_t inserts = store.stats().inserts;
        if (bytes < last_bytes || inserts < last_inserts) {
          failures.fetch_add(1);
        }
        if (bytes < 0) failures.fetch_add(1);
        last_bytes = bytes;
        last_inserts = inserts;
      }
    });
  }
  started.fetch_add(1);
  while (started.load() < kReaders + 1) {
  }
  for (int64_t i = 0; i < kInserts; ++i) {
    // Distinct offsets (distinct signatures), each with a nonempty ground
    // set around its own offset: every insert lands, none is subsumed.
    auto outcome = store.Insert(Banded(100003, i, i, i + 5, i % 5));
    if (!outcome.ok() || !outcome->inserted) failures.fetch_add(1);
  }
  done.store(true, std::memory_order_release);
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(store.size(), static_cast<size_t>(kInserts));
  EXPECT_GT(store.approx_bytes(), 0);
  EXPECT_EQ(store.stats().inserts, int64_t{kInserts});
}

// --- Tombstones (incremental retraction, DESIGN.md §13) -------------------

// Tombstoning removes an entry from every probe path without renumbering:
// the slot and id stay, live accounting and consistency hold, and the dead
// entry no longer absorbs a duplicate insert.
TEST(TupleStoreTest, TombstoneRemovesEntryFromProbePathsButKeepsIds) {
  TupleStore store({1, 1});
  for (int64_t offset = 0; offset < 4; ++offset) {
    ASSERT_TRUE(store.Insert(Banded(9, offset, 0, 30, offset % 2))->inserted);
  }
  ASSERT_EQ(store.size(), 4u);
  EXPECT_FALSE(store.has_tombstones());

  store.Tombstone(1);
  EXPECT_TRUE(store.has_tombstones());
  EXPECT_EQ(store.size(), 4u);        // ids are stable...
  EXPECT_EQ(store.live_size(), 3u);   // ...but entry 1 no longer counts
  EXPECT_FALSE(store.is_live(1));
  EXPECT_TRUE(store.is_live(0));
  EXPECT_TRUE(store.CheckConsistency().ok());
  store.Tombstone(1);  // idempotent
  EXPECT_EQ(store.live_size(), 3u);

  // The dead entry is out of the subsumption path: re-inserting the exact
  // tuple lands as a fresh entry at the next id instead of being absorbed.
  auto outcome = store.Insert(Banded(9, 1, 0, 30, 1));
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome->inserted);
  EXPECT_EQ(store.size(), 5u);
  EXPECT_EQ(store.live_size(), 4u);
  EXPECT_TRUE(store.CheckConsistency().ok());
}

// CompactTombstones releases dead payloads in place: every live entry keeps
// its id and its tuple bit-for-bit, dead entries stay dead, and later
// inserts still append at size(). This is the regression test for the
// compaction story under active provenance (recorded entry ids must stay
// valid addresses across compaction).
TEST(TupleStoreTest, CompactTombstonesKeepsStableEntryIds) {
  TupleStore store({1, 1});
  for (int64_t offset = 0; offset < 5; ++offset) {
    ASSERT_TRUE(store.Insert(Banded(8, offset, 0, 40, offset))->inserted);
  }
  store.Tombstone(1);
  store.Tombstone(3);
  std::vector<std::string> live_before;
  for (EntryId id = 0; id < store.size(); ++id) {
    live_before.push_back(store.is_live(id) ? store.tuple(id).ToString()
                                            : "<dead>");
  }

  EXPECT_EQ(store.CompactTombstones(), 2u);
  ASSERT_EQ(store.size(), 5u);
  EXPECT_EQ(store.live_size(), 3u);
  for (EntryId id = 0; id < store.size(); ++id) {
    EXPECT_EQ(store.is_live(id), id != 1 && id != 3);
    if (store.is_live(id)) {
      EXPECT_EQ(store.tuple(id).ToString(), live_before[id]) << "id " << id;
    }
  }
  EXPECT_TRUE(store.CheckConsistency().ok());
  // Already-compacted entries are not reclaimed twice.
  EXPECT_EQ(store.CompactTombstones(), 0u);

  // Ids keep advancing densely after compaction.
  ASSERT_TRUE(store.Insert(Banded(8, 6, 0, 40, 6))->inserted);
  EXPECT_EQ(store.size(), 6u);
  EXPECT_TRUE(store.is_live(5));
  EXPECT_TRUE(store.CheckConsistency().ok());
}

// The lrp mirror is checked like the data mirrors: a live slot that
// disagrees with its entry is reported.
TEST(TupleStoreTest, CheckConsistencyReportsACorruptLrpMirror) {
  TupleStore store({1, 1});
  for (int64_t offset = 0; offset < 3; ++offset) {
    ASSERT_TRUE(store.Insert(Banded(8, offset, 0, 40, offset))->inserted);
  }
  ASSERT_TRUE(store.CheckConsistency().ok());
  EXPECT_EQ(store.lrp_column(0)[1], Lrp(8, 1));
  TupleStoreTestPeer::SetLrpMirror(store, 0, 1, Lrp(8, 5));
  Status status = store.CheckConsistency();
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("lrp column mirror value mismatch"),
            std::string::npos)
      << status.ToString();
}

// Compaction releases a dead entry's mirror slots: the data slot reads 0
// and the lrp slot the reset Lrp(), while live slots keep their values; a
// compacted slot that still holds a value is reported.
TEST(TupleStoreTest, CompactTombstonesResetsTheMirrorSlots) {
  TupleStore store({1, 1});
  for (int64_t offset = 0; offset < 3; ++offset) {
    ASSERT_TRUE(store.Insert(Banded(8, offset, 0, 40, offset + 1))->inserted);
  }
  store.Tombstone(1);
  // Tombstoned but not yet compacted: the slots still hold the payload.
  EXPECT_EQ(store.lrp_column(0)[1], Lrp(8, 1));
  EXPECT_EQ(store.data_column(0)[1], 2);
  ASSERT_EQ(store.CompactTombstones(), 1u);
  EXPECT_EQ(store.lrp_column(0)[1], Lrp());
  EXPECT_EQ(store.data_column(0)[1], 0);
  for (EntryId id : {0u, 2u}) {
    EXPECT_EQ(store.lrp_column(0)[id], Lrp(8, id));
    EXPECT_EQ(store.data_column(0)[id], static_cast<DataValue>(id + 1));
  }
  EXPECT_TRUE(store.CheckConsistency().ok());
  TupleStoreTestPeer::SetLrpMirror(store, 0, 1, Lrp(8, 1));
  Status status = store.CheckConsistency();
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("compacted lrp column mirror slot"),
            std::string::npos)
      << status.ToString();
}

// Tombstones interact cleanly with the delta-generation protocol: a dead
// entry inside the current delta window stays addressable (the window is a
// range of ids, not of live entries) and live accounting is unaffected by
// generation advances.
TEST(TupleStoreTest, TombstoneInsideDeltaWindowKeepsRangeAddressing) {
  TupleStore store({1, 1});
  ASSERT_TRUE(store.Insert(Banded(5, 0, 0, 20, 0))->inserted);
  ASSERT_TRUE(store.Insert(Banded(5, 1, 0, 20, 1))->inserted);
  ASSERT_TRUE(store.Insert(Banded(5, 2, 0, 20, 2))->inserted);
  store.AdvanceGeneration();  // Delta = {0, 1, 2}.
  ASSERT_EQ(store.delta_lo(), 0u);
  ASSERT_EQ(store.delta_hi(), 3u);

  store.Tombstone(1);
  EXPECT_EQ(store.delta_lo(), 0u);  // the window is untouched...
  EXPECT_EQ(store.delta_hi(), 3u);
  EXPECT_EQ(store.live_size(), 2u);
  store.AdvanceGeneration();
  EXPECT_EQ(store.delta_size(), 0u);
  EXPECT_EQ(store.live_size(), 2u);  // ...and advancing changes no liveness
  EXPECT_TRUE(store.CheckConsistency().ok());
}

}  // namespace
}  // namespace lrpdb
