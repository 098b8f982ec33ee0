// Why-provenance for derived tuples (DESIGN.md §10, ROADMAP item 4).
//
// A generalized tuple can stand for infinitely many ground facts, which
// makes "why is this in the model?" the question a served system must
// answer to be debugged or trusted. This log records, for every tuple the
// evaluator keeps, a compact derivation origin: the normalized clause that
// produced it, the entry ids of the body tuples the clause joined (its
// parents), and the round it happened in. On top of the log, WhyProvenance
// reconstructs the full derivation graph of one tuple back to the EDB
// leaves (cycle-safe for recursive rules), and the render helpers turn that
// graph into an indented EXPLAIN WHY tree or a Graphviz DOT file.
//
// Addressing. Tuples are addressed as (relation, entry id): relations are
// interned by name into dense ProvRelationIds, entries are the stable
// append-only indices of TupleStore / GroundFactStore. Both engines feed
// the same log type — the generalized evaluator records TupleStore
// EntryIds, the windowed ground evaluator records GroundFactStore fact
// indices — so one query/render surface serves both.
//
// Subsumption semantics. The store's exact insert can absorb a candidate
// into same-signature entries that already contain it. The absorbed
// candidate still carries real derivation information, so its origin is
// attached to every absorbing entry (InsertOutcome::absorbers): exactly the
// entries owning the residue pieces that each contain one of the
// candidate's pieces, or the whole signature bucket when only a union of
// pieces covers it. The evaluator's candidates are single residue pieces
// (the kernel emits one per piece), so on the single-piece path the origin
// lands on one entry and re-derives a subset of it. A candidate that only
// several entries cover together — a union-covered one, or a multi-piece
// candidate whose pieces sit in different entries — has its origin on each
// of them, and no single one contains what it re-derives. Every stored
// entry keeps its own exact insertion origin, so the union of an entry's
// origins re-derives a superset of it whichever way absorbers are drawn;
// narrower absorbers only narrow DRed's over-deletion
// (src/core/incremental.h). Inserts never remove entries, so
// recorded (relation, entry) addresses stay resolvable for the lifetime of
// the store. The one incompatibility is result compaction, which rebuilds
// relations and renumbers entries: the evaluator skips compaction while
// recording (the model is unchanged, just reported in uncompacted closed
// form).
//
// Threading contract: Record() is called only from the evaluator's
// sequential insert phase (the parallel apply workers capture parent ids
// into per-task buffers; the merge is single-threaded), so the log needs no
// locking. Queries (Origins / WhyProvenance) are const and may run
// concurrently with each other, but not with Record().
//
// Cost model. Recording is opt-in (EvaluationOptions::provenance /
// GroundEvaluationOptions::provenance, both nullptr by default) and the
// call sites compile out entirely under -DLRPDB_NO_PROVENANCE, the same
// escape hatch the metrics layer has: EffectiveProvenance() constant-folds
// to nullptr and the capture code behind it is dead. Recording charges the
// ambient ExecContext byte budget and bumps eval.prov.{records,bytes};
// lookups bump eval.prov.lookups.
#ifndef LRPDB_CORE_PROVENANCE_H_
#define LRPDB_CORE_PROVENANCE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/statusor.h"
#include "src/gdb/tuple_store.h"

namespace lrpdb {

// True when this translation unit was compiled with provenance support.
// Builds configured with -DLRPDB_NO_PROVENANCE=ON flip this to false and
// every recording site in the engine folds away.
#if !defined(LRPDB_NO_PROVENANCE)
inline constexpr bool kProvenanceCompiledIn = true;
#else
inline constexpr bool kProvenanceCompiledIn = false;
#endif

class ProvenanceLog;

// The evaluator's single gate on recording: returns `log` in provenance
// builds and a constant nullptr under LRPDB_NO_PROVENANCE, so every branch
// `if (prov != nullptr)` downstream is dead code the compiler removes —
// the provenance-off build pays nothing (tests/provenance_disabled_test.cc
// holds this to the same bar as LRPDB_NO_METRICS).
inline ProvenanceLog* EffectiveProvenance(ProvenanceLog* log) {
#if !defined(LRPDB_NO_PROVENANCE)
  return log;
#else
  (void)log;
  return nullptr;
#endif
}

// Dense id of an interned relation name within one ProvenanceLog.
using ProvRelationId = uint32_t;

// Address of one stored tuple: an interned relation plus its stable entry
// id (TupleStore EntryId or GroundFactStore fact index).
struct ProvRef {
  ProvRelationId relation = 0;
  EntryId entry = 0;

  friend bool operator==(ProvRef a, ProvRef b) {
    return a.relation == b.relation && a.entry == b.entry;
  }
  friend bool operator!=(ProvRef a, ProvRef b) { return !(a == b); }
  friend bool operator<(ProvRef a, ProvRef b) {
    if (a.relation != b.relation) return a.relation < b.relation;
    return a.entry < b.entry;
  }
};

// Rule id of a base (extensional) fact: no clause derived it. Entries with
// no recorded origins at all are EDB leaves; kProvBaseFact exists for
// callers that want to record explicit base origins (e.g. future
// incremental ingestion).
inline constexpr int32_t kProvBaseFact = -1;

// One way a tuple was derived: clause `rule` joined `parents` (the positive
// body atoms' matched entries, in body order; negated atoms are omitted —
// they match materialized complements whose entries are evaluation-local)
// during round `round`. An entry can accumulate several origins: one per
// candidate that inserted it or was absorbed into it.
struct DerivationOrigin {
  int32_t rule = kProvBaseFact;
  int32_t round = 0;
  std::vector<ProvRef> parents;

  friend bool operator==(const DerivationOrigin& a,
                         const DerivationOrigin& b) {
    return a.rule == b.rule && a.round == b.round && a.parents == b.parents;
  }
};

// Append-only per-evaluation derivation log plus the query surface over it.
class ProvenanceLog {
 public:
  ProvenanceLog() = default;
  ProvenanceLog(const ProvenanceLog&) = delete;
  ProvenanceLog& operator=(const ProvenanceLog&) = delete;
  ProvenanceLog(ProvenanceLog&&) = default;
  ProvenanceLog& operator=(ProvenanceLog&&) = default;

  // Interns `name`, returning its stable dense id (idempotent).
  ProvRelationId InternRelation(const std::string& name);
  // The id `name` was interned under, if any.
  std::optional<ProvRelationId> FindRelation(const std::string& name) const;
  const std::string& RelationName(ProvRelationId id) const {
    return relation_names_[id];
  }
  size_t num_relations() const { return relation_names_.size(); }

  // Appends one origin for `derived`. Charges the ambient
  // ExecContext::Current() byte budget (a governance trip unwinds as that
  // context's Status) and carries the "provenance.record" failpoint; on
  // error nothing was appended, so the log never holds a partial record.
  [[nodiscard]] Status Record(ProvRef derived, DerivationOrigin origin);

  // Every recorded origin of `ref` (empty for EDB leaves and unknown refs).
  const std::vector<DerivationOrigin>& Origins(ProvRef ref) const;
  bool HasOrigins(ProvRef ref) const { return !Origins(ref).empty(); }

  // --- Reverse index (incremental retraction, DESIGN.md §13) ---
  //
  // When dependent tracking is on, Record() also appends the derived ref to
  // the dependents list of every parent, so DRed-style retraction can walk
  // derivations forward (parents -> dependents) without scanning the log.
  // Must be enabled before the first Record(); the index only covers
  // records made while enabled.
  void set_track_dependents(bool track) { track_dependents_ = track; }
  bool track_dependents() const { return track_dependents_; }

  // Refs recorded with `ref` among their origin parents. May contain
  // duplicates (one edge per recorded origin) and refs later forgotten or
  // tombstoned; callers dedupe / filter by liveness.
  const std::vector<ProvRef>& Dependents(ProvRef ref) const;

  // Drops every recorded origin of `ref` (a retraction tombstoned its
  // entry). Reverse edges pointing at `ref` are left in place — consumers
  // filter dead targets — and the lifetime counters are not rewound.
  void Forget(ProvRef ref);

  // Lifetime accounting (mirrored in eval.prov.{records,bytes}).
  int64_t records() const { return records_; }
  int64_t approx_bytes() const { return approx_bytes_; }

  // --- Derivation-graph queries ---

  struct Node {
    ProvRef ref;
    std::vector<DerivationOrigin> origins;  // Empty = EDB leaf.
  };
  // The derivation graph reachable from one root: nodes in BFS discovery
  // order (nodes[0] is the root), edges implied by each node's origins.
  // `index` maps a ref to its node position.
  struct Graph {
    std::vector<Node> nodes;
    std::map<ProvRef, size_t> index;
  };

  // The full derivation graph of `root` back to the EDB leaves. Cycle-safe
  // for recursive rules (an absorbed self-derivation makes an entry its own
  // ancestor): every ref is expanded exactly once, so the traversal
  // terminates on any graph. Carries the "provenance.lookup" failpoint.
  [[nodiscard]] StatusOr<Graph> WhyProvenance(ProvRef root) const;

  // Callbacks rendering a tuple / rule into display text. The log knows
  // only addresses; the caller owns the stores and the rule table
  // (EvalProfile::rules[i].rule renders clause i).
  using TupleLabelFn =
      std::function<std::string(const std::string& relation, EntryId entry)>;
  using RuleLabelFn = std::function<std::string(int32_t rule)>;

  // Indented EXPLAIN WHY tree of `graph` from its root down to the EDB
  // leaves. Each ref's derivations are expanded at its first occurrence
  // only; later occurrences print a back-reference, which also caps the
  // output on cyclic graphs.
  std::string RenderTree(const Graph& graph, const TupleLabelFn& tuple_label,
                         const RuleLabelFn& rule_label) const;

  // Graphviz DOT rendering of `graph`: tuple nodes as boxes (EDB leaves
  // filled), one ellipse per derivation step, edges parents -> step ->
  // derived tuple, rankdir=BT so base facts sit at the bottom.
  std::string ToDot(const Graph& graph, const TupleLabelFn& tuple_label,
                    const RuleLabelFn& rule_label) const;

 private:
  std::vector<std::string> relation_names_;
  std::unordered_map<std::string, ProvRelationId> relation_ids_;
  // origins_[relation][entry] = that entry's recorded origins; the inner
  // vector is dense by entry id and grows on first record.
  std::vector<std::vector<std::vector<DerivationOrigin>>> origins_;
  // dependents_[relation][entry] = refs recorded with that entry as an
  // origin parent. Same shape as origins_; populated only while
  // track_dependents_ is set.
  std::vector<std::vector<std::vector<ProvRef>>> dependents_;
  bool track_dependents_ = false;
  int64_t records_ = 0;
  int64_t approx_bytes_ = 0;
};

}  // namespace lrpdb

#endif  // LRPDB_CORE_PROVENANCE_H_
