// Compiled clause plans and the fused batch select/join/project kernel
// (DESIGN.md §9) — the generalized evaluator's only join path.
//
// A ClausePlan compiles a clause's join structure once: for each body atom,
// in body order, which data columns are pinned by constants, which carry
// variables bound by earlier atoms (index probes), which bind new
// variables, which repeat a variable within the atom, and which temporal
// columns carry a variable bound earlier (the residue mask).
// ApplyClauseBatch then streams candidates from the store's posting lists
// through one fused select/shift/join/project loop over TupleBlocks
// (src/gdb/batch.h) instead of materializing per-operator relations.
//
// Determinism (DESIGN.md §8): the kernel extends its frontier breadth-first
// in body order, and every per-binding scan (posting list, goal list, or
// entry range) yields ascending entry ids, so bindings — and the candidates
// projected from them — come out in lexicographic order of their body-order
// entry-id vectors. Atom-0 sharding splits atom 0's range into contiguous
// pieces, so concatenating shard outputs in shard order reproduces the
// unsharded sequence. The emitted tuples are canonical: the binding's final
// DBM is closed by the last satisfiability check, lrp intersection is
// order-independent in canonical form, and data values come straight from
// the matched entries.
//
// The windowed ground evaluator reuses the same compiled atoms (the
// descriptors are store-agnostic column/variable indices) plus a ground
// head plan that hoists the per-binding DBM closure and head-variable
// pinning analysis out of the per-fact loop.
#ifndef LRPDB_CORE_CLAUSE_PLAN_H_
#define LRPDB_CORE_CLAUSE_PLAN_H_

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "src/common/statusor.h"
#include "src/constraints/dbm.h"
#include "src/core/normalizer.h"
#include "src/gdb/generalized_relation.h"
#include "src/gdb/tuple_store.h"

namespace lrpdb {

// Relation sources for one body atom during a round: the relation plus the
// store generation the join reads (kDelta for the semi-naive pivot).
struct AtomSource {
  const GeneralizedRelation* relation = nullptr;
  TupleStore::Generation generation = TupleStore::Generation::kAll;
  // Optional entry-id sub-range restriction, honored for body atom 0 only:
  // the parallel evaluator shards a clause application by splitting atom
  // 0's enumeration range into contiguous pieces (DESIGN.md §8). Already
  // clipped to the generation's range when set.
  bool has_range = false;
  size_t range_lo = 0;
  size_t range_hi = 0;
  // Optional goal restriction (goal-directed re-derivation, ResumeSeed in
  // src/core/evaluator.h): ascending live entry ids; the atom enumerates
  // only these, still clipped to its range. Not owned.
  const std::vector<EntryId>* goal = nullptr;
};

// One body atom's compiled probe/unify recipe. All members are indices
// into the atom's columns and the clause's dense variable spaces, so the
// same descriptors drive both the generalized batch kernel and the ground
// kernel.
struct CompiledAtom {
  // Position in clause.body (and in the AtomSource vector).
  int body_index = 0;

  // Data columns pinned by constants in the atom itself. These postings
  // resolve once per kernel invocation, not once per binding.
  std::vector<TupleStore::DataRequirement> const_requirements;

  struct VarColumn {
    int column = 0;
    int variable = 0;
  };
  // Data columns carrying a variable bound by an earlier atom: per-binding
  // index probes.
  std::vector<VarColumn> bound_probes;
  // Data columns whose variable first occurs here: extending a binding
  // copies the matched entry's value into the variable slot.
  std::vector<VarColumn> binding_columns;
  // Column pairs that repeat one variable first bound within this atom.
  std::vector<std::pair<int, int>> intra_equalities;

  // Temporal descriptors (column value == variable + offset).
  struct TemporalColumn {
    int column = 0;
    int variable = 0;
    int64_t offset = 0;
  };
  // Columns whose variable an earlier atom bound: value checks in the
  // ground kernel, the lrp residue mask in the generalized kernel.
  std::vector<TemporalColumn> temporal_checks;
  // Ground kernel only: first occurrences.
  std::vector<TemporalColumn> temporal_binds;
  // Intra-atom repeats: times[column_a] - offset_a == times[column_b] -
  // offset_b.
  struct TemporalIntra {
    int column_a = 0;
    int64_t offset_a = 0;
    int column_b = 0;
    int64_t offset_b = 0;
  };
  std::vector<TemporalIntra> temporal_intra;

  // Finite raw clause-constraint bounds x_i - x_j <= c (DBM indices; 0 is
  // the zero variable) whose endpoints both become bound exactly at this
  // atom: the ground kernel checks each bound once instead of rescanning
  // the whole DBM per extension.
  struct BoundCheck {
    int i = 0;
    int j = 0;
    int64_t c = 0;
  };
  std::vector<BoundCheck> new_bounds;
};

// A compiled clause: one compiled atom per body atom, in body order.
struct ClausePlan {
  std::vector<CompiledAtom> atoms;
};

// Compiles `clause` once, in body order.
ClausePlan CompileClausePlan(const NormalizedClause& clause);

// Compile-once cache, one slot per clause index. Accessed only from the
// sequential task-building phase of a round (workers receive const
// pointers), so it needs no locking.
class ClausePlanCache {
 public:
  explicit ClausePlanCache(size_t num_clauses) : plans_(num_clauses) {}

  const ClausePlan& Get(size_t clause_index, const NormalizedClause& clause);

 private:
  std::vector<std::optional<ClausePlan>> plans_;
};

// Applies `clause` over the given per-atom relations through the fused
// batch kernel, collecting candidate head tuples in the order the
// determinism note above describes; `stats`, when non-null, receives the
// probe counters. `parent_ids`, when non-null, captures why-provenance: one
// vector per emitted candidate holding the positive body atoms' matched
// entry ids in body order.
[[nodiscard]] Status ApplyClauseBatch(
    const NormalizedClause& clause, const ClausePlan& plan,
    const std::vector<AtomSource>& sources, const NormalizeLimits& limits,
    StoreStats* stats, std::vector<GeneralizedTuple>* candidates,
    std::vector<std::vector<EntryId>>* parent_ids = nullptr);

// --- Ground-kernel compilation (shared with src/core/ground_evaluator.cc) ---

// Once-per-clause analysis of the ground evaluator's head stage: the
// closed clause DBM is computed one time, every head variable's derivation
// (base variable + offset read off tight closure equalities) is resolved
// statically, and only the raw bounds that become checkable at the head
// stage are rechecked per binding.
struct GroundHeadPlan {
  // Derivation for one head variable: value = base + offset, where base is
  // DBM index 0 (the constant zero) or a variable assigned earlier.
  struct Derivation {
    int variable = 0;  // Clause temporal variable to assign.
    int base = 0;      // DBM index: 0, or var + 1.
    int64_t offset = 0;
  };
  std::vector<Derivation> derivations;  // In head_temporal_vars order.
  // False when some head variable cannot be pinned statically; the kernel
  // reports UnimplementedError for any surviving binding.
  bool all_pinned = true;
  // Raw finite bounds involving at least one head variable, checkable only
  // after the derivations ran.
  std::vector<CompiledAtom::BoundCheck> head_bounds;
};

// A clause compiled for the windowed ground kernel: body-order compiled
// atoms, negation filter descriptors, and the hoisted head plan.
struct GroundClausePlan {
  ClausePlan join;  // Negated atoms compile to empty descriptor sets.
  // One filter per negated body atom: how to assemble the probe fact from
  // a binding. Variables are guaranteed bound when `vars_bound`; otherwise
  // the kernel reports InvalidArgumentError for any surviving binding.
  struct NegatedProbe {
    int body_index = 0;
    bool vars_bound = true;
    std::vector<CompiledAtom::TemporalColumn> times;  // value = var + offset.
    std::vector<NormalizedDataArg> data;
  };
  std::vector<NegatedProbe> negated;
  GroundHeadPlan head;
  // Temporal variables bound by the positive body atoms (dense flags); the
  // head stage treats these plus solved head variables as assigned.
  std::vector<bool> body_bound_temporal;
  std::vector<bool> body_bound_data;
};

GroundClausePlan CompileGroundClausePlan(const NormalizedClause& clause);

}  // namespace lrpdb

#endif  // LRPDB_CORE_CLAUSE_PLAN_H_
