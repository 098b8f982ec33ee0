// Seeded input generators for the three lrpbench workloads (README.md).
//
// A workload is a program (declarations + rules), its base EDB, a stream
// of live update batches, and a pool of query atoms. Everything is a pure
// function of (workload name, seed): the same seed gives the same inputs.
// Sizes are fixed per workload; the seed varies only the contents, so the
// amount of work a run does stays close from seed to seed.
#ifndef LRPBENCH_WORKLOADS_H_
#define LRPBENCH_WORKLOADS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/constraints/dbm.h"
#include "src/lrp/lrp.h"

namespace lrpbench {

// One generalized fact: a relation, an lrp per temporal column, data
// constants by name, and the difference bounds of its `with` clause.
struct Fact {
  std::string relation;
  std::vector<lrpdb::Lrp> lrps;
  std::vector<std::string> data;
  std::optional<int64_t> t1_lo;        // T1 >= t1_lo
  std::optional<int64_t> t1_hi;        // T1 <= t1_hi
  std::optional<int64_t> t2_minus_t1;  // T2 = T1 + t2_minus_t1

  // The `.fact` line the parser reads, newline-terminated.
  std::string Text() const;
  // The same constraint as a DBM over the temporal columns.
  lrpdb::Dbm Constraint() const;
};

// A query atom: a fixed value or a variable (nullopt) in each column.
struct QuerySpec {
  std::string relation;
  std::vector<std::optional<int64_t>> times;
  std::vector<std::optional<std::string>> data;
};

struct Workload {
  std::string name;
  uint64_t seed = 0;
  // Worker threads passed to EvaluationOptions::num_threads.
  int threads = 1;
  // `.decl` lines and rules; the base facts go between them in the text
  // form (Source()).
  std::string decls;
  std::string rules;
  std::vector<Fact> base;
  // The live loop maintains the first `live_base` base facts (all of them
  // when 0): a DRed retraction costs about one full fixpoint of the
  // maintained model, and the loop must fit in the run.
  size_t live_base = 0;
  // Live loop shape: facts per durable add, batches kept outstanding
  // before the oldest is retracted, ticks between checkpoints.
  int add_batch = 16;
  int outstanding = 8;
  int checkpoint_every = 16;
  // The amount of work is fixed by --seconds, not by the clock: a run does
  // seconds * solve_share / solve_seconds solves (each with
  // `queries_per_solve` reads of its closed form) and
  // seconds * (1 - solve_share) / tick_seconds live ticks. solve_seconds
  // and tick_seconds are nominal costs on a 4-vCPU x86-64 VM, so a run
  // lasts about --seconds there and the same work anywhere else.
  int queries_per_solve = 0;
  double solve_share = 0.5;
  double solve_seconds = 1;
  double tick_seconds = 1;
  std::vector<QuerySpec> queries;
  // Ground window [lo, hi) the correctness oracles compare over.
  int64_t window_lo = 0;
  int64_t window_hi = 0;
  // More windows the live check compares the maintained model over, so it
  // sees what the live batches added and retracted: one inside each live
  // batch slot when the slots lie outside [window_lo, window_hi).
  std::vector<std::pair<int64_t, int64_t>> live_windows;

  // The base facts the live loop starts from.
  std::vector<Fact> LiveBase() const {
    return live_base == 0 || live_base >= base.size()
               ? base
               : std::vector<Fact>(base.begin(), base.begin() + live_base);
  }
  // Full program text: decls, one `.fact` line per base fact, rules.
  std::string Source() const;
  // Rules-only text (decls + rules) parsed over a recovered database.
  std::string RulesSource() const { return decls + rules; }
  // The facts of live batch `index` (0-based). Batches never overlap each
  // other or the base facts, so a retraction removes exactly what its add
  // inserted.
  std::vector<Fact> LiveBatch(int64_t index) const;
  // A ground query on the derived relation whose answer is non-empty while
  // live fact `f` is stored and empty once it is retracted: no other stored
  // fact derives it. `k` (any value) picks one of f's ground points.
  QuerySpec Probe(const Fact& f, int64_t k) const;
};

// The workload names, in the order README.md lists them.
const std::vector<std::string>& WorkloadNames();

// Builds `name` from `seed`; nullopt for an unknown name.
std::optional<Workload> MakeWorkload(const std::string& name, uint64_t seed);

}  // namespace lrpbench

#endif  // LRPBENCH_WORKLOADS_H_
