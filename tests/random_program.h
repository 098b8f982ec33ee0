// The random-program generator shared by the differential suites:
// batch_kernel_test (ground oracle), provenance_test (origin replay),
// incremental_test (add/retract gauntlet) and storage_property_test
// (snapshot and WAL round trips). One generator, so a shape added for one
// oracle reaches all four.
//
// Programs run over a periodic EDB with data columns and are built to hit
// every compiled-plan shape: constant-pinned columns (compile-time posting
// resolution, possibly absent values), data variables shared across atoms
// (per-binding bound probes), repeated data variables within one atom
// (intra equalities), temporal variables bound by an earlier atom (the
// lrp residue mask), a temporal variable repeated over columns a tuple
// constraint keeps apart (the alias check), clause constraint atoms,
// multi-atom joins, recursion (delta pivots and shard splits), and
// stratified negation. They also carry the goal shapes of goal-directed
// re-derivation (ResumeSeed in src/core/evaluator.h): w's two head data
// columns are bound by different body atoms (restricted), while k's
// constant head column and z's data-arity-0 head leave nothing to bind
// (unrestricted).
//
// Every EDB relation is P-periodic in both directions, so the model is
// too, and every head offset and body lookahead is at most 7.
#ifndef LRPDB_TESTS_RANDOM_PROGRAM_H_
#define LRPDB_TESTS_RANDOM_PROGRAM_H_

#include <cstdint>
#include <numeric>
#include <random>
#include <string>

namespace lrpdb {

struct RandomProgramOptions {
  // Rules may name data constants (a constant-pinned body atom, k's head).
  // Off for programs whose rules must survive re-interning: the parser
  // interns rule constants into the AST as DataValue ids, which WAL
  // re-ingestion (constants re-interned by name) does not preserve.
  bool rule_constants = true;
  // One program in `negation_one_in` gains a stratified negated rule;
  // 0 never adds one.
  int negation_one_in = 3;
};

// A generated program plus what a ground-oracle comparison needs to know.
struct RandomProgram {
  std::string text;
  int64_t period = 0;
  // Upper bound on how far below an IDB fact's time its shortest
  // derivation reaches.
  int64_t reach = 0;
};

// How far below its head a shortest derivation through the recursive rule
// `x(t + s) :- x(t), ...` can reach when every condition is P-periodic: the
// chain has fewer than P / gcd(s, P) links, since dropping a full cycle of
// links leaves a valid chain whose base lies in the same residue class.
inline int64_t ChainReach(int64_t step, int64_t period) {
  return period / std::gcd(step, period) * step;
}

inline RandomProgram GenerateRandomProgram(
    std::mt19937& rng, const RandomProgramOptions& options = {}) {
  std::uniform_int_distribution<int> small(0, 6);
  std::uniform_int_distribution<int> step(1, 12);
  const int period = 24 + 12 * static_cast<int>(rng() % 3);
  const std::string p_n = std::to_string(period) + "n+";
  const char* values[] = {"\"a\"", "\"b\"", "\"c\""};
  auto shift = [&]() { return std::to_string(small(rng)); };
  RandomProgram out;
  out.period = period;
  std::string& s = out.text;
  s = R"(
    .decl e(time, data)
    .decl f(time, data)
    .decl p(time, data)
    .decl q(time, data)
    .decl w(time, data, data)
    .decl z(time)
  )";
  const int num_facts = 2 + static_cast<int>(rng() % 3);
  for (int i = 0; i < num_facts; ++i) {
    s += ".fact e(" + p_n + shift() + ", " + values[rng() % 3] + ").\n";
  }
  s += ".fact f(" + p_n + shift() + ", " + values[rng() % 3] + ").\n";
  const int p_step = step(rng);
  s += "p(t + " + shift() + ", N) :- e(t, N).\n";
  s += "p(t, N) :- f(t, N).\n";
  s += "p(t + " + std::to_string(p_step) + ", N) :- p(t, N).\n";
  const int64_t p_reach = 6 + ChainReach(p_step, period);
  // q's non-recursive rules read p at most 6 below their head.
  int64_t q_reach = 6 + p_reach;
  // Join with a shared data variable: the second atom probes N's posting
  // and masks t's residue.
  s += "q(t + " + shift() + ", N) :- p(t, N), e(t + " + shift() + ", N).\n";
  if (options.rule_constants && rng() % 2 == 0) {
    // Constant-pinned atom plus an unconstrained one.
    s += "q(t + " + shift() + ", M) :- p(t, " + values[rng() % 3] +
         "), e(t + " + shift() + ", M).\n";
  }
  if (rng() % 2 == 0) {
    // Three-way join, two recursive atoms. The recursive atoms come first:
    // whichever of them is the semi-naive pivot, a nested-loop ground
    // oracle then starts from one full relation and one delta.
    const int q_step = step(rng);
    s += "q(t + " + std::to_string(q_step) + ", N) :- q(t, N), p(t + " +
         shift() + ", N), e(t, N).\n";
    q_reach += ChainReach(q_step, period);
  }
  // Goal shapes: two head data columns bound by different atoms, and a
  // data-arity-0 head.
  s += "w(t, X, Y) :- e(t, X), p(t + " + shift() + ", Y).\n";
  s += "z(t + " + shift() + ") :- p(t, N).\n";
  if (options.rule_constants) {
    // A constant head column.
    s = ".decl k(time, data)\n" + s;
    s += "k(t + " + shift() + ", " + values[rng() % 3] + ") :- q(t, N).\n";
  }
  if (rng() % 2 == 0) {
    // Repeated data variable within one atom (intra-column equality).
    s = ".decl d2(time, data, data)\n" + s;
    s += ".fact d2(" + p_n + shift() + ", \"a\", \"a\").\n";
    s += ".fact d2(" + p_n + shift() + ", \"a\", \"b\").\n";
    s += "q(t, N) :- d2(t, N, N).\n";
  }
  if (rng() % 2 == 0) {
    // Clause constraint atoms relating two body variables: one tied to the
    // head variable, and one between variables the head never sees (in
    // the ground kernel only the per-atom bound checks can reject those).
    s = ".decl soon(time, data)\n.decl close(data)\n.decl near(time, data)\n" +
        s;
    s += "soon(t, N) :- p(t, N), e(u, N), t < u, u <= t + " +
         std::to_string(1 + small(rng)) + ".\n";
    s += "close(N) :- e(u, N), e(v, N), u < v, v <= u + " +
         std::to_string(1 + small(rng)) + ".\n";
    s += "near(t, N) :- p(t, N), close(N).\n";
  }
  if (rng() % 2 == 0) {
    // One temporal variable over both columns of an interval relation:
    // the first fact's columns share a residue but sit a period apart, so
    // only the second fact has diagonal points.
    s = ".decl iv(time, time)\n.decl diag(time)\n" + s;
    const std::string x = p_n + shift();
    const std::string y = p_n + std::to_string(7 + small(rng));
    s += ".fact iv(" + x + ", " + x + ") with T2 = T1 + " +
         std::to_string(period) + ".\n";
    s += ".fact iv(" + y + ", " + y + ") with T2 = T1.\n";
    s += "diag(t) :- iv(t, t).\n";
  }
  if (options.negation_one_in > 0 &&
      rng() % static_cast<unsigned>(options.negation_one_in) == 0) {
    // Stratified negation: the negated atom reads q's complement.
    s = ".decl r(time, data)\n" + s;
    s += "r(t, N) :- p(t, N), !q(t, N).\n";
  }
  // k reads q at most 6 below its head; the margin covers it.
  out.reach = q_reach + 16;
  return out;
}

}  // namespace lrpdb

#endif  // LRPDB_TESTS_RANDOM_PROGRAM_H_
