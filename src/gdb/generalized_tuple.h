// Ground generalized tuples (paper, Section 2.1).
//
// A ground generalized tuple of temporal arity m and data arity l,
//
//   (a1*n1 + b1, ..., am*nm + bm, d1, ..., dl)  with constraints(T1..Tm),
//
// finitely represents the possibly infinite set of ground tuples
// { (t1..tm, d1..dl) : ti in {ai*ni + bi} and constraints(t1..tm) }.
// The constraints are a conjunction of difference bounds held as a Dbm.
#ifndef LRPDB_GDB_GENERALIZED_TUPLE_H_
#define LRPDB_GDB_GENERALIZED_TUPLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/statusor.h"
#include "src/constraints/dbm.h"
#include "src/gdb/schema.h"
#include "src/lrp/lrp.h"

namespace lrpdb {

// The "free extension" of a generalized tuple: its lrp vector and data
// constants with the constraints dropped (paper, Section 4.3). Used as the
// signature for free-extension safety detection.
struct FreeExtension {
  std::vector<Lrp> lrps;
  std::vector<DataValue> data;

  friend bool operator==(const FreeExtension& a, const FreeExtension& b) {
    return a.lrps == b.lrps && a.data == b.data;
  }
};

// A non-owning view of a tuple's free extension: probes a FreeExtension-
// keyed hash map without copying the lrp and data vectors (the
// transparent-hash lookup the interner uses for names).
struct FreeExtensionView {
  const std::vector<Lrp>& lrps;
  const std::vector<DataValue>& data;
};

// Transparent hash and equality over FreeExtension and FreeExtensionView:
// a view hashes and compares exactly like the extension it mirrors.
struct FreeExtensionHash {
  using is_transparent = void;
  size_t operator()(const FreeExtension& fe) const {
    return Hash(fe.lrps, fe.data);
  }
  size_t operator()(const FreeExtensionView& fe) const {
    return Hash(fe.lrps, fe.data);
  }

 private:
  static size_t Hash(const std::vector<Lrp>& lrps,
                     const std::vector<DataValue>& data) {
    size_t h = 0;
    for (const Lrp& l : lrps) {
      h = HashCombine(h, static_cast<size_t>(l.period()));
      h = HashCombine(h, static_cast<size_t>(l.offset()));
    }
    for (DataValue d : data) h = HashCombine(h, static_cast<size_t>(d));
    return h;
  }
};

struct FreeExtensionEq {
  using is_transparent = void;
  bool operator()(const FreeExtension& a, const FreeExtension& b) const {
    return a == b;
  }
  bool operator()(const FreeExtensionView& a, const FreeExtension& b) const {
    return a.lrps == b.lrps && a.data == b.data;
  }
  bool operator()(const FreeExtension& a, const FreeExtensionView& b) const {
    return (*this)(b, a);
  }
};

class GeneralizedTuple {
 public:
  // `constraint` must range over exactly lrps.size() temporal variables
  // (T1..Tm; the Dbm's zero variable carries absolute bounds).
  GeneralizedTuple(std::vector<Lrp> lrps, std::vector<DataValue> data,
                   Dbm constraint);

  // A tuple with no constraints (the free extension as a tuple).
  static GeneralizedTuple Unconstrained(std::vector<Lrp> lrps,
                                        std::vector<DataValue> data);

  int temporal_arity() const { return static_cast<int>(lrps_.size()); }
  int data_arity() const { return static_cast<int>(data_.size()); }

  const std::vector<Lrp>& lrps() const { return lrps_; }
  const Lrp& lrp(int i) const { return lrps_[i]; }
  const std::vector<DataValue>& data() const { return data_; }
  const Dbm& constraint() const { return constraint_; }
  Dbm& mutable_constraint() { return constraint_; }

  FreeExtension free_extension() const { return {lrps_, data_}; }
  // The same key without the copies, for hash-map probes.
  FreeExtensionView free_extension_view() const { return {lrps_, data_}; }

  // True iff the represented ground set contains (times, data). `times` uses
  // the same column order as lrps().
  bool ContainsGround(const std::vector<int64_t>& times,
                      const std::vector<DataValue>& data) const;

  // True iff the DBM is satisfiable ignoring lrp residues. A cheap
  // necessary condition for non-emptiness; the exact residue-aware test
  // lives in NormalizedTuple (normalized_tuple.h).
  bool ConstraintSatisfiable() const { return constraint_.IsSatisfiable(); }

  // The tuple with column `i`'s ground values translated by c, i.e. the
  // result of applying +1/-1 c times to that column (Section 4.3: "applying
  // the operation +1 ... to a generalized relation is straightforward").
  GeneralizedTuple WithColumnShifted(int i, int64_t c) const;

  // e.g. "(168n+8, 168n+10, database) with T2 = T1+2".
  std::string ToString(const Interner* interner = nullptr) const;

  // Approximate resident size of this tuple (lrps + data + DBM matrix),
  // used for ExecContext byte-budget accounting. An estimate, not
  // sizeof-exact: governance needs proportionality, not precision.
  int64_t ApproxBytes() const;

 private:
  std::vector<Lrp> lrps_;
  std::vector<DataValue> data_;
  Dbm constraint_;
};

}  // namespace lrpdb

#endif  // LRPDB_GDB_GENERALIZED_TUPLE_H_
