#include "src/gdb/batch.h"

#include <numeric>
#include <utility>

#include "src/common/exec_context.h"
#include "src/gdb/normalized_tuple.h"
#include "src/obs/metrics.h"

namespace lrpdb {

void BatchSelectDataEquals(const TupleBlock& block, int column,
                           DataValue value, SelectionMask* mask) {
  const std::vector<DataValue>& col = block.store().data_column(column);
  mask->KeepIf([&](size_t row) { return col[block.id(row)] == value; });
}

void BatchSelectDataColumnsEqual(const TupleBlock& block, int column_a,
                                 int column_b, SelectionMask* mask) {
  const std::vector<DataValue>& a = block.store().data_column(column_a);
  const std::vector<DataValue>& b = block.store().data_column(column_b);
  mask->KeepIf([&](size_t row) {
    EntryId id = block.id(row);
    return a[id] == b[id];
  });
}

void BatchSelectLrpCompatible(const TupleBlock& block, int column,
                              const Lrp& lrp, SelectionMask* mask) {
  const std::vector<Lrp>& col = block.store().lrp_column(column);
  const int64_t period = lrp.period();
  const int64_t offset = lrp.offset();
  mask->KeepIf([&](size_t row) {
    const Lrp& row_lrp = col[block.id(row)];
    // Canonical offsets lie in [0, period): equal periods need equal
    // offsets; otherwise the classes meet iff the offsets agree modulo
    // the gcd of the periods.
    if (row_lrp.period() == period) return row_lrp.offset() == offset;
    return (row_lrp.offset() - offset) % std::gcd(row_lrp.period(), period) ==
           0;
  });
}

void BatchConstraintConjoin(const TupleBlock& block, const Dbm& constraint,
                            SelectionMask* mask, std::vector<Dbm>* out) {
  if (out != nullptr) out->assign(block.rows(), Dbm(0));
  mask->KeepIf([&](size_t row) {
    Dbm conjoined = block.tuple(row).constraint();
    conjoined.And(constraint);
    if (!conjoined.IsSatisfiable()) return false;
    if (out != nullptr) (*out)[row] = std::move(conjoined);
    return true;
  });
}

void BatchShiftColumn(const TupleBlock& block, int column, int64_t c,
                      const SelectionMask& mask, std::vector<Lrp>* out) {
  out->assign(block.rows(), Lrp());
  const std::vector<Lrp>& col = block.store().lrp_column(column);
  mask.ForEachSet(
      [&](size_t row) { (*out)[row] = col[block.id(row)].Shifted(c); });
}

[[nodiscard]] Status BatchProject(const TupleBlock& block,
                                  const SelectionMask& mask,
                                  const std::vector<int>& temporal_columns,
                                  const std::vector<int>& data_columns,
                                  const NormalizeLimits& limits,
                                  GeneralizedRelation* out) {
  // ForEachSet's callback cannot return a Status; park the first failure
  // and skip the remaining rows.
  Status failed = OkStatus();
  mask.ForEachSet([&](size_t row) {
    if (!failed.ok()) return;
    failed = [&]() -> Status {
      LRPDB_RETURN_IF_ERROR(PollExec(limits.exec));
      const GeneralizedTuple& tuple = block.tuple(row);
      std::vector<DataValue> data;
      data.reserve(data_columns.size());
      for (int c : data_columns) data.push_back(tuple.data()[c]);
      // Residue-exact projection: normalize, project each piece, convert
      // back (a plain DBM projection would lose congruences of dropped
      // periodic columns).
      LRPDB_ASSIGN_OR_RETURN(std::vector<NormalizedTuple> pieces,
                             NormalizedTuple::Normalize(tuple, limits));
      for (const NormalizedTuple& piece : pieces) {
        GeneralizedTuple projected =
            piece.ProjectTemporal(temporal_columns).ToGeneralizedTuple();
        LRPDB_RETURN_IF_ERROR(
            out->InsertUnlessEmpty(
                   GeneralizedTuple(projected.lrps(), data,
                                    projected.constraint()),
                   limits)
                .status());
      }
      return OkStatus();
    }();
  });
  return failed;
}

}  // namespace lrpdb
