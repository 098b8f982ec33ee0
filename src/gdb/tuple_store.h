// Signature-indexed, delta-aware tuple storage.
//
// Theorem 4.2's termination argument is phrased in terms of *signatures*:
// the (data constants, lrp vector) key of a generalized tuple -- its free
// extension, with the lrp vector residue-normalized (Lrp canonicalizes to
// period > 0, offset in [0, period)). The store below organizes a
// generalized relation around exactly that key:
//
//  * Signature index. Tuples live in a dense append-only entry array; a
//    hash index maps each free extension to the list of entries carrying
//    it. InsertIfNew-style subsumption only ever compares a candidate
//    against the entries of its own signature bucket -- an O(1) probe
//    followed by DBM work proportional to the bucket, never to the whole
//    relation. Free-extension safety (a round adding no *new* signature)
//    is read off the interning outcome of the probe itself.
//
//  * Per-column data value indexes. For every data column, a posting-list
//    index DataValue -> entry ids lets join sides prune candidates by any
//    data argument already bound (a constant in the atom or a variable
//    bound by an earlier atom) instead of scanning the relation.
//
//  * Delta generations. Entries are append-only, so the semi-naive
//    current / delta / new split is three index ranges, not three copied
//    relations: [0, delta_lo) is "current", [delta_lo, delta_hi) is the
//    delta of the last completed round, and [delta_hi, size) is what the
//    running round has appended. AdvanceGeneration() promotes the ranges.
//
// The same generation protocol, over ground facts, backs the windowed
// ground evaluator and (through it) the Datalog1S horizon-doubling loop:
// see GroundFactStore at the bottom.
#ifndef LRPDB_GDB_TUPLE_STORE_H_
#define LRPDB_GDB_TUPLE_STORE_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/common/statusor.h"
#include "src/common/thread_annotations.h"
#include "src/obs/metrics.h"
#include "src/gdb/generalized_tuple.h"
#include "src/gdb/normalized_tuple.h"
#include "src/gdb/schema.h"

namespace lrpdb {

// Dense index of an entry within one TupleStore.
using EntryId = uint32_t;
// Dense id of an interned free-extension signature within one TupleStore.
using SignatureId = uint32_t;

// Cumulative storage-engine counters. The store keeps a lifetime copy;
// callers may pass their own to scope counts to a round.
struct StoreStats {
  // InsertIfNew path.
  int64_t signature_probes = 0;       // Signature-bucket lookups.
  int64_t subsumption_checks = 0;     // Candidate-vs-bucket containment tests.
  int64_t subsumption_candidates = 0; // Same-signature entries compared.
  int64_t inserts = 0;                // Entries appended.
  int64_t subsumed = 0;               // Candidates dropped as contained.
  int64_t subsumed_single = 0;        // ...of which each piece sat inside
                                      // one cached piece (no union test).
  int64_t empty_dropped = 0;          // Candidates with empty ground sets.
  // Join probe path.
  int64_t index_probes = 0;           // Candidate probes issued.
  int64_t tuples_scanned = 0;         // Entries yielded to the unifier.
  int64_t tuples_pruned = 0;          // Entries skipped by index/delta filter.

  void Accumulate(const StoreStats& other) {
    signature_probes += other.signature_probes;
    subsumption_checks += other.subsumption_checks;
    subsumption_candidates += other.subsumption_candidates;
    inserts += other.inserts;
    subsumed += other.subsumed;
    subsumed_single += other.subsumed_single;
    empty_dropped += other.empty_dropped;
    index_probes += other.index_probes;
    tuples_scanned += other.tuples_scanned;
    tuples_pruned += other.tuples_pruned;
  }
};

// Result of an exact insert: whether the tuple was stored and whether its
// signature was interned for the first time (the Theorem 4.2 signal).
struct InsertOutcome {
  bool inserted = false;
  bool new_signature = false;
  // Entry id the tuple was appended at; meaningful only when `inserted`.
  EntryId id = 0;
  // When the candidate was dropped as contained: the same-signature entries
  // that absorbed it, ascending and distinct. When every residue piece of
  // the candidate lies inside a single cached piece, these are exactly the
  // entries owning those pieces (one entry for a single-piece candidate,
  // possibly several for a multi-piece one); when only the union of
  // several pieces covers it, the whole signature bucket. Why-provenance
  // attaches the dropped candidate's origin to these so derivations stay
  // resolvable across subsumption. Empty when inserted or when the
  // candidate normalized to the empty ground set.
  std::vector<EntryId> absorbers;
};

// An indexed set of generalized tuples of one schema.
//
// Thread-safety contract: mutations (Insert, InsertUnlessEmpty,
// AdvanceGeneration, set_index_enabled) require exclusive access. Between
// mutations, any number of threads may issue const operations concurrently
// — PostingFor, CountProbe, pieces(), stats(), CheckConsistency, ToString —
// the two pieces of const-path mutable state (the lazy residue-piece cache
// and the probe counters) are guarded by internal mutexes, annotated below
// for Clang's -Wthread-safety and exercised from 8 threads under TSan in
// tests/tuple_store_test.cc. Exception to the "between mutations" rule:
// approx_bytes() and stats() are safe to call concurrently *with* a
// mutation (a monitoring thread sampling memory while an evaluation
// inserts) — the byte counter is a single atomic, the stats a mutex-held
// copy; neither touches the entry array.
class TupleStore {
 public:
  // Which generation a probe ranges over.
  enum class Generation { kAll, kDelta };

  // A data-column equality requirement for a join probe: the entry's data
  // column `column` must equal `value`.
  struct DataRequirement {
    int column = 0;
    DataValue value = 0;
  };

  explicit TupleStore(RelationSchema schema);

  // Movable (relations hand stores around by value); moving counts as a
  // mutation, so it requires exclusive access to both operands. The mutexes
  // themselves stay put — the destination keeps its own.
  TupleStore(TupleStore&& other) noexcept;
  TupleStore& operator=(TupleStore&& other) noexcept;
  TupleStore(const TupleStore&) = delete;
  TupleStore& operator=(const TupleStore&) = delete;

  const RelationSchema& schema() const { return schema_; }
  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  const GeneralizedTuple& tuple(EntryId id) const {
    return entries_[id].tuple;
  }
  // The signature the entry was interned under.
  SignatureId signature_of(EntryId id) const { return entries_[id].signature; }
  size_t num_signatures() const { return signature_index_.size(); }
  // A consistent copy of the lifetime counters (they advance concurrently
  // with const probes, so a reference would be a torn read).
  StoreStats stats() const LRPDB_LOCKS_EXCLUDED(stats_mu_);
  // Approximate retained bytes: every appended entry plus its normalized
  // pieces, using the same estimate Insert charges to the ExecContext byte
  // budget. A single atomic, so a monitoring thread may sample it while
  // another thread inserts — no torn reads, no lock.
  int64_t approx_bytes() const {
    return approx_bytes_.load(std::memory_order_relaxed);
  }

  // Columnar mirror of data column `c`: position `id` holds entry `id`'s
  // value, maintained by every append. The batch layer (src/gdb/batch.h)
  // scans these dense spans instead of dereferencing per-entry tuples.
  const std::vector<DataValue>& data_column(int c) const {
    return data_columns_[c];
  }
  // Columnar mirror of temporal column `c`'s lrp, maintained like the data
  // mirrors: the batch kernel's residue mask and column shift read these
  // instead of loading each row's tuple.
  const std::vector<Lrp>& lrp_column(int c) const { return lrp_columns_[c]; }

  // The posting list for `value` in data column `column` (ascending entry
  // ids), or nullptr when no entry carries that value. Postings hold live
  // entries only (Tombstone() prunes them). Maintained whether or not
  // index_enabled(); the batch kernel (src/core/clause_plan.h) probes them
  // only when it is.
  const std::vector<EntryId>* PostingFor(int column, DataValue value) const {
    const auto& index = data_index_[column];
    auto it = index.find(value);
    return it == index.end() ? nullptr : &it->second;
  }

  // Counts one join probe of this store: `scanned` entries yielded to the
  // join and `pruned` skipped by the index, goal, or generation filter (the
  // two sum to the probed range). Folds into the lifetime stats (under
  // stats_mu_), the caller's round stats (caller-owned, unlocked, may be
  // null), and the registry's store.index_probes / store.tuples_scanned /
  // store.tuples_pruned counters — one critical section per probe, not per
  // yielded tuple.
  void CountProbe(StoreStats* round_stats, int64_t scanned,
                  int64_t pruned) const LRPDB_LOCKS_EXCLUDED(stats_mu_);

  // The residue pieces of entry `id`, computed on first use and cached.
  // The returned pointer stays valid until the next mutation; the pointee
  // is immutable once returned, so concurrent callers may share it.
  [[nodiscard]] StatusOr<const std::vector<NormalizedTuple>*> pieces(
      EntryId id, const NormalizeLimits& limits = NormalizeLimits()) const
      LRPDB_LOCKS_EXCLUDED(pieces_mu_);

  // Exact insert: drops the tuple if its ground set is empty or contained
  // in the union of the stored tuples with the same signature (free
  // extension) -- the comparison constraint safety (paper, Section 4.3)
  // prescribes. Containment is first tried piece by piece: a candidate
  // whose every residue piece is implied by one same-class cached piece is
  // subsumed without a union test; only the rest go through
  // PiecesContainedIn over the bucket's pieces. With indexing enabled the
  // same-signature entries come from one bucket probe; the linear
  // reference path (set_index_enabled(false)) finds them by scanning, for
  // differential testing. `round_stats`, when non-null, receives the same
  // counter increments as the lifetime stats.
  [[nodiscard]] StatusOr<InsertOutcome> Insert(GeneralizedTuple tuple,
                                 const NormalizeLimits& limits =
                                     NormalizeLimits(),
                                 StoreStats* round_stats = nullptr);

  // Inserts after a cheap DBM satisfiability check only; tuples empty
  // purely through lrp-residue conflicts may be stored (harmless
  // redundancy). Returns false iff dropped.
  bool InsertUnlessEmpty(GeneralizedTuple tuple);

  // --- Snapshot restore (src/storage) ---

  // Appends `tuple` exactly as stored on disk: no emptiness or subsumption
  // filtering, no stats, every index maintained. Snapshot load replays the
  // original entry sequence through this, so entry ids, signature interning
  // order, and postings come back identical to the snapshotted store.
  // Requires exclusive access, like every mutation.
  [[nodiscard]] Status RestoreEntry(GeneralizedTuple tuple);

  // Restores the generation ranges saved with the entries. Must be called
  // after the final RestoreEntry; validates 0 <= lo <= hi <= size().
  [[nodiscard]] Status RestoreGenerations(size_t lo, size_t hi);

  // --- Delta generations ---

  // Promotes generations: the entries appended since the previous call
  // become the delta; the previous delta joins "current".
  void AdvanceGeneration() {
    delta_lo_ = delta_hi_;
    delta_hi_ = entries_.size();
  }
  size_t delta_lo() const { return delta_lo_; }
  size_t delta_hi() const { return delta_hi_; }
  size_t delta_size() const { return delta_hi_ - delta_lo_; }

  // --- Tombstones (incremental retraction; DESIGN.md §13) ---
  //
  // Entry ids are append-order dense and referenced externally (provenance
  // origins, snapshot images), so retraction never renumbers: a retracted
  // entry is tombstoned in place. Tombstone() removes the entry from its
  // signature bucket and every posting list, so the indexed probe paths
  // never see it again; the direct range scans and the batch kernel filter
  // on is_live(). The entry slot, its id, and its signature interning
  // survive — empty buckets are deliberately kept, because SignatureId
  // allocation is ordinal in signature_index_ and erasure would corrupt
  // future ids.

  // Marks entry `id` dead. Idempotent; requires exclusive access, like
  // every mutation.
  void Tombstone(EntryId id);

  // True iff the entry has not been tombstoned. Valid for any id < size().
  bool is_live(EntryId id) const { return live_[id] == kLive; }
  // The live entries interned under free extension `fe` (its signature
  // bucket), ascending; empty when none. A copy, so callers may tombstone
  // while iterating it.
  std::vector<EntryId> LiveEntriesWithSignature(
      const FreeExtensionView& fe) const {
    auto bucket = signature_index_.find(fe);
    if (bucket == signature_index_.end()) return {};
    return bucket->second.entries;
  }
  // Cheap gate for hot scan paths: when false, every entry is live and the
  // per-id filter can be skipped entirely.
  bool has_tombstones() const { return tombstones_ > 0; }
  size_t live_size() const { return entries_.size() - tombstones_; }

  // Releases the payload (tuple, cached pieces, mirror slots) of every
  // tombstoned entry while keeping ids stable — the compaction story for
  // stores whose entry ids are pinned by provenance or snapshots. Returns
  // the number of entries whose memory was reclaimed by this call.
  // Requires exclusive access.
  size_t CompactTombstones() LRPDB_LOCKS_EXCLUDED(pieces_mu_);

  // Disables the signature/data indexes for probing: Insert finds
  // same-signature entries by linear scan and join probes scan the full
  // generation range. Results are identical to the indexed path (the
  // indexes are still maintained); this is the brute-force reference for
  // differential tests.
  void set_index_enabled(bool enabled) { index_enabled_ = enabled; }
  bool index_enabled() const { return index_enabled_; }

  // Verifies every index invariant (signature buckets partition the
  // entries, postings are sorted and complete, generation ranges are
  // well-formed). Intended for tests.
  [[nodiscard]] Status CheckConsistency() const;

  std::string ToString(const Interner* interner = nullptr) const;

 private:
  // Corrupts index internals from tests to verify that CheckConsistency
  // reports the same first inconsistency on every run (dense-ID/sorted
  // iteration order, never hash order).
  friend class TupleStoreTestPeer;

  // Immutable once appended; safe to read without a lock between mutations.
  struct Entry {
    GeneralizedTuple tuple;
    SignatureId signature = 0;
  };

  // Lazily computed residue pieces of one entry (filled at most once, under
  // pieces_mu_; immutable afterwards). Kept in a deque parallel to entries_
  // so slot references survive appends.
  struct PiecesCache {
    std::vector<NormalizedTuple> pieces;
    bool normalized = false;
  };

  struct SignatureBucket {
    SignatureId id = 0;
    std::vector<EntryId> entries;
  };

  using SignatureIndex = std::unordered_map<FreeExtension, SignatureBucket,
                                            FreeExtensionHash, FreeExtensionEq>;

  // The signature bucket of `tuple`, or signature_index_.end(): one probe
  // through a view key, no vector copies.
  SignatureIndex::iterator FindSignature(const GeneralizedTuple& tuple) {
    return signature_index_.find(tuple.free_extension_view());
  }

  // Appends `tuple` (with optional pre-normalized pieces) and indexes it
  // under `bucket`, its FindSignature result; a key copy is made only when
  // that is end() and the signature is interned. Returns the outcome's
  // new_signature flag.
  bool Append(GeneralizedTuple tuple, std::vector<NormalizedTuple> pieces,
              bool normalized, SignatureIndex::iterator bucket)
      LRPDB_LOCKS_EXCLUDED(pieces_mu_);

  // Folds one insert-path counter into the lifetime stats (under stats_mu_),
  // the caller's round stats (caller-owned, unlocked), and the registry.
  void BumpStat(int64_t StoreStats::*field, int64_t amount,
                StoreStats* round_stats) const LRPDB_LOCKS_EXCLUDED(stats_mu_);

  RelationSchema schema_;
  std::vector<Entry> entries_;
  SignatureIndex signature_index_;
  // data_index_[column][value] = ascending entry ids with that value.
  std::vector<std::unordered_map<DataValue, std::vector<EntryId>>> data_index_;
  // data_columns_[column][id] = entry id's value in that column: the
  // structure-of-arrays mirror batch scans read.
  std::vector<std::vector<DataValue>> data_columns_;
  // lrp_columns_[column][id] = entry id's lrp in that temporal column.
  std::vector<std::vector<Lrp>> lrp_columns_;
  size_t delta_lo_ = 0;
  size_t delta_hi_ = 0;
  bool index_enabled_ = true;

  // Liveness codes for live_. A tombstoned entry stays kDead until
  // CompactTombstones() releases its payload and marks it kCompacted (so
  // repeated compaction never double-subtracts the byte estimate).
  static constexpr uint8_t kDead = 0;
  static constexpr uint8_t kLive = 1;
  static constexpr uint8_t kCompacted = 2;
  // live_[id]: one code per entry, maintained by Append/Tombstone.
  std::vector<uint8_t> live_;
  size_t tombstones_ = 0;

  // Serializes concurrent const readers against the fill-on-first-use
  // residue cache. Writers (Append) also hold it while growing the deque.
  mutable std::mutex pieces_mu_;
  mutable std::deque<PiecesCache> pieces_cache_ LRPDB_GUARDED_BY(pieces_mu_);

  // Guards the lifetime counters, which advance on the const probe path.
  mutable std::mutex stats_mu_ LRPDB_ACQUIRED_AFTER(pieces_mu_);
  mutable StoreStats stats_ LRPDB_GUARDED_BY(stats_mu_);

  // Retained-bytes estimate, advanced by Append. Atomic (not folded into
  // stats_ under stats_mu_) so approx_bytes() stays safe and lock-free for
  // readers concurrent with an insert.
  std::atomic<int64_t> approx_bytes_{0};
};

// --- Ground-fact storage (shared delta-generation machinery) ---

// A fully instantiated tuple: time values plus data constants.
struct GroundTuple {
  std::vector<int64_t> times;
  std::vector<DataValue> data;

  friend bool operator==(const GroundTuple& a, const GroundTuple& b) {
    return a.times == b.times && a.data == b.data;
  }
  friend bool operator<(const GroundTuple& a, const GroundTuple& b) {
    if (a.times != b.times) return a.times < b.times;
    return a.data < b.data;
  }
};

struct GroundTupleHash {
  size_t operator()(const GroundTuple& t) const {
    size_t h = 0;
    for (int64_t v : t.times) h = HashCombine(h, static_cast<size_t>(v));
    for (DataValue d : t.data) h = HashCombine(h, static_cast<size_t>(d));
    return h;
  }
};

// Append-only deduplicated set of ground facts with the same generation
// protocol as TupleStore. Backs the windowed ground evaluator's semi-naive
// loop (and Datalog1S's horizon doubling through it) without per-round
// delta-set copies. Move-only: insertion order is kept as pointers into the
// node-based hash set, which survive moves but not copies.
class GroundFactStore {
 public:
  GroundFactStore() = default;
  GroundFactStore(GroundFactStore&&) = default;
  GroundFactStore& operator=(GroundFactStore&&) = default;
  GroundFactStore(const GroundFactStore&) = delete;
  GroundFactStore& operator=(const GroundFactStore&) = delete;

  // Returns false when the fact was already present.
  bool Insert(GroundTuple fact) {
    return InsertIndexed(std::move(fact)).second;
  }

  // Insert that also reports the fact's stable insertion-order index —
  // the existing one on a duplicate — so why-provenance can address ground
  // facts and attach a re-derivation's origin to the entry it collapsed
  // into.
  std::pair<uint32_t, bool> InsertIndexed(GroundTuple fact) {
    auto [it, inserted] =
        set_.try_emplace(std::move(fact), static_cast<uint32_t>(order_.size()));
    if (inserted) order_.push_back(&it->first);
    return {it->second, inserted};
  }

  bool Contains(const GroundTuple& fact) const { return set_.count(fact) > 0; }
  // std::set-compatible membership spelling, so existing call sites read on.
  size_t count(const GroundTuple& fact) const { return set_.count(fact); }

  size_t size() const { return order_.size(); }
  bool empty() const { return order_.empty(); }
  const GroundTuple& fact(size_t i) const { return *order_[i]; }

  void AdvanceGeneration() {
    delta_lo_ = delta_hi_;
    delta_hi_ = order_.size();
  }
  size_t delta_lo() const { return delta_lo_; }
  size_t delta_hi() const { return delta_hi_; }
  size_t delta_size() const { return delta_hi_ - delta_lo_; }

  // Iteration in insertion order.
  class const_iterator {
   public:
    explicit const_iterator(const GroundTuple* const* p) : p_(p) {}
    const GroundTuple& operator*() const { return **p_; }
    const GroundTuple* operator->() const { return *p_; }
    const_iterator& operator++() {
      ++p_;
      return *this;
    }
    friend bool operator==(const_iterator a, const_iterator b) {
      return a.p_ == b.p_;
    }
    friend bool operator!=(const_iterator a, const_iterator b) {
      return a.p_ != b.p_;
    }

   private:
    const GroundTuple* const* p_;
  };
  const_iterator begin() const { return const_iterator(order_.data()); }
  const_iterator end() const {
    return const_iterator(order_.data() + order_.size());
  }

 private:
  // Fact -> insertion-order index; node-based, so the key pointers in
  // order_ survive rehashes and moves.
  std::unordered_map<GroundTuple, uint32_t, GroundTupleHash> set_;
  std::vector<const GroundTuple*> order_;
  size_t delta_lo_ = 0;
  size_t delta_hi_ = 0;
};

}  // namespace lrpdb

#endif  // LRPDB_GDB_TUPLE_STORE_H_
