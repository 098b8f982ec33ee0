// lrpbench: end-to-end and per-layer benchmark of the lrpdb engine
// (README.md).
//
//   lrpbench --workload NAME --seed N --seconds S --trace 0|1 --workdir DIR
//
// One process's share of a run of one workload (run.py runs several and
// pools them):
//   1. set-up, repeated: generate the inputs from the seed, load the base
//      EDB durably into a fresh PersistentStore, Initialize the maintained
//      model;
//   2. solves: program text -> Parse -> Evaluate, repeated; QueryAtom
//      reads on each closed form;
//   3. live loop, its ticks interleaved with the solves and their reads: a
//      closed loop of durable adds, reads and durable retracts on the
//      maintained model, with periodic checkpoints;
//   4. restart, repeated: Open + Initialize over the recovered store;
//   5. correctness checks, outside every timed region.
// S fixes the amount of work (Workload::solve_seconds / tick_seconds).
// The last line of stdout is one JSON object: "correct", "attempted",
// "failed", the raw end-to-end "samples" and "scalars", and, with
// --trace 1, the per-layer "metrics" -- from spans this file records around
// each public call into a layer and from counters the public API returns.
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "lrpbench/workloads.h"
#include "src/common/exec_context.h"
#include "src/core/evaluator.h"
#include "src/core/ground_evaluator.h"
#include "src/core/incremental.h"
#include "src/core/normalizer.h"
#include "src/gdb/database.h"
#include "src/obs/metrics.h"
#include "src/parser/parser.h"
#include "src/storage/codec.h"
#include "src/storage/store.h"

namespace lrpbench {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;
using lrpdb::Database;
using lrpdb::EvaluationOptions;
using lrpdb::EvaluationResult;
using lrpdb::FactUpdate;
using lrpdb::GeneralizedRelation;
using lrpdb::GroundTuple;
using lrpdb::IncrementalEvaluator;
using lrpdb::ParsedUnit;
using lrpdb::PredicateAtom;
using lrpdb::Status;
using lrpdb::StatusOr;
using lrpdb::storage::PersistentStore;

constexpr int kSetupRepeats = 9;
constexpr int kRestartRepeats = 12;
constexpr int kMinSolves = 2;
constexpr int kQueriesPerTick = 10;
// Reads per tick that probe the live writes (Tick()).
constexpr int kProbesPerTick = 4;
// bench.unattributed_ratio above this share of the traced op wall fails a
// traced run: the layer spans must account for the ops they split.
constexpr double kUnattributedTolerance = 0.05;

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// CPU time of the whole process, every thread, in ms.
double CpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

// The cost of an operation: process CPU time, plus the wall time spent
// waiting inside file-system calls (run through Io()). On a shared virtual
// machine the wall clock also counts the time the host runs other guests
// on this vCPU; that share swung single ops by 2x from one minute to the
// next, while CPU time moved by about 10%. With worker threads the wall
// clock also swings with thread wake-ups and placement (a 2-thread solve
// of the same input: 0.17-0.23 s wall across processes), so CPU time is
// used there too; being summed over the threads, it cannot show a loss of
// parallelism, which common.thread_pool.parallelism (traced) shows instead.
// Meters nest: an outer meter includes the waits of the calls inside it.
class Meter {
 public:
  Meter() : cpu0_(CpuMs()), wait0_(io_wait_ms_) {}
  double Ms() const { return CpuMs() - cpu0_ + (io_wait_ms_ - wait0_); }

  // Runs `call`, which waits on the file system; its wall time beyond its
  // CPU time counts as wait.
  template <typename Call>
  static auto Io(Call&& call) {
    const Clock::time_point w0 = Clock::now();
    const double c0 = CpuMs();
    auto result = call();
    io_wait_ms_ +=
        std::max(0.0, MsBetween(w0, Clock::now()) - (CpuMs() - c0));
    return result;
  }

 private:
  static inline double io_wait_ms_ = 0;
  double cpu0_;
  double wait0_;
};

// The host's speed: the CPU time of a fixed computation in this file's own
// code -- hashing, probing, sorting short runs and min-plus closure of small
// matrices, the mix the engine's inner loops do -- that calls no engine
// code and works in memory set aside once, so neither a change to the
// engine nor the state of the heap moves it. On this kind of shared VM the
// same process runs at one speed for some seconds and up to twice as slow
// for the next, and every op's CPU time follows; HostRefs adjusts each
// op's time by the reference times measured around it.
double HostRefMs() {
  constexpr int kSlotBits = 15;
  constexpr int kKeys = 22000;
  static std::vector<uint64_t> slots(size_t{1} << kSlotBits);
  const Meter meter;
  std::fill(slots.begin(), slots.end(), 0);
  uint64_t x = 0x9e3779b97f4a7c15ULL;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  // An open-addressing hash set: inserts, then as many lookups.
  auto find = [&](uint64_t key) -> uint64_t& {
    size_t i = (key * 0x9e3779b97f4a7c15ULL) >> (64 - kSlotBits);
    while (slots[i] != 0 && slots[i] != key) i = (i + 1) & (slots.size() - 1);
    return slots[i];
  };
  for (int i = 0; i < kKeys; ++i) {
    const uint64_t key = next() | 1;
    find(key) = key;
  }
  int64_t sink = 0;
  for (int i = 0; i < kKeys; ++i) sink += find(next() | 1) != 0;
  // Short sorted runs, then a 4x4 min-plus closure over each run.
  for (size_t r = 0; r + 8 <= slots.size(); r += 8) {
    std::sort(slots.begin() + static_cast<long>(r),
              slots.begin() + static_cast<long>(r + 8));
    int64_t m[4][4];
    for (int i = 0; i < 4; ++i) {
      for (int j = 0; j < 4; ++j) {
        m[i][j] = i == j ? 0
                         : static_cast<int64_t>(slots[r + ((i + j) & 7)] >>
                                                40) -
                               (i + 1) * (j + 3);
      }
    }
    for (int k = 0; k < 4; ++k) {
      for (int i = 0; i < 4; ++i) {
        for (int j = 0; j < 4; ++j) {
          m[i][j] = std::min(m[i][j], m[i][k] + m[k][j]);
        }
      }
    }
    sink += m[0][3] + m[3][0];
  }
  static volatile int64_t keep;
  keep = sink;
  (void)keep;
  return meter.Ms();
}

// Median, averaging the two middle values of an even count; 0 when empty.
double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2;
}

// HostRefMs() samples, taken between ops. An op's time is reported at the
// nominal host speed -- as if HostRefMs() took kRefNominalMs -- by scaling
// it with the median of the kRefWindow samples nearest the op: a window of
// one to three seconds, shorter than most of the host's slow and fast
// spells and wide enough that one sample's noise does not carry into the
// op.
class HostRefs {
 public:
  static constexpr double kRefNominalMs = 2.0;
  static constexpr size_t kRefWindow = 7;

  void Probe() { ms_.push_back(HostRefMs()); }
  // The position of the next op among the samples: after the latest one.
  size_t Now() const { return ms_.size(); }
  // kRefNominalMs over the local median reference time at position `at`.
  double Speed(size_t at) const {
    if (ms_.empty()) return 1;
    // The samples before and after the op, about as many of each.
    const size_t half = kRefWindow / 2 + 1;
    const size_t hi = std::min(ms_.size(), (at > half ? at - half : 0) +
                                               kRefWindow);
    const size_t lo = hi > kRefWindow ? hi - kRefWindow : 0;
    return kRefNominalMs /
           Median(std::vector<double>(ms_.begin() + static_cast<long>(lo),
                                      ms_.begin() + static_cast<long>(hi)));
  }
  double MedianMs() const { return Median(ms_); }

 private:
  std::vector<double> ms_;
};

// One end-to-end latency series: raw samples, each with its position among
// the host reference samples.
class Series {
 public:
  explicit Series(const HostRefs* refs) : refs_(refs) {}
  void push_back(double raw) { samples_.emplace_back(raw, refs_->Now()); }
  size_t size() const { return samples_.size(); }
  std::vector<double> Raw() const {
    std::vector<double> out;
    for (const auto& [v, at] : samples_) out.push_back(v);
    return out;
  }
  std::vector<double> Adjusted() const {
    std::vector<double> out;
    for (const auto& [v, at] : samples_) out.push_back(v * refs_->Speed(at));
    return out;
  }

 private:
  const HostRefs* refs_;
  std::vector<std::pair<double, size_t>> samples_;
};

// ---- public-call accounting (error rate) ----

enum OpKind { kSolve, kQuery, kAdd, kRetract, kCheckpoint, kRestart, kSetup,
              kNumOpKinds };
constexpr const char* kOpNames[kNumOpKinds] = {
    "solve", "query", "add", "retract", "checkpoint", "restart", "setup"};

class Calls {
 public:
  // Counts one public call; false (and the first error kept) when non-OK.
  bool Ok(OpKind kind, const Status& status) {
    ++attempted_[kind];
    if (status.ok()) return true;
    ++failed_[kind];
    if (first_error_.empty()) {
      first_error_ = std::string(kOpNames[kind]) + ": " + status.ToString();
    }
    return false;
  }
  // Counts calls a child process made on our behalf.
  void Add(OpKind kind, int64_t attempted, int64_t failed) {
    attempted_[kind] += attempted;
    failed_[kind] += failed;
  }
  int64_t attempted() const { return Sum(attempted_); }
  int64_t failed() const { return Sum(failed_); }
  const std::string& first_error() const { return first_error_; }
  std::string Summary() const {
    std::string out;
    for (int k = 0; k < kNumOpKinds; ++k) {
      out += std::string(k ? " " : "") + kOpNames[k] + "=" +
             std::to_string(failed_[k]) + "/" + std::to_string(attempted_[k]);
    }
    return out;
  }

 private:
  static int64_t Sum(const int64_t (&a)[kNumOpKinds]) {
    int64_t s = 0;
    for (int64_t x : a) s += x;
    return s;
  }
  int64_t attempted_[kNumOpKinds] = {};
  int64_t failed_[kNumOpKinds] = {};
  std::string first_error_;
};

// ---- spans ----
//
// Spans live in memory. An op span ("op.*") is a root; layer spans opened
// inside it are its children. Recording is switched per op, so a traced run
// interleaves traced and untraced ops and compares their costs (the tracing
// overhead).
class Spans {
 public:
  struct Record {
    const char* name;
    Clock::time_point start;
    Clock::time_point end;
    int parent;  // index into records, -1 for an op root
  };

  class Scope {
   public:
    Scope(Spans* spans, const char* name) : spans_(spans) {
      if (spans_->recording_) index_ = spans_->Open(name);
    }
    ~Scope() {
      if (index_ >= 0) spans_->Close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans* spans_;
    int index_ = -1;
  };

  void set_recording(bool on) { recording_ = on; }
  bool recording() const { return recording_; }

  // Durations (ms) of every closed span named `name`.
  std::vector<double> Durations(const std::string& name) const {
    std::vector<double> out;
    for (const Record& r : records_) {
      if (name == r.name) out.push_back(MsBetween(r.start, r.end));
    }
    return out;
  }

  // Op-root wall minus the wall its direct children cover, summed over
  // every recorded op; also returns the summed op wall.
  std::pair<double, double> Unattributed() const {
    std::vector<double> covered(records_.size(), 0.0);
    for (const Record& r : records_) {
      if (r.parent >= 0 && records_[r.parent].parent < 0) {
        covered[r.parent] += MsBetween(r.start, r.end);
      }
    }
    double gap = 0, wall = 0;
    for (size_t i = 0; i < records_.size(); ++i) {
      if (records_[i].parent >= 0) continue;
      const double ms = MsBetween(records_[i].start, records_[i].end);
      wall += ms;
      gap += ms - covered[i];
    }
    return {gap, wall};
  }

 private:
  int Open(const char* name) {
    records_.push_back({name, Clock::now(), {}, open_});
    open_ = static_cast<int>(records_.size()) - 1;
    return open_;
  }
  void Close(int index) {
    records_[index].end = Clock::now();
    open_ = records_[index].parent;
  }

  bool recording_ = false;
  std::vector<Record> records_;
  int open_ = -1;
};

// Metric deltas from the process-global registry between two snapshots.
struct Registry {
  lrpdb::obs::MetricsSnapshot before;
  void Mark() { before = lrpdb::obs::MetricsRegistry::Global().Snapshot(); }
  static int64_t Counter(const lrpdb::obs::MetricsSnapshot& s,
                         const std::string& name) {
    auto it = s.counters.find(name);
    return it == s.counters.end() ? 0 : it->second;
  }
  static int64_t HistSum(const lrpdb::obs::MetricsSnapshot& s,
                         const std::string& name) {
    auto it = s.histograms.find(name);
    return it == s.histograms.end() ? 0 : it->second.sum;
  }
  // Deltas since Mark() for the named counters / histogram sums.
  std::map<std::string, int64_t> Delta(
      const std::vector<std::string>& counters,
      const std::vector<std::string>& hist_sums) const {
    const lrpdb::obs::MetricsSnapshot now =
        lrpdb::obs::MetricsRegistry::Global().Snapshot();
    std::map<std::string, int64_t> out;
    for (const std::string& c : counters) {
      out[c] = Counter(now, c) - Counter(before, c);
    }
    for (const std::string& h : hist_sums) {
      out[h] = HistSum(now, h) - HistSum(before, h);
    }
    return out;
  }
};

// ---- conversions from generated facts ----

lrpdb::storage::FactBatch ToBatch(const std::vector<Fact>& facts,
                                  const Database* declare_from) {
  lrpdb::storage::FactBatch batch;
  if (declare_from != nullptr) {
    for (const std::string& name : declare_from->RelationNames()) {
      StatusOr<lrpdb::RelationSchema> schema = declare_from->SchemaOf(name);
      if (schema.ok()) batch.decls.push_back({name, *schema});
    }
  }
  batch.facts.reserve(facts.size());
  for (const Fact& f : facts) {
    batch.facts.push_back({f.relation, f.lrps, f.data, f.Constraint()});
  }
  return batch;
}

lrpdb::GeneralizedTuple ToTuple(const Fact& f, Database* db) {
  std::vector<lrpdb::DataValue> data;
  for (const std::string& d : f.data) data.push_back(db->Constant(d));
  return lrpdb::GeneralizedTuple(f.lrps, std::move(data), f.Constraint());
}

std::vector<FactUpdate> ToUpdates(const std::vector<Fact>& facts,
                                  Database* db) {
  std::vector<FactUpdate> out;
  out.reserve(facts.size());
  for (const Fact& f : facts) out.push_back({f.relation, ToTuple(f, db)});
  return out;
}

// Declares every EDB relation the facts use, with schemas read off them.
Status DeclareEdb(const std::vector<Fact>& facts, Database* db) {
  std::map<std::string, lrpdb::RelationSchema> schemas;
  for (const Fact& f : facts) {
    schemas[f.relation] = {static_cast<int>(f.lrps.size()),
                           static_cast<int>(f.data.size())};
  }
  for (const auto& [name, schema] : schemas) {
    Status s = db->Declare(name, schema);
    if (!s.ok()) return s;
  }
  return lrpdb::OkStatus();
}

PredicateAtom ToAtom(const QuerySpec& q, ParsedUnit* unit) {
  PredicateAtom atom;
  atom.predicate = unit->program.predicates().Intern(q.relation);
  int var = 0;
  auto fresh = [&] {
    return unit->program.variables().Intern("q" + std::to_string(var++));
  };
  for (const std::optional<int64_t>& t : q.times) {
    atom.temporal_args.push_back(
        t ? lrpdb::TemporalTerm::Constant(*t)
          : lrpdb::TemporalTerm::Variable(fresh()));
  }
  for (const std::optional<std::string>& d : q.data) {
    atom.data_args.push_back(
        d ? lrpdb::DataTerm::Constant(
                unit->program.data_constants().Intern(*d))
          : lrpdb::DataTerm::Variable(fresh()));
  }
  return atom;
}

// Store-directory bytes (regular files).
int64_t DirBytes(const fs::path& dir) {
  int64_t total = 0;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) {
      total += static_cast<int64_t>(entry.file_size(ec));
    }
  }
  return total;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// Runs this binary again with `args` and returns what it printed, or
// nullopt when it could not start or did not exit with 0.
std::optional<std::string> RunSelf(const std::vector<std::string>& args) {
  int fds[2];
  if (pipe(fds) != 0) return std::nullopt;
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  const std::string self = "/proc/self/exe";
  std::vector<char*> argv = {const_cast<char*>(self.c_str())};
  for (const std::string& a : args) {
    argv.push_back(const_cast<char*>(a.c_str()));
  }
  argv.push_back(nullptr);
  pid_t pid = 0;
  const int spawned = posix_spawn(&pid, self.c_str(), &actions, nullptr,
                                  argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  std::string out;
  if (spawned == 0) {
    char buf[4096];
    ssize_t n = 0;
    while ((n = read(fds[0], buf, sizeof(buf))) != 0) {
      if (n > 0) {
        out.append(buf, static_cast<size_t>(n));
      } else if (errno != EINTR) {
        break;
      }
    }
  }
  close(fds[0]);
  if (spawned != 0) return std::nullopt;
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) return std::nullopt;
  return out;
}

// Live entries / all slots across the EDB stores and the maintained IDB.
struct Census {
  int64_t entries = 0;
  int64_t live = 0;
};
Census TakeCensus(const IncrementalEvaluator& inc) {
  Census c;
  auto count = [&c](const lrpdb::TupleStore& store) {
    c.entries += static_cast<int64_t>(store.size());
    c.live += static_cast<int64_t>(store.live_size());
  };
  for (const std::string& name : inc.db().RelationNames()) {
    StatusOr<const GeneralizedRelation*> rel = inc.db().Relation(name);
    if (rel.ok()) count((*rel)->store());
  }
  for (const auto& [unused, relation] : inc.Result().idb) {
    count(relation.store());
  }
  return c;
}

// Live EDB tuples rendered with constant names, sorted per relation: equal
// for two databases holding the same facts, whatever their interner ids.
std::string CanonicalEdb(const Database& db) {
  std::string out;
  for (const std::string& name : db.RelationNames()) {
    StatusOr<const GeneralizedRelation*> rel = db.Relation(name);
    if (!rel.ok()) continue;
    const lrpdb::TupleStore& store = (*rel)->store();
    std::vector<std::string> rows;
    for (size_t i = 0; i < store.size(); ++i) {
      const auto id = static_cast<lrpdb::EntryId>(i);
      if (store.is_live(id)) {
        rows.push_back(store.tuple(id).ToString(&db.interner()));
      }
    }
    std::sort(rows.begin(), rows.end());
    out += name + ":\n";
    for (const std::string& r : rows) out += "  " + r + "\n";
  }
  return out;
}

// The durable, maintained side of a workload: the store and its database,
// and the evaluator over a second database holding the same EDB.
struct LiveState {
  fs::path dir;
  std::unique_ptr<Database> store_db;
  PersistentStore store;
  std::unique_ptr<Database> db;
  std::unique_ptr<ParsedUnit> unit;
  std::unique_ptr<IncrementalEvaluator> inc;
};

// ---- the run ----

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  fs::path workdir;
};

class Bench {
 public:
  explicit Bench(Options options) : opt_(std::move(options)) {}
  // The series hold the address of refs_.
  Bench(const Bench&) = delete;
  Bench& operator=(const Bench&) = delete;

  int Run();
  // Child-process mode: one restart sample over the store at `dir`,
  // printed as "restart_s=... replayed=... attempted=... failed=...".
  int RestartOnly(const fs::path& dir);

 private:
  EvaluationOptions EvalOptions() const {
    EvaluationOptions o;
    o.num_threads = w_.threads;
    return o;
  }
  void Mismatch(const std::string& what) {
    correct_ = false;
    std::fprintf(stderr, "lrpbench: MISMATCH %s\n", what.c_str());
  }
  void Metric(const std::string& name, double value, const std::string& unit) {
    metrics_.emplace_back(name, std::make_pair(value, unit));
  }
  // Even-numbered ops are traced in a traced run; odd ones are not, so the
  // two costs can be compared.
  bool TraceOp(int64_t i) const { return opt_.trace && i % 2 == 0; }

  std::optional<LiveState> Setup(int repeat);
  void Solve(int64_t i);
  void OracleCheck(const Database& db, ParsedUnit* unit,
                   const EvaluationResult& model);
  void Tick(LiveState* live, int64_t tick);
  bool LiveAdd(LiveState* live, int64_t index);
  bool LiveRetract(LiveState* live, int64_t index);
  std::vector<QuerySpec> PoolQueries(int count);
  std::vector<std::optional<bool>> Queries(ParsedUnit* unit,
                                           const Database& db,
                                           const EvaluationResult& model,
                                           const std::vector<QuerySpec>& specs,
                                           bool traced);
  void Checkpoint(LiveState* live);
  // A recovered database with its program and a fresh evaluator over it
  // (members in dependency order: destroyed evaluator first).
  struct Recovered {
    std::unique_ptr<Database> db;
    std::unique_ptr<ParsedUnit> unit;
    std::unique_ptr<IncrementalEvaluator> inc;
  };
  std::optional<Recovered> Restart(const fs::path& dir, bool traced,
                                  double* seconds);
  void RestartSample(const fs::path& dir, bool traced);
  void RestartPhase(LiveState* live);
  void Report();

  Options opt_;
  Workload w_;
  Calls calls_;
  Spans spans_;
  bool correct_ = true;
  std::vector<std::pair<std::string, std::pair<double, std::string>>>
      metrics_;

  // Solve input and the latest solve's model (the oracle checks the last).
  std::string source_;
  struct SolvedModel {
    std::unique_ptr<Database> db;
    std::unique_ptr<ParsedUnit> unit;
    EvaluationResult model;
  };
  std::optional<SolvedModel> last_solve_;
  // Live batches added and not yet retracted, oldest first, and the batch
  // the latest successful retraction removed.
  std::deque<int64_t> outstanding_;
  std::optional<int64_t> last_retracted_;

  // End-to-end samples.
  // Host reference samples, one before each set-up, solve, tick and
  // restart.
  HostRefs refs_;
  Series setup_s_{&refs_}, solve_s_{&refs_}, query_us_{&refs_},
      add_ms_{&refs_}, retract_ms_{&refs_}, restart_s_{&refs_},
      live_ms_{&refs_};
  int64_t live_ops_ = 0;
  int64_t closed_form_tuples_ = 0;
  double disk_bytes_per_fact_ = 0;
  size_t query_cursor_ = 0;
  // Per-layer samples (traced ops only).
  std::vector<double> normalize_us_, apply_ms_, insert_ms_, finish_ms_,
      merge_ms_, parallelism_, touched_, over_deleted_, rederived_,
      resume_rounds_, wal_bytes_, answer_tuples_, snapshot_bytes_;
  std::vector<double> solve_traced_ms_, solve_plain_ms_, tick_traced_ms_,
      tick_plain_ms_;
  std::vector<double> retract_live_entries_;
  int64_t rounds_ = 0, probes_ = 0, exec_steps_ = 0, pool_tasks_ = 0;
  double subsumed_ratio_ = 0, candidates_per_probe_ = 0, pruned_ratio_ = 0,
         kept_ratio_ = 0;
  int64_t prov_records_ = 0, prov_bytes_ = 0, replayed_records_ = 0;
};

std::optional<LiveState> Bench::Setup(int repeat) {
  LiveState live;
  live.dir = opt_.workdir / ("store-" + std::to_string(repeat));
  std::error_code ec;
  fs::remove_all(live.dir, ec);

  refs_.Probe();
  const Meter meter;
  std::optional<Workload> w = MakeWorkload(opt_.workload, opt_.seed);
  if (!w) return std::nullopt;
  w_ = std::move(*w);
  source_ = w_.Source();
  live.store_db = std::make_unique<Database>();
  StatusOr<PersistentStore> store = Meter::Io([&] {
    return PersistentStore::Open(live.dir.string(), live.store_db.get());
  });
  if (!calls_.Ok(kSetup, store.status())) return std::nullopt;
  live.store = std::move(*store);
  live.db = std::make_unique<Database>();
  const std::vector<Fact> base = w_.LiveBase();
  if (!calls_.Ok(kSetup, DeclareEdb(base, live.db.get()))) {
    return std::nullopt;
  }
  const lrpdb::storage::FactBatch batch = ToBatch(base, live.db.get());
  if (!calls_.Ok(kSetup,
                 Meter::Io([&] { return live.store.AppendBatch(batch); }))) {
    return std::nullopt;
  }
  for (const Fact& f : base) {
    if (!calls_.Ok(kSetup, live.db->AddTuple(f.relation,
                                             ToTuple(f, live.db.get())))) {
      return std::nullopt;
    }
  }
  StatusOr<ParsedUnit> unit = lrpdb::Parse(w_.RulesSource(), live.db.get());
  if (!calls_.Ok(kSetup, unit.status())) return std::nullopt;
  live.unit = std::make_unique<ParsedUnit>(std::move(*unit));
  live.inc = std::make_unique<IncrementalEvaluator>(
      live.unit->program, live.db.get(), EvalOptions());
  spans_.set_recording(TraceOp(repeat));
  {
    Spans::Scope op(&spans_, "op.setup.initialize");
    Spans::Scope span(&spans_, "core.incremental.initialize");
    if (!calls_.Ok(kSetup, live.inc->Initialize())) return std::nullopt;
  }
  spans_.set_recording(false);
  setup_s_.push_back(meter.Ms() / 1e3);
  return live;
}

// The next `count` queries of the pool, which is cycled across calls.
std::vector<QuerySpec> Bench::PoolQueries(int count) {
  std::vector<QuerySpec> specs;
  specs.reserve(count);
  for (int i = 0; i < count; ++i) {
    specs.push_back(w_.queries[query_cursor_++ % w_.queries.size()]);
  }
  return specs;
}

// Times one QueryAtom read per spec; returns whether each answer is
// non-empty (nullopt for a failed call).
std::vector<std::optional<bool>> Bench::Queries(
    ParsedUnit* unit, const Database& db, const EvaluationResult& model,
    const std::vector<QuerySpec>& specs, bool traced) {
  // Atoms are built before timing.
  std::vector<PredicateAtom> atoms;
  atoms.reserve(specs.size());
  for (const QuerySpec& q : specs) atoms.push_back(ToAtom(q, unit));
  const EvaluationOptions options = EvalOptions();
  std::vector<std::optional<bool>> found;
  spans_.set_recording(traced);
  for (const PredicateAtom& atom : atoms) {
    const Meter meter;
    StatusOr<GeneralizedRelation> answer = [&] {
      Spans::Scope op(&spans_, "op.query");
      Spans::Scope span(&spans_, "core.evaluator.query");
      return lrpdb::QueryAtom(unit->program, db, model, atom, options);
    }();
    const double us = meter.Ms() * 1e3;
    if (calls_.Ok(kQuery, answer.status())) {
      query_us_.push_back(us);
      if (traced) answer_tuples_.push_back(static_cast<double>(answer->size()));
      found.push_back(answer->store().live_size() > 0);
    } else {
      found.push_back(std::nullopt);
    }
  }
  spans_.set_recording(false);
  return found;
}

void Bench::Solve(int64_t i) {
  // Release the previous model before the next solve, outside the timing.
  last_solve_.reset();
  refs_.Probe();
  auto db = std::make_unique<Database>();
  const bool traced = TraceOp(i);
  lrpdb::ExecContext exec;  // unlimited; counts DBM steps when passed
  EvaluationOptions options = EvalOptions();
  if (traced) options.exec = &exec;
  Registry registry;
  if (traced) registry.Mark();
  spans_.set_recording(traced);
  const Meter meter;
  std::optional<StatusOr<ParsedUnit>> unit;
  std::optional<StatusOr<EvaluationResult>> model;
  double evaluate_ms = 0, evaluate_cpu_ms = 0;
  {
    Spans::Scope op(&spans_, "op.solve");
    {
      Spans::Scope span(&spans_, "parser.parse");
      unit.emplace(lrpdb::Parse(source_, db.get()));
    }
    if (unit->ok()) {
      const Clock::time_point e0 = Clock::now();
      const double c0 = CpuMs();
      Spans::Scope span(&spans_, "core.evaluator.evaluate");
      model.emplace(lrpdb::Evaluate((*unit)->program, *db, options));
      evaluate_ms = MsBetween(e0, Clock::now());
      evaluate_cpu_ms = CpuMs() - c0;
    }
  }
  const double solve_ms = meter.Ms();
  spans_.set_recording(false);
  if (!calls_.Ok(kSolve, unit->status())) return;
  if (!calls_.Ok(kSolve, model->status())) return;
  EvaluationResult& result = **model;
  if (!result.reached_fixpoint) {
    Mismatch("solve did not reach the fixpoint: " + result.gave_up_reason);
    return;
  }
  solve_s_.push_back(solve_ms / 1e3);
  (traced ? solve_traced_ms_ : solve_plain_ms_).push_back(solve_ms);
  closed_form_tuples_ = result.TuplesStored();
  if (traced) {
    const auto delta =
        registry.Delta({"eval.parallel.tasks"}, {"eval.parallel.merge_us"});
    pool_tasks_ = delta.at("eval.parallel.tasks");
    merge_ms_.push_back(delta.at("eval.parallel.merge_us") / 1e3);
    // CPU time over wall time of Evaluate: about the threads kept busy.
    parallelism_.push_back(evaluate_cpu_ms / std::max(1e-9, evaluate_ms));
    exec_steps_ = exec.steps();
    double apply_us = 0, insert_us = 0, round_us = 0;
    for (const lrpdb::RoundStats& r : result.rounds) {
      apply_us += static_cast<double>(r.apply_us);
      insert_us += static_cast<double>(r.insert_us);
      round_us += static_cast<double>(r.duration_us);
    }
    apply_ms_.push_back(apply_us / 1e3);
    insert_ms_.push_back(insert_us / 1e3);
    finish_ms_.push_back(evaluate_ms - round_us / 1e3);
    rounds_ = static_cast<int64_t>(result.rounds.size());
    const lrpdb::StoreStats store = result.StoreTotals();
    probes_ = store.signature_probes;
    const double probes = std::max<int64_t>(1, store.signature_probes);
    subsumed_ratio_ = static_cast<double>(store.subsumed) / probes;
    candidates_per_probe_ =
        static_cast<double>(store.subsumption_candidates) / probes;
    pruned_ratio_ =
        static_cast<double>(store.tuples_pruned) /
        static_cast<double>(std::max<int64_t>(
            1, store.tuples_pruned + store.tuples_scanned));
    kept_ratio_ = static_cast<double>(result.profile.TotalInserted()) /
                  static_cast<double>(std::max<int64_t>(
                      1, result.profile.TotalDerivations()));
    // The normalizer as its own call, outside the op.
    const Clock::time_point n0 = Clock::now();
    StatusOr<lrpdb::NormalizedProgram> normalized =
        lrpdb::Normalize((*unit)->program);
    const double normalize_us = MsBetween(n0, Clock::now()) * 1e3;
    if (calls_.Ok(kSolve, normalized.status())) {
      normalize_us_.push_back(normalize_us);
    }
  }
  last_solve_.emplace(SolvedModel{
      std::move(db), std::make_unique<ParsedUnit>(std::move(**unit)),
      std::move(result)});
}

// The closed form's ground restriction over the workload window must equal
// the ground evaluator's model of the same window (paper §4.3), and every
// query of the pool, with its fixed times moved into the window, must
// answer exactly the matching ground facts.
void Bench::OracleCheck(const Database& db, ParsedUnit* unit,
                        const EvaluationResult& model) {
  lrpdb::GroundEvaluationOptions gopt;
  gopt.window_lo = w_.window_lo;
  gopt.window_hi = w_.window_hi;
  StatusOr<lrpdb::GroundEvaluationResult> ground =
      lrpdb::EvaluateGround(unit->program, db, gopt);
  if (!ground.ok()) {
    Mismatch("ground oracle failed: " + ground.status().ToString());
    return;
  }
  auto in_window = [&](const GroundTuple& g) {
    for (int64_t t : g.times) {
      if (t < w_.window_lo || t >= w_.window_hi) return false;
    }
    return true;
  };
  std::map<std::string, std::vector<GroundTuple>> expected;
  for (const auto& [name, store] : ground->idb) {
    std::vector<GroundTuple>& facts = expected[name];
    for (const GroundTuple& g : store) {
      if (in_window(g)) facts.push_back(g);
    }
    std::sort(facts.begin(), facts.end());
    facts.erase(std::unique(facts.begin(), facts.end()), facts.end());
  }
  for (const auto& [name, relation] : model.idb) {
    const std::vector<GroundTuple> got =
        relation.EnumerateGround(w_.window_lo, w_.window_hi);
    if (got != expected[name]) {
      Mismatch("closed form of " + name + " has " +
               std::to_string(got.size()) + " ground tuples in the window, "
               "the ground oracle " + std::to_string(expected[name].size()));
    }
  }

  const int64_t width = w_.window_hi - w_.window_lo;
  for (size_t qi = 0; qi < std::min<size_t>(64, w_.queries.size()); ++qi) {
    QuerySpec q = w_.queries[qi];
    for (std::optional<int64_t>& t : q.times) {
      if (t) *t = w_.window_lo + (*t % width);
    }
    StatusOr<GeneralizedRelation> answer = lrpdb::QueryAtom(
        unit->program, db, model, ToAtom(q, unit), EvalOptions());
    if (!calls_.Ok(kQuery, answer.status())) continue;
    // Expected: matching ground facts projected onto the open columns.
    std::vector<GroundTuple> want;
    for (const GroundTuple& g : expected[q.relation]) {
      GroundTuple row;
      bool match = true;
      for (size_t i = 0; i < q.times.size() && match; ++i) {
        if (q.times[i]) {
          match = g.times[i] == *q.times[i];
        } else {
          row.times.push_back(g.times[i]);
        }
      }
      for (size_t i = 0; i < q.data.size() && match; ++i) {
        if (q.data[i]) {
          match = db.interner().NameOf(g.data[i]) == *q.data[i];
        } else {
          row.data.push_back(g.data[i]);
        }
      }
      if (match) want.push_back(std::move(row));
    }
    std::sort(want.begin(), want.end());
    want.erase(std::unique(want.begin(), want.end()), want.end());
    const std::vector<GroundTuple> got =
        answer->EnumerateGround(w_.window_lo, w_.window_hi);
    if (got != want) {
      Mismatch("query " + std::to_string(qi) + " answered " +
               std::to_string(got.size()) + " ground tuples, oracle " +
               std::to_string(want.size()));
    }
  }
}

bool Bench::LiveAdd(LiveState* live, int64_t index) {
  const std::vector<Fact> facts = w_.LiveBatch(index);
  Registry registry;
  const bool traced = spans_.recording();
  if (traced) registry.Mark();
  const Meter meter;
  bool ok = false;
  {
    Spans::Scope op(&spans_, "op.add");
    const lrpdb::storage::FactBatch batch = ToBatch(facts, nullptr);
    Status appended;
    {
      Spans::Scope span(&spans_, "storage.wal.append");
      appended = Meter::Io([&] { return live->store.AppendBatch(batch); });
    }
    if (calls_.Ok(kAdd, appended)) {
      std::vector<FactUpdate> updates = ToUpdates(facts, live->db.get());
      Spans::Scope span(&spans_, "core.incremental.add");
      ok = calls_.Ok(kAdd, live->inc->AddFacts(updates));
    }
  }
  const double ms = meter.Ms();
  if (ok) add_ms_.push_back(ms);
  if (traced) {
    wal_bytes_.push_back(static_cast<double>(
        registry.Delta({"store.wal.appended_bytes"}, {})
            .at("store.wal.appended_bytes")));
  }
  return ok;
}

bool Bench::LiveRetract(LiveState* live, int64_t index) {
  const std::vector<Fact> facts = w_.LiveBatch(index);
  Registry registry;
  const bool traced = spans_.recording();
  Census before;
  if (traced) {
    registry.Mark();
    before = TakeCensus(*live->inc);
  }
  const Meter meter;
  bool ok = false;
  {
    Spans::Scope op(&spans_, "op.retract");
    const lrpdb::storage::FactBatch batch = ToBatch(facts, nullptr);
    Status appended;
    {
      Spans::Scope span(&spans_, "storage.wal.append");
      appended =
          Meter::Io([&] { return live->store.AppendRetractBatch(batch); });
    }
    if (calls_.Ok(kRetract, appended)) {
      std::vector<FactUpdate> updates = ToUpdates(facts, live->db.get());
      Spans::Scope span(&spans_, "core.incremental.retract");
      ok = calls_.Ok(kRetract, live->inc->RetractFacts(updates));
    }
  }
  const double ms = meter.Ms();
  if (ok) retract_ms_.push_back(ms);
  if (traced && ok) {
    const Census after = TakeCensus(*live->inc);
    // bench_i1's census: tombstoned (retracted + over-deleted) plus
    // re-inserted entries.
    touched_.push_back(static_cast<double>(
        ((after.entries - after.live) - (before.entries - before.live)) +
        (after.entries - before.entries)));
    const auto delta = registry.Delta(
        {"eval.inc.over_deleted", "eval.inc.rederived",
         "eval.inc.resume_rounds", "store.wal.appended_bytes"},
        {});
    over_deleted_.push_back(delta.at("eval.inc.over_deleted"));
    rederived_.push_back(delta.at("eval.inc.rederived"));
    resume_rounds_.push_back(delta.at("eval.inc.resume_rounds"));
    wal_bytes_.push_back(delta.at("store.wal.appended_bytes"));
  }
  return ok;
}

void Bench::Checkpoint(LiveState* live) {
  Registry registry;
  const bool traced = spans_.recording();
  if (traced) registry.Mark();
  Spans::Scope op(&spans_, "op.checkpoint");
  Status written;
  {
    Spans::Scope span(&spans_, "storage.snapshot.write");
    written = Meter::Io([&] { return live->store.WriteSnapshot(); });
  }
  if (!calls_.Ok(kCheckpoint, written)) return;
  {
    Spans::Scope span(&spans_, "storage.store.compact");
    if (!calls_.Ok(kCheckpoint,
                     Meter::Io([&] { return live->store.Compact(); }))) {
      return;
    }
  }
  if (traced) {
    snapshot_bytes_.push_back(static_cast<double>(
        registry.Delta({"store.snapshot.written_bytes"}, {})
            .at("store.snapshot.written_bytes")));
  }
}

// One live tick: a durable add, a batch of reads, a durable retract of the
// oldest batch once more than `outstanding` are live, and a checkpoint
// every `checkpoint_every` ticks.
void Bench::Tick(LiveState* live, int64_t tick) {
  const bool traced = TraceOp(tick);
  // The reads: probes of facts the live batches wrote (Workload::Probe), so
  // reads see the writes -- two of the batch this tick adds and one of the
  // oldest outstanding batch must be found, one of the last retracted batch
  // must not -- and the rest from the query pool. Built before the tick is
  // timed, from the state before its add.
  std::vector<QuerySpec> reads;
  std::vector<std::pair<int64_t, bool>> probed;  // (batch, expect found)
  auto probe = [&](int64_t batch, bool live_fact) {
    const std::vector<Fact> facts = w_.LiveBatch(batch);
    const int64_t k =
        tick * kProbesPerTick + static_cast<int64_t>(reads.size());
    reads.push_back(w_.Probe(facts[static_cast<size_t>(k) % facts.size()], k));
    probed.emplace_back(batch, live_fact);
  };
  const int64_t added = tick - 1;
  probe(added, true);
  probe(added, true);
  if (!outstanding_.empty()) probe(outstanding_.front(), true);
  if (last_retracted_) probe(*last_retracted_, false);
  for (QuerySpec& q :
       PoolQueries(kQueriesPerTick - static_cast<int>(probed.size()))) {
    reads.push_back(std::move(q));
  }

  refs_.Probe();
  const Meter meter;
  int64_t ops = 1;
  spans_.set_recording(traced);
  const bool add_ok = LiveAdd(live, added);
  if (add_ok) outstanding_.push_back(added);
  spans_.set_recording(false);
  const std::vector<std::optional<bool>> found = Queries(
      live->unit.get(), *live->db, live->inc->Result(), reads, traced);
  ops += kQueriesPerTick;
  bool retracted = false;
  if (static_cast<int>(outstanding_.size()) > w_.outstanding) {
    spans_.set_recording(traced);
    retracted = LiveRetract(live, outstanding_.front());
    spans_.set_recording(false);
    last_retracted_ = retracted ? std::optional<int64_t>(outstanding_.front())
                                : std::nullopt;
    outstanding_.pop_front();
    ++ops;
  }
  if (tick % w_.checkpoint_every == 0) {
    spans_.set_recording(traced);
    Checkpoint(live);
    spans_.set_recording(false);
    ++ops;
  }
  const double tick_ms = meter.Ms();
  for (size_t i = 0; i < probed.size(); ++i) {
    const auto [batch, want] = probed[i];
    // A failed call is counted already; a failed add leaves nothing to find.
    if (!found[i] || (batch == added && !add_ok)) continue;
    if (*found[i] != want) {
      Mismatch("tick " + std::to_string(tick) + ": a fact of live batch " +
               std::to_string(batch) +
               (want ? " is missing from" : " is still in") +
               " the maintained model");
    }
  }
  if (tick % w_.checkpoint_every == 0) {
    int64_t live_facts = 0;
    for (const std::string& name : live->store_db->RelationNames()) {
      StatusOr<const GeneralizedRelation*> rel = live->store_db->Relation(name);
      if (rel.ok()) {
        live_facts += static_cast<int64_t>((*rel)->store().live_size());
      }
    }
    disk_bytes_per_fact_ =
        static_cast<double>(DirBytes(live->dir)) /
        static_cast<double>(std::max<int64_t>(1, live_facts));
  }
  live_ms_.push_back(tick_ms);
  live_ops_ += ops;
  if (opt_.trace) {
    (traced ? tick_traced_ms_ : tick_plain_ms_).push_back(tick_ms);
    if (retracted) {
      retract_live_entries_.push_back(
          static_cast<double>(TakeCensus(*live->inc).live));
    }
  }
}

// Opens the store at `dir`, parses the rules over the recovered database
// and initializes a fresh evaluator: one restart sample.
std::optional<Bench::Recovered> Bench::Restart(const fs::path& dir,
                                               bool traced, double* seconds) {
  Recovered out;
  out.db = std::make_unique<Database>();
  spans_.set_recording(traced);
  const Meter meter;
  bool ok = false;
  {
    Spans::Scope op(&spans_, "op.restart");
    StatusOr<PersistentStore> store = [&] {
      Spans::Scope span(&spans_, "storage.store.open");
      return Meter::Io(
          [&] { return PersistentStore::Open(dir.string(), out.db.get()); });
    }();
    if (calls_.Ok(kRestart, store.status())) {
      replayed_records_ =
          static_cast<int64_t>(store->recovery_info().replayed_records);
      StatusOr<ParsedUnit> parsed = [&] {
        Spans::Scope span(&spans_, "parser.parse_rules");
        return lrpdb::Parse(w_.RulesSource(), out.db.get());
      }();
      if (calls_.Ok(kRestart, parsed.status())) {
        out.unit = std::make_unique<ParsedUnit>(std::move(*parsed));
        out.inc = std::make_unique<IncrementalEvaluator>(
            out.unit->program, out.db.get(), EvalOptions());
        Spans::Scope span(&spans_, "core.incremental.initialize");
        ok = calls_.Ok(kRestart, out.inc->Initialize());
      }
      const Status closed = [&] {
        Spans::Scope span(&spans_, "storage.store.close");
        return Meter::Io([&] { return store->Close(); });
      }();
      ok = calls_.Ok(kRestart, closed) && ok;
    }
  }
  spans_.set_recording(false);
  if (!ok) return std::nullopt;
  if (seconds != nullptr) *seconds = meter.Ms() / 1e3;
  return out;
}

// One restart_s sample. Untraced, it runs in a fresh process, as a real
// restart does: the same Initialize in a long-lived process swings with
// that process's heap history. Traced, it runs here, inside spans.
void Bench::RestartSample(const fs::path& dir, bool traced) {
  double seconds = 0;
  if (traced) {
    if (Restart(dir, true, &seconds)) restart_s_.push_back(seconds);
    return;
  }
  const std::optional<std::string> out =
      RunSelf({"--workload", w_.name, "--seed", std::to_string(opt_.seed),
               "--restart-from", dir.string()});
  long long replayed = 0, attempted = 0, failed = 0;
  if (!out || std::sscanf(out->c_str(),
                          "restart_s=%lf replayed=%lld attempted=%lld "
                          "failed=%lld",
                          &seconds, &replayed, &attempted, &failed) != 4) {
    calls_.Ok(kRestart, lrpdb::InternalError("restart process failed"));
    return;
  }
  calls_.Add(kRestart, attempted, failed);
  replayed_records_ = replayed;
  if (failed == 0) restart_s_.push_back(seconds);
}

int Bench::RestartOnly(const fs::path& dir) {
  std::optional<Workload> w = MakeWorkload(opt_.workload, opt_.seed);
  if (!w) return 2;
  w_ = std::move(*w);
  double seconds = 0;
  Restart(dir, false, &seconds);
  std::printf("restart_s=%.17g replayed=%lld attempted=%lld failed=%lld\n",
              seconds, static_cast<long long>(replayed_records_),
              static_cast<long long>(calls_.attempted()),
              static_cast<long long>(calls_.failed()));
  return 0;
}

// Closes the live store and takes kRestartRepeats restart samples from it;
// one more recovery, here, is the correctness oracle for the maintained
// model and the durable EDB.
void Bench::RestartPhase(LiveState* live) {
  if (!calls_.Ok(kRestart, Meter::Io([&] { return live->store.Close(); }))) {
    return;
  }
  for (int r = 0; r < kRestartRepeats; ++r) {
    refs_.Probe();
    RestartSample(live->dir, TraceOp(r));
  }
  const std::optional<Recovered> last = Restart(live->dir, false, nullptr);
  if (!last) {
    Mismatch("no restart produced a model");
    return;
  }
  // Live tuples, not raw images: an empty delta window sits at a different
  // offset in a writer's database and in a recovered one.
  const std::string recovered = CanonicalEdb(*last->db);
  if (recovered != CanonicalEdb(*live->store_db)) {
    Mismatch("recovered EDB differs from the live store's");
  }
  if (recovered != CanonicalEdb(*live->db)) {
    Mismatch("recovered EDB differs from the maintained model's EDB");
  }
  // The base window, and the live windows where the batches' adds and
  // retractions left (or must not have left) derived tuples.
  std::vector<std::pair<int64_t, int64_t>> windows = w_.live_windows;
  windows.emplace_back(w_.window_lo, w_.window_hi);
  for (const auto& [lo, hi] : windows) {
    if (last->inc->Fingerprint(lo, hi) != live->inc->Fingerprint(lo, hi)) {
      Mismatch("maintained model differs from a fresh Initialize over the "
               "final EDB in [" + std::to_string(lo) + ", " +
               std::to_string(hi) + ")");
    }
  }
}

// Per-layer metrics of a traced run; an untraced run reports only the raw
// samples (run.py pools them across processes into the end-to-end
// metrics).
void Bench::Report() {
  if (!opt_.trace) return;
  auto median_span = [&](const char* name) {
    return Median(spans_.Durations(name));
  };
  Metric("parser.parse_ms", median_span("parser.parse"), "ms");
  Metric("parser.input_bytes", static_cast<double>(source_.size()), "B");
  Metric("core.normalizer.normalize_us", Median(normalize_us_), "us");
  Metric("core.evaluator.evaluate_ms", median_span("core.evaluator.evaluate"),
         "ms");
  Metric("core.evaluator.rounds", static_cast<double>(rounds_), "count");
  Metric("core.evaluator.apply_ms", Median(apply_ms_), "ms");
  Metric("core.evaluator.insert_ms", Median(insert_ms_), "ms");
  Metric("core.evaluator.finish_ms", Median(finish_ms_), "ms");
  Metric("core.evaluator.kept_ratio", kept_ratio_, "ratio");
  Metric("core.evaluator.query_us",
         Median(spans_.Durations("core.evaluator.query")) * 1e3, "us");
  double answers = 0;
  for (double a : answer_tuples_) answers += a;
  Metric("core.evaluator.query_answer_tuples",
         answers / static_cast<double>(
                       std::max<size_t>(1, answer_tuples_.size())),
         "count");
  Metric("gdb.tuple_store.signature_probes", static_cast<double>(probes_),
         "count");
  Metric("gdb.tuple_store.subsumed_ratio", subsumed_ratio_, "ratio");
  Metric("gdb.tuple_store.candidates_per_probe", candidates_per_probe_,
         "count");
  Metric("gdb.tuple_store.pruned_ratio", pruned_ratio_, "ratio");
  Metric("constraints.dbm.exec_steps", static_cast<double>(exec_steps_),
         "count");
  Metric("common.thread_pool.tasks", static_cast<double>(pool_tasks_),
         "count");
  Metric("common.thread_pool.merge_ms", Median(merge_ms_), "ms");
  Metric("common.thread_pool.parallelism", Median(parallelism_), "ratio");
  Metric("core.incremental.add_ms", median_span("core.incremental.add"), "ms");
  Metric("core.incremental.retract_ms", median_span("core.incremental.retract"),
         "ms");
  Metric("core.incremental.initialize_ms",
         median_span("core.incremental.initialize"), "ms");
  Metric("core.incremental.touched_entries", Median(touched_), "count");
  Metric("core.incremental.over_deleted", Median(over_deleted_), "count");
  Metric("core.incremental.rederived", Median(rederived_), "count");
  Metric("core.incremental.resume_rounds", Median(resume_rounds_), "count");
  Metric("core.provenance.records", static_cast<double>(prov_records_),
         "count");
  Metric("core.provenance.bytes", static_cast<double>(prov_bytes_), "B");
  Metric("storage.wal.append_ms", median_span("storage.wal.append"), "ms");
  Metric("storage.wal.bytes", Median(wal_bytes_), "B");
  Metric("storage.snapshot.write_ms", median_span("storage.snapshot.write"),
         "ms");
  Metric("storage.snapshot.bytes", Median(snapshot_bytes_), "B");
  Metric("storage.store.compact_ms", median_span("storage.store.compact"),
         "ms");
  Metric("storage.store.open_ms", median_span("storage.store.open"), "ms");
  Metric("storage.store.replayed_records",
         static_cast<double>(replayed_records_), "count");
  Metric("bench.host_ref_ms", refs_.MedianMs(), "ms");
  const auto [gap_ms, op_ms] = spans_.Unattributed();
  const double gap_ratio = gap_ms / std::max(1e-9, op_ms);
  Metric("bench.unattributed_ms", gap_ms, "ms");
  Metric("bench.unattributed_ratio", gap_ratio, "ratio");
  if (gap_ratio > kUnattributedTolerance) {
    Mismatch("layer spans leave " + std::to_string(gap_ratio * 100) +
             "% of the traced op wall unattributed");
  }
  Metric("bench.trace_overhead_solve",
         Median(solve_traced_ms_) / Median(solve_plain_ms_), "ratio");
  Metric("bench.trace_overhead_tick",
         Median(tick_traced_ms_) / Median(tick_plain_ms_), "ratio");
  // Drift check: first- vs second-half medians over the live loop.
  // Retract latencies of the traced ticks, in loop order.
  const std::vector<double> retract_ms = spans_.Durations("op.retract");
  const size_t half = retract_ms.size() / 2;
  auto half_median = [&](const std::vector<double>& v, bool second) {
    const size_t mid = std::min(half, v.size());
    return Median(second ? std::vector<double>(v.begin() + mid, v.end())
                         : std::vector<double>(v.begin(), v.begin() + mid));
  };
  Metric("bench.retract_ms_half1", half_median(retract_ms, false), "ms");
  Metric("bench.retract_ms_half2", half_median(retract_ms, true), "ms");
  Metric("bench.live_entries_half1",
         half_median(retract_live_entries_, false), "count");
  Metric("bench.live_entries_half2", half_median(retract_live_entries_, true),
         "count");
}

int Bench::Run() {
  std::error_code ec;
  fs::create_directories(opt_.workdir, ec);
  if (ec) {
    std::fprintf(stderr, "lrpbench: cannot create %s\n", opt_.workdir.c_str());
    return 1;
  }
  const Clock::time_point start = Clock::now();
  std::optional<LiveState> live;
  for (int r = 0; r < kSetupRepeats; ++r) {
    live.reset();
    live = Setup(r);
    if (!live) break;
  }
  const Clock::time_point setup_end = Clock::now();
  if (!live) {
    std::fprintf(stderr, "lrpbench: set-up failed: %s\n",
                 calls_.first_error().c_str());
    return 1;
  }
  // Solves interleaved with the live loop's ticks, and each solve's reads
  // of its closed form spread over the ticks that follow it, so samples of
  // every kind span the run and see the same drift of the host's speed
  // (one solve's reads back to back last about 35 ms, and would see that
  // moment's speed only). The loop ends half a checkpoint interval after a
  // checkpoint, with at least two behind, so the restart replays a WAL
  // tail of known length.
  const int64_t solves = std::max<int64_t>(
      kMinSolves,
      std::llround(opt_.seconds * w_.solve_share / w_.solve_seconds));
  const int64_t ticks = std::llround(opt_.seconds * (1 - w_.solve_share) /
                                     w_.tick_seconds);
  const int64_t reads = w_.queries_per_solve;
  int64_t tick = 0;
  for (int64_t i = 0; i < solves; ++i) {
    Solve(i);
    const int64_t until = ticks * (i + 1) / solves;
    const int64_t steps = std::max<int64_t>(1, until - tick);
    for (int64_t j = 0; j < steps; ++j) {
      if (tick < until) Tick(&*live, ++tick);
      if (last_solve_) {
        Queries(last_solve_->unit.get(), *last_solve_->db, last_solve_->model,
                PoolQueries(static_cast<int>(reads * (j + 1) / steps -
                                             reads * j / steps)),
                TraceOp(i));
      }
    }
  }
  const int tail = w_.checkpoint_every / 2;
  while (tick < 2 * w_.checkpoint_every + tail ||
         tick % w_.checkpoint_every != tail) {
    Tick(&*live, ++tick);
  }
  const Clock::time_point loop_end = Clock::now();
  if (live->inc->provenance() != nullptr) {
    prov_records_ = live->inc->provenance()->records();
    prov_bytes_ = live->inc->provenance()->approx_bytes();
  }
  if (last_solve_) {
    OracleCheck(*last_solve_->db, last_solve_->unit.get(), last_solve_->model);
  } else {
    Mismatch("no solve produced a model");
  }
  const Clock::time_point oracle_end = Clock::now();
  RestartPhase(&*live);
  live.reset();
  fs::remove_all(opt_.workdir, ec);
  Report();

  std::fprintf(stderr,
               "lrpbench: %s seed=%llu trace=%d wall=%.1fs (set-up %.1f, "
               "loop %.1f, oracle %.1f, restart %.1f) solves=%zu "
               "queries=%zu adds=%zu retracts=%zu calls[%s]\n",
               w_.name.c_str(), static_cast<unsigned long long>(opt_.seed),
               opt_.trace ? 1 : 0, MsBetween(start, Clock::now()) / 1e3,
               MsBetween(start, setup_end) / 1e3,
               MsBetween(setup_end, loop_end) / 1e3,
               MsBetween(loop_end, oracle_end) / 1e3,
               MsBetween(oracle_end, Clock::now()) / 1e3,
               solve_s_.size(), query_us_.size(), add_ms_.size(),
               retract_ms_.size(), calls_.Summary().c_str());
  if (!calls_.first_error().empty()) {
    std::fprintf(stderr, "lrpbench: first error: %s\n",
                 calls_.first_error().c_str());
  }
  auto number = [](double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return std::string(buf);
  };
  auto list = [&](const std::vector<double>& v) {
    std::string out = "[";
    for (size_t i = 0; i < v.size(); ++i) out += (i ? ", " : "") + number(v[i]);
    return out + "]";
  };
  // Every series, at the nominal host speed or raw. live_s is the loop's
  // total time, for ops_per_s.
  auto samples = [&](std::vector<double> (Series::*get)() const) {
    double live_ms = 0;
    for (double ms : (live_ms_.*get)()) live_ms += ms;
    return "{\"setup_s\": " + list((setup_s_.*get)()) +
           ", \"solve_s\": " + list((solve_s_.*get)()) +
           ", \"query_us\": " + list((query_us_.*get)()) +
           ", \"add_ms\": " + list((add_ms_.*get)()) +
           ", \"retract_ms\": " + list((retract_ms_.*get)()) +
           ", \"restart_s\": " + list((restart_s_.*get)()) +
           ", \"live_s\": " + number(live_ms / 1e3) + "}";
  };
  std::string json =
      "{\"correct\": " + std::string(correct_ ? "true" : "false") +
      ", \"attempted\": " + std::to_string(calls_.attempted()) +
      ", \"failed\": " + std::to_string(calls_.failed()) +
      ", \"samples\": " + samples(&Series::Adjusted) +
      ", \"raw_samples\": " + samples(&Series::Raw) +
      ", \"scalars\": {\"live_ops\": " +
      number(static_cast<double>(live_ops_)) +
      ", \"peak_rss_mb\": " + number(PeakRssMb()) +
      ", \"closed_form_tuples\": " +
      number(static_cast<double>(closed_form_tuples_)) +
      ", \"disk_bytes_per_fact\": " + number(disk_bytes_per_fact_) +
      ", \"host_ref_ms\": " + number(refs_.MedianMs()) + "}" +
      ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    json += (i ? ", \"" : "\"") + metrics_[i].first + "\": {\"value\": " +
            number(metrics_[i].second.first) + ", \"unit\": \"" +
            metrics_[i].second.second + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace lrpbench

int main(int argc, char** argv) {
  lrpbench::Options opt;
  bool have_workload = false;
  std::string restart_from;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      opt.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      opt.trace = value == "1";
    } else if (flag == "--workdir") {
      opt.workdir = value;
    } else if (flag == "--restart-from") {
      restart_from = value;
    } else {
      std::fprintf(stderr, "lrpbench: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  const std::vector<std::string>& names = lrpbench::WorkloadNames();
  if (have_workload && !restart_from.empty()) {
    return lrpbench::Bench(std::move(opt)).RestartOnly(restart_from);
  }
  if (!have_workload || opt.workdir.empty() ||
      std::find(names.begin(), names.end(), opt.workload) == names.end()) {
    std::fprintf(stderr,
                 "usage: lrpbench --workload {recurring-bulk|transit-closure|"
                 "live-maintenance} --seed N --seconds S --trace 0|1 "
                 "--workdir DIR\n");
    return 2;
  }
  return lrpbench::Bench(std::move(opt)).Run();
}
