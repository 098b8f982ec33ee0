#include "lrpbench/workloads.h"

#include <cmath>
#include <cstdio>
#include <set>

namespace lrpbench {
namespace {

// SplitMix64: a tiny generator whose output is fixed by the seed on every
// platform (std:: distributions are not).
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  // Uniform in [0, n).
  int64_t Below(int64_t n) { return static_cast<int64_t>(Next() % n); }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

// Independent stream per (seed, purpose, index), so live batch k does not
// depend on how many base facts or queries were drawn before it.
uint64_t Mix(uint64_t seed, uint64_t purpose, uint64_t index) {
  Rng rng(seed ^ (purpose * 0xD1B54A32D192ED03ull) ^
          (index * 0x8CB92BA72F3D8DD7ull));
  return rng.Next();
}

// Zipf(s) over [0, n) by inverse transform on a precomputed CDF.
class Zipf {
 public:
  Zipf(int n, double s) : cdf_(n) {
    double total = 0;
    for (int i = 0; i < n; ++i) {
      total += 1.0 / std::pow(i + 1, s);
      cdf_[i] = total;
    }
    for (double& c : cdf_) c /= total;
  }
  int Draw(Rng& rng) const {
    const double u = rng.Unit();
    int lo = 0, hi = static_cast<int>(cdf_.size()) - 1;
    while (lo < hi) {
      const int mid = (lo + hi) / 2;
      if (cdf_[mid] < u) lo = mid + 1; else hi = mid;
    }
    return lo;
  }

 private:
  std::vector<double> cdf_;
};

std::string Name(const char* prefix, int64_t i) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%s%03lld", prefix,
                static_cast<long long>(i));
  return buf;
}

// ---- recurring-bulk / live-maintenance: the bench_i1 copy + join ----

constexpr int64_t kEvPeriod = 24;
constexpr int kItems = 512;
// Base facts end below kLiveBase; live batch k lives in its own slot of
// kLiveSlotWidth time units, a slot reused only after kLiveSlots batches
// (more than any workload keeps outstanding), so no live fact ever
// overlaps another stored fact.
constexpr int64_t kLiveBase = 30000;
constexpr int64_t kLiveSlotWidth = 24 * 700;
constexpr int kLiveSlots = 16;

constexpr char kEvDecls[] =
    ".decl ev(time, data)\n"
    ".decl derived(time, data)\n"
    ".decl joined(time, data)\n";
constexpr char kEvRules[] =
    "derived(t, N) :- ev(t, N).\n"
    "joined(t, N) :- derived(t, N), ev(t, N).\n";

// ev(24n+r, "itemK") with T1 in [lo, lo + 24 * (300..499)].
Fact EvFact(Rng& rng, int64_t lo_base) {
  Fact f;
  f.relation = "ev";
  f.lrps = {lrpdb::Lrp(kEvPeriod, rng.Below(kEvPeriod))};
  f.data = {Name("item", rng.Below(kItems))};
  f.t1_lo = lo_base + rng.Below(97);
  f.t1_hi = *f.t1_lo + kEvPeriod * (300 + rng.Below(200));
  return f;
}

Workload EvWorkload(const std::string& name, uint64_t seed, int facts) {
  Workload w;
  w.name = name;
  w.seed = seed;
  w.decls = kEvDecls;
  w.rules = kEvRules;
  Rng rng(Mix(seed, 1, 0));
  w.base.reserve(facts);
  for (int i = 0; i < facts; ++i) w.base.push_back(EvFact(rng, 0));
  // Skewed queries, item rank by Zipf(1.1): three in four at a fixed time,
  // one in four open in time. The p50 then falls inside the point-query
  // mode rather than between the two modes.
  Rng qrng(Mix(seed, 2, 0));
  Zipf zipf(kItems, 1.1);
  for (int i = 0; i < 4096; ++i) {
    QuerySpec q;
    q.relation = "joined";
    q.data = {Name("item", zipf.Draw(qrng))};
    if (i % 4 != 3) {
      q.times = {qrng.Below(kEvPeriod * 450)};
    } else {
      q.times = {std::nullopt};
    }
    w.queries.push_back(std::move(q));
  }
  // One ev period inside the span every base fact covers: each fact has
  // at most one ground point here, so the ground oracle stays small. The
  // same period inside each live slot.
  w.window_lo = 2400;
  w.window_hi = 2400 + kEvPeriod;
  for (int slot = 0; slot < kLiveSlots; ++slot) {
    const int64_t lo = kLiveBase + kLiveSlotWidth * slot + w.window_lo;
    w.live_windows.emplace_back(lo, lo + kEvPeriod);
  }
  return w;
}

// ---- transit-closure: clock-face timetable + reach ----

constexpr int kStations = 40;
constexpr int kLegsPerStation = 4;
constexpr int kMaxHop = 6;      // a leg goes 1..kMaxHop stations ahead
constexpr int64_t kHour = 60;   // every leg runs hourly
constexpr int64_t kPulse = 30;  // minutes of schedule between stations
constexpr int kLiveLegSlots = 9;  // departure slots 4..12 for live legs

constexpr char kTransitDecls[] =
    ".decl leg(time, time, data, data)\n"
    ".decl reach(time, time, data, data)\n";
// The multi-temporal reach recursion: journeys whose every transfer waits
// 5 to 30 minutes.
constexpr char kTransitRules[] =
    "reach(t1, t2, X, Y) :- leg(t1, t2, X, Y).\n"
    "reach(t1, t4, X, Z) :- reach(t1, t2, X, Y), leg(t3, t4, Y, Z),\n"
    "    t2 + 5 <= t3, t3 <= t2 + 30.\n";

// leg(dep, arr, from, to) with T2 = T1 + duration. Station i pulses at
// minute 30 * i: a leg departs `slot` minutes after the pulse and reaches
// station j 20 - 2 * (j - i) minutes before j's pulse, so a connection
// waits 8..30 minutes for slots 0..12, and each (incoming leg, outgoing
// leg) pair connects exactly once. Base legs use slots 0..3; live legs
// use slots 4..12, so no live leg duplicates a stored one.
Fact LegFact(int from, int to, int slot) {
  const int64_t dep = kPulse * from + slot;
  const int64_t arr = kPulse * to - 20 + 2 * (to - from);
  Fact f;
  f.relation = "leg";
  f.lrps = {lrpdb::Lrp(kHour, dep), lrpdb::Lrp(kHour, arr)};
  f.data = {Name("st", from), Name("st", to)};
  f.t2_minus_t1 = arr - dep;
  return f;
}

// The base network: targets[i] are the stations station i has legs to --
// the next station always, plus distinct random hops ahead.
std::vector<std::vector<int>> TransitTargets(uint64_t seed) {
  Rng rng(Mix(seed, 1, 0));
  std::vector<std::vector<int>> targets(kStations);
  for (int i = 0; i + 1 < kStations; ++i) {
    std::set<int> ahead = {i + 1};
    const int reach_end = std::min(kStations - 1, i + kMaxHop);
    const int want = std::min(kLegsPerStation, reach_end - i);
    while (static_cast<int>(ahead.size()) < want) {
      ahead.insert(i + 2 + static_cast<int>(rng.Below(reach_end - i - 1)));
    }
    targets[i].assign(ahead.begin(), ahead.end());
  }
  return targets;
}

Workload TransitWorkload(uint64_t seed) {
  Workload w;
  w.name = "transit-closure";
  w.seed = seed;
  w.threads = 2;
  w.decls = kTransitDecls;
  w.rules = kTransitRules;
  const std::vector<std::vector<int>> targets = TransitTargets(seed);
  for (int i = 0; i < kStations; ++i) {
    for (size_t k = 0; k < targets[i].size(); ++k) {
      w.base.push_back(LegFact(i, targets[i][k], static_cast<int>(k)));
    }
  }
  // Three in four queries on an origin-destination pair, one in four open
  // in the destination; origins skewed towards the network's start.
  Rng qrng(Mix(seed, 2, 0));
  Zipf zipf(kStations - 1, 0.8);
  for (int i = 0; i < 4096; ++i) {
    QuerySpec q;
    q.relation = "reach";
    q.times = {std::nullopt, std::nullopt};
    const int from = zipf.Draw(qrng);
    std::optional<std::string> to;
    if (i % 4 != 3) {
      to = Name("st", from + 1 + qrng.Below(kStations - 1 - from));
    }
    q.data = {Name("st", from), to};
    w.queries.push_back(std::move(q));
  }
  w.window_lo = 0;
  w.window_hi = 4 * kHour;
  return w;
}

}  // namespace

std::string Fact::Text() const {
  std::string out = ".fact " + relation + "(";
  for (size_t i = 0; i < lrps.size(); ++i) {
    if (i > 0) out += ", ";
    out += std::to_string(lrps[i].period()) + "n+" +
           std::to_string(lrps[i].offset());
  }
  for (const std::string& d : data) out += ", \"" + d + "\"";
  out += ")";
  std::vector<std::string> with;
  if (t1_lo) with.push_back("T1 >= " + std::to_string(*t1_lo));
  if (t1_hi) with.push_back("T1 <= " + std::to_string(*t1_hi));
  if (t2_minus_t1) with.push_back("T2 = T1 + " + std::to_string(*t2_minus_t1));
  for (size_t i = 0; i < with.size(); ++i) {
    out += (i == 0 ? " with " : ", ") + with[i];
  }
  return out + ".\n";
}

lrpdb::Dbm Fact::Constraint() const {
  lrpdb::Dbm dbm(static_cast<int>(lrps.size()));
  if (t1_lo) dbm.AddLowerBound(1, *t1_lo);
  if (t1_hi) dbm.AddUpperBound(1, *t1_hi);
  if (t2_minus_t1) dbm.AddDifferenceEquality(2, 1, *t2_minus_t1);
  return dbm;
}

std::string Workload::Source() const {
  std::string out = decls;
  out.reserve(decls.size() + rules.size() + base.size() * 64);
  for (const Fact& f : base) out += f.Text();
  return out + rules;
}

std::vector<Fact> Workload::LiveBatch(int64_t index) const {
  Rng rng(Mix(seed, 3, static_cast<uint64_t>(index)));
  std::vector<Fact> batch;
  batch.reserve(add_batch);
  if (name == "transit-closure") {
    // Extra departures on existing connections, in a slot of their own per
    // outstanding batch, one from each stretch of the network. A live leg
    // arrives like the base leg it doubles, so it adds only the journeys
    // that start with it, and every batch adds about as many.
    const std::vector<std::vector<int>> targets = TransitTargets(seed);
    const int slot = kLegsPerStation + static_cast<int>(index % kLiveLegSlots);
    for (int j = 0; j < add_batch; ++j) {
      const int lo = j * (kStations - 1) / add_batch;
      const int hi = std::max(lo + 1, (j + 1) * (kStations - 1) / add_batch);
      const int from = lo + static_cast<int>(rng.Below(hi - lo));
      const std::vector<int>& to = targets[from];
      const int64_t pick = rng.Below(static_cast<int64_t>(to.size()));
      batch.push_back(LegFact(from, to[static_cast<size_t>(pick)], slot));
    }
    return batch;
  }
  // Distinct (residue, item) signatures within a batch: no live fact is
  // absorbed by another at insert, so the store and the evaluator hold the
  // same stored tuples.
  const int64_t slot_base = kLiveBase + kLiveSlotWidth * (index % kLiveSlots);
  std::set<std::pair<int64_t, std::string>> signatures;
  while (static_cast<int>(batch.size()) < add_batch) {
    Fact f = EvFact(rng, slot_base);
    if (signatures.insert({f.lrps[0].offset(), f.data[0]}).second) {
      batch.push_back(std::move(f));
    }
  }
  return batch;
}

QuerySpec Workload::Probe(const Fact& f, int64_t k) const {
  QuerySpec q;
  if (f.relation == "leg") {
    // reach(dep, arr, from, to) at one of the leg's departures: a journey
    // leaving `from` at that minute must start with this leg, since every
    // other leg from `from` departs in another slot.
    const int64_t dep = f.lrps[0].offset() + f.lrps[0].period() * (k % 24);
    q.relation = "reach";
    q.times = {dep, dep + *f.t2_minus_t1};
    q.data = {f.data[0], f.data[1]};
    return q;
  }
  // joined(t, "itemK") at a point of f, which holds only through f: no
  // other fact of f's slot has its (residue, item) signature.
  const int64_t period = f.lrps[0].period();
  const int64_t first =
      *f.t1_lo + ((f.lrps[0].offset() - *f.t1_lo) % period + period) % period;
  q.relation = "joined";
  q.times = {first + period * (k % 300)};
  q.data = {f.data[0]};
  return q;
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "recurring-bulk", "transit-closure", "live-maintenance"};
  return names;
}

std::optional<Workload> MakeWorkload(const std::string& name, uint64_t seed) {
  if (name == "recurring-bulk") {
    Workload w = EvWorkload(name, seed, 50000);
    w.live_base = 5000;
    w.outstanding = 4;
    w.checkpoint_every = 8;
    w.queries_per_solve = 1000;
    w.solve_share = 0.45;
    w.solve_seconds = 2.0;
    w.tick_seconds = 0.12;
    return w;
  }
  if (name == "transit-closure") {
    Workload w = TransitWorkload(seed);
    w.add_batch = 4;
    w.outstanding = 2;
    w.checkpoint_every = 4;
    w.queries_per_solve = 500;
    w.solve_share = 0.5;
    w.solve_seconds = 0.45;
    w.tick_seconds = 0.35;
    return w;
  }
  if (name == "live-maintenance") {
    Workload w = EvWorkload(name, seed, 5000);
    w.queries_per_solve = 500;
    w.solve_share = 0.25;
    w.solve_seconds = 0.1;
    w.tick_seconds = 0.11;
    return w;
  }
  return std::nullopt;
}

}  // namespace lrpbench
