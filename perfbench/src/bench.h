// Shared machinery of the dyncq benchmark binary: clocks, the percentile
// rule, the metric report, the span tracer, packed pre-generated command
// pools and the churn generator. Workloads live in workload_*.cc.
#ifndef DYNCQ_PERFBENCH_BENCH_H_
#define DYNCQ_PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "core/engine.h"
#include "cq/schema.h"
#include "storage/database.h"
#include "storage/update.h"
#include "util/hash.h"
#include "util/open_hash_map.h"
#include "util/rng.h"

namespace perfbench {

using dyncq::RelId;
using dyncq::Tuple;
using dyncq::UpdateCmd;
using dyncq::UpdateStream;

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Live heap bytes (mallinfo2: in-use arena chunks plus mmapped blocks).
std::size_t HeapInUse();

// ---------------------------------------------------------------- stats

/// One reported quantile: its value, the percentile actually used, the
/// sample count and how many samples lie strictly beyond its rank.
struct Quantile {
  double value = 0;
  double p = 0;
  std::size_t n = 0;
  std::size_t beyond = 0;
};

/// The reporting rule for timings: the median, or — for a tail
/// percentile — the highest percentile not above `target_p` that keeps
/// at least `kMinBeyond` samples strictly beyond its rank (never below
/// the median). Values interpolate linearly between ranks; `samples` is
/// sorted in place. Empty input yields a zero Quantile with n == 0.
inline constexpr std::size_t kMinBeyond = 10;
Quantile TailQuantile(std::vector<double>* samples, double target_p);

/// True iff `name` is a legal metric name: starts with a letter or
/// digit, at most 64 characters from [A-Za-z0-9_.-].
bool IsValidMetricName(const std::string& name);

/// Collects metrics, notes and the failure tally, and prints the result:
/// human-readable lines, then one JSON object as the last line.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  /// Sets a timing metric from samples (see TailQuantile) and notes the
  /// sample count behind it. `scale` converts the samples' unit.
  void SetQuantile(const std::string& name, std::vector<double>* samples,
                   double target_p, const std::string& unit,
                   double scale = 1.0);
  void Note(const std::string& line) { notes_.push_back(line); }

  /// Counts one attempted operation; `Fail` counts one failed one.
  void Attempt(std::uint64_t n = 1) { attempted_ += n; }
  void Fail(const std::string& what);
  /// An oracle mismatch: a failed operation that also marks the run
  /// incorrect (the binary exits non-zero).
  void Mismatch(const std::string& what);

  bool correct() const { return correct_; }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

  void Print(std::ostream& os) const;

 private:
  struct Metric {
    double value;
    std::string unit;
  };
  std::map<std::string, Metric> metrics_;
  std::vector<std::string> notes_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool correct_ = true;
};

// ---------------------------------------------------------------- trace

/// Span names: one per layer boundary the benchmark brackets.
enum class SpanName : std::uint16_t {
  kOp,              // one end-to-end operation of the real system
  kSessionApply,    // QuerySession::Apply (+ Count in session_churn)
  kSessionStage,    // UpdateBatch::Add over one batch
  kSessionCommit,   // UpdateBatch::Commit
  kCursorOpen,      // NewCursor
  kCursorFirstNext, // first Cursor::Next
  kCursorDrain,     // remaining Next calls of a drain
  kSnapshotOpen,    // NewCursor({snapshot}) / PinEpoch+NewSnapshotCursor
  kSnapshotRelease, // snapshot cursor destruction / UnpinEpoch
  kRegApplyDelta,   // QueryRegistry::ApplyDelta
  kRegApplyBatch,   // QueryRegistry::ApplyBatch
  kRegRegister,     // QueryRegistry::Register
  kRegRelease,      // QueryHandle::Release
  kShadow,          // shadow replay of one command / batch
  kStorageApply,    // Database::Apply
  kStorageLoad,     // Database::ApplyAll of the preload
  kCorePrepare,     // Engine::PrepareSharedWrite
  kCoreFork,        // the same call when it forks a pinned version
  kCoreApplyDelta,  // Engine::ApplySharedDelta
  kCoreApplyDeltas, // Engine::ApplySharedDeltas
  kCorePreload,     // Engine::CreateShared on loaded storage
  kCqCanonicalKey,  // CanonicalQueryKey
  kCqAnalyze,       // AnalyzeQuery
  kCount
};
const char* SpanNameStr(SpanName n);

struct Span {
  std::int64_t start = 0;
  std::int64_t end = 0;
  std::uint32_t parent = 0;  // index + 1 of the parent span; 0 = root
  std::uint32_t cmd = 0;     // operation id shared by one command's spans
  SpanName name = SpanName::kOp;
  std::uint32_t items = 1;   // commands / tuples the span covers
};

/// In-memory span log. Disabled tracers record nothing and cost one
/// branch per call. Ids are index + 1 so 0 means "no span".
class Tracer {
 public:
  Tracer(bool enabled, std::size_t capacity);

  bool enabled() const { return enabled_; }
  bool full() const { return size_ >= capacity_; }

  std::uint32_t Open(SpanName name, std::uint32_t cmd,
                     std::uint32_t parent = 0) {
    if (!enabled_ || paused_ || size_ == spans_.size()) return 0;
    spans_[size_] = Span{NowNs(), 0, parent, cmd, name, 1};
    return static_cast<std::uint32_t>(++size_);
  }
  void Close(std::uint32_t id, std::uint32_t items = 1) {
    if (id == 0) return;
    Span& s = spans_[id - 1];
    s.end = NowNs();
    s.items = items;
  }
  /// Pauses recording (untraced rounds of a traced run).
  void set_paused(bool paused) { paused_ = paused; }
  bool recording() const { return enabled_ && !paused_; }

  /// The recorded spans (trims the preallocated log).
  const std::vector<Span>& spans() {
    spans_.resize(size_);
    return spans_;
  }
  const Span& span(std::uint32_t id) const { return spans_[id - 1]; }

  /// Writes the log as TSV (id, parent, cmd, name, start, end, items).
  bool WriteTsv(const std::string& path) const;

 private:
  bool enabled_;
  bool paused_ = false;
  std::size_t capacity_;
  // Allocated and touched up front, so recording a span never takes a
  // page fault or reallocates inside a measured call.
  std::vector<Span> spans_;
  std::size_t size_ = 0;
};

/// RAII span; a null tracer or a paused one records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* t, SpanName name, std::uint32_t cmd,
             std::uint32_t parent = 0)
      : t_(t), id_(t->Open(name, cmd, parent)) {}
  ~ScopedSpan() { t_->Close(id_, items_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  std::uint32_t id() const { return id_; }
  void set_items(std::uint32_t n) { items_ = n; }

 private:
  Tracer* t_;
  std::uint32_t id_;
  std::uint32_t items_ = 1;
};

/// The traced run's deferred shadow replay, shared by the rigs. Events
/// are queued and replayed at once in traced rounds, so their spans land
/// in the round, and at the end of untraced rounds, outside every timed
/// window; either way the shadow sees the real system's order.
template <typename Event>
class DeferredShadow {
 public:
  DeferredShadow(Tracer* tracer, std::function<void(const Event&)> replay)
      : tracer_(tracer), replay_(std::move(replay)) {}

  /// Starts a round: a traced run records spans in traced rounds only.
  void BeginRound(bool traced) {
    traced_round_ = traced && tracer_->enabled();
    tracer_->set_paused(!traced_round_);
  }
  /// Ends a round: replays the events the round deferred.
  void EndRound() {
    Flush();
    tracer_->set_paused(false);
  }
  bool traced_round() const { return traced_round_; }

  void Push(Event e) {
    queue_.push_back(std::move(e));
    if (traced_round_) Flush();
  }
  void Flush() {
    for (const Event& e : queue_) replay_(e);
    queue_.clear();
  }

 private:
  Tracer* tracer_;
  std::function<void(const Event&)> replay_;
  std::vector<Event> queue_;
  bool traced_round_ = false;
};

/// Runs `fn` and returns its duration in ns: as a span when the tracer
/// records, else between two clock reads (the same cost either way).
template <typename Fn>
double Timed(Tracer* t, SpanName name, std::uint32_t cmd,
             std::uint32_t parent, Fn&& fn) {
  if (const std::uint32_t id = t->Open(name, cmd, parent); id != 0) {
    fn();
    t->Close(id);
    const Span& s = t->span(id);
    return static_cast<double>(s.end - s.start);
  }
  const std::int64_t t0 = NowNs();
  fn();
  return static_cast<double>(NowNs() - t0);
}

/// Self time of every span: its duration minus the union of its direct
/// children's intervals (clipped to the parent's). Grandchildren are
/// already inside their own parent, so nesting never double-subtracts.
std::vector<std::int64_t> SelfTimes(const std::vector<Span>& spans);

/// Per-name view over a span log.
struct SpanTable {
  explicit SpanTable(const std::vector<Span>& spans);
  /// Self times (ns) of spans named `n`, divided by each span's `items`.
  std::vector<double> SelfPerItem(SpanName n) const;
  /// Durations (ns) of spans named `n`.
  std::vector<double> Durations(SpanName n) const;
  /// Sum of self times of spans that have at least one child, over the
  /// sum of their durations.
  double UnattributedShare() const;
  /// Per command id: total self time of spans named in `names`.
  std::map<std::uint32_t, std::int64_t> SelfByCmd(
      std::initializer_list<SpanName> names) const;

  const std::vector<Span>& spans;
  std::vector<std::int64_t> self;
  std::vector<char> has_child;
};

// ------------------------------------------------------------ commands

/// A pre-generated command pool stored packed — one header word (rel,
/// kind, arity) plus one uint32 per value — read front to back, wrapping
/// around, by a PoolReader. Decoding into a reusable UpdateCmd happens
/// outside every timed window.
class CommandPool {
 public:
  void Push(const UpdateCmd& cmd);
  std::size_t size() const { return count_; }

 private:
  friend class PoolReader;
  std::vector<std::uint32_t> words_;
  std::size_t count_ = 0;
};

class PoolReader {
 public:
  explicit PoolReader(const CommandPool& pool) : pool_(pool) {}
  /// Full passes over the pool completed so far.
  std::size_t passes() const { return passes_; }
  std::size_t taken() const { return taken_; }
  /// Decodes the next command, wrapping to the start after the last.
  void Next(UpdateCmd* out);
  /// Decodes the next `n` commands into `out`.
  void Take(std::size_t n, std::vector<UpdateCmd>* out);

 private:
  const CommandPool& pool_;
  std::size_t word_ = 0;
  std::size_t taken_ = 0;
  std::size_t passes_ = 0;
};

/// Churn over a loaded database: each command is, with probability
/// `noop_ratio`, a no-op (re-insert of a live tuple or delete of an
/// absent one), else an insert of an absent random tuple with
/// probability `insert_ratio`, else a delete of a uniformly random live
/// tuple. Relations are drawn uniformly. Seeded from the live tuples of
/// the preload so deletes reach the whole database, not only recent
/// inserts.
class ChurnGen {
 public:
  ChurnGen(std::shared_ptr<const dyncq::Schema> schema, std::uint64_t seed,
           std::size_t domain, double insert_ratio, double noop_ratio);
  void AddLive(RelId rel, const Tuple& t);
  UpdateCmd Next();
  UpdateCmd NextFor(RelId rel);
  /// Whether the last command returned was a no-op on the tracked
  /// database state.
  bool last_noop() const { return last_noop_; }

 private:
  Tuple RandomTuple(RelId rel);
  std::shared_ptr<const dyncq::Schema> schema_;
  dyncq::Rng rng_;
  std::size_t domain_;
  double insert_ratio_;
  double noop_ratio_;
  std::vector<std::vector<Tuple>> live_;
  std::vector<dyncq::OpenHashMap<Tuple, std::size_t, dyncq::TupleHash>>
      index_;
  bool last_noop_ = false;
};

/// A closed churn cycle: `half` commands from `next()`, then their undo in
/// reverse order (each effective command inverted, each no-op repeated).
/// One full pass leaves the database as it found it, so a PoolReader can
/// replay the pool for as long as a run lasts without the database
/// drifting in size or composition, and the pool's memory does not grow
/// with --seconds. Fills `pool`; returns each command's `tag` (whatever
/// the caller recorded for it, e.g. the reader it targets) in pool order.
template <typename NextFn>
std::vector<std::uint32_t> BuildClosedCycle(ChurnGen* gen, std::size_t half,
                                            NextFn&& next,
                                            CommandPool* pool) {
  std::vector<UpdateCmd> first;
  std::vector<char> noop;
  std::vector<std::uint32_t> tags;
  first.reserve(half);
  for (std::size_t i = 0; i < half; ++i) {
    std::uint32_t tag = 0;
    first.push_back(next(&tag));
    noop.push_back(gen->last_noop() ? 1 : 0);
    tags.push_back(tag);
  }
  for (const UpdateCmd& c : first) pool->Push(c);
  for (std::size_t i = half; i-- > 0;) {
    UpdateCmd c = first[i];
    if (!noop[i]) {
      c.kind = c.kind == dyncq::UpdateKind::kInsert
                   ? dyncq::UpdateKind::kDelete
                   : dyncq::UpdateKind::kInsert;
    }
    pool->Push(c);
    tags.push_back(tags[i]);
  }
  return tags;
}

/// Run options shared by every workload.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;  // TSV path for the span log ("" = none)
};

inline constexpr int kSetupReps = 7;
/// Span log cap of a traced run (32 B/span); a traced run stops early
/// when its log is full.
inline constexpr std::size_t kSpanCapacity = std::size_t{2} << 20;

/// End-to-end samples every workload collects (ns unless noted).
struct E2eSamples {
  std::vector<double> update;          // one single update
  std::vector<double> update_traced;   // same, traced rounds of a traced run
  std::vector<double> batch_per_cmd;   // one batch commit / its commands
  std::vector<double> first_tuple;     // NewCursor + first Next
  std::vector<double> enum_per_tuple;  // live read / tuples read
  std::vector<double> snap_per_tuple;  // snapshot read / tuples read
  std::vector<double> snapshot_write;  // first write under a pin
  std::vector<double> pin;             // snapshot open
  std::vector<double> reg;             // Register
  std::vector<double> setup;           // seconds
  std::size_t heap0 = 0;
  std::size_t heap_max = 0;
  void SampleHeap() {
    const std::size_t h = HeapInUse();
    if (h > heap_max) heap_max = h;
  }
  void Reserve(std::size_t n);
};

/// Emits every end-to-end metric from `s` (medians, and p99 by the
/// reporting rule).
void EmitE2eMetrics(E2eSamples* s, Report* report);

/// Counters and samples behind the per-layer metrics that spans alone
/// do not give. Fields a workload does not exercise stay zero, and so
/// do the metrics computed from them.
struct LayerInputs {
  std::vector<const dyncq::core::Engine*> engines;  // real engines
  std::size_t num_tuples = 0;    // |D| of the real storage at the end
  std::size_t retired_max = 0;   // largest RetiredBlocks() sample
  std::uint64_t cmds = 0;        // commands attempted while measuring
  std::uint64_t effective = 0;   // of those, the ones that changed D
  std::uint64_t probes = 0;      // TotalRelationProbes() delta
  std::uint64_t staged = 0;      // commands staged in UpdateBatches
  std::uint64_t annihilated = 0;
  std::uint64_t deduped = 0;
  std::uint64_t deltas = 0;         // RegistryStats deltas_applied delta
  std::uint64_t notifications = 0;  // RegistryStats notifications delta
  double engines_per_registration = 0;
  std::vector<double> reg_join;   // Register calls that joined (ns)
  std::vector<double> reg_build;  // Register calls that built (ns)
  double gen_s = 0;
};
/// `e2e` supplies the untraced and traced single-update samples behind
/// trace.overhead_share.
void EmitLayerMetrics(const LayerInputs& in, const E2eSamples& e2e,
                      const SpanTable& spans, Report* report);

void RunSessionChurn(const RunConfig& cfg, Report* report);
void RunSnapshotReaders(const RunConfig& cfg, Report* report);
void RunRegistryFanout(const RunConfig& cfg, Report* report);
int RunSelfTest();

/// The sorted result of a cursor drain, for oracle comparisons.
std::vector<Tuple> SortedTuples(std::vector<Tuple> v);

}  // namespace perfbench

#endif  // DYNCQ_PERFBENCH_BENCH_H_
