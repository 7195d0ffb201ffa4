// One QuerySession under measurement, plus what the session workloads
// share: the e2e sample sets, the subscriber-registration probe, and —
// in traced runs — a shadow that replays the same commands through the
// shared-storage protocol so storage and core time is measured at their
// own public functions.
#ifndef DYNCQ_PERFBENCH_SESSION_RIG_H_
#define DYNCQ_PERFBENCH_SESSION_RIG_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench.h"
#include "core/engine.h"
#include "core/session.h"
#include "cq/query.h"
#include "serve/query_registry.h"

namespace perfbench {

/// Shadow of one q-tree engine over its own Database, driven through
/// PrepareSharedWrite -> Database::Apply -> ApplySharedDelta(s).
class ShadowEngine {
 public:
  ShadowEngine(const dyncq::Query& q, const UpdateStream& preload,
               Tracer* tracer);
  void Apply(const UpdateCmd& cmd, std::uint32_t id);
  void ApplyNet(const std::vector<UpdateCmd>& net, std::uint32_t id);
  void Pin();
  void Unpin();
  dyncq::Weight Count() { return engine_->Count(); }

 private:
  void Prepare(std::uint32_t id, std::uint32_t parent);
  Tracer* tracer_;
  dyncq::Database db_;
  std::unique_ptr<dyncq::core::Engine> engine_;
  std::optional<std::uint64_t> epoch_;
  bool fork_pending_ = false;
  std::vector<dyncq::core::PendingDelta> pending_;
};

/// The net delta UpdateBatch::Commit hands the engine for `staged`
/// (inverse pairs annihilate, same-direction repeats dedup).
std::vector<UpdateCmd> NetDelta(const std::vector<UpdateCmd>& staged);

class SessionRig {
 public:
  SessionRig(const dyncq::Query& q, Tracer* tracer, Report* report,
             E2eSamples* e2e);

  /// Builds the session `kSetupReps` times from `preload` (storage load
  /// + session construction), keeping the last; then the shadow.
  void Setup(const UpdateStream& preload);

  /// Starts a round: traced runs trace every other round.
  void BeginRound(bool traced) { deferred_.BeginRound(traced); }
  /// Ends a round: replays the shadow events the round deferred.
  void EndRound() { deferred_.EndRound(); }

  /// One single update (Apply, then Count when `with_count`); `as_fork`
  /// records it as a first write under a pin.
  void Update(const UpdateCmd& cmd, bool with_count, bool as_fork);
  void Batch(const std::vector<UpdateCmd>& cmds);
  void FirstTuple();
  /// Reads up to `limit` tuples of a live cursor (0 = drain).
  void LiveRead(std::size_t limit);
  /// Opens a pinned snapshot cursor; Count() at the pin is remembered.
  /// `sample`: whether its time is a pin_us_p50 sample.
  void Pin(bool sample = true);
  /// Reads up to `limit` tuples (0 = drain and check the pinned count).
  void SnapshotRead(std::size_t limit);
  void Release();
  /// Registers `variants` into the subscriber registry, then releases.
  void RegisterProbe(const std::vector<dyncq::Query>& variants);

  /// Final oracle: Count and sorted Materialize against the baseline
  /// evaluator; the shadow's Count must equal the real one.
  void Check();
  /// Emits the per-layer metrics (traced runs).
  void LayerMetrics(const SpanTable& table, double gen_s);

 private:
  struct Event {
    enum Kind { kCmd, kNet, kPin, kUnpin } kind;
    std::uint32_t id;
    std::vector<UpdateCmd> cmds;
  };
  void Replay(const Event& e);
  std::uint32_t NextId() { return ++next_id_; }

  dyncq::Query q_;
  Tracer* tracer_;
  Report* report_;
  E2eSamples* e2e_;
  std::unique_ptr<dyncq::QuerySession> session_;
  dyncq::core::Engine* engine_ = nullptr;
  std::unique_ptr<ShadowEngine> shadow_;
  DeferredShadow<Event> deferred_;
  std::uint32_t next_id_ = 0;
  LayerInputs layer_;        // counters for the per-layer metrics
  std::uint64_t probes0_ = 0;  // TotalRelationProbes() after set-up
  dyncq::serve::QueryRegistry side_;  // subscriber registrations
  std::vector<dyncq::serve::QueryHandle> side_handles_;
  std::unique_ptr<dyncq::Cursor> snap_;
  dyncq::Weight pinned_count_ = 0;
  std::uint64_t sink_ = 0;  // keeps measured results observable
};

}  // namespace perfbench

#endif  // DYNCQ_PERFBENCH_SESSION_RIG_H_
