// QuerySession: the public, session-oriented front door to dynamic query
// evaluation.
//
// Construction runs the dichotomy-driven engine selection (core/auto_engine.h)
// and reports which strategy was chosen plus a Capabilities struct, so
// callers branch on guarantees instead of engine types. Reads go through
// status-returning Cursors (engine_iface.h) keyed on the session's
// Revision; misuse (k == 0 partitions, a result that changed mid-drain)
// surfaces as util::Result errors / CursorStatus::kInvalidated instead of
// CHECK-aborts. Updates can be staged through an UpdateBatch, whose
// in-batch net-delta pre-pass annihilates inverse insert/delete pairs
// before any Relation probe runs.
#ifndef DYNCQ_CORE_SESSION_H_
#define DYNCQ_CORE_SESSION_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/auto_engine.h"
#include "core/engine_iface.h"
#include "cq/query.h"
#include "storage/update.h"
#include "util/hash.h"
#include "util/open_hash_map.h"
#include "util/result.h"

namespace dyncq {

/// Staged update builder with an in-batch net-delta pre-pass.
///
/// A batch is an *unordered set of intended changes*, not an ordered
/// replay: staging an insert and a delete of the same tuple annihilates
/// both (and staging the same change twice dedups to one), entirely
/// inside the builder's staging table — zero Relation probes are spent on
/// cancelled work. This is the contract that makes high-churn streams
/// (where ~40% of batch cost is the per-command relation probe) cheap:
/// only the net delta ever reaches the engine's ApplyBatch pipeline.
///
/// Note the semantic difference from sequential replay: under set
/// semantics, replaying "insert t; delete t" onto a database already
/// containing t would delete t, whereas the net-delta batch leaves t
/// untouched (the two staged intentions cancel). Callers who need
/// replay semantics use QuerySession::ApplyBatch directly.
class UpdateBatch {
 public:
  UpdateBatch(UpdateBatch&&) = default;
  UpdateBatch& operator=(UpdateBatch&&) = default;

  /// Stages an insert / delete. Returns *this for chaining.
  UpdateBatch& Insert(RelId rel, Tuple t) {
    Stage(UpdateCmd::Insert(rel, std::move(t)));
    return *this;
  }
  UpdateBatch& Delete(RelId rel, Tuple t) {
    Stage(UpdateCmd::Delete(rel, std::move(t)));
    return *this;
  }
  UpdateBatch& Add(UpdateCmd cmd) {
    Stage(std::move(cmd));
    return *this;
  }

  /// Net staged commands that would reach the engine on Commit().
  std::size_t pending() const { return live_; }
  /// Inverse insert/delete pairs cancelled by the pre-pass so far.
  std::size_t annihilated() const { return annihilated_; }
  /// Same-direction duplicates absorbed by the staging table.
  std::size_t deduped() const { return deduped_; }

  /// Hands the net delta to the engine's batch pipeline and clears the
  /// builder for reuse. Returns the number of effective (database-
  /// changing) commands.
  std::size_t Commit();

  /// Drops everything staged.
  void Abort();

 private:
  friend class QuerySession;
  UpdateBatch(DynamicQueryEngine* engine, BatchOptions opts)
      : engine_(engine), opts_(opts) {}

  void Stage(UpdateCmd cmd);
  static Tuple KeyOf(const UpdateCmd& cmd) {
    Tuple key = cmd.tuple;
    key.push_back(static_cast<Value>(cmd.rel));
    return key;
  }

  struct Staged {
    UpdateCmd cmd;
    bool live = true;
  };

  DynamicQueryEngine* engine_;
  BatchOptions opts_;           // forwarded to the engine on Commit
  std::vector<Staged> staged_;  // staging order preserved for Commit
  OpenHashMap<Tuple, std::uint32_t, TupleHash> index_;  // key -> staged_ idx
  std::size_t live_ = 0;
  std::size_t annihilated_ = 0;
  std::size_t deduped_ = 0;
};

/// A live query session: owns the engine the dichotomy selected for the
/// query (q-tree, q-tree on the core, or delta-IVM — construction never
/// fails for a valid CQ) and exposes the four paper routines plus
/// partitioned enumeration and staged batches.
///
/// Ownership note: a session's engine owns a PRIVATE Database — the
/// session is the sole writer and `db()` reflects exactly the updates
/// applied through it. A q-tree engine's owned-storage Apply/ApplyBatch
/// is only the storage step around the engine's one write protocol
/// (core/engine.h); to serve MANY standing queries over one shared
/// Database (storage stored once, deltas fanned out only to affected
/// engines, structurally identical queries deduplicated behind one
/// engine), register them with a serve::QueryRegistry instead, which
/// runs the same dichotomy with shared storage and drives that protocol
/// itself. The session stays single-query on purpose: as a one-query
/// registry its delta-IVM fallback would store every tuple twice.
class QuerySession {
 public:
  /// Opens a session on an empty database.
  explicit QuerySession(const Query& q);

  /// Opens a session preloaded with `initial` (linear-time preprocessing,
  /// replayed through the engine's batch pipeline).
  QuerySession(const Query& q, const Database& initial);

  QuerySession(QuerySession&&) = default;
  QuerySession& operator=(QuerySession&&) = default;

  // ---- what the construction chose ----
  const Query& query() const { return engine_->query(); }
  const Database& db() const { return engine_->db(); }
  core::EngineStrategy strategy() const { return strategy_; }
  /// One-line rationale referencing the applicable theorem.
  const std::string& rationale() const { return rationale_; }
  Capabilities capabilities() const { return engine_->capabilities(); }
  /// Underlying engine (white-box access for benches and tests).
  DynamicQueryEngine& engine() { return *engine_; }

  // ---- updates ----
  bool Apply(const UpdateCmd& cmd) { return engine_->Apply(cmd); }
  /// Ordered replay of `cmds` through the engine's batch pipeline.
  /// `opts.shards > 1` shards the phase-A descents across worker threads
  /// on engines with a sharded pipeline (core::Engine); other engines
  /// apply sequentially regardless.
  std::size_t ApplyBatch(std::span<const UpdateCmd> cmds,
                         const BatchOptions& opts = {}) {
    return engine_->ApplyBatch(cmds, opts);
  }
  std::size_t ApplyAll(const UpdateStream& stream,
                       const BatchOptions& opts = {}) {
    return engine_->ApplyAll(stream, opts);
  }
  /// Staged builder with the net-delta pre-pass (see UpdateBatch);
  /// `opts` is forwarded to the engine's batch pipeline on Commit().
  UpdateBatch NewBatch(const BatchOptions& opts = {}) {
    return UpdateBatch(engine_.get(), opts);
  }

  // ---- reads ----
  Revision revision() const { return engine_->revision(); }
  Weight Count() { return engine_->Count(); }
  bool Answer() { return engine_->Answer(); }
  std::unique_ptr<Cursor> NewCursor() { return engine_->NewCursor(); }

  /// Options-taking cursor factory. With `opts.snapshot` the cursor is
  /// pinned to the current epoch: it enumerates exactly the result as of
  /// this call, survives subsequent writes (never kInvalidated), and
  /// releases its snapshot when destroyed. Whether the pin is O(1) or a
  /// full materialization is the snapshot_enumeration capability bit.
  [[nodiscard]] Result<std::unique_ptr<Cursor>> NewCursor(const CursorOptions& opts);

  /// Drains a fresh cursor (snapshot or live per `opts`) into a vector.
  /// Errors if a live drain is invalidated mid-way.
  [[nodiscard]] Result<std::vector<Tuple>> Materialize(const CursorOptions& opts = {});

  // ---- epoch pinning (see DynamicQueryEngine's threading contract) ----
  [[nodiscard]] Result<std::uint64_t> PinEpoch() { return engine_->PinEpoch(); }
  [[nodiscard]] Status UnpinEpoch(std::uint64_t epoch) {
    return engine_->UnpinEpoch(epoch);
  }
  [[nodiscard]] Result<std::unique_ptr<Cursor>> NewSnapshotCursor(std::uint64_t epoch) {
    return engine_->NewSnapshotCursor(epoch);
  }

  /// Splits the current result into at most `k` independent ranges (see
  /// DynamicQueryEngine::NewPartitions). Each cursor may be drained by a
  /// different thread; all are invalidated together by the next update.
  [[nodiscard]] Result<std::vector<std::unique_ptr<Cursor>>> Partitions(std::size_t k) {
    return engine_->NewPartitions(k);
  }

  /// Drains Partitions(k) on `k` threads and returns the concatenated
  /// result. Verifies that the partitions jointly produced exactly
  /// Count() tuples; with `verify_disjoint` additionally hash-checks that
  /// no tuple was emitted twice (slower; meant for tests). Errors if the
  /// result changed mid-drain (a cursor reported kInvalidated) rather
  /// than returning a torn result.
  [[nodiscard]] Result<std::vector<Tuple>> ParallelMaterialize(std::size_t k,
                                                 bool verify_disjoint = false);

 private:
  std::unique_ptr<DynamicQueryEngine> engine_;
  core::EngineStrategy strategy_;
  std::string rationale_;
};

}  // namespace dyncq

#endif  // DYNCQ_CORE_SESSION_H_
