// The paper's dynamic evaluation algorithm (Theorem 3.2): linear-time
// preprocessing, constant update time, constant-delay enumeration, O(1)
// counting and answering — for q-hierarchical conjunctive queries.
#ifndef DYNCQ_CORE_ENGINE_H_
#define DYNCQ_CORE_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "core/component_engine.h"
#include "core/engine_iface.h"
#include "cq/analysis.h"
#include "cq/query.h"
#include "storage/database.h"
#include "util/rel_map.h"
#include "util/result.h"
#include "util/thread_annotations.h"

namespace dyncq::core {

class Engine final : public DynamicQueryEngine {
 public:
  /// Builds the engine for an empty initial database. Fails iff `q` is
  /// not q-hierarchical (use the baselines or, per Theorem 1.3, run the
  /// engine on ComputeCore(q) when that core is q-hierarchical).
  /// QuerySession (core/session.h) is the strategy-selecting front door.
  [[nodiscard]] static Result<std::unique_ptr<Engine>> Create(const Query& q);

  /// Preprocessing phase on an initial database: initializes the empty
  /// structure and replays |D0| inserts — linear total time by constant
  /// update time (paper §6.4).
  [[nodiscard]] static Result<std::unique_ptr<Engine>> Create(const Query& q,
                                                const Database& initial);

  /// Shared-storage mode (serve/query_registry.h): the engine reads
  /// `*shared` — owned by the caller, which must keep it (and its
  /// schema) alive and apply every base-table update through it exactly
  /// once — and keeps only its item forests private. Requires the
  /// query's schema to be a prefix of the shared database's (see
  /// Schema::IsPrefixOf); RelIds must agree because deltas arrive with
  /// the shared schema's ids. If `*shared` is non-empty the structure
  /// is built from its current contents (SyncFromStorage).
  ///
  /// In this mode the single-owner write paths (Apply / ApplyBatch /
  /// Preload of a foreign database) are misuse and throw: the registry
  /// owns the write order and the storage step. Writers drive the engine
  /// with PrepareSharedWrite + ApplySharedDelta(s) instead.
  [[nodiscard]] static Result<std::unique_ptr<Engine>> CreateShared(
      const Query& q, Database* shared);

  ~Engine() override;  // joins the shard worker pool, if one was started

  const Query& query() const override { return query_; }
  const Database& db() const override { return *db_; }

  /// True when the engine reads a caller-owned shared Database
  /// (CreateShared) instead of its own.
  bool shares_storage() const { return owned_db_ == nullptr; }

  Capabilities capabilities() const override {
    Capabilities caps;
    caps.constant_delay_enumeration = true;
    caps.batch_pipeline = true;
    caps.constant_time_count = true;
    // §6.3: root positions are independent per root item, so any
    // component with free variables can be range-partitioned.
    caps.partitionable = has_free_component_;
    // Pins are O(1) root-anchor captures; the first post-pin write forks
    // the pinned version off and pinned cursors keep walking it with
    // constant delay (docs/ARCHITECTURE.md, "Snapshot cursors").
    caps.snapshot_enumeration = true;
    return caps;
  }

  /// Owned-storage update: the storage step (the engine's own
  /// Database::Apply) wrapped in the write protocol below —
  /// PrepareSharedWrite, the apply, then ApplySharedDelta.
  bool Apply(const UpdateCmd& cmd) override;

  /// Owned-storage batch: PrepareSharedWrite, then the storage step —
  /// fold commands superseded within the batch (BatchFolder: in-batch
  /// inverse pairs cost zero relation probes) and apply the survivors,
  /// dropping no-ops through the database's set semantics — then
  /// ApplySharedDeltas(effective deltas, opts).
  std::size_t ApplyBatch(std::span<const UpdateCmd> cmds,
                         const BatchOptions& opts) override;
  std::size_t ApplyBatch(std::span<const UpdateCmd> cmds) override {
    return ApplyBatch(cmds, BatchOptions{});
  }

  /// Linear-time preprocessing (§6.4): reserves relations and root child
  /// indexes from the input sizes, then replays the initial database
  /// through the batch pipeline. Passing the engine's OWN database
  /// (`&initial == &db()`) builds the structure from the storage already
  /// in place via SyncFromStorage — the naive replay would iterate the
  /// relations while inserting into them.
  void Preload(const Database& initial) override;

  // ---- the write protocol ---------------------------------------------
  //
  // The engine's only write protocol. The storage owner — a registry
  // for CreateShared engines, Apply / ApplyBatch above for Create
  // engines — drives every affected engine through it, in this order:
  //
  //   1. PrepareSharedWrite()   on each affected engine — BEFORE the
  //      database mutates (a pinned snapshot forks by rebuilding from
  //      the pre-update database). A batch runs all of them before its
  //      first storage write, so a failed fork leaves nothing mutated;
  //   2. Database::Apply of each update, once;
  //   3. ApplySharedDelta / ApplySharedDeltas on each affected engine
  //      with the effective deltas (no-ops filtered by step 2).
  //
  // The tuples PendingDelta borrows must outlive the call.

  /// Pinned-version bookkeeping that must precede a mutation of the
  /// database: fork any armed snapshot off the pre-update state and
  /// reclaim retired blocks. The one caller of ForkIfPinned and
  /// MaybeReclaimRetired.
  void PrepareSharedWrite();

  /// Routes one effective delta to the affected components (the
  /// single-update path of §6.2: O(1) for q-hierarchical queries).
  void ApplySharedDelta(const PendingDelta& d);

  /// Batched variant: one revision bump, then every component sees the
  /// full effective list through its batch pipeline. With
  /// `opts.shards == 1` the components run the sequential shared-descent
  /// pass (the deterministic fallback); with `k > 1` the phase-A
  /// descents are routed by root value onto `k` worker threads with a
  /// merge-free per-shard phase B (see ComponentEngine's sharded
  /// protocol) — equivalent final state, thread-count-dependent fit-list
  /// order.
  void ApplySharedDeltas(const PendingDelta* deltas, std::size_t n,
                         const BatchOptions& opts = {});

  /// Builds the structure from the shared database's current contents
  /// (the preprocessing phase when registration finds data already
  /// loaded). Requires an empty structure.
  void SyncFromStorage();

  Weight Count() override;
  bool Answer() override;
  std::unique_ptr<Cursor> NewCursor() override;

  /// Splits a pivot component's root fit list into at most `k`
  /// contiguous ranges and returns one cursor per range; the other
  /// components (and Boolean gates) are re-enumerated per partition, so
  /// jointly the cursors yield exactly ϕ(D) with no overlap. The pivot
  /// is chosen per call as the free-variable component with the most
  /// fit roots (O(#fit roots) walk), so a skewed product still splits
  /// k ways. Queries whose components are all Boolean degrade to one
  /// cursor.
  [[nodiscard]] Result<std::vector<std::unique_ptr<Cursor>>> NewPartitions(
      std::size_t k) override;

  std::string name() const override { return "dyncq"; }

  std::size_t NumComponents() const { return components_.size(); }
  const ComponentEngine& component(std::size_t i) const {
    return *components_[i];
  }

  /// Total live items across components (structure size, §6.2).
  std::size_t NumItems() const;

  /// Figure 3-style dump of every component's structure.
  void DumpStructure(std::ostream& os) const;

  /// Item blocks sitting in retire lists awaiting reclamation
  /// (test/telemetry hook; see ItemPool::retired_blocks).
  std::size_t RetiredBlocks() const;

  /// Forces the "sharded batch open" flag CaptureSnapshot rejects pins
  /// under. The real flag is only ever set transiently inside
  /// ApplySharedDeltas (pins are externally synchronized with writes), so
  /// tests use this to exercise the misuse error.
  void SetShardedBatchOpenForTest(bool open) { sharded_batch_open_ = open; }

 protected:
  /// O(1) snapshot capture: records each component's root fit-list
  /// anchors and arms the write path to fork the version off before the
  /// next mutation. Invoked by PinEpoch with the snapshot mutex held.
  /// (The REQUIRES contract lives on the base declaration — attributes
  /// are not inherited by overrides, so the body re-establishes the
  /// capability with snap_mu_.AssertHeld().)
  [[nodiscard]] Result<std::shared_ptr<EngineSnapshot>> CaptureSnapshot() override;

  /// Builds constant-delay cursors over a pinned version's (possibly
  /// detached) root fit lists. Invoked outside the snapshot mutex.
  [[nodiscard]] Result<std::unique_ptr<Cursor>> MakeSnapshotCursor(
      const std::shared_ptr<EngineSnapshot>& snap) override;

  void ReclaimAllRetired() override;

 private:
  /// `shared == nullptr` allocates a private database over the query's
  /// schema; otherwise the engine reads the caller's.
  Engine(Query q, Database* shared);

  /// Common factory body behind Create / CreateShared.
  [[nodiscard]] static Result<std::unique_ptr<Engine>> Build(const Query& q,
                                               Database* shared);

  /// The engine's snapshot payload: one ComponentSnapshot per component.
  /// Defined in engine.cc; befriended so it can disarm the fork flag and
  /// retire its detached forests on death.
  class CoreVersion;
  friend class CoreVersion;

  /// Freezes the armed pinned version (if any) by detaching every
  /// component's forest into it and rebuilding the live structures from
  /// the pre-update database. Runs inside PrepareSharedWrite, BEFORE the
  /// database mutates. Strong exception safety: a thrown bad_alloc rolls
  /// the detached forests back and rethrows, leaving both the structure
  /// and the pinned version intact.
  void ForkIfPinned();

  /// Returns retired blocks older than the oldest pinned epoch to the
  /// pool free lists (write path, writer thread only).
  void MaybeReclaimRetired();

  /// Persistent shard workers: parked between batches so a sharded
  /// ApplySharedDeltas pays a wakeup, not k thread spawns. Lazily started
  /// by the first `shards > 1` batch and resized if `shards` changes.
  class ShardPool;

  /// Cursor for one component (range-restricted at the pivot).
  std::unique_ptr<Cursor> NewComponentCursor(std::size_t c,
                                             ItemHandle root_begin,
                                             ItemHandle root_end);

  Query query_;
  // Storage: owned_db_ is null in shared mode (CreateShared), where db_
  // points at the caller's database. Database holds a reference to its
  // schema and is immovable, hence the pointer indirection even when
  // owned.
  std::unique_ptr<Database> owned_db_;
  Database* db_ = nullptr;
  std::vector<std::pair<int, int>> head_map_;
  std::vector<std::unique_ptr<ComponentEngine>> components_;
  // Sparse on purpose: keyed by the query's own relations, not the full
  // (possibly huge shared) schema — see util/rel_map.h.
  RelMap<std::vector<int>> comps_of_rel_;  // rel -> component idxs
  std::vector<PendingDelta> pending_;  // batch scratch
  BatchFolder folder_;                 // batch scratch
  std::vector<std::uint32_t> kept_;    // batch scratch
  std::unique_ptr<ShardPool> shard_pool_;
  bool has_free_component_ = false;  // some component has free vars

  // Snapshot fork state. fork_armed_ is the write path's lock-free fast
  // gate; it may be cleared from a reader thread (the armed version's
  // last reference dropped), hence atomic and deliberately unguarded.
  // armed_version_ is the at-most-one registered version whose epoch is
  // current and whose forests are still the live ones; the GUARDED_BY
  // makes the write path prove it holds the snapshot registry lock
  // before dereferencing a pointer a reader thread may disarm.
  std::atomic<bool> fork_armed_{false};
  CoreVersion* armed_version_ DYNCQ_GUARDED_BY(snap_mu_) = nullptr;
  // Writer-thread-only (set transiently inside a sharded
  // ApplySharedDeltas; pins are externally synchronized with writes, so
  // CaptureSnapshot — which runs under snap_mu_ on the writer's call
  // stack — reads it race-free). Not a lock contract, hence no
  // annotation: TSan owns it.
  bool sharded_batch_open_ = false;
};

}  // namespace dyncq::core

#endif  // DYNCQ_CORE_ENGINE_H_
