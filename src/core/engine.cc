#include "core/engine.h"

#include <algorithm>
#include <functional>
#include <ostream>
#include <thread>

#include "core/cursor.h"
#include "cq/qtree.h"
#include "util/check.h"
#include "util/failpoint.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace dyncq::core {

// Parked shard workers. Run(fn) executes fn(s) for every worker s and
// returns once all are done; between runs the workers wait on a
// generation counter, so a sharded batch costs one condvar wakeup
// instead of k thread spawns.
class Engine::ShardPool {
 public:
  explicit ShardPool(std::size_t k) {
    threads_.reserve(k);
    for (std::size_t s = 0; s < k; ++s) {
      threads_.emplace_back([this, s] { Loop(s); });
    }
  }

  ~ShardPool() {
    mu_.Lock();
    stop_ = true;
    mu_.Unlock();
    wake_.NotifyAll();
    for (auto& t : threads_) t.join();
  }

  std::size_t size() const { return threads_.size(); }

  void Run(const std::function<void(std::size_t)>& fn) {
    util::MutexLock lock(&mu_);
    fn_ = &fn;
    ++generation_;
    pending_ = threads_.size();
    wake_.NotifyAll();
    // Explicit condition loop (not a wait-predicate lambda): the
    // analysis sees the guarded pending_ read under the held mu_.
    while (pending_ != 0) done_.Wait(&mu_);
    fn_ = nullptr;
  }

 private:
  void Loop(std::size_t s) {
    std::uint64_t seen = 0;
    mu_.Lock();
    while (true) {
      while (!stop_ && generation_ == seen) wake_.Wait(&mu_);
      if (stop_) break;
      seen = generation_;
      const std::function<void(std::size_t)>* fn = fn_;
      mu_.Unlock();
      (*fn)(s);
      mu_.Lock();
      if (--pending_ == 0) done_.NotifyOne();
    }
    mu_.Unlock();
  }

  util::Mutex mu_;
  util::CondVar wake_;
  util::CondVar done_;
  std::vector<std::thread> threads_;
  const std::function<void(std::size_t)>* fn_ DYNCQ_GUARDED_BY(mu_) = nullptr;
  std::uint64_t generation_ DYNCQ_GUARDED_BY(mu_) = 0;
  std::size_t pending_ DYNCQ_GUARDED_BY(mu_) = 0;
  bool stop_ DYNCQ_GUARDED_BY(mu_) = false;
};

// A pinned structural version: per component, the root fit-list anchors
// captured at pin time and (once the first post-pin write forked the
// version off) the detached item forest the pinned cursors keep walking.
// Every destruction path runs under the engine's snapshot mutex (registry
// erasure, cursor unregistration, teardown), so Release's bookkeeping
// needs no lock of its own.
class Engine::CoreVersion final : public EngineSnapshot {
 public:
  CoreVersion(Engine* engine, std::uint64_t epoch)
      : engine_(engine), epoch_(epoch), comps_(engine->components_.size()) {}

  ~CoreVersion() override { Release(); }

  // Engine teardown with snapshot cursors still open: retire the
  // detached forests while the components (and their pools) are alive;
  // the eventual destructor is then engine-independent. Called by
  // ClearSnapshotRegistry under snap_mu_.
  void OnEngineTeardown() override { Release(); }

  std::vector<ComponentSnapshot>& comps() { return comps_; }
  const std::vector<ComponentSnapshot>& comps() const { return comps_; }

 private:
  void Release() {
    if (engine_ == nullptr) return;
    // Every destruction path arrives with the engine's snapshot
    // registry lock held (registry erasure, cursor unregistration, and
    // teardown all lock before dropping their reference), but the
    // REQUIRES contract cannot flow through std::map / shared_ptr
    // internals or virtual dispatch — assert the capability instead.
    engine_->snap_mu_.AssertHeld();
    if (engine_->armed_version_ == this) {
      // Dying before any write forked us off: disarm the write path.
      engine_->armed_version_ = nullptr;
      engine_->fork_armed_.store(false, std::memory_order_release);
    }
    for (std::size_t c = 0; c < comps_.size(); ++c) {
      if (!comps_[c].detached.empty()) {
        engine_->components_[c]->RetireDetached(epoch_, &comps_[c].detached);
      }
    }
    engine_ = nullptr;
  }

  Engine* engine_;
  const std::uint64_t epoch_;
  std::vector<ComponentSnapshot> comps_;
};

Engine::Engine(Query q, Database* shared) : query_(std::move(q)) {
  if (shared == nullptr) {
    owned_db_ = std::make_unique<Database>(query_.schema());
    db_ = owned_db_.get();
  } else {
    db_ = shared;
  }
}

Engine::~Engine() {
  // Destroy registered versions while the components are alive: detached
  // forests hold heap-grown child-index tables only their ChildSlot
  // destructors release (the pool frees raw chunks, nothing else).
  ClearSnapshotRegistry();
}

Result<std::unique_ptr<Engine>> Engine::Create(const Query& q) {
  return Build(q, nullptr);
}

Result<std::unique_ptr<Engine>> Engine::CreateShared(const Query& q,
                                                     Database* shared) {
  using R = Result<std::unique_ptr<Engine>>;
  DYNCQ_CHECK(shared != nullptr);
  // RelIds in incoming deltas are the shared schema's, so the query's
  // schema must assign the same ids (a prefix match; the shared schema
  // may have relations the query never mentions).
  if (&q.schema() != &shared->schema() &&
      !q.schema().IsPrefixOf(shared->schema())) {
    return R::Error("CreateShared: query schema is not a prefix of the "
                    "shared database's schema");
  }
  auto engine = Build(q, shared);
  if (!engine.ok()) return engine;
  if (shared->NumTuples() > 0) (*engine)->SyncFromStorage();
  return engine;
}

Result<std::unique_ptr<Engine>> Engine::Build(const Query& q,
                                              Database* shared) {
  if (!IsQHierarchical(q)) {
    return Result<std::unique_ptr<Engine>>::Error(
        "query is not q-hierarchical: " + q.ToString());
  }
  auto engine = std::unique_ptr<Engine>(new Engine(q, shared));

  ComponentSplit split = SplitConnectedComponents(engine->query_);
  engine->head_map_ = std::move(split.head_map);
  for (std::size_t c = 0; c < split.components.size(); ++c) {
    Query& comp = split.components[c];
    auto tree = QTree::Build(comp);
    if (!tree.ok()) {
      return Result<std::unique_ptr<Engine>>::Error(tree.error());
    }
    for (const Atom& a : comp.atoms()) {
      auto& lst = engine->comps_of_rel_.FindOrInsert(a.rel);
      if (std::find(lst.begin(), lst.end(), static_cast<int>(c)) ==
          lst.end()) {
        lst.push_back(static_cast<int>(c));
      }
    }
    if (!comp.head().empty()) engine->has_free_component_ = true;
    engine->components_.push_back(std::make_unique<ComponentEngine>(
        std::move(comp), std::move(tree.value())));
  }
  return engine;
}

Result<std::unique_ptr<Engine>> Engine::Create(const Query& q,
                                               const Database& initial) {
  auto engine = Create(q);
  if (!engine.ok()) return engine;
  (*engine)->Preload(initial);
  return engine;
}

void Engine::Preload(const Database& initial) {
  if (&initial == db_) {
    // Preloading from the engine's own storage: the replay below would
    // iterate each relation while inserting into it (iterator
    // invalidation). If the structure already holds items it is in
    // lockstep with storage (every write path maintains both), so there
    // is nothing to do; otherwise build it from the resident tuples —
    // storage is already in place.
    if (NumItems() == 0) SyncFromStorage();
    return;
  }
  DYNCQ_CHECK_MSG(owned_db_ != nullptr,
                  "Preload: shared-storage engines are fed through their "
                  "registry's write protocol");
  // §6.4 linear-time preprocessing: size every hash structure up front so
  // the replay never rehashes, then push the whole initial database
  // through the batch pipeline.
  UpdateStream stream;
  stream.reserve(initial.NumTuples());
  for (RelId r = 0; r < initial.schema().NumRelations(); ++r) {
    db_->Reserve(r, initial.relation(r).size());
    for (const Tuple& t : initial.relation(r)) {
      stream.push_back(UpdateCmd::Insert(r, t));
    }
  }
  // Root items are keyed by one value of the active domain, so |adom|
  // bounds every component's root fanout.
  for (const auto& c : components_) {
    c->ReserveRoot(initial.ActiveDomainSize());
  }
  ApplyBatch(stream);
  // The replay sized the batch scratch (and the fold's index list) for
  // |D0|; steady-state batches are far smaller, so release it.
  pending_.clear();
  pending_.shrink_to_fit();
  kept_.clear();
  kept_.shrink_to_fit();
}

void Engine::SyncFromStorage() {
  DYNCQ_CHECK_MSG(NumItems() == 0,
                  "SyncFromStorage: structure already built (any processed "
                  "tuple materializes items)");
  // Copy this query's base tuples out first: relation iterators
  // materialize tuples by value, and PendingDelta borrows tuple storage.
  std::vector<std::pair<RelId, Tuple>> base;
  // Only this query's relations — the shared database may hold many
  // foreign ones (the query's schema is a prefix of the database's, so
  // every subscribed RelId is valid there).
  for (const auto& [r, comps] : comps_of_rel_) {
    (void)comps;
    for (const Tuple& t : db_->relation(r)) base.emplace_back(r, t);
  }
  if (base.empty()) return;
  for (const auto& c : components_) {
    c->ReserveRoot(db_->ActiveDomainSize());
  }
  pending_.clear();
  pending_.reserve(base.size());
  for (const auto& [r, t] : base) {
    pending_.push_back(PendingDelta{r, &t, true});
  }
  ApplySharedDeltas(pending_.data(), pending_.size());
  pending_.clear();  // drop dangling borrows of `base`
}

void Engine::PrepareSharedWrite() {
  ForkIfPinned();
  MaybeReclaimRetired();
}

void Engine::ApplySharedDelta(const PendingDelta& d) {
  for (int c : comps_of_rel_[d.rel]) {
    components_[static_cast<std::size_t>(c)]->PrefetchWalk(d.rel, *d.tuple);
  }
  BumpRevision();
  for (int c : comps_of_rel_[d.rel]) {
    auto& comp = components_[static_cast<std::size_t>(c)];
    if (d.insert) {
      comp->OnInsert(d.rel, *d.tuple);
    } else {
      comp->OnDelete(d.rel, *d.tuple);
    }
  }
}

void Engine::ApplySharedDeltas(const PendingDelta* deltas, std::size_t n,
                               const BatchOptions& opts) {
  if (n == 0) return;
  BumpRevision();
  // Every component sees the full effective list; deltas whose relation
  // has no atom in a component are skipped inside its per-atom routing.
  const std::size_t k = opts.shards;
  if (k <= 1) {
    for (const auto& c : components_) c->ApplyBatch(deltas, n);
    return;
  }

  // Sharded path: route + root pre-creation on this thread, then one
  // worker per shard runs phase A and the merge-free per-shard phase B
  // across ALL components (component structures are disjoint), and the
  // deferred root-level fix-ups replay sequentially after the join.
  // While the shard protocol is in flight the structure is mid-mutation
  // across threads, so CaptureSnapshot refuses pins (scope-guarded in
  // case a worker throws).
  struct BatchOpenGuard {
    bool& flag;
    ~BatchOpenGuard() { flag = false; }
  } batch_open_guard{sharded_batch_open_};
  sharded_batch_open_ = true;
  for (const auto& c : components_) c->BeginShardedBatch(deltas, n, k);
  if (shard_pool_ == nullptr || shard_pool_->size() != k) {
    shard_pool_ = std::make_unique<ShardPool>(k);
  }
  shard_pool_->Run([this](std::size_t s) {
    for (const auto& c : components_) c->RunShard(s);
  });
  for (const auto& c : components_) c->FinishShardedBatch();
}

void Engine::ForkIfPinned() {
  if (!fork_armed_.load(std::memory_order_acquire)) return;
  util::MutexLock lock(&snap_mu_);
  CoreVersion* v = armed_version_;
  if (v == nullptr) return;  // the armed version died since the gate
  // Freeze the version: detach each component's forest into it (item
  // links untouched — pinned cursors keep walking them) and rebuild the
  // live structure by replaying the component's base tuples. db_ is
  // still pre-update here, so the rebuild is exactly the pinned state.
  std::vector<ComponentSnapshot>& comps = v->comps();
  std::size_t done = 0;
  bool detached_current = false;
  try {
    for (; done < components_.size(); ++done) {
      detached_current = false;
      components_[done]->DetachAllItems(&comps[done].detached);
      detached_current = true;
      components_[done]->RebuildFromDatabase(*db_);
    }
  } catch (...) {
    // Roll back to the pre-fork state: free partial rebuilds, re-attach
    // the detached forests. The version stays armed — a retry after the
    // allocation pressure clears forks again.
    if (done < components_.size()) {
      if (detached_current) {
        components_[done]->RestoreDetached(comps[done]);
      } else {
        comps[done].detached.clear();  // collection died; nothing mutated
      }
    }
    for (std::size_t c = 0; c < done; ++c) {
      components_[c]->RestoreDetached(comps[c]);
    }
    throw;
  }
  armed_version_ = nullptr;
  fork_armed_.store(false, std::memory_order_release);
}

void Engine::MaybeReclaimRetired() {
  bool any = false;
  for (const auto& c : components_) {
    if (c->has_retired()) {
      any = true;
      break;
    }
  }
  if (!any) return;
  // Retired forests belong exclusively to dead versions, so the
  // conservative watermark is ordering hygiene rather than a correctness
  // need: nothing at or past the oldest registered epoch is reclaimed
  // while that epoch could be re-pinned (a spurious fork can leave a
  // frozen version sharing the current epoch).
  constexpr std::uint64_t kNone = ~std::uint64_t{0};
  const std::uint64_t oldest = OldestPinnedEpoch();  // takes the mutex
  if (oldest == 0) return;  // an epoch-0 version exists; nothing is older
  const std::uint64_t wm = oldest == kNone ? kNone : oldest - 1;
  for (const auto& c : components_) c->ReclaimRetired(wm);
}

void Engine::ReclaimAllRetired() {
  for (const auto& c : components_) {
    c->ReclaimRetired(~std::uint64_t{0});
  }
}

std::size_t Engine::RetiredBlocks() const {
  std::size_t n = 0;
  for (const auto& c : components_) n += c->retired_blocks();
  return n;
}

Result<std::shared_ptr<EngineSnapshot>> Engine::CaptureSnapshot() {
  using R = Result<std::shared_ptr<EngineSnapshot>>;
  // Only PinEpoch calls this, under snap_mu_ (the base declaration says
  // DYNCQ_REQUIRES(snap_mu_)); attributes don't transfer to overrides,
  // so re-establish the capability for the armed_version_ writes below.
  snap_mu_.AssertHeld();
  DYNCQ_ALLOC_FAILPOINT();
  if (sharded_batch_open_) {
    return R::Error(
        "PinEpoch: cannot pin while a sharded batch is open (pins must be "
        "synchronized with writes)");
  }
  // At most one unfrozen version exists: a previously armed version was
  // either forked off by the write that then bumped the revision, or it
  // died (disarming); and a re-pin of a registered epoch never reaches
  // CaptureSnapshot.
  DYNCQ_CHECK(armed_version_ == nullptr);
  auto v = std::make_shared<CoreVersion>(this, revision().value);
  for (std::size_t c = 0; c < components_.size(); ++c) {
    components_[c]->CaptureSnapshot(&v->comps()[c]);
  }
  armed_version_ = v.get();
  fork_armed_.store(true, std::memory_order_release);
  return R(std::shared_ptr<EngineSnapshot>(std::move(v)));
}

Result<std::unique_ptr<Cursor>> Engine::MakeSnapshotCursor(
    const std::shared_ptr<EngineSnapshot>& snap) {
  using R = Result<std::unique_ptr<Cursor>>;
  auto* v = dynamic_cast<CoreVersion*>(snap.get());
  if (v == nullptr) {
    return R::Error("MakeSnapshotCursor: unrecognized snapshot payload");
  }
  const std::vector<ComponentSnapshot>& comps = v->comps();
  // Default-constructed guards: pinned cursors never invalidate — writes
  // fork the version out from under them instead of moving it. Boolean
  // components gate on the sum captured at pin time.
  if (components_.size() == 1 && !components_[0]->query().head().empty()) {
    std::unique_ptr<Cursor> c = std::make_unique<ComponentCursor>(
        ComponentCursor::FixedRootTag{}, components_[0].get(),
        RevisionGuard{}, comps[0].root_head);
    return R(std::move(c));
  }
  std::vector<std::unique_ptr<Cursor>> subs;
  subs.reserve(components_.size());
  for (std::size_t c = 0; c < components_.size(); ++c) {
    if (components_[c]->query().head().empty()) {
      subs.push_back(std::make_unique<BooleanGateCursor>(comps[c].sum > 0,
                                                         RevisionGuard{}));
    } else {
      subs.push_back(std::make_unique<ComponentCursor>(
          ComponentCursor::FixedRootTag{}, components_[c].get(),
          RevisionGuard{}, comps[c].root_head));
    }
  }
  std::unique_ptr<Cursor> p =
      std::make_unique<ProductCursor>(std::move(subs), head_map_);
  return R(std::move(p));
}

bool Engine::Apply(const UpdateCmd& cmd) {
  DYNCQ_CHECK_MSG(owned_db_ != nullptr,
                  "Apply: shared-storage engines are fed through their "
                  "registry's write protocol");
  // The owned engine is the storage step wrapped around the one write
  // protocol: prologue, the database apply, the effective delta.
  PrepareSharedWrite();
  // Latency pipeline: the update walk's dependent cache accesses (root
  // item, then deeper items) are requested in stages that overlap the
  // database's own hash work, so serial misses become parallel ones.
  for (int c : comps_of_rel_[cmd.rel]) {
    components_[static_cast<std::size_t>(c)]->PrefetchDelta(cmd.rel,
                                                            cmd.tuple);
  }
  if (!db_->Apply(cmd)) return false;  // no-op update
  ApplySharedDelta(
      PendingDelta{cmd.rel, &cmd.tuple, cmd.kind == UpdateKind::kInsert});
  return true;
}

std::size_t Engine::ApplyBatch(std::span<const UpdateCmd> cmds,
                               const BatchOptions& opts) {
  DYNCQ_CHECK_MSG(owned_db_ != nullptr,
                  "ApplyBatch: shared-storage engines are fed through their "
                  "registry's write protocol");
  PrepareSharedWrite();  // the fork must replay the pre-batch database
  // In-batch fold: commands superseded by a later command on the same
  // tuple never reach the database — an inverse insert/delete pair's
  // dropped half costs zero relation probes. After the fold each tuple
  // appears at most once in the effective list.
  folder_.Fold(cmds, &kept_);
  pending_.clear();
  pending_.reserve(kept_.size());
  constexpr std::size_t kLookahead = 8;
  for (std::size_t i = 0; i < kept_.size(); ++i) {
    if (i + kLookahead < kept_.size()) {
      db_->Prefetch(cmds[kept_[i + kLookahead]]);
    }
    const UpdateCmd& cmd = cmds[kept_[i]];
    if (!db_->Apply(cmd)) continue;  // no-op, absorbed
    pending_.push_back(
        PendingDelta{cmd.rel, &cmd.tuple, cmd.kind == UpdateKind::kInsert});
  }
  ApplySharedDeltas(pending_.data(), pending_.size(), opts);
  return pending_.size();
}

Weight Engine::Count() {
  Weight total = 1;
  for (const auto& c : components_) total *= c->Count();
  return total;
}

bool Engine::Answer() {
  for (const auto& c : components_) {
    if (!c->Answer()) return false;
  }
  return true;
}

std::unique_ptr<Cursor> Engine::NewComponentCursor(std::size_t c,
                                                   ItemHandle root_begin,
                                                   ItemHandle root_end) {
  RevisionGuard guard = NewGuard();
  const ComponentEngine* ce = components_[c].get();
  if (ce->query().head().empty()) {
    return std::make_unique<BooleanGateCursor>(ce->Answer(), guard);
  }
  return std::make_unique<ComponentCursor>(ce, guard, root_begin, root_end);
}

std::unique_ptr<Cursor> Engine::NewCursor() {
  if (components_.size() == 1 && !components_[0]->query().head().empty()) {
    // Single non-Boolean component: its head order is the query's.
    return NewComponentCursor(0, ItemHandle(), ItemHandle());
  }
  std::vector<std::unique_ptr<Cursor>> subs;
  subs.reserve(components_.size());
  for (std::size_t c = 0; c < components_.size(); ++c) {
    subs.push_back(NewComponentCursor(c, ItemHandle(), ItemHandle()));
  }
  return std::make_unique<ProductCursor>(std::move(subs), head_map_);
}

Result<std::vector<std::unique_ptr<Cursor>>> Engine::NewPartitions(
    std::size_t k) {
  using R = Result<std::vector<std::unique_ptr<Cursor>>>;
  if (k == 0) return R::Error("NewPartitions: k must be >= 1");
  std::vector<std::unique_ptr<Cursor>> out;
  if (!has_free_component_) {
    // All components Boolean: the result is at most one empty tuple.
    out.push_back(NewCursor());
    return out;
  }

  // Pick the pivot per call: the free-variable component with the most
  // fit roots, so a skewed product (tiny first component, huge second)
  // still splits k ways. Each root subtree is an independent enumeration
  // unit (§6.3), so contiguous fit-list ranges partition the pivot's
  // result, and the cross product with the other components partitions
  // ϕ(D). The walk is O(#fit roots) — the price of a partitioned read.
  std::size_t pivot = 0;
  std::size_t roots = 0;
  for (std::size_t c = 0; c < components_.size(); ++c) {
    if (components_[c]->query().head().empty()) continue;
    const ItemPool& pool = components_[c]->pool();
    std::size_t n = 0;
    for (ItemHandle h = SlotHead(components_[c]->root_slot()); h;
         h = pool.Resolve(h)->next) {
      ++n;
    }
    if (n > roots) {
      pivot = c;
      roots = n;
    }
  }
  if (roots == 0) {
    out.push_back(NewCursor());  // empty result: one cursor ending at once
    return out;
  }
  const ComponentEngine& ce = *components_[pivot];

  const std::size_t parts = std::min(k, roots);
  const std::size_t base = roots / parts;
  std::size_t extra = roots % parts;  // first `extra` ranges get one more
  ItemHandle begin = SlotHead(ce.root_slot());
  for (std::size_t p = 0; p < parts; ++p) {
    std::size_t len = base + (extra > 0 ? 1 : 0);
    if (extra > 0) --extra;
    ItemHandle end = begin;
    for (std::size_t i = 0; i < len; ++i) end = ce.pool().Resolve(end)->next;

    if (components_.size() == 1) {
      out.push_back(NewComponentCursor(0, begin, end));
    } else {
      std::vector<std::unique_ptr<Cursor>> subs;
      subs.reserve(components_.size());
      for (std::size_t c = 0; c < components_.size(); ++c) {
        subs.push_back(c == pivot
                           ? NewComponentCursor(c, begin, end)
                           : NewComponentCursor(c, ItemHandle(),
                                                ItemHandle()));
      }
      out.push_back(
          std::make_unique<ProductCursor>(std::move(subs), head_map_));
    }
    begin = end;
  }
  return out;
}

std::size_t Engine::NumItems() const {
  std::size_t n = 0;
  for (const auto& c : components_) n += c->NumItems();
  return n;
}

void Engine::DumpStructure(std::ostream& os) const {
  for (const auto& c : components_) c->Dump(os);
}

}  // namespace dyncq::core
