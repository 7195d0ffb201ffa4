#include "serve/query_registry.h"

#include <algorithm>
#include <utility>

#include "cq/canonical.h"
#include "util/check.h"

namespace dyncq::serve {

QueryRegistry::QueryRegistry(std::shared_ptr<const Schema> schema,
                             RegistryOptions opts)
    : schema_(std::move(schema)), opts_(opts), db_(*schema_) {
  DYNCQ_CHECK(schema_ != nullptr);
  by_rel_.resize(schema_->NumRelations());
}

QueryRegistry::~QueryRegistry() = default;

Result<QueryHandle> QueryRegistry::Register(const Query& q) {
  using R = Result<QueryHandle>;
  util::MutexLock lock(&mu_);
  if (q.schema_ptr().get() != schema_.get() &&
      !q.schema().IsPrefixOf(*schema_)) {
    return R::Error(
        "Register: query schema is not the registry's (nor a prefix of "
        "it): " + q.schema().ToString());
  }

  for (const Atom& a : q.atoms()) {
    if (a.rel >= by_rel_.size()) {
      return R::Error(
          "Register: relation added to the schema after this registry was "
          "constructed (the shared database is sized at construction)");
    }
  }

  const std::string key = opts_.dedup
                              ? CanonicalQueryKey(q)
                              : "u" + std::to_string(next_unique_++);
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    Entry* e = it->second.get();
    ++e->refs;
    ++registered_;
    return R(QueryHandle(this, e));
  }

  auto entry = std::make_unique<Entry>(q);
  entry->key = key;
  // The engine dichotomy, with the q-tree strategies in shared-storage
  // mode against the registry's database.
  core::EngineChoice choice = core::CreateMaintainableEngine(q, &db_);
  entry->engine = std::move(choice.engine);
  entry->strategy = choice.strategy;
  entry->shared = dynamic_cast<core::Engine*>(entry->engine.get());
  // Route by the MAINTAINED query's relations: for kQTreeOnCore that is
  // the core, which is equivalent to q on every database, so deltas on
  // relations only the redundant atoms mention cannot change the result.
  AddPostings(entry.get(), entry->engine->query());

  Entry* e = entry.get();
  e->refs = 1;
  ++registered_;
  entries_.emplace(key, std::move(entry));
  return R(QueryHandle(this, e));
}

void QueryRegistry::AddPostings(Entry* e, const Query& maintained) {
  for (const Atom& a : maintained.atoms()) {
    if (std::find(e->rels.begin(), e->rels.end(), a.rel) != e->rels.end()) {
      continue;
    }
    e->rels.push_back(a.rel);
    DYNCQ_CHECK(a.rel < by_rel_.size());
    e->posting_pos.push_back(by_rel_[a.rel].size());
    by_rel_[a.rel].push_back(e);
  }
}

void QueryRegistry::RemovePostings(Entry* e) {
  for (std::size_t i = 0; i < e->rels.size(); ++i) {
    const RelId rel = e->rels[i];
    const std::size_t pos = e->posting_pos[i];
    auto& subs = by_rel_[rel];
    DYNCQ_DCHECK(pos < subs.size() && subs[pos] == e);
    if (pos + 1 != subs.size()) {
      Entry* moved = subs.back();
      subs[pos] = moved;
      // Tell the moved entry where it now lives for this relation.
      for (std::size_t j = 0; j < moved->rels.size(); ++j) {
        if (moved->rels[j] == rel) {
          moved->posting_pos[j] = pos;
          break;
        }
      }
    }
    subs.pop_back();
  }
  e->rels.clear();
  e->posting_pos.clear();
}

void QueryRegistry::Unregister(Entry* e) {
  util::MutexLock lock(&mu_);
  DYNCQ_CHECK(e->refs > 0);
  --e->refs;
  --registered_;
  if (e->refs > 0) return;
  RemovePostings(e);
  entries_.erase(e->key);  // frees the entry and its engine
}

bool QueryRegistry::ApplyDelta(const UpdateCmd& cmd) {
  util::MutexLock lock(&mu_);
  DYNCQ_CHECK_MSG(cmd.rel < by_rel_.size(),
                  "ApplyDelta: relation id outside the registry schema");
  auto& subs = by_rel_[cmd.rel];
  // Pinned-snapshot forks must see the pre-update database, so every
  // affected shared engine runs its write prologue before storage
  // mutates. Unpinned engines pay one relaxed atomic load here.
  for (Entry* e : subs) {
    if (e->shared != nullptr) e->shared->PrepareSharedWrite();
  }
  if (!db_.Apply(cmd)) return false;  // no-op: nobody is affected
  ++stats_.deltas_applied;
  const core::PendingDelta d{cmd.rel, &cmd.tuple,
                             cmd.kind == UpdateKind::kInsert};
  for (Entry* e : subs) {
    ++stats_.notifications;
    if (e->shared != nullptr) {
      e->shared->ApplySharedDelta(d);
    } else {
      // Private-storage fallback: its database is the projection of the
      // shared one onto the query's relations (it sees exactly the
      // per-relation command subsequence), so this Apply is effective
      // exactly when the shared one was.
      e->engine->Apply(cmd);
    }
  }
  return true;
}

std::size_t QueryRegistry::ApplyBatch(std::span<const UpdateCmd> cmds) {
  util::MutexLock lock(&mu_);
  const std::uint64_t stamp = ++batch_seq_;
  touched_.clear();
  // Same in-batch fold as the engines (storage/update.h): superseded
  // commands never reach storage or any subscriber, and the effective
  // count stays comparable with the single-session pipelines.
  folder_.Fold(cmds, &kept_);

  // Routing pass: every engine the batch touches runs its write
  // prologue before the FIRST storage write of the batch, so a pinned
  // fork rebuilds from exactly the pre-batch database, and a fork that
  // throws (bad_alloc) leaves storage and every engine unmutated.
  for (std::uint32_t i : kept_) {
    DYNCQ_CHECK_MSG(cmds[i].rel < by_rel_.size(),
                    "ApplyBatch: relation id outside the registry schema");
    for (Entry* e : by_rel_[cmds[i].rel]) {
      if (e->batch_stamp == stamp) continue;
      e->batch_stamp = stamp;
      e->pending.clear();
      touched_.push_back(e);
    }
  }
  for (Entry* e : touched_) {
    if (e->shared != nullptr) e->shared->PrepareSharedWrite();
  }

  // Storage pass: apply the survivors once and queue each effective
  // delta for its subscribers.
  std::size_t effective = 0;
  for (std::uint32_t i : kept_) {
    const UpdateCmd& cmd = cmds[i];
    if (!db_.Apply(cmd)) continue;  // no-op, absorbed
    ++effective;
    ++stats_.deltas_applied;
    for (Entry* e : by_rel_[cmd.rel]) {
      ++stats_.notifications;
      if (e->shared != nullptr) {
        // Queued for the engine's batch pipeline; borrows the caller's
        // tuple storage, which outlives this call.
        e->pending.push_back(core::PendingDelta{
            cmd.rel, &cmd.tuple, cmd.kind == UpdateKind::kInsert});
      } else {
        e->engine->Apply(cmd);  // fallback: ordered per-command replay
      }
    }
  }

  // Flush: one batch pipeline run per touched shared engine.
  for (Entry* e : touched_) {
    if (e->shared != nullptr) {
      e->shared->ApplySharedDeltas(e->pending.data(), e->pending.size());
    }
    e->pending.clear();  // drop dangling borrows of the caller's span
  }
  return effective;
}

std::size_t QueryRegistry::RetiredBlocks() const {
  util::MutexLock lock(&mu_);
  std::size_t n = 0;
  for (const auto& [key, e] : entries_) {
    if (e->shared != nullptr) n += e->shared->RetiredBlocks();
  }
  return n;
}

void QueryHandle::Release() {
  if (e_ == nullptr) return;
  reg_->Unregister(e_);
  reg_ = nullptr;
  e_ = nullptr;
}

Result<std::vector<Tuple>> QueryHandle::Materialize() {
  const Weight count = Count();
  return DrainChecked(*NewCursor(), count,
                      "Materialize: result changed mid-drain");
}

}  // namespace dyncq::serve
