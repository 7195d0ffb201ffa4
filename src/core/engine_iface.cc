// Epoch-pinned snapshot registry shared by every engine.
//
// The base class keeps one registry entry per pinned epoch: a pin count,
// a count of open snapshot cursors, and the engine's opaque snapshot
// payload. The entry dies — under the registry mutex — when both counts
// reach zero; engines whose payloads reference live structure (the core
// engine's preserved versions) retire their memory from the payload's
// destructor, which therefore always runs with the mutex held.
#include "core/engine_iface.h"

#include <new>
#include <string>
#include <utility>

#include "util/check.h"
#include "util/failpoint.h"

namespace dyncq {

namespace {

/// Enumerates a shared materialized vector; self-contained, so it never
/// invalidates and may outlive pins (it co-owns the vector).
class VectorCursor final : public Cursor {
 public:
  explicit VectorCursor(std::shared_ptr<const std::vector<Tuple>> tuples)
      : tuples_(std::move(tuples)) {}

  CursorStatus Next(Tuple* out) override {
    if (pos_ >= tuples_->size()) return CursorStatus::kEnd;
    *out = (*tuples_)[pos_++];
    return CursorStatus::kOk;
  }

  CursorStatus Reset() override {
    pos_ = 0;
    return CursorStatus::kOk;
  }

 private:
  std::shared_ptr<const std::vector<Tuple>> tuples_;
  std::size_t pos_ = 0;
};

}  // namespace

std::unique_ptr<Cursor> NewVectorSnapshotCursor(
    std::shared_ptr<const std::vector<Tuple>> tuples) {
  return std::make_unique<VectorCursor>(std::move(tuples));
}

/// Wraps an engine-built snapshot cursor and ties the snapshot's
/// registry entry to the cursor's lifetime: the epoch may be unpinned
/// while the cursor is still draining.
class SnapshotCursor final : public Cursor {
 public:
  SnapshotCursor(DynamicQueryEngine* engine, std::uint64_t epoch,
                 std::shared_ptr<EngineSnapshot> snap,
                 std::unique_ptr<Cursor> inner)
      : engine_(engine),
        epoch_(epoch),
        snap_(std::move(snap)),
        inner_(std::move(inner)) {}

  ~SnapshotCursor() override {
    engine_->ReleaseSnapshotCursorRef(epoch_, std::move(snap_));
  }

  CursorStatus Next(Tuple* out) override { return inner_->Next(out); }
  CursorStatus Reset() override { return inner_->Reset(); }

 private:
  DynamicQueryEngine* engine_;
  std::uint64_t epoch_;
  std::shared_ptr<EngineSnapshot> snap_;
  std::unique_ptr<Cursor> inner_;
};

Result<std::uint64_t> DynamicQueryEngine::PinEpoch() {
  using R = Result<std::uint64_t>;
  const std::uint64_t epoch = revision().value;
  util::MutexLock lock(&snap_mu_);
  auto it = snaps_.find(epoch);
  if (it != snaps_.end()) {
    if (it->second.pins >= pin_limit_) {
      return R::Error("PinEpoch: pin count overflow at epoch " +
                      std::to_string(epoch) + " (limit " +
                      std::to_string(pin_limit_) + ")");
    }
    ++it->second.pins;
    return epoch;
  }
  // First pin of this epoch: capture. A failed capture (typed error or
  // thrown bad_alloc, from the capture or the registry insertion)
  // registers nothing — no epoch leaks. Plain try/catch rather than an
  // immediately-invoked lambda: a lambda body is analyzed as a separate
  // function, which would hide the held snap_mu_ from the
  // DYNCQ_REQUIRES check on CaptureSnapshot.
  try {
    Result<std::shared_ptr<EngineSnapshot>> snap = CaptureSnapshot();
    if (!snap.ok()) return snap.status();
    SnapEntry& entry = snaps_[epoch];
    entry.pins = 1;
    entry.snap = std::move(snap.value());
    return epoch;
  } catch (const std::bad_alloc&) {
    return R::Error("PinEpoch: allocation failed while capturing the snapshot");
  }
}

Status DynamicQueryEngine::UnpinEpoch(std::uint64_t epoch) {
  util::MutexLock lock(&snap_mu_);
  auto it = snaps_.find(epoch);
  if (it == snaps_.end() || it->second.pins == 0) {
    return Status::Error("UnpinEpoch: epoch " + std::to_string(epoch) +
                         " is not pinned");
  }
  if (--it->second.pins == 0 && it->second.cursor_refs == 0) {
    snaps_.erase(it);  // snapshot destructor runs under snap_mu_
  }
  return Status::Ok();
}

Result<std::unique_ptr<Cursor>> DynamicQueryEngine::NewSnapshotCursor(
    std::uint64_t epoch) {
  using R = Result<std::unique_ptr<Cursor>>;
  std::shared_ptr<EngineSnapshot> snap;
  {
    util::MutexLock lock(&snap_mu_);
    auto it = snaps_.find(epoch);
    if (it == snaps_.end()) {
      return R::Error("NewSnapshotCursor: epoch " + std::to_string(epoch) +
                      " is not pinned");
    }
    ++it->second.cursor_refs;
    snap = it->second.snap;
  }
  Result<std::unique_ptr<Cursor>> inner = MakeSnapshotCursor(snap);
  if (!inner.ok()) {
    ReleaseSnapshotCursorRef(epoch, std::move(snap));
    return inner.status();
  }
  return R(std::make_unique<SnapshotCursor>(this, epoch, std::move(snap),
                                            std::move(inner.value())));
}

void DynamicQueryEngine::ReleaseSnapshotCursorRef(
    std::uint64_t epoch, std::shared_ptr<EngineSnapshot> snap) {
  util::MutexLock lock(&snap_mu_);
  auto it = snaps_.find(epoch);
  if (it != snaps_.end() && it->second.cursor_refs > 0) {
    if (--it->second.cursor_refs == 0 && it->second.pins == 0) {
      snaps_.erase(it);
    }
  }
  snap.reset();  // version destructor (if last ref) runs under snap_mu_
}

std::size_t DynamicQueryEngine::num_pinned_epochs() const {
  util::MutexLock lock(&snap_mu_);
  return snaps_.size();
}

Status DynamicQueryEngine::DropAllSnapshots() {
  util::MutexLock lock(&snap_mu_);
  if (!snaps_.empty()) {
    std::size_t pins = 0, cursors = 0;
    for (const auto& [epoch, entry] : snaps_) {
      pins += entry.pins;
      cursors += entry.cursor_refs;
    }
    return Status::Error(
        "DropAllSnapshots: cannot reclaim while pinned (" +
        std::to_string(pins) + " pins, " + std::to_string(cursors) +
        " open snapshot cursors across " + std::to_string(snaps_.size()) +
        " epochs)");
  }
  ReclaimAllRetired();
  return Status::Ok();
}

std::uint64_t DynamicQueryEngine::OldestPinnedEpoch() const {
  util::MutexLock lock(&snap_mu_);
  if (snaps_.empty()) return ~std::uint64_t{0};
  return snaps_.begin()->first;  // std::map: ascending keys
}

void DynamicQueryEngine::ClearSnapshotRegistry() {
  util::MutexLock lock(&snap_mu_);
  for (auto& [epoch, entry] : snaps_) {
    if (entry.snap != nullptr) entry.snap->OnEngineTeardown();
  }
  snaps_.clear();
}

Result<std::vector<Tuple>> DrainChecked(Cursor& cursor, Weight count,
                                        const char* invalidated_error) {
  using R = Result<std::vector<Tuple>>;
  std::vector<Tuple> out;
  out.reserve(BoundedReserveFromCount(count));
  Tuple t;
  CursorStatus s;
  while ((s = cursor.Next(&t)) == CursorStatus::kOk) out.push_back(t);
  if (s == CursorStatus::kInvalidated) return R::Error(invalidated_error);
  return R(std::move(out));
}

Result<std::shared_ptr<EngineSnapshot>> DynamicQueryEngine::CaptureSnapshot() {
  using R = Result<std::shared_ptr<EngineSnapshot>>;
  DYNCQ_ALLOC_FAILPOINT();
  // Materialize-on-pin: the pin costs one full drain, after which the
  // snapshot is self-contained (no retire lists, no write-path hooks).
  const Weight count = Count();
  Result<std::vector<Tuple>> tuples = DrainChecked(
      *NewCursor(), count,
      "PinEpoch: result changed while materializing the snapshot (pins "
      "must be synchronized with writes)");
  if (!tuples.ok()) return tuples.status();
  return R(std::make_shared<VectorSnapshot>(std::move(tuples.value())));
}

Result<std::unique_ptr<Cursor>> DynamicQueryEngine::MakeSnapshotCursor(
    const std::shared_ptr<EngineSnapshot>& snap) {
  using R = Result<std::unique_ptr<Cursor>>;
  auto* vs = dynamic_cast<VectorSnapshot*>(snap.get());
  if (vs == nullptr) {
    return R::Error("MakeSnapshotCursor: unrecognized snapshot payload");
  }
  // Alias the vector through the snapshot's ownership: the cursor keeps
  // the whole payload alive.
  return R(NewVectorSnapshotCursor(
      std::shared_ptr<const std::vector<Tuple>>(snap, &vs->tuples())));
}

}  // namespace dyncq
