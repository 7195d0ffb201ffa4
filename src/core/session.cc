#include "core/session.h"

#include <thread>
#include <utility>

#include "util/check.h"

namespace dyncq {

// ---------------------------------------------------------------------------
// UpdateBatch
// ---------------------------------------------------------------------------

void UpdateBatch::Stage(UpdateCmd cmd) {
  const Tuple key = KeyOf(cmd);
  std::uint32_t* idx = index_.Find(key);
  if (idx == nullptr) {
    index_.Insert(key, static_cast<std::uint32_t>(staged_.size()));
    staged_.push_back(Staged{std::move(cmd), true});
    ++live_;
    return;
  }
  Staged& prior = staged_[*idx];
  DYNCQ_DCHECK(prior.live);
  if (prior.cmd.kind == cmd.kind) {
    ++deduped_;  // same intention staged twice
    return;
  }
  // Inverse pair: annihilate both inside the staging table. A later
  // re-stage of the same tuple starts fresh (the map entry is gone).
  prior.live = false;
  --live_;
  ++annihilated_;
  index_.Erase(key);
}

std::size_t UpdateBatch::Commit() {
  UpdateStream net;
  net.reserve(live_);
  for (Staged& s : staged_) {
    if (s.live) net.push_back(std::move(s.cmd));
  }
  std::size_t effective = 0;
  if (!net.empty()) {
    effective = engine_->ApplyBatch(std::span<const UpdateCmd>(net), opts_);
  }
  Abort();
  return effective;
}

void UpdateBatch::Abort() {
  staged_.clear();
  index_.Clear();
  live_ = annihilated_ = deduped_ = 0;
}

// ---------------------------------------------------------------------------
// QuerySession
// ---------------------------------------------------------------------------

QuerySession::QuerySession(const Query& q) {
  core::EngineChoice choice = core::CreateMaintainableEngine(q);
  engine_ = std::move(choice.engine);
  strategy_ = choice.strategy;
  rationale_ = std::move(choice.rationale);
}

QuerySession::QuerySession(const Query& q, const Database& initial)
    : QuerySession(q) {
  // Engines with size-aware structures (core::Engine) reserve every
  // hash table from the input sizes before the replay.
  engine_->Preload(initial);
}

Result<std::unique_ptr<Cursor>> QuerySession::NewCursor(
    const CursorOptions& opts) {
  using R = Result<std::unique_ptr<Cursor>>;
  if (!opts.snapshot) return R(engine_->NewCursor());
  auto epoch = engine_->PinEpoch();
  if (!epoch.ok()) return epoch.status();
  auto cursor = engine_->NewSnapshotCursor(epoch.value());
  // The cursor holds its own snapshot reference, so the pin backing this
  // call is released right away: the snapshot lives until the cursor
  // dies, and other pins of the same epoch are unaffected.
  Status unpin = engine_->UnpinEpoch(epoch.value());
  DYNCQ_CHECK(unpin.ok());
  return cursor;
}

Result<std::vector<Tuple>> QuerySession::Materialize(
    const CursorOptions& opts) {
  auto c = NewCursor(opts);
  if (!c.ok()) return c.status();
  return DrainChecked(
      **c, engine_->Count(),
      "Materialize: result changed mid-drain (cursor invalidated); "
      "re-run, or use CursorOptions{.snapshot = true}");
}

Result<std::vector<Tuple>> QuerySession::ParallelMaterialize(
    std::size_t k, bool verify_disjoint) {
  using R = Result<std::vector<Tuple>>;
  if (k == 0) return R::Error("ParallelMaterialize: k must be >= 1");

  // Count first: cursors pin the same revision, so a mismatch below means
  // a partitioning bug (or a concurrent update, which also invalidates).
  const Weight expected = engine_->Count();

  auto parts = engine_->NewPartitions(k);
  if (!parts.ok()) return parts.status();

  const std::size_t n = parts.value().size();
  // Pre-size each chunk near its expected share so the drain loops do
  // not realloc (ranges are near-equal splits of the root fit list; the
  // slack absorbs skewed roots).
  const std::size_t bounded = BoundedReserveFromCount(expected);
  std::vector<std::vector<Tuple>> chunks(n);
  std::vector<CursorStatus> finals(n, CursorStatus::kEnd);
  {
    // One thread per partition: cursors only read the engine structure,
    // which is safe to share while no update runs.
    std::vector<std::thread> threads;
    threads.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      threads.emplace_back([&, i] {
        chunks[i].reserve(bounded / n + bounded / (4 * n) + 16);
        Cursor& c = *parts.value()[i];
        Tuple t;
        CursorStatus s;
        while ((s = c.Next(&t)) == CursorStatus::kOk) {
          chunks[i].push_back(t);
        }
        finals[i] = s;
      });
    }
    for (auto& th : threads) th.join();
  }
  for (CursorStatus s : finals) {
    if (s == CursorStatus::kInvalidated) {
      return R::Error(
          "ParallelMaterialize: result changed mid-drain (cursor "
          "invalidated); re-run against the new revision");
    }
  }

  std::size_t total = 0;
  for (const auto& chunk : chunks) total += chunk.size();
  if (Weight{total} != expected) {
    return R::Error("ParallelMaterialize: partitions produced " +
                    std::to_string(total) + " tuples, Count() says " +
                    std::to_string(static_cast<std::uint64_t>(expected)));
  }
  if (verify_disjoint) {
    OpenHashSet<Tuple, TupleHash> seen(total);
    for (const auto& chunk : chunks) {
      for (const Tuple& t : chunk) {
        if (!seen.Insert(t)) {
          return R::Error(
              "ParallelMaterialize: partitions overlap on tuple " +
              TupleToString(t));
        }
      }
    }
  }

  // Scatter-concatenate in parallel: chunk offsets are known now, so
  // each thread moves its chunk into a disjoint slice of the output
  // (keeps the post-drain phase off the serial path on multi-core).
  std::vector<Tuple> out(total);
  {
    std::vector<std::thread> threads;
    threads.reserve(n);
    std::size_t off = 0;
    for (std::size_t i = 0; i < n; ++i) {
      threads.emplace_back([&, i, off] {
        std::move(chunks[i].begin(), chunks[i].end(), out.begin() + off);
      });
      off += chunks[i].size();
    }
    for (auto& th : threads) th.join();
  }
  return out;
}

}  // namespace dyncq
