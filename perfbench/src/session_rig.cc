#include "session_rig.h"

#include <algorithm>

#include "baseline/evaluator.h"
#include "cq/canonical.h"
#include "cq/dichotomy.h"
#include "util/check.h"
#include "util/u128.h"

namespace perfbench {

using dyncq::CursorStatus;
using dyncq::Query;
using dyncq::core::Engine;
using dyncq::core::PendingDelta;

// -------------------------------------------------------------- shadow

ShadowEngine::ShadowEngine(const Query& q, const UpdateStream& preload,
                           Tracer* tracer)
    : tracer_(tracer), db_(q.schema()) {
  {
    ScopedSpan s(tracer_, SpanName::kStorageLoad, 0);
    db_.ApplyAll(preload);
  }
  ScopedSpan s(tracer_, SpanName::kCorePreload, 0);
  auto e = Engine::CreateShared(q, &db_);
  DYNCQ_CHECK_MSG(e.ok(), e.error());
  engine_ = std::move(e.value());
}

void ShadowEngine::Prepare(std::uint32_t id, std::uint32_t parent) {
  ScopedSpan s(tracer_,
               fork_pending_ ? SpanName::kCoreFork : SpanName::kCorePrepare,
               id, parent);
  fork_pending_ = false;
  engine_->PrepareSharedWrite();
}

void ShadowEngine::Apply(const UpdateCmd& cmd, std::uint32_t id) {
  ScopedSpan sh(tracer_, SpanName::kShadow, id);
  Prepare(id, sh.id());
  bool effective;
  {
    ScopedSpan s(tracer_, SpanName::kStorageApply, id, sh.id());
    effective = db_.Apply(cmd);
  }
  if (!effective) return;
  const PendingDelta d{cmd.rel, &cmd.tuple,
                       cmd.kind == dyncq::UpdateKind::kInsert};
  ScopedSpan s(tracer_, SpanName::kCoreApplyDelta, id, sh.id());
  engine_->ApplySharedDelta(d);
}

void ShadowEngine::ApplyNet(const std::vector<UpdateCmd>& net,
                            std::uint32_t id) {
  ScopedSpan sh(tracer_, SpanName::kShadow, id);
  sh.set_items(static_cast<std::uint32_t>(net.size()));
  Prepare(id, sh.id());
  pending_.clear();
  for (const UpdateCmd& cmd : net) {
    bool effective;
    {
      ScopedSpan s(tracer_, SpanName::kStorageApply, id, sh.id());
      effective = db_.Apply(cmd);
    }
    if (effective) {
      pending_.push_back(PendingDelta{cmd.rel, &cmd.tuple,
                                      cmd.kind == dyncq::UpdateKind::kInsert});
    }
  }
  if (pending_.empty()) return;
  ScopedSpan s(tracer_, SpanName::kCoreApplyDeltas, id, sh.id());
  s.set_items(static_cast<std::uint32_t>(pending_.size()));
  engine_->ApplySharedDeltas(pending_.data(), pending_.size());
}

void ShadowEngine::Pin() {
  auto e = engine_->PinEpoch();
  DYNCQ_CHECK_MSG(e.ok(), e.error());
  epoch_ = e.value();
  fork_pending_ = true;
}

void ShadowEngine::Unpin() {
  DYNCQ_CHECK(epoch_.has_value());
  DYNCQ_CHECK(engine_->UnpinEpoch(*epoch_).ok());
  epoch_.reset();
  fork_pending_ = false;
}

std::vector<UpdateCmd> NetDelta(const std::vector<UpdateCmd>& staged) {
  dyncq::OpenHashMap<Tuple, std::uint32_t, dyncq::TupleHash> index;
  std::vector<char> live;
  for (std::size_t i = 0; i < staged.size(); ++i) {
    Tuple key = staged[i].tuple;
    key.push_back(static_cast<dyncq::Value>(staged[i].rel));
    live.push_back(0);
    std::uint32_t* prior = index.Find(key);
    if (prior == nullptr) {
      index.Insert(key, static_cast<std::uint32_t>(i));
      live[i] = 1;
    } else if (staged[*prior].kind != staged[i].kind) {
      live[*prior] = 0;  // inverse pair annihilates
      index.Erase(key);
    }
  }
  std::vector<UpdateCmd> net;
  for (std::size_t i = 0; i < staged.size(); ++i) {
    if (live[i]) net.push_back(staged[i]);
  }
  return net;
}

// ---------------------------------------------------------------- rig

SessionRig::SessionRig(const Query& q, Tracer* tracer, Report* report,
                       E2eSamples* e2e)
    : q_(q), tracer_(tracer), report_(report), e2e_(e2e),
      deferred_(tracer, [this](const Event& e) { Replay(e); }),
      side_(q.schema_ptr()) {}

void SessionRig::Setup(const UpdateStream& preload) {
  for (int rep = 0; rep < kSetupReps; ++rep) {
    engine_ = nullptr;
    session_.reset();
    const std::int64_t t0 = NowNs();
    auto db = std::make_unique<dyncq::Database>(q_.schema());
    db->ApplyAll(preload);
    session_ = std::make_unique<dyncq::QuerySession>(q_, *db);
    e2e_->setup.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
  }
  engine_ = dynamic_cast<Engine*>(&session_->engine());
  DYNCQ_CHECK_MSG(engine_ != nullptr, "session did not pick the q-tree");
  if (tracer_->enabled()) {
    shadow_ = std::make_unique<ShadowEngine>(q_, preload, tracer_);
  }
  probes0_ = session_->db().TotalRelationProbes();
}

void SessionRig::Replay(const Event& e) {
  switch (e.kind) {
    case Event::kCmd:
      shadow_->Apply(e.cmds[0], e.id);
      break;
    case Event::kNet:
      shadow_->ApplyNet(NetDelta(e.cmds), e.id);
      break;
    case Event::kPin:
      shadow_->Pin();
      break;
    case Event::kUnpin:
      shadow_->Unpin();
      break;
  }
}

void SessionRig::Update(const UpdateCmd& cmd, bool with_count,
                        bool as_fork) {
  const std::uint32_t id = NextId();
  report_->Attempt();
  ++layer_.cmds;
  bool effective = false;
  dyncq::Weight count = 0;
  const double ns =
      Timed(tracer_, SpanName::kSessionApply, id, 0, [&] {
        effective = session_->Apply(cmd);
        if (with_count) count = session_->Count();
      });
  sink_ += static_cast<std::uint64_t>(count);
  layer_.effective += effective ? 1 : 0;
  if (as_fork) {
    e2e_->snapshot_write.push_back(ns);
  } else if (deferred_.traced_round()) {
    e2e_->update_traced.push_back(ns);
  } else {
    e2e_->update.push_back(ns);
  }
  if (shadow_ != nullptr) deferred_.Push(Event{Event::kCmd, id, {cmd}});
}

void SessionRig::Batch(const std::vector<UpdateCmd>& cmds) {
  const std::uint32_t id = NextId();
  const auto n = static_cast<std::uint32_t>(cmds.size());
  report_->Attempt(n);
  layer_.cmds += n;
  layer_.staged += n;
  const std::int64_t t0 = NowNs();
  const std::uint32_t op = tracer_->Open(SpanName::kOp, id);
  dyncq::UpdateBatch b = session_->NewBatch();
  {
    ScopedSpan s(tracer_, SpanName::kSessionStage, id, op);
    s.set_items(n);
    for (const UpdateCmd& cmd : cmds) b.Add(cmd);
  }
  layer_.annihilated += b.annihilated();
  layer_.deduped += b.deduped();
  {
    ScopedSpan s(tracer_, SpanName::kSessionCommit, id, op);
    s.set_items(n);
    layer_.effective += b.Commit();
  }
  tracer_->Close(op, n);
  e2e_->batch_per_cmd.push_back(static_cast<double>(NowNs() - t0) / n);
  if (shadow_ != nullptr) deferred_.Push(Event{Event::kNet, id, cmds});
}

void SessionRig::FirstTuple() {
  const std::uint32_t id = NextId();
  report_->Attempt();
  Tuple t;
  CursorStatus st = CursorStatus::kOk;
  const std::int64_t t0 = NowNs();
  const std::uint32_t op = tracer_->Open(SpanName::kOp, id);
  std::unique_ptr<dyncq::Cursor> cur;
  {
    ScopedSpan s(tracer_, SpanName::kCursorOpen, id, op);
    cur = session_->NewCursor();
  }
  {
    ScopedSpan s(tracer_, SpanName::kCursorFirstNext, id, op);
    st = cur->Next(&t);
  }
  tracer_->Close(op);
  e2e_->first_tuple.push_back(static_cast<double>(NowNs() - t0));
  if (st == CursorStatus::kInvalidated) report_->Fail("first tuple");
}

void SessionRig::LiveRead(std::size_t limit) {
  const std::uint32_t id = NextId();
  report_->Attempt();
  Tuple t;
  std::size_t n = 0;
  CursorStatus st = CursorStatus::kOk;
  const std::int64_t t0 = NowNs();
  const std::uint32_t op = tracer_->Open(SpanName::kOp, id);
  std::unique_ptr<dyncq::Cursor> cur;
  {
    ScopedSpan s(tracer_, SpanName::kCursorOpen, id, op);
    cur = session_->NewCursor();
  }
  {
    ScopedSpan s(tracer_, SpanName::kCursorDrain, id, op);
    while ((limit == 0 || n < limit) &&
           (st = cur->Next(&t)) == CursorStatus::kOk) {
      ++n;
    }
    s.set_items(static_cast<std::uint32_t>(std::max<std::size_t>(n, 1)));
  }
  tracer_->Close(op);
  const double ns = static_cast<double>(NowNs() - t0);
  if (n > 0) e2e_->enum_per_tuple.push_back(ns / static_cast<double>(n));
  if (st == CursorStatus::kInvalidated) report_->Fail("live read");
  if (limit == 0 && st == CursorStatus::kEnd && n != session_->Count()) {
    report_->Mismatch("live drain yielded " + std::to_string(n) +
                      " tuples, Count() says " +
                      dyncq::U128ToString(session_->Count()));
  }
}

void SessionRig::Pin(bool sample) {
  const std::uint32_t id = NextId();
  report_->Attempt();
  dyncq::CursorOptions opts;
  opts.snapshot = true;
  std::unique_ptr<dyncq::Cursor> cur;
  bool ok = false;
  const double ns = Timed(tracer_, SpanName::kSnapshotOpen, id, 0, [&] {
    auto r = session_->NewCursor(opts);
    ok = r.ok();
    if (ok) cur = std::move(r.value());
  });
  if (!ok) {
    report_->Fail("snapshot open");
    return;
  }
  snap_ = std::move(cur);
  pinned_count_ = session_->Count();
  if (sample) e2e_->pin.push_back(ns);
  if (shadow_ != nullptr) deferred_.Push(Event{Event::kPin, id, {}});
}

void SessionRig::SnapshotRead(std::size_t limit) {
  if (snap_ == nullptr) return;
  const std::uint32_t id = NextId();
  report_->Attempt();
  Tuple t;
  std::size_t n = 0;
  CursorStatus st = CursorStatus::kOk;
  const std::int64_t t0 = NowNs();
  {
    ScopedSpan s(tracer_, SpanName::kOp, id);
    while ((limit == 0 || n < limit) &&
           (st = snap_->Next(&t)) == CursorStatus::kOk) {
      ++n;
    }
  }
  const double ns = static_cast<double>(NowNs() - t0);
  if (n > 0) e2e_->snap_per_tuple.push_back(ns / static_cast<double>(n));
  if (st == CursorStatus::kInvalidated) report_->Fail("snapshot read");
  if (limit == 0 && n != pinned_count_) {
    report_->Mismatch("snapshot drain yielded " + std::to_string(n) +
                      " tuples, Count() at the pin was " +
                      dyncq::U128ToString(pinned_count_));
  }
}

void SessionRig::Release() {
  if (snap_ == nullptr) return;
  const std::uint32_t id = NextId();
  {
    ScopedSpan s(tracer_, SpanName::kSnapshotRelease, id);
    snap_.reset();
  }
  layer_.retired_max = std::max(layer_.retired_max, engine_->RetiredBlocks());
  if (shadow_ != nullptr) deferred_.Push(Event{Event::kUnpin, id, {}});
}

void SessionRig::RegisterProbe(const std::vector<Query>& variants) {
  for (const Query& v : variants) {
    const std::uint32_t id = NextId();
    report_->Attempt();
    if (tracer_->recording()) {
      {
        ScopedSpan s(tracer_, SpanName::kCqCanonicalKey, id);
        sink_ += dyncq::CanonicalQueryKey(v).size();
      }
      ScopedSpan s(tracer_, SpanName::kCqAnalyze, id);
      sink_ += dyncq::AnalyzeQuery(v).summary.size();
    }
    const std::size_t engines = side_.NumEngines();
    bool ok = false;
    const double ns = Timed(tracer_, SpanName::kRegRegister, id, 0, [&] {
      auto h = side_.Register(v);
      ok = h.ok();
      if (ok) side_handles_.push_back(std::move(h.value()));
    });
    if (!ok) {
      report_->Fail("register");
      continue;
    }
    e2e_->reg.push_back(ns);
    (side_.NumEngines() > engines ? layer_.reg_build : layer_.reg_join)
        .push_back(ns);
  }
  layer_.engines_per_registration =
      static_cast<double>(side_.NumEngines()) /
      static_cast<double>(std::max<std::size_t>(side_.NumRegistered(), 1));
  for (auto& h : side_handles_) {
    ScopedSpan s(tracer_, SpanName::kRegRelease, NextId());
    h.Release();
  }
  side_handles_.clear();
}

void SessionRig::Check() {
  if (snap_ != nullptr) Release();
  deferred_.Flush();
  const std::vector<Tuple> want =
      SortedTuples(dyncq::baseline::Evaluate(session_->db(), q_));
  const dyncq::Weight count = session_->Count();
  if (count != want.size()) {
    report_->Mismatch("Count() " + dyncq::U128ToString(count) +
                      " != evaluator " + std::to_string(want.size()));
  }
  auto got = session_->Materialize();
  if (!got.ok()) {
    report_->Fail("final Materialize: " + got.error());
  } else if (SortedTuples(std::move(got.value())) != want) {
    report_->Mismatch("Materialize() differs from the evaluator");
  }
  if (shadow_ != nullptr && shadow_->Count() != count) {
    report_->Mismatch("shadow Count() " +
                      dyncq::U128ToString(shadow_->Count()) +
                      " != session Count() " + dyncq::U128ToString(count));
  }
  report_->Note("oracle: " + std::to_string(want.size()) +
                " result tuples checked against the evaluator");
}

void SessionRig::LayerMetrics(const SpanTable& table, double gen_s) {
  layer_.engines = {engine_};
  layer_.num_tuples = session_->db().NumTuples();
  layer_.probes = session_->db().TotalRelationProbes() - probes0_;
  layer_.gen_s = gen_s;
  EmitLayerMetrics(layer_, *e2e_, table, report_);
}

}  // namespace perfbench
