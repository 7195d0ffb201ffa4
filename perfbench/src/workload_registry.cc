// registry_fanout: one QueryRegistry serving 20k registrations of 2048
// alpha-renamed random q-hierarchical shapes over ~2.6k relations. Runs
// of single ApplyDelta calls alternate with ApplyBatch calls; every 16
// rounds 16 random handles are released and 16 fresh variants
// registered; every 4th round one of 64 fixed reader handles is read
// live, and every 256th one is pinned, written under the pin and
// drained. Routing,
// canonicalization and dedup, and many small cache-cold engines
// dominate.
#include <algorithm>
#include <unordered_map>

#include "baseline/evaluator.h"
#include "bench.h"
#include "cq/canonical.h"
#include "cq/dichotomy.h"
#include "serve/query_registry.h"
#include "util/check.h"
#include "util/u128.h"
#include "workload/query_gen.h"
#include "workload/stream_gen.h"

namespace perfbench {
namespace {

using dyncq::CursorStatus;
using dyncq::Query;
using dyncq::core::Engine;
using dyncq::core::PendingDelta;
using dyncq::serve::QueryHandle;
using dyncq::serve::QueryRegistry;

constexpr std::size_t kShapes = 2048;
constexpr std::size_t kRegistrations = 20000;
constexpr std::size_t kReaders = 64;
constexpr std::size_t kReaderCandidates = 512;
constexpr std::size_t kDomain = 1000;
constexpr std::size_t kPreload = 200000;
constexpr std::size_t kRun = 64;           // singles per round = batch size
constexpr std::size_t kChurnEvery = 16;    // rounds between handle churn
constexpr std::size_t kChurnHandles = 16;
constexpr std::size_t kReadEvery = 4;      // rounds between reader reads
// Rounds between pinned writes. A fork rebuilds the pinned engine from
// storage (~10 ms for these small engines on a 4-vCPU Xeon KVM guest),
// so pins are kept rare enough not to turn the workload into a fork
// benchmark.
constexpr std::size_t kPinEvery = 256;
constexpr std::size_t kPoolHalf = 1000000;  // churn cycle = 2 * kPoolHalf
constexpr std::size_t kPinnedHalf = 1024;
constexpr std::size_t kFreshVariants = 4096;  // registered cyclically

struct Inputs {
  std::shared_ptr<dyncq::Schema> schema;
  UpdateStream preload;
  std::vector<Query> regs;        // setup registrations
  std::vector<Query> readers;     // fixed reader handles
  std::vector<Query> fresh;       // registrations while measuring
  std::vector<std::uint32_t> release_picks;
  CommandPool pool;               // ApplyDelta / ApplyBatch commands
  CommandPool pinned;             // one write per pinned probe
  std::vector<std::uint32_t> pinned_reader;  // reader each one targets
  double gen_s = 0;
};

Inputs MakeInputs(std::uint64_t seed) {
  const std::int64_t t0 = NowNs();
  Inputs in;
  dyncq::Rng rng(seed);
  dyncq::workload::SchemaPool pool(/*reuse_prob=*/0.25);
  dyncq::workload::QueryGenOptions qopts;
  qopts.max_components = 1;
  qopts.max_component_vars = 4;
  std::vector<Query> shapes;
  shapes.reserve(kShapes);
  for (std::size_t i = 0; i < kShapes; ++i) {
    shapes.push_back(
        dyncq::workload::RandomQHierarchicalQuery(qopts, rng, &pool));
  }
  in.schema = pool.schema;
  using dyncq::workload::AlphaRenameShuffle;
  for (std::size_t i = 0; i < kRegistrations; ++i) {
    in.regs.push_back(AlphaRenameShuffle(shapes[i % kShapes], rng));
  }
  for (std::size_t i = 0; i < kFreshVariants; ++i) {
    in.fresh.push_back(AlphaRenameShuffle(shapes[rng.Below(kShapes)], rng));
    in.release_picks.push_back(static_cast<std::uint32_t>(
        rng.Below(kRegistrations - i % kChurnHandles)));
  }

  dyncq::workload::StreamOptions sopts;
  sopts.seed = seed + 1;
  sopts.domain_size = kDomain;
  sopts.insert_ratio = 1.0;
  dyncq::workload::StreamGenerator gen(in.schema, sopts);
  in.preload = gen.Take(kPreload);
  // Readers: the kReaders shapes (of the first kReaderCandidates) with
  // the largest results on the preload, so per-tuple read costs rest on
  // many tuples rather than on a few cursor opens.
  {
    dyncq::Database db(*in.schema);
    db.ApplyAll(in.preload);
    std::vector<std::pair<dyncq::Weight, std::size_t>> sizes;
    for (std::size_t i = 0; i < kReaderCandidates; ++i) {
      sizes.emplace_back(dyncq::baseline::CountDistinct(db, shapes[i]), i);
    }
    std::stable_sort(sizes.begin(), sizes.end(),
                     [](const auto& a, const auto& b) { return a.first > b.first; });
    for (std::size_t i = 0; i < kReaders; ++i) {
      in.readers.push_back(AlphaRenameShuffle(shapes[sizes[i].second], rng));
    }
  }
  ChurnGen churn(in.schema, seed * 0x9e3779b97f4a7c15ULL + 2, kDomain,
                 /*insert_ratio=*/0.5, /*noop_ratio=*/0.1);
  for (const UpdateCmd& c : in.preload) churn.AddLive(c.rel, c.tuple);
  BuildClosedCycle(
      &churn, kPoolHalf, [&](std::uint32_t*) { return churn.Next(); },
      &in.pool);
  // Pinned writes touch the pinned reader's first relation, so the write
  // forks it; the reader is recorded per command.
  ChurnGen pin_churn(in.schema, seed * 0x9e3779b97f4a7c15ULL + 3, kDomain,
                     /*insert_ratio=*/0.5, /*noop_ratio=*/0.1);
  for (const UpdateCmd& c : in.preload) pin_churn.AddLive(c.rel, c.tuple);
  std::size_t next_reader = 0;
  in.pinned_reader = BuildClosedCycle(
      &pin_churn, kPinnedHalf,
      [&](std::uint32_t* reader) {
        *reader = static_cast<std::uint32_t>(next_reader++ % kReaders);
        return pin_churn.NextFor(in.readers[*reader].atoms()[0].rel);
      },
      &in.pinned);
  in.gen_s = static_cast<double>(NowNs() - t0) * 1e-9;
  return in;
}

/// Shadow of the registry: its own Database, CreateShared engines keyed
/// by canonical key, and RelId -> engine postings, driven through
/// PrepareSharedWrite -> Database::Apply -> ApplySharedDelta(s) with a
/// span around each call.
class ShadowRegistry {
 public:
  ShadowRegistry(const dyncq::Schema& schema, const UpdateStream& preload,
                 Tracer* tracer)
      : tracer_(tracer), db_(schema), by_rel_(schema.NumRelations()) {
    ScopedSpan s(tracer_, SpanName::kStorageLoad, 0);
    db_.ApplyAll(preload);
  }

  void Register(const Query& q, const std::string& key, bool in_setup) {
    auto [it, inserted] = entries_.try_emplace(key);
    Entry& e = it->second;
    ++e.refs;
    if (!inserted) return;
    // Set-up builds are the core layer's preprocessing (core.preload_s);
    // later ones belong to Register, which the real registry times.
    const std::uint32_t span =
        in_setup ? tracer_->Open(SpanName::kCorePreload, 0) : 0;
    auto eng = Engine::CreateShared(q, &db_);
    DYNCQ_CHECK_MSG(eng.ok(), eng.error());
    e.engine = std::move(eng.value());
    tracer_->Close(span);
    for (const dyncq::Atom& a : q.atoms()) {
      if (std::find(e.rels.begin(), e.rels.end(), a.rel) != e.rels.end()) {
        continue;
      }
      e.rels.push_back(a.rel);
      by_rel_[a.rel].push_back(&e);
    }
  }

  void Release(const std::string& key) {
    auto it = entries_.find(key);
    DYNCQ_CHECK(it != entries_.end() && it->second.refs > 0);
    Entry& e = it->second;
    if (--e.refs > 0) return;
    for (RelId rel : e.rels) {
      auto& subs = by_rel_[rel];
      subs.erase(std::find(subs.begin(), subs.end(), &e));
    }
    entries_.erase(it);
  }

  void Pin(const std::string& key) {
    Entry& e = entries_.at(key);
    auto epoch = e.engine->PinEpoch();
    DYNCQ_CHECK_MSG(epoch.ok(), epoch.error());
    e.epochs.push_back(epoch.value());
    e.fork_pending = true;
  }

  void Unpin(const std::string& key) {
    Entry& e = entries_.at(key);
    DYNCQ_CHECK(!e.epochs.empty());
    DYNCQ_CHECK(e.engine->UnpinEpoch(e.epochs.back()).ok());
    e.epochs.pop_back();
    e.fork_pending = false;
  }

  void ApplyDelta(const UpdateCmd& cmd, std::uint32_t id) {
    ScopedSpan sh(tracer_, SpanName::kShadow, id);
    const auto& subs = by_rel_[cmd.rel];
    for (Entry* e : subs) Prepare(e, id, sh.id());
    bool effective;
    {
      ScopedSpan s(tracer_, SpanName::kStorageApply, id, sh.id());
      effective = db_.Apply(cmd);
    }
    if (!effective) return;
    const PendingDelta d{cmd.rel, &cmd.tuple,
                         cmd.kind == dyncq::UpdateKind::kInsert};
    for (Entry* e : subs) {
      ScopedSpan s(tracer_, SpanName::kCoreApplyDelta, id, sh.id());
      e->engine->ApplySharedDelta(d);
    }
  }

  void ApplyBatch(const std::vector<UpdateCmd>& cmds, std::uint32_t id) {
    ScopedSpan sh(tracer_, SpanName::kShadow, id);
    sh.set_items(static_cast<std::uint32_t>(cmds.size()));
    ++stamp_;
    touched_.clear();
    auto one = [&](const UpdateCmd& cmd) {
      for (Entry* e : by_rel_[cmd.rel]) {
        if (e->stamp == stamp_) continue;
        e->stamp = stamp_;
        e->pending.clear();
        touched_.push_back(e);
        Prepare(e, id, sh.id());
      }
      bool effective;
      {
        ScopedSpan s(tracer_, SpanName::kStorageApply, id, sh.id());
        effective = db_.Apply(cmd);
      }
      if (!effective) return;
      for (Entry* e : by_rel_[cmd.rel]) {
        e->pending.push_back(PendingDelta{
            cmd.rel, &cmd.tuple, cmd.kind == dyncq::UpdateKind::kInsert});
      }
    };
    if (folder_.Fold(cmds, &kept_)) {
      for (std::uint32_t i : kept_) one(cmds[i]);
    } else {
      for (const UpdateCmd& cmd : cmds) one(cmd);
    }
    for (Entry* e : touched_) {
      if (e->pending.empty()) continue;
      ScopedSpan s(tracer_, SpanName::kCoreApplyDeltas, id, sh.id());
      s.set_items(static_cast<std::uint32_t>(e->pending.size()));
      e->engine->ApplySharedDeltas(e->pending.data(), e->pending.size());
      e->pending.clear();
    }
  }

  dyncq::Weight Count(const std::string& key) {
    return entries_.at(key).engine->Count();
  }

 private:
  struct Entry {
    std::unique_ptr<Engine> engine;
    std::size_t refs = 0;
    std::vector<RelId> rels;
    std::vector<std::uint64_t> epochs;
    bool fork_pending = false;
    std::uint64_t stamp = 0;
    std::vector<PendingDelta> pending;
  };

  void Prepare(Entry* e, std::uint32_t id, std::uint32_t parent) {
    ScopedSpan s(tracer_,
                 e->fork_pending ? SpanName::kCoreFork
                                 : SpanName::kCorePrepare,
                 id, parent);
    e->fork_pending = false;
    e->engine->PrepareSharedWrite();
  }

  Tracer* tracer_;
  dyncq::Database db_;
  std::unordered_map<std::string, Entry> entries_;
  std::vector<std::vector<Entry*>> by_rel_;
  std::uint64_t stamp_ = 0;
  std::vector<Entry*> touched_;
  dyncq::BatchFolder folder_;
  std::vector<std::uint32_t> kept_;
};

class RegistryRig {
 public:
  RegistryRig(const Inputs& in, Tracer* tracer, Report* report,
              E2eSamples* e2e)
      : in_(in), tracer_(tracer), report_(report), e2e_(e2e),
        deferred_(tracer, [this](const Event& e) { Replay(e); }) {}

  void Setup() {
    for (int rep = 0; rep < kSetupReps; ++rep) {
      handles_.clear();
      readers_.clear();
      reg_.reset();
      const std::int64_t t0 = NowNs();
      reg_ = std::make_unique<QueryRegistry>(in_.schema);
      reg_->ApplyAll(in_.preload);
      for (const Query& q : in_.regs) handles_.push_back(MustRegister(q));
      for (const Query& q : in_.readers) readers_.push_back(MustRegister(q));
      e2e_->setup.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
    }
    if (tracer_->enabled()) {
      shadow_ = std::make_unique<ShadowRegistry>(*in_.schema, in_.preload,
                                                 tracer_);
      for (const Query& q : in_.regs) {
        keys_.push_back(dyncq::CanonicalQueryKey(q));
        shadow_->Register(q, keys_.back(), /*in_setup=*/true);
      }
      for (const Query& q : in_.readers) {
        reader_keys_.push_back(dyncq::CanonicalQueryKey(q));
        shadow_->Register(q, reader_keys_.back(), /*in_setup=*/true);
      }
    }
    probes0_ = reg_->db().TotalRelationProbes();
    stats0_ = reg_->stats();
  }

  void BeginRound(bool traced) { deferred_.BeginRound(traced); }
  void EndRound() { deferred_.EndRound(); }

  /// `as_fork`: the first write after a reader pinned.
  void Delta(const UpdateCmd& cmd, bool as_fork) {
    const std::uint32_t id = ++next_id_;
    report_->Attempt();
    ++layer_.cmds;
    bool effective = false;
    const double ns = Timed(tracer_, SpanName::kRegApplyDelta, id, 0,
                            [&] { effective = reg_->ApplyDelta(cmd); });
    layer_.effective += effective ? 1 : 0;
    if (as_fork) {
      e2e_->snapshot_write.push_back(ns);
    } else if (deferred_.traced_round()) {
      e2e_->update_traced.push_back(ns);
    } else {
      e2e_->update.push_back(ns);
    }
    if (shadow_ != nullptr) deferred_.Push(Event{Event::kCmd, id, {cmd}, {}, nullptr});
  }

  void Batch(const std::vector<UpdateCmd>& cmds) {
    const std::uint32_t id = ++next_id_;
    const auto n = static_cast<std::uint32_t>(cmds.size());
    report_->Attempt(n);
    layer_.cmds += n;
    std::size_t effective = 0;
    const std::int64_t t0 = NowNs();
    {
      ScopedSpan s(tracer_, SpanName::kRegApplyBatch, id);
      s.set_items(n);
      effective = reg_->ApplyBatch(cmds);
    }
    e2e_->batch_per_cmd.push_back(static_cast<double>(NowNs() - t0) / n);
    layer_.effective += effective;
    if (shadow_ != nullptr) deferred_.Push(Event{Event::kBatch, id, cmds, {}, nullptr});
  }

  /// Releases `kChurnHandles` picked handles and registers as many
  /// fresh variants.
  void Churn() {
    for (std::size_t i = 0; i < kChurnHandles && !handles_.empty(); ++i) {
      // Reduced at use: a failed Register (a counted failure) leaves
      // handles_ shorter than the picks were drawn for.
      const std::size_t pick =
          in_.release_picks[next_pick_++ % in_.release_picks.size()] %
          handles_.size();
      {
        ScopedSpan s(tracer_, SpanName::kRegRelease, ++next_id_);
        handles_[pick].Release();
      }
      handles_[pick] = std::move(handles_.back());
      handles_.pop_back();
      if (shadow_ != nullptr) {
        deferred_.Push(Event{Event::kRelease, 0, {}, keys_[pick], nullptr});
        keys_[pick] = std::move(keys_.back());
        keys_.pop_back();
      }
    }
    for (std::size_t i = 0; i < kChurnHandles; ++i) {
      const Query& q = in_.fresh[next_fresh_++ % in_.fresh.size()];
      const std::uint32_t id = ++next_id_;
      report_->Attempt();
      std::string key;
      if (shadow_ != nullptr) {
        {
          ScopedSpan s(tracer_, SpanName::kCqCanonicalKey, id);
          key = dyncq::CanonicalQueryKey(q);
        }
        ScopedSpan s(tracer_, SpanName::kCqAnalyze, id);
        sink_ += dyncq::AnalyzeQuery(q).summary.size();
      }
      const std::size_t engines = reg_->NumEngines();
      dyncq::Result<QueryHandle> h = dyncq::Result<QueryHandle>::Error("unset");
      const double ns = Timed(tracer_, SpanName::kRegRegister, id, 0,
                              [&] { h = reg_->Register(q); });
      if (!h.ok()) {
        report_->Fail("register: " + h.error());
        continue;
      }
      e2e_->reg.push_back(ns);
      (reg_->NumEngines() > engines ? layer_.reg_build : layer_.reg_join)
          .push_back(ns);
      handles_.push_back(std::move(h.value()));
      if (shadow_ != nullptr) {
        keys_.push_back(key);
        deferred_.Push(Event{Event::kRegister, id, {}, key, &q});
      }
    }
  }

  /// Reads reader `k` live: first tuple, then the rest of the drain.
  void Read(std::size_t k) {
    QueryHandle& h = readers_[k % kReaders];
    Tuple t;
    {
      const std::uint32_t id = ++next_id_;
      report_->Attempt();
      std::size_t n = 0;
      CursorStatus st = CursorStatus::kOk;
      const std::int64_t t0 = NowNs();
      const std::uint32_t op = tracer_->Open(SpanName::kOp, id);
      std::unique_ptr<dyncq::Cursor> cur;
      {
        ScopedSpan s(tracer_, SpanName::kCursorOpen, id, op);
        cur = h.NewCursor();
      }
      {
        ScopedSpan s(tracer_, SpanName::kCursorFirstNext, id, op);
        st = cur->Next(&t);
      }
      const std::int64_t t1 = NowNs();
      if (st == CursorStatus::kOk) {
        ++n;
        ScopedSpan s(tracer_, SpanName::kCursorDrain, id, op);
        while ((st = cur->Next(&t)) == CursorStatus::kOk) ++n;
        s.set_items(static_cast<std::uint32_t>(n));
      }
      tracer_->Close(op);
      const std::int64_t t2 = NowNs();
      e2e_->first_tuple.push_back(static_cast<double>(t1 - t0));
      if (n > 0) {
        e2e_->enum_per_tuple.push_back(static_cast<double>(t2 - t0) /
                                       static_cast<double>(n));
      }
      if (st != CursorStatus::kEnd) report_->Fail("reader live drain");
    }
  }

  /// Pins reader `k`, writes `pinned_cmd` under the pin, drains and
  /// checks the snapshot, and releases it.
  void PinnedWrite(std::size_t k, const UpdateCmd& pinned_cmd) {
    QueryHandle& h = readers_[k % kReaders];
    const std::string* key =
        shadow_ != nullptr ? &reader_keys_[k % kReaders] : nullptr;
    Tuple t;
    const std::uint32_t id = ++next_id_;
    report_->Attempt();
    std::uint64_t epoch = 0;
    std::unique_ptr<dyncq::Cursor> snap;
    bool ok = false;
    const double pin_ns = Timed(tracer_, SpanName::kSnapshotOpen, id, 0, [&] {
      auto e = h.PinEpoch();
      if (!e.ok()) return;
      epoch = e.value();
      auto c = h.NewSnapshotCursor(epoch);
      ok = c.ok();
      if (ok) snap = std::move(c.value());
    });
    if (!ok) {
      report_->Fail("reader pin");
      return;
    }
    e2e_->pin.push_back(pin_ns);
    const dyncq::Weight at_pin = h.Count();
    if (key != nullptr) deferred_.Push(Event{Event::kPin, id, {}, *key, nullptr});
    Delta(pinned_cmd, /*as_fork=*/true);
    std::size_t n = 0;
    CursorStatus st;
    const std::int64_t t0 = NowNs();
    while ((st = snap->Next(&t)) == CursorStatus::kOk) ++n;
    if (n > 0) {
      e2e_->snap_per_tuple.push_back(static_cast<double>(NowNs() - t0) /
                                     static_cast<double>(n));
    }
    if (st != CursorStatus::kEnd || n != at_pin) {
      report_->Mismatch("reader snapshot drained " + std::to_string(n) +
                        " tuples, Count() at the pin was " +
                        dyncq::U128ToString(at_pin));
    }
    {
      ScopedSpan s(tracer_, SpanName::kSnapshotRelease, ++next_id_);
      snap.reset();
      if (!h.UnpinEpoch(epoch).ok()) report_->Fail("reader unpin");
    }
    if (key != nullptr) deferred_.Push(Event{Event::kUnpin, id, {}, *key, nullptr});
    layer_.retired_max = std::max(layer_.retired_max, reg_->RetiredBlocks());
  }

  /// Oracle: the readers against the evaluator over reg.db(), and the
  /// shadow's counts against the real ones.
  void Check() {
    deferred_.Flush();
    std::size_t checked = 0;
    for (std::size_t k = 0; k < kReaders; k += 4) {
      QueryHandle& h = readers_[k];
      const std::vector<Tuple> want =
          SortedTuples(dyncq::baseline::Evaluate(reg_->db(), h.query()));
      auto got = h.Materialize();
      if (!got.ok()) {
        report_->Fail("reader Materialize: " + got.error());
        continue;
      }
      if (h.Count() != want.size() ||
          SortedTuples(std::move(got.value())) != want) {
        report_->Mismatch("reader " + std::to_string(k) +
                          " differs from the evaluator");
      }
      if (shadow_ != nullptr && shadow_->Count(reader_keys_[k]) != h.Count()) {
        report_->Mismatch("shadow count of reader " + std::to_string(k));
      }
      checked += want.size();
    }
    report_->Note("oracle: " + std::to_string(kReaders / 4) +
                  " reader handles (" + std::to_string(checked) +
                  " tuples) checked against the evaluator");
  }

  void LayerMetrics(const SpanTable& table, double gen_s) {
    LayerInputs& in = layer_;
    std::vector<const Engine*> engines;
    for (QueryHandle* h : AllHandles()) {
      if (auto* e = dynamic_cast<const Engine*>(&h->engine())) {
        engines.push_back(e);
      }
    }
    std::sort(engines.begin(), engines.end());
    engines.erase(std::unique(engines.begin(), engines.end()), engines.end());
    in.engines = engines;
    in.num_tuples = reg_->db().NumTuples();
    in.probes = reg_->db().TotalRelationProbes() - probes0_;
    const auto stats = reg_->stats();
    in.deltas = stats.deltas_applied - stats0_.deltas_applied;
    in.notifications = stats.notifications - stats0_.notifications;
    in.engines_per_registration =
        static_cast<double>(reg_->NumEngines()) /
        static_cast<double>(reg_->NumRegistered());
    in.gen_s = gen_s;
    EmitLayerMetrics(in, *e2e_, table, report_);
  }

 private:
  struct Event {
    enum Kind { kCmd, kBatch, kRegister, kRelease, kPin, kUnpin } kind;
    std::uint32_t id;
    std::vector<UpdateCmd> cmds;
    std::string key;
    const Query* query;
  };

  void Replay(const Event& e) {
    switch (e.kind) {
      case Event::kCmd:
        shadow_->ApplyDelta(e.cmds[0], e.id);
        break;
      case Event::kBatch:
        shadow_->ApplyBatch(e.cmds, e.id);
        break;
      case Event::kRegister:
        shadow_->Register(*e.query, e.key, /*in_setup=*/false);
        break;
      case Event::kRelease:
        shadow_->Release(e.key);
        break;
      case Event::kPin:
        shadow_->Pin(e.key);
        break;
      case Event::kUnpin:
        shadow_->Unpin(e.key);
        break;
    }
  }

  QueryHandle MustRegister(const Query& q) {
    auto h = reg_->Register(q);
    DYNCQ_CHECK_MSG(h.ok(), h.error());
    return std::move(h.value());
  }

  std::vector<QueryHandle*> AllHandles() {
    std::vector<QueryHandle*> out;
    for (QueryHandle& h : handles_) out.push_back(&h);
    for (QueryHandle& h : readers_) out.push_back(&h);
    return out;
  }

  const Inputs& in_;
  Tracer* tracer_;
  Report* report_;
  E2eSamples* e2e_;
  DeferredShadow<Event> deferred_;
  // Handles are declared after the registry so they release first.
  std::unique_ptr<QueryRegistry> reg_;
  std::vector<QueryHandle> handles_;
  std::vector<QueryHandle> readers_;
  std::unique_ptr<ShadowRegistry> shadow_;
  std::vector<std::string> keys_;         // canonical key per handles_ slot
  std::vector<std::string> reader_keys_;
  std::uint32_t next_id_ = 0;
  std::size_t next_pick_ = 0;
  std::size_t next_fresh_ = 0;
  LayerInputs layer_;  // counters for the per-layer metrics
  std::uint64_t probes0_ = 0;
  dyncq::serve::RegistryStats stats0_;
  std::uint64_t sink_ = 0;  // keeps measured results observable
};

}  // namespace

void RunRegistryFanout(const RunConfig& cfg, Report* report) {
  const Inputs in = MakeInputs(cfg.seed);
  Tracer tracer(cfg.trace, kSpanCapacity);
  E2eSamples e2e;
  e2e.Reserve(static_cast<std::size_t>(cfg.seconds * 200000));
  e2e.heap0 = HeapInUse();
  RegistryRig rig(in, &tracer, report, &e2e);
  rig.Setup();
  e2e.SampleHeap();

  std::vector<UpdateCmd> buf(kRun);
  UpdateCmd pinned;
  PoolReader pool(in.pool), pinned_pool(in.pinned);
  std::size_t r = 0;
  const std::int64_t deadline =
      NowNs() + static_cast<std::int64_t>(cfg.seconds * 1e9);
  for (;; ++r) {
    if (NowNs() >= deadline || tracer.full()) break;
    rig.BeginRound(r % 2 == 0);
    for (std::size_t i = 0; i < kRun; ++i) {
      pool.Next(&buf[0]);
      rig.Delta(buf[0], /*as_fork=*/false);
    }
    pool.Take(kRun, &buf);
    rig.Batch(buf);
    if (r % kChurnEvery == 0) rig.Churn();
    if (r % kReadEvery == 0) rig.Read(r / kReadEvery);
    if (r % kPinEvery == 0) {
      const std::size_t k = pinned_pool.taken() % in.pinned.size();
      pinned_pool.Next(&pinned);
      rig.PinnedWrite(in.pinned_reader[k], pinned);
    }
    // Sampled for the whole run (see session_churn); the largest sample
    // is the one right after set-up.
    if (r % 1024 == 0) e2e.SampleHeap();
    rig.EndRound();
  }
  report->Note("workload registry_fanout: " + std::to_string(r) +
               " rounds, " + std::to_string(pool.taken()) + " commands (" +
               std::to_string(pool.passes()) + " full passes over a " +
               std::to_string(in.pool.size()) + "-command cycle)");
  rig.Check();
  if (!cfg.trace) {
    EmitE2eMetrics(&e2e, report);
    return;
  }
  SpanTable table(tracer.spans());
  rig.LayerMetrics(table, in.gen_s);
  if (!cfg.trace_out.empty() && !tracer.WriteTsv(cfg.trace_out)) {
    report->Note("could not write " + cfg.trace_out);
  }
}

}  // namespace perfbench
