// Fuzz harness: structure-aware differential replay of update streams.
//
// Bytes decode into a command stream — single inserts/deletes, sharded
// batches, epoch pins, snapshot drains, checkpoints — applied in
// lockstep to the q-tree engine (core::Engine) and the delta-IVM oracle
// over one of a fixed menu of q-hierarchical queries. At every
// checkpoint the engines must agree with each other AND with the
// from-scratch baseline evaluator on Count/Answer/the enumerated tuple
// set, and every q-tree component must pass CheckInvariants. Pinned
// epochs carry their own oracle: the result materialized at pin time,
// which the snapshot cursor must still enumerate exactly after
// arbitrary later writes.
//
// The decoder is valid-by-construction where the storage contract
// requires it (tuple arity matches the relation, Value 0 — the reserved
// sentinel — never appears) and adversarial everywhere else: op
// interleavings, duplicate/no-op updates, inverse pairs inside one
// batch, pins held across churn.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "baseline/delta_ivm.h"
#include "baseline/evaluator.h"
#include "core/engine.h"
#include "cq/parser.h"
#include "cq/query.h"
#include "cq/schema.h"
#include "fuzz/fuzz_util.h"
#include "storage/tuple.h"
#include "storage/update.h"
#include "util/types.h"

namespace {

using dyncq::BatchOptions;
using dyncq::Query;
using dyncq::RelId;
using dyncq::Tuple;
using dyncq::UpdateCmd;
using dyncq::UpdateStream;
using dyncq::Value;
using dyncq::Weight;
using dyncq::fuzz::ByteReader;

constexpr std::size_t kMaxOps = 200;
constexpr Value kDomain = 8;  // small domain forces dup/no-op collisions
constexpr std::size_t kMaxPins = 4;

std::shared_ptr<const dyncq::Schema> SharedSchema() {
  auto s = std::make_shared<dyncq::Schema>();
  (void)s->AddRelation("R", 2);
  (void)s->AddRelation("S", 2);
  (void)s->AddRelation("T", 1);
  (void)s->AddRelation("U", 3);
  return s;
}

// All q-hierarchical over SharedSchema(): free-var chains, a projection,
// a boolean query, a full-arity identity, a star join, and a depth-3
// chain (fanout-1 x over y items over a unit leaf z). The first input
// byte picks an entry modulo the menu size, so appending an entry
// re-maps some committed seeds to other queries.
constexpr const char* kQueryMenu[] = {
    "Q(x, y) :- R(x, y), T(y).",
    "Q(x) :- R(x, y).",
    "Q() :- S(x, y), T(x).",
    "Q(x, y, z) :- U(x, y, z).",
    "Q(x) :- R(x, y), S(x, z), T(x).",
    "Q(x, y, z) :- T(x), R(x, y), U(x, y, z).",
};

std::vector<Tuple> SortedResult(dyncq::DynamicQueryEngine& engine) {
  std::vector<Tuple> out = dyncq::MaterializeResult(engine);
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<Tuple> SortedBaseline(const dyncq::Database& db, const Query& q) {
  std::vector<Tuple> out = dyncq::baseline::Evaluate(db, q);
  std::sort(out.begin(), out.end());
  return out;
}

UpdateCmd DecodeCmd(ByteReader& r, const dyncq::Schema& schema) {
  const RelId rel = static_cast<RelId>(r.Choice(schema.NumRelations()));
  Tuple t;
  for (std::size_t i = 0; i < schema.arity(rel); ++i) {
    t.push_back(r.Range(1, kDomain));
  }
  return r.Bool() ? UpdateCmd::Delete(rel, t) : UpdateCmd::Insert(rel, t);
}

struct Pin {
  std::uint64_t epoch = 0;
  std::vector<Tuple> expected;  // result materialized at pin time
};

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  if (size > (1u << 12)) return 0;
  ByteReader r(data, size);

  auto schema = SharedSchema();
  const std::size_t qi = r.Choice(std::size(kQueryMenu));
  dyncq::Result<Query> q = dyncq::ParseQuery(kQueryMenu[qi], schema);
  FUZZ_ASSERT(q.ok(), "menu query must parse");

  auto engine_or = dyncq::core::Engine::Create(*q);
  FUZZ_ASSERT(engine_or.ok(), "menu query must be q-hierarchical");
  dyncq::core::Engine& engine = *engine_or.value();
  dyncq::baseline::DeltaIvmEngine oracle(*q);

  std::vector<Pin> pins;
  auto checkpoint = [&] {
    const std::vector<Tuple> got = SortedResult(engine);
    const std::vector<Tuple> want = SortedResult(oracle);
    FUZZ_ASSERT(got == want, "engine and delta-IVM oracle diverged");
    FUZZ_ASSERT(got == SortedBaseline(engine.db(), *q),
                "engine diverged from the from-scratch baseline");
    FUZZ_ASSERT(engine.Count() == oracle.Count(), "Count divergence");
    FUZZ_ASSERT(engine.Count() == Weight{got.size()},
                "Count disagrees with enumeration");
    FUZZ_ASSERT(engine.Answer() == !got.empty(), "Answer divergence");
    for (std::size_t c = 0; c < engine.NumComponents(); ++c) {
      engine.component(c).CheckInvariants();
    }
  };
  auto check_pin = [&](const Pin& pin) {
    auto cur = engine.NewSnapshotCursor(pin.epoch);
    FUZZ_ASSERT(cur.ok(), "snapshot cursor on a live pin must open");
    std::vector<Tuple> got;
    Tuple t;
    while ((*cur.value()).Next(&t) == dyncq::CursorStatus::kOk) {
      got.push_back(t);
    }
    std::sort(got.begin(), got.end());
    FUZZ_ASSERT(got == pin.expected,
                "snapshot drifted from the result pinned at its epoch");
  };

  std::size_t ops = 0;
  while (!r.empty() && ops++ < kMaxOps) {
    switch (r.Choice(7)) {
      case 0:
      case 1: {  // single update (weighted: the paper's core operation)
        const UpdateCmd cmd = DecodeCmd(r, *schema);
        const bool changed = engine.Apply(cmd);
        FUZZ_ASSERT(changed == oracle.Apply(cmd),
                    "engines disagree whether an update was effective");
        break;
      }
      case 2: {  // sharded batch, inverse pairs and dups welcome
        UpdateStream batch;
        const std::size_t n = r.Range(1, 8);
        for (std::size_t i = 0; i < n; ++i) {
          batch.push_back(DecodeCmd(r, *schema));
        }
        BatchOptions opts;
        opts.shards = r.Range(1, 2);
        const std::size_t eff = engine.ApplyBatch(batch, opts);
        FUZZ_ASSERT(eff == oracle.ApplyBatch(batch),
                    "effective-command counts diverged on a batch");
        break;
      }
      case 3: {  // pin the current epoch, remember its exact result
        if (pins.size() >= kMaxPins) break;
        auto epoch = engine.PinEpoch();
        FUZZ_ASSERT(epoch.ok(), "PinEpoch on a healthy engine must pin");
        pins.push_back(Pin{epoch.value(), SortedResult(engine)});
        break;
      }
      case 4: {  // drain a held snapshot mid-stream
        if (pins.empty()) break;
        check_pin(pins[r.Choice(pins.size())]);
        break;
      }
      case 5: {  // release one pin (final drain first)
        if (pins.empty()) break;
        const std::size_t i = r.Choice(pins.size());
        check_pin(pins[i]);
        FUZZ_ASSERT(engine.UnpinEpoch(pins[i].epoch).ok(),
                    "UnpinEpoch of a held pin must succeed");
        pins.erase(pins.begin() + static_cast<std::ptrdiff_t>(i));
        break;
      }
      default:
        checkpoint();
        break;
    }
  }

  // Tear-down discipline: every pin still checks out, then unpins.
  for (const Pin& pin : pins) {
    check_pin(pin);
    FUZZ_ASSERT(engine.UnpinEpoch(pin.epoch).ok(),
                "UnpinEpoch at teardown must succeed");
  }
  checkpoint();
  return 0;
}
