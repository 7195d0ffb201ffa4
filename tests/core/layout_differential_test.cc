// Differential test for the item-forest layout: every non-root leaf is
// inlined (bare presence entries for single-atom leaves, stride-(k+2)
// count records with fit links for leaves tracking k > 1 atoms), and
// every other (q-tree node, path value) pair is exactly one ItemPool
// item. The engine on the single-update and batch paths, the sharded
// pipeline at shards in {1, 2, 4}, and the DeltaIvm/Recompute oracles
// must agree on counts, enumeration (full cursors AND partitioned
// cursors), and the internal invariants under randomized insert/delete
// churn. Deterministic walks pin the exact live item counts the layout
// promises.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "../test_util.h"
#include "baseline/delta_ivm.h"
#include "baseline/recompute.h"
#include "core/engine.h"
#include "util/rng.h"
#include "workload/stream_gen.h"

namespace dyncq {
namespace {

using testing::MustParse;
using testing::SameTupleSet;

std::unique_ptr<core::Engine> MakeEngine(const Query& q) {
  auto r = core::Engine::Create(q);
  EXPECT_TRUE(r.ok()) << r.error();
  return std::move(r.value());
}

void CheckAllInvariants(core::Engine& engine) {
  for (std::size_t c = 0; c < engine.NumComponents(); ++c) {
    engine.component(c).CheckInvariants();
  }
}

/// Live items as the pool counts them, summed over components.
std::size_t LivePoolItems(core::Engine& engine) {
  std::size_t n = 0;
  for (std::size_t c = 0; c < engine.NumComponents(); ++c) {
    n += engine.component(c).pool().live_items();
  }
  return n;
}

std::vector<Tuple> DrainPartitions(core::Engine& engine, std::size_t k) {
  auto parts = engine.NewPartitions(k);
  EXPECT_TRUE(parts.ok()) << parts.error();
  std::vector<Tuple> out;
  Tuple t;
  for (auto& c : parts.value()) {
    while (c->Next(&t) == CursorStatus::kOk) out.push_back(t);
  }
  return out;
}

/// The same randomized stream through the engine, the sharded pipeline,
/// and both oracles. Small domains force key collisions, so child
/// values appear, multiply, and drain away constantly.
void RunLayoutDifferential(const Query& q, std::uint64_t seed,
                           std::size_t rounds, std::size_t domain) {
  SCOPED_TRACE(q.ToString());
  auto engine = MakeEngine(q);
  constexpr std::size_t kShardCounts[] = {1, 2, 4};
  std::vector<std::unique_ptr<core::Engine>> sharded;
  for (std::size_t k : kShardCounts) {
    (void)k;
    sharded.push_back(MakeEngine(q));
  }
  baseline::DeltaIvmEngine ivm(q);
  baseline::RecomputeEngine rec(q);

  workload::StreamOptions opts;
  opts.seed = seed;
  opts.domain_size = domain;
  opts.insert_ratio = 0.55;
  opts.noop_ratio = 0.1;
  workload::StreamGenerator gen(
      std::const_pointer_cast<const Schema>(q.schema_ptr()), opts);
  Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);

  for (std::size_t round = 0; round < rounds; ++round) {
    UpdateStream batch = gen.Take(1 + rng.Below(64));
    const std::span<const UpdateCmd> span(batch);

    if (round % 3 == 0) {
      // Single-update path: Apply one by one (each item is created and
      // freed by the walk itself instead of the deferred phase B).
      // Effective-op counts are only comparable within the same replay
      // mode (the batch fold legitimately annihilates inverse pairs), so
      // the sharded engines take the batch and converge on the same
      // final state instead.
      std::size_t expect = 0;
      for (const UpdateCmd& cmd : batch) {
        expect += engine->Apply(cmd) ? 1 : 0;
      }
      std::size_t ivm_n = 0, rec_n = 0;
      for (const UpdateCmd& cmd : batch) {
        ivm_n += ivm.Apply(cmd) ? 1 : 0;
        rec_n += rec.Apply(cmd) ? 1 : 0;
      }
      ASSERT_EQ(ivm_n, expect) << "round " << round;
      ASSERT_EQ(rec_n, expect) << "round " << round;
      for (std::size_t ki = 0; ki < std::size(kShardCounts); ++ki) {
        BatchOptions bo;
        bo.shards = kShardCounts[ki];
        sharded[ki]->ApplyBatch(span, bo);
      }
    } else {
      const std::size_t expect = engine->ApplyBatch(span);
      ASSERT_EQ(ivm.ApplyBatch(span), expect) << "round " << round;
      ASSERT_EQ(rec.ApplyBatch(span), expect) << "round " << round;
      for (std::size_t ki = 0; ki < std::size(kShardCounts); ++ki) {
        BatchOptions bo;
        bo.shards = kShardCounts[ki];
        ASSERT_EQ(sharded[ki]->ApplyBatch(span, bo), expect)
            << "round " << round << " shards " << bo.shards;
      }
    }

    CheckAllInvariants(*engine);
    for (auto& e : sharded) {
      CheckAllInvariants(*e);
      ASSERT_EQ(e->NumItems(), engine->NumItems()) << "round " << round;
    }

    if (round % 5 == 0) {
      const Weight count = engine->Count();
      auto result = MaterializeResult(*engine);
      ASSERT_EQ(Weight{result.size()}, count) << "round " << round;
      ASSERT_EQ(ivm.Count(), count) << "round " << round;
      ASSERT_TRUE(SameTupleSet(result, MaterializeResult(ivm)))
          << "round " << round;
      ASSERT_TRUE(SameTupleSet(result, MaterializeResult(rec)))
          << "round " << round;
      for (std::size_t ki = 0; ki < std::size(kShardCounts); ++ki) {
        ASSERT_EQ(sharded[ki]->Count(), count)
            << "round " << round << " shards " << kShardCounts[ki];
        ASSERT_TRUE(
            SameTupleSet(result, MaterializeResult(*sharded[ki])))
            << "round " << round << " shards " << kShardCounts[ki];
      }
      // Partitioned cursors: the k-way union must be the same multiset,
      // strided leaves included.
      for (std::size_t k : {std::size_t{2}, std::size_t{3}}) {
        ASSERT_TRUE(SameTupleSet(result, DrainPartitions(*engine, k)))
            << "round " << round << " partitions " << k;
      }
    }
  }
}

TEST(LayoutDifferentialTest, MultiAtomLeaf) {
  // y tracks two atoms: stride-4 records (2 counts + fit links) in the
  // root items' child tables; partial records (R without S) are present
  // but unfit.
  RunLayoutDifferential(MustParse("Q(x, y) :- R(x, y), S(x, y)."), 11, 100,
                        12);
}

TEST(LayoutDifferentialTest, MultiAtomLeafBound) {
  // The strided leaf is a bound node: fit records count toward C but not
  // toward the projection.
  RunLayoutDifferential(MustParse("Q(x) :- R(x, y), S(x, y)."), 22, 100,
                        10);
}

TEST(LayoutDifferentialTest, MultiAtomLeafUnderStar) {
  // Strided leaf beside a unit leaf under the same root.
  RunLayoutDifferential(
      MustParse("Q(x, y, z) :- R(x, y), S(x, y), T(x, z)."), 33, 90, 10);
}

TEST(LayoutDifferentialTest, Chain3) {
  // x -> y -> z chain: fanout-1 root over y items; z is a unit leaf in
  // each y item's child table.
  RunLayoutDifferential(
      MustParse("Q(x, y, z) :- R(x), S(x, y), T(x, y, z)."), 44, 100, 8);
}

TEST(LayoutDifferentialTest, Chain4) {
  // w -> x -> y -> z: three item levels, fanout 1 at every inner node.
  RunLayoutDifferential(
      MustParse("Q(w, x, y, z) :- R(w, x), S(w, x, y), T(w, x, y, z)."),
      55, 80, 6);
}

TEST(LayoutDifferentialTest, FanoutOneHeadOverStridedLeaf) {
  // Fanout-1 root over y items that each carry a stride-4 leaf table
  // (z tracks S and T).
  RunLayoutDifferential(
      MustParse("Q(x, y, z) :- R(x, y), S(x, y, z), T(x, y, z)."), 66, 90,
      7);
}

TEST(LayoutDifferentialTest, FanoutOneHeadProjectedAway) {
  // Bound fanout-1 chain: y and z are projected away, so the y items
  // only feed counts, never the enumerator.
  RunLayoutDifferential(MustParse("Q(x) :- R(x, y), S(x, y, z)."), 77, 90,
                        8);
}

TEST(LayoutDifferentialTest, SelfJoinStridedLeaf) {
  // A self-join whose two atoms land in the same leaf with different
  // argument patterns.
  RunLayoutDifferential(MustParse("Q(x, y) :- R(x, y), R(y, x)."), 88, 90,
                        10);
}

TEST(LayoutDifferentialTest, ChildValueLifecycle) {
  // Deterministic 1 -> 2 -> 1 -> 0 walk over the y child values of one
  // x item on the 3-level chain, through the single-update path and the
  // sharded batch path (one command per batch). Every step asserts the
  // exact live ItemPool count: one x item plus one item per live y
  // value (z is a unit leaf and never allocates).
  Query q = MustParse("Q(x, y, z) :- R(x), S(x, y), T(x, y, z).");
  auto single = MakeEngine(q);
  auto batched = MakeEngine(q);
  baseline::DeltaIvmEngine ivm(q);

  auto step = [&](const UpdateCmd& cmd, std::size_t live) {
    EXPECT_TRUE(single->Apply(cmd));
    BatchOptions bo;
    bo.shards = 2;
    EXPECT_EQ(batched->ApplyBatch(std::span<const UpdateCmd>(&cmd, 1), bo),
              1u);
    EXPECT_TRUE(ivm.Apply(cmd));
    for (core::Engine* e : {single.get(), batched.get()}) {
      CheckAllInvariants(*e);
      EXPECT_EQ(LivePoolItems(*e), live);
      EXPECT_EQ(e->NumItems(), live);
      EXPECT_EQ(e->Count(), ivm.Count());
      EXPECT_TRUE(SameTupleSet(MaterializeResult(*e), MaterializeResult(ivm)));
    }
  };

  step(UpdateCmd::Insert(0, {1}), 1);           // R(1): x item
  step(UpdateCmd::Insert(1, {1, 10}), 2);       // first y value
  step(UpdateCmd::Insert(2, {1, 10, 100}), 2);  // z leaf entries only
  step(UpdateCmd::Insert(2, {1, 10, 101}), 2);
  step(UpdateCmd::Insert(1, {1, 11}), 3);       // second y value
  step(UpdateCmd::Insert(2, {1, 11, 100}), 3);
  step(UpdateCmd::Delete(1, {1, 11}), 3);       // T(1,11,100) keeps y=11
  step(UpdateCmd::Delete(2, {1, 11, 100}), 2);  // y=11 dies: one value
  step(UpdateCmd::Delete(2, {1, 10, 100}), 2);
  step(UpdateCmd::Delete(2, {1, 10, 101}), 2);
  step(UpdateCmd::Delete(1, {1, 10}), 1);       // no y value left
  step(UpdateCmd::Delete(0, {1}), 0);
}

TEST(LayoutDifferentialTest, StridedLeafLiveItemCount) {
  // Q(x, y) :- R(x, y), S(x, y): the k = 2 leaf y holds its items as
  // records in the x items' tables, so live items == distinct x values.
  Query q = MustParse("Q(x, y) :- R(x, y), S(x, y).");
  auto engine = MakeEngine(q);

  const Value n = 1000;
  UpdateStream load;
  std::set<Value> xs;
  for (Value i = 1; i <= n; ++i) {
    const Value x = (i - 1) % 50 + 1;
    xs.insert(x);
    load.push_back(UpdateCmd::Insert(0, {x, i + n}));
    load.push_back(UpdateCmd::Insert(1, {x, i + n}));
  }
  ASSERT_EQ(engine->ApplyBatch(std::span<const UpdateCmd>(load)),
            load.size());
  CheckAllInvariants(*engine);
  EXPECT_EQ(engine->Count(), Weight{n});
  EXPECT_EQ(xs.size(), 50u);
  EXPECT_EQ(LivePoolItems(*engine), xs.size());
  EXPECT_EQ(engine->NumItems(), xs.size());
}

TEST(LayoutDifferentialTest, ChainLiveItemCount) {
  // 3-level chain: live items == distinct x + distinct (x, y); z is a
  // unit leaf. Checked after the load and again after draining every
  // other path (which also empties some x values completely).
  Query q = MustParse("Q(x, y, z) :- R(x), S(x, y), T(x, y, z).");
  auto engine = MakeEngine(q);

  const Value n = 2000;
  std::set<Value> xs;
  std::set<std::pair<Value, Value>> xys;
  UpdateStream load;
  for (Value i = 1; i <= n; ++i) {
    const Value x = (i - 1) % 300 + 1;
    const Value y = (i - 1) % 500 + 1;
    xs.insert(x);
    xys.emplace(x, y);
    load.push_back(UpdateCmd::Insert(0, {x}));
    load.push_back(UpdateCmd::Insert(1, {x, y}));
    load.push_back(UpdateCmd::Insert(2, {x, y, i}));
  }
  engine->ApplyBatch(std::span<const UpdateCmd>(load));
  CheckAllInvariants(*engine);
  EXPECT_EQ(engine->Count(), Weight{n});
  EXPECT_EQ(LivePoolItems(*engine), xs.size() + xys.size());

  // Delete every path whose x is odd: those x items and their y items
  // must all be freed.
  UpdateStream drain;
  std::set<Value> xs_left;
  std::set<std::pair<Value, Value>> xys_left;
  for (Value i = 1; i <= n; ++i) {
    const Value x = (i - 1) % 300 + 1;
    const Value y = (i - 1) % 500 + 1;
    if (x % 2 == 1) {
      drain.push_back(UpdateCmd::Delete(2, {x, y, i}));
      drain.push_back(UpdateCmd::Delete(1, {x, y}));
      drain.push_back(UpdateCmd::Delete(0, {x}));
    } else {
      xs_left.insert(x);
      xys_left.emplace(x, y);
    }
  }
  for (const UpdateCmd& cmd : drain) engine->Apply(cmd);
  CheckAllInvariants(*engine);
  EXPECT_EQ(LivePoolItems(*engine), xs_left.size() + xys_left.size());
  EXPECT_EQ(engine->NumItems(), xs_left.size() + xys_left.size());
}

}  // namespace
}  // namespace dyncq
