// Self-tests of the benchmark's own arithmetic: the percentile rule,
// span self time (nested and overlapping children), the metric-name
// charset, the net-delta fold the traced shadow relies on, and the
// packed, closed churn cycle. Run: dyncq_perfbench --selftest.
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "bench.h"
#include "session_rig.h"

namespace perfbench {
namespace {

int g_failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::cout << "FAIL: " << what << "\n";
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

std::vector<double> Iota(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 0; i < n; ++i) v.push_back(static_cast<double>(n - i));
  return v;  // descending: TailQuantile must sort
}

void TestTailQuantile() {
  {
    std::vector<double> v = Iota(2000);  // 1..2000
    const Quantile q = TailQuantile(&v, 0.99);
    Expect(Near(q.p, 0.99), "n=2000 keeps p99");
    Expect(q.beyond >= kMinBeyond, "n=2000 has >=10 samples beyond p99");
    Expect(Near(q.value, 1 + 0.99 * 1999), "n=2000 p99 interpolates");
  }
  {
    std::vector<double> v = Iota(1000);
    const Quantile q = TailQuantile(&v, 0.99);
    // ceil(0.99 * 999) = 990 leaves 9 beyond: the rule steps down to the
    // rank that leaves exactly 10.
    Expect(q.p < 0.99, "n=1000 lowers p99");
    Expect(q.beyond == kMinBeyond, "n=1000 leaves exactly 10 beyond");
    Expect(Near(q.value, 990), "n=1000 reports the 990th value");
  }
  {
    std::vector<double> v = Iota(15);
    const Quantile q = TailQuantile(&v, 0.99);
    Expect(Near(q.p, 0.5) && Near(q.value, 8), "n=15 falls back to median");
  }
  {
    std::vector<double> v = {4, 1, 3, 2};
    const Quantile q = TailQuantile(&v, 0.5);
    Expect(Near(q.value, 2.5) && q.n == 4, "median interpolates");
  }
  {
    std::vector<double> v;
    Expect(TailQuantile(&v, 0.5).n == 0, "empty input");
  }
}

Span MakeSpan(std::int64_t s, std::int64_t e, std::uint32_t parent) {
  Span sp;
  sp.start = s;
  sp.end = e;
  sp.parent = parent;
  return sp;
}

void TestSelfTimes() {
  // 1: root [0,100]; 2: child [10,30]; 3: child [20,50] overlapping 2;
  // 4: grandchild [12,20] under 2; 5: child [90,120] clipped to 100;
  // 6: a second root [200,260] with no children.
  std::vector<Span> spans = {MakeSpan(0, 100, 0), MakeSpan(10, 30, 1),
                             MakeSpan(20, 50, 1), MakeSpan(12, 20, 2),
                             MakeSpan(90, 120, 1), MakeSpan(200, 260, 0)};
  const std::vector<std::int64_t> self = SelfTimes(spans);
  Expect(self[0] == 100 - 40 - 10, "root minus union of children");
  Expect(self[1] == 20 - 8, "child minus its own grandchild");
  Expect(self[2] == 30, "leaf child keeps its duration");
  Expect(self[3] == 8, "grandchild is a leaf");
  Expect(self[4] == 30, "clipped child still a leaf itself");
  Expect(self[5] == 60, "childless root keeps its duration");
  const SpanTable t(spans);
  // Spans with children: root (self 50 of 100) and span 2 (12 of 20).
  Expect(Near(t.UnattributedShare(), 62.0 / 120.0), "unattributed share");
}

void TestMetricNames() {
  Expect(IsValidMetricName("core.apply_delta_ns_p50"), "dotted name");
  Expect(IsValidMetricName("9lives-x"), "leading digit, dash");
  Expect(!IsValidMetricName(""), "empty name");
  Expect(!IsValidMetricName("_x"), "leading underscore");
  Expect(!IsValidMetricName("a b"), "space");
  Expect(!IsValidMetricName("a/b"), "slash");
  Expect(!IsValidMetricName(std::string(65, 'a')), "65 characters");
  Expect(IsValidMetricName(std::string(64, 'a')), "64 characters");
}

void TestNetDelta() {
  const Tuple t{1, 2};
  const Tuple u{3, 4};
  auto ins = [](const Tuple& x) { return UpdateCmd::Insert(0, x); };
  auto del = [](const Tuple& x) { return UpdateCmd::Delete(0, x); };
  Expect(NetDelta({ins(t), del(t)}).empty(), "inverse pair annihilates");
  Expect(NetDelta({ins(t), ins(t)}).size() == 1, "repeat dedups");
  const auto net = NetDelta({ins(t), del(t), del(t), ins(u)});
  Expect(net.size() == 2 && net[0].kind == dyncq::UpdateKind::kDelete &&
             net[1].tuple == u,
         "re-stage after annihilation starts fresh");
  Expect(NetDelta({ins(t), UpdateCmd::Insert(1, t)}).size() == 2,
         "relation is part of the key");
}

void TestCommandPool() {
  CommandPool pool;
  pool.Push(UpdateCmd::Insert(7, Tuple{1, 2, 3}));
  pool.Push(UpdateCmd::Delete(0, Tuple{4294967295u}));
  PoolReader reader(pool);
  UpdateCmd c;
  reader.Next(&c);
  Expect(c.rel == 7 && c.kind == dyncq::UpdateKind::kInsert &&
             c.tuple == Tuple({1, 2, 3}),
         "pool round-trips an insert");
  reader.Next(&c);
  Expect(c.rel == 0 && c.kind == dyncq::UpdateKind::kDelete &&
             c.tuple == Tuple({4294967295u}),
         "pool round-trips a delete");
  reader.Next(&c);
  Expect(c.rel == 7 && reader.passes() == 1 && reader.taken() == 3,
         "pool wraps around");
}

void TestClosedCycle() {
  auto schema = std::make_shared<dyncq::Schema>();
  const RelId r = schema->AddRelation("R", 2).value();
  dyncq::Database db(*schema);
  ChurnGen gen(schema, 7, /*domain=*/20, /*insert_ratio=*/0.5,
               /*noop_ratio=*/0.2);
  for (dyncq::Value v = 1; v <= 40; ++v) {
    const Tuple t{v % 20 + 1, v / 2 + 1};
    db.Insert(r, t);
    gen.AddLive(r, t);
  }
  auto contents = [&] {
    std::vector<Tuple> v;
    for (const Tuple& t : db.relation(r)) v.push_back(t);
    return SortedTuples(std::move(v));
  };
  const std::vector<Tuple> before = contents();
  CommandPool pool;
  const auto tags = BuildClosedCycle(
      &gen, 500,
      [&](std::uint32_t* tag) {
        *tag = 9;
        return gen.Next();
      },
      &pool);
  Expect(pool.size() == 1000 && tags.size() == 1000 && tags[999] == 9,
         "cycle has both halves and their tags");
  PoolReader reader(pool);
  UpdateCmd c;
  std::size_t effective = 0;
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t i = 0; i < pool.size(); ++i) {
      reader.Next(&c);
      effective += db.Apply(c) ? 1 : 0;
    }
    Expect(contents() == before, "a full pass restores the database");
  }
  Expect(effective > 1000, "the cycle does real work");
}

}  // namespace

int RunSelfTest() {
  TestTailQuantile();
  TestSelfTimes();
  TestMetricNames();
  TestNetDelta();
  TestCommandPool();
  TestClosedCycle();
  std::cout << (g_failures == 0 ? "selftest: ok\n" : "selftest: FAILED\n");
  return g_failures == 0 ? 0 : 1;
}

}  // namespace perfbench
