// The two QuerySession workloads: session_churn (paper Example 6.1 under
// update churn) and snapshot_readers (the E6 star query with pinned
// readers). See README.md for why each exists.
#include "cq/parser.h"
#include "session_rig.h"
#include "util/check.h"
#include "workload/query_gen.h"
#include "workload/stream_gen.h"

namespace perfbench {
namespace {

using dyncq::Query;

struct SessionInputs {
  Query q;
  UpdateStream preload;
  CommandPool pool;
  std::vector<Query> variants;  // alpha-renamed subscriber queries
  double gen_s = 0;
};

/// Everything a session workload consumes, drawn from `seed` before any
/// timer starts: the insert-only preload, then a closed cycle of
/// 2 * `half` churn commands (insert ratio 0.5, 10% no-ops) over the
/// preloaded tuples.
SessionInputs MakeInputs(const char* text, std::uint64_t seed,
                         std::size_t domain, std::size_t preload_n,
                         std::size_t half) {
  const std::int64_t t0 = NowNs();
  auto parsed = dyncq::ParseQuery(text);
  DYNCQ_CHECK_MSG(parsed.ok(), parsed.error());
  SessionInputs in{parsed.value(), {}, {}, {}, 0};
  dyncq::workload::StreamOptions opts;
  opts.seed = seed;
  opts.domain_size = domain;
  opts.insert_ratio = 1.0;
  dyncq::workload::StreamGenerator gen(in.q.schema_ptr(), opts);
  in.preload = gen.Take(preload_n);
  ChurnGen churn(in.q.schema_ptr(), seed * 0x9e3779b97f4a7c15ULL + 1, domain,
                 /*insert_ratio=*/0.5, /*noop_ratio=*/0.1);
  for (const UpdateCmd& c : in.preload) churn.AddLive(c.rel, c.tuple);
  BuildClosedCycle(
      &churn, half, [&](std::uint32_t*) { return churn.Next(); }, &in.pool);
  dyncq::Rng rng(seed + 17);
  for (int i = 0; i < 4; ++i) {
    in.variants.push_back(dyncq::workload::AlphaRenameShuffle(in.q, rng));
  }
  in.gen_s = static_cast<double>(NowNs() - t0) * 1e-9;
  return in;
}

void Finish(const RunConfig& cfg, SessionRig* rig, Tracer* tracer,
            E2eSamples* e2e, const SessionInputs& in, const PoolReader& pool,
            std::size_t rounds, Report* report) {
  report->Note("workload " + cfg.workload + ": " + std::to_string(rounds) +
               " rounds, " + std::to_string(pool.taken()) + " commands (" +
               std::to_string(pool.passes()) + " full passes over a " +
               std::to_string(in.pool.size()) + "-command cycle)");
  rig->Check();
  if (!cfg.trace) {
    EmitE2eMetrics(e2e, report);
    return;
  }
  SpanTable table(tracer->spans());
  rig->LayerMetrics(table, in.gen_s);
  if (!cfg.trace_out.empty() && !tracer->WriteTsv(cfg.trace_out)) {
    report->Note("could not write " + cfg.trace_out);
  }
}

}  // namespace

// session_churn: Example 6.1 — a 3-level q-tree with self-joins — over
// ~460k preloaded tuples (beyond L2). Rounds alternate 64 single
// Apply+Count calls with one 64-command UpdateBatch; reads and pins are
// sparse, so storage probes, the ChildIndex descent, phase-B fix-ups
// and pool alloc/free dominate.
void RunSessionChurn(const RunConfig& cfg, Report* report) {
  constexpr std::size_t kRun = 64;         // singles per round = batch size
  constexpr std::size_t kFirstTupleEvery = 16;
  constexpr std::size_t kReadEvery = 8;    // rounds between window reads
  constexpr std::size_t kReadWindow = 1024;
  constexpr std::size_t kRegisterEvery = 64;
  // Pinned writes: at round 2, then at 1/3 and 2/3 of the run. A fixed
  // count (not a round interval) keeps their share of the run, and the
  // number of snapshot_write samples, independent of host speed.
  constexpr std::size_t kForks = 3;
  // mallinfo2 walks the allocator's bins (~10 ms with this workload's
  // heap on a 4-vCPU Xeon KVM guest), so the live heap is sampled
  // sparsely: every kHeapEvery rounds for the whole run, so growth under
  // sustained churn shows. The cycle returns the database to its start
  // on every pass; the heap rises during the first pass and is flat
  // after it. Pinned peaks are left out: a pinned write rebuilds the
  // live structure compactly, so the peak depends on where in the cycle
  // the time-placed fork lands (snapshot_readers measures that peak).
  constexpr std::size_t kHeapEvery = 1024;
  SessionInputs in = MakeInputs(
      "Q(x, y, z, y', z') :- R(x, y, z), R(x, y, z'), E(x, y), E(x, y'), "
      "S(x, y, z).",
      cfg.seed, /*domain=*/256, /*preload_n=*/600000, /*half=*/1500000);
  Tracer tracer(cfg.trace, kSpanCapacity);
  E2eSamples e2e;
  e2e.Reserve(static_cast<std::size_t>(cfg.seconds * 0.4e6));
  e2e.heap0 = HeapInUse();
  SessionRig rig(in.q, &tracer, report, &e2e);
  rig.Setup(in.preload);

  std::vector<UpdateCmd> buf;
  PoolReader pool(in.pool);
  std::size_t r = 0, forks = 0;
  const std::int64_t start = NowNs();
  const auto run_ns = static_cast<std::int64_t>(cfg.seconds * 1e9);
  std::int64_t next_fork = start;
  for (;; ++r) {
    const std::int64_t now = NowNs();
    if (now >= start + run_ns || tracer.full()) break;
    rig.BeginRound(r % 2 == 0);
    // Even rounds only, so every fork lands in a traced round.
    if (r >= 2 && r % 2 == 0 && forks < kForks && now >= next_fork) {
      ++forks;
      next_fork = start + run_ns * static_cast<std::int64_t>(forks) /
                              static_cast<std::int64_t>(kForks);
      rig.Pin(/*sample=*/false);
      pool.Take(1, &buf);
      rig.Update(buf[0], /*with_count=*/true, /*as_fork=*/true);
      rig.SnapshotRead(0);
      rig.Release();
    }
    pool.Take(kRun, &buf);
    for (std::size_t i = 0; i < kRun; ++i) {
      rig.Update(buf[i], /*with_count=*/true, /*as_fork=*/false);
      if ((i + 1) % kFirstTupleEvery == 0) rig.FirstTuple();
    }
    pool.Take(kRun, &buf);
    rig.Batch(buf);
    if (r % kReadEvery == 0) {
      rig.LiveRead(kReadWindow);
      // The timed pin follows an untimed pin+release, so pin_us_p50 is the
      // pin's own path, taken under the same condition each time. A pin
      // after eight rounds of churn pays a dozen cache misses instead,
      // and on the KVM guest their cost moved that median by up to 0.7x
      // between runs of one seed (a warm pin's by 0.07x).
      rig.Pin(/*sample=*/false);
      rig.Release();
      rig.Pin();
      rig.SnapshotRead(kReadWindow);
      rig.Release();
    }
    if (r % kRegisterEvery == 0) rig.RegisterProbe(in.variants);
    if (r % kHeapEvery == 0) e2e.SampleHeap();
    rig.EndRound();
  }
  Finish(cfg, &rig, &tracer, &e2e, in, pool, r, report);
}

// snapshot_readers: the E6 star query at domain 64k with a 4n preload.
// Each cycle pins a snapshot, applies a burst of single updates (the
// first pays the fork) with a live first-tuple probe every 16th, commits
// a batch of the same length under the pin, drains the snapshot
// (checked against Count() at the pin), releases it and drains a live
// cursor. The cursor walk, the fork and retire/reclaim dominate.
void RunSnapshotReaders(const RunConfig& cfg, Report* report) {
  constexpr std::size_t kDomain = 65536;
  constexpr std::size_t kBurst = 256;
  constexpr std::size_t kFirstTupleEvery = 16;
  constexpr std::size_t kRegisterEvery = 4;
  SessionInputs in =
      MakeInputs("Q(x, y, z) :- R(x, y), S(x, z).", cfg.seed, kDomain,
                 /*preload_n=*/4 * kDomain, /*half=*/65536);
  Tracer tracer(cfg.trace, kSpanCapacity);
  E2eSamples e2e;
  e2e.Reserve(static_cast<std::size_t>(cfg.seconds * 20000));
  e2e.heap0 = HeapInUse();
  SessionRig rig(in.q, &tracer, report, &e2e);
  rig.Setup(in.preload);

  std::vector<UpdateCmd> buf;
  PoolReader pool(in.pool);
  std::size_t c = 0;
  const std::int64_t deadline =
      NowNs() + static_cast<std::int64_t>(cfg.seconds * 1e9);
  for (;; ++c) {
    if (NowNs() >= deadline || tracer.full()) break;
    rig.BeginRound(c % 2 == 0);
    rig.Pin();
    pool.Take(kBurst, &buf);
    for (std::size_t i = 0; i < kBurst; ++i) {
      rig.Update(buf[i], /*with_count=*/false, /*as_fork=*/i == 0);
      if ((i + 1) % kFirstTupleEvery == 0) rig.FirstTuple();
    }
    pool.Take(kBurst, &buf);
    rig.Batch(buf);
    rig.SnapshotRead(0);
    e2e.SampleHeap();
    rig.Release();
    rig.LiveRead(0);
    if (c % kRegisterEvery == 0) rig.RegisterProbe(in.variants);
    rig.EndRound();
  }
  Finish(cfg, &rig, &tracer, &e2e, in, pool, c, report);
}

}  // namespace perfbench
