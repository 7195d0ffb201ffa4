// Per-layer metrics of a traced run. Every workload emits every name;
// a layer the workload does not call reads 0 (see README.md).
#include <algorithm>

#include "bench.h"

namespace perfbench {
namespace {

double P50(std::vector<double> v) { return TailQuantile(&v, 0.5).value; }

double Sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

}  // namespace

void EmitLayerMetrics(const LayerInputs& in, const E2eSamples& e2e,
                      const SpanTable& t, Report* r) {
  using S = SpanName;
  const double cmds = static_cast<double>(in.cmds);

  // ---- storage
  r->Set("storage.apply_ns", P50(t.SelfPerItem(S::kStorageApply)), "ns");
  r->Set("storage.probes_per_cmd",
         Ratio(static_cast<double>(in.probes), cmds), "count");
  r->Set("storage.effective_share",
         Ratio(static_cast<double>(in.effective), cmds), "ratio");
  r->Set("storage.load_s", Sum(t.Durations(S::kStorageLoad)) * 1e-9, "s");

  // ---- core
  {
    std::vector<double> d = t.SelfPerItem(S::kCoreApplyDelta);
    r->SetQuantile("core.apply_delta_ns_p50", &d, 0.5, "ns");
    r->SetQuantile("core.apply_delta_ns_p99", &d, 0.99, "ns");
  }
  r->Set("core.apply_deltas_ns_per_delta",
         P50(t.SelfPerItem(S::kCoreApplyDeltas)), "ns");
  r->Set("core.prepare_write_ns", P50(t.SelfPerItem(S::kCorePrepare)), "ns");
  r->Set("core.fork_ms", P50(t.Durations(S::kCoreFork)) * 1e-6, "ms");
  r->Set("core.preload_s", Sum(t.Durations(S::kCorePreload)) * 1e-9, "s");
  std::size_t items = 0, slab = 0, active = 0, occupied = 0;
  for (const dyncq::core::Engine* e : in.engines) {
    items += e->NumItems();
    for (std::size_t c = 0; c < e->NumComponents(); ++c) {
      const auto st = e->component(c).pool().GetStats();
      slab += st.slab_bytes;
      active += st.active_blocks;
      occupied += st.occupied_slots;
    }
  }
  const double tuples = static_cast<double>(in.num_tuples);
  r->Set("core.items_per_tuple", Ratio(static_cast<double>(items), tuples),
         "ratio");

  // ---- session
  r->Set("session.stage_ns", P50(t.SelfPerItem(S::kSessionStage)), "ns");
  r->Set("session.commit_ns_per_cmd", P50(t.SelfPerItem(S::kSessionCommit)),
         "ns");
  const double staged = static_cast<double>(in.staged);
  r->Set("session.annihilated_share",
         Ratio(static_cast<double>(in.annihilated), staged), "ratio");
  r->Set("session.deduped_share",
         Ratio(static_cast<double>(in.deduped), staged), "ratio");

  // ---- item_pool
  r->Set("item_pool.slab_bytes_per_tuple",
         Ratio(static_cast<double>(slab), tuples), "B");
  r->Set("item_pool.active_blocks", static_cast<double>(active), "count");
  r->Set("item_pool.occupied_slots_per_live_item",
         Ratio(static_cast<double>(occupied), static_cast<double>(items)),
         "ratio");
  r->Set("item_pool.retired_blocks_max", static_cast<double>(in.retired_max),
         "count");

  // ---- cursor
  r->Set("cursor.open_ns", P50(t.SelfPerItem(S::kCursorOpen)), "ns");
  r->Set("cursor.first_next_ns", P50(t.SelfPerItem(S::kCursorFirstNext)),
         "ns");
  r->Set("cursor.snapshot_open_us",
         P50(t.SelfPerItem(S::kSnapshotOpen)) * 1e-3, "us");
  r->Set("cursor.snapshot_release_us",
         P50(t.SelfPerItem(S::kSnapshotRelease)) * 1e-3, "us");

  // ---- serve: route = ApplyDelta span minus the shadow's storage and
  // core time for the same command.
  {
    const auto layer = t.SelfByCmd({S::kStorageApply, S::kCorePrepare,
                                    S::kCoreFork, S::kCoreApplyDelta});
    std::vector<double> route;
    for (std::size_t i = 0; i < t.spans.size(); ++i) {
      const Span& s = t.spans[i];
      if (s.name != S::kRegApplyDelta) continue;
      auto it = layer.find(s.cmd);
      const std::int64_t below = it == layer.end() ? 0 : it->second;
      route.push_back(static_cast<double>(s.end - s.start - below));
    }
    r->Set("serve.route_ns", P50(std::move(route)), "ns");
  }
  r->Set("serve.fanout_per_delta",
         Ratio(static_cast<double>(in.notifications),
               static_cast<double>(in.deltas)),
         "ratio");
  r->Set("serve.engines_per_registration", in.engines_per_registration,
         "ratio");
  r->Set("serve.register_join_us", P50(in.reg_join) * 1e-3, "us");
  r->Set("serve.register_build_us", P50(in.reg_build) * 1e-3, "us");

  // ---- cq
  r->Set("cq.canonical_key_us", P50(t.SelfPerItem(S::kCqCanonicalKey)) * 1e-3,
         "us");
  r->Set("cq.analyze_us", P50(t.SelfPerItem(S::kCqAnalyze)) * 1e-3, "us");

  // ---- workload, trace
  r->Set("workload.gen_s", in.gen_s, "s");
  const double untraced = P50(e2e.update);
  r->Set("trace.overhead_share",
         untraced == 0 ? 0.0 : P50(e2e.update_traced) / untraced - 1.0,
         "ratio");
  r->Set("trace.unattributed_share", t.UnattributedShare(), "ratio");
}

}  // namespace perfbench
