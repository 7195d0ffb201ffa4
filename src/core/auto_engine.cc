#include "core/auto_engine.h"

#include <algorithm>
#include <vector>

#include "baseline/delta_ivm.h"
#include "core/engine.h"
#include "cq/analysis.h"
#include "cq/homomorphism.h"
#include "util/check.h"

namespace dyncq::core {

std::string ToString(EngineStrategy s) {
  switch (s) {
    case EngineStrategy::kQTree:
      return "q-tree engine (Theorem 3.2)";
    case EngineStrategy::kQTreeOnCore:
      return "q-tree engine on the homomorphic core (Theorem 3.2 + "
             "Chandra-Merlin)";
    case EngineStrategy::kDeltaIvm:
      return "delta-IVM fallback (query conditionally hard: Theorems "
             "3.3-3.5)";
  }
  return "?";
}

EngineChoice CreateMaintainableEngine(const Query& q, Database* shared) {
  EngineChoice choice;
  if (IsQHierarchical(q)) {
    auto e = shared == nullptr ? Engine::Create(q)
                               : Engine::CreateShared(q, shared);
    DYNCQ_CHECK_MSG(e.ok(), e.error());
    choice.engine = std::move(e.value());
    choice.strategy = EngineStrategy::kQTree;
    choice.rationale =
        "query is q-hierarchical: O(1) updates, O(1) count/answer, "
        "constant-delay enumeration";
    return choice;
  }
  Query core_q = ComputeCore(q);
  if (IsQHierarchical(core_q)) {
    auto e = shared == nullptr ? Engine::Create(core_q)
                               : Engine::CreateShared(core_q, shared);
    DYNCQ_CHECK_MSG(e.ok(), e.error());
    choice.engine = std::move(e.value());
    choice.strategy = EngineStrategy::kQTreeOnCore;
    choice.rationale =
        "core " + core_q.ToString() +
        " is q-hierarchical and equivalent to the query on every "
        "database";
    return choice;
  }
  auto ivm = std::make_unique<baseline::DeltaIvmEngine>(q);
  if (shared != nullptr && shared->NumTuples() > 0) {
    // Private storage: replay the shared contents of the query's own
    // relations only (the shared database may hold many foreign ones).
    std::vector<RelId> rels;
    UpdateStream replay;
    for (const Atom& a : q.atoms()) {
      if (std::find(rels.begin(), rels.end(), a.rel) != rels.end()) continue;
      rels.push_back(a.rel);
      for (const Tuple& t : shared->relation(a.rel)) {
        replay.push_back(UpdateCmd::Insert(a.rel, t));
      }
    }
    ivm->ApplyAll(replay);
  }
  choice.engine = std::move(ivm);
  choice.strategy = EngineStrategy::kDeltaIvm;
  choice.rationale =
      "core is not q-hierarchical: no O(1)-update algorithm exists "
      "unless the OMv conjecture fails";
  return choice;
}

}  // namespace dyncq::core
