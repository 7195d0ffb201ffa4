// Dichotomy-driven engine selection.
//
// Routes a query to the best maintenance strategy the paper allows:
//  1. q-hierarchical           -> the Theorem 3.2 engine;
//  2. core(q) q-hierarchical   -> the Theorem 3.2 engine on the core
//     (equivalent on every database by Chandra–Merlin, so all of
//     answer/count/enumerate coincide — this is how the paper maintains
//     e.g. ∃x∃y (Exx ∧ Exy ∧ Eyy) in O(1));
//  3. otherwise                -> delta-IVM (O(1) answer/count reads,
//     update time where the conditional lower bounds live).
#ifndef DYNCQ_CORE_AUTO_ENGINE_H_
#define DYNCQ_CORE_AUTO_ENGINE_H_

#include <memory>
#include <string>

#include "core/engine_iface.h"
#include "cq/query.h"
#include "storage/database.h"

namespace dyncq::core {

enum class EngineStrategy {
  kQTree,        // Theorem 3.2 engine on q itself
  kQTreeOnCore,  // Theorem 3.2 engine on ComputeCore(q)
  kDeltaIvm,     // classical IVM fallback
};

std::string ToString(EngineStrategy s);

struct EngineChoice {
  std::unique_ptr<DynamicQueryEngine> engine;
  EngineStrategy strategy = EngineStrategy::kDeltaIvm;
  /// One-line rationale referencing the applicable theorem.
  std::string rationale;
};

/// Never fails: every CQ gets a maintenance engine; the strategy records
/// which guarantees apply. `engine->query()` is the query the engine
/// maintains (the core for kQTreeOnCore).
///
/// With `shared` set (serve/query_registry.h) the q-tree strategies run
/// in shared-storage mode (Engine::CreateShared) against `*shared`, and
/// the delta-IVM fallback keeps a private projection of the query's
/// relations, synced from the shared contents. `q`'s schema must then be
/// a prefix of `shared`'s.
EngineChoice CreateMaintainableEngine(const Query& q,
                                      Database* shared = nullptr);

}  // namespace dyncq::core

#endif  // DYNCQ_CORE_AUTO_ENGINE_H_
