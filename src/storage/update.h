// Update commands: single-tuple inserts and deletes (paper §2, Updates).
#ifndef DYNCQ_STORAGE_UPDATE_H_
#define DYNCQ_STORAGE_UPDATE_H_

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "storage/tuple.h"
#include "util/open_hash_map.h"
#include "util/types.h"

namespace dyncq {

enum class UpdateKind : std::uint8_t { kInsert, kDelete };

struct UpdateCmd {
  UpdateKind kind = UpdateKind::kInsert;
  RelId rel = kInvalidRel;
  Tuple tuple;

  static UpdateCmd Insert(RelId rel, Tuple t) {
    return UpdateCmd{UpdateKind::kInsert, rel, std::move(t)};
  }
  static UpdateCmd Delete(RelId rel, Tuple t) {
    return UpdateCmd{UpdateKind::kDelete, rel, std::move(t)};
  }
};

/// A sequence of update commands (an update stream).
using UpdateStream = std::vector<UpdateCmd>;

/// Options for batched update application, threaded through
/// DynamicQueryEngine::ApplyBatch / ApplyAll, QuerySession::NewBatch,
/// and Database::ApplyAll.
struct BatchOptions {
  /// Number of ingestion shards for the engine's phase-A descent.
  /// 1 (the default) selects the deterministic sequential pipeline;
  /// k > 1 routes deltas by root value onto k worker threads (see
  /// core::Engine::ApplyBatch). Engines without a sharded pipeline —
  /// and the storage-level Database::ApplyAll — apply sequentially
  /// regardless.
  std::size_t shards = 1;
};

/// Reusable in-batch fold for ordered batch replay.
///
/// Under set semantics the LAST command on a (relation, tuple) key forces
/// that tuple's final presence — insert forces present, delete forces
/// absent — regardless of earlier commands on the key or of the
/// pre-batch database state. An ordered replay may therefore drop every
/// superseded command: an inverse insert/delete pair with no later
/// command on its tuple collapses to its second half, and the dropped
/// half costs zero relation probes. Note that dropping BOTH halves would
/// be wrong under replay semantics ("insert t; delete t" must leave t
/// absent even when t was resident before the batch); the unordered
/// intention semantics that full annihilation implies is UpdateBatch's
/// contract (core/session.h), not ApplyBatch's.
class BatchFolder {
 public:
  /// Computes the per-key final commands of `cmds`: fills `kept` with
  /// the ascending original indices of the surviving commands (the
  /// identity list when nothing folds), so every caller runs one storage
  /// loop over `kept`. Returns the number of commands folded away.
  /// Delete-free batches (bulk loads) are recognized in one cheap scan
  /// and never pay for the key table: without a delete there is no
  /// inverse pair, and a duplicate insert is absorbed by the relation's
  /// own set-semantics probe.
  std::size_t Fold(std::span<const UpdateCmd> cmds,
                   std::vector<std::uint32_t>* kept) {
    kept->clear();
    if (cmds.size() < 2 ||
        std::none_of(cmds.begin(), cmds.end(), [](const UpdateCmd& cmd) {
          return cmd.kind == UpdateKind::kDelete;
        })) {
      kept->resize(cmds.size());
      std::iota(kept->begin(), kept->end(), std::uint32_t{0});
      return 0;
    }

    last_.Clear();
    last_.Reserve(cmds.size());
    keep_.assign(cmds.size(), 1);
    std::size_t dropped = 0;
    for (std::size_t i = 0; i < cmds.size(); ++i) {
      // Key = tuple ++ relation id: keys compare equal iff arity, tuple,
      // and relation all match (same scheme as UpdateBatch staging).
      Tuple key = cmds[i].tuple;
      key.push_back(static_cast<Value>(cmds[i].rel));
      auto [prior, inserted] =
          last_.Insert(key, static_cast<std::uint32_t>(i));
      if (!inserted) {
        keep_[*prior] = 0;
        *prior = static_cast<std::uint32_t>(i);
        ++dropped;
      }
    }
    kept->reserve(cmds.size() - dropped);
    for (std::size_t i = 0; i < cmds.size(); ++i) {
      if (keep_[i]) kept->push_back(static_cast<std::uint32_t>(i));
    }
    return dropped;
  }

 private:
  OpenHashMap<Tuple, std::uint32_t, TupleHash> last_;  // key -> last index
  std::vector<char> keep_;  // per-command survival flags (scratch)
};

inline std::string UpdateToString(const UpdateCmd& u,
                                  const std::string& rel_name) {
  return std::string(u.kind == UpdateKind::kInsert ? "insert " : "delete ") +
         rel_name + TupleToString(u.tuple);
}

}  // namespace dyncq

#endif  // DYNCQ_STORAGE_UPDATE_H_
