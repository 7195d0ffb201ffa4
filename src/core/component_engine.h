// Dynamic q-tree data structure for one connected q-hierarchical CQ
// (paper §6.2 data structure, §6.4 update procedure, §6.5 counting).
//
// The top-level core::Engine splits a query into connected components and
// owns one ComponentEngine per component; ϕ(D) is the cross product of
// the component results (paper §6, opening remarks).
//
// Items are located by descending parent-scoped child indexes: the
// engine holds one root index (value of the root variable -> root item)
// and every item holds, per child q-tree node, an index of its child
// items keyed by a single Value (core/child_index.h). The §6.4 update
// walk therefore probes one single-word key per level — no root-path
// prefix is ever materialized or re-hashed on the hot path.
#ifndef DYNCQ_CORE_COMPONENT_ENGINE_H_
#define DYNCQ_CORE_COMPONENT_ENGINE_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/child_index.h"
#include "core/item.h"
#include "core/item_pool.h"
#include "cq/qtree.h"
#include "cq/query.h"
#include "storage/database.h"
#include "storage/tuple.h"
#include "util/rel_map.h"
#include "util/small_vector.h"

namespace dyncq::core {

/// One effective (post set-semantics dedup) base-table change inside a
/// batch. Tuples are borrowed from the caller's UpdateCmd storage.
struct PendingDelta {
  RelId rel = kInvalidRel;
  const Tuple* tuple = nullptr;
  bool insert = true;
};

/// Captured per-component state of a pinned snapshot version (the core
/// engine's snapshot payload). At pin time only the root fit-list
/// head/tail and sums are recorded — O(1). When the first post-pin write
/// arrives, the whole component forest is detached into `detached` (the
/// items keep their fit-list and subtree links, so pinned cursors keep
/// walking them with constant delay) and the live structure is rebuilt
/// from the base tables.
struct ComponentSnapshot {
  ItemHandle root_head;  // root fit-list anchors at pin time
  ItemHandle root_tail;
  Weight sum = 0;       // Cstart at pin time (Boolean answer gate)
  Weight sum_free = 0;  // C̃start at pin time
  std::vector<ItemHandle> detached;
};

class ComponentEngine {
 public:
  /// `query` must be connected and q-hierarchical; `tree` its q-tree.
  /// Every non-root leaf node is inlined: its "items" are records in the
  /// parent's child index (bare presence entries for a single-atom leaf,
  /// stride-(k+2) count records with fit links for a leaf tracking k > 1
  /// atoms). Every other (q-tree node, path value) pair is one Item.
  ComponentEngine(Query query, QTree tree);

  ComponentEngine(const ComponentEngine&) = delete;
  ComponentEngine& operator=(const ComponentEngine&) = delete;

  /// Frees every live item: the pool releases raw chunks only, and child
  /// slots own their (possibly heap-grown) index tables.
  ~ComponentEngine();

  const Query& query() const { return query_; }
  const QTree& tree() const { return tree_; }

  /// Applies a base-table change that has already passed set-semantics
  /// deduplication (the tuple was truly added / removed).
  void OnInsert(RelId rel, const Tuple& t) { ApplyDelta(rel, t, true); }
  void OnDelete(RelId rel, const Tuple& t) { ApplyDelta(rel, t, false); }

  /// Batched §6.4: applies `n` effective deltas as one pipeline. Deltas
  /// for foreign relations (no atom in this component) are skipped.
  /// Per atom, deltas are sorted by root-path key so consecutive walks
  /// share their common-prefix descent, and every touched item has its
  /// weight, fit-list membership, and parent running sums fixed up once
  /// (bottom-up) instead of once per update.
  void ApplyBatch(const PendingDelta* deltas, std::size_t n);

  /// Sharded batched §6.4. A delta's whole walk stays inside the subtree
  /// under its root value, so deltas are routed to shards by
  /// Mix64(root value) % k and shards never touch each other's items —
  /// phase B is merge-free per shard. Protocol:
  ///  1. BeginShardedBatch: routes the effective deltas into per-shard,
  ///     per-atom queues and pre-creates every root item an insert delta
  ///     will reach, so the shared root index is strictly read-only
  ///     while workers run (main thread).
  ///  2. RunShard(s): phase-A descents plus phase-B fix-ups for every
  ///     depth below the root; root items get their weights recomputed
  ///     but their root-slot fix-up deferred. Safe to call from k
  ///     threads concurrently, one distinct shard each.
  ///  3. FinishShardedBatch: replays the deferred root-level fit-list /
  ///     running-sum fix-ups and root deletions in shard order — the
  ///     root fit list and root index are the only structures shared
  ///     across shards (main thread, after joining the workers).
  void BeginShardedBatch(const PendingDelta* deltas, std::size_t n,
                         std::size_t shards);
  void RunShard(std::size_t s);
  void FinishShardedBatch();

  /// Pre-sizes the root index for `n` distinct root values (bulk load).
  void ReserveRoot(std::size_t n) { root_index_.Reserve(n); }

  /// Stage-1 prefetch: hints the root-index bucket lines a delta for
  /// (rel, t) will probe — a pure hint, never a blocking load. The engine
  /// issues this before the database's relation-set probe so the bucket
  /// fetch overlaps that hash work.
  void PrefetchDelta(RelId rel, const Tuple& t) const {
    for (int ai : atoms_of_rel_[rel]) {
      const AtomMeta& am = atom_meta_[static_cast<std::size_t>(ai)];
      root_index_.Prefetch(t[static_cast<std::size_t>(am.read_pos[0])]);
    }
  }

  /// Stage-2 prefetch: probes the root index (bucket now resident thanks
  /// to stage 1) and hints the root item's lines; issued before the
  /// active-domain bookkeeping so the item fetch overlaps it.
  void PrefetchWalk(RelId rel, const Tuple& t) const;

  /// Cstart: Σ over fit root items of C^i (eq. 11).
  Weight CStart() const { return root_slot_.sum; }
  /// C̃start: Σ over fit root items of C̃^i (§6.5).
  Weight CTildeStart() const { return root_slot_.sum_free; }

  /// |ϕ(D)| for this component: C̃start for non-Boolean components,
  /// 1/0 for Boolean ones.
  Weight Count() const {
    if (!query_.head().empty()) return root_slot_.sum_free;
    return root_slot_.sum > 0 ? Weight{1} : Weight{0};
  }

  bool Answer() const { return root_slot_.sum > 0; }

  const ChildSlot& root_slot() const { return root_slot_; }

  /// The component's item pool: cursors and tests resolve the handles
  /// the structure stores (fit links, index payloads) through it.
  const ItemPool& pool() const { return pool_; }

  /// Child slot `u` of `it` (inspection hook — the slot array's offset
  /// depends on the item's q-tree node).
  const ChildSlot& item_child_slot(const Item* it, int u) const {
    return *(reinterpret_cast<const ChildSlot*>(
                 reinterpret_cast<const char*>(it) +
                 node_meta_[it->node].slots_off) +
             u);
  }

  /// Document-order traversal metadata for Algorithm 1 over the subtree
  /// T' induced by the free variables.
  struct EnumMeta {
    std::vector<int> nodes;           // q-tree node per doc position
    std::vector<int> parent_pos;      // doc position of parent (-1 = root)
    std::vector<int> slot_in_parent;  // child-slot index within parent item
    std::vector<int> head_doc_pos;    // head position -> doc position
    // 0: regular item position (advanced along the parent's fit list);
    // 1: unit-leaf position (stride-1 presence records, table scan —
    //    every present record is fit);
    // 2: strided-leaf position (stride-(k+2) count records, advanced
    //    along the intrusive fit links — constant delay even when unfit
    //    partial records dominate the table).
    std::vector<char> leaf_kind;
    std::vector<int> leaf_stride;     // payload words (kind 2 positions)
    std::vector<std::size_t> slot_off;  // byte offset of this position's
                                        // ChildSlot in the parent block
  };
  const EnumMeta& enum_meta() const { return enum_meta_; }

  /// Number of items currently stored (linear in ||D|| by §6.2).
  std::size_t NumItems() const { return pool_.live_items(); }

  /// Figure 3-style dump of the whole structure (weights, lists).
  void Dump(std::ostream& os) const;

  /// Internal invariant check (test hook): walks the child indexes,
  /// recomputes every weight and running sum from scratch, verifies list
  /// membership iff fit, index/parent back-pointers, and that the index
  /// reaches exactly the pool's live items.
  void CheckInvariants() const;

  // ---- Epoch-pinned snapshot fork support (single writer; see
  // docs/ARCHITECTURE.md "Snapshot cursors"). ----

  /// O(1) pin-time capture: records the root fit-list anchors and sums.
  /// `out->detached` stays empty until the version is forked off.
  void CaptureSnapshot(ComponentSnapshot* out) const;

  /// Fork step 1: moves EVERY item of the live forest into `out` (the
  /// items keep all their links — pinned cursors still walk them) and
  /// resets the live structure to empty. Collection completes before any
  /// mutation, so a bad_alloc from the vector leaves the engine intact.
  void DetachAllItems(std::vector<ItemHandle>* out);

  /// Fork step 2: rebuilds the live structure by replaying this
  /// component's base tuples from `db` (the PRE-update database — the
  /// fork runs before the triggering delta is applied anywhere).
  void RebuildFromDatabase(const Database& db);

  /// Fork rollback: frees whatever RebuildFromDatabase managed to build,
  /// re-attaches `snap.detached` as the live structure, and restores the
  /// root slot from the captured anchors.
  void RestoreDetached(ComponentSnapshot& snap);

  /// Retires a dead version's detached items at `epoch` (releases index
  /// heap tables now and bumps the slot generations — any later use of a
  /// handle into the version is a typed stale-handle failure — then
  /// queues the slots for post-watermark reclamation). Safe from a
  /// reader thread concurrently with the writer.
  void RetireDetached(std::uint64_t epoch, std::vector<ItemHandle>* items);

  /// Returns retired blocks with epoch <= `watermark` to the free lists
  /// (writer thread only).
  void ReclaimRetired(std::uint64_t watermark) {
    pool_.ReclaimThrough(watermark);
  }

  bool has_retired() const { return pool_.has_retired(); }
  std::size_t retired_blocks() const { return pool_.retired_blocks(); }

 private:
  struct NodeMeta {
    std::vector<int> rep_slots;        // atom_counts slots of rep atoms
    std::vector<int> free_child_slots; // child slots with free child node
    // Distinct cache-line offsets within an item block that the §6.4
    // bottom-up pass touches (header weights, every child slot's running
    // sums). The descent prefetches these as soon as the item pointer is
    // known so the bottom-up pass never stalls on them.
    std::vector<std::size_t> touch_offsets;
    // Deterministic block offsets: this node's ChildSlot array, and the
    // position of this node's slot within its PARENT's block.
    std::size_t slots_off = 0;
    std::size_t parent_slot_off = 0;
    int num_children = 0;
    int num_tracked = 0;
    bool is_free = false;
    // Inlined leaf: the tracked counts of this node's items are all 0/1
    // (a leaf atom's variables are fully determined by the root path),
    // so the "items" of this node are stored as records in the parent's
    // child index — no Item block, no extra cache line on the update
    // walk. leaf_stride is the record payload width: 1 for a single-atom
    // leaf (bare presence, PR 1 behavior), num_tracked + 2 for k > 1
    // (one count word per atom plus prev/next fit-list link keys).
    bool unit_leaf = false;
    int leaf_stride = 0;
    int slot_in_parent = -1;
    // Child slots holding strided-leaf tables: (slot index, payload
    // stride) pairs AllocItem configures right after pool allocation.
    std::vector<std::pair<int, int>> leaf_slot_strides;
  };

  struct AtomMeta {
    RelId rel = kInvalidRel;
    int rel_group = -1;              // dense index of rel in atoms_of_rel_
    int d = 0;                       // path length
    std::vector<int> level_node;     // q-tree node per level
    std::vector<int> level_slot;     // atom_counts slot per level
    std::vector<int> read_pos;       // arg position giving the level value
    std::vector<int> level_parent_slot;  // child slot within parent item
    // Precomputed block offsets (the item layout is fixed per node):
    // byte offset of this atom's tracked count within a level-j item, and
    // of the ChildSlot inside the level-(j-1) item that reaches level j.
    std::vector<std::size_t> level_count_off;
    std::vector<std::size_t> level_slot_off;
    std::vector<std::pair<int, int>> eq_checks;       // args equal pairs
    std::vector<std::pair<int, Value>> const_checks;  // constant args
    // The atom ends in an inlined-leaf node below the root: the last
    // level is a record in the level-(d-2) item's child index.
    bool leaf_inline = false;
    bool leaf_free = false;  // the inlined leaf is a free node
  };

  /// A batch-touched item with its pre-batch weights (the values the
  /// parent's running sums still reflect until the bottom-up fix-up).
  /// The node index is denormalized so the fix-up pass can prefetch an
  /// item's lines without first loading its header.
  struct DirtyItem {
    Item* item = nullptr;
    std::uint32_t node = 0;
    Weight pre_weight = 0;
    Weight pre_weight_free = 0;
  };

  /// One delta routed to a specific atom during a batch (phase A input).
  /// In sharded mode the routing pass resolves (and for inserts,
  /// creates) the root item up front and stores it here, so the worker's
  /// descent never probes the shared root index — one root probe per
  /// delta total, the same as the sequential pipeline.
  struct AtomDelta {
    const Tuple* tuple = nullptr;
    Item* root = nullptr;   // pre-resolved root (sharded mode only)
    std::uint32_t seq = 0;  // original batch position (stable tie-break)
    bool insert = true;
  };

  /// Deferred root-level (depth-0) phase-B fix-up. The owning shard has
  /// already recomputed the item's weights; FinishShardedBatch applies
  /// the root-slot list/sum mutation against the recorded pre-batch
  /// weights.
  struct RootFixup {
    Item* item = nullptr;
    Weight pre_weight = 0;
    Weight pre_weight_free = 0;
  };

  /// Everything one shard worker owns during a sharded batch.
  /// Cache-line aligned: adjacent shards' vector headers are mutated on
  /// every MarkDirty/push_back of concurrent workers, so letting them
  /// share a line would coherence-ping-pong the phase-A/B hot loop on a
  /// multi-core host.
  struct alignas(64) ShardState {
    std::vector<std::vector<AtomDelta>> atom_deltas;  // per atom index
    std::vector<std::vector<DirtyItem>> dirty;        // per q-tree depth
    std::vector<RootFixup> root_fixups;
  };

  void FreeSubtree(Item* it);
  /// FreeSubtree's read-only twin: appends every item of `it`'s subtree
  /// (itself included) to `out` without touching the structure.
  void CollectSubtree(const Item* it, std::vector<ItemHandle>* out) const;
  void ApplyDelta(RelId rel, const Tuple& t, bool insert);
  void ApplyAtomDelta(const AtomMeta& am, const Tuple& t, bool insert);
  bool MatchesAtom(const AtomMeta& am, const Tuple& t) const;
  void FlipLeafEntry(const AtomMeta& am, ChildSlot& slot, const Tuple& t,
                     bool insert);

  /// Pool allocation plus per-node slot configuration (strided-leaf
  /// tables get their record width set before first use).
  Item* AllocItem(std::uint32_t n, std::size_t stripe = 0);

  /// Routes `deltas` into rel_groups_ (per-relation index lists).
  void RouteRelGroups(const PendingDelta* deltas, std::size_t n);
  /// Phase A over one atom's delta list. `stripe` selects the ItemPool
  /// stripe for fresh items; with `roots_premade` the level-0 probe is a
  /// read-only Find (sharded mode — roots were created up front).
  void BatchDescend(const AtomMeta& am,
                    const std::vector<AtomDelta>& deltas,
                    std::vector<std::vector<DirtyItem>>& dirty,
                    std::size_t stripe, bool roots_premade);
  void BatchOneDelta(const AtomMeta& am, const AtomDelta& ad,
                     std::size_t nd, SmallVector<Item*, 8>& chain,
                     SmallVector<Value, 8>& prev_key,
                     std::vector<std::vector<DirtyItem>>& dirty,
                     std::size_t stripe, bool roots_premade);
  /// Phase B over `dirty`, deepest level first. With `defer_roots` set,
  /// depth-0 items only get their weights recomputed and are appended to
  /// `defer_roots` (sharded mode); otherwise the root-slot fix-up runs
  /// inline (sequential mode).
  void FlushDirty(std::vector<std::vector<DirtyItem>>& dirty,
                  std::size_t stripe, std::vector<RootFixup>* defer_roots);
  void MarkDirty(Item* it, int depth,
                 std::vector<std::vector<DirtyItem>>& dirty);
  void RecomputeWeights(Item* it, const NodeMeta& nm) const;
  void DumpItem(std::ostream& os, const Item* it, int indent) const;
  void DumpLeafSlot(std::ostream& os, const ChildSlot& slot, int child_node,
                    int indent) const;
  std::size_t CheckItemRec(const Item* it) const;
  void CheckLeafSlot(const ChildSlot& slot, const NodeMeta& lm) const;

  Query query_;
  QTree tree_;
  std::vector<NodeMeta> node_meta_;
  std::vector<AtomMeta> atom_meta_;
  // Routing tables keyed by the handful of relations this component's
  // atoms touch — sparse on purpose: the schema may be a huge shared
  // multi-query one (see util/rel_map.h).
  RelMap<std::vector<int>> atoms_of_rel_;  // rel -> atom idxs
  EnumMeta enum_meta_;
  ItemPool pool_;
  ChildIndex root_index_;  // root-variable value -> root item
  ChildSlot root_slot_;

  // Batch pipeline state (scratch, reused across batches).
  std::uint64_t batch_epoch_ = 0;
  std::vector<AtomDelta> batch_scratch_;
  // Indexed by atoms_of_rel_'s dense order (AtomMeta::rel_group).
  std::vector<std::vector<std::uint32_t>> rel_groups_;  // rel group -> deltas
  std::vector<std::vector<DirtyItem>> dirty_;  // per q-tree depth

  // Sharded pipeline state (scratch, reused across batches). Worker s
  // only ever touches shards_[s] (and items under its own roots).
  std::size_t num_shards_ = 0;  // of the batch in flight
  std::vector<ShardState> shards_;
};

}  // namespace dyncq::core

#endif  // DYNCQ_CORE_COMPONENT_ENGINE_H_
