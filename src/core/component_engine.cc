#include "core/component_engine.h"

#include <algorithm>
#include <ostream>

#include "util/check.h"
#include "util/u128.h"

namespace dyncq::core {

namespace {

std::vector<std::size_t> ChildrenCounts(const QTree& tree) {
  std::vector<std::size_t> out(tree.NumNodes());
  for (std::size_t n = 0; n < tree.NumNodes(); ++n) {
    out[n] = tree.node(static_cast<int>(n)).children.size();
  }
  return out;
}

std::vector<std::size_t> TrackedCounts(const QTree& tree) {
  std::vector<std::size_t> out(tree.NumNodes());
  for (std::size_t n = 0; n < tree.NumNodes(); ++n) {
    out[n] = tree.node(static_cast<int>(n)).tracked_atoms.size();
  }
  return out;
}

/// All-positive / all-zero tests over a strided leaf record's k counts.
bool LeafRecFit(const std::uint64_t* pay, int k) {
  for (int i = 0; i < k; ++i) {
    if (pay[i] == 0) return false;
  }
  return true;
}
bool LeafRecEmpty(const std::uint64_t* pay, int k) {
  for (int i = 0; i < k; ++i) {
    if (pay[i] != 0) return false;
  }
  return true;
}

}  // namespace

ComponentEngine::ComponentEngine(Query query, QTree tree)
    : query_(std::move(query)),
      tree_(std::move(tree)),
      pool_(ChildrenCounts(tree_), TrackedCounts(tree_)) {
  // Node metadata.
  node_meta_.resize(tree_.NumNodes());
  int max_depth = 0;
  for (std::size_t n = 0; n < tree_.NumNodes(); ++n) {
    const QTreeNode& tn = tree_.node(static_cast<int>(n));
    NodeMeta& nm = node_meta_[n];
    nm.num_children = static_cast<int>(tn.children.size());
    nm.num_tracked = static_cast<int>(tn.tracked_atoms.size());
    nm.is_free = tn.is_free;
    // A non-root leaf's "items" are records in the parent's child index
    // instead of allocated blocks. Root nodes stay materialized even when
    // leaf-shaped: the root index and root fit list hold real items.
    nm.unit_leaf = tn.children.empty() && tn.parent >= 0;
    nm.leaf_stride =
        nm.unit_leaf ? (nm.num_tracked == 1 ? 1 : nm.num_tracked + 2) : 0;
    nm.slot_in_parent = tn.slot_in_parent;
    nm.slots_off = ItemSlotsOffset(tn.tracked_atoms.size());
    // Preorder storage guarantees the parent's meta is already built.
    nm.parent_slot_off =
        tn.parent >= 0
            ? node_meta_[static_cast<std::size_t>(tn.parent)].slots_off +
                  static_cast<std::size_t>(tn.slot_in_parent) *
                      sizeof(ChildSlot)
            : 0;
    max_depth = std::max(max_depth, tn.depth);
    for (int ai : tn.rep_atoms) {
      auto it = std::find(tn.tracked_atoms.begin(), tn.tracked_atoms.end(),
                          ai);
      DYNCQ_CHECK(it != tn.tracked_atoms.end());
      nm.rep_slots.push_back(
          static_cast<int>(it - tn.tracked_atoms.begin()));
    }
    for (std::size_t c = 0; c < tn.children.size(); ++c) {
      if (tree_.node(tn.children[c]).is_free) {
        nm.free_child_slots.push_back(static_cast<int>(c));
      }
    }
    // Cache lines the bottom-up pass reads: the header (weights, list
    // links, counts) and each child slot's sums, deduplicated per
    // 64-byte line.
    std::vector<std::size_t> lines = {0};
    for (int u = 0; u < nm.num_children; ++u) {
      lines.push_back((ItemSlotsOffset(tn.tracked_atoms.size()) +
                       static_cast<std::size_t>(u) * sizeof(ChildSlot) +
                       offsetof(ChildSlot, sum)) /
                      64);
    }
    std::sort(lines.begin(), lines.end());
    lines.erase(std::unique(lines.begin(), lines.end()), lines.end());
    for (std::size_t line : lines) nm.touch_offsets.push_back(line * 64);
  }
  // Second pass: strided-leaf slot configuration (needs every child's
  // first-pass meta).
  for (std::size_t n = 0; n < tree_.NumNodes(); ++n) {
    const QTreeNode& tn = tree_.node(static_cast<int>(n));
    NodeMeta& nm = node_meta_[n];
    for (std::size_t c = 0; c < tn.children.size(); ++c) {
      const NodeMeta& cm =
          node_meta_[static_cast<std::size_t>(tn.children[c])];
      if (cm.unit_leaf && cm.leaf_stride > 1) {
        nm.leaf_slot_strides.emplace_back(static_cast<int>(c),
                                          cm.leaf_stride);
      }
    }
  }
  dirty_.resize(static_cast<std::size_t>(max_depth) + 1);

  // Atom metadata.
  atom_meta_.resize(query_.NumAtoms());
  for (std::size_t ai = 0; ai < query_.NumAtoms(); ++ai) {
    const Atom& atom = query_.atoms()[ai];
    AtomMeta& am = atom_meta_[ai];
    am.rel = atom.rel;
    atoms_of_rel_.FindOrInsert(atom.rel).push_back(static_cast<int>(ai));
    am.rel_group = atoms_of_rel_.IndexOf(atom.rel);

    std::vector<int> path = tree_.AtomPathNodes(static_cast<int>(ai));
    am.d = static_cast<int>(path.size());
    am.level_node = path;
    for (int n : path) {
      const QTreeNode& tn = tree_.node(n);
      VarId v = tn.var;
      // Slot of this atom within the node's tracked list.
      auto slot_it = std::find(tn.tracked_atoms.begin(),
                               tn.tracked_atoms.end(), static_cast<int>(ai));
      DYNCQ_CHECK(slot_it != tn.tracked_atoms.end());
      am.level_slot.push_back(
          static_cast<int>(slot_it - tn.tracked_atoms.begin()));
      am.level_parent_slot.push_back(tn.slot_in_parent);
      am.level_count_off.push_back(
          ItemCountsOffset() +
          static_cast<std::size_t>(am.level_slot.back()) *
              sizeof(std::uint64_t));
      // Slot offsets address the PARENT item's block, whose layout is
      // governed by the parent node's tracked-atom count.
      am.level_slot_off.push_back(
          tn.slot_in_parent >= 0
              ? ItemSlotsOffset(
                    tree_.node(tn.parent).tracked_atoms.size()) +
                    static_cast<std::size_t>(tn.slot_in_parent) *
                        sizeof(ChildSlot)
              : 0);
      // First argument position carrying this level's variable.
      int pos = -1;
      for (std::size_t p = 0; p < atom.args.size(); ++p) {
        if (atom.args[p].IsVar() && atom.args[p].var == v) {
          pos = static_cast<int>(p);
          break;
        }
      }
      DYNCQ_CHECK_MSG(pos >= 0, "path variable missing from atom");
      am.read_pos.push_back(pos);
    }
    {
      const NodeMeta& last =
          node_meta_[static_cast<std::size_t>(am.level_node.back())];
      am.leaf_inline = am.d >= 2 && last.unit_leaf;
      am.leaf_free = last.is_free;
    }
    // Consistency checks: repeated variables and constants (§6.4: only
    // atoms with z_s = z_t ⇒ b_s = b_t participate; constants are the
    // engine's selection extension).
    std::vector<int> first_pos_of_var(query_.NumVars(), -1);
    for (std::size_t p = 0; p < atom.args.size(); ++p) {
      const Term& t = atom.args[p];
      if (t.IsConst()) {
        am.const_checks.emplace_back(static_cast<int>(p), t.constant);
      } else if (first_pos_of_var[t.var] == -1) {
        first_pos_of_var[t.var] = static_cast<int>(p);
      } else {
        am.eq_checks.emplace_back(first_pos_of_var[t.var],
                                  static_cast<int>(p));
      }
    }
  }

  // Enumeration metadata: preorder over the free prefix subtree T'.
  if (!query_.head().empty()) {
    std::vector<int> stack = {tree_.root()};
    std::vector<int> pos_of_node(tree_.NumNodes(), -1);
    while (!stack.empty()) {
      int n = stack.back();
      stack.pop_back();
      const QTreeNode& tn = tree_.node(n);
      if (!tn.is_free) continue;
      pos_of_node[static_cast<std::size_t>(n)] =
          static_cast<int>(enum_meta_.nodes.size());
      enum_meta_.nodes.push_back(n);
      enum_meta_.parent_pos.push_back(
          tn.parent >= 0 ? pos_of_node[static_cast<std::size_t>(tn.parent)]
                         : -1);
      enum_meta_.slot_in_parent.push_back(tn.slot_in_parent);
      const NodeMeta& nm = node_meta_[static_cast<std::size_t>(n)];
      enum_meta_.leaf_kind.push_back(
          nm.unit_leaf ? (nm.leaf_stride == 1 ? 1 : 2) : 0);
      enum_meta_.leaf_stride.push_back(nm.leaf_stride);
      enum_meta_.slot_off.push_back(nm.parent_slot_off);
      for (auto it = tn.children.rbegin(); it != tn.children.rend(); ++it) {
        stack.push_back(*it);
      }
    }
    for (VarId v : query_.head()) {
      int n = tree_.NodeOfVar(v);
      DYNCQ_CHECK(pos_of_node[static_cast<std::size_t>(n)] >= 0);
      enum_meta_.head_doc_pos.push_back(
          pos_of_node[static_cast<std::size_t>(n)]);
    }
  }
}

ComponentEngine::~ComponentEngine() {
  root_index_.ForEach([this](Value, std::uint64_t bits) {
    FreeSubtree(pool_.Resolve(ItemHandle::FromBits(bits)));
  });
}

void ComponentEngine::FreeSubtree(Item* it) {
  const NodeMeta& nm = node_meta_[it->node];
  const QTreeNode& tn = tree_.node(static_cast<int>(it->node));
  ChildSlot* slots = reinterpret_cast<ChildSlot*>(
      reinterpret_cast<char*>(it) + nm.slots_off);
  for (int u = 0; u < nm.num_children; ++u) {
    const int child = tn.children[static_cast<std::size_t>(u)];
    if (node_meta_[static_cast<std::size_t>(child)].unit_leaf) continue;
    slots[u].index.ForEach([this](Value, std::uint64_t bits) {
      FreeSubtree(pool_.Resolve(ItemHandle::FromBits(bits)));
    });
  }
  pool_.Free(it);  // runs the slot destructors (index tables included)
}

// ---------------------------------------------------------------------------
// Epoch-pinned snapshot fork (docs/ARCHITECTURE.md, "Snapshot cursors").
//
// A pin is O(1): it records the root fit-list anchors. Only when the
// first post-pin write arrives does the engine pay for the version — it
// detaches the entire forest (the pinned cursors keep walking those
// blocks, links intact) and rebuilds the live structure by replaying the
// component's base tuples. The two forests are then disjoint, so the
// single writer and any number of pinned readers never touch the same
// memory again.
// ---------------------------------------------------------------------------

void ComponentEngine::CaptureSnapshot(ComponentSnapshot* out) const {
  out->root_head = SlotHead(root_slot_);
  out->root_tail = SlotTail(root_slot_);
  out->sum = root_slot_.sum;
  out->sum_free = root_slot_.sum_free;
  out->detached.clear();
}

void ComponentEngine::CollectSubtree(const Item* it,
                                     std::vector<ItemHandle>* out) const {
  const NodeMeta& nm = node_meta_[it->node];
  const QTreeNode& tn = tree_.node(static_cast<int>(it->node));
  const ChildSlot* slots = reinterpret_cast<const ChildSlot*>(
      reinterpret_cast<const char*>(it) + nm.slots_off);
  for (int u = 0; u < nm.num_children; ++u) {
    const int child = tn.children[static_cast<std::size_t>(u)];
    if (node_meta_[static_cast<std::size_t>(child)].unit_leaf) continue;
    slots[u].index.ForEach([this, out](Value, std::uint64_t bits) {
      CollectSubtree(pool_.Resolve(ItemHandle::FromBits(bits)), out);
    });
  }
  out->push_back(it->self);
}

void ComponentEngine::DetachAllItems(std::vector<ItemHandle>* out) {
  out->clear();
  // Collection is read-only and completes before any mutation, so a
  // bad_alloc from the vector leaves the live structure untouched.
  root_index_.ForEach([this, out](Value, std::uint64_t bits) {
    CollectSubtree(pool_.Resolve(ItemHandle::FromBits(bits)), out);
  });
  // Point of no return — everything below is noexcept.
  pool_.Detach(out->size());
  root_index_.Clear();
  root_slot_.head = 0;
  root_slot_.tail = 0;
  root_slot_.sum = 0;
  root_slot_.sum_free = 0;
}

void ComponentEngine::RebuildFromDatabase(const Database& db) {
  root_index_.Reserve(db.ActiveDomainSize());
  for (const auto& [rel, atom_idxs] : atoms_of_rel_) {
    (void)atom_idxs;
    for (const Tuple& t : db.relation(rel)) ApplyDelta(rel, t, true);
  }
}

void ComponentEngine::RestoreDetached(ComponentSnapshot& snap) {
  // Free the partial rebuild (if any): the rebuild's items are exactly
  // what the root index currently reaches.
  root_index_.ForEach([this](Value, std::uint64_t bits) {
    FreeSubtree(pool_.Resolve(ItemHandle::FromBits(bits)));
  });
  root_index_.Clear();
  // Re-attach the detached forest. Roots are the items of the q-tree
  // root node (the only node without a parent); their subtree links were
  // never touched, so re-registering the roots restores everything.
  for (ItemHandle h : snap.detached) {
    const Item* it = pool_.Resolve(h);
    if (tree_.node(static_cast<int>(it->node)).parent < 0) {
      *root_index_.FindOrInsertSlot(it->value) = h.bits();
    }
  }
  root_slot_.head = snap.root_head.bits();
  root_slot_.tail = snap.root_tail.bits();
  root_slot_.sum = snap.sum;
  root_slot_.sum_free = snap.sum_free;
  // A rebuild that died mid-flight may strand a just-allocated block
  // outside every free list; its memory stays owned by the pool's
  // blocks. Reset the live count to what the restored structure holds.
  pool_.SetLiveItemsForRollback(snap.detached.size());
  snap.detached.clear();
}

void ComponentEngine::RetireDetached(std::uint64_t epoch,
                                     std::vector<ItemHandle>* items) {
  pool_.Retire(epoch, *items);
  items->clear();
}

Item* ComponentEngine::AllocItem(std::uint32_t n, std::size_t stripe) {
  Item* it = pool_.Alloc(n, stripe);
  const NodeMeta& nm = node_meta_[n];
  if (!nm.leaf_slot_strides.empty()) {
    ChildSlot* slots = reinterpret_cast<ChildSlot*>(
        reinterpret_cast<char*>(it) + nm.slots_off);
    for (const auto& [c, stride] : nm.leaf_slot_strides) {
      slots[c].index.set_stride(static_cast<std::size_t>(stride));
    }
  }
  return it;
}

bool ComponentEngine::MatchesAtom(const AtomMeta& am, const Tuple& t) const {
  // §6.4: the update only concerns atoms whose repeated-variable /
  // constant pattern is consistent with the tuple.
  for (const auto& [p1, p2] : am.eq_checks) {
    if (t[static_cast<std::size_t>(p1)] != t[static_cast<std::size_t>(p2)]) {
      return false;
    }
  }
  for (const auto& [p, c] : am.const_checks) {
    if (t[static_cast<std::size_t>(p)] != c) return false;
  }
  return true;
}

void ComponentEngine::PrefetchWalk(RelId rel, const Tuple& t) const {
  for (int ai : atoms_of_rel_[rel]) {
    const AtomMeta& am = atom_meta_[static_cast<std::size_t>(ai)];
    if (!MatchesAtom(am, t)) continue;
    const Item* root = pool_.Resolve(ItemHandle::FromBits(
        root_index_.Find(t[static_cast<std::size_t>(am.read_pos[0])])));
    if (root == nullptr) continue;
    const char* base = reinterpret_cast<const char*>(root);
    __builtin_prefetch(base + am.level_count_off[0]);
    if (am.d > 1) __builtin_prefetch(base + am.level_slot_off[1]);
  }
}

void ComponentEngine::ApplyDelta(RelId rel, const Tuple& t, bool insert) {
  for (int ai : atoms_of_rel_[rel]) {
    ApplyAtomDelta(atom_meta_[static_cast<std::size_t>(ai)], t, insert);
  }
}

void ComponentEngine::ApplyAtomDelta(const AtomMeta& am, const Tuple& t,
                                     bool insert) {
  if (!MatchesAtom(am, t)) return;

  // Top-down: locate (and on insert, create) the path items
  // i_j = [v_j, a_1..a_{j-1}, a_j] by one single-Value probe per level in
  // the parent's child index (root index at level 0). The next level's
  // ChildSlot and this level's tracked count live at offsets fixed per
  // q-tree node, so both are prefetched the moment the item pointer is
  // known and no header pointer is chased on the way down.
  // For leaf-inline atoms the last level is a record in the level-(d-2)
  // item's child index, so only the first `nd` levels are items.
  const int nd = am.leaf_inline ? am.d - 1 : am.d;
  SmallVector<Item*, 8> chain;
  Item* parent = nullptr;
  for (int j = 0; j < nd; ++j) {
    const std::size_t sj = static_cast<std::size_t>(j);
    const Value v = t[static_cast<std::size_t>(am.read_pos[sj])];
    ChildIndex& idx =
        j == 0 ? root_index_
               : reinterpret_cast<ChildSlot*>(
                     reinterpret_cast<char*>(parent) +
                     am.level_slot_off[sj])
                     ->index;
    Item* it;
    if (insert) {
      std::uint64_t* slot = idx.FindOrInsertSlot(v);
      if (*slot == 0) {
        Item* fresh = AllocItem(
            static_cast<std::uint32_t>(am.level_node[sj]));
        fresh->value = v;
        if (parent != nullptr) fresh->parent = parent->self;
        *slot = fresh->self.bits();
        it = fresh;
      } else {
        it = pool_.Resolve(ItemHandle::FromBits(*slot));
      }
    } else {
      it = pool_.Resolve(ItemHandle::FromBits(idx.Find(v)));
      DYNCQ_CHECK_MSG(it != nullptr, "delete walk hit a missing item");
    }
    __builtin_prefetch(reinterpret_cast<char*>(it) +
                       am.level_count_off[sj]);
    if (j + 1 < am.d) {
      __builtin_prefetch(reinterpret_cast<char*>(it) +
                         am.level_slot_off[sj + 1]);
    }
    for (std::size_t off :
         node_meta_[static_cast<std::size_t>(am.level_node[sj])]
             .touch_offsets) {
      __builtin_prefetch(reinterpret_cast<char*>(it) + off);
    }
    chain.push_back(it);
    parent = it;
  }

  if (am.leaf_inline) {
    FlipLeafEntry(am,
                  *reinterpret_cast<ChildSlot*>(
                      reinterpret_cast<char*>(parent) +
                      am.level_slot_off[static_cast<std::size_t>(am.d - 1)]),
                  t, insert);
  }

  // Bottom-up: steps 1-5 (+2a/4a) of §6.4 for j = d .. 1 over the
  // materialized chain.
  for (int j = static_cast<int>(chain.size()) - 1; j >= 0; --j) {
    Item* it = chain[static_cast<std::size_t>(j)];
    const NodeMeta& nm =
        node_meta_[static_cast<std::size_t>(
            am.level_node[static_cast<std::size_t>(j)])];

    // Step 1: adjust C^{i_j}_ψ (count address precomputed per level).
    std::uint64_t& count = *reinterpret_cast<std::uint64_t*>(
        reinterpret_cast<char*>(it) +
        am.level_count_off[static_cast<std::size_t>(j)]);
    if (insert) {
      ++count;
    } else {
      DYNCQ_DCHECK(count > 0);
      --count;
    }

    // Step 2 (+2a): recompute C^{i_j} and C̃^{i_j} via Lemmas 6.3/6.4.
    Weight old_c = it->weight;
    Weight old_ct = it->weight_free;
    RecomputeWeights(it, nm);

    // Steps 3 & 4 (+4a): fix list membership and the parent sums.
    ChildSlot& pslot =
        j > 0 ? *reinterpret_cast<ChildSlot*>(
                    reinterpret_cast<char*>(
                        chain[static_cast<std::size_t>(j - 1)]) +
                    nm.parent_slot_off)
              : root_slot_;
    if (old_c == 0 && it->weight > 0) {
      ListPushBack(pool_, pslot, it);
    } else if (old_c > 0 && it->weight == 0) {
      ListRemove(pool_, pslot, it);
    }
    pslot.sum += it->weight - old_c;  // unsigned wrap-around is exact here
    if (nm.is_free) pslot.sum_free += it->weight_free - old_ct;

    // Step 5: delete the item once no atom is supported by it.
    if (!insert) {
      bool all_zero = true;
      const std::uint64_t* counts = ItemCounts(it);
      for (int s = 0; s < nm.num_tracked; ++s) {
        if (counts[s] != 0) {
          all_zero = false;
          break;
        }
      }
      if (all_zero) {
        DYNCQ_DCHECK(!it->in_list && it->weight == 0);
        ChildIndex& idx = j > 0 ? pslot.index : root_index_;
        bool erased = idx.Erase(it->value);
        DYNCQ_CHECK(erased);
        pool_.Free(it);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Batched update pipeline.
//
// Phase A (per atom): route the batch's effective deltas to the atom,
// sort them by root-path key (original order preserved per key, which is
// enough: for a fixed atom the key determines the whole tuple), and walk
// the q-tree top-down once per delta, sharing the descent of the common
// prefix with the previous delta. Only the tracked counts are adjusted;
// every touched item is recorded (once) with its pre-batch weights.
//
// Phase B: process touched items deepest-level first — recompute weights
// once, fix fit-list membership, push the weight difference into the
// parent's running sums, and free items whose counts all reached zero.
// Deferring weight recomputation to one pass per item is what makes a
// batch cheaper than its updates applied one by one.
// ---------------------------------------------------------------------------

void ComponentEngine::MarkDirty(Item* it, int depth,
                                std::vector<std::vector<DirtyItem>>& dirty) {
  if (it->batch_stamp == batch_epoch_) return;
  it->batch_stamp = batch_epoch_;
  dirty[static_cast<std::size_t>(depth)].push_back(
      DirtyItem{it, it->node, it->weight, it->weight_free});
}

void ComponentEngine::RouteRelGroups(const PendingDelta* deltas,
                                     std::size_t n) {
  // Route the batch once: per-relation index lists, so each atom only
  // scans its own relation's deltas (self-joins share the list).
  if (rel_groups_.size() < atoms_of_rel_.size()) {
    rel_groups_.resize(atoms_of_rel_.size());
  }
  for (auto& g : rel_groups_) g.clear();
  for (std::size_t i = 0; i < n; ++i) {
    const int gi = atoms_of_rel_.IndexOf(deltas[i].rel);
    if (gi >= 0) {
      rel_groups_[static_cast<std::size_t>(gi)].push_back(
          static_cast<std::uint32_t>(i));
    }
  }
}

void ComponentEngine::ApplyBatch(const PendingDelta* deltas, std::size_t n) {
  ++batch_epoch_;
  RouteRelGroups(deltas, n);
  bool touched = false;
  for (const AtomMeta& am : atom_meta_) {
    batch_scratch_.clear();
    for (std::uint32_t i : rel_groups_[static_cast<std::size_t>(am.rel_group)]) {
      if (MatchesAtom(am, *deltas[i].tuple)) {
        batch_scratch_.push_back(
            AtomDelta{deltas[i].tuple, nullptr, i, deltas[i].insert});
      }
    }
    if (batch_scratch_.empty()) continue;
    touched = true;
    // Arrival order is kept: for a fixed atom the root-path key determines
    // the whole tuple, so per-key sequencing (the only ordering phase A
    // relies on) holds trivially, and the block prefetch sweeps in
    // BatchDescend recover the memory locality a sort would have bought —
    // without the pointer-chasing key comparisons.
    BatchDescend(am, batch_scratch_, dirty_, /*stripe=*/0,
                 /*roots_premade=*/false);
  }
  if (touched) FlushDirty(dirty_, /*stripe=*/0, /*defer_roots=*/nullptr);
}

// ---------------------------------------------------------------------------
// Sharded batch pipeline (BeginShardedBatch / RunShard / FinishShardedBatch).
//
// Ownership argument: a §6.4 walk for a delta on atom ψ starts at the
// root item keyed by the tuple's root value and never leaves that root's
// subtree — every item it finds, creates, counts, re-weights, or frees,
// and every child index and fit list it mutates, lives under that root.
// Routing deltas by Mix64(root value) % k therefore partitions the item
// forest: two shards never touch the same item, so phase A needs no
// locks and phase B needs no cross-shard merge. The only shared
// structures are the root index (made read-only by pre-creating insert
// roots up front) and the engine-level root slot (fit list + Cstart
// sums), whose fix-ups are deferred to the sequential finish pass.
// ---------------------------------------------------------------------------

void ComponentEngine::BeginShardedBatch(const PendingDelta* deltas,
                                        std::size_t n, std::size_t shards) {
  DYNCQ_CHECK(shards >= 1);
  ++batch_epoch_;
  num_shards_ = shards;
  pool_.EnsureStripes(shards);
  // Workers may free items whose blocks belong to another stripe (an
  // item allocated by an earlier batch's routing); the pool defers the
  // slot recycling of those frees until EndConcurrent.
  pool_.BeginConcurrent();
  if (shards_.size() < shards) {
    std::size_t old = shards_.size();
    shards_.resize(shards);
    for (std::size_t s = old; s < shards; ++s) {
      shards_[s].atom_deltas.resize(atom_meta_.size());
      shards_[s].dirty.resize(dirty_.size());
    }
  }
  RouteRelGroups(deltas, n);
  for (std::size_t ai = 0; ai < atom_meta_.size(); ++ai) {
    const AtomMeta& am = atom_meta_[ai];
    for (std::uint32_t i : rel_groups_[static_cast<std::size_t>(am.rel_group)]) {
      if (!MatchesAtom(am, *deltas[i].tuple)) continue;
      const Tuple& t = *deltas[i].tuple;
      const Value v = t[static_cast<std::size_t>(am.read_pos[0])];
      const std::size_t s = Mix64(v) % shards;
      // Resolve (and for inserts, create) the root item now, so workers
      // never touch the shared root index: the probe the sequential
      // descent would have spent at level 0 happens here instead — one
      // root probe per delta either way.
      Item* root;
      if (deltas[i].insert) {
        std::uint64_t* slot = root_index_.FindOrInsertSlot(v);
        if (*slot == 0) {
          // The fresh item comes from its owner's stripe; its counts
          // stay zero until that shard's phase A runs.
          Item* fresh = AllocItem(
              static_cast<std::uint32_t>(am.level_node[0]), s);
          fresh->value = v;
          *slot = fresh->self.bits();
          root = fresh;
        } else {
          root = pool_.Resolve(ItemHandle::FromBits(*slot));
        }
      } else {
        root = pool_.Resolve(ItemHandle::FromBits(root_index_.Find(v)));
        DYNCQ_CHECK_MSG(root != nullptr,
                        "sharded delete routed to a missing root");
      }
      shards_[s].atom_deltas[ai].push_back(
          AtomDelta{deltas[i].tuple, root, i, deltas[i].insert});
    }
  }
}

void ComponentEngine::RunShard(std::size_t s) {
  DYNCQ_DCHECK(s < num_shards_);
  ShardState& sh = shards_[s];
  for (std::size_t ai = 0; ai < atom_meta_.size(); ++ai) {
    std::vector<AtomDelta>& deltas = sh.atom_deltas[ai];
    if (deltas.empty()) continue;
    BatchDescend(atom_meta_[ai], deltas, sh.dirty, s,
                 /*roots_premade=*/true);
    deltas.clear();
  }
  FlushDirty(sh.dirty, s, &sh.root_fixups);
}

void ComponentEngine::FinishShardedBatch() {
  // Workers are joined: leave concurrent mode and fold the deferred
  // cross-stripe frees back into their blocks before the root pass
  // (which may free and reallocate root slots itself).
  pool_.EndConcurrent();
  for (std::size_t s = 0; s < num_shards_; ++s) {
    for (const RootFixup& f : shards_[s].root_fixups) {
      Item* it = f.item;
      const NodeMeta& nm = node_meta_[it->node];
      if (!it->in_list && it->weight > 0) {
        ListPushBack(pool_, root_slot_, it);
      } else if (it->in_list && it->weight == 0) {
        ListRemove(pool_, root_slot_, it);
      }
      root_slot_.sum += it->weight - f.pre_weight;  // unsigned wrap exact
      if (nm.is_free) {
        root_slot_.sum_free += it->weight_free - f.pre_weight_free;
      }

      // Step 5 at the root: drop roots no atom supports any more (this
      // also reaps roots pre-created for inserts that a same-batch
      // delete pattern drained back to zero).
      bool all_zero = true;
      const std::uint64_t* counts = ItemCounts(it);
      for (int c = 0; c < nm.num_tracked; ++c) {
        if (counts[c] != 0) {
          all_zero = false;
          break;
        }
      }
      if (all_zero) {
        DYNCQ_DCHECK(!it->in_list && it->weight == 0);
        bool erased = root_index_.Erase(it->value);
        DYNCQ_CHECK(erased);
        pool_.Free(it, s);
      }
    }
    shards_[s].root_fixups.clear();
  }
  num_shards_ = 0;
}

// Deltas are consumed in blocks: two prefetch sweeps (root buckets, then
// root item lines) put up to kBatchBlock independent fetches in flight
// before the serial descents run, so the per-delta latency is the line
// latency divided by the block's memory-level parallelism rather than a
// full round-trip per update.
void ComponentEngine::BatchDescend(const AtomMeta& am,
                                   const std::vector<AtomDelta>& deltas,
                                   std::vector<std::vector<DirtyItem>>& dirty,
                                   std::size_t stripe, bool roots_premade) {
  constexpr std::size_t kBatchBlock = 32;
  const std::size_t nd =
      static_cast<std::size_t>(am.leaf_inline ? am.d - 1 : am.d);
  SmallVector<Item*, 8> chain;
  SmallVector<Value, 8> prev_key;
  for (std::size_t base = 0; base < deltas.size(); base += kBatchBlock) {
    const std::size_t end = std::min(base + kBatchBlock, deltas.size());
    if (roots_premade) {
      // Root items are already resolved by the routing pass: one sweep
      // hints their descent lines directly, no index probes.
      for (std::size_t i = base; i < end; ++i) {
        const char* b = reinterpret_cast<const char*>(deltas[i].root);
        __builtin_prefetch(b + am.level_count_off[0]);
        if (am.d > 1) __builtin_prefetch(b + am.level_slot_off[1]);
      }
    } else {
      for (std::size_t i = base; i < end; ++i) {
        root_index_.Prefetch((*deltas[i].tuple)[
            static_cast<std::size_t>(am.read_pos[0])]);
      }
      for (std::size_t i = base; i < end; ++i) {
        const Item* root = pool_.Resolve(
            ItemHandle::FromBits(root_index_.Find((*deltas[i].tuple)[
                static_cast<std::size_t>(am.read_pos[0])])));
        if (root == nullptr) continue;
        // Only the two lines the descent itself needs — the weight
        // fix-up lines are prefetched by FlushDirty's own lookahead, and
        // issuing them here would exceed the core's miss-level
        // parallelism.
        const char* b = reinterpret_cast<const char*>(root);
        __builtin_prefetch(b + am.level_count_off[0]);
        if (am.d > 1) __builtin_prefetch(b + am.level_slot_off[1]);
      }
    }
    for (std::size_t i = base; i < end; ++i) {
      BatchOneDelta(am, deltas[i], nd, chain, prev_key, dirty, stripe,
                    roots_premade);
    }
  }
}

void ComponentEngine::BatchOneDelta(const AtomMeta& am, const AtomDelta& ad,
                                    std::size_t nd,
                                    SmallVector<Item*, 8>& chain,
                                    SmallVector<Value, 8>& prev_key,
                                    std::vector<std::vector<DirtyItem>>& dirty,
                                    std::size_t stripe, bool roots_premade) {
  const Tuple& t = *ad.tuple;
  // Longest prefix shared with the previous delta's path.
  std::size_t lcp = 0;
  while (lcp < chain.size() &&
         t[static_cast<std::size_t>(am.read_pos[lcp])] == prev_key[lcp]) {
    ++lcp;
  }
  chain.resize(lcp);
  prev_key.resize(lcp);

  // Descend the unshared suffix (deletes must find their items: the
  // batch fold keeps at most one command per tuple and set semantics
  // makes an effective delete imply pre-batch presence). In sharded mode
  // (`roots_premade`) the level-0 probe is a read-only Find for inserts
  // too — BeginShardedBatch created every root an insert can reach.
  Item* parent = lcp > 0 ? chain[lcp - 1] : nullptr;
  for (std::size_t j = lcp; j < nd; ++j) {
    const Value v = t[static_cast<std::size_t>(am.read_pos[j])];
    Item* it;
    if (j == 0 && roots_premade) {
      it = ad.root;  // resolved by the routing pass, no index probe
    } else {
      ChildIndex& idx =
          j == 0 ? root_index_
                 : reinterpret_cast<ChildSlot*>(
                       reinterpret_cast<char*>(parent) +
                       am.level_slot_off[j])
                       ->index;
      if (ad.insert) {
        std::uint64_t* slot = idx.FindOrInsertSlot(v);
        if (*slot == 0) {
          Item* fresh = AllocItem(
              static_cast<std::uint32_t>(am.level_node[j]), stripe);
          fresh->value = v;
          if (parent != nullptr) fresh->parent = parent->self;
          *slot = fresh->self.bits();
          it = fresh;
        } else {
          it = pool_.Resolve(ItemHandle::FromBits(*slot));
        }
      } else {
        it = pool_.Resolve(ItemHandle::FromBits(idx.Find(v)));
        DYNCQ_CHECK_MSG(it != nullptr, "batch walk hit a missing item");
      }
    }
    chain.push_back(it);
    prev_key.push_back(v);
    parent = it;
  }

  // Step 1 of §6.4 for every materialized prefix level; weights are
  // fixed up in phase B.
  for (std::size_t j = 0; j < nd; ++j) {
    Item* it = chain[j];
    MarkDirty(it, static_cast<int>(j), dirty);
    std::uint64_t& count = *reinterpret_cast<std::uint64_t*>(
        reinterpret_cast<char*>(it) + am.level_count_off[j]);
    if (ad.insert) {
      ++count;
    } else {
      DYNCQ_DCHECK(count > 0);
      --count;
    }
  }

  // Leaf-inline level: the parent item was marked dirty above with its
  // pre-batch weight, so the slot sums may be finalized right away and
  // phase B recomputes the parent from them.
  if (am.leaf_inline) {
    FlipLeafEntry(am,
                  *reinterpret_cast<ChildSlot*>(
                      reinterpret_cast<char*>(chain[nd - 1]) +
                      am.level_slot_off[static_cast<std::size_t>(am.d - 1)]),
                  t, ad.insert);
  }
}

namespace {

/// Appends record `rec` (already fit) to the slot's intrusive fit list.
/// Links are record KEYS (payload words k and k+1), so backward-shift
/// moves and rehashes never invalidate them; the head/tail keys live in
/// the slot's (otherwise unused) head/tail name fields.
void LeafFitLink(ChildSlot& slot, std::uint64_t* rec, int k) {
  const Value v = rec[0];
  const Value tail = slot.tail;
  rec[1 + k] = tail;
  rec[2 + k] = 0;
  if (tail != 0) {
    slot.index.FindRecord(tail)[2 + k] = v;
  } else {
    slot.head = v;
  }
  slot.tail = v;
}

/// Unlinks record `rec` from the slot's fit list.
void LeafFitUnlink(ChildSlot& slot, std::uint64_t* rec, int k) {
  const Value p = rec[1 + k];
  const Value n = rec[2 + k];
  if (p != 0) {
    slot.index.FindRecord(p)[2 + k] = n;
  } else {
    slot.head = n;
  }
  if (n != 0) {
    slot.index.FindRecord(n)[1 + k] = p;
  } else {
    slot.tail = p;
  }
  rec[1 + k] = rec[2 + k] = 0;
}

}  // namespace

// Flips an inlined-leaf record in `slot` and maintains the slot's
// running sums directly. Single-atom leaves (stride 1) store bare
// presence entries: present == fit, sum == record count. Leaves tracking
// k > 1 atoms store one 0/1 count word per atom (a leaf atom's expansion
// is fully determined by the root path) plus fit-list links; a record is
// fit — weight 1, counted in the sums, enumerable — iff every count is
// positive, and it is erased once all counts are zero.
void ComponentEngine::FlipLeafEntry(const AtomMeta& am, ChildSlot& slot,
                                    const Tuple& t, bool insert) {
  const NodeMeta& lm = node_meta_[static_cast<std::size_t>(
      am.level_node[static_cast<std::size_t>(am.d - 1)])];
  const Value v = t[static_cast<std::size_t>(
      am.read_pos[static_cast<std::size_t>(am.d - 1)])];
  if (lm.leaf_stride == 1) {
    if (insert) {
      std::uint64_t* entry = slot.index.FindOrInsertSlot(v);
      DYNCQ_DCHECK(*entry == 0);
      *entry = 1;  // presence marker (any non-zero payload)
      slot.sum += 1;
      if (am.leaf_free) slot.sum_free += 1;
    } else {
      bool erased = slot.index.Erase(v);
      DYNCQ_CHECK_MSG(erased, "delete walk hit a missing leaf entry");
      slot.sum -= 1;
      if (am.leaf_free) slot.sum_free -= 1;
    }
    return;
  }
  const int k = lm.num_tracked;
  const int s = am.level_slot[static_cast<std::size_t>(am.d - 1)];
  if (insert) {
    std::uint64_t* rec = slot.index.FindOrInsertRecord(v);
    std::uint64_t* pay = rec + 1;
    const bool was_fit = LeafRecFit(pay, k);
    DYNCQ_DCHECK(pay[s] == 0);
    pay[s] = 1;
    if (!was_fit && LeafRecFit(pay, k)) {
      LeafFitLink(slot, rec, k);
      slot.sum += 1;
      if (am.leaf_free) slot.sum_free += 1;
    }
  } else {
    std::uint64_t* rec = slot.index.FindRecord(v);
    DYNCQ_CHECK_MSG(rec != nullptr, "delete walk hit a missing leaf entry");
    std::uint64_t* pay = rec + 1;
    const bool was_fit = LeafRecFit(pay, k);
    DYNCQ_DCHECK(pay[s] == 1);
    pay[s] = 0;
    if (was_fit) {
      LeafFitUnlink(slot, rec, k);
      slot.sum -= 1;
      if (am.leaf_free) slot.sum_free -= 1;
    }
    if (LeafRecEmpty(pay, k)) slot.index.Erase(v);
  }
}

void ComponentEngine::FlushDirty(std::vector<std::vector<DirtyItem>>& dirty,
                                 std::size_t stripe,
                                 std::vector<RootFixup>* defer_roots) {
  constexpr std::size_t kLookahead = 8;
  for (std::size_t depth = dirty.size(); depth-- > 0;) {
    std::vector<DirtyItem>& level = dirty[depth];
    if (depth == 0 && defer_roots != nullptr) {
      // Sharded mode: the root slot (fit list + Cstart sums) and root
      // index are shared across shards, so depth-0 items only get their
      // weights finalized here (their children — same shard — are
      // already flushed); the slot fix-up and root deletion run in
      // FinishShardedBatch.
      for (const DirtyItem& d : level) {
        RecomputeWeights(d.item, node_meta_[d.node]);
        defer_roots->push_back(
            RootFixup{d.item, d.pre_weight, d.pre_weight_free});
      }
      level.clear();
      continue;
    }
    for (std::size_t i = 0; i < level.size(); ++i) {
      if (i + kLookahead < level.size()) {
        const DirtyItem& ahead = level[i + kLookahead];
        for (std::size_t off : node_meta_[ahead.node].touch_offsets) {
          __builtin_prefetch(reinterpret_cast<char*>(ahead.item) + off);
        }
      }
      const DirtyItem& d = level[i];
      Item* it = d.item;
      const NodeMeta& nm = node_meta_[it->node];
      // Steps 2/2a: child running sums are final (deeper levels flushed
      // first), so one recomputation per item suffices.
      RecomputeWeights(it, nm);

      // Steps 3/4 (+4a) against the PRE-batch membership and sums.
      Item* parent = pool_.Resolve(it->parent);
      ChildSlot& pslot =
          parent != nullptr
              ? *reinterpret_cast<ChildSlot*>(
                    reinterpret_cast<char*>(parent) + nm.parent_slot_off)
              : root_slot_;
      if (!it->in_list && it->weight > 0) {
        ListPushBack(pool_, pslot, it);
      } else if (it->in_list && it->weight == 0) {
        ListRemove(pool_, pslot, it);
      }
      pslot.sum += it->weight - d.pre_weight;  // unsigned wrap is exact
      if (nm.is_free) pslot.sum_free += it->weight_free - d.pre_weight_free;

      // Step 5: free items no atom supports any more.
      bool all_zero = true;
      const std::uint64_t* counts = ItemCounts(it);
      for (int s = 0; s < nm.num_tracked; ++s) {
        if (counts[s] != 0) {
          all_zero = false;
          break;
        }
      }
      if (all_zero) {
        DYNCQ_DCHECK(!it->in_list && it->weight == 0);
        ChildIndex& idx = parent != nullptr ? pslot.index : root_index_;
        bool erased = idx.Erase(it->value);
        DYNCQ_CHECK(erased);
        pool_.Free(it, stripe);
      }
    }
    level.clear();
  }
}

void ComponentEngine::RecomputeWeights(Item* it, const NodeMeta& nm) const {
  const std::uint64_t* counts = ItemCounts(it);
  const ChildSlot* slots = reinterpret_cast<const ChildSlot*>(
      reinterpret_cast<const char*>(it) + nm.slots_off);
  Weight c = 1;
  for (int s : nm.rep_slots) c *= counts[s];
  for (int u = 0; u < nm.num_children; ++u) c *= slots[u].sum;
  it->weight = c;
  if (nm.is_free) {
    if (c == 0) {
      it->weight_free = 0;
    } else {
      Weight ct = 1;
      for (int u : nm.free_child_slots) ct *= slots[u].sum_free;
      it->weight_free = ct;
    }
  }
}

void ComponentEngine::Dump(std::ostream& os) const {
  os << "component " << query_.ToString() << "\n";
  os << "Cstart = " << U128ToString(root_slot_.sum);
  if (!query_.head().empty()) {
    os << "  C~start = " << U128ToString(root_slot_.sum_free);
  }
  os << "\n";
  for (const Item* it = pool_.Resolve(SlotHead(root_slot_)); it != nullptr;
       it = pool_.Resolve(it->next)) {
    DumpItem(os, it, 1);
  }
}

void ComponentEngine::DumpLeafSlot(std::ostream& os, const ChildSlot& slot,
                                   int child_node, int indent) const {
  const QTreeNode& cn = tree_.node(child_node);
  const NodeMeta& cm = node_meta_[static_cast<std::size_t>(child_node)];
  const auto line = [&](Value key) {
    os << std::string(static_cast<std::size_t>(indent) * 2, ' ');
    os << "[" << query_.VarName(cn.var) << " = " << key << "]  C = 1\n";
  };
  if (cm.leaf_stride == 1) {
    slot.index.ForEach([&](Value key, std::uint64_t) { line(key); });
    return;
  }
  // Strided leaf: only fit records are results (an unfit partial record
  // mirrors an unlisted item, which DumpItem also skips).
  const int k = cm.num_tracked;
  slot.index.ForEachRecord([&](const std::uint64_t* rec) {
    if (LeafRecFit(rec + 1, k)) line(static_cast<Value>(rec[0]));
  });
}

void ComponentEngine::DumpItem(std::ostream& os, const Item* it,
                               int indent) const {
  const QTreeNode& tn = tree_.node(static_cast<int>(it->node));
  const NodeMeta& nm = node_meta_[it->node];
  os << std::string(static_cast<std::size_t>(indent) * 2, ' ');
  os << "[" << query_.VarName(tn.var) << " = " << it->value
     << "]  C = " << U128ToString(it->weight);
  if (nm.is_free) os << "  C~ = " << U128ToString(it->weight_free);
  os << "\n";
  const ChildSlot* slots = reinterpret_cast<const ChildSlot*>(
      reinterpret_cast<const char*>(it) + nm.slots_off);
  for (int u = 0; u < nm.num_children; ++u) {
    const int child_node = tn.children[static_cast<std::size_t>(u)];
    const NodeMeta& cm = node_meta_[static_cast<std::size_t>(child_node)];
    if (cm.unit_leaf) {
      DumpLeafSlot(os, slots[u], child_node, indent + 1);
      continue;
    }
    for (const Item* c = pool_.Resolve(SlotHead(slots[u])); c != nullptr;
         c = pool_.Resolve(c->next)) {
      DumpItem(os, c, indent + 1);
    }
  }
}

void ComponentEngine::CheckLeafSlot(const ChildSlot& slot,
                                    const NodeMeta& lm) const {
  if (lm.leaf_stride == 1) {
    // Presence entries: weight and count are identically 1, so the sums
    // are plain cardinalities and no fit list exists.
    DYNCQ_CHECK_MSG(slot.head == 0 && slot.tail == 0,
                    "unit-leaf slot must not keep a fit list");
    std::size_t entries = 0;
    slot.index.ForEach([&](Value key, std::uint64_t payload) {
      DYNCQ_CHECK_MSG(key != 0, "unit-leaf entry with sentinel key");
      DYNCQ_CHECK_MSG(payload == 1,
                      "unit-leaf entry payload must be the presence marker");
      ++entries;
    });
    DYNCQ_CHECK_MSG(slot.sum == Weight{entries},
                    "unit-leaf running sum diverged");
    if (lm.is_free) {
      DYNCQ_CHECK_MSG(slot.sum_free == Weight{entries},
                      "unit-leaf free running sum diverged");
    }
    return;
  }
  // Strided leaf: counts are 0/1, a record exists iff some count is
  // positive, is fit iff all are, and the fit records form the intrusive
  // key-linked list the enumerator walks.
  const int k = lm.num_tracked;
  std::size_t fit = 0;
  slot.index.ForEachRecord([&](const std::uint64_t* rec) {
    DYNCQ_CHECK_MSG(rec[0] != 0, "strided-leaf record with sentinel key");
    bool any = false;
    for (int s = 0; s < k; ++s) {
      DYNCQ_CHECK_MSG(rec[1 + s] <= 1, "strided-leaf count exceeds 1");
      any = any || rec[1 + s] != 0;
    }
    DYNCQ_CHECK_MSG(any, "strided-leaf record with all-zero counts");
    if (LeafRecFit(rec + 1, k)) {
      ++fit;
    } else {
      DYNCQ_CHECK_MSG(rec[1 + k] == 0 && rec[2 + k] == 0,
                      "unfit strided-leaf record carries fit links");
    }
  });
  DYNCQ_CHECK_MSG(slot.sum == Weight{fit},
                  "strided-leaf running sum diverged");
  if (lm.is_free) {
    DYNCQ_CHECK_MSG(slot.sum_free == Weight{fit},
                    "strided-leaf free running sum diverged");
  }
  std::size_t walked = 0;
  Value prev = 0;
  for (Value v = slot.head; v != 0;) {
    const std::uint64_t* rec = slot.index.FindRecord(v);
    DYNCQ_CHECK_MSG(rec != nullptr, "strided-leaf fit link to missing key");
    DYNCQ_CHECK_MSG(LeafRecFit(rec + 1, k),
                    "unfit record on the strided-leaf fit list");
    DYNCQ_CHECK_MSG(rec[1 + k] == prev,
                    "strided-leaf fit list prev link diverged");
    prev = v;
    v = rec[2 + k];
    ++walked;
    DYNCQ_CHECK_MSG(walked <= fit, "strided-leaf fit list cycles");
  }
  DYNCQ_CHECK_MSG(walked == fit,
                  "strided-leaf fit list misses fit records");
  DYNCQ_CHECK_MSG(slot.tail == prev,
                  "strided-leaf fit list tail diverged");
}

std::size_t ComponentEngine::CheckItemRec(const Item* it) const {
  const NodeMeta& nm = node_meta_[it->node];
  const QTreeNode& tn = tree_.node(static_cast<int>(it->node));

  // Existence invariant (§6.2): an item exists iff some tracked count is
  // positive.
  const std::uint64_t* counts = ItemCounts(it);
  const ChildSlot* slots = reinterpret_cast<const ChildSlot*>(
      reinterpret_cast<const char*>(it) + nm.slots_off);
  bool any_count = false;
  for (int s = 0; s < nm.num_tracked; ++s) {
    if (counts[s] != 0) {
      any_count = true;
      break;
    }
  }
  DYNCQ_CHECK_MSG(any_count, "item alive with all-zero atom counts");

  std::size_t reached = 1;
  for (int u = 0; u < nm.num_children; ++u) {
    const ChildSlot& cs = slots[u];
    const int child_node = tn.children[static_cast<std::size_t>(u)];
    const NodeMeta& cm = node_meta_[static_cast<std::size_t>(child_node)];
    const bool child_free = cm.is_free;

    if (cm.unit_leaf) {
      CheckLeafSlot(cs, cm);
      continue;
    }

    // Fit list: members are exactly the fit children; sums match.
    Weight sum = 0, sum_free = 0;
    std::size_t fit_listed = 0;
    for (const Item* ch = pool_.Resolve(SlotHead(cs)); ch != nullptr;
         ch = pool_.Resolve(ch->next)) {
      DYNCQ_CHECK_MSG(ch->weight > 0, "unfit item found in a fit list");
      DYNCQ_CHECK_MSG(ch->in_list, "listed item not flagged in_list");
      sum += ch->weight;
      if (child_free) sum_free += ch->weight_free;
      ++fit_listed;
    }
    DYNCQ_CHECK_MSG(sum == cs.sum, "running sum C^i_u diverged");
    if (child_free) {
      DYNCQ_CHECK_MSG(sum_free == cs.sum_free,
                      "running sum C~^i_u diverged");
    }

    // Child index: keys/back-handles consistent; fit members coincide
    // with the list population.
    std::size_t fit_indexed = 0;
    cs.index.ForEach([&](Value key, std::uint64_t bits) {
      const Item* ch = pool_.Resolve(ItemHandle::FromBits(bits));
      DYNCQ_CHECK_MSG(ch != nullptr, "child index holds a null handle");
      DYNCQ_CHECK_MSG(ch->self == ItemHandle::FromBits(bits),
                      "child index handle != item's own name");
      DYNCQ_CHECK_MSG(ch->value == key, "child index key != item value");
      DYNCQ_CHECK_MSG(ch->parent == it->self,
                      "child item parent handle wrong");
      DYNCQ_CHECK_MSG(ch->node == static_cast<std::uint32_t>(child_node),
                      "child item indexed under the wrong q-tree node");
      DYNCQ_CHECK_MSG(ch->in_list == (ch->weight > 0),
                      "fit item missing from list (or vice versa)");
      if (ch->in_list) ++fit_indexed;
      reached += CheckItemRec(ch);
    });
    DYNCQ_CHECK_MSG(fit_indexed == fit_listed,
                    "fit list and child index disagree");
  }

  // Lemma 6.3/6.4: stored weights match a recomputation from counts and
  // (just re-verified) child sums.
  Weight c = 1;
  for (int s : nm.rep_slots) c *= counts[s];
  for (int u = 0; u < nm.num_children; ++u) c *= slots[u].sum;
  DYNCQ_CHECK_MSG(c == it->weight, "stored weight diverged");
  if (nm.is_free) {
    Weight ct = 0;
    if (c > 0) {
      ct = 1;
      for (int u : nm.free_child_slots) ct *= slots[u].sum_free;
    }
    DYNCQ_CHECK_MSG(ct == it->weight_free, "stored free weight diverged");
  }
  return reached;
}

void ComponentEngine::CheckInvariants() const {
  const bool root_free = node_meta_[0].is_free;
  Weight start = 0, start_free = 0;
  std::size_t fit_listed = 0;
  for (const Item* it = pool_.Resolve(SlotHead(root_slot_)); it != nullptr;
       it = pool_.Resolve(it->next)) {
    DYNCQ_CHECK_MSG(it->weight > 0, "unfit item found in the root list");
    start += it->weight;
    if (root_free) start_free += it->weight_free;
    ++fit_listed;
  }
  DYNCQ_CHECK_MSG(start == root_slot_.sum, "Cstart diverged");
  if (root_free) {
    DYNCQ_CHECK_MSG(start_free == root_slot_.sum_free,
                    "C~start diverged");
  }

  std::size_t reached = 0;
  std::size_t fit_indexed = 0;
  root_index_.ForEach([&](Value key, std::uint64_t bits) {
    const Item* it = pool_.Resolve(ItemHandle::FromBits(bits));
    DYNCQ_CHECK_MSG(it != nullptr, "root index holds a null handle");
    DYNCQ_CHECK_MSG(it->self == ItemHandle::FromBits(bits),
                    "root index handle != item's own name");
    DYNCQ_CHECK_MSG(it->value == key, "root index key != item value");
    DYNCQ_CHECK_MSG(!it->parent, "root item has a parent");
    DYNCQ_CHECK_MSG(it->node == 0, "root index holds a non-root item");
    DYNCQ_CHECK_MSG(it->in_list == (it->weight > 0),
                    "fit root item missing from list (or vice versa)");
    if (it->in_list) ++fit_indexed;
    reached += CheckItemRec(it);
  });
  DYNCQ_CHECK_MSG(fit_indexed == fit_listed,
                  "root list and root index disagree");
  DYNCQ_CHECK_MSG(reached == pool_.live_items(),
                  "child indexes reach a different item count than the "
                  "pool tracks");
}

}  // namespace dyncq::core
