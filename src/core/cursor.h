// Constant-delay enumeration (paper §6.3, Algorithm 1) as Cursors, plus
// the product cursor for non-connected queries and root-range support
// for partitioned (parallel) enumeration.
#ifndef DYNCQ_CORE_CURSOR_H_
#define DYNCQ_CORE_CURSOR_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/component_engine.h"
#include "core/engine_iface.h"

namespace dyncq::core {

/// Algorithm 1 over one connected component with free variables: walks
/// the free-prefix subtree in document order; O(k) work per tuple.
///
/// A document position holds either the current item (regular nodes,
/// advanced along the parent's fit list; stored as ItemHandle bits so the
/// pool may relocate block directories underneath) or the current
/// presence entry in the parent's child index (unit-leaf nodes, advanced
/// by entry cursor — every present entry is fit). Entries are stable
/// between updates, and the revision guard turns use across updates into
/// kInvalidated.
///
/// Root positions are independent per root item (§6.3), so a cursor may
/// be restricted to a contiguous range [root_begin, root_end) of the root
/// fit list; null/null means the whole list. Partitioned cursors over
/// disjoint ranges jointly enumerate exactly the component result.
class ComponentCursor final : public Cursor {
 public:
  ComponentCursor(const ComponentEngine* ce, RevisionGuard guard,
                  ItemHandle root_begin = ItemHandle(),
                  ItemHandle root_end = ItemHandle());

  /// Pinned-snapshot variant: enumerates exactly the fit list anchored at
  /// `fixed_root` (which may be null — an empty pinned result — and is
  /// never re-read from the live root slot). The guard should be the
  /// never-invalidating default for snapshot use.
  struct FixedRootTag {};
  ComponentCursor(FixedRootTag, const ComponentEngine* ce,
                  RevisionGuard guard, ItemHandle fixed_root);

  CursorStatus Next(Tuple* out) override;
  CursorStatus Reset() override;

 private:
  const ChildSlot& SlotOf(std::size_t pos) const;
  std::uint64_t FirstOf(std::size_t pos) const;
  std::uint64_t NextOf(std::size_t pos) const;
  void Emit(Tuple* out) const;

  const ComponentEngine* ce_;
  RevisionGuard guard_;
  std::uint64_t root_begin_;  // handle bits; 0 = live head (unless fixed)
  std::uint64_t root_end_;    // handle bits, exclusive; 0 = to the end
  // Pinned snapshots: root_begin_ is authoritative even when null — the
  // live root slot is never consulted (it may have moved on).
  bool fixed_root_ = false;
  // Per document position: regular nodes hold the current item's
  // ItemHandle bits; inlined-leaf nodes hold the current index entry /
  // record pointer verbatim.
  std::vector<std::uint64_t> cur_;
  bool started_ = false;
  bool done_ = false;
};

/// Emits the empty tuple once iff `nonempty` (Boolean components act as
/// gates inside product enumerations).
class BooleanGateCursor final : public Cursor {
 public:
  BooleanGateCursor(bool nonempty, RevisionGuard guard)
      : nonempty_(nonempty), guard_(guard) {}

  CursorStatus Next(Tuple* out) override;
  CursorStatus Reset() override {
    if (!guard_.valid()) return CursorStatus::kInvalidated;
    emitted_ = false;
    return CursorStatus::kOk;
  }

 private:
  bool nonempty_;
  RevisionGuard guard_;
  bool emitted_ = false;
};

/// Cross product of component enumerations (paper §6: nested loop through
/// the component enumerate routines). `head_map[g]` gives, for global
/// head position g, the component index and its head position there.
/// Invalidation of any sub-cursor propagates.
class ProductCursor final : public Cursor {
 public:
  ProductCursor(std::vector<std::unique_ptr<Cursor>> subs,
                std::vector<std::pair<int, int>> head_map);

  CursorStatus Next(Tuple* out) override;
  CursorStatus Reset() override;

 private:
  void Emit(Tuple* out) const;

  std::vector<std::unique_ptr<Cursor>> subs_;
  std::vector<std::pair<int, int>> head_map_;
  std::vector<Tuple> current_;
  bool started_ = false;
  bool done_ = false;
};

}  // namespace dyncq::core

#endif  // DYNCQ_CORE_CURSOR_H_
