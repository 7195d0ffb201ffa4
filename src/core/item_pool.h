// Hive (colony-style) allocation for items, addressed by ItemHandle.
//
// All items of a q-tree node have the same slot size (header + atom
// counts + child slots), so the pool places them in fixed-capacity
// 64-slot blocks per (node, stripe). Each block keeps:
//  * a jump-counting skipfield: skip[i] == 0 iff slot i is occupied, and
//    an erased run of length L stores L at its first and last entry, so
//    iteration over live slots skips any erased run in O(1)
//    (`i += skip[i]`) and a block walk touches memory at bandwidth;
//  * an in-block free list of erased RUNS (doubly linked through the
//    first bytes of each run's head slot), so allocation pops a slot and
//    erase merges adjacent runs in O(1);
//  * an occupancy count: when a block empties it is returned to a
//    global reuse pool keyed by size class (and, past a small per-class
//    cap, to the OS) — under delete-heavy churn the pool's footprint
//    follows the live set instead of its high-water mark.
//
// Items are named by ItemHandle (core/handle.h): block id + slot,
// resolved with one load from a flat block directory plus shift+add —
// no division, no chain of indirections. The directory grows by
// copy-and-republish (retired copies are kept until pool destruction),
// so concurrent snapshot readers may resolve handles lock-free while
// the writer carves new blocks.
//
// Striping (sharded batch pipeline): every stripe owns its per-node
// partial-block lists, so k shard workers Alloc/Free concurrently
// without locks as long as each worker sticks to its own stripe. A
// worker freeing an item whose block belongs to ANOTHER stripe (the
// item predates the current shard routing) defers the slot recycling:
// it runs the destructors and bumps the slot generation immediately —
// both touch only item-owned state — and queues the 4-byte handle for
// EndConcurrent to fold into the owning block on the main thread.
// The block directory mutex is only taken on block acquisition and
// release (amortized over 64 allocations).
#ifndef DYNCQ_CORE_ITEM_POOL_H_
#define DYNCQ_CORE_ITEM_POOL_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/handle.h"
#include "core/item.h"
#include "util/check.h"
#include "util/lock_rank.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace dyncq::core {

class ItemPool {
 public:
  /// Slots per block (== 1 << ItemHandle::kSlotBits).
  static constexpr std::size_t kItemsPerBlock = 64;

  /// `num_children[n]` and `num_atoms[n]` give the array sizes for items
  /// of q-tree node n. Starts with one stripe (the sequential path).
  ItemPool(std::vector<std::size_t> num_children,
           std::vector<std::size_t> num_atoms);
  ~ItemPool();

  ItemPool(const ItemPool&) = delete;
  ItemPool& operator=(const ItemPool&) = delete;

  /// Ensures at least `k` stripes exist. Existing stripes keep their
  /// partial-block lists. Must not run concurrently with Alloc/Free.
  void EnsureStripes(std::size_t k);

  std::size_t num_stripes() const { return stripes_.size(); }

  /// Allocates a zero-initialized item for node `n` from `stripe`, with
  /// `self` stamped. Thread-safe across DISTINCT stripes only.
  Item* Alloc(std::uint32_t n, std::size_t stripe = 0);

  /// Frees `it` (named by its `self` handle). Runs the child-slot
  /// destructors and bumps the slot generation, making every outstanding
  /// handle to it stale. Thread-safe across DISTINCT stripes only; a
  /// free whose block belongs to another stripe is folded in directly
  /// outside concurrent mode and deferred to EndConcurrent inside it.
  void Free(Item* it, std::size_t stripe = 0);

  // ---- sharded-batch concurrency mode --------------------------------

  /// Enters concurrent mode: until EndConcurrent, cross-stripe frees
  /// defer their block bookkeeping (see class comment). Called by the
  /// writer before shard workers start.
  void BeginConcurrent() {
    concurrent_.store(true, std::memory_order_relaxed);
  }

  /// Leaves concurrent mode and folds every deferred free into its
  /// owning block. Called by the writer after shard workers are joined.
  void EndConcurrent();

  // ---- resolution ----------------------------------------------------

  /// Resolves a handle to its item: one directory load + shift/add.
  /// Null handle -> nullptr. Checked builds verify the slot generation
  /// and fail a typed DYNCQ_CHECK on a stale handle.
  const Item* Resolve(ItemHandle h) const {
    if (!h) return nullptr;
    const BlockRef* dir = dir_.load(std::memory_order_acquire);
    const BlockRef& r = dir[h.block()];
    const char* p = r.items + std::size_t{h.slot()} * r.pitch;
#if DYNCQ_CHECKED_HANDLES
    DYNCQ_CHECK_MSG(HdrOf(r)->gens[h.slot()] == h.gen(),
                    "stale ItemHandle dereference (slot generation "
                    "changed: the item was freed or retired)");
#endif
    return reinterpret_cast<const Item*>(p);
  }
  Item* Resolve(ItemHandle h) {
    return const_cast<Item*>(
        static_cast<const ItemPool*>(this)->Resolve(h));
  }

  /// Handle-bits convenience (ChildSlot head/tail and child-index
  /// payload words store bits()).
  const Item* ResolveBits(std::uint64_t bits) const {
    return Resolve(ItemHandle::FromBits(bits));
  }
  Item* ResolveBits(std::uint64_t bits) {
    return Resolve(ItemHandle::FromBits(bits));
  }

  /// Current generation of the slot named by `idx` (ItemHandle::idx()).
  /// Maintained in every build; test/telemetry hook.
  std::uint16_t GenerationOf(std::uint32_t idx) const;

  /// Explicit generation-checked resolve, available in EVERY build (the
  /// checked-build Resolve does this implicitly): fails a typed
  /// DYNCQ_CHECK iff `gen` is not `idx`'s current generation. Lets
  /// release-mode tests assert stale-handle detection.
  Item* ResolveCheckedAt(std::uint32_t idx, std::uint16_t gen);

  /// Total live items across all stripes. Only meaningful while no
  /// concurrent Alloc/Free runs (tests and bookkeeping call it between
  /// batches). Per-stripe counts are signed deltas — an item may be
  /// freed through a different stripe than it was allocated from — so
  /// only the sum is a count.
  std::size_t live_items() const {
    std::int64_t n = 0;
    for (const Stripe& s : stripes_) n += s.live;
    return static_cast<std::size_t>(n);
  }

  // ---- epoch-pinned snapshot support (see docs/ARCHITECTURE.md) ----
  //
  // When a pinned snapshot version is forked off, the engine detaches
  // the version's whole item set from the live structure: the slots
  // stay readable (pinned cursors keep resolving them) but no longer
  // count as live. When the version dies, its items are retired —
  // child-slot destructors run and slot generations bump (a pinned-epoch
  // handle used after retire is a loud stale-handle failure in checked
  // builds) — but the slots rejoin their blocks only once the writer
  // reclaims past the version's epoch, so reclamation never races a
  // reader that is still tearing its cursor down.

  /// Removes `n` items from the live count without freeing them (writer
  /// thread; the slots remain reachable only through the snapshot).
  void Detach(std::size_t n) {
    stripes_[0].live -= static_cast<std::int64_t>(n);
  }

  /// Re-adds `n` detached items to the live count (fork rollback).
  void Undetach(std::size_t n) {
    stripes_[0].live += static_cast<std::int64_t>(n);
  }

  /// Fork-rollback repair: resets the live count to exactly `n` (all on
  /// stripe 0). A partially failed rebuild may strand allocated slots
  /// that nothing will free; their blocks' memory stays owned by the
  /// pool, and this restores the count the re-attached structure
  /// implies.
  void SetLiveItemsForRollback(std::size_t n) {
    for (Stripe& s : stripes_) s.live = 0;
    stripes_[0].live = static_cast<std::int64_t>(n);
  }

  /// Retires already-detached items at `epoch`: runs the child-slot
  /// destructors (releasing grown index tables), bumps the slot
  /// generations, and queues the handles for reclamation. Safe to call
  /// from a reader thread concurrently with the single writer's
  /// Alloc/Free — retire touches only the retired items' own slots.
  void Retire(std::uint64_t epoch, const std::vector<ItemHandle>& items);

  /// Returns every slot retired at an epoch <= `watermark` to its
  /// block's free list (retiring emptied blocks to the reuse pool).
  /// Writer thread only. Live counts are untouched — Detach already
  /// removed these items.
  void ReclaimThrough(std::uint64_t watermark);

  /// Items currently sitting in retire lists (test/telemetry hook).
  std::size_t retired_blocks() const;

  /// Cheap write-path gate: true iff some retired items await
  /// reclamation.
  bool has_retired() const {
    return has_retired_.load(std::memory_order_relaxed);
  }

  // ---- hive telemetry ------------------------------------------------

  struct Stats {
    std::size_t active_blocks = 0;    ///< blocks assigned to a (node, stripe)
    std::size_t reusable_blocks = 0;  ///< emptied, parked in the reuse pool
    std::size_t released_blocks = 0;  ///< emptied, slab returned to the OS
    std::size_t slab_bytes = 0;       ///< bytes owned (active + reusable)
    std::size_t occupied_slots = 0;   ///< allocated (incl. detached) slots
  };
  Stats GetStats() const;

  /// Invokes fn(Item*) for every allocated slot, walking each block's
  /// skipfield (erased runs are skipped in O(1) per run). Includes
  /// detached/retired-unreclaimed slots. Test hook; must not run
  /// concurrently with Alloc/Free.
  template <typename Fn>
  void ForEachAllocated(Fn&& fn) const {
    const BlockRef* dir = dir_.load(std::memory_order_acquire);
    for (std::uint32_t bid = 1; bid < next_bid_unlocked(); ++bid) {
      const BlockRef& r = dir[bid];
      if (r.items == nullptr) continue;
      const BlockHdr* h = HdrOf(r);
      if (h->node == kNoNode || h->occupied == 0) continue;
      std::size_t i = 0;
      while (i < kItemsPerBlock) {
        const std::uint8_t s = h->skip[i];
        if (s != 0) {
          i += s;
          continue;
        }
        fn(const_cast<Item*>(
            reinterpret_cast<const Item*>(r.items + i * r.pitch)));
        ++i;
      }
    }
  }

 private:
  /// Directory entry: everything Resolve needs, 16 bytes. `items` is
  /// nullptr while the block id sits in free_ids_ (slab OS-released).
  struct BlockRef {
    char* items = nullptr;        ///< first slot (slab + kHdrBytes)
    std::uint32_t pitch = 0;      ///< slot size of the resident node
    std::uint32_t size_class = 0; ///< log2 of the slab's payload bytes
  };

  /// Sentinel node id for blocks parked in the reuse pool.
  static constexpr std::uint32_t kNoNode = 0xffffffffu;

  /// Block header, resident at the slab start (in front of the slots).
  struct BlockHdr {
    std::uint32_t node = kNoNode;     ///< resident node (kNoNode: reusable)
    std::uint32_t stripe = 0;         ///< partial-list home
    std::uint32_t id = 0;
    std::uint32_t occupied = 0;
    std::int32_t free_run_head = -1;  ///< first erased-run start slot; -1 none
    std::uint32_t next_partial = 0;   ///< (node, stripe) partial-list links
    std::uint32_t prev_partial = 0;
    std::uint8_t in_partial = 0;
    /// Jump-counting skipfield (+1 zero sentinel so erase at the last
    /// slot reads a valid right neighbor).
    std::uint8_t skip[kItemsPerBlock + 1] = {};
    /// Per-slot generation, bumped on Free and on Retire. Maintained in
    /// every build; carried in handles under DYNCQ_CHECKED_HANDLES.
    std::uint16_t gens[kItemsPerBlock] = {};
  };

  /// In-slot node of the per-block free list of erased runs, living in
  /// the first bytes of each run's head slot. Fields are slot indices
  /// (-1 = none).
  struct FreeRun {
    std::int32_t next;
    std::int32_t prev;
  };

  /// Bytes reserved for the header in front of a slab's slots; keeps
  /// the slots Item-aligned.
  static constexpr std::size_t kHdrBytes =
      AlignUp(sizeof(BlockHdr), alignof(Item));

  /// Emptied blocks parked per size class before OS release.
  static constexpr std::size_t kMaxReusePerClass = 8;

  struct Stripe {
    /// Per-node head block id of the doubly linked list of blocks with
    /// free slots (0 = none).
    std::vector<std::uint32_t> partial_head;
    /// Concurrent-mode deferred cross-stripe frees (handle indices;
    /// destructors and generation bumps already done).
    std::vector<std::uint32_t> deferred;
    std::int64_t live = 0;  ///< alloc/free delta (may be < 0)
  };

  /// One snapshot version's worth of retired slots (handle indices).
  struct RetireList {
    std::uint64_t epoch = 0;
    std::vector<std::uint32_t> idxs;
  };

  static BlockHdr* HdrOf(const BlockRef& r) {
    return reinterpret_cast<BlockHdr*>(r.items - kHdrBytes);
  }
  const BlockRef& RefOf(std::uint32_t bid) const {
    return dir_.load(std::memory_order_acquire)[bid];
  }
  Item* RawItem(std::uint32_t idx) const {
    const BlockRef& r = RefOf(idx >> ItemHandle::kSlotBits);
    return reinterpret_cast<Item*>(
        r.items + std::size_t{idx & ItemHandle::kSlotMask} * r.pitch);
  }
  std::uint32_t next_bid_unlocked() const {
    return next_bid_.load(std::memory_order_acquire);
  }

  static FreeRun* RunAt(const BlockRef& r, std::int32_t slot) {
    return reinterpret_cast<FreeRun*>(r.items +
                                      static_cast<std::size_t>(slot) *
                                          r.pitch);
  }

  /// Destroys `it`'s child slots (their index heap tables).
  void DestroyChildSlots(Item* it);

  /// Pops one slot from `hdr`'s free-run list (which must be non-empty)
  /// and marks it occupied. Returns the slot index.
  std::uint32_t PopSlot(const BlockRef& r, BlockHdr* hdr);

  /// Marks slot `i` erased: skipfield run merge + free-run list update.
  void EraseSlot(const BlockRef& r, BlockHdr* hdr, std::uint32_t i);

  /// Folds a freed slot into its block: erase + partial-list/reclaim
  /// bookkeeping. Single-threaded with respect to the owning stripe.
  void FreeSlotInternal(std::uint32_t idx);

  void LinkPartial(Stripe& st, std::uint32_t n, std::uint32_t bid);
  void UnlinkPartial(Stripe& st, std::uint32_t n, std::uint32_t bid);

  /// Acquires a block for (n, stripe) from the reuse pool or a fresh
  /// slab; links it as the (n, stripe) partial head.
  std::uint32_t AcquireBlock(std::uint32_t n, std::size_t stripe);

  /// Returns an emptied, unlinked block to the reuse pool (or the OS
  /// past the per-class cap).
  void ReleaseBlock(std::uint32_t bid);

  /// Ensures the directory can index `bid` (copy + release-publish).
  void GrowDirectory(std::uint32_t bid) DYNCQ_REQUIRES(dir_mu_);

  std::vector<std::size_t> num_children_;
  std::vector<std::size_t> num_atoms_;
  std::vector<std::size_t> slot_size_;   // per node
  std::vector<std::uint32_t> size_class_;  // per node: log2 slab payload
  std::vector<Stripe> stripes_;
  std::atomic<bool> concurrent_{false};

  // Flat block directory. Readers resolve lock-free off the published
  // array (acquire load); every mutation — growth, block acquisition,
  // release — happens under dir_mu_. Retired directory arrays are kept
  // until destruction so a concurrent reader's snapshot of dir_ stays
  // valid forever. next_bid_ is atomic only so the test-side walkers
  // (ForEachAllocated/GetStats) read a published bound.
  std::atomic<BlockRef*> dir_{nullptr};
  std::atomic<std::uint32_t> next_bid_{1};  // block id 0 is reserved
  std::size_t dir_cap_ DYNCQ_GUARDED_BY(dir_mu_) = 0;
  std::vector<BlockRef*> old_dirs_ DYNCQ_GUARDED_BY(dir_mu_);
  std::vector<std::uint32_t> free_ids_ DYNCQ_GUARDED_BY(dir_mu_);
  /// Reuse pool: emptied block ids per size class.
  std::vector<std::vector<std::uint32_t>> reuse_ DYNCQ_GUARDED_BY(dir_mu_);
  std::size_t slab_bytes_ DYNCQ_GUARDED_BY(dir_mu_) = 0;
  std::size_t released_blocks_ DYNCQ_GUARDED_BY(dir_mu_) = 0;

  // Lock hierarchy (util/lock_rank.h): retire_mu_ is taken with the
  // engine's snap_mu_ already held (version death under the snapshot
  // registry lock retires its forest here) — the rank-token edges
  // complete the registry mu_ -> snap_mu_ -> retire_mu_ -> dir_mu_
  // chain under -Wthread-safety-beta. ReclaimThrough deliberately never
  // nests retire_mu_ and dir_mu_ — it collects the ready lists under
  // retire_mu_, releases it, and folds the slots in (taking dir_mu_ for
  // block release) outside; dir_mu_ is still declared ACQUIRED_AFTER so
  // the order stays machine-checked if nesting ever reappears.
  // Alloc/Free/stripes_ stay unannotated on purpose: their
  // safety argument is stripe ownership (one thread per stripe during a
  // sharded batch), which is a TSan-checked protocol, not a lock.
  mutable util::Mutex retire_mu_
      DYNCQ_ACQUIRED_AFTER(util::lock_rank::kBelowEngineSnap)
          DYNCQ_ACQUIRED_BEFORE(util::lock_rank::kBelowPoolRetire);
  mutable util::Mutex dir_mu_
      DYNCQ_ACQUIRED_AFTER(retire_mu_, util::lock_rank::kBelowPoolRetire);
  std::vector<RetireList> retired_ DYNCQ_GUARDED_BY(retire_mu_);
  // Relaxed write-path gate, deliberately NOT guarded: the writer polls
  // it lock-free before deciding to take retire_mu_ at all (see
  // has_retired()). Readers set it under the mutex (Retire), so a
  // relaxed false negative only defers reclamation to the next write.
  std::atomic<bool> has_retired_{false};
};

/// Appends `it` to the tail of `slot`'s list (paper Figure 3 list order:
/// items appear in the order they became fit). Links are handles, hence
/// the pool parameter.
inline void ListPushBack(ItemPool& pool, ChildSlot& slot, Item* it) {
  it->prev = SlotTail(slot);
  it->next = ItemHandle();
  if (it->prev) {
    pool.Resolve(it->prev)->next = it->self;
  } else {
    slot.head = it->self.bits();
  }
  slot.tail = it->self.bits();
  it->in_list = true;
}

/// Unlinks `it` from `slot`'s list.
inline void ListRemove(ItemPool& pool, ChildSlot& slot, Item* it) {
  if (it->prev) {
    pool.Resolve(it->prev)->next = it->next;
  } else {
    slot.head = it->next.bits();
  }
  if (it->next) {
    pool.Resolve(it->next)->prev = it->prev;
  } else {
    slot.tail = it->prev.bits();
  }
  it->prev = ItemHandle();
  it->next = ItemHandle();
  it->in_list = false;
}

}  // namespace dyncq::core

#endif  // DYNCQ_CORE_ITEM_POOL_H_
