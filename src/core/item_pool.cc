#include "core/item_pool.h"

#include <bit>
#include <cstring>
#include <new>

#include "util/check.h"
#include "util/failpoint.h"

namespace dyncq::core {

ItemPool::ItemPool(std::vector<std::size_t> num_children,
                   std::vector<std::size_t> num_atoms)
    : num_children_(std::move(num_children)),
      num_atoms_(std::move(num_atoms)) {
  DYNCQ_CHECK(num_children_.size() == num_atoms_.size());
  slot_size_.resize(num_children_.size());
  size_class_.resize(num_children_.size());
  std::uint32_t max_cls = 0;
  for (std::size_t n = 0; n < num_children_.size(); ++n) {
    slot_size_[n] = AlignUp(ItemSlotsOffset(num_atoms_[n]) +
                                num_children_[n] * sizeof(ChildSlot),
                            alignof(Item));
    // Slab payloads are pow2-rounded so emptied blocks are reusable
    // across nodes of the same class.
    size_class_[n] = static_cast<std::uint32_t>(
        std::bit_width(kItemsPerBlock * slot_size_[n] - 1));
    if (size_class_[n] > max_cls) max_cls = size_class_[n];
  }
  {
    util::MutexLock lock(&dir_mu_);
    reuse_.resize(max_cls + 1);
    GrowDirectory(0);
  }
  EnsureStripes(1);
}

ItemPool::~ItemPool() {
  util::MutexLock lock(&dir_mu_);
  BlockRef* dir = dir_.load(std::memory_order_relaxed);
  const std::uint32_t end = next_bid_.load(std::memory_order_relaxed);
  for (std::uint32_t bid = 1; bid < end; ++bid) {
    if (dir[bid].items != nullptr) {
      ::operator delete(dir[bid].items - kHdrBytes);
    }
  }
  ::operator delete(dir);
  for (BlockRef* old : old_dirs_) ::operator delete(old);
}

void ItemPool::EnsureStripes(std::size_t k) {
  if (k <= stripes_.size()) return;
  std::size_t old = stripes_.size();
  stripes_.resize(k);
  for (std::size_t s = old; s < k; ++s) {
    stripes_[s].partial_head.assign(slot_size_.size(), 0);
  }
}

void ItemPool::GrowDirectory(std::uint32_t bid) {
  if (dir_cap_ != 0 && bid < dir_cap_) return;
  std::size_t cap = dir_cap_ == 0 ? 64 : dir_cap_;
  while (cap <= bid) cap *= 2;
  DYNCQ_ALLOC_FAILPOINT();
  auto* fresh =
      static_cast<BlockRef*>(::operator new(cap * sizeof(BlockRef)));
  for (std::size_t i = 0; i < cap; ++i) new (fresh + i) BlockRef();
  BlockRef* old = dir_.load(std::memory_order_relaxed);
  if (old != nullptr) {
    std::memcpy(fresh, old, dir_cap_ * sizeof(BlockRef));
    // Retired copies stay alive until destruction: a reader that loaded
    // the old array may still be resolving through it.
    old_dirs_.push_back(old);
  }
  dir_.store(fresh, std::memory_order_release);
  dir_cap_ = cap;
}

std::uint32_t ItemPool::AcquireBlock(std::uint32_t n, std::size_t stripe) {
  util::MutexLock lock(&dir_mu_);
  const std::uint32_t cls = size_class_[n];
  std::uint32_t bid = 0;
  if (!reuse_[cls].empty()) {
    bid = reuse_[cls].back();
    reuse_[cls].pop_back();
    // Repurpose within the size class: the pitch may change, the slot
    // generations are preserved (monotonic for the slab's lifetime).
    dir_.load(std::memory_order_relaxed)[bid].pitch =
        static_cast<std::uint32_t>(slot_size_[n]);
  } else {
    DYNCQ_ALLOC_FAILPOINT();
    const std::uint32_t want =
        free_ids_.empty() ? next_bid_.load(std::memory_order_relaxed)
                          : free_ids_.back();
    DYNCQ_CHECK_MSG(want < (1u << 26), "ItemPool block ids exhausted");
    GrowDirectory(want);
    const std::size_t payload = std::size_t{1} << cls;
    static_assert(alignof(Item) <= alignof(std::max_align_t),
                  "pool relies on default-aligned operator new");
    char* slab = static_cast<char*>(::operator new(kHdrBytes + payload));
    // Commit point: nothing before this mutated pool state beyond the
    // directory capacity (idempotent), so an injected allocation
    // failure leaves the pool intact.
    if (!free_ids_.empty()) {
      bid = free_ids_.back();
      free_ids_.pop_back();
    } else {
      bid = next_bid_.load(std::memory_order_relaxed);
      next_bid_.store(bid + 1, std::memory_order_release);
    }
    slab_bytes_ += kHdrBytes + payload;
    BlockHdr* hdr = new (slab) BlockHdr();
    hdr->id = bid;
    BlockRef* dir = dir_.load(std::memory_order_relaxed);
    dir[bid].pitch = static_cast<std::uint32_t>(slot_size_[n]);
    dir[bid].size_class = cls;
    dir[bid].items = slab + kHdrBytes;
  }
  // (Re)initialize for (n, stripe): one all-free run covering the block.
  const BlockRef& r = RefOf(bid);
  BlockHdr* hdr = HdrOf(r);
  hdr->node = n;
  hdr->stripe = static_cast<std::uint32_t>(stripe);
  hdr->occupied = 0;
  std::memset(hdr->skip, 0, sizeof(hdr->skip));
  hdr->skip[0] = static_cast<std::uint8_t>(kItemsPerBlock);
  hdr->skip[kItemsPerBlock - 1] = static_cast<std::uint8_t>(kItemsPerBlock);
  hdr->free_run_head = 0;
  FreeRun* run = RunAt(r, 0);
  run->next = -1;
  run->prev = -1;
  hdr->in_partial = 0;
  LinkPartial(stripes_[stripe], n, bid);
  return bid;
}

void ItemPool::ReleaseBlock(std::uint32_t bid) {
  util::MutexLock lock(&dir_mu_);
  BlockRef* dir = dir_.load(std::memory_order_relaxed);
  BlockHdr* hdr = HdrOf(dir[bid]);
  DYNCQ_DCHECK(hdr->occupied == 0);
  hdr->node = kNoNode;
  const std::uint32_t cls = dir[bid].size_class;
  if (reuse_[cls].size() < kMaxReusePerClass) {
    reuse_[cls].push_back(bid);
    return;
  }
  // Past the per-class cap: the slab goes back to the OS and the id
  // becomes reusable. The directory entry is tombstoned — no live
  // handle names this block (it was empty), so nothing resolves here.
  slab_bytes_ -= kHdrBytes + (std::size_t{1} << cls);
  ++released_blocks_;
  char* slab = dir[bid].items - kHdrBytes;
  dir[bid].items = nullptr;
  dir[bid].pitch = 0;
  free_ids_.push_back(bid);
  ::operator delete(slab);
}

void ItemPool::LinkPartial(Stripe& st, std::uint32_t n, std::uint32_t bid) {
  BlockHdr* hdr = HdrOf(RefOf(bid));
  DYNCQ_DCHECK(hdr->in_partial == 0);
  hdr->next_partial = st.partial_head[n];
  hdr->prev_partial = 0;
  if (st.partial_head[n] != 0) {
    HdrOf(RefOf(st.partial_head[n]))->prev_partial = bid;
  }
  st.partial_head[n] = bid;
  hdr->in_partial = 1;
}

void ItemPool::UnlinkPartial(Stripe& st, std::uint32_t n,
                             std::uint32_t bid) {
  BlockHdr* hdr = HdrOf(RefOf(bid));
  DYNCQ_DCHECK(hdr->in_partial == 1);
  if (hdr->prev_partial != 0) {
    HdrOf(RefOf(hdr->prev_partial))->next_partial = hdr->next_partial;
  } else {
    st.partial_head[n] = hdr->next_partial;
  }
  if (hdr->next_partial != 0) {
    HdrOf(RefOf(hdr->next_partial))->prev_partial = hdr->prev_partial;
  }
  hdr->next_partial = 0;
  hdr->prev_partial = 0;
  hdr->in_partial = 0;
}

std::uint32_t ItemPool::PopSlot(const BlockRef& r, BlockHdr* hdr) {
  const std::int32_t s = hdr->free_run_head;
  DYNCQ_DCHECK(s >= 0);
  std::uint8_t* skip = hdr->skip;
  const unsigned len = skip[s];
  const std::int32_t nxt = RunAt(r, s)->next;
  if (len > 1) {
    // The run survives, shrunk by its head slot: its list node moves.
    FreeRun* moved = RunAt(r, s + 1);
    moved->next = nxt;
    moved->prev = -1;
    if (nxt >= 0) RunAt(r, nxt)->prev = s + 1;
    hdr->free_run_head = s + 1;
    skip[s + 1] = static_cast<std::uint8_t>(len - 1);
    skip[s + len - 1] = static_cast<std::uint8_t>(len - 1);
  } else {
    hdr->free_run_head = nxt;
    if (nxt >= 0) RunAt(r, nxt)->prev = -1;
  }
  skip[s] = 0;
  ++hdr->occupied;
  return static_cast<std::uint32_t>(s);
}

void ItemPool::EraseSlot(const BlockRef& r, BlockHdr* hdr,
                         std::uint32_t i) {
  std::uint8_t* skip = hdr->skip;
  DYNCQ_DCHECK(skip[i] == 0);
  // A non-zero left neighbor is necessarily the END of an erased run
  // (slot i was occupied, so the run cannot continue through it); a
  // non-zero right neighbor is necessarily a run START. Both entries
  // hold their run's length; the sentinel skip[kItemsPerBlock] == 0
  // covers i at the block edge.
  const unsigned left = (i > 0) ? skip[i - 1] : 0;
  const unsigned right = skip[i + 1];
  const auto si = static_cast<std::int32_t>(i);
  if (left != 0 && right != 0) {
    // Bridge two runs into one; the right run's list node disappears.
    FreeRun* victim = RunAt(r, si + 1);
    if (victim->prev >= 0) {
      RunAt(r, victim->prev)->next = victim->next;
    } else {
      hdr->free_run_head = victim->next;
    }
    if (victim->next >= 0) RunAt(r, victim->next)->prev = victim->prev;
    const std::uint32_t s = i - left;
    const unsigned len = left + 1 + right;
    skip[s] = static_cast<std::uint8_t>(len);
    skip[s + len - 1] = static_cast<std::uint8_t>(len);
  } else if (left != 0) {
    // Extend the left run; its start (and list node) stays put.
    const std::uint32_t s = i - left;
    const unsigned len = left + 1;
    skip[s] = static_cast<std::uint8_t>(len);
    skip[i] = static_cast<std::uint8_t>(len);
  } else if (right != 0) {
    // Extend the right run downward; its start (and node) moves to i.
    FreeRun* old = RunAt(r, si + 1);
    FreeRun* moved = RunAt(r, si);
    moved->next = old->next;
    moved->prev = old->prev;
    if (old->prev >= 0) {
      RunAt(r, old->prev)->next = si;
    } else {
      hdr->free_run_head = si;
    }
    if (old->next >= 0) RunAt(r, old->next)->prev = si;
    const unsigned len = right + 1;
    skip[i] = static_cast<std::uint8_t>(len);
    skip[i + right] = static_cast<std::uint8_t>(len);
  } else {
    // Fresh singleton run.
    skip[i] = 1;
    FreeRun* node = RunAt(r, si);
    node->next = hdr->free_run_head;
    node->prev = -1;
    if (hdr->free_run_head >= 0) RunAt(r, hdr->free_run_head)->prev = si;
    hdr->free_run_head = si;
  }
  --hdr->occupied;
}

Item* ItemPool::Alloc(std::uint32_t n, std::size_t stripe) {
  DYNCQ_DCHECK(n < slot_size_.size());
  DYNCQ_DCHECK(stripe < stripes_.size());
  Stripe& st = stripes_[stripe];
  std::uint32_t bid = st.partial_head[n];
  if (bid == 0) bid = AcquireBlock(n, stripe);
  const BlockRef& r = RefOf(bid);
  BlockHdr* hdr = HdrOf(r);
  const std::uint32_t slot = PopSlot(r, hdr);
  if (hdr->free_run_head < 0) UnlinkPartial(st, n, bid);  // block now full
  char* base = r.items + std::size_t{slot} * r.pitch;
  std::memset(base, 0, r.pitch);
  Item* it = new (base) Item();
  it->node = n;
  const std::uint32_t idx = (bid << ItemHandle::kSlotBits) | slot;
#if DYNCQ_CHECKED_HANDLES
  it->self = ItemHandle(idx, hdr->gens[slot]);
#else
  it->self = ItemHandle(idx);
#endif
  ChildSlot* slots = ItemSlots(it, num_atoms_[n]);
  for (std::size_t c = 0; c < num_children_[n]; ++c) {
    new (slots + c) ChildSlot();
  }
  ++st.live;
  return it;
}

void ItemPool::DestroyChildSlots(Item* it) {
  // Child slots own their child index's heap table; an item is only
  // freed once all children are gone, so the indexes are empty but may
  // still hold a grown table.
  const std::uint32_t n = it->node;
  ChildSlot* slots = ItemSlots(it, num_atoms_[n]);
  for (std::size_t c = 0; c < num_children_[n]; ++c) {
    slots[c].~ChildSlot();
  }
}

void ItemPool::Free(Item* it, std::size_t stripe) {
  DYNCQ_DCHECK(stripe < stripes_.size());
  const ItemHandle h = it->self;
  DYNCQ_DCHECK(static_cast<bool>(h));
  const std::uint32_t idx = h.idx();
  const std::uint32_t slot = idx & ItemHandle::kSlotMask;
  const BlockRef& r = RefOf(idx >> ItemHandle::kSlotBits);
  BlockHdr* hdr = HdrOf(r);
#if DYNCQ_CHECKED_HANDLES
  DYNCQ_CHECK_MSG(hdr->gens[slot] == h.gen(),
                  "stale ItemHandle dereference (double free: the slot "
                  "generation already moved on)");
#endif
  DestroyChildSlots(it);
  it->~Item();
  ++hdr->gens[slot];
  --stripes_[stripe].live;
  if (hdr->stripe != stripe &&
      concurrent_.load(std::memory_order_relaxed)) {
    // Cross-stripe free during a sharded batch: the destructors and the
    // generation bump above touched only item-owned state; the block
    // bookkeeping belongs to the owning stripe's thread, so defer it.
    stripes_[stripe].deferred.push_back(idx);
    return;
  }
  FreeSlotInternal(idx);
}

void ItemPool::FreeSlotInternal(std::uint32_t idx) {
  const std::uint32_t bid = idx >> ItemHandle::kSlotBits;
  const BlockRef& r = RefOf(bid);
  BlockHdr* hdr = HdrOf(r);
  const bool was_full = hdr->free_run_head < 0;
  EraseSlot(r, hdr, idx & ItemHandle::kSlotMask);
  Stripe& home = stripes_[hdr->stripe];
  const std::uint32_t n = hdr->node;
  if (was_full) {
    // This block re-enters the partial list as its new head. An emptied
    // block is only kept resident WHILE it is the head (the hot block at
    // the alloc/free boundary); being displaced ends its grace period,
    // else a FIFO drain would leave every drained block parked in the
    // list forever.
    const std::uint32_t old_head = home.partial_head[n];
    LinkPartial(home, n, bid);
    if (old_head != 0 && HdrOf(RefOf(old_head))->occupied == 0) {
      UnlinkPartial(home, n, old_head);
      ReleaseBlock(old_head);
    }
  }
  if (hdr->occupied == 0 && home.partial_head[n] != bid) {
    // Keep the partial head resident as the (node, stripe) hot block —
    // alloc/free ping-pong at the empty boundary must not thrash the
    // reuse pool — and park every other emptied block.
    UnlinkPartial(home, n, bid);
    ReleaseBlock(bid);
  }
}

void ItemPool::EndConcurrent() {
  concurrent_.store(false, std::memory_order_relaxed);
  for (Stripe& st : stripes_) {
    for (std::uint32_t idx : st.deferred) FreeSlotInternal(idx);
    st.deferred.clear();
  }
}

std::uint16_t ItemPool::GenerationOf(std::uint32_t idx) const {
  const BlockRef& r = RefOf(idx >> ItemHandle::kSlotBits);
  return HdrOf(r)->gens[idx & ItemHandle::kSlotMask];
}

Item* ItemPool::ResolveCheckedAt(std::uint32_t idx, std::uint16_t gen) {
  const BlockRef& r = RefOf(idx >> ItemHandle::kSlotBits);
  const std::uint32_t slot = idx & ItemHandle::kSlotMask;
  DYNCQ_CHECK_MSG(HdrOf(r)->gens[slot] == gen,
                  "stale ItemHandle dereference (slot generation "
                  "changed: the item was freed or retired)");
  return reinterpret_cast<Item*>(r.items + std::size_t{slot} * r.pitch);
}

void ItemPool::Retire(std::uint64_t epoch,
                      const std::vector<ItemHandle>& items) {
  if (items.empty()) return;
  // Destroy the child slots now: the version is dead, so its index heap
  // tables must be released (nothing enumerates them anymore). The slot
  // generations bump here — a pinned-epoch handle used past retire is a
  // stale-handle failure — but the slots rejoin their blocks only in
  // ReclaimThrough, on the writer thread.
  std::vector<std::uint32_t> idxs;
  idxs.reserve(items.size());
  for (ItemHandle h : items) {
    Item* it = Resolve(h);
    DestroyChildSlots(it);
    ++HdrOf(RefOf(h.block()))->gens[h.slot()];
    idxs.push_back(h.idx());
  }
  util::MutexLock lock(&retire_mu_);
  retired_.push_back(RetireList{epoch, std::move(idxs)});
  has_retired_.store(true, std::memory_order_relaxed);
}

void ItemPool::ReclaimThrough(std::uint64_t watermark) {
  // Collect under the retire mutex, fold the slots in outside it: the
  // block bookkeeping is writer-thread state that the mutex does not
  // (and must not) cover, and block release takes dir_mu_.
  std::vector<std::vector<std::uint32_t>> ready;
  {
    util::MutexLock lock(&retire_mu_);
    std::size_t kept = 0;
    for (std::size_t i = 0; i < retired_.size(); ++i) {
      RetireList& rl = retired_[i];
      if (rl.epoch > watermark) {
        if (kept != i) retired_[kept] = std::move(rl);
        ++kept;
        continue;
      }
      ready.push_back(std::move(rl.idxs));
    }
    retired_.resize(kept);
    if (kept == 0) has_retired_.store(false, std::memory_order_relaxed);
  }
  for (const std::vector<std::uint32_t>& idxs : ready) {
    for (std::uint32_t idx : idxs) FreeSlotInternal(idx);
  }
}

std::size_t ItemPool::retired_blocks() const {
  util::MutexLock lock(&retire_mu_);
  std::size_t n = 0;
  for (const RetireList& rl : retired_) n += rl.idxs.size();
  return n;
}

ItemPool::Stats ItemPool::GetStats() const {
  util::MutexLock lock(&dir_mu_);
  Stats s;
  s.slab_bytes = slab_bytes_;
  s.released_blocks = released_blocks_;
  for (const auto& cls : reuse_) s.reusable_blocks += cls.size();
  const BlockRef* dir = dir_.load(std::memory_order_relaxed);
  const std::uint32_t end = next_bid_.load(std::memory_order_relaxed);
  for (std::uint32_t bid = 1; bid < end; ++bid) {
    if (dir[bid].items == nullptr) continue;
    const BlockHdr* hdr = HdrOf(dir[bid]);
    if (hdr->node == kNoNode) continue;
    ++s.active_blocks;
    s.occupied_slots += hdr->occupied;
  }
  return s;
}

}  // namespace dyncq::core
