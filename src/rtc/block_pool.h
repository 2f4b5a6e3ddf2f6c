// KV-cache block bookkeeping for the Relational Tensor Cache.
//
// RTC manages KV data at fixed token granularity ("blocks", after vLLM's
// block table). The block record is the single home of per-block state: its
// reference count (active sequences holding it), its transfer pins (in-flight
// copies that read or fill it), its tier residency (a block may be resident
// on NPU HBM and in DRAM simultaneously), and, once the block is committed to
// the cache index, its content key and the index node holding it. The pool
// enforces per-tier capacity and is purely logical — byte-level HBM effects
// are applied by RtcExecutors.
//
// Storage is a dense slot vector indexed by the low 32 bits of the BlockId,
// with destroyed slots recycled through a free list. The high bits carry a
// per-slot generation, so a stale id (a block destroyed and its slot reused)
// never aliases the new occupant: Exists()/Find() are a bounds check plus a
// generation compare, inline, and every per-block operation on the engine's
// hot path is a direct index instead of an unordered_map lookup.
#ifndef DEEPSERVE_RTC_BLOCK_POOL_H_
#define DEEPSERVE_RTC_BLOCK_POOL_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/logging.h"
#include "common/status.h"
#include "common/types.h"
#include "rtc/radix_tree.h"

namespace deepserve::rtc {

using BlockId = int64_t;
inline constexpr BlockId kInvalidBlock = -1;

enum class Tier : uint8_t { kNpu = 0, kDram = 1, kSsd = 2 };

std::string_view TierToString(Tier tier);

inline constexpr uint8_t TierBit(Tier tier) { return static_cast<uint8_t>(1u << static_cast<uint8_t>(tier)); }

// Payload of one cache-index node: the cached blocks covering its edge span,
// plus the eviction classes RtcMaster derives from them (meaningful only
// while the node is evictable, i.e. every block is unreferenced, unpinned
// and NPU-resident).
struct BlockRun {
  std::vector<BlockId> blocks;
  bool has_dram = false;  // some block already has a DRAM copy: not swappable
  bool npu_only = false;  // some block has no lower-tier copy: not droppable

  BlockRun SplitTail(size_t offset) {
    BlockRun tail;
    tail.blocks.assign(blocks.begin() + static_cast<ptrdiff_t>(offset), blocks.end());
    blocks.resize(offset);
    return tail;
  }
};

using CacheTree = RadixTree<BlockRun>;

struct BlockInfo {
  BlockKey key = 0;  // content hash; 0 while block is private to a sequence
  // Cache-index node whose run holds the block; null while private. Recency
  // lives on the node (RadixTree::Touch), not on the block.
  CacheTree::Node* node = nullptr;
  int32_t ref_count = 0;  // sequences currently holding the block
  uint16_t pins = 0;      // in-flight transfers (populate, copy) moving the block
  uint8_t residency = 0;  // bitmask of TierBit()s

  bool resident(Tier tier) const { return (residency & TierBit(tier)) != 0; }
  bool cached() const { return key != 0; }
};
// A pool holds up to 100K+ records per cache; the pins field lives in what
// was padding, so the record must not outgrow three words.
static_assert(sizeof(BlockInfo) <= 24, "BlockInfo grew past 24 bytes");

struct BlockPoolConfig {
  int64_t npu_capacity = 4096;   // blocks
  int64_t dram_capacity = 16384; // blocks
  // SSD is modelled as unbounded (tiered storage backing store).
};

class BlockPool {
 public:
  explicit BlockPool(BlockPoolConfig config);

  // Appends `n` fresh private blocks resident on `tier`, each with ref 1, to
  // `out` (entries already there are kept). Fails with RESOURCE_EXHAUSTED
  // without allocating or appending anything if the tier lacks capacity
  // (caller evicts and retries).
  [[nodiscard]] Status Allocate(int64_t n, Tier tier, std::vector<BlockId>* out);

  void Ref(BlockId id) { ++mutable_info(id).ref_count; }
  // Drops one reference. Blocks are never destroyed here — an unreferenced
  // cached block stays preserved until evicted; an unreferenced private
  // (uncached) block is destroyed and its residency released.
  void Unref(BlockId id) {
    BlockInfo& info = mutable_info(id);
    DS_CHECK_GT(info.ref_count, 0) << "unref of unreferenced block " << id;
    if (--info.ref_count == 0 && !info.cached()) {
      Destroy(id);
    }
  }

  // Transfer pins: a pinned block is never an eviction candidate. Unpin
  // skips an id that no longer resolves, so a block destroyed mid-transfer
  // takes its pins with it instead of leaking them to its slot's next
  // occupant.
  void Pin(BlockId id) {
    BlockInfo& info = mutable_info(id);
    DS_CHECK_LT(info.pins, UINT16_MAX) << "pin count overflow on block " << id;
    if (info.pins++ == 0) {
      ++pinned_blocks_;
    }
  }
  void Unpin(BlockId id) {
    if (!Exists(id)) {
      return;
    }
    BlockInfo& info = slots_[IndexOf(id)].info;
    DS_CHECK_GT(info.pins, 0) << "unpin of unpinned block " << id;
    if (--info.pins == 0) {
      --pinned_blocks_;
    }
  }

  // Adds/removes a tier copy. AddResidency fails when the tier is full.
  [[nodiscard]] Status AddResidency(BlockId id, Tier tier);
  void DropResidency(BlockId id, Tier tier);

  // Destroys an unreferenced block outright (eviction path). The slot is
  // recycled under a new generation, so the old id stops resolving.
  void Destroy(BlockId id);

  // Commits a private block to the cache index: its content key and the node
  // whose run holds it.
  void Commit(BlockId id, BlockKey key, CacheTree::Node* node) {
    BlockInfo& info = mutable_info(id);
    info.key = key;
    info.node = node;
  }
  // Moves a cached block to another index node (a run split).
  void SetNode(BlockId id, CacheTree::Node* node) { mutable_info(id).node = node; }

  bool Exists(BlockId id) const {
    size_t idx = IndexOf(id);
    return id != kInvalidBlock && idx < slots_.size() && slots_[idx].live &&
           slots_[idx].gen == GenOf(id);
  }
  // The record of a live block; the id must resolve.
  const BlockInfo& info(BlockId id) const {
    DS_CHECK(Exists(id)) << "unknown block " << id;
    return slots_[IndexOf(id)].info;
  }
  // The record of `id`, or null once the block is destroyed (or never was).
  const BlockInfo* Find(BlockId id) const {
    return Exists(id) ? &slots_[IndexOf(id)].info : nullptr;
  }

  int64_t used(Tier tier) const { return used_[static_cast<size_t>(tier)]; }
  int64_t capacity(Tier tier) const;
  int64_t free_blocks(Tier tier) const { return capacity(tier) - used(tier); }
  size_t total_blocks() const { return live_count_; }
  // Live blocks with at least one transfer pin.
  int64_t pinned_blocks() const { return pinned_blocks_; }

 private:
  struct Slot {
    BlockInfo info;
    uint32_t gen = 1;
    bool live = false;
  };

  static size_t IndexOf(BlockId id) {
    return static_cast<size_t>(static_cast<uint64_t>(id) & 0xffffffffull);
  }
  static uint32_t GenOf(BlockId id) { return static_cast<uint32_t>(static_cast<uint64_t>(id) >> 32); }

  BlockInfo& mutable_info(BlockId id) {
    DS_CHECK(Exists(id)) << "unknown block " << id;
    return slots_[IndexOf(id)].info;
  }

  BlockPoolConfig config_;
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_slots_;  // LIFO
  size_t live_count_ = 0;
  int64_t pinned_blocks_ = 0;
  int64_t used_[3] = {0, 0, 0};
};

}  // namespace deepserve::rtc

#endif  // DEEPSERVE_RTC_BLOCK_POOL_H_
