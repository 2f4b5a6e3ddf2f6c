// BlockPool invariant audit: a randomized operation stream (allocate, ref,
// commit, tier-promote, unref, evict, transfer pin/unpin) checked after
// every step against a shadow model. The audited invariants:
//   * per-tier used() equals the number of live blocks resident on the tier,
//     and never exceeds capacity;
//   * ref_count never goes negative; an unreferenced *uncached* block is
//     destroyed immediately, an unreferenced cached block is preserved until
//     evicted;
//   * failed Allocate/AddResidency calls leave the pool untouched (no
//     partial allocation), and Allocate appends to its out-vector, keeping
//     what is already there and appending nothing when it fails;
//   * each block's pins match the transfers outstanding on it, an Unpin of a
//     destroyed block's id touches nothing (not the slot's next occupant),
//     and pinned_blocks() counts the live blocks with a pin.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "common/rng.h"
#include "rtc/block_pool.h"

namespace deepserve::rtc {
namespace {

struct ShadowBlock {
  int32_t ref = 0;
  uint8_t residency = 0;
  bool cached = false;
  int pins = 0;
};

class Audit {
 public:
  Audit(BlockPool* pool, std::map<BlockId, ShadowBlock>* shadow)
      : pool_(pool), shadow_(shadow) {}

  void Check() const {
    int64_t used[3] = {0, 0, 0};
    int64_t pinned = 0;
    for (const auto& [id, sb] : *shadow_) {
      ASSERT_TRUE(pool_->Exists(id)) << "block " << id << " vanished";
      const BlockInfo& info = pool_->info(id);
      EXPECT_EQ(info.ref_count, sb.ref) << "block " << id;
      EXPECT_GE(info.ref_count, 0) << "block " << id;
      EXPECT_EQ(info.residency, sb.residency) << "block " << id;
      EXPECT_EQ(info.cached(), sb.cached) << "block " << id;
      EXPECT_EQ(info.pins, sb.pins) << "block " << id;
      pinned += sb.pins > 0 ? 1 : 0;
      for (Tier tier : {Tier::kNpu, Tier::kDram, Tier::kSsd}) {
        if (info.resident(tier)) {
          ++used[static_cast<size_t>(tier)];
        }
      }
      // The preservation rule: a block with no references exists only if it
      // was committed to the cache index.
      if (sb.ref == 0) {
        EXPECT_TRUE(sb.cached) << "unreferenced private block " << id << " survived";
      }
    }
    EXPECT_EQ(pool_->total_blocks(), shadow_->size());
    EXPECT_EQ(pool_->pinned_blocks(), pinned);
    for (Tier tier : {Tier::kNpu, Tier::kDram, Tier::kSsd}) {
      EXPECT_EQ(pool_->used(tier), used[static_cast<size_t>(tier)])
          << "tier " << TierToString(tier) << " accounting drifted";
      EXPECT_LE(pool_->used(tier), pool_->capacity(tier));
      EXPECT_EQ(pool_->free_blocks(tier), pool_->capacity(tier) - pool_->used(tier));
    }
  }

 private:
  BlockPool* pool_;
  std::map<BlockId, ShadowBlock>* shadow_;
};

BlockId PickLive(Rng& rng, const std::map<BlockId, ShadowBlock>& shadow) {
  if (shadow.empty()) {
    return kInvalidBlock;
  }
  auto it = shadow.begin();
  std::advance(it, rng.UniformInt(0, static_cast<int64_t>(shadow.size()) - 1));
  return it->first;
}

TEST(BlockPoolAuditTest, RandomOpStreamPreservesInvariants) {
  for (uint64_t seed : {2ull, 29ull, 400ull}) {
    BlockPoolConfig config;
    config.npu_capacity = 24;
    config.dram_capacity = 32;
    BlockPool pool(config);
    std::map<BlockId, ShadowBlock> shadow;
    Audit audit(&pool, &shadow);
    Rng rng(seed);
    BlockKey next_key = 1;
    // One id per outstanding transfer pin; an id outlives its block when the
    // block is destroyed mid-transfer.
    std::vector<BlockId> transfers;
    int64_t stale_unpins = 0;

    for (int step = 0; step < 2000; ++step) {
      switch (rng.UniformInt(0, 8)) {
        case 0: {  // append 1..4 private blocks on a random tier to a table
          Tier tier = static_cast<Tier>(rng.UniformInt(0, 2));
          int64_t n = rng.UniformInt(1, 4);
          int64_t used_before = pool.used(tier);
          // The table already holds entries (a sequence's earlier blocks).
          std::vector<BlockId> table(static_cast<size_t>(rng.UniformInt(0, 3)), kInvalidBlock);
          const std::vector<BlockId> held = table;
          Status status = pool.Allocate(n, tier, &table);
          ASSERT_GE(table.size(), held.size());
          EXPECT_TRUE(std::equal(held.begin(), held.end(), table.begin()))
              << "Allocate rewrote entries already in the table";
          if (status.ok()) {
            ASSERT_EQ(table.size(), held.size() + static_cast<size_t>(n));
            for (size_t i = held.size(); i < table.size(); ++i) {
              EXPECT_EQ(shadow.count(table[i]), 0u) << "Allocate handed out a live id";
              shadow[table[i]] = ShadowBlock{1, TierBit(tier), false, 0};
            }
          } else {
            EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
            EXPECT_EQ(table.size(), held.size()) << "failed Allocate appended blocks";
            EXPECT_GT(pool.used(tier) + n, pool.capacity(tier));
            EXPECT_EQ(pool.used(tier), used_before) << "failed Allocate leaked blocks";
          }
          break;
        }
        case 1: {  // ref
          BlockId id = PickLive(rng, shadow);
          if (id != kInvalidBlock) {
            pool.Ref(id);
            ++shadow[id].ref;
          }
          break;
        }
        case 2: {  // unref: uncached blocks die at zero, cached are preserved
          BlockId id = PickLive(rng, shadow);
          if (id != kInvalidBlock && shadow[id].ref > 0) {
            pool.Unref(id);
            ShadowBlock& sb = shadow[id];
            if (--sb.ref == 0 && !sb.cached) {
              shadow.erase(id);
              EXPECT_FALSE(pool.Exists(id));
            }
          }
          break;
        }
        case 3: {  // commit: private -> cached content block
          BlockId id = PickLive(rng, shadow);
          if (id != kInvalidBlock && !shadow[id].cached) {
            pool.Commit(id, next_key, nullptr);
            shadow[id].cached = true;
            ++next_key;
          }
          break;
        }
        case 4: {  // tier-promote / add residency copy
          BlockId id = PickLive(rng, shadow);
          if (id == kInvalidBlock) {
            break;
          }
          Tier tier = static_cast<Tier>(rng.UniformInt(0, 2));
          int64_t used_before = pool.used(tier);
          Status status = pool.AddResidency(id, tier);
          if (status.ok()) {
            shadow[id].residency |= TierBit(tier);
          } else {
            EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
            EXPECT_EQ(pool.used(tier), used_before);
            EXPECT_FALSE((shadow[id].residency & TierBit(tier)) != 0)
                << "AddResidency failed on an already-resident block";
          }
          break;
        }
        case 5: {  // drop one residency copy (demote)
          BlockId id = PickLive(rng, shadow);
          if (id == kInvalidBlock) {
            break;
          }
          Tier tier = static_cast<Tier>(rng.UniformInt(0, 2));
          pool.DropResidency(id, tier);
          shadow[id].residency &= static_cast<uint8_t>(~TierBit(tier));
          break;
        }
        case 6: {  // evict: destroy an unreferenced cached block (pins die with it)
          BlockId victim = kInvalidBlock;
          for (const auto& [id, sb] : shadow) {
            if (sb.ref == 0) {
              victim = id;
              break;
            }
          }
          if (victim != kInvalidBlock) {
            pool.Destroy(victim);
            shadow.erase(victim);
            EXPECT_FALSE(pool.Exists(victim));
          }
          break;
        }
        case 7: {  // a transfer starts: pin a live block
          BlockId id = PickLive(rng, shadow);
          if (id != kInvalidBlock) {
            pool.Pin(id);
            ++shadow[id].pins;
            transfers.push_back(id);
          }
          break;
        }
        case 8: {  // a transfer lands: unpin its block, which may be gone
          if (transfers.empty()) {
            break;
          }
          size_t i = static_cast<size_t>(
              rng.UniformInt(0, static_cast<int64_t>(transfers.size()) - 1));
          BlockId id = transfers[i];
          transfers.erase(transfers.begin() + static_cast<ptrdiff_t>(i));
          pool.Unpin(id);
          auto it = shadow.find(id);
          if (it != shadow.end()) {
            --it->second.pins;
          } else {
            ++stale_unpins;  // Check() sees whether the slot's new occupant kept its pins
          }
          break;
        }
      }
      audit.Check();
      if (::testing::Test::HasFatalFailure()) {
        FAIL() << "seed " << seed << " step " << step;
      }
    }
    // The stream must have actually exercised the interesting paths.
    EXPECT_GT(shadow.size(), 0u);
    EXPECT_GT(stale_unpins, 0) << "seed " << seed;
  }
}

TEST(BlockPoolAuditTest, ExhaustedTierRejectsWithoutPartialAllocation) {
  BlockPoolConfig config;
  config.npu_capacity = 4;
  config.dram_capacity = 4;
  BlockPool pool(config);
  std::vector<BlockId> table;
  ASSERT_TRUE(pool.Allocate(3, Tier::kNpu, &table).ok());
  Status refused = pool.Allocate(2, Tier::kNpu, &table);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(pool.used(Tier::kNpu), 3) << "failed allocation changed usage";
  EXPECT_EQ(pool.total_blocks(), 3u);
  EXPECT_EQ(table.size(), 3u) << "failed allocation appended blocks";
  // SSD is unbounded backing store.
  EXPECT_TRUE(pool.Allocate(1000, Tier::kSsd, &table).ok());
  EXPECT_EQ(table.size(), 1003u);
}

TEST(BlockPoolAuditTest, PromoteThenDemoteKeepsOneCopyAccounted) {
  BlockPool pool(BlockPoolConfig{});
  std::vector<BlockId> table;
  ASSERT_TRUE(pool.Allocate(1, Tier::kNpu, &table).ok());
  BlockId id = table[0];
  ASSERT_TRUE(pool.AddResidency(id, Tier::kDram).ok());
  EXPECT_TRUE(pool.info(id).resident(Tier::kNpu));
  EXPECT_TRUE(pool.info(id).resident(Tier::kDram));
  EXPECT_EQ(pool.used(Tier::kNpu), 1);
  EXPECT_EQ(pool.used(Tier::kDram), 1);
  // Re-adding an existing copy is a no-op, not a double count.
  ASSERT_TRUE(pool.AddResidency(id, Tier::kDram).ok());
  EXPECT_EQ(pool.used(Tier::kDram), 1);
  pool.DropResidency(id, Tier::kNpu);
  EXPECT_FALSE(pool.info(id).resident(Tier::kNpu));
  EXPECT_EQ(pool.used(Tier::kNpu), 0);
  // Dropping a non-resident tier is a no-op.
  pool.DropResidency(id, Tier::kNpu);
  EXPECT_EQ(pool.used(Tier::kNpu), 0);
  // Unref of the (uncached) block releases its remaining DRAM copy.
  pool.Unref(id);
  EXPECT_FALSE(pool.Exists(id));
  EXPECT_EQ(pool.used(Tier::kDram), 0);
}

}  // namespace
}  // namespace deepserve::rtc
