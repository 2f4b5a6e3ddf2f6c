#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <functional>
#include <map>
#include <numeric>
#include <set>
#include <vector>

#include "common/rng.h"
#include "common/time_units.h"
#include "common/types.h"
#include "hw/npu.h"
#include "rtc/block_pool.h"
#include "rtc/radix_tree.h"
#include "rtc/rtc_executor.h"
#include "rtc/rtc_master.h"
#include "sim/simulator.h"

namespace deepserve::rtc {
namespace {

// Allocation into a fresh block table; the test fails if it is refused.
std::vector<BlockId> Alloc(RtcMaster& master, int64_t n) {
  std::vector<BlockId> out;
  EXPECT_TRUE(master.AllocBlocks(n, &out).ok());
  return out;
}
std::vector<BlockId> Alloc(BlockPool& pool, int64_t n, Tier tier) {
  std::vector<BlockId> out;
  EXPECT_TRUE(pool.Allocate(n, tier, &out).ok());
  return out;
}

std::vector<TokenId> Tokens(std::initializer_list<int> ids) {
  std::vector<TokenId> out;
  for (int id : ids) {
    out.push_back(static_cast<TokenId>(id));
  }
  return out;
}

std::vector<TokenId> Iota(int n, int start = 1000) {
  std::vector<TokenId> out(static_cast<size_t>(n));
  std::iota(out.begin(), out.end(), static_cast<TokenId>(start));
  return out;
}

// ---------------- ChainHash / TokensToBlockKeys ----------------

TEST(ChainHashTest, DeterministicAndChainSensitive) {
  auto a = Tokens({1, 2, 3, 4});
  EXPECT_EQ(ChainHash(0, a), ChainHash(0, a));
  EXPECT_NE(ChainHash(0, a), ChainHash(1, a));  // different chain prefix
  auto b = Tokens({1, 2, 3, 5});
  EXPECT_NE(ChainHash(0, a), ChainHash(0, b));
}

TEST(TokensToBlockKeysTest, DropsPartialTail) {
  auto tokens = Iota(35);
  auto keys = TokensToBlockKeys(tokens, 16);
  EXPECT_EQ(keys.size(), 2u);  // 35 tokens -> 2 full 16-token blocks
}

TEST(TokensToBlockKeysTest, PrefixKeysArePrefix) {
  auto tokens = Iota(64);
  auto full = TokensToBlockKeys(tokens, 16);
  auto half = TokensToBlockKeys(std::span(tokens).first(32), 16);
  ASSERT_EQ(full.size(), 4u);
  ASSERT_EQ(half.size(), 2u);
  EXPECT_EQ(full[0], half[0]);
  EXPECT_EQ(full[1], half[1]);
}

TEST(TokensToBlockKeysTest, DivergenceChangesAllLaterKeys) {
  auto a = Iota(48);
  auto b = a;
  b[20] += 1;  // diverge inside block 1
  auto ka = TokensToBlockKeys(a, 16);
  auto kb = TokensToBlockKeys(b, 16);
  EXPECT_EQ(ka[0], kb[0]);
  EXPECT_NE(ka[1], kb[1]);
  EXPECT_NE(ka[2], kb[2]);  // chain hash propagates divergence
}

// ---------------- RadixTree ----------------

struct CountPayload {
  int value = 0;
  CountPayload SplitTail(size_t) { return CountPayload{value}; }
};

TEST(RadixTreeTest, InsertAndExactMatch) {
  RadixTree<CountPayload> tree;
  std::vector<BlockKey> keys = {11, 22, 33};
  tree.Insert(keys, 1);
  auto match = tree.Match(keys);
  EXPECT_EQ(match.matched, 3u);
  EXPECT_EQ(match.partial, nullptr);
}

TEST(RadixTreeTest, PartialMatchOnDivergence) {
  RadixTree<CountPayload> tree;
  std::vector<BlockKey> a = {1, 2, 3, 4};
  tree.Insert(a, 1);
  std::vector<BlockKey> b = {1, 2, 9, 9};
  auto match = tree.Match(b);
  EXPECT_EQ(match.matched, 2u);
  ASSERT_NE(match.partial, nullptr);
  EXPECT_EQ(match.partial_len, 2u);
}

TEST(RadixTreeTest, InsertSplitsSharedPrefix) {
  RadixTree<CountPayload> tree;
  std::vector<BlockKey> a = {1, 2, 3, 4};
  std::vector<BlockKey> b = {1, 2, 7, 8};
  tree.Insert(a, 1);
  tree.Insert(b, 2);
  // Nodes: [1,2] shared, [3,4], [7,8].
  EXPECT_EQ(tree.NodeCount(), 3u);
  EXPECT_EQ(tree.Match(a).matched, 4u);
  EXPECT_EQ(tree.Match(b).matched, 4u);
}

TEST(RadixTreeTest, OnNewCallbackCoversExactlyNewSpans) {
  RadixTree<CountPayload> tree;
  std::vector<BlockKey> a = {1, 2, 3, 4};
  std::vector<std::pair<size_t, size_t>> spans;
  tree.Insert(a, 1, [&](auto&, size_t b, size_t e) { spans.emplace_back(b, e); });
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0], std::make_pair(size_t{0}, size_t{4}));
  // Extending by two symbols creates exactly one new node covering [4, 6).
  std::vector<BlockKey> ext = {1, 2, 3, 4, 5, 6};
  spans.clear();
  tree.Insert(ext, 2, [&](auto&, size_t b, size_t e) { spans.emplace_back(b, e); });
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0], std::make_pair(size_t{4}, size_t{6}));
}

TEST(RadixTreeTest, SplitPreservesDepthAndParentLinks) {
  RadixTree<CountPayload> tree;
  std::vector<BlockKey> a = {1, 2, 3, 4};
  auto* leaf_a = tree.Insert(a, 1);
  EXPECT_EQ(leaf_a->depth, 4u);
  std::vector<BlockKey> b = {1, 2, 7};
  auto* leaf_b = tree.Insert(b, 2);
  EXPECT_EQ(leaf_b->depth, 3u);
  ASSERT_NE(leaf_b->parent, nullptr);
  EXPECT_EQ(leaf_b->parent->depth, 2u);
  EXPECT_EQ(leaf_b->parent, tree.Match(a).path.front());
}

TEST(RadixTreeTest, LruLeafSelection) {
  RadixTree<CountPayload> tree;
  std::vector<BlockKey> a = {1, 2};
  std::vector<BlockKey> b = {3, 4};
  tree.Insert(a, /*now=*/10);
  tree.Insert(b, /*now=*/20);
  auto* lru = tree.FindLruLeaf([](const auto&) { return true; });
  ASSERT_NE(lru, nullptr);
  EXPECT_EQ(lru->last_access(), 10);
  tree.RemoveLeaf(lru);
  EXPECT_EQ(tree.NodeCount(), 1u);
}

TEST(RadixTreeTest, MatchDoesNotCreateNodes) {
  RadixTree<CountPayload> tree;
  std::vector<BlockKey> a = {1, 2, 3};
  tree.Match(a);
  EXPECT_EQ(tree.NodeCount(), 0u);
}

// ---------------- BlockPool ----------------

TEST(BlockPoolTest, AllocateRespectsCapacity) {
  BlockPool pool({.npu_capacity = 4, .dram_capacity = 2});
  std::vector<BlockId> out;
  ASSERT_TRUE(pool.Allocate(4, Tier::kNpu, &out).ok());
  EXPECT_EQ(out.size(), 4u);
  EXPECT_EQ(pool.free_blocks(Tier::kNpu), 0);
  EXPECT_FALSE(pool.Allocate(1, Tier::kNpu, &out).ok());
  EXPECT_TRUE(pool.Allocate(2, Tier::kDram, &out).ok());
  EXPECT_EQ(out.size(), 6u);
}

TEST(BlockPoolTest, FailedAllocateIsAtomic) {
  BlockPool pool({.npu_capacity = 4, .dram_capacity = 0});
  std::vector<BlockId> out;
  ASSERT_TRUE(pool.Allocate(3, Tier::kNpu, &out).ok());
  EXPECT_FALSE(pool.Allocate(2, Tier::kNpu, &out).ok());
  EXPECT_EQ(pool.used(Tier::kNpu), 3);
  EXPECT_EQ(out.size(), 3u);
}

TEST(BlockPoolTest, UnrefDestroysPrivateBlocks) {
  BlockPool pool({.npu_capacity = 4, .dram_capacity = 4});
  auto blocks = Alloc(pool, 2, Tier::kNpu);
  pool.Unref(blocks[0]);
  EXPECT_FALSE(pool.Exists(blocks[0]));
  EXPECT_EQ(pool.used(Tier::kNpu), 1);
}

TEST(BlockPoolTest, UnrefKeepsCachedBlocks) {
  BlockPool pool({.npu_capacity = 4, .dram_capacity = 4});
  auto blocks = Alloc(pool, 1, Tier::kNpu);
  pool.Commit(blocks[0], 0xabc, nullptr);
  pool.Unref(blocks[0]);
  EXPECT_TRUE(pool.Exists(blocks[0]));
  EXPECT_EQ(pool.info(blocks[0]).ref_count, 0);
}

TEST(BlockPoolTest, ResidencyBitmaskAndCounters) {
  BlockPool pool({.npu_capacity = 4, .dram_capacity = 4});
  BlockId id = Alloc(pool, 1, Tier::kNpu)[0];
  ASSERT_TRUE(pool.AddResidency(id, Tier::kDram).ok());
  EXPECT_TRUE(pool.info(id).resident(Tier::kNpu));
  EXPECT_TRUE(pool.info(id).resident(Tier::kDram));
  EXPECT_EQ(pool.used(Tier::kDram), 1);
  pool.DropResidency(id, Tier::kNpu);
  EXPECT_FALSE(pool.info(id).resident(Tier::kNpu));
  EXPECT_EQ(pool.used(Tier::kNpu), 0);
  // Idempotent add/drop.
  ASSERT_TRUE(pool.AddResidency(id, Tier::kDram).ok());
  EXPECT_EQ(pool.used(Tier::kDram), 1);
  pool.DropResidency(id, Tier::kNpu);
}

TEST(BlockPoolTest, DestroyReleasesAllTiers) {
  BlockPool pool({.npu_capacity = 4, .dram_capacity = 4});
  BlockId id = Alloc(pool, 1, Tier::kNpu)[0];
  ASSERT_TRUE(pool.AddResidency(id, Tier::kDram).ok());
  pool.Commit(id, 7, nullptr);
  pool.Unref(id);
  pool.Destroy(id);
  EXPECT_EQ(pool.used(Tier::kNpu), 0);
  EXPECT_EQ(pool.used(Tier::kDram), 0);
  EXPECT_FALSE(pool.Exists(id));
}

TEST(BlockPoolTest, SsdIsUnbounded) {
  BlockPool pool({.npu_capacity = 1, .dram_capacity = 1});
  std::vector<BlockId> out;
  EXPECT_TRUE(pool.Allocate(1000, Tier::kSsd, &out).ok());
}

// ---------------- RtcMaster ----------------

class RtcMasterTest : public ::testing::Test {
 protected:
  RtcMasterTest() { Reset(64); }
  void Reset(int64_t npu_blocks, bool background_swap = false) {
    RtcConfig config;
    config.block_size = 16;
    config.pool.npu_capacity = npu_blocks;
    config.pool.dram_capacity = 256;
    config.bytes_per_block = 1 << 20;
    config.enable_background_swap = background_swap;
    master_ = std::make_unique<RtcMaster>(&sim_, config);
  }

  // Simulates a prefill: allocate blocks for the tokens, preserve, release.
  std::vector<BlockId> PrefillAndPreserve(const std::vector<TokenId>& tokens) {
    int64_t n = static_cast<int64_t>(tokens.size()) / 16;
    auto blocks = Alloc(*master_, n);
    master_->Preserve(tokens, blocks);
    master_->Free(blocks);
    return blocks;
  }

  sim::Simulator sim_;
  std::unique_ptr<RtcMaster> master_;
};

TEST_F(RtcMasterTest, MissOnEmptyCache) {
  auto info = master_->MatchByPrefixToken(Iota(64));
  EXPECT_FALSE(info.hit());
  EXPECT_EQ(master_->stats().match_misses, 1);
}

TEST_F(RtcMasterTest, HitAfterPreserve) {
  auto tokens = Iota(64);
  PrefillAndPreserve(tokens);
  auto info = master_->MatchByPrefixToken(tokens);
  EXPECT_EQ(info.matched_tokens, 64);
  EXPECT_EQ(info.npu_tokens, 64);
  EXPECT_FALSE(info.needs_populate());
  EXPECT_EQ(master_->stats().match_hits, 1);
}

TEST_F(RtcMasterTest, PartialPrefixHit) {
  PrefillAndPreserve(Iota(64));
  auto longer = Iota(128);  // same first 64 tokens
  auto info = master_->MatchByPrefixToken(longer);
  EXPECT_EQ(info.matched_tokens, 64);
}

TEST_F(RtcMasterTest, DivergentPromptsShareOnlyCommonBlocks) {
  auto a = Iota(64);
  PrefillAndPreserve(a);
  auto b = a;
  b[40] = 7;  // diverges inside block 2
  auto info = master_->MatchByPrefixToken(b);
  EXPECT_EQ(info.matched_tokens, 32);  // blocks 0 and 1 only
}

TEST_F(RtcMasterTest, AcquirePinsAgainstEviction) {
  auto tokens = Iota(16 * 60);
  PrefillAndPreserve(tokens);
  auto info = master_->MatchByPrefixToken(tokens);
  master_->Acquire(info.blocks);
  // Now demand more blocks than remain: eviction cannot touch pinned blocks.
  std::vector<BlockId> out;
  EXPECT_FALSE(master_->AllocBlocks(10, &out).ok());
  master_->Free(info.blocks);
  EXPECT_TRUE(master_->AllocBlocks(10, &out).ok());  // eviction now allowed
}

TEST_F(RtcMasterTest, EvictionDiscardsLruEntry) {
  Reset(8);
  auto a = Iota(64, 0);       // 4 blocks
  auto b = Iota(64, 50000);   // 4 blocks, distinct tokens
  PrefillAndPreserve(a);
  sim_.RunUntil(sim_.Now() + 100);
  PrefillAndPreserve(b);
  // Pool full of cached blocks; allocating forces eviction of LRU entry (a).
  std::vector<BlockId> blocks;
  ASSERT_TRUE(master_->AllocBlocks(4, &blocks).ok());
  EXPECT_FALSE(master_->MatchByPrefixToken(a).hit());
  EXPECT_TRUE(master_->MatchByPrefixToken(b).hit());
  EXPECT_GT(master_->stats().discarded_blocks, 0);
}

TEST_F(RtcMasterTest, MatchByIdRoundTrip) {
  auto tokens = Iota(48);
  auto blocks = Alloc(*master_, 3);
  ASSERT_TRUE(master_->PreserveById("ctx-1", tokens, blocks).ok());
  master_->Free(blocks);
  auto info = master_->MatchByID("ctx-1");
  EXPECT_EQ(info.matched_tokens, 48);
  EXPECT_FALSE(master_->MatchByID("ctx-2").hit());
  EXPECT_TRUE(master_->DropById("ctx-1"));
  EXPECT_FALSE(master_->MatchByID("ctx-1").hit());
}

TEST_F(RtcMasterTest, CacheEntriesAreSortedById) {
  auto blocks = Alloc(*master_, 3);
  // Insert in non-sorted id order; the snapshot must come back sorted
  // regardless of unordered_map hash order.
  ASSERT_TRUE(master_->PreserveById("ctx-b", Iota(48, 100), blocks).ok());
  ASSERT_TRUE(
      master_->PreserveById("ctx-a", Iota(32, 2000), std::span(blocks).subspan(0, 2)).ok());
  ASSERT_TRUE(
      master_->PreserveById("ctx-c", Iota(16, 40000), std::span(blocks).subspan(0, 1)).ok());
  master_->Free(blocks);
  auto entries = master_->CacheEntries();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0], (std::pair<std::string, int64_t>{"ctx-a", 32}));
  EXPECT_EQ(entries[1], (std::pair<std::string, int64_t>{"ctx-b", 48}));
  EXPECT_EQ(entries[2], (std::pair<std::string, int64_t>{"ctx-c", 16}));
  EXPECT_TRUE(master_->DropById("ctx-b"));
  EXPECT_EQ(master_->CacheEntries().size(), 2u);
}

TEST_F(RtcMasterTest, PreserveByIdRejectsBadInput) {
  auto blocks = Alloc(*master_, 1);
  EXPECT_FALSE(master_->PreserveById("", Iota(16), blocks).ok());
  EXPECT_FALSE(master_->PreserveById("x", Iota(5), blocks).ok());  // < 1 block
  master_->Free(blocks);
}

TEST_F(RtcMasterTest, IdEntrySurvivesImplicitMatchToo) {
  auto tokens = Iota(48);
  auto blocks = Alloc(*master_, 3);
  ASSERT_TRUE(master_->PreserveById("ctx", tokens, blocks).ok());
  master_->Free(blocks);
  EXPECT_TRUE(master_->MatchByPrefixToken(tokens).hit());
}

TEST_F(RtcMasterTest, CopyToDramThenEvictKeepsEntryMatchable) {
  Reset(8);
  auto tokens = Iota(64);
  auto blocks = Alloc(*master_, 4);
  master_->Preserve(tokens, blocks);
  bool copied = false;
  master_->Copy(blocks, Tier::kDram, [&] { copied = true; });
  sim_.Run();
  EXPECT_TRUE(copied);
  master_->Free(blocks);
  // Fill the NPU: the DRAM-backed entry gets demoted, not discarded.
  Alloc(*master_, 8);
  auto info = master_->MatchByPrefixToken(tokens);
  EXPECT_EQ(info.matched_tokens, 64);
  EXPECT_TRUE(info.needs_populate());
  EXPECT_EQ(info.npu_tokens, 0);
  EXPECT_GT(master_->stats().evicted_blocks, 0);
  EXPECT_EQ(master_->stats().discarded_blocks, 0);
}

TEST_F(RtcMasterTest, PopulateBringsBlocksBack) {
  Reset(8);
  auto tokens = Iota(64);
  auto blocks = Alloc(*master_, 4);
  master_->Preserve(tokens, blocks);
  master_->Copy(blocks, Tier::kDram, nullptr);
  sim_.Run();
  master_->Free(blocks);
  auto filler = Alloc(*master_, 8);  // forces NPU drop
  master_->Free(filler);
  auto info = master_->MatchByPrefixToken(tokens);
  ASSERT_TRUE(info.needs_populate());
  master_->Acquire(info.blocks);
  auto ticket = master_->Populate(info);
  ASSERT_TRUE(ticket.ok());
  EXPECT_EQ(master_->QueryPopulate(*ticket), PopulateState::kInFlight);
  bool ready = false;
  master_->OnPopulateReady(*ticket, [&] { ready = true; });
  sim_.Run();
  EXPECT_TRUE(ready);
  EXPECT_EQ(master_->QueryPopulate(*ticket), PopulateState::kReady);
  auto again = master_->MatchByPrefixToken(tokens);
  EXPECT_EQ(again.npu_tokens, 64);
  master_->Free(info.blocks);
}

TEST_F(RtcMasterTest, PopulateOfResidentBlocksIsInstantlyReady) {
  auto tokens = Iota(64);
  PrefillAndPreserve(tokens);
  auto info = master_->MatchByPrefixToken(tokens);
  master_->Acquire(info.blocks);
  auto ticket = master_->Populate(info);
  ASSERT_TRUE(ticket.ok());
  EXPECT_EQ(master_->QueryPopulate(*ticket), PopulateState::kReady);
  master_->Free(info.blocks);
}

TEST_F(RtcMasterTest, QueryUnknownTicket) {
  EXPECT_EQ(master_->QueryPopulate(9999), PopulateState::kUnknown);
}

TEST_F(RtcMasterTest, TruncateMatchRecomputesResidency) {
  auto tokens = Iota(64);
  PrefillAndPreserve(tokens);
  auto info = master_->MatchByPrefixToken(tokens);
  auto cut = master_->TruncateMatch(info, 40);  // not block aligned -> 32
  EXPECT_EQ(cut.matched_tokens, 32);
  EXPECT_EQ(cut.blocks.size(), 2u);
  EXPECT_EQ(cut.npu_tokens, 32);
  EXPECT_EQ(cut.offnpu_tokens, 0);
}

TEST_F(RtcMasterTest, PrefixCachingDisabled) {
  RtcConfig config;
  config.pool.npu_capacity = 16;
  config.enable_prefix_caching = false;
  RtcMaster master(&sim_, config);
  auto tokens = Iota(64);
  auto blocks = Alloc(master, 4);
  master.Preserve(tokens, blocks);
  master.Free(blocks);
  EXPECT_FALSE(master.MatchByPrefixToken(tokens).hit());
}

TEST_F(RtcMasterTest, BackgroundSwapDemotesColdBlocks) {
  Reset(16, /*background_swap=*/true);
  // Fill most of the NPU with cold cache (above the 0.85 watermark).
  PrefillAndPreserve(Iota(16 * 7, 0));
  PrefillAndPreserve(Iota(16 * 7, 90000));
  sim_.RunUntil(sim_.Now() + SToNs(2));
  EXPECT_GT(master_->stats().swapped_out_blocks, 0);
  // Entries remain matchable after demotion.
  EXPECT_TRUE(master_->MatchByPrefixToken(Iota(16 * 7, 0)).hit());
}

TEST_F(RtcMasterTest, TokenHitRateTracksReuse) {
  auto tokens = Iota(64);
  master_->MatchByPrefixToken(tokens);  // cold miss: 64 requested, 0 matched
  PrefillAndPreserve(tokens);
  master_->MatchByPrefixToken(tokens);  // hit: 64 requested, 64 matched
  EXPECT_NEAR(master_->stats().TokenHitRate(), 0.5, 0.01);
}

// ---------------- Transfer pins ----------------
//
// A block carries one transfer pin per in-flight copy that moves it; a
// pinned run is never an eviction victim. These tests hold every transfer
// in a queue so they control when each copy lands.
class RtcPinTest : public RtcMasterTest {
 protected:
  RtcPinTest() {
    Reset(8);
    master_->SetTransferFn([this](Tier, Tier, Bytes, std::function<void()> done) {
      landings_.push_back(std::move(done));
    });
  }

  // Completes the oldest queued transfer.
  void LandOne() {
    ASSERT_FALSE(landings_.empty());
    std::function<void()> done = std::move(landings_.front());
    landings_.pop_front();
    done();
  }

  bool NpuResident(std::span<const BlockId> blocks) const {
    return std::all_of(blocks.begin(), blocks.end(), [this](BlockId id) {
      const BlockInfo* info = master_->pool().Find(id);
      return info != nullptr && info->resident(Tier::kNpu);
    });
  }

  std::deque<std::function<void()>> landings_;
};

TEST_F(RtcPinTest, OverlappingTransfersKeepRunPinnedUntilLastLanding) {
  auto tokens = Iota(64);
  std::vector<BlockId> run = PrefillAndPreserve(tokens);  // cached, unreferenced
  master_->Copy(run, Tier::kDram, nullptr);
  master_->Copy(run, Tier::kSsd, nullptr);
  ASSERT_EQ(landings_.size(), 2u);
  for (BlockId id : run) {
    EXPECT_EQ(master_->pool().info(id).pins, 2);
  }
  EXPECT_EQ(master_->pinned_blocks(), 4);
  const int64_t capacity = master_->config().pool.npu_capacity;

  // Both copies in flight: nothing may be dropped or discarded.
  EXPECT_FALSE(master_->EnsureNpuFree(capacity).ok());
  EXPECT_TRUE(NpuResident(run));
  // The DRAM copy lands; the SSD copy still holds every block.
  LandOne();
  EXPECT_EQ(master_->pinned_blocks(), 4);
  EXPECT_FALSE(master_->EnsureNpuFree(capacity).ok());
  EXPECT_TRUE(NpuResident(run)) << "run evicted while a copy of it was still in flight";
  EXPECT_EQ(master_->stats().evicted_blocks, 0);
  EXPECT_EQ(master_->stats().discarded_blocks, 0);

  // The last copy lands: the run, now backed on DRAM and SSD, is droppable.
  LandOne();
  EXPECT_EQ(master_->pinned_blocks(), 0);
  EXPECT_TRUE(master_->EnsureNpuFree(capacity).ok());
  EXPECT_EQ(master_->stats().evicted_blocks, 4);
  EXPECT_EQ(master_->stats().discarded_blocks, 0);
  EXPECT_EQ(master_->MatchByPrefixToken(tokens).matched_tokens, 64);
}

TEST_F(RtcPinTest, PinOfDestroyedBlockDiesWithIt) {
  std::vector<BlockId> old = Alloc(*master_, 1);  // private: dies on Free
  master_->Copy(old, Tier::kDram, nullptr);
  master_->Copy(old, Tier::kSsd, nullptr);
  EXPECT_EQ(master_->pinned_blocks(), 1);
  master_->Free(old);
  EXPECT_FALSE(master_->pool().Exists(old[0]));
  EXPECT_EQ(master_->pinned_blocks(), 0) << "a destroyed block kept its pins";

  // The freed slot is reused under a new generation.
  std::vector<BlockId> fresh = Alloc(*master_, 1);
  ASSERT_NE(fresh[0], old[0]);
  ASSERT_EQ(fresh[0] & 0xffffffff, old[0] & 0xffffffff) << "slot not reused";

  // The old DRAM copy lands: the new occupant has no pin to lose.
  LandOne();
  EXPECT_EQ(master_->pool().info(fresh[0]).pins, 0);
  EXPECT_EQ(master_->pinned_blocks(), 0);

  // Nor does a stale landing take the new occupant's own pin.
  master_->Copy(fresh, Tier::kDram, nullptr);
  EXPECT_EQ(master_->pool().info(fresh[0]).pins, 1);
  LandOne();  // the old SSD copy
  EXPECT_EQ(master_->pool().info(fresh[0]).pins, 1) << "stale landing unpinned the new occupant";
  EXPECT_EQ(master_->pinned_blocks(), 1);
  LandOne();  // its own copy
  EXPECT_EQ(master_->pool().info(fresh[0]).pins, 0);
  EXPECT_EQ(master_->pinned_blocks(), 0);
  master_->Free(fresh);
}

// ---------------- Victim-sequence equivalence ----------------
//
// RtcMaster walks an incremental LRU index of candidate runs. Its victims
// must be exactly those of the original full-scan implementation: each time,
// the least-recently-used leaf whose blocks all satisfy the pass's predicate,
// ties going to the first leaf in ascending key order. The fixture drives a
// randomized workload (admissions with populate, commits, swap scans, direct
// eviction) and re-derives every victim from the cache index and the block
// pool with that naive scan. It holds every transfer itself, so it knows
// exactly which blocks are pinned.
class RtcVictimSequenceTest : public ::testing::Test {
 protected:
  using Node = CacheTree::Node;
  enum class Pass { kSwap, kDrop, kDiscard };
  static constexpr int kBlock = 4;  // tokens per block

  struct Seq {
    std::vector<TokenId> prompt;
    std::vector<BlockId> blocks;
  };
  struct Transfer {
    std::vector<BlockId> blocks;
    std::function<void()> done;
  };
  struct Expected {
    std::set<BlockId> dropped;    // pass 1: NPU copy released
    std::set<BlockId> destroyed;  // pass 2: discarded outright
  };

  // A fresh simulator, cache and harness state.
  void Build() {
    master_.reset();
    sim_ = std::make_unique<sim::Simulator>();
    live_.clear();
    transfers_.clear();
    pins_.clear();
    tracked_.clear();
    expected_swaps_.clear();
    RtcConfig config;
    config.block_size = kBlock;
    config.pool.npu_capacity = 96;
    config.pool.dram_capacity = 1 << 20;  // never full: every swap copy lands
    config.bytes_per_block = 1 << 20;
    config.enable_background_swap = true;
    master_ = std::make_unique<RtcMaster>(sim_.get(), config);
    master_->SetTransferFn([this](Tier src, Tier dst, Bytes bytes, std::function<void()> done) {
      OnTransfer(src, dst, bytes, std::move(done));
    });
  }

  const BlockPool& pool() const { return master_->pool(); }

  // Residency as of the start of the current swap scan: the DRAM copy its
  // first transfer just added (`reverted_`) is undone.
  uint8_t Residency(BlockId id) const {
    uint8_t r = pool().info(id).residency;
    return reverted_.count(id) > 0 ? static_cast<uint8_t>(r & ~TierBit(Tier::kDram)) : r;
  }

  // The original per-leaf predicates.
  bool Qualifies(const Node& node, Pass pass) const {
    if (node.value.blocks.empty()) {
      return false;
    }
    for (BlockId id : node.value.blocks) {
      const BlockInfo& info = pool().info(id);
      uint8_t residency = Residency(id);
      if (info.ref_count > 0 || pins_.count(id) > 0 || (residency & TierBit(Tier::kNpu)) == 0) {
        return false;
      }
      if (pass == Pass::kSwap && (residency & TierBit(Tier::kDram)) != 0) {
        return false;
      }
      if (pass == Pass::kDrop && residency == TierBit(Tier::kNpu)) {
        return false;
      }
    }
    return true;
  }

  // Leaves of the index minus `removed`, in ascending key (pre-)order.
  void Leaves(const Node* node, const std::set<const Node*>& removed,
              std::vector<const Node*>* out) const {
    bool leaf = true;
    node->children.ForEach([&](BlockKey, const Node* child) {
      if (removed.count(child) == 0) {
        leaf = false;
        Leaves(child, removed, out);
      }
    });
    if (leaf && node != master_->index().root()) {
      out->push_back(node);
    }
  }

  // The original FindLruLeaf: a full scan keeping the first strict minimum.
  const Node* NaiveLru(Pass pass, const std::set<const Node*>& removed,
                       const std::set<const Node*>& taken) const {
    std::vector<const Node*> leaves;
    Leaves(master_->index().root(), removed, &leaves);
    const Node* best = nullptr;
    for (const Node* leaf : leaves) {
      if (taken.count(leaf) == 0 && Qualifies(*leaf, pass) &&
          (best == nullptr || leaf->last_access() < best->last_access())) {
        best = leaf;
      }
    }
    return best;
  }

  // The original EnsureNpuFree(n): pass 1 drops backed NPU copies, pass 2
  // discards runs (a parent left childless becomes a leaf).
  Expected ReferenceEnsureNpuFree(int64_t n) const {
    Expected out;
    int64_t free = pool().free_blocks(Tier::kNpu);
    std::set<const Node*> removed;
    std::set<const Node*> off_npu;
    while (free < n) {
      const Node* victim = NaiveLru(Pass::kDrop, removed, off_npu);
      if (victim == nullptr) {
        break;
      }
      off_npu.insert(victim);
      out.dropped.insert(victim->value.blocks.begin(), victim->value.blocks.end());
      free += static_cast<int64_t>(victim->value.blocks.size());
    }
    while (free < n) {
      const Node* victim = NaiveLru(Pass::kDiscard, removed, off_npu);
      if (victim == nullptr) {
        break;
      }
      removed.insert(victim);
      out.destroyed.insert(victim->value.blocks.begin(), victim->value.blocks.end());
      free += static_cast<int64_t>(victim->value.blocks.size());
    }
    return out;
  }

  // The original SwapScan selection.
  std::deque<std::vector<BlockId>> ReferenceSwapScan() const {
    std::deque<std::vector<BlockId>> out;
    std::set<const Node*> taken;
    for (int64_t budget = master_->config().swap_batch_blocks; budget > 0;) {
      const Node* victim = NaiveLru(Pass::kSwap, {}, taken);
      if (victim == nullptr) {
        break;
      }
      taken.insert(victim);
      std::vector<BlockId> blocks = victim->value.blocks;
      std::sort(blocks.begin(), blocks.end());  // OnTransfer sees them by id
      out.push_back(std::move(blocks));
      budget -= static_cast<int64_t>(victim->value.blocks.size());
    }
    return out;
  }

  std::map<BlockId, uint8_t> Snapshot() const {
    std::map<BlockId, uint8_t> out;
    for (BlockId id : tracked_) {
      if (pool().Exists(id)) {
        out[id] = pool().info(id).residency;
      }
    }
    return out;
  }

  // Every transfer is held until the test completes it. The blocks it moves
  // are the ones that just gained residency on `dst`; a swap-out copy is
  // checked against the reference scan (computed at the scan's first copy,
  // with that copy's DRAM residency virtually undone).
  void OnTransfer(Tier src, Tier dst, Bytes bytes, std::function<void()> done) {
    std::vector<BlockId> moved;
    for (const auto& [id, residency] : seen_) {
      if (pool().Exists(id) && (residency & TierBit(dst)) == 0 &&
          pool().info(id).resident(dst)) {
        moved.push_back(id);
      }
    }
    EXPECT_EQ(static_cast<Bytes>(moved.size()) * master_->config().bytes_per_block, bytes);
    if (src == Tier::kNpu && dst == Tier::kDram && !checkpointing_) {
      if (expected_swaps_.empty()) {
        reverted_.insert(moved.begin(), moved.end());
        expected_swaps_ = ReferenceSwapScan();
        reverted_.clear();
      }
      if (expected_swaps_.empty()) {
        ADD_FAILURE() << "swap-out the full-scan reference would not make";
      } else {
        EXPECT_EQ(moved, expected_swaps_.front()) << "swap victim " << swaps_checked_;
        expected_swaps_.pop_front();
      }
      ++swaps_checked_;
    }
    for (BlockId id : moved) {
      ++pins_[id];
    }
    transfers_.push_back(Transfer{std::move(moved), std::move(done)});
    seen_ = Snapshot();
  }

  // Compares what an evicting call actually dropped and destroyed with the
  // reference, given the state before it.
  void CheckEviction(const std::map<BlockId, uint8_t>& before, const Expected& expected) {
    Expected actual;
    for (const auto& [id, residency] : before) {
      if (!pool().Exists(id)) {
        actual.destroyed.insert(id);
      } else if ((residency & TierBit(Tier::kNpu)) != 0 && !pool().info(id).resident(Tier::kNpu)) {
        actual.dropped.insert(id);
      }
    }
    EXPECT_EQ(actual.dropped, expected.dropped);
    EXPECT_EQ(actual.destroyed, expected.destroyed);
    dropped_checked_ += static_cast<int64_t>(expected.dropped.size());
    destroyed_checked_ += static_cast<int64_t>(expected.destroyed.size());
  }

  void Track(std::span<const BlockId> blocks) { tracked_.insert(blocks.begin(), blocks.end()); }

  void Admit(Rng& rng) {
    Seq seq;
    seq.prompt = prefixes_[static_cast<size_t>(rng.UniformInt(0, 5))];
    int64_t suffix_blocks = rng.UniformInt(0, 6);
    for (int64_t i = 0; i < suffix_blocks * kBlock; ++i) {
      seq.prompt.push_back(static_cast<TokenId>(rng.UniformInt(1, 3)));
    }
    MatchInfo info = master_->MatchByPrefixToken(seq.prompt);
    master_->Acquire(info.blocks);
    seq.blocks = info.blocks;
    if (info.needs_populate()) {
      int64_t needed = 0;
      for (BlockId id : info.blocks) {
        needed += pool().info(id).resident(Tier::kNpu) ? 0 : 1;
      }
      auto before = Snapshot();
      Expected expected = ReferenceEnsureNpuFree(needed);
      bool ok = master_->Populate(info).ok();
      CheckEviction(before, expected);
      if (!ok) {
        master_->Free(seq.blocks);
        return;
      }
    }
    int64_t fresh = static_cast<int64_t>(seq.prompt.size()) / kBlock + 1 -
                    static_cast<int64_t>(seq.blocks.size());
    auto before = Snapshot();
    Expected expected = ReferenceEnsureNpuFree(fresh);
    size_t held = seq.blocks.size();
    Status status = master_->AllocBlocks(fresh, &seq.blocks);
    CheckEviction(before, expected);
    if (!status.ok()) {
      EXPECT_EQ(seq.blocks.size(), held) << "a refused allocation appended blocks";
      master_->Free(seq.blocks);
      return;
    }
    Track(std::span<const BlockId>(seq.blocks).subspan(held));
    live_.push_back(std::move(seq));
  }

  void Finish(Rng& rng) {
    size_t i = static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(live_.size()) - 1));
    master_->Preserve(live_[i].prompt, live_[i].blocks);
    master_->Free(live_[i].blocks);
    live_.erase(live_.begin() + static_cast<ptrdiff_t>(i));
  }

  // Explicit checkpoint of a live sequence to DRAM: once it finishes, its
  // runs have a lower-tier copy, so they feed eviction pass 1.
  void Checkpoint(Rng& rng) {
    const Seq& seq =
        live_[static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(live_.size()) - 1))];
    checkpointing_ = true;
    master_->Copy(seq.blocks, Tier::kDram, nullptr);
    checkpointing_ = false;
  }

  void CompleteTransfer(Rng& rng) {
    size_t i =
        static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(transfers_.size()) - 1));
    Transfer transfer = std::move(transfers_[i]);
    transfers_.erase(transfers_.begin() + static_cast<ptrdiff_t>(i));
    for (BlockId id : transfer.blocks) {
      if (--pins_[id] == 0) {
        pins_.erase(id);
      }
    }
    transfer.done();
  }

  void Run(uint64_t seed) {
    Build();
    Rng rng(seed);
    prefixes_.clear();
    for (int p = 0; p < 6; ++p) {
      // Prefixes share their opening blocks with each other so edges split.
      std::vector<TokenId> prefix(static_cast<size_t>(rng.UniformInt(2, 10) * kBlock));
      for (size_t t = 0; t < prefix.size(); ++t) {
        prefix[t] = static_cast<TokenId>(t < 2 * kBlock ? 7 + p % 2 : rng.UniformInt(1, 3));
      }
      prefixes_.push_back(std::move(prefix));
    }
    for (int step = 0; step < 1500; ++step) {
      seen_ = Snapshot();
      int op = static_cast<int>(rng.UniformInt(0, 9));
      if (op <= 2) {
        Admit(rng);
      } else if (op <= 4 && !live_.empty()) {
        if (rng.Bernoulli(0.3)) {
          Checkpoint(rng);
        } else {
          Finish(rng);
        }
      } else if (op <= 6 && !transfers_.empty()) {
        CompleteTransfer(rng);
      } else if (op == 7) {
        auto before = Snapshot();
        int64_t n = rng.UniformInt(1, master_->config().pool.npu_capacity);
        Expected expected = ReferenceEnsureNpuFree(n);
        (void)master_->EnsureNpuFree(n);  // may legitimately fall short
        CheckEviction(before, expected);
      } else {
        // Same-time operations leave last-access ties; time moves on only
        // here, sometimes far enough for the background swap to run.
        sim_->RunUntil(sim_->Now() + MsToNs(static_cast<double>(rng.UniformInt(1, 80))));
        EXPECT_TRUE(expected_swaps_.empty()) << "reference swap victims left unswapped";
        expected_swaps_.clear();
      }
      // The O(1) gauge against the harness's own count: live blocks with a
      // transfer outstanding (the pins of destroyed blocks died with them).
      int64_t pinned = 0;
      for (const auto& [id, count] : pins_) {
        pinned += pool().Exists(id) ? 1 : 0;
      }
      EXPECT_EQ(master_->pinned_blocks(), pinned);
      if (HasFailure()) {
        FAIL() << "seed " << seed << " step " << step;
      }
    }
  }

  std::unique_ptr<sim::Simulator> sim_;
  std::unique_ptr<RtcMaster> master_;
  std::vector<std::vector<TokenId>> prefixes_;
  std::vector<Seq> live_;
  std::vector<Transfer> transfers_;
  std::map<BlockId, int> pins_;
  std::set<BlockId> tracked_;
  std::set<BlockId> reverted_;
  std::map<BlockId, uint8_t> seen_;
  std::deque<std::vector<BlockId>> expected_swaps_;
  bool checkpointing_ = false;
  int64_t swaps_checked_ = 0;
  int64_t dropped_checked_ = 0;
  int64_t destroyed_checked_ = 0;
};

TEST_F(RtcVictimSequenceTest, SwapDropAndDiscardVictimsMatchFullScanReference) {
  for (uint64_t seed : {11ull, 29ull, 47ull}) {
    Run(seed);
    ASSERT_FALSE(HasFailure());
  }
  // The workload reached every victim path.
  EXPECT_GT(swaps_checked_, 100);
  EXPECT_GT(dropped_checked_, 100);
  EXPECT_GT(destroyed_checked_, 100);
}

TEST(RtcExecutorTest, MirrorsBlockTrafficOntoNpu) {
  sim::Simulator sim;
  hw::Npu npu(0, 0, hw::NpuSpec::Gen2());
  RtcConfig config;
  config.pool.npu_capacity = 128;
  config.bytes_per_block = 4 << 20;
  RtcMaster master(&sim, config);
  RtcExecutor executor(&npu, config.bytes_per_block);
  master.AddListener(&executor);
  auto blocks = Alloc(master, 10);
  EXPECT_EQ(npu.hbm_used(), 40ull << 20);
  master.Free(blocks);
  EXPECT_EQ(npu.hbm_used(), 0u);
}

}  // namespace
}  // namespace deepserve::rtc
