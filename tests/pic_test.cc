// Position-independent caching (PIC) tests — RTC content-hash index and the
// engine's prefill-compute discount (§4.3, EPIC-style).

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "flowserve/engine.h"
#include "rtc/rtc_master.h"
#include "sim/simulator.h"

namespace deepserve {
namespace {

std::vector<TokenId> Iota(int n, int start) {
  std::vector<TokenId> out(static_cast<size_t>(n));
  std::iota(out.begin(), out.end(), static_cast<TokenId>(start));
  return out;
}

class RtcPicTest : public ::testing::Test {
 protected:
  RtcPicTest() {
    rtc::RtcConfig config;
    config.block_size = 16;
    config.pool.npu_capacity = 512;
    config.enable_pic = true;
    master_ = std::make_unique<rtc::RtcMaster>(&sim_, config);
  }

  void PreserveTokens(const std::vector<TokenId>& tokens) {
    int64_t n = static_cast<int64_t>(tokens.size()) / 16;
    std::vector<rtc::BlockId> blocks;
    ASSERT_TRUE(master_->AllocBlocks(n, &blocks).ok());
    master_->Preserve(tokens, blocks);
    master_->Free(blocks);
  }

  sim::Simulator sim_;
  std::unique_ptr<rtc::RtcMaster> master_;
};

TEST_F(RtcPicTest, FindsChunkAtDifferentPosition) {
  // Cache a document as a standalone context.
  auto doc = Iota(128, 5000);
  PreserveTokens(doc);
  // A new prompt embeds the same document after an unrelated 64-token header:
  // prefix matching finds nothing, PIC finds the document blocks.
  auto prompt = Iota(64, 90000);
  prompt.insert(prompt.end(), doc.begin(), doc.end());
  EXPECT_FALSE(master_->MatchByPrefixToken(prompt).hit());
  auto pic = master_->MatchPositionIndependent(prompt, 0);
  EXPECT_EQ(pic.matched_tokens, 128);
  EXPECT_EQ(pic.blocks.size(), 8u);
  EXPECT_EQ(master_->stats().pic_hits, 1);
}

TEST_F(RtcPicTest, SkipTokensExcludesPrefixRegion) {
  auto doc = Iota(128, 5000);
  PreserveTokens(doc);
  // Prefix region covers the doc itself: skipping it yields no PIC match.
  auto pic = master_->MatchPositionIndependent(doc, 128);
  EXPECT_EQ(pic.matched_tokens, 0);
}

TEST_F(RtcPicTest, MisalignedChunkDoesNotMatch) {
  auto doc = Iota(128, 5000);
  PreserveTokens(doc);
  // Shift by a non-multiple of the block size: content no longer aligns to
  // block boundaries, so the content hashes differ.
  auto prompt = Iota(7, 90000);
  prompt.insert(prompt.end(), doc.begin(), doc.end());
  auto pic = master_->MatchPositionIndependent(prompt, 0);
  EXPECT_EQ(pic.matched_tokens, 0);
}

TEST_F(RtcPicTest, StaleEntriesPrunedAfterEviction) {
  auto doc = Iota(64, 5000);
  PreserveTokens(doc);
  // Evict everything.
  ASSERT_TRUE(master_->EnsureNpuFree(master_->config().pool.npu_capacity).ok());
  auto prompt = Iota(16, 90000);
  prompt.insert(prompt.end(), doc.begin(), doc.end());
  auto pic = master_->MatchPositionIndependent(prompt, 0);
  EXPECT_EQ(pic.matched_tokens, 0);
}

TEST_F(RtcPicTest, DisabledByDefault) {
  rtc::RtcConfig config;
  config.pool.npu_capacity = 64;
  rtc::RtcMaster master(&sim_, config);
  auto doc = Iota(64, 5000);
  std::vector<rtc::BlockId> blocks;
  ASSERT_TRUE(master.AllocBlocks(4, &blocks).ok());
  master.Preserve(doc, blocks);
  master.Free(blocks);
  EXPECT_EQ(master.MatchPositionIndependent(doc, 0).matched_tokens, 0);
}

class EnginePicTest : public ::testing::Test {
 protected:
  flowserve::EngineConfig Config(bool pic) {
    flowserve::EngineConfig config;
    config.model = model::ModelSpec::Tiny1B();
    config.parallelism = {1, 1, 1};
    config.kv_block_capacity_override = 8192;
    config.enable_pic = pic;
    return config;
  }

  // RAG-style: cache N document chunks, then serve a prompt that stitches
  // them in a DIFFERENT order behind a fresh question header. Returns TTFT.
  TimeNs RunRag(bool pic) {
    sim::Simulator sim;
    flowserve::Engine engine(&sim, Config(pic));
    std::vector<std::vector<TokenId>> docs;
    for (int d = 0; d < 4; ++d) {
      docs.push_back(Iota(512, 10000 + 3000 * d));
    }
    // Warm the cache: one request per document.
    for (int d = 0; d < 4; ++d) {
      workload::RequestSpec warm;
      warm.id = static_cast<workload::RequestId>(d + 1);
      warm.prompt = docs[static_cast<size_t>(d)];
      warm.decode_len = 2;
      engine.Submit(warm, nullptr, nullptr);
    }
    sim.Run();
    // The served prompt: header + docs in reversed order (prefix match fails
    // past the first token, PIC matches every document block).
    workload::RequestSpec spec;
    spec.id = 100;
    spec.prompt = Iota(64, 99000);
    for (int d = 3; d >= 0; --d) {
      spec.prompt.insert(spec.prompt.end(), docs[static_cast<size_t>(d)].begin(),
                         docs[static_cast<size_t>(d)].end());
    }
    spec.decode_len = 2;
    TimeNs submit = sim.Now();
    TimeNs first = 0;
    engine.Submit(spec, [&](const flowserve::Sequence& seq) { first = seq.first_token_time; },
                  nullptr);
    sim.Run();
    pic_reused_ = engine.stats().pic_reused_tokens;
    return first - submit;
  }

  int64_t pic_reused_ = 0;
};

TEST_F(EnginePicTest, RagPromptPrefillsFasterWithPic) {
  TimeNs without = RunRag(false);
  EXPECT_EQ(pic_reused_, 0);
  TimeNs with = RunRag(true);
  EXPECT_GT(pic_reused_, 1500);  // ~4 x 512 tokens rediscovered by content
  // EPIC-style gain: most of the prefill compute is discounted.
  EXPECT_LT(static_cast<double>(with), 0.6 * static_cast<double>(without));
}

TEST_F(EnginePicTest, PicBlocksReleasedAfterCompletion) {
  sim::Simulator sim;
  flowserve::Engine engine(&sim, Config(true));
  workload::RequestSpec warm;
  warm.id = 1;
  warm.prompt = Iota(256, 5000);
  warm.decode_len = 2;
  engine.Submit(warm, nullptr, nullptr);
  sim.Run();
  workload::RequestSpec spec;
  spec.id = 2;
  spec.prompt = Iota(32, 90000);
  spec.prompt.insert(spec.prompt.end(), warm.prompt.begin(), warm.prompt.end());
  spec.decode_len = 2;
  engine.Submit(spec, nullptr, nullptr);
  sim.Run();
  EXPECT_TRUE(engine.idle());
  // All PIC pins released: every cached block is unreferenced again.
  EXPECT_TRUE(engine.rtc().EnsureNpuFree(engine.kv_block_capacity()).ok());
}

// Pins the exact step-shape arithmetic. AttendedTokens(past, c) =
// c*past + c*(c+1)/2; the PIC discount shrinks the chunk's *compute* tokens
// (effective = floor(chunk * keep)) but those tokens still attend over the
// full physical past context — the regression this test guards was scaling
// the past-context term by effective/chunk too.
TEST_F(EnginePicTest, StepShapeAttendedTokensPinned) {
  sim::Simulator sim;
  flowserve::EngineConfig config = Config(true);
  config.prefill_chunk_tokens = 64;
  flowserve::Engine engine(&sim, config);

  // Plain 128-token prompt, two 64-token chunks, no reuse:
  // A(0,64) + A(64,64) = 2080 + 6176 = 8256.
  workload::RequestSpec plain;
  plain.id = 1;
  plain.prompt = Iota(128, 5000);
  plain.decode_len = 2;
  engine.Submit(plain, nullptr, nullptr);
  sim.Run();
  EXPECT_EQ(engine.stats().prefill_attended_tokens, 8256);

  // PIC request: 64-token header + the now-cached 128-token document.
  // coverage = 128/192, keep = 1 - (2/3)*0.85 = 13/30, effective =
  // floor(64*keep) = 27 per chunk over three chunks:
  // A(0,27) + A(64,27) + A(128,27) = 378 + 2106 + 3834 = 6318.
  int64_t base = engine.stats().prefill_attended_tokens;
  workload::RequestSpec spec;
  spec.id = 2;
  spec.prompt = Iota(64, 90000);
  spec.prompt.insert(spec.prompt.end(), plain.prompt.begin(), plain.prompt.end());
  spec.decode_len = 2;
  engine.Submit(spec, nullptr, nullptr);
  sim.Run();
  EXPECT_EQ(engine.stats().pic_reused_tokens, 128);
  EXPECT_EQ(engine.stats().prefill_attended_tokens - base, 6318);
}

// A preempted sequence must drop its PIC pins along with the rest of its KV:
// the rebuild recomputes from scratch, and pinned-but-unowned blocks would
// both leak pool capacity and leave a stale discount on the resumed prefill.
TEST_F(EnginePicTest, PreemptionReleasesPicPins) {
  sim::Simulator sim;
  flowserve::EngineConfig config = Config(true);
  config.prefill_chunk_tokens = 64;
  config.kv_block_capacity_override = 29;
  flowserve::Engine engine(&sim, config);

  // Warm: cache a 128-token document (8 blocks). decode_len = 1 so the warm
  // request generates no decode tokens — the wait loop below must trigger on
  // the competitor's first decode step, not on this one.
  workload::RequestSpec warm;
  warm.id = 1;
  warm.prompt = Iota(128, 5000);
  warm.decode_len = 1;
  engine.Submit(warm, nullptr, nullptr);
  sim.Run();

  // A long-decoding competitor (service class 0) claims the pool first.
  workload::RequestSpec hog;
  hog.id = 2;
  hog.prompt = Iota(256, 40000);
  hog.decode_len = 40;
  hog.priority = 0;
  bool hog_done = false;
  engine.Submit(hog, nullptr, [&](const flowserve::Sequence&) { hog_done = true; });
  while (engine.stats().decode_tokens_generated < 1 && sim.Step()) {
  }

  // The PIC request pins the cached document, stalls mid-prefill on the full
  // pool, and is victimized when the competitor's decode grows into a new
  // block. Its completion must report zero PIC reuse: the pins were dropped
  // at preemption and the post-resume prefill ran undiscounted.
  workload::RequestSpec spec;
  spec.id = 3;
  spec.prompt = Iota(64, 90000);
  spec.prompt.insert(spec.prompt.end(), warm.prompt.begin(), warm.prompt.end());
  spec.decode_len = 2;
  spec.priority = 1;
  int64_t pic_tokens_at_completion = -1;
  engine.Submit(spec, nullptr, [&](const flowserve::Sequence& seq) {
    pic_tokens_at_completion = seq.pic_tokens;
  });
  sim.Run();

  EXPECT_TRUE(hog_done);
  EXPECT_EQ(engine.stats().pic_reused_tokens, 128);  // the match did happen
  EXPECT_GE(engine.stats().preemptions, 1);
  EXPECT_EQ(pic_tokens_at_completion, 0);
  EXPECT_TRUE(engine.idle());
  // No leaked pins: the whole pool is reclaimable.
  EXPECT_TRUE(engine.rtc().EnsureNpuFree(engine.kv_block_capacity()).ok());
}

}  // namespace
}  // namespace deepserve
