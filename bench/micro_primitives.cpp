// Engine-primitive microbenchmarks (google-benchmark): the hot control-plane
// data structures — RTC radix tree, block pool, chain hashing, the simulator
// event queue, and DistFlow op submission.

#include <benchmark/benchmark.h>

#include <vector>

#include "common/rng.h"
#include "rtc/block_pool.h"
#include "rtc/radix_tree.h"
#include "rtc/rtc_master.h"
#include "sim/simulator.h"

namespace deepserve {
namespace {

std::vector<TokenId> RandomTokens(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<TokenId> tokens(n);
  for (auto& t : tokens) {
    t = static_cast<TokenId>(rng.UniformInt(256, 120000));
  }
  return tokens;
}

void BM_ChainHashBlockKeys(benchmark::State& state) {
  auto tokens = RandomTokens(static_cast<size_t>(state.range(0)), 1);
  for (auto _ : state) {
    auto keys = rtc::TokensToBlockKeys(tokens, 16);
    benchmark::DoNotOptimize(keys);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ChainHashBlockKeys)->Arg(2048)->Arg(8192);

void BM_RadixTreeInsert(benchmark::State& state) {
  struct V {
    int x = 0;
    V SplitTail(size_t) { return V{}; }
  };
  Rng rng(2);
  std::vector<std::vector<rtc::BlockKey>> keys;
  for (int i = 0; i < 256; ++i) {
    std::vector<rtc::BlockKey> k(static_cast<size_t>(state.range(0)));
    // Shared 1/2 prefix across sequences to exercise splits.
    for (size_t j = 0; j < k.size(); ++j) {
      k[j] = j < k.size() / 2 ? j + 1 : rng.Next();
    }
    keys.push_back(std::move(k));
  }
  for (auto _ : state) {
    rtc::RadixTree<V> tree;
    for (const auto& k : keys) {
      tree.Insert(k, 0);
    }
    benchmark::DoNotOptimize(tree.NodeCount());
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_RadixTreeInsert)->Arg(64)->Arg(256);

void BM_RadixTreeMatch(benchmark::State& state) {
  struct V {
    int x = 0;
    V SplitTail(size_t) { return V{}; }
  };
  rtc::RadixTree<V> tree;
  Rng rng(3);
  std::vector<std::vector<rtc::BlockKey>> keys;
  for (int i = 0; i < 1024; ++i) {
    std::vector<rtc::BlockKey> k(128);
    for (size_t j = 0; j < k.size(); ++j) {
      k[j] = j < 64 ? j + 1 : rng.Next();
    }
    tree.Insert(k, 0);
    keys.push_back(std::move(k));
  }
  size_t i = 0;
  for (auto _ : state) {
    auto match = tree.Match(keys[i++ % keys.size()]);
    benchmark::DoNotOptimize(match.matched);
  }
}
BENCHMARK(BM_RadixTreeMatch);

void BM_BlockPoolAllocFree(benchmark::State& state) {
  rtc::BlockPool pool({.npu_capacity = 1 << 20, .dram_capacity = 0});
  std::vector<rtc::BlockId> blocks;
  for (auto _ : state) {
    blocks.clear();
    DS_CHECK_OK(pool.Allocate(64, rtc::Tier::kNpu, &blocks));
    for (auto id : blocks) {
      pool.Unref(id);
    }
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_BlockPoolAllocFree);

void BM_RtcMatchPopulateCycle(benchmark::State& state) {
  sim::Simulator sim;
  rtc::RtcConfig config;
  config.pool.npu_capacity = 1 << 16;
  rtc::RtcMaster master(&sim, config);
  auto tokens = RandomTokens(2048, 7);
  std::vector<rtc::BlockId> blocks;
  DS_CHECK_OK(master.AllocBlocks(128, &blocks));
  master.Preserve(tokens, blocks);
  master.Free(blocks);
  for (auto _ : state) {
    auto info = master.MatchByPrefixToken(tokens);
    benchmark::DoNotOptimize(info.matched_tokens);
  }
}
BENCHMARK(BM_RtcMatchPopulateCycle);

void BM_SimulatorEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    int fired = 0;
    for (int i = 0; i < 10000; ++i) {
      sim.ScheduleAt(i, [&fired] { ++fired; });
    }
    sim.Run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_SimulatorEventThroughput);

}  // namespace
}  // namespace deepserve

BENCHMARK_MAIN();
