// Scaling gate for the RTC and JE LRU indexes, in deterministic work units.
//
// The same prefix-sharing colocated trace is replayed for T and for 2T
// simulated seconds. Once the caches are warm, the number of LRU leaves the
// indexes examine per request must stay flat: a cost that grew with history
// (a rescan of every cached leaf per victim, or a walk over every swapped-out
// leaf per swap scan) would roughly double it. Work counters are replay-
// stable, so the bound is exact and immune to machine noise.

#include <gtest/gtest.h>

#include <vector>

#include "fleet/fleet.h"
#include "workload/tracegen.h"

namespace deepserve {
namespace {

constexpr int kTes = 2;
constexpr double kRps = 4.0;

struct Work {
  size_t requests = 0;
  int64_t completed = 0;
  int64_t rtc_examined = 0;  // every TE's RTC LRU index
  int64_t je_examined = 0;   // the JE prompt trees
  int64_t swapped_out_blocks = 0;
  int64_t discarded_blocks = 0;

  double PerRequest() const {
    return static_cast<double>(rtc_examined + je_examined) / static_cast<double>(requests);
  }
};

Work Replay(double duration_s) {
  fleet::FleetSpec spec;
  spec.cluster.num_machines = 1;
  fleet::Fleet fleet(spec);
  flowserve::EngineConfig engine;
  engine.model = model::ModelSpec::Tiny1B();
  engine.parallelism = {1, 1, 1};
  // A small KV budget: the cache fills within the first minute and then
  // swaps and evicts for the rest of the run.
  engine.kv_block_capacity_override = 2048;
  fleet.AddTes(engine, kTes, /*prefill=*/0, /*decode=*/0);
  fleet.Link();

  Work work;
  std::vector<workload::RequestSpec> trace =
      workload::TraceGenerator(workload::TraceGenerator::InternalTrace(kRps, duration_s, 5))
          .Generate();
  work.requests = trace.size();
  work.completed = static_cast<int64_t>(fleet.Replay(trace).completed());
  for (const auto& te : fleet.manager().tes()) {
    const rtc::RtcStats& stats = te->engine().rtc().stats();
    work.rtc_examined += stats.lru_leaves_examined;
    work.swapped_out_blocks += stats.swapped_out_blocks;
    work.discarded_blocks += stats.discarded_blocks;
  }
  work.je_examined = fleet.je().stats().tree_leaves_examined;
  return work;
}

TEST(RtcScalingTest, LruWorkPerRequestStaysFlatAsHistoryDoubles) {
  const double kT = 240.0;
  Work at_t = Replay(kT);
  Work at_2t = Replay(2 * kT);
  ASSERT_GT(at_t.requests, 0u);
  EXPECT_EQ(at_t.completed, static_cast<int64_t>(at_t.requests));
  EXPECT_EQ(at_2t.completed, static_cast<int64_t>(at_2t.requests));
  // The caches are under pressure over both horizons, so the gate measures
  // the eviction paths rather than an idle cache.
  EXPECT_GT(at_t.swapped_out_blocks + at_t.discarded_blocks, 0);
  EXPECT_LE(at_2t.PerRequest(), 1.25 * at_t.PerRequest())
      << "LRU leaves examined per request: " << at_t.PerRequest() << " over " << kT
      << " sim-s, " << at_2t.PerRequest() << " over " << 2 * kT << " sim-s";
}

}  // namespace
}  // namespace deepserve
