// Replicated control-plane tests: the sequenced shared log, deterministic
// state-machine replay, the folding log against a keep-everything reference,
// CM/JE leader failover, a bounded-memory soak, the pipeline-abort crash path,
// the exact record stream of each append path, and the 3-seed golden parity
// pin proving the degenerate log config is bit-identical to the pre-log tree.

#include <gtest/gtest.h>

#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "common/rng.h"
#include "common/time_units.h"
#include "ctrl/control_log.h"
#include "ctrl/job_table.h"
#include "ctrl/te_directory.h"
#include "distflow/distflow.h"
#include "faults/fault_injector.h"
#include "fleet/fleet.h"
#include "hw/cluster.h"
#include "obs/metrics.h"
#include "serving/cluster_manager.h"
#include "sim/simulator.h"
#include "workload/tracegen.h"
#include "test_util.h"

namespace deepserve {
namespace {

// ---------------- ControlLog: sequencing, apply, replay ----------------

TEST(ControlLogTest, SequencesAcrossDomainsInAppendOrder) {
  sim::Simulator sim;
  ctrl::ControlLog log(&sim);
  ctrl::JobTable alpha(log.RegisterDomain("alpha"));
  ctrl::JobTable beta(log.RegisterDomain("beta"));
  EXPECT_NE(alpha.domain(), beta.domain());
  log.Attach(&alpha);
  log.Attach(&beta);

  const ctrl::RrAdvanced rr;
  EXPECT_EQ(log.Append({0, 0, alpha.domain(), rr}).seq, 0u);
  EXPECT_EQ(log.Append({0, 0, beta.domain(), rr}).seq, 1u);
  EXPECT_EQ(log.Append({0, 0, alpha.domain(), rr}).seq, 2u);
  // Appended counts cover the whole history...
  EXPECT_EQ(log.next_seq(), 3u);
  EXPECT_EQ(log.CountDomain(alpha.domain()), 2);
  EXPECT_EQ(log.CountDomain(beta.domain()), 1);
  // ...while the zero-latency log retains only the newest record; the rest
  // live on in the standbys, in sequence order.
  ASSERT_EQ(log.records().size(), 1u);
  EXPECT_EQ(log.records().back().seq, 2u);
  EXPECT_EQ(static_cast<const ctrl::JobTable*>(log.standby(alpha.domain()))->rr_cursor(), 1u);
  EXPECT_EQ(static_cast<const ctrl::JobTable*>(log.standby(beta.domain()))->rr_cursor(), 1u);
}

TEST(ControlLogTest, UnattachedDomainPinsTheLogUntilAttached) {
  sim::Simulator sim;
  ctrl::ControlLog log(&sim);
  ctrl::JobTable live(log.RegisterDomain("live"));
  log.Attach(&live);
  const int32_t late = log.RegisterDomain("late");
  EXPECT_EQ(log.standby(late), nullptr);

  const ctrl::RrAdvanced rr;
  log.Append({0, 0, live.domain(), rr});
  log.Append({0, 0, late, rr});  // no standby to fold into
  log.Append({0, 0, live.domain(), rr});
  log.Append({0, 0, late, rr});
  // The first "late" record pins itself and everything after it.
  EXPECT_EQ(log.records().size(), 3u);
  EXPECT_EQ(log.records().front().seq, 1u);

  ctrl::JobTable joiner(late);
  EXPECT_EQ(log.ReplayInto(&joiner), 2);
  EXPECT_EQ(joiner.rr_cursor(), 2u);
  log.Attach(&joiner);
  log.Append({0, 0, late, rr});
  EXPECT_EQ(log.records().size(), 1u);
  ctrl::JobTable replica(late);
  EXPECT_EQ(log.ReplayInto(&replica), 1);
  EXPECT_EQ(replica.Fingerprint(), joiner.Fingerprint());
  EXPECT_EQ(replica.rr_cursor(), 3u);
}

TEST(ControlLogTest, AppendAppliesInlineToAttachedMachine) {
  sim::Simulator sim;
  ctrl::ControlLog log(&sim);
  ctrl::JobTable table(log.RegisterDomain("job-table"));
  log.Attach(&table);

  log.Append({0, 0, table.domain(), ctrl::RrAdvanced{}});
  log.Append({0, 0, table.domain(), ctrl::TeAdded{ctrl::TeGroup::kColocated, 7}});
  EXPECT_EQ(table.rr_cursor(), 1u);
  ASSERT_EQ(table.group(ctrl::TeGroup::kColocated).size(), 1u);
  EXPECT_EQ(table.group(ctrl::TeGroup::kColocated)[0], 7);
  EXPECT_EQ(table.applied(), 2u);

  // Detached machines stop observing appends.
  log.Detach(table.domain());
  log.Append({0, 0, table.domain(), ctrl::RrAdvanced{}});
  EXPECT_EQ(table.rr_cursor(), 1u);
}

TEST(ControlLogTest, ReplayFromNothingMatchesLiveFingerprint) {
  sim::Simulator sim;
  ctrl::ControlLog log(&sim);
  ctrl::JobTable live(log.RegisterDomain("job-table"));
  log.Attach(&live);
  const int32_t other = log.RegisterDomain("other");

  log.Append({0, 0, live.domain(), ctrl::TeAdded{ctrl::TeGroup::kColocated, 3}});
  log.Append({0, 0, other, ctrl::NpusAllocated{{1, 2, 3}}});  // foreign domain: must be filtered
  log.Append({0, 0, live.domain(), ctrl::TeAdded{ctrl::TeGroup::kPrefill, 4}});
  log.Append({0, 0, live.domain(), ctrl::RrAdvanced{}});
  log.Append({0, 0, live.domain(), ctrl::TeRemoved{3}});

  ctrl::JobTable standby(live.domain());
  log.ReplayInto(&standby);
  EXPECT_EQ(standby.Fingerprint(), live.Fingerprint());
  EXPECT_EQ(standby.applied(), live.applied());
}

TEST(ControlLogTest, SnapshotPlusTailReplayMatchesLive) {
  sim::Simulator sim;
  ctrl::CtrlConfig config;
  config.replicas = 3;
  config.quorum = 2;
  config.replication_latency = MsToNs(5);
  ctrl::ControlLog log(&sim, config);
  ctrl::JobTable live(log.RegisterDomain("job-table"));
  log.Attach(&live);

  log.Append({0, 0, live.domain(), ctrl::TeAdded{ctrl::TeGroup::kColocated, 1}});
  log.Append({0, 0, live.domain(), ctrl::TeAdded{ctrl::TeGroup::kDecode, 2}});
  sim.RunUntil(MsToNs(10));
  log.Append({0, 0, live.domain(), ctrl::RrAdvanced{}});
  log.Append({0, 0, live.domain(), ctrl::TeRemoved{2}});

  // The two t=0 records left the replication window and were folded into
  // the standby (the snapshot); the two at t=10ms are the retained tail.
  ASSERT_EQ(log.records().size(), 2u);
  EXPECT_EQ(log.records().front().seq, 2u);
  const auto* snapshot = static_cast<const ctrl::JobTable*>(log.standby(live.domain()));
  ASSERT_NE(snapshot, nullptr);
  EXPECT_EQ(snapshot->applied(), 2u);
  EXPECT_NE(snapshot->Fingerprint(), live.Fingerprint());

  ctrl::JobTable replica(live.domain());
  EXPECT_EQ(log.ReplayInto(&replica), 2);
  EXPECT_EQ(replica.Fingerprint(), live.Fingerprint());
  EXPECT_EQ(replica.applied(), live.applied());
  EXPECT_EQ(log.CountDomain(live.domain()), 4);
}

TEST(ControlLogTest, FailoverDelayChargesLeaseGapAndTailReplay) {
  sim::Simulator sim;
  ctrl::CtrlConfig config;
  config.replicas = 3;
  config.quorum = 2;
  config.replication_latency = MsToNs(2);
  config.lease_duration = MsToNs(100);
  config.replay_cost_per_record = UsToNs(2);
  ctrl::ControlLog log(&sim, config);
  EXPECT_TRUE(log.replicated());
  const int32_t domain = log.RegisterDomain("dir");

  // Three records at t=0, two more at t=10ms.
  for (int i = 0; i < 3; ++i) log.Append({0, 0, domain, ctrl::Epoch{}});
  sim.ScheduleAt(MsToNs(10), [&] {
    log.Append({0, 0, domain, ctrl::Epoch{}});
    log.Append({0, 0, domain, ctrl::Epoch{}});
  });
  sim.Run();

  // Crash at t=11ms: the replication horizon is 9ms, so only the two records
  // stamped at 10ms are still unreplicated.
  const TimeNs crash = MsToNs(11);
  EXPECT_EQ(log.UnreplicatedAt(crash), 2);
  EXPECT_EQ(log.FailoverDelay(crash),
            MsToNs(100) + MsToNs(2) + 2 * UsToNs(2));

  // Long after the appends everything has replicated; only lease + fetch remain.
  EXPECT_EQ(log.UnreplicatedAt(SToNs(5)), 0);
  EXPECT_EQ(log.FailoverDelay(SToNs(5)), MsToNs(100) + MsToNs(2));
}

TEST(ControlLogTest, DegenerateConfigIsNotReplicated) {
  sim::Simulator sim;
  ctrl::ControlLog degenerate(&sim);
  EXPECT_FALSE(degenerate.replicated());
  EXPECT_EQ(degenerate.UnreplicatedAt(SToNs(1)), 0);
}

// ---------------- Folding log vs a keep-everything reference ----------------

// The pre-compaction log as a naive model: it keeps every record, folds each
// domain from empty, and scans the whole history for the replication window.
struct ReferenceLog {
  ctrl::CtrlConfig config;
  std::vector<ctrl::LogRecord> records;
  std::map<int32_t, ctrl::JobTable> folds;

  // Records stamped within replication_latency of `now`.
  int64_t Window(TimeNs now) const {
    int64_t n = 0;
    for (const ctrl::LogRecord& record : records) {
      if (record.time > now - config.replication_latency) ++n;
    }
    return n;
  }
  int64_t UnreplicatedAt(TimeNs now) const {
    return config.replication_latency > 0 ? Window(now) : 0;
  }
  DurationNs FailoverDelay(TimeNs now) const {
    return config.lease_duration + config.replication_latency +
           UnreplicatedAt(now) * config.replay_cost_per_record;
  }
};

// Picks a random record the reference fold of `domain` accepts: job
// creation with a prompt, TE binds, task and job completion and failure,
// group membership, round-robin ticks and epochs.
ctrl::LogRecord RandomJobRecord(Rng& rng, const ctrl::JobTable& fold, int32_t domain,
                                TimeNs now) {
  std::vector<workload::JobId> open;
  for (const auto& [job_id, outstanding] : fold.outstanding()) {
    open.push_back(job_id);
  }
  auto pick_open = [&] { return open[rng.UniformInt(0, static_cast<int64_t>(open.size()) - 1)]; };
  auto te_id = [&] { return static_cast<workload::TeId>(rng.UniformInt(1, 16)); };
  ctrl::LogRecord record;
  record.domain = domain;
  const int64_t kind = rng.UniformInt(0, 10);
  if (kind <= 2 || open.empty()) {
    const workload::JobId job = fold.next_job();
    const auto retries = static_cast<int>(rng.UniformInt(0, 2));
    workload::RequestSpec spec;
    spec.id = static_cast<workload::RequestId>(job * 10);
    spec.arrival = now;
    spec.decode_len = rng.UniformInt(1, 512);
    spec.priority = static_cast<int>(rng.UniformInt(0, 3));
    spec.deadline = now + SToNs(30);
    for (int64_t i = rng.UniformInt(0, 48); i > 0; --i) {
      spec.prompt.push_back(static_cast<TokenId>(rng.UniformInt(0, 127999)));
    }
    spec.context_id = rng.Bernoulli(0.5) ? "ctx-" + std::to_string(rng.UniformInt(0, 3)) : "";
    record.op = ctrl::JobCreated{job, retries,
                                 std::make_shared<const workload::RequestSpec>(std::move(spec))};
  } else if (kind == 3) {
    const workload::JobId job = pick_open();
    record.op = ctrl::JobTeBound{job, te_id()};
  } else if (kind == 4) {
    const workload::JobId job = pick_open();
    const auto type = static_cast<workload::TaskType>(rng.UniformInt(0, 2));
    record.op = ctrl::TaskCreated{fold.next_task(), job, type, te_id()};
  } else if (kind == 5 && !fold.tasks().empty()) {
    const int64_t last = static_cast<int64_t>(fold.tasks().size()) - 1;
    record.op = ctrl::TaskCompleted{fold.tasks()[rng.UniformInt(0, last)].id};
  } else if (kind == 6) {
    record.op = ctrl::JobCompleted{pick_open()};
  } else if (kind == 7) {
    record.op = ctrl::JobFailed{pick_open()};
  } else if (kind == 8) {
    const auto group = static_cast<ctrl::TeGroup>(rng.UniformInt(0, 2));
    record.op = ctrl::TeAdded{group, te_id()};
  } else if (kind == 9) {
    record.op = ctrl::TeRemoved{te_id()};
  } else if (rng.Bernoulli(0.8)) {
    record.op = ctrl::RrAdvanced{};
  } else {
    record.op = ctrl::Epoch{};
  }
  return record;
}

// Randomized streams over two JobTable domains, with sim time advancing in
// ties and gaps around the replication window: after every append the
// folding log must be indistinguishable from the reference through its whole
// API, while retaining no more than the window plus the newest record. The
// "alpha" leader is periodically swapped for a replica rebuilt from the log
// (failover); "beta" is periodically detached and later re-attached to a
// rebuilt replica, so its standby keeps folding with no leader attached.
TEST(ControlLogFoldTest, MatchesKeepEverythingReference) {
  for (const DurationNs latency : {DurationNs{0}, MsToNs(5)}) {
    for (uint64_t seed = 1; seed <= 4; ++seed) {
      SCOPED_TRACE("latency " + std::to_string(latency) + " seed " + std::to_string(seed));
      sim::Simulator sim;
      ctrl::CtrlConfig config;
      config.replicas = 3;
      config.quorum = 2;
      config.replication_latency = latency;
      config.lease_duration = MsToNs(50);
      ctrl::ControlLog log(&sim, config);
      ReferenceLog ref;
      ref.config = config;

      const int32_t domains[2] = {log.RegisterDomain("alpha"), log.RegisterDomain("beta")};
      std::map<int32_t, std::unique_ptr<ctrl::JobTable>> live;
      for (int32_t d : domains) {
        live[d] = std::make_unique<ctrl::JobTable>(d);
        log.Attach(live[d].get());
        ref.folds.emplace(d, ctrl::JobTable(d));
      }
      bool beta_attached = true;
      Rng rng(seed);
      auto rebuild = [&](int32_t d) {
        auto replica = std::make_unique<ctrl::JobTable>(d);
        log.ReplayInto(replica.get());
        return replica;
      };

      for (int step = 0; step < 1500; ++step) {
        const int64_t gap = rng.UniformInt(0, 5);
        if (gap >= 3) sim.RunUntil(sim.Now() + MsToNs(gap == 5 ? 9 : gap - 1));
        const TimeNs now = sim.Now();
        const int32_t d = domains[rng.UniformInt(0, 1)];
        ctrl::LogRecord record = RandomJobRecord(rng, ref.folds.at(d), d, now);
        const ctrl::LogRecord& stored = log.Append(record);
        ASSERT_EQ(stored.seq, ref.records.size());
        ASSERT_EQ(stored.time, now);
        record.seq = stored.seq;
        record.time = now;
        ref.records.push_back(record);
        ref.folds.at(d).Apply(record);

        if (step % 97 == 96) {  // alpha failover: swap in a rebuilt replica
          ASSERT_EQ(rebuild(domains[0])->Fingerprint(), live[domains[0]]->Fingerprint());
          live[domains[0]] = rebuild(domains[0]);
          log.Attach(live[domains[0]].get());
        }
        if (step % 131 == 130) {  // beta leader leaves or returns
          if (beta_attached) {
            log.Detach(domains[1]);
          } else {
            live[domains[1]] = rebuild(domains[1]);
            log.Attach(live[domains[1]].get());
          }
          beta_attached = !beta_attached;
        }

        ASSERT_EQ(log.next_seq(), ref.records.size());
        for (int32_t dom : domains) {
          const ctrl::JobTable& want = ref.folds.at(dom);
          std::unique_ptr<ctrl::JobTable> replica = rebuild(dom);
          ASSERT_EQ(replica->Fingerprint(), want.Fingerprint()) << "step " << step;
          ASSERT_EQ(replica->applied(), want.applied());
          if (dom == domains[0] || beta_attached) {
            ASSERT_EQ(live[dom]->Fingerprint(), want.Fingerprint()) << "step " << step;
          }
          ASSERT_EQ(log.CountDomain(dom), static_cast<int64_t>(want.applied()));
        }
        ASSERT_EQ(log.UnreplicatedAt(now), ref.UnreplicatedAt(now)) << "step " << step;
        ASSERT_EQ(log.FailoverDelay(now), ref.FailoverDelay(now)) << "step " << step;
        const int64_t retained = static_cast<int64_t>(log.records().size());
        ASSERT_GE(retained, ref.Window(now)) << "step " << step;
        ASSERT_LE(retained, ref.Window(now) + 1) << "step " << step;
      }
    }
  }
}

// ---------------- State-machine replay through the real stack ----------------

class CtrlStackTest : public ::testing::Test {
 protected:
  CtrlStackTest()
      : cluster_(&sim_, MakeClusterConfig()),
        transfer_(&sim_, &cluster_, distflow::DistFlowConfig{}) {}

  static hw::ClusterConfig MakeClusterConfig() {
    hw::ClusterConfig config;
    config.num_machines = 3;
    return config;
  }

  sim::Simulator sim_;
  hw::Cluster cluster_;
  distflow::TransferEngine transfer_;
};

// A load-only JE fleet on the fixture's 3-machine cluster shape. `replicas` >
// 1 puts the CM and the JE on one shared log with quorum 2.
fleet::FleetSpec StackSpec(int replicas = 1, DurationNs latency = 0,
                           DurationNs lease = MsToNs(500)) {
  fleet::FleetSpec spec;
  spec.cluster.num_machines = 3;
  spec.je.policy = serving::SchedulingPolicy::kLoadOnly;
  spec.ctrl.replicas = replicas;
  spec.ctrl.quorum = replicas / 2 + 1;
  spec.ctrl.replication_latency = latency;
  spec.ctrl.lease_duration = lease;
  return spec;
}

// `count` requests MakeRequest(id, prefill, decode), ids from 1, request i
// arriving at first + (i - 1) * gap.
std::vector<workload::RequestSpec> Spaced(int count, TimeNs first, DurationNs gap, int64_t prefill,
                                          int64_t decode) {
  std::vector<workload::RequestSpec> trace;
  for (int i = 1; i <= count; ++i) {
    trace.push_back(MakeRequest(static_cast<workload::RequestId>(i), prefill, decode));
    trace.back().arrival = first + (i - 1) * gap;
  }
  return trace;
}

TEST_F(CtrlStackTest, TeDirectoryReplayMatchesLiveAfterScaleStopCrash) {
  serving::ClusterManager manager(&sim_, &cluster_, &transfer_);
  manager.ReservePrewarmedPods(2);
  manager.ReservePrewarmedTes(2);
  manager.PreloadModelToDram(0, model::ModelSpec::Tiny1B());
  sim_.Run();

  auto* te_a = manager.CreateReadyTe(SmallEngine(flowserve::EngineRole::kColocated)).value();
  auto* te_b = manager.CreateReadyTe(SmallEngine(flowserve::EngineRole::kColocated)).value();
  serving::ScaleRequest request;
  request.engine = SmallEngine(flowserve::EngineRole::kColocated);
  int ready = 0;
  ASSERT_TRUE(manager.ScaleUp(request, [&](serving::TaskExecutor* te,
                                           const serving::ScalingBreakdown&) {
                       if (te != nullptr) ++ready;
                     })
                  .ok());
  sim_.Run();
  EXPECT_EQ(ready, 1);
  ASSERT_TRUE(manager.StopTe(te_a->id()).ok());
  ASSERT_TRUE(manager.CrashTe(te_b->id(), serving::CrashKind::kNpu).ok());
  sim_.Run();  // heartbeat detection lands

  ctrl::TeDirectory standby(manager.directory().domain());
  manager.ctrl_log()->ReplayInto(&standby);
  EXPECT_EQ(standby.Fingerprint(), manager.directory().Fingerprint());
  EXPECT_EQ(standby.applied(), manager.directory().applied());
  EXPECT_EQ(standby.npus_in_use(), manager.directory().npus_in_use());
}

TEST_F(CtrlStackTest, JobTableReplayMatchesLiveAfterTraffic) {
  fleet::Fleet fleet(StackSpec(/*replicas=*/3));
  serving::JobExecutor& je = fleet.je();
  fleet.AddTes(SmallEngine(flowserve::EngineRole::kColocated), /*colocated=*/2, 0, 0);

  EXPECT_EQ(fleet.Replay(Spaced(6, MsToNs(50), MsToNs(50), 128, 16)).completed(), 6u);

  ctrl::JobTable standby(je.table().domain());
  fleet.ctrl_log()->ReplayInto(&standby);
  EXPECT_EQ(standby.Fingerprint(), je.table().Fingerprint());
  EXPECT_EQ(standby.applied(), je.table().applied());
  EXPECT_EQ(standby.jobs().size(), je.table().jobs().size());
  EXPECT_TRUE(standby.outstanding().empty());
}

// ---------------- Pipeline abort: crash during provisioning ----------------

TEST_F(CtrlStackTest, KillTeMidPipelineAbortsWithoutReadyCallback) {
  serving::ClusterManager manager(&sim_, &cluster_, &transfer_);  // cold: no pools
  const int64_t npus_before = manager.directory().npus_in_use();

  serving::ScaleRequest request;
  request.engine = SmallEngine(flowserve::EngineRole::kColocated);
  int callbacks = 0;
  serving::TaskExecutor* delivered = reinterpret_cast<serving::TaskExecutor*>(0x1);
  auto id = manager.ScaleUp(request, [&](serving::TaskExecutor* te,
                                         const serving::ScalingBreakdown&) {
    ++callbacks;
    delivered = te;
  });
  ASSERT_TRUE(id.ok());
  EXPECT_GT(manager.directory().npus_in_use(), npus_before);
  EXPECT_EQ(manager.directory().open_pipelines().size(), 1u);

  sim_.RunUntil(SToNs(5));  // mid Scaler-Pre (cold pod creation is 12s)
  auto dropped = manager.KillTe(id.value());
  ASSERT_TRUE(dropped.ok());
  EXPECT_EQ(dropped.value(), 0u);  // a provisioning TE holds no requests
  sim_.Run();

  EXPECT_EQ(callbacks, 1);
  EXPECT_EQ(delivered, nullptr);
  EXPECT_EQ(manager.stats().scale_aborts, 1);
  EXPECT_EQ(manager.stats().crashes, 1);
  EXPECT_EQ(manager.stats().te_failures, 0);  // never a serving TE
  EXPECT_EQ(manager.stats().replacements, 0);
  EXPECT_EQ(manager.stats().mttr_count, 0);
  EXPECT_EQ(manager.directory().npus_in_use(), npus_before);  // NPUs conserved
  EXPECT_TRUE(manager.directory().open_pipelines().empty());
  EXPECT_EQ(manager.te(id.value()), nullptr);  // no live binding ever made
  EXPECT_TRUE(manager.tes().empty());
  const auto* meta = manager.directory().Find(id.value());
  ASSERT_NE(meta, nullptr);
  EXPECT_EQ(meta->lifecycle, ctrl::TeDirectory::Lifecycle::kAborted);
}

TEST_F(CtrlStackTest, CrashTeMidPipelineAbortsLikeKill) {
  serving::ClusterManager manager(&sim_, &cluster_, &transfer_);
  serving::ScaleRequest request;
  request.engine = SmallEngine(flowserve::EngineRole::kColocated);
  int callbacks = 0;
  serving::TaskExecutor* delivered = reinterpret_cast<serving::TaskExecutor*>(0x1);
  auto id = manager.ScaleUp(request, [&](serving::TaskExecutor* te,
                                         const serving::ScalingBreakdown&) {
    ++callbacks;
    delivered = te;
  });
  ASSERT_TRUE(id.ok());
  sim_.RunUntil(SToNs(20));  // mid TE-Pre-Load
  auto dropped = manager.CrashTe(id.value(), serving::CrashKind::kTeShell);
  ASSERT_TRUE(dropped.ok());
  EXPECT_EQ(dropped.value(), 0u);
  sim_.Run();

  EXPECT_EQ(callbacks, 1);
  EXPECT_EQ(delivered, nullptr);
  EXPECT_EQ(manager.stats().scale_aborts, 1);
  EXPECT_EQ(manager.stats().scale_ups, 1);  // launched, not delivered
  EXPECT_EQ(manager.directory().npus_in_use(), 0);
  // Double-kill of the aborted id is rejected.
  EXPECT_FALSE(manager.KillTe(id.value()).ok());
}

// ---------------- CM leader failover ----------------

TEST_F(CtrlStackTest, CmFailoverResumesParkedPipelineExactlyOnce) {
  ctrl::CtrlConfig config;
  config.replicas = 3;
  config.quorum = 2;
  config.replication_latency = MsToNs(1);
  config.lease_duration = SToNs(10);
  ctrl::ControlLog log(&sim_, config);
  serving::ClusterManager manager(&sim_, &cluster_, &transfer_, {}, {}, &log);

  serving::ScaleRequest request;
  request.engine = SmallEngine(flowserve::EngineRole::kColocated);
  int callbacks = 0;
  serving::TaskExecutor* delivered = nullptr;
  ASSERT_TRUE(manager.ScaleUp(request, [&](serving::TaskExecutor* te,
                                           const serving::ScalingBreakdown&) {
                       ++callbacks;
                       delivered = te;
                     })
                  .ok());

  // Crash the leader mid Scaler-Pre; the 12s stage boundary lands inside the
  // ~10s outage and must park rather than advance.
  sim_.RunUntil(SToNs(5));
  ASSERT_TRUE(manager.CrashControlLeader().ok());
  EXPECT_FALSE(manager.leader_up());
  EXPECT_FALSE(manager.CrashControlLeader().ok());  // already down
  auto during_outage = manager.ScaleUp(request, [](serving::TaskExecutor*,
                                                   const serving::ScalingBreakdown&) {});
  EXPECT_EQ(during_outage.status().code(), StatusCode::kUnavailable);

  sim_.Run();
  EXPECT_TRUE(manager.leader_up());
  EXPECT_EQ(manager.control_epoch(), 1);
  EXPECT_EQ(manager.stats().cm_crashes, 1);
  EXPECT_EQ(manager.stats().cm_failovers, 1);
  EXPECT_GE(manager.stats().deferred_ops, 1);
  EXPECT_GT(manager.stats().cm_outage_total, 0);
  // The pipeline delivered exactly one ready TE — no drop, no double-fire.
  EXPECT_EQ(callbacks, 1);
  ASSERT_NE(delivered, nullptr);
  EXPECT_TRUE(delivered->ready());
  EXPECT_EQ(manager.stats().scale_ups, 1);
  EXPECT_EQ(manager.tes().size(), 1u);
  EXPECT_TRUE(manager.directory().open_pipelines().empty());
}

TEST_F(CtrlStackTest, TeCrashDuringCmOutageDetectedAtTakeover) {
  fleet::Fleet fleet(StackSpec(/*replicas=*/3, MsToNs(1), SToNs(2)));
  sim::Simulator& sim = fleet.sim();
  serving::ClusterManager& manager = fleet.manager();
  serving::JobExecutor& je = fleet.je();
  manager.ReservePrewarmedPods(2);
  manager.ReservePrewarmedTes(2);
  manager.PreloadModelToDram(0, model::ModelSpec::Tiny1B());
  sim.Run();

  // The fleet's wiring re-dispatches on the JE; this handler only records.
  std::vector<serving::TeId> failed_tes;
  manager.AddFailureHandler([&](serving::TeId id) { failed_tes.push_back(id); });
  serving::ScaleRequest replacement;
  replacement.engine = SmallEngine(flowserve::EngineRole::kColocated);
  manager.SetReplacementPolicy(replacement,
                               [&](serving::TaskExecutor* te) { je.AddColocatedTe(te); });

  auto* te = fleet.AddTe(flowserve::EngineRole::kColocated,
                         SmallEngine(flowserve::EngineRole::kColocated));
  const serving::TeId victim = te->id();

  sim.RunUntil(SToNs(1));
  ASSERT_TRUE(manager.CrashControlLeader().ok());
  // The TE dies while no leader is listening: the data plane loses it now,
  // but the report sits in the pod-runtime backlog until takeover.
  auto dropped = manager.CrashTe(victim, serving::CrashKind::kTeShell);
  ASSERT_TRUE(dropped.ok());
  EXPECT_EQ(manager.stats().detections, 0);
  EXPECT_TRUE(failed_tes.empty());

  sim.Run();
  EXPECT_TRUE(manager.leader_up());
  EXPECT_EQ(manager.stats().detections, 1);
  ASSERT_EQ(failed_tes.size(), 1u);
  EXPECT_EQ(failed_tes[0], victim);
  EXPECT_EQ(manager.stats().replacements, 1);
  EXPECT_EQ(manager.stats().mttr_count, 1);
  // MTTR spans crash -> replacement ready, so it covers the outage remainder.
  EXPECT_GT(manager.stats().mttr_total, 0);
  EXPECT_EQ(je.colocated_count(), 1u);  // replacement joined the group
}

TEST_F(CtrlStackTest, SingleReplicaOutageIsPermanentUntilManualRecovery) {
  serving::ClusterManager manager(&sim_, &cluster_, &transfer_);  // degenerate log
  auto* te = manager.CreateReadyTe(SmallEngine(flowserve::EngineRole::kColocated)).value();
  ASSERT_NE(te, nullptr);

  ASSERT_TRUE(manager.CrashControlLeader().ok());
  sim_.RunUntil(SToNs(60));
  EXPECT_FALSE(manager.leader_up());  // no standby: nobody takes over
  EXPECT_EQ(manager.stats().cm_failovers, 0);
  serving::ScaleRequest request;
  request.engine = SmallEngine(flowserve::EngineRole::kColocated);
  EXPECT_EQ(manager.ScaleUp(request, [](serving::TaskExecutor*,
                                        const serving::ScalingBreakdown&) {})
                .status()
                .code(),
            StatusCode::kUnavailable);
  EXPECT_FALSE(manager.StopTe(te->id()).ok());

  manager.RecoverControlLeader();
  EXPECT_TRUE(manager.leader_up());
  EXPECT_EQ(manager.control_epoch(), 1);
  EXPECT_TRUE(manager.StopTe(te->id()).ok());
}

// ---------------- JE leader failover ----------------

TEST_F(CtrlStackTest, JeFailoverLosesNoRequestsAndFiresHandlersExactlyOnce) {
  fleet::Fleet fleet(StackSpec(/*replicas=*/3, MsToNs(1), MsToNs(100)));
  sim::Simulator& sim = fleet.sim();
  serving::JobExecutor& je = fleet.je();
  fleet.AddTes(SmallEngine(flowserve::EngineRole::kColocated), /*colocated=*/2, 0, 0);

  constexpr int kRequests = 12;
  fleet.Submit(Spaced(kRequests, 0, MsToNs(100), 256, 32));
  // Crash mid-stream: some requests in flight (their completions must park),
  // some yet to arrive (they must buffer, then dispatch at takeover).
  sim.ScheduleAt(MsToNs(650), [&] {
    ASSERT_TRUE(je.CrashLeader().ok());
    EXPECT_FALSE(je.leader_up());
    EXPECT_EQ(je.ReadyCapacityWeight(), 0);
    EXPECT_FALSE(je.CrashLeader().ok());  // already down
  });
  sim.Run();

  EXPECT_TRUE(je.leader_up());
  EXPECT_EQ(je.control_epoch(), 1);
  EXPECT_EQ(je.stats().je_crashes, 1);
  EXPECT_EQ(je.stats().je_failovers, 1);
  EXPECT_GT(je.stats().je_outage_total, 0);
  EXPECT_GE(je.stats().queued_arrivals, 1);
  // Zero token loss: every request terminated, each exactly once, none failed.
  EXPECT_EQ(fleet.tally().completed, kRequests);
  EXPECT_EQ(fleet.tally().errored, 0);
  EXPECT_EQ(fleet.tally().double_terminated, 0);
  EXPECT_TRUE(je.table().outstanding().empty());
}

// Bounded-memory soak: a JE on a 3-replica shared log under Poisson traffic
// for `duration_s`, drained, then a JE leader crash at the end.
struct JeSoakResult {
  int64_t appended = 0;        // JE-domain records ever appended
  int64_t retained = 0;        // records the log holds at the crash
  size_t standby_outstanding = 0;
  int64_t tail_at_crash = 0;   // UnreplicatedAt(crash)
  int64_t replayed = 0;        // records the takeover replayed
  int64_t completed = 0;
  int64_t failovers = 0;
};

JeSoakResult RunJeSoak(double duration_s) {
  fleet::Fleet fleet(StackSpec(/*replicas=*/3, MsToNs(5), MsToNs(100)));
  sim::Simulator& sim = fleet.sim();
  serving::JobExecutor& je = fleet.je();
  const ctrl::ControlLog& log = *fleet.ctrl_log();
  fleet.AddTes(SmallEngine(flowserve::EngineRole::kColocated), /*colocated=*/2, 0, 0);

  auto trace_config = workload::TraceGenerator::InternalTrace(2.0, duration_s, /*seed=*/7);
  trace_config.prefill = workload::LengthDistribution{256, 0.3, 32, 1024};
  trace_config.decode = workload::LengthDistribution{32, 0.4, 4, 128};
  JeSoakResult r;
  fleet::ReplayHooks hooks;
  hooks.on_complete = [&r](const workload::RequestSpec&, TimeNs, const flowserve::Sequence&) {
    ++r.completed;
  };
  fleet.Replay(workload::TraceGenerator(trace_config).Generate(), hooks);

  const int32_t domain = je.table().domain();
  r.appended = log.CountDomain(domain);
  r.retained = static_cast<int64_t>(log.records().size());
  r.standby_outstanding =
      static_cast<const ctrl::JobTable*>(log.standby(domain))->outstanding().size();
  r.tail_at_crash = log.UnreplicatedAt(sim.Now());
  EXPECT_TRUE(je.CrashLeader().ok());
  sim.Run();  // takeover: RecoverLeader DS_CHECKs replay == live fingerprints
  r.replayed = je.stats().je_replayed_records;
  r.failovers = je.stats().je_failovers;
  return r;
}

TEST(ControlLogSoakTest, JeLogMemoryIsFlatFromTToFourT) {
  const JeSoakResult t1 = RunJeSoak(60.0);
  const JeSoakResult t4 = RunJeSoak(240.0);
  for (const JeSoakResult* r : {&t1, &t4}) {
    EXPECT_GT(r->completed, 0);
    EXPECT_EQ(r->failovers, 1);
    EXPECT_GE(r->tail_at_crash, 1);
    EXPECT_LE(r->retained, r->tail_at_crash + 1);
    EXPECT_LE(r->replayed, r->tail_at_crash);
  }
  // History grows with the horizon; what the log and its standby hold does not.
  EXPECT_GT(t4.appended, 3 * t1.appended);
  EXPECT_EQ(t4.retained, t1.retained);
  EXPECT_EQ(t4.standby_outstanding, t1.standby_outstanding);
}

TEST_F(CtrlStackTest, TeDeathDuringJeOutageReconciledAtTakeover) {
  fleet::Fleet fleet(StackSpec(/*replicas=*/3, MsToNs(1), MsToNs(200)));
  sim::Simulator& sim = fleet.sim();
  serving::ClusterManager& manager = fleet.manager();
  serving::JobExecutor& je = fleet.je();
  auto* te_a = fleet.AddTe(flowserve::EngineRole::kColocated,
                           SmallEngine(flowserve::EngineRole::kColocated));
  fleet.AddTe(flowserve::EngineRole::kColocated, SmallEngine(flowserve::EngineRole::kColocated));

  constexpr int kRequests = 6;
  fleet.Submit(Spaced(kRequests, MsToNs(80), MsToNs(80), 512, 128));
  sim.ScheduleAt(MsToNs(550), [&] { ASSERT_TRUE(je.CrashLeader().ok()); });
  // The CM leader is alive and kills the TE immediately; the JE's handler
  // (registered by AttachControl) parks the failure until its own takeover.
  sim.ScheduleAt(MsToNs(600), [&] { ASSERT_TRUE(manager.KillTe(te_a->id()).ok()); });
  sim.Run();

  EXPECT_TRUE(je.leader_up());
  EXPECT_EQ(je.stats().je_failovers, 1);
  EXPECT_EQ(je.stats().failed_tes_handled, 1);
  EXPECT_EQ(je.colocated_count(), 1u);  // the dead TE left the group
  // Every request terminated exactly once; lost jobs were re-dispatched to
  // the survivor rather than erroring.
  EXPECT_EQ(fleet.tally().completed, kRequests);
  EXPECT_EQ(fleet.tally().errored, 0);
  EXPECT_EQ(fleet.tally().double_terminated, 0);
  EXPECT_TRUE(je.table().outstanding().empty());
}

TEST_F(CtrlStackTest, SingleReplicaJeCrashFailsOutstandingAndRejectsArrivals) {
  fleet::Fleet fleet(StackSpec());  // private degenerate logs
  sim::Simulator& sim = fleet.sim();
  serving::JobExecutor& je = fleet.je();
  auto* te = fleet.AddTe(flowserve::EngineRole::kColocated,
                         SmallEngine(flowserve::EngineRole::kColocated));

  int completed = 0;
  std::vector<StatusCode> errors;
  for (int i = 1; i <= 3; ++i) {
    je.HandleRequest(MakeRequest(i, 1024, 256),
                     {nullptr, [&](const flowserve::Sequence&) { ++completed; },
                      [&](const Status& status) { errors.push_back(status.code()); }});
  }
  sim.RunUntil(MsToNs(300));  // all in flight
  ASSERT_TRUE(je.CrashLeader().ok());
  EXPECT_FALSE(je.leader_up());
  // No standby: every outstanding job severed immediately, engine side too.
  ASSERT_EQ(errors.size(), 3u);
  for (StatusCode code : errors) EXPECT_EQ(code, StatusCode::kUnavailable);
  EXPECT_TRUE(je.table().outstanding().empty());

  // Subsequent arrivals are rejected synchronously.
  je.HandleRequest(MakeRequest(9, 64, 8),
                   {nullptr, [&](const flowserve::Sequence&) { ++completed; },
                    [&](const Status& status) { errors.push_back(status.code()); }});
  ASSERT_EQ(errors.size(), 4u);
  EXPECT_EQ(errors.back(), StatusCode::kUnavailable);

  sim.Run();
  EXPECT_EQ(completed, 0);
  EXPECT_EQ(je.stats().deferred_ops, 0);  // nothing parks: no takeover will come
  EXPECT_TRUE(te->engine().idle());  // severed sequences were cancelled
  EXPECT_EQ(je.stats().je_crashes, 1);
  EXPECT_EQ(je.stats().je_failovers, 0);
  EXPECT_FALSE(je.leader_up());
}

// ---------------- JE completion paths ----------------

// What a JE handler was handed: the Sequence object, its progress, and when
// the call came.
struct SeqView {
  const flowserve::Sequence* address = nullptr;
  const workload::RequestSpec* request = nullptr;
  int64_t generated = 0;
  TimeNs first_token_time = 0;
  TimeNs finish_time = 0;
  TimeNs delivered = -1;

  SeqView() = default;
  SeqView(const flowserve::Sequence& seq, TimeNs now)
      : address(&seq), request(seq.request.spec.get()), generated(seq.generated),
        first_token_time(seq.first_token_time), finish_time(seq.finish_time), delivered(now) {}
};

TEST_F(CtrlStackTest, LeaderUpHandlersSeeTheEnginesLiveSequence) {
  fleet::Fleet fleet(StackSpec(/*replicas=*/3, MsToNs(1), MsToNs(100)));
  sim::Simulator& sim = fleet.sim();
  serving::JobExecutor& je = fleet.je();
  fleet.AddTe(flowserve::EngineRole::kColocated, SmallEngine(flowserve::EngineRole::kColocated));

  SeqView first;
  SeqView done;
  je.HandleRequest(MakeRequest(1, 256, 16),
                   {[&](const flowserve::Sequence& seq) { first = SeqView(seq, sim.Now()); },
                    [&](const flowserve::Sequence& seq) { done = SeqView(seq, sim.Now()); },
                    nullptr});
  sim.Run();
  ASSERT_GE(done.delivered, 0);
  // The completion wrapper calls through with the engine's own Sequence —
  // the object the first token came from — not a copy.
  EXPECT_EQ(done.address, first.address);
  EXPECT_EQ(first.first_token_time, first.delivered);
  EXPECT_EQ(done.first_token_time, first.delivered);
  EXPECT_EQ(done.generated, 16);
  EXPECT_EQ(done.finish_time, done.delivered);
  EXPECT_EQ(je.stats().deferred_ops, 0);
}

TEST_F(CtrlStackTest, LeaderUpPdHandlersSeeLiveSequencesSharingOneRequest) {
  fleet::Fleet fleet(StackSpec(/*replicas=*/3, MsToNs(1), MsToNs(100)));
  sim::Simulator& sim = fleet.sim();
  serving::JobExecutor& je = fleet.je();
  fleet.AddTes(SmallEngine(flowserve::EngineRole::kColocated), 0, /*prefill=*/1, /*decode=*/1);
  fleet.Link();

  SeqView first;
  SeqView done;
  const workload::RequestSpec* outstanding = nullptr;
  je.HandleRequest(MakeRequest(1, 256, 16),
                   {[&](const flowserve::Sequence& seq) {
                      first = SeqView(seq, sim.Now());
                      outstanding = je.table().outstanding().begin()->second.request.get();
                    },
                    [&](const flowserve::Sequence& seq) { done = SeqView(seq, sim.Now()); },
                    nullptr});
  sim.Run();
  ASSERT_GE(done.delivered, 0);
  EXPECT_EQ(je.stats().routed_disaggregated, 1);
  // The prefill TE's first token and the decode TE's completion arrive live…
  EXPECT_EQ(first.first_token_time, first.delivered);
  EXPECT_EQ(done.generated, 16);
  EXPECT_EQ(done.finish_time, done.delivered);
  // …from two Sequences holding the one request the job table holds.
  EXPECT_EQ(first.request, outstanding);
  EXPECT_EQ(done.request, outstanding);
}

// One request on a colocated TE behind a 3-replica log; with `crash`, the JE
// leader crashes right after the first token, so the completion lands
// during the outage.
SeqView CompleteAcrossJeCrash(bool crash) {
  fleet::Fleet fleet(StackSpec(/*replicas=*/3, MsToNs(1), SToNs(1)));
  sim::Simulator& sim = fleet.sim();
  serving::JobExecutor& je = fleet.je();
  fleet.AddTe(flowserve::EngineRole::kColocated, SmallEngine(flowserve::EngineRole::kColocated));
  SeqView done;
  je.HandleRequest(MakeRequest(1, 256, 16),
                   {[&](const flowserve::Sequence&) {
                      if (crash) {
                        sim.ScheduleAfter(0, [&] { ASSERT_TRUE(je.CrashLeader().ok()); });
                      }
                    },
                    [&](const flowserve::Sequence& seq) { done = SeqView(seq, sim.Now()); },
                    [](const Status& status) { ADD_FAILURE() << status.ToString(); }});
  sim.Run();
  EXPECT_EQ(je.stats().je_failovers, crash ? 1 : 0);
  EXPECT_EQ(je.stats().deferred_ops > 0, crash);
  return done;
}

TEST_F(CtrlStackTest, LeaderDownCompletionDeliversItsSnapshotAtTakeover) {
  const SeqView live = CompleteAcrossJeCrash(/*crash=*/false);
  const SeqView parked = CompleteAcrossJeCrash(/*crash=*/true);
  ASSERT_GE(live.delivered, 0);
  ASSERT_GE(parked.delivered, 0);
  // Delivered after takeover, with the values the engine set at completion.
  EXPECT_GT(parked.delivered, parked.finish_time);
  EXPECT_EQ(parked.generated, live.generated);
  EXPECT_EQ(parked.first_token_time, live.first_token_time);
  EXPECT_EQ(parked.finish_time, live.finish_time);
}

// ---------------- Record stream pin ----------------

// A replication latency no run here reaches: nothing leaves the window, so
// records() is the log's whole history.
constexpr DurationNs kNoFold = SToNs(1e6);

// One record as "<time_ns> <kind> <operands...>"; a JobCreated names its
// request as req=<id>.
std::string Render(const ctrl::LogRecord& record) {
  std::string out = std::to_string(record.time);
  auto put = [&out](const char* kind, std::initializer_list<int64_t> operands,
                    const std::vector<hw::NpuId>& npus = {}) {
    out += std::string(" ") + kind;
    for (int64_t operand : operands) out += " " + std::to_string(operand);
    for (hw::NpuId npu : npus) out += " " + std::to_string(npu);
  };
  auto id = [](auto value) { return static_cast<int64_t>(value); };
  std::visit(ctrl::Overloaded{
                 [&](const ctrl::DirectoryInit& op) { put("DirectoryInit", {op.num_npus}); },
                 [&](const ctrl::PodsReserved& op) { put("PodsReserved", {op.count}); },
                 [&](const ctrl::WarmTesReserved& op) { put("WarmTesReserved", {op.count}); },
                 [&](const ctrl::NpusAllocated& op) { put("NpusAllocated", {}, op.npus); },
                 [&](const ctrl::NpusReleased& op) { put("NpusReleased", {}, op.npus); },
                 [&](const ctrl::TeCreated& op) { put("TeCreated", {op.te}, op.npus); },
                 [&](const ctrl::PipelineStarted& op) {
                   put("PipelineStarted", {op.pipe, op.te}, op.npus);
                 },
                 [&](const ctrl::PodsConsumed& op) { put("PodsConsumed", {op.count}); },
                 [&](const ctrl::WarmTesConsumed& op) { put("WarmTesConsumed", {op.count}); },
                 [&](const ctrl::StageDone& op) { put("StageDone", {op.pipe, op.stage}); },
                 [&](const ctrl::PipelineDone& op) { put("PipelineDone", {op.pipe}); },
                 [&](const ctrl::PipelineAborted& op) { put("PipelineAborted", {op.pipe}); },
                 [&](const ctrl::TeStopped& op) { put("TeStopped", {op.te}); },
                 [&](const ctrl::TeCrashed& op) { put("TeCrashed", {op.te, op.kind, op.time}); },
                 [&](const ctrl::TeDetected& op) { put("TeDetected", {op.te}); },
                 [&](const ctrl::TeAdded& op) { put("TeAdded", {id(op.group), op.te}); },
                 [&](const ctrl::TeRemoved& op) { put("TeRemoved", {op.te}); },
                 [&](const ctrl::JobCreated& op) {
                   put("JobCreated", {id(op.job), op.retries});
                   out += " req=" + std::to_string(op.request->id);
                 },
                 [&](const ctrl::JobTeBound& op) { put("JobTeBound", {id(op.job), op.te}); },
                 [&](const ctrl::TaskCreated& op) {
                   put("TaskCreated", {id(op.task), id(op.job), id(op.type), op.te});
                 },
                 [&](const ctrl::TaskCompleted& op) { put("TaskCompleted", {id(op.task)}); },
                 [&](const ctrl::JobCompleted& op) { put("JobCompleted", {id(op.job)}); },
                 [&](const ctrl::JobFailed& op) { put("JobFailed", {id(op.job)}); },
                 [&](const ctrl::RrAdvanced&) { put("RrAdvanced", {}); },
                 [&](const ctrl::Epoch&) { put("Epoch", {}); },
             },
             record.op);
  return out;
}

std::vector<std::string> Stream(const ctrl::ControlLog& log) {
  std::vector<std::string> lines;
  for (const ctrl::LogRecord& record : log.records()) {
    lines.push_back(Render(record));
  }
  return lines;
}

// Each scenario's whole record stream: kinds, operands, order and append
// times. Failover delays and MTTRs count these records, so any drift here
// moves timelines. Together the scenarios append every record kind.
TEST(RecordStreamTest, ColocatedDispatch) {
  fleet::Fleet fleet(StackSpec(/*replicas=*/3, kNoFold));
  fleet.AddTe(flowserve::EngineRole::kColocated, SmallEngine(flowserve::EngineRole::kColocated));
  ASSERT_EQ(fleet.Replay({MakeRequest(1, 64, 4)}).completed(), 1u);
  const std::vector<std::string> got = Stream(*fleet.ctrl_log());
  EXPECT_EQ(got, (std::vector<std::string>{
                     "0 DirectoryInit 24",
                     "0 NpusAllocated 0",
                     "0 TeCreated 1 0",
                     "0 TeAdded 0 1",
                     "0 JobCreated 1 0 req=1",
                     "0 JobTeBound 1 1",
                     "0 TaskCreated 1 1 0 1",
                     "0 RrAdvanced",
                     "10165874 TaskCompleted 1",
                     "10165874 JobCompleted 1",
                 }));
}

TEST(RecordStreamTest, PdDispatch) {
  fleet::Fleet fleet(StackSpec(/*replicas=*/3, kNoFold));
  fleet.AddTes(SmallEngine(flowserve::EngineRole::kColocated), 0, /*prefill=*/1, /*decode=*/1);
  fleet.Link();
  ASSERT_EQ(fleet.Replay({MakeRequest(1, 64, 4)}).completed(), 1u);
  const std::vector<std::string> got = Stream(*fleet.ctrl_log());
  EXPECT_EQ(got, (std::vector<std::string>{
                     "0 DirectoryInit 24",
                     "0 NpusAllocated 0",
                     "0 TeCreated 1 0",
                     "0 TeAdded 1 1",
                     "0 NpusAllocated 1",
                     "0 TeCreated 2 1",
                     "0 TeAdded 2 2",
                     "0 JobCreated 1 0 req=1",
                     "0 JobTeBound 1 1",
                     "0 JobTeBound 1 2",
                     "0 TaskCreated 1 1 1 1",
                     "0 TaskCreated 2 1 2 2",
                     "0 RrAdvanced",
                     "2599347 TaskCompleted 1",
                     "10192331 JobCompleted 1",
                 }));
}

TEST(RecordStreamTest, CrashRedispatch) {
  fleet::Fleet fleet(StackSpec(/*replicas=*/3, kNoFold));
  fleet.AddTes(SmallEngine(flowserve::EngineRole::kColocated), /*colocated=*/2, 0, 0);
  fleet.Submit({MakeRequest(1, 64, 64)});
  fleet.sim().ScheduleAt(MsToNs(20), [&] {
    const serving::TeId victim = fleet.je().table().outstanding().begin()->second.tes[0];
    ASSERT_TRUE(fleet.manager().KillTe(victim).ok());
  });
  fleet.sim().Run();
  EXPECT_EQ(fleet.tally().completed, 1);
  ASSERT_TRUE(fleet.je().CrashLeader().ok());
  fleet.je().RecoverLeader();
  const std::vector<std::string> got = Stream(*fleet.ctrl_log());
  EXPECT_EQ(got, (std::vector<std::string>{
                     "0 DirectoryInit 24",
                     "0 NpusAllocated 0",
                     "0 TeCreated 1 0",
                     "0 TeAdded 0 1",
                     "0 NpusAllocated 1",
                     "0 TeCreated 2 1",
                     "0 TeAdded 0 2",
                     "0 JobCreated 1 0 req=1",
                     "0 JobTeBound 1 1",
                     "0 TaskCreated 1 1 0 1",
                     "0 RrAdvanced",
                     "20000000 TeCrashed 1 1 20000000",
                     "20000000 TeDetected 1",
                     "20000000 NpusReleased 0",
                     "20000000 TeRemoved 1",
                     "20000000 JobFailed 1",
                     "20000000 JobCreated 2 1 req=1",
                     "20000000 JobTeBound 2 2",
                     "20000000 TaskCreated 2 2 0 2",
                     "20000000 RrAdvanced",
                     "181544794 TaskCompleted 2",
                     "181544794 JobCompleted 2",
                     "181544794 Epoch",
                 }));
}

TEST_F(CtrlStackTest, RecordStreamScaleUpPipeline) {
  ctrl::CtrlConfig config;
  config.replicas = 3;
  config.quorum = 2;
  config.replication_latency = kNoFold;
  ctrl::ControlLog log(&sim_, config);
  serving::ClusterManager manager(&sim_, &cluster_, &transfer_, {}, {}, &log);
  manager.ReservePrewarmedPods(3);
  manager.ReservePrewarmedTes(1);
  auto* source = manager.CreateReadyTe(SmallEngine(flowserve::EngineRole::kColocated)).value();
  serving::ScaleRequest request;
  request.engine = SmallEngine(flowserve::EngineRole::kColocated);
  serving::TaskExecutor* scaled = nullptr;
  ASSERT_TRUE(manager.ScaleUp(request, [&](serving::TaskExecutor* te,
                                           const serving::ScalingBreakdown&) { scaled = te; })
                  .ok());
  sim_.Run();
  ASSERT_NE(scaled, nullptr);
  request.fork_source = source->id();
  std::vector<serving::TaskExecutor*> forked;
  ASSERT_TRUE(manager
                  .ScaleUpMany(request, 2,
                               [&](std::vector<serving::TaskExecutor*> tes, DurationNs) {
                                 forked = std::move(tes);
                               })
                  .ok());
  sim_.Run();
  ASSERT_EQ(forked.size(), 2u);
  auto aborted = manager.ScaleUp(request, [](serving::TaskExecutor*,
                                             const serving::ScalingBreakdown&) {});
  ASSERT_TRUE(aborted.ok());
  sim_.RunUntil(sim_.Now() + SToNs(1));
  ASSERT_TRUE(manager.KillTe(aborted.value()).ok());
  ASSERT_TRUE(manager.StopTe(forked[0]->id()).ok());
  ASSERT_TRUE(manager.CrashTe(forked[1]->id(), serving::CrashKind::kNpu).ok());
  sim_.Run();
  ASSERT_TRUE(manager.CrashControlLeader().ok());
  manager.RecoverControlLeader();
  const std::vector<std::string> got = Stream(log);
  EXPECT_EQ(got, (std::vector<std::string>{
                     "0 DirectoryInit 24",
                     "0 PodsReserved 3",
                     "0 WarmTesReserved 1",
                     "0 NpusAllocated 0",
                     "0 TeCreated 1 0",
                     "0 NpusAllocated 1",
                     "0 PipelineStarted 1 2 1",
                     "0 PodsConsumed 1",
                     "500000000 StageDone 1 1",
                     "500000000 WarmTesConsumed 1",
                     "900000000 StageDone 1 2",
                     "1812566707 StageDone 1 3",
                     "2262566707 StageDone 1 4",
                     "2362566707 PipelineDone 1",
                     "2362566707 PodsConsumed 2",
                     "19349918926 NpusAllocated 2",
                     "19349918926 TeCreated 3 2",
                     "19349918926 NpusAllocated 3",
                     "19349918926 TeCreated 4 3",
                     "19349918926 NpusAllocated 4",
                     "19349918926 PipelineStarted 2 5 4",
                     "20349918926 PipelineAborted 2",
                     "20349918926 NpusReleased 4",
                     "20349918926 TeStopped 3",
                     "20349918926 NpusReleased 2",
                     "20349918926 TeCrashed 4 0 20349918926",
                     "22000000000 TeDetected 4",
                     "22000000000 NpusReleased 3",
                     "31349918926 Epoch",
                 }));
}

// ---------------- Golden parity: degenerate log == pre-log tree ----------------

struct GoldenRow {
  uint64_t seed;
  int64_t completed;
  int64_t errored;
  int64_t crashes;
  int64_t replacements;
  int64_t scale_ups;
  int64_t scale_downs;
  int64_t end_time;
  uint64_t timeline_hash;
  uint64_t metrics_fp;
};

// Captured from the pre-refactor tree (before control-plane state moved onto
// the log) by running this exact scenario. The degenerate single-replica
// zero-latency log MUST reproduce these bit-for-bit: any event-stream drift
// in the refactor shows up as a hash mismatch here.
constexpr GoldenRow kGolden[] = {
    {11ull, 58, 0, 2, 2, 6, 6, 40560063275ll, 0xfddb339fbba5727cull, 0xb344e94c032cf0d1ull},
    {23ull, 68, 0, 1, 1, 3, 3, 40560063275ll, 0x662823d88727037bull, 0xeb2254c033da04c5ull},
    {47ull, 63, 0, 3, 3, 8, 4, 46062566707ll, 0x4d6ea56212654424ull, 0xff986b5e5a6e85dbull},
};

GoldenRow RunGoldenStack(uint64_t seed) {
  obs::MetricsRegistry metrics;
  fleet::Fleet fleet(StackSpec(), {nullptr, &metrics});
  sim::Simulator& sim = fleet.sim();
  serving::ClusterManager& manager = fleet.manager();
  serving::JobExecutor& je = fleet.je();
  manager.ReservePrewarmedPods(6);
  manager.ReservePrewarmedTes(6);
  for (int m = 0; m < fleet.cluster().num_machines(); ++m) {
    manager.PreloadModelToDram(m, model::ModelSpec::Tiny1B());
  }
  sim.Run();

  serving::ScaleRequest replacement;
  replacement.engine = SmallEngine(flowserve::EngineRole::kColocated);
  manager.SetReplacementPolicy(replacement,
                               [&](serving::TaskExecutor* te) { je.AddColocatedTe(te); });
  fleet.AddTes(SmallEngine(flowserve::EngineRole::kColocated), /*colocated=*/1, /*prefill=*/1,
               /*decode=*/1);
  fleet.Link();

  serving::AutoscalerConfig as;
  as.policy = "predictive";
  as.check_interval = MsToNs(500);
  as.scale_up_queue_depth = 4;
  as.scale_down_queue_depth = 1;
  as.min_tes = 1;
  as.max_tes = 3;
  as.te_capacity_rps = 2.0;
  as.down_stable_ticks = 3;
  serving::ScaleRequest request;
  request.engine = SmallEngine(flowserve::EngineRole::kColocated);
  manager.StartAutoscaler(&je, as, request);

  faults::FaultInjector injector(&sim, &manager, seed);
  faults::FaultPlanConfig plan;
  plan.count = 5;
  plan.window_start = SToNs(2);
  plan.window_end = SToNs(25);
  injector.ScheduleAll(faults::FaultInjector::GeneratePlan(seed, plan));

  auto trace_config = workload::TraceGenerator::InternalTrace(2.0, 30.0, seed);
  trace_config.prefill = workload::LengthDistribution{512, 0.3, 64, 2048};
  trace_config.decode = workload::LengthDistribution{64, 0.4, 8, 256};
  auto trace =
      workload::TraceGenerator(trace_config).GenerateBursty(0.5, 6.0, 12.0, /*sharpness=*/3.0);
  const TimeNs t0 = sim.Now();

  GoldenRow row{};
  row.seed = seed;
  uint64_t hash = 1469598103934665603ull;
  auto mix = [&hash](uint64_t v) {
    hash ^= v;
    hash *= 1099511628211ull;
  };
  for (auto& spec : trace) {
    spec.arrival += t0;
  }
  fleet::ReplayHooks hooks;
  hooks.on_complete = [&](const workload::RequestSpec& spec, TimeNs,
                          const flowserve::Sequence& seq) {
    mix(spec.id);
    mix(static_cast<uint64_t>(seq.first_token_time));
    mix(static_cast<uint64_t>(seq.finish_time));
  };
  hooks.on_error = [&](const workload::RequestSpec& spec, const Status&) { mix(spec.id * 2 + 1); };
  fleet.Submit(trace, hooks);
  sim.RunUntil(t0 + SToNs(40));
  manager.StopAutoscaler();
  sim.Run();

  row.completed = fleet.tally().completed;
  row.errored = fleet.tally().errored;
  row.crashes = manager.stats().crashes;
  row.replacements = manager.stats().replacements;
  row.scale_ups = manager.stats().scale_ups;
  row.scale_downs = manager.stats().scale_downs;
  row.end_time = sim.Now();
  row.timeline_hash = hash;
  row.metrics_fp = metrics.Fingerprint();
  return row;
}

TEST(CtrlParityTest, DegenerateLogMatchesPreLogGoldensAcrossThreeSeeds) {
  for (const GoldenRow& want : kGolden) {
    const GoldenRow got = RunGoldenStack(want.seed);
    EXPECT_EQ(got.completed, want.completed) << "seed " << want.seed;
    EXPECT_EQ(got.errored, want.errored) << "seed " << want.seed;
    EXPECT_EQ(got.crashes, want.crashes) << "seed " << want.seed;
    EXPECT_EQ(got.replacements, want.replacements) << "seed " << want.seed;
    EXPECT_EQ(got.scale_ups, want.scale_ups) << "seed " << want.seed;
    EXPECT_EQ(got.scale_downs, want.scale_downs) << "seed " << want.seed;
    EXPECT_EQ(got.end_time, want.end_time) << "seed " << want.seed;
    EXPECT_EQ(got.timeline_hash, want.timeline_hash) << "seed " << want.seed;
    EXPECT_EQ(got.metrics_fp, want.metrics_fp) << "seed " << want.seed;
  }
}

}  // namespace
}  // namespace deepserve
