// simbench: the serving-simulator benchmark.
//
// Replays one open-loop workload through the real serving stack (Frontend /
// JobExecutor / TaskExecutors / FlowServe engines / RTC / DistFlow / control
// log / fault injector) and reports two kinds of numbers:
//   * the simulated system: TTFT, TPOT, SLO attainment and goodput, in
//     simulated time;
//   * the simulator itself: host seconds, events and memory per replay.
// Every layer is measured from outside: the benchmark times its own calls
// into public entry points and reads each layer's public stats afterwards.
//
//   simbench --workload=NAME --seed=N --seconds=S --trace=0|1 [--spans-out=PATH]
//
// --trace=0 replays (set-up included) every episode of the workload once, then
// repeats episodes round-robin until S host seconds have passed (at least
// four replays), and prints the end-to-end metrics: simulated figures pool
// the episodes' first replays; host figures are medians over all replays but
// the process's first, in reference seconds (see SpeedProbe), and set-up is
// timed at least kMinSetups times.
// --trace=1 repeats (untraced, traced) replay pairs of episode 0, at least
// once, and prints the per-layer metrics; the traced replay drives
// Simulator::Step() and charges each step's host time to the trace track of
// the first event the step recorded, and --spans-out receives per-request
// sim-time spans as JSONL.
//
// Correctness gate, on every replay: each request terminates at most once and
// completed + errored + rejected + hung == attempted; every arrival fires at
// exactly its due sim time (generator lag 0); every completion satisfies
// arrival <= first token <= completion; repetitions and the traced replay
// reproduce the untraced replay's simulated figures and timeline hash bit for
// bit. Any violation prints "correct": false and exits 1.
//
// The last stdout line is one JSON object with the keys correct, attempted,
// failed and metrics.

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/time_units.h"
#include "ctrl/control_log.h"
#include "distflow/distflow.h"
#include "faults/fault_injector.h"
#include "hw/cluster.h"
#include "obs/trace.h"
#include "serving/cluster_manager.h"
#include "serving/frontend.h"
#include "serving/job_executor.h"
#include "serving/predictor.h"
#include "serving/task_executor.h"
#include "sim/simulator.h"
#include "workload/metrics.h"
#include "workload/tracegen.h"

using namespace deepserve;

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ---- host speed ----------------------------------------------------------------

// The speed of a shared host drifts by tens of percent over seconds to
// minutes as other tenants contend for its cores, caches and memory. Host
// figures are therefore reported in reference seconds: wall time scaled by
// how much slower than its reference time a fixed probe ran beside it. The
// probe is the kind of work that dominates the simulator: lookups, inserts
// and erases in a node-based tree larger than the private caches, with the
// allocator churn they bring, and a sort. The simulator slows down more than
// the probe: over repeated replays of one trace on a 4-core Xeon VM, log
// replay time against log probe time had slope 1.8 on long_horizon and
// decode_unshared and 1.25 on chaos_pd (r^2 0.80-0.92), so the scale is the
// probe's slow-down to the power kSensitivity.
class SpeedProbe {
 public:
  SpeedProbe() {
    for (int i = 0; i < kNodes; ++i) {
      tree_.emplace(Next() >> 16, static_cast<uint64_t>(i));
    }
    // Scatter the nodes over the heap before the first timing, as churn
    // leaves them; from then on every probe works on a tree of the same shape.
    for (int i = 0; i < 4 * kNodes; ++i) {
      Churn();
    }
  }

  // Host seconds of one probe.
  double Seconds() {
    const Clock::time_point start = Clock::now();
    for (int i = 0; i < kChurns; ++i) {
      Churn();
    }
    uint64_t x = 7;
    for (uint64_t& v : sorted_) {
      x = x * kMul + kInc;
      v = x;
    }
    std::sort(sorted_.begin(), sorted_.end());
    sink_ += sorted_[kSorted / 2];
    const double seconds = SecondsSince(start);
    history_.push_back(seconds);
    return seconds;
  }

  // Every probe so far, in host seconds.
  const std::vector<double>& history() const { return history_; }

  // Reference seconds of `seconds` of host time that ran between two probes.
  static double Scale(double seconds, double probe_before, double probe_after) {
    return seconds *
           std::pow(kReferenceSeconds / (0.5 * (probe_before + probe_after)), kSensitivity);
  }

 private:
  static constexpr int kNodes = 1 << 16;
  static constexpr int kChurns = 2000;
  static constexpr size_t kSorted = 16384;
  static constexpr uint64_t kMul = 6364136223846793005ull;
  static constexpr uint64_t kInc = 1442695040888963407ull;
  // The probe's time on a quiet 4-core 2.1 GHz Xeon VM, so that reference
  // seconds read close to wall seconds there.
  static constexpr double kReferenceSeconds = 0.003;
  static constexpr double kSensitivity = 1.5;

  uint64_t Next() {
    state_ = state_ * kMul + kInc;
    return state_;
  }

  // One lookup; every fourth moves the found entry to a fresh key.
  void Churn() {
    const uint64_t key = Next() >> 16;
    auto it = tree_.lower_bound(key);
    if (it == tree_.end()) {
      return;
    }
    sink_ += it->second;
    if ((key & 3) == 0) {
      const uint64_t value = it->second;
      tree_.erase(it);
      tree_.emplace(Next() >> 16, value);
    }
  }

  std::map<uint64_t, uint64_t> tree_;
  std::vector<uint64_t> sorted_ = std::vector<uint64_t>(kSorted);
  uint64_t state_ = 1;
  uint64_t sink_ = 0;
  std::vector<double> history_;
};

// Untraced replays run in slices of about this much host time, each followed
// by a probe.
constexpr double kSliceSeconds = 0.1;
constexpr size_t kEventsPerCheck = 256;
// Set-up is timed at least this many times per run (extra set-ups when the
// replays alone give fewer).
constexpr size_t kMinSetups = 15;

// The SLO limits fig04_online_serving uses.
constexpr double kTtftSloMs = 800.0;
constexpr double kTpotSloMs = 35.0;
constexpr int kMinTimedReplays = 3;
// Fault targets (seeded picks among live TEs and machines) come from this
// fixed injector seed, so every workload seed meets the same failures and
// the workload seed varies the traffic alone.
constexpr uint64_t kFaultSeed = 42;

// ---- workloads ---------------------------------------------------------------

struct Workload {
  std::string name;
  std::string shape;  // one-line load description for the report
  model::ModelSpec model;
  int tp = 4;
  int colocated = 0;
  int prefill = 0;
  int decode = 0;
  workload::TraceConfig trace;
  // Diurnal-thinned arrivals between trace.rps and diurnal_peak_rps over one
  // diurnal_period_s cycle; 0 = homogeneous Poisson at trace.rps.
  double diurnal_peak_rps = 0.0;
  double diurnal_period_s = 0.0;
  bool frontend = false;       // route through a Frontend instead of the JE
  int ctrl_replicas = 1;       // >1: CM + JE share a replicated ControlLog
  std::string fault_schedule;  // relative to trace start; empty = no faults
  // Independent traces per run, pooled for the simulated metrics (episode k
  // of workload seed s is traced from seed s * episodes + k).
  int episodes = 1;
};

Workload LongHorizon(uint64_t seed) {
  Workload w;
  w.name = "long_horizon";
  w.shape = "open loop, Poisson 4 rps x 1920 s, internal trace, 8 colocated Yi-34B TP4 Gen2 TEs";
  w.model = model::ModelSpec::Yi34B();
  w.colocated = 8;
  w.trace = workload::TraceGenerator::InternalTrace(4.0, 1920.0, seed);
  return w;
}

Workload DecodeUnshared(uint64_t seed) {
  Workload w;
  w.name = "decode_unshared";
  w.shape =
      "open loop, Poisson 8 rps x 1200 s, unshared ~256-token prompts, ~1024-token outputs, "
      "32 colocated Llama3-8B TP1 Gen2 TEs";
  w.model = model::ModelSpec::Llama3_8B();
  w.tp = 1;
  w.colocated = 32;
  workload::TraceConfig& t = w.trace;
  t.rps = 8.0;
  t.duration_s = 1200.0;
  t.prefill = workload::LengthDistribution{256, 0.3, 64, 1024};
  t.decode = workload::LengthDistribution{1024, 0.3, 256, 4096};
  t.prefix_pool_size = 0;
  t.seed = seed;
  return w;
}

Workload ChaosPd(uint64_t seed) {
  Workload w;
  w.name = "chaos_pd";
  w.shape =
      "open loop, diurnal 2->8 rps x 600 s, internal trace, Frontend -> JE on a 3-replica "
      "control log, 2 colocated + 2P/2D Yi-34B TP4 Gen2 TEs, 6 faults";
  w.model = model::ModelSpec::Yi34B();
  w.colocated = 2;
  w.prefill = 2;
  w.decode = 2;
  w.trace = workload::TraceGenerator::InternalTrace(2.0, 600.0, seed);
  w.diurnal_peak_rps = 8.0;
  w.diurnal_period_s = 600.0;
  w.frontend = true;
  w.ctrl_replicas = 3;
  w.fault_schedule = "cm@60;npu@90;je@150:0;slow@200:3x30;link@240:0.25x20;npu@300";
  // TTFT p99 sits among the few dozen requests the faults delay, so one
  // trace's p99 swings with where its arrivals fall; pooling episodes
  // steadies it.
  w.episodes = 16;
  return w;
}

bool MakeWorkload(const std::string& name, uint64_t seed, Workload* out) {
  if (name == "long_horizon") {
    *out = LongHorizon(seed);
  } else if (name == "decode_unshared") {
    *out = DecodeUnshared(seed);
  } else if (name == "chaos_pd") {
    *out = ChaosPd(seed);
  } else {
    return false;
  }
  return true;
}

std::vector<workload::RequestSpec> GenerateTrace(const Workload& w) {
  workload::TraceGenerator generator(w.trace);
  if (w.diurnal_peak_rps > 0) {
    return generator.GenerateBursty(w.trace.rps, w.diurnal_peak_rps, w.diurnal_period_s);
  }
  return generator.Generate();
}

// ---- the serving stack -----------------------------------------------------------

// One serving stack, wired through public constructors the way deepserve_sim
// and the failover benches wire theirs. Construction includes fleet creation
// and pre-trace settling (link setup, DRAM preload), so it is set-up time.
class Stack {
 public:
  Stack(const Workload& w, uint64_t seed, obs::Tracer* tracer) : w_(w) {
    sim_.SetTracer(tracer);
    const int tes = w.colocated + w.prefill + w.decode;
    hw::ClusterConfig cluster_config;
    cluster_config.npu_spec = hw::NpuSpec::Gen2();
    // One spare machine when faults need room for replacement TEs.
    cluster_config.num_machines =
        (tes * w.tp + cluster_config.npus_per_machine - 1) / cluster_config.npus_per_machine +
        (w.fault_schedule.empty() ? 0 : 1);
    cluster_config.machines_per_scaleup_domain = std::max(4, cluster_config.num_machines);
    cluster_ = std::make_unique<hw::Cluster>(&sim_, cluster_config);
    transfer_ = std::make_unique<distflow::TransferEngine>(&sim_, cluster_.get(),
                                                           distflow::DistFlowConfig{});
    if (w.ctrl_replicas > 1) {
      ctrl::CtrlConfig ctrl_config;
      ctrl_config.replicas = w.ctrl_replicas;
      ctrl_config.quorum = w.ctrl_replicas / 2 + 1;
      ctrl_log_ = std::make_unique<ctrl::ControlLog>(&sim_, ctrl_config);
    }
    manager_ = std::make_unique<serving::ClusterManager>(
        &sim_, cluster_.get(), transfer_.get(), serving::ScalingOptimizations{},
        serving::ScalingLatencyModel{}, ctrl_log_.get());
    je_ = std::make_unique<serving::JobExecutor>(&sim_, serving::JeConfig{},
                                                 serving::PdHeatmap::Default(),
                                                 serving::MakeNoisyPredictor(0.9, seed));
    if (ctrl_log_ != nullptr) {
      // Before any TE exists; also registers the JE's TE-failure handler.
      je_->AttachControl(ctrl_log_.get(), manager_.get());
    } else {
      manager_->AddFailureHandler([je = je_.get()](serving::TeId id) { je->OnTeFailure(id); });
    }

    engine_.model = w.model;
    engine_.npu_spec = cluster_config.npu_spec;
    engine_.parallelism = {w.tp, 1, 1};
    std::vector<distflow::EndpointId> endpoints;
    auto add = [&](flowserve::EngineRole role, int count) {
      engine_.role = role;
      for (int i = 0; i < count; ++i) {
        auto te = manager_->CreateReadyTe(engine_);
        if (!te.ok()) {
          std::fprintf(stderr, "fleet construction failed: %s\n",
                       te.status().ToString().c_str());
          std::exit(1);
        }
        endpoints.push_back((*te)->id());
        switch (role) {
          case flowserve::EngineRole::kColocated:
            je_->AddColocatedTe(*te);
            break;
          case flowserve::EngineRole::kPrefillOnly:
            je_->AddPrefillTe(*te);
            break;
          case flowserve::EngineRole::kDecodeOnly:
            je_->AddDecodeTe(*te);
            break;
        }
      }
    };
    add(flowserve::EngineRole::kColocated, w.colocated);
    add(flowserve::EngineRole::kPrefillOnly, w.prefill);
    add(flowserve::EngineRole::kDecodeOnly, w.decode);
    engine_.role = flowserve::EngineRole::kColocated;
    if (!transfer_->LinkCluster(endpoints, nullptr).ok()) {
      std::fprintf(stderr, "DistFlow link setup failed\n");
      std::exit(1);
    }

    if (!w.fault_schedule.empty()) {
      serving::FaultDetectionConfig detection;
      detection.missed_heartbeats = 3;
      detection.heartbeat_interval = MsToNs(500);
      manager_->SetFaultDetection(detection);
      // Crashed TEs of any role come back as colocated TEs.
      manager_->SetReplacementPolicy(
          serving::ScaleRequest{engine_},
          [je = je_.get()](serving::TaskExecutor* te) { je->AddColocatedTe(te); });
      manager_->ReservePrewarmedPods(8);
      manager_->ReservePrewarmedTes(8);
      for (int m = 0; m < cluster_->num_machines(); ++m) {
        manager_->PreloadModelToDram(m, w.model);
      }
    }
    sim_.Run();  // settle link setup and preloads

    if (w.frontend) {
      serving::RouteConfig route;
      route.seed = seed;
      route.retry_budget = true;
      route.eject_consecutive_errors = 3;
      frontend_ = std::make_unique<serving::Frontend>(&sim_, route);
      frontend_->RegisterServingJe(w.model.name, je_.get());
    }
  }

  // Schedules the workload's fault plan relative to sim time `t0`.
  void ScheduleFaults(TimeNs t0) {
    if (w_.fault_schedule.empty()) {
      return;
    }
    auto plan = faults::FaultInjector::ParseSchedule(w_.fault_schedule);
    if (!plan.ok()) {
      std::fprintf(stderr, "fault schedule: %s\n", plan.status().ToString().c_str());
      std::exit(1);
    }
    for (auto& event : *plan) {
      event.time += t0;
    }
    injector_ = std::make_unique<faults::FaultInjector>(&sim_, manager_.get(), kFaultSeed);
    injector_->RegisterJobExecutor(je_.get());
    injector_->ScheduleAll(*plan);
  }

  sim::Simulator& sim() { return sim_; }
  distflow::TransferEngine& transfer() { return *transfer_; }
  serving::ClusterManager& manager() { return *manager_; }
  serving::JobExecutor& je() { return *je_; }
  serving::Frontend* frontend() { return frontend_.get(); }

 private:
  const Workload& w_;
  flowserve::EngineConfig engine_;
  sim::Simulator sim_;
  std::unique_ptr<hw::Cluster> cluster_;
  std::unique_ptr<distflow::TransferEngine> transfer_;
  std::unique_ptr<ctrl::ControlLog> ctrl_log_;  // outlives the CM and JE that detach from it
  std::unique_ptr<serving::ClusterManager> manager_;
  std::unique_ptr<serving::JobExecutor> je_;
  std::unique_ptr<serving::Frontend> frontend_;
  std::unique_ptr<faults::FaultInjector> injector_;
};

// ---- one replay ------------------------------------------------------------------

enum class Outcome { kPending, kCompleted, kErrored, kRejected };

struct RequestState {
  TimeNs first_token = -1;
  TimeNs done = -1;
  int terminations = 0;
  Outcome outcome = Outcome::kPending;
};

// Everything the simulated system and its layers did in one replay. These are
// functions of (workload, seed) alone: repetitions and traced replays must
// reproduce them exactly.
struct SimFigures {
  int64_t attempted = 0;
  int64_t completed = 0;
  int64_t errored = 0;
  int64_t rejected = 0;
  int64_t hung = 0;
  int64_t double_terminations = 0;
  int64_t late_arrivals = 0;  // arrival callbacks not at their due sim time
  TimeNs max_lag = 0;
  int64_t misordered = 0;  // completions violating arrival <= first token <= done
  uint64_t timeline_hash = 1469598103934665603ull;
  int64_t slo_met = 0;     // completed within both SLO limits
  int64_t slo_tokens = 0;  // their decode tokens
  double sim_span_s = 0;   // first arrival -> last termination

  uint64_t events = 0;
  int64_t je_retries = 0;
  double je_locality_hit_frac = 0;
  double rtc_token_hit_rate = 0;
  int64_t rtc_swapped_out_blocks = 0, rtc_evicted_blocks = 0, rtc_index_nodes = 0;
  int64_t engine_steps = 0, engine_preemptions = 0;
  double engine_tokens_per_step = 0, engine_npu_busy_frac = 0;
  int64_t distflow_transfers = 0;
  double distflow_gb_moved = 0;
  int64_t ctrl_log_records = 0;
  int64_t cm_detections = 0, cm_replacements = 0, cm_lost_requests = 0;
  double cm_mttr_ms = 0;
  int64_t fe_rejected = 0, fe_ejections = 0;

  bool operator==(const SimFigures&) const = default;

  int64_t failed() const { return errored + rejected + hung; }
  bool Correct() const {
    return completed + errored + rejected + hung == attempted && double_terminations == 0 &&
           late_arrivals == 0 && misordered == 0;
  }
};

// Host figures of one replay. setup_s and ref_replay_s are reference seconds
// (see SpeedProbe); the others are wall seconds.
struct HostFigures {
  double setup_s = 0;
  double replay_s = 0;      // excluding the probes
  double ref_replay_s = 0;  // untraced replays only
  double submit_s = 0;     // inside HandleRequest / ChatCompletion
  double fe_submit_s = 0;  // inside ChatCompletion only
  std::vector<double> track_s;  // traced replays only, indexed like kTracks
};

struct ReplayResult {
  SimFigures sim;
  HostFigures host;
  std::vector<workload::RequestRecord> completed;
};

struct Span {
  workload::RequestId id = 0;
  TimeNs arrival = 0;
  TimeNs route = -1;
  TimeNs first_token = -1;
  TimeNs done = -1;
  Outcome outcome = Outcome::kPending;
};

// Steps are charged to the track of the first trace event they record:
// these tracks get their own host_s.<track> metric, any other track is
// "other" and steps that record nothing are "untraced".
const char* const kTracks[] = {"engine", "je",     "rtc",      "frontend", "cluster-manager",
                               "faults", "other", "untraced"};
constexpr size_t kNumTracks = std::size(kTracks);
constexpr size_t kOtherTrack = kNumTracks - 2;
constexpr size_t kUntracedTrack = kNumTracks - 1;

// kTracks index of a tracer pid ("engine/colocated/yi-34b" -> "engine").
size_t TrackIndex(const obs::Tracer& tracer, int pid) {
  const std::string& name = tracer.tracks()[static_cast<size_t>(pid)];
  const std::string prefix = name.substr(0, name.find('/'));
  for (size_t i = 0; i < kOtherTrack; ++i) {
    if (prefix == kTracks[i]) {
      return i;
    }
  }
  return kOtherTrack;
}

class Replay {
 public:
  Replay(const Workload& w, uint64_t seed, bool traced, SpeedProbe* probe)
      : w_(w), seed_(seed), traced_(traced), probe_(probe) {}

  // Set-up alone, for extra set-up timings: the stack is torn down unrun.
  double SetupSeconds() {
    const double probe_before = probe_->Seconds();
    const Clock::time_point setup_start = Clock::now();
    Stack stack(w_, seed_, nullptr);
    Setup(stack);
    const double setup_s = SecondsSince(setup_start);
    stack_ = nullptr;
    return SpeedProbe::Scale(setup_s, probe_before, probe_->Seconds());
  }

  ReplayResult Run(std::vector<Span>* spans) {
    obs::Tracer tracer;  // declared before the stack it is attached to
    double probe_s = probe_->Seconds();
    const Clock::time_point setup_start = Clock::now();
    Stack stack(w_, seed_, traced_ ? &tracer : nullptr);
    const TimeNs t0 = Setup(stack);
    const double setup_s = SecondsSince(setup_start);
    const double probe_after_setup = probe_->Seconds();
    result_.host.setup_s = SpeedProbe::Scale(setup_s, probe_s, probe_after_setup);
    probe_s = probe_after_setup;

    const uint64_t fired_before = stack.sim().TotalFired();
    const Clock::time_point replay_start = Clock::now();
    if (traced_) {
      result_.host.track_s.assign(kNumTracks, 0.0);
      std::vector<size_t> track_of_pid;  // TrackIndex cache
      size_t seen = tracer.size();
      for (;;) {
        const Clock::time_point step_start = Clock::now();
        if (!stack.sim().Step()) {
          break;
        }
        const double step_s = SecondsSince(step_start);
        size_t track = kUntracedTrack;
        if (tracer.size() > seen) {
          const auto pid = static_cast<size_t>(tracer.events()[seen].pid);
          while (track_of_pid.size() <= pid) {
            track_of_pid.push_back(TrackIndex(tracer, static_cast<int>(track_of_pid.size())));
          }
          track = track_of_pid[pid];
          seen = tracer.size();
        }
        result_.host.track_s[track] += step_s;
      }
      result_.host.replay_s = SecondsSince(replay_start);
    } else {
      // Slices of about kSliceSeconds, each scaled by the probes on either
      // side of it.
      bool more = true;
      while (more) {
        const Clock::time_point slice_start = Clock::now();
        do {
          for (size_t n = 0; n < kEventsPerCheck && more; ++n) {
            more = stack.sim().Step();
          }
        } while (more && SecondsSince(slice_start) < kSliceSeconds);
        const double slice_s = SecondsSince(slice_start);
        const double probe_after = probe_->Seconds();
        result_.host.replay_s += slice_s;
        result_.host.ref_replay_s += SpeedProbe::Scale(slice_s, probe_s, probe_after);
        probe_s = probe_after;
      }
    }
    result_.sim.events = stack.sim().TotalFired() - fired_before;

    Summarize(t0);
    if (traced_ && spans != nullptr) {
      CollectSpans(tracer, spans);
    }
    stack_ = nullptr;
    return std::move(result_);
  }

 private:
  // Generates the trace and schedules it, its faults and its arrivals on a
  // freshly built stack. Returns the sim time the trace starts at.
  TimeNs Setup(Stack& stack) {
    trace_ = GenerateTrace(w_);
    stack_ = &stack;
    const TimeNs t0 = stack.sim().Now();
    for (auto& spec : trace_) {
      spec.arrival += t0;
    }
    stack.ScheduleFaults(t0);
    requests_.assign(trace_.size(), RequestState{});
    for (size_t i = 0; i < trace_.size(); ++i) {
      stack.sim().ScheduleAt(trace_[i].arrival, [this, i] { Arrive(i); });
    }
    return t0;
  }

  void Arrive(size_t i) {
    const workload::RequestSpec& spec = trace_[i];
    sim::Simulator& sim = stack_->sim();
    if (sim.Now() != spec.arrival) {
      ++result_.sim.late_arrivals;
      result_.sim.max_lag = std::max(result_.sim.max_lag, sim.Now() - spec.arrival);
    }
    serving::ResponseHandler handler;
    handler.on_first_token = [this, i](const flowserve::Sequence& seq) {
      RequestState& req = requests_[i];
      if (req.first_token < 0 || seq.first_token_time < req.first_token) {
        req.first_token = seq.first_token_time;
      }
    };
    handler.on_complete = [this, i](const flowserve::Sequence& seq) {
      if (requests_[i].first_token < 0) {
        requests_[i].first_token = seq.first_token_time;
      }
      Terminate(i, Outcome::kCompleted, seq.finish_time);
    };
    handler.on_error = [this, i](const Status&) {
      Terminate(i, Outcome::kErrored, stack_->sim().Now());
    };
    const Clock::time_point start = Clock::now();
    if (serving::Frontend* frontend = stack_->frontend()) {
      serving::ChatRequest request;
      request.model = w_.model.name;
      request.spec = spec;
      // A pre-dispatch rejection reports through the Status alone; the
      // handler never fires, so this is the request's one termination.
      if (!frontend->ChatCompletion(request, std::move(handler)).ok()) {
        Terminate(i, Outcome::kRejected, sim.Now());
      }
      result_.host.fe_submit_s += SecondsSince(start);
    } else {
      stack_->je().HandleRequest(spec, std::move(handler));
    }
    result_.host.submit_s += SecondsSince(start);
  }

  void Terminate(size_t i, Outcome outcome, TimeNs done) {
    RequestState& req = requests_[i];
    if (++req.terminations > 1) {
      ++result_.sim.double_terminations;
      return;
    }
    req.outcome = outcome;
    req.done = done;
    switch (outcome) {
      case Outcome::kCompleted:
        ++result_.sim.completed;
        break;
      case Outcome::kErrored:
        ++result_.sim.errored;
        break;
      case Outcome::kRejected:
        ++result_.sim.rejected;
        break;
      case Outcome::kPending:
        break;
    }
    Mix(i);
    Mix(static_cast<uint64_t>(outcome));
    Mix(static_cast<uint64_t>(req.first_token));
    Mix(static_cast<uint64_t>(done));
  }

  void Mix(uint64_t v) {
    result_.sim.timeline_hash ^= v;
    result_.sim.timeline_hash *= 1099511628211ull;
  }

  // Per-request outcomes over attempted requests, then each layer's public
  // stats.
  void Summarize(TimeNs t0) {
    SimFigures& s = result_.sim;
    s.attempted = static_cast<int64_t>(trace_.size());
    TimeNs last = t0;
    for (size_t i = 0; i < trace_.size(); ++i) {
      const RequestState& req = requests_[i];
      if (req.terminations == 0) {
        ++s.hung;
        continue;
      }
      last = std::max(last, req.done);
      if (req.outcome != Outcome::kCompleted) {
        continue;
      }
      workload::RequestRecord record;
      record.id = trace_[i].id;
      record.arrival = trace_[i].arrival;
      record.first_token = req.first_token;
      record.completion = req.done;
      record.prefill_len = trace_[i].prefill_len();
      record.decode_len = trace_[i].decode_len;
      if (!(record.arrival <= record.first_token && record.first_token <= record.completion)) {
        ++s.misordered;
      }
      if (record.ttft_ms() <= kTtftSloMs && record.tpot_ms() <= kTpotSloMs) {
        ++s.slo_met;
        s.slo_tokens += record.decode_len;
      }
      result_.completed.push_back(record);
    }
    s.sim_span_s = NsToS(last - t0);

    serving::ClusterManager& manager = stack_->manager();
    const serving::JeStats& je = stack_->je().stats();
    s.je_retries = je.retries;
    const int64_t routed = je.routed_colocated + je.routed_disaggregated;
    s.je_locality_hit_frac = routed > 0 ? static_cast<double>(je.locality_hits) / routed : 0.0;

    int64_t matched = 0;
    int64_t requested = 0;
    int64_t step_tokens = 0;
    DurationNs npu_busy = 0;
    for (const auto& te : manager.tes()) {
      flowserve::Engine& engine = te->engine();
      const flowserve::EngineStats& es = engine.stats();
      s.engine_steps += es.steps;
      s.engine_preemptions += es.preemptions;
      step_tokens += es.prefill_tokens_processed + es.decode_tokens_generated;
      npu_busy += es.npu_busy;
      for (int g = 0; g < engine.config().parallelism.dp; ++g) {
        rtc::RtcMaster& rtc = engine.rtc(g);
        matched += rtc.stats().matched_tokens;
        requested += rtc.stats().requested_tokens;
        s.rtc_swapped_out_blocks += rtc.stats().swapped_out_blocks;
        s.rtc_evicted_blocks += rtc.stats().evicted_blocks;
        s.rtc_index_nodes += static_cast<int64_t>(rtc.index_nodes());
      }
    }
    s.rtc_token_hit_rate = requested > 0 ? static_cast<double>(matched) / requested : 0.0;
    s.engine_tokens_per_step =
        s.engine_steps > 0 ? static_cast<double>(step_tokens) / s.engine_steps : 0.0;
    const double te_seconds = s.sim_span_s * static_cast<double>(manager.tes().size());
    s.engine_npu_busy_frac = te_seconds > 0 ? NsToS(npu_busy) / te_seconds : 0.0;

    s.distflow_transfers = stack_->transfer().stats().transfers;
    s.distflow_gb_moved = static_cast<double>(stack_->transfer().stats().bytes_moved) / 1e9;
    // The shared control log when the workload has one, else the CM's own.
    s.ctrl_log_records = static_cast<int64_t>(manager.ctrl_log()->records().size());
    const serving::ClusterManagerStats& cm = manager.stats();
    s.cm_detections = cm.detections;
    s.cm_replacements = cm.replacements;
    s.cm_lost_requests = cm.lost_requests;
    s.cm_mttr_ms = cm.mean_mttr_ms();
    if (serving::Frontend* frontend = stack_->frontend()) {
      s.fe_rejected = frontend->stats().rejected_total();
      s.fe_ejections = frontend->stats().ejections;
    }
  }

  void CollectSpans(const obs::Tracer& tracer, std::vector<Span>* spans) const {
    std::map<int64_t, TimeNs> routes;  // request id -> first je.route
    for (const obs::TraceEvent* event : tracer.EventsNamed("je.route")) {
      for (const obs::TraceArg& arg : event->args) {
        if (arg.key == "req") {
          routes.emplace(std::strtoll(arg.value.c_str(), nullptr, 10), event->ts);
        }
      }
    }
    spans->clear();
    for (size_t i = 0; i < trace_.size(); ++i) {
      Span span;
      span.id = trace_[i].id;
      span.arrival = trace_[i].arrival;
      auto it = routes.find(static_cast<int64_t>(span.id));
      span.route = it != routes.end() ? it->second : -1;
      span.first_token = requests_[i].first_token;
      span.done = requests_[i].done;
      span.outcome = requests_[i].outcome;
      spans->push_back(span);
    }
  }

  const Workload& w_;
  uint64_t seed_;
  bool traced_;
  SpeedProbe* probe_;
  Stack* stack_ = nullptr;
  std::vector<workload::RequestSpec> trace_;
  std::vector<RequestState> requests_;
  ReplayResult result_;
};

// ---- reporting ---------------------------------------------------------------------

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  if (n == 0) {
    return 0.0;
  }
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

template <typename Field>
double MedianOf(const std::vector<HostFigures>& runs, Field field) {
  std::vector<double> values;
  for (const HostFigures& h : runs) {
    values.push_back(field(h));
  }
  return Median(values);
}

// A field of /proc/self/status in MB, e.g. "VmHWM:" (peak resident memory).
double StatusMb(const char* field) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return 0.0;
  }
  char line[256];
  double kb = 0.0;
  const size_t n = std::strlen(field);
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, field, n) == 0) {
      kb = std::atof(line + n);
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}

class JsonMetrics {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.12g", value);
    std::printf("  %-28s %18s %s\n", name.c_str(), buf, unit.c_str());
    if (!body_.empty()) {
      body_ += ", ";
    }
    body_ += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" + unit + "\"}";
  }

  void Print(bool correct, int64_t attempted, int64_t failed) const {
    std::printf("{\"correct\": %s, \"attempted\": %" PRId64 ", \"failed\": %" PRId64
                ", \"metrics\": {%s}}\n",
                correct ? "true" : "false", attempted, failed, body_.c_str());
  }

 private:
  std::string body_;
};

void PrintReplay(const char* label, size_t episode, uint64_t seed, const ReplayResult& r) {
  const SimFigures& s = r.sim;
  char ref[32] = "";
  if (r.host.ref_replay_s > 0) {
    std::snprintf(ref, sizeof(ref), " (%.3f ref s)", r.host.ref_replay_s);
  }
  std::printf("%s episode %zu (trace seed %" PRIu64 "): setup %.3f ref s, replay %.3f s%s, %" PRId64
              " requests, %" PRIu64 " events, submit %.3f s, hash %016" PRIx64 "\n",
              label, episode, seed, r.host.setup_s, r.host.replay_s, ref, s.attempted, s.events,
              r.host.submit_s, s.timeline_hash);
}

bool Check(const SimFigures& s, const SimFigures* reference, size_t episode) {
  bool ok = true;
  if (!s.Correct()) {
    std::printf("VIOLATION (episode %zu): %" PRId64 " completed + %" PRId64 " errored + %" PRId64
                " rejected + %" PRId64 " hung of %" PRId64 " attempted, %" PRId64
                " double terminations, %" PRId64 " late arrivals (max lag %" PRId64
                " ns), %" PRId64 " misordered records\n",
                episode, s.completed, s.errored, s.rejected, s.hung, s.attempted,
                s.double_terminations, s.late_arrivals, static_cast<int64_t>(s.max_lag),
                s.misordered);
    ok = false;
  }
  if (reference != nullptr && !(s == *reference)) {
    std::printf("VIOLATION (episode %zu): replay diverged (hash %016" PRIx64 " vs %016" PRIx64
                ")\n",
                episode, s.timeline_hash, reference->timeline_hash);
    ok = false;
  }
  return ok;
}

bool ParseArg(const char* arg, const char* name, std::string* out) {
  const size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) == 0 && arg[n] == '=') {
    *out = arg + n + 1;
    return true;
  }
  return false;
}

int Usage() {
  std::fprintf(stderr,
               "usage: simbench --workload=long_horizon|decode_unshared|chaos_pd --seed=N "
               "--seconds=S --trace=0|1 [--spans-out=PATH]\n");
  return 2;
}

bool WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  static const char* const kOutcomes[] = {"hung", "completed", "errored", "rejected"};
  for (const Span& span : spans) {
    std::fprintf(f,
                 "{\"req\": %" PRIu64 ", \"outcome\": \"%s\", \"arrival_ns\": %" PRId64
                 ", \"route_ns\": %" PRId64 ", \"first_token_ns\": %" PRId64
                 ", \"done_ns\": %" PRId64 "}\n",
                 span.id, kOutcomes[static_cast<int>(span.outcome)],
                 static_cast<int64_t>(span.arrival), static_cast<int64_t>(span.route),
                 static_cast<int64_t>(span.first_token), static_cast<int64_t>(span.done));
  }
  return std::fclose(f) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name, seed_arg, seconds_arg, trace_arg = "0", spans_out;
  for (int i = 1; i < argc; ++i) {
    if (!ParseArg(argv[i], "--workload", &workload_name) &&
        !ParseArg(argv[i], "--seed", &seed_arg) && !ParseArg(argv[i], "--seconds", &seconds_arg) &&
        !ParseArg(argv[i], "--trace", &trace_arg) &&
        !ParseArg(argv[i], "--spans-out", &spans_out)) {
      return Usage();
    }
  }
  const uint64_t seed = std::strtoull(seed_arg.c_str(), nullptr, 10);
  const double seconds = std::atof(seconds_arg.c_str());
  const bool trace_mode = trace_arg == "1";
  Workload w;
  if (!MakeWorkload(workload_name, seed, &w) || seed_arg.empty() || seconds <= 0 ||
      (trace_arg != "0" && trace_arg != "1")) {
    return Usage();
  }
  const size_t episodes = static_cast<size_t>(w.episodes);
  std::vector<Workload> episode_workloads;
  std::vector<uint64_t> episode_seeds;
  for (size_t k = 0; k < episodes; ++k) {
    episode_seeds.push_back(seed * episodes + k);
    Workload ew;
    MakeWorkload(workload_name, episode_seeds.back(), &ew);
    episode_workloads.push_back(ew);
  }
  std::printf("simbench %s seed=%" PRIu64 " trace=%d: %s; %zu episode(s)\n", w.name.c_str(),
              seed, trace_mode ? 1 : 0, w.shape.c_str(), episodes);

  const double rss_before_probe_mb = StatusMb("VmRSS:");
  SpeedProbe probe;
  // The probe's memory is not the workload's.
  const double probe_mb = StatusMb("VmRSS:") - rss_before_probe_mb;
  const Clock::time_point start = Clock::now();
  bool correct = true;
  JsonMetrics m;
  if (!trace_mode) {
    // Every episode once (the simulated metrics pool these), then round-robin
    // repeats until the time is up; each repeat must reproduce its episode.
    // The process's first replay warms it up and is left out of the host
    // figures.
    std::vector<ReplayResult> first;
    std::vector<HostFigures> hosts;
    for (size_t n = 0;
         n < episodes || n < kMinTimedReplays + 1 || SecondsSince(start) < seconds; ++n) {
      const size_t k = n % episodes;
      ReplayResult r = Replay(episode_workloads[k], episode_seeds[k], false, &probe).Run(nullptr);
      PrintReplay(n < episodes ? "replay" : "repeat", k, episode_seeds[k], r);
      correct &= Check(r.sim, n < episodes ? nullptr : &first[k].sim, k);
      hosts.push_back(r.host);
      if (n < episodes) {
        first.push_back(std::move(r));
      }
    }

    workload::MetricsCollector pooled;
    int64_t attempted = 0, failed = 0, terminated = 0, slo_met = 0, slo_tokens = 0;
    double span_s = 0;
    for (const ReplayResult& r : first) {
      for (const workload::RequestRecord& record : r.completed) {
        pooled.Record(record);
      }
      attempted += r.sim.attempted;
      failed += r.sim.failed();
      terminated += r.sim.completed + r.sim.errored + r.sim.rejected;
      slo_met += r.sim.slo_met;
      slo_tokens += r.sim.slo_tokens;
      span_s += r.sim.sim_span_s;
    }
    std::vector<double> req_per_s, wall_req_per_s, setup_s;
    for (size_t n = 1; n < hosts.size(); ++n) {
      const SimFigures& s = first[n % episodes].sim;
      const auto replay_terminated = static_cast<double>(s.completed + s.errored + s.rejected);
      req_per_s.push_back(replay_terminated / hosts[n].ref_replay_s);
      wall_req_per_s.push_back(replay_terminated / hosts[n].replay_s);
      setup_s.push_back(hosts[n].setup_s);
    }
    for (size_t n = 0; setup_s.size() < kMinSetups; ++n) {
      const size_t k = n % episodes;
      setup_s.push_back(
          Replay(episode_workloads[k], episode_seeds[k], false, &probe).SetupSeconds());
    }

    std::printf("requests: %" PRId64 " attempted, %" PRId64 " terminated, %" PRId64
                " failed; samples: ttft n=%zu, tpot n=%zu\n",
                attempted, terminated, failed, pooled.ttft_ms().count(),
                pooled.tpot_ms().count());
    std::printf("host: %.1f requests per wall second, %zu probes, median %.6f s\n",
                Median(wall_req_per_s), probe.history().size(), Median(probe.history()));
    m.Add("host_req_per_s", Median(req_per_s), "1/s");
    m.Add("peak_rss_mb", StatusMb("VmHWM:") - probe_mb, "MB");
    m.Add("setup_s", Median(setup_s), "s");
    m.Add("ttft_p50_ms", pooled.ttft_ms().p50(), "ms");
    m.Add("ttft_p99_ms", pooled.ttft_ms().p99(), "ms");
    m.Add("tpot_p50_ms", pooled.tpot_ms().p50(), "ms");
    m.Add("tpot_p99_ms", pooled.tpot_ms().p99(), "ms");
    m.Add("slo_attainment", static_cast<double>(slo_met) / static_cast<double>(attempted),
          "share");
    m.Add("goodput_tok_s", static_cast<double>(slo_tokens) / span_s, "tok/s");
    m.Print(correct, attempted, failed);
    return correct ? 0 : 1;
  }

  // Traced mode: (untraced, traced) pairs of episode 0 until the time is up.
  std::vector<HostFigures> untraced;
  std::vector<HostFigures> traced;
  std::vector<Span> spans;
  SimFigures s;
  do {
    ReplayResult plain =
        Replay(episode_workloads[0], episode_seeds[0], false, &probe).Run(nullptr);
    PrintReplay("untraced", 0, episode_seeds[0], plain);
    correct &= Check(plain.sim, untraced.empty() ? nullptr : &s, 0);
    if (untraced.empty()) {
      s = plain.sim;
    }
    untraced.push_back(plain.host);
    ReplayResult traced_run =
        Replay(episode_workloads[0], episode_seeds[0], true, &probe).Run(&spans);
    PrintReplay("traced", 0, episode_seeds[0], traced_run);
    correct &= Check(traced_run.sim, &s, 0);
    traced.push_back(traced_run.host);
  } while (SecondsSince(start) < seconds);

  const double replay_s = MedianOf(untraced, [](const HostFigures& h) { return h.replay_s; });
  const double submit_s = MedianOf(untraced, [](const HostFigures& h) { return h.submit_s; });
  const double attempted = static_cast<double>(s.attempted);
  m.Add("sim.events", static_cast<double>(s.events), "count");
  m.Add("sim.ns_per_event", replay_s * 1e9 / static_cast<double>(s.events), "ns");
  m.Add("sim.drain_s", replay_s - submit_s, "s");
  m.Add("je.submit_s", submit_s, "s");
  m.Add("je.submit_us_per_req", submit_s * 1e6 / attempted, "us");
  m.Add("je.locality_hit_frac", s.je_locality_hit_frac, "share");
  m.Add("je.retries", static_cast<double>(s.je_retries), "count");
  m.Add("rtc.token_hit_rate", s.rtc_token_hit_rate, "share");
  m.Add("rtc.swapped_out_blocks", static_cast<double>(s.rtc_swapped_out_blocks), "count");
  m.Add("rtc.evicted_blocks", static_cast<double>(s.rtc_evicted_blocks), "count");
  m.Add("rtc.index_nodes", static_cast<double>(s.rtc_index_nodes), "count");
  m.Add("engine.steps", static_cast<double>(s.engine_steps), "count");
  m.Add("engine.tokens_per_step", s.engine_tokens_per_step, "tokens");
  m.Add("engine.npu_busy_frac", s.engine_npu_busy_frac, "share");
  m.Add("engine.preemptions", static_cast<double>(s.engine_preemptions), "count");
  m.Add("distflow.transfers", static_cast<double>(s.distflow_transfers), "count");
  m.Add("distflow.gb_moved", s.distflow_gb_moved, "GB");
  m.Add("ctrl.log_records", static_cast<double>(s.ctrl_log_records), "count");
  m.Add("ctrl.records_per_req", static_cast<double>(s.ctrl_log_records) / attempted, "count");
  m.Add("cm.detections", static_cast<double>(s.cm_detections), "count");
  m.Add("cm.replacements", static_cast<double>(s.cm_replacements), "count");
  m.Add("cm.lost_requests", static_cast<double>(s.cm_lost_requests), "count");
  m.Add("cm.mttr_ms", s.cm_mttr_ms, "ms");
  m.Add("fe.rejected", static_cast<double>(s.fe_rejected), "count");
  m.Add("fe.ejections", static_cast<double>(s.fe_ejections), "count");
  m.Add("fe.submit_s", MedianOf(untraced, [](const HostFigures& h) { return h.fe_submit_s; }),
        "s");
  m.Add("failed_frac", static_cast<double>(s.failed()) / attempted, "share");
  m.Add("gen.max_lag_ns", static_cast<double>(s.max_lag), "ns");
  for (size_t i = 0; i < kNumTracks; ++i) {
    m.Add(std::string("host_s.") + kTracks[i],
          MedianOf(traced, [i](const HostFigures& h) { return h.track_s[i]; }), "s");
  }
  m.Add("trace_overhead_frac",
        MedianOf(traced, [](const HostFigures& h) { return h.replay_s; }) / replay_s - 1.0,
        "share");
  if (!spans_out.empty()) {
    if (WriteSpans(spans_out, spans)) {
      std::printf("spans: %zu requests of episode 0 written to %s\n", spans.size(),
                  spans_out.c_str());
    } else {
      std::printf("VIOLATION: cannot write spans to %s\n", spans_out.c_str());
      correct = false;
    }
  }
  m.Print(correct, s.attempted, s.failed());
  return correct ? 0 : 1;
}
