// DES core throughput harness: replays synthetic cluster-scale event
// workloads against the calendar-queue simulator and records wall-clock
// throughput into a tracked JSON artifact (BENCH_perf.json).
//
// Scenarios:
//   event_churn    N self-rescheduling event chains (the shape of engine step
//                  loops): pure schedule->fire cycling, no cancellations.
//   cancel_storm   timer-storm pattern (deadline guards, retry timers): large
//                  batches scheduled and ~90% cancelled before firing. Runs
//                  on BOTH the current simulator and an embedded replica of
//                  the pre-calendar-queue core (std::priority_queue +
//                  unordered_set lazy deletion + std::function callbacks), so
//                  the reported speedup is measured by one harness over
//                  identical work.
//   replay_64te    full-stack trace replay: 64 tiny colocated TEs behind one
//                  JE on a Poisson trace — the simulator carrying the whole
//                  serving stack rather than micro events.
//   long_horizon   8 colocated Yi-34B TP4 TEs, Poisson 4 rps x 1920 sim-s on
//                  the shared-prefix internal trace (~7.6K requests): long
//                  enough for RTC swap/evict and the JE prompt trees to carry
//                  thousands of cold leaves, so any per-request cost that
//                  grows with history shows up. Same size in both modes.
//
// Per scenario the JSON records `events_per_sec` (events through the queue
// per wall second) and `sim_seconds_per_wall_second` (virtual-time
// compression); cancel_storm adds `legacy_events_per_sec` and
// `speedup_vs_legacy`; replay_64te adds `timeline_hash`, `replay_identical`
// (the scenario always runs twice) and `links_walked_per_insert` (calendar
// chain links walked by the replay's sorted inserts, per insert; long_horizon
// records it too). long_horizon records
// wall seconds and requests per wall second beside its deterministic work
// counters per request — LRU leaves examined by the RTC caches and by the
// JE prompt trees — at the full horizon and at half of it, their ratio
// (`work_growth`), the JE control log's appended and retained record counts
// (the retained count at both horizons), `prompt_hashes_per_request` (full
// prompt key chains hashed by the JE and every RTC, per request: the JE
// hashes each dispatched prompt once and the engines share that chain),
// `rtc_pinned_blocks_after_drain` (RTC blocks still holding a transfer pin
// once the simulator has drained, summed over every TE: a pin that outlives
// its transfer keeps its run out of eviction forever), its `timeline_hash`
// and `replay_identical`.
//
// Flags (plus the ObsSession observability flags):
//   --out=PATH   JSON artifact path (default BENCH_perf.json)
//   --seed=N     workload seed (default 42)
//   --smoke      smaller sizes for CI; exits non-zero unless (a) the
//                full-stack replay is bit-identical across both runs,
//                (b) cancel_storm shows >= 3x events/sec over the legacy
//                core replica, (c) long_horizon replays bit-identically and
//                (d) its LRU work per request at the full horizon is at most
//                kMaxWorkGrowth x that at half the horizon and (e) the JE
//                control log retains no more records at the full horizon
//                than at half of it and (f) the full-stack replay walks at
//                most kMaxWalkPerInsert calendar links per insert and (g)
//                long_horizon hashes at most kMaxPromptHashesPerRequest
//                prompt key chains per request and (h) no RTC block of
//                long_horizon is still pinned after the drain. Wall time is
//                recorded, never gated.

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <queue>
#include <string>
#include <unordered_set>
#include <vector>

#include "bench/common.h"
#include "common/time_units.h"
#include "model/model_spec.h"
#include "workload/tracegen.h"

using namespace deepserve;

namespace {

// The one wall-clock read in the tree: this harness measures how fast the
// simulator burns through virtual time, which is inherently a wall-time
// question. Nothing simulated ever reads it.
double WallSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now()  // ds-lint: allow(banned-type, perf harness measures wall throughput; no simulated behavior reads the wall clock)
                 .time_since_epoch())
      .count();
}

struct Options {
  std::string out = "BENCH_perf.json";
  uint64_t seed = 42;
  bool smoke = false;
};


// ---------------------------------------------------------------------------
// Pre-PR event core, kept verbatim (minus observability) as the measured
// baseline: binary heap over (time, seq), lazy deletion through an
// unordered_set of cancelled ids, std::function callbacks.
class LegacySim {
 public:
  using EventFn = std::function<void()>;
  using EventId = uint64_t;

  TimeNs Now() const { return now_; }

  EventId ScheduleAt(TimeNs t, EventFn fn) {
    EventId id = next_id_++;
    queue_.push(Event{t, next_seq_++, id, std::move(fn)});
    ++pending_count_;
    return id;
  }

  EventId ScheduleAfter(DurationNs delay, EventFn fn) {
    return ScheduleAt(now_ + delay, std::move(fn));
  }

  bool Cancel(EventId id) {
    if (id == 0) {
      return false;
    }
    if (cancelled_.insert(id).second) {
      if (pending_count_ > 0) {
        --pending_count_;
        return true;
      }
      cancelled_.erase(id);
    }
    return false;
  }

  bool Step() {
    while (!queue_.empty()) {
      bool was_cancelled = cancelled_.count(queue_.top().id) > 0;
      FireTop();
      if (!was_cancelled) {
        return true;
      }
    }
    return false;
  }

  size_t Run() {
    size_t fired = 0;
    while (Step()) {
      ++fired;
    }
    return fired;
  }

  size_t RunUntil(TimeNs t) {
    size_t fired = 0;
    while (!queue_.empty() && queue_.top().time <= t) {
      bool was_cancelled = cancelled_.count(queue_.top().id) > 0;
      FireTop();
      if (!was_cancelled) {
        ++fired;
      }
    }
    now_ = t;
    return fired;
  }

 private:
  struct Event {
    TimeNs time;
    uint64_t seq;
    EventId id;
    EventFn fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) {
        return a.time > b.time;
      }
      return a.seq > b.seq;
    }
  };

  void FireTop() {
    Event ev = std::move(const_cast<Event&>(queue_.top()));
    queue_.pop();
    if (auto it = cancelled_.find(ev.id); it != cancelled_.end()) {
      cancelled_.erase(it);
      return;
    }
    now_ = ev.time;
    --pending_count_;
    ev.fn();
  }

  TimeNs now_ = 0;
  uint64_t next_seq_ = 1;
  EventId next_id_ = 1;
  size_t pending_count_ = 0;
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  std::unordered_set<EventId> cancelled_;
};

uint64_t NextRand(uint64_t* state) {
  *state = *state * 6364136223846793005ull + 1442695040888963407ull;
  return *state >> 33;
}

struct ScenarioResult {
  uint64_t events = 0;  // events through the queue (see each scenario)
  TimeNs sim_end = 0;
  double wall_s = 0;

  double events_per_sec() const { return static_cast<double>(events) / std::max(wall_s, 1e-9); }
  double sim_per_wall() const { return NsToS(sim_end) / std::max(wall_s, 1e-9); }
};

// ---------------------------------------------------------------------------
// event_churn: `actors` independent chains, each firing re-arms itself at a
// pseudo-random gap until the shared fire budget is spent. The closure
// carries two payload words on top of (this, actor) — the size of a typical
// engine-step capture — which keeps the legacy std::function on its heap
// path and SmallFn inline, exactly as in the real tree.
template <typename Sim>
class ChurnScenario {
 public:
  ChurnScenario(Sim* sim, int actors, uint64_t target, uint64_t seed)
      : sim_(sim), target_(target) {
    states_.reserve(static_cast<size_t>(actors));
    for (int a = 0; a < actors; ++a) {
      states_.push_back(seed * 0x9e3779b97f4a7c15ull + static_cast<uint64_t>(a) + 1);
      Arm(a);
    }
  }

  uint64_t fired() const { return fired_; }
  uint64_t sink() const { return sink_; }

 private:
  void Arm(int actor) {
    DurationNs gap = 1 + static_cast<DurationNs>(NextRand(&states_[static_cast<size_t>(actor)]) % 5000);
    uint64_t p0 = states_[static_cast<size_t>(actor)];
    uint64_t p1 = p0 ^ 0xabcdefull;
    sim_->ScheduleAfter(gap, [this, actor, p0, p1] {
      sink_ += p0 ^ p1;
      ++fired_;
      if (fired_ < target_) {
        Arm(actor);
      }
    });
  }

  Sim* sim_;
  uint64_t target_;
  uint64_t fired_ = 0;
  uint64_t sink_ = 0;
  std::vector<uint64_t> states_;
};

template <typename Sim>
ScenarioResult RunChurn(int actors, uint64_t target, uint64_t seed) {
  Sim sim;
  ScenarioResult r;
  double w0 = WallSeconds();
  ChurnScenario<Sim> churn(&sim, actors, target, seed);
  sim.Run();
  r.wall_s = WallSeconds() - w0;
  r.events = churn.fired();
  r.sim_end = sim.Now();
  if (churn.sink() == 0xdeadbeef) {  // defeat dead-code elimination
    std::fprintf(stderr, "sink collision\n");
  }
  return r;
}

// ---------------------------------------------------------------------------
// cancel_storm: the deadline-guard pattern every request carries (TTFT/TBT
// timeout timers, retry guards). Each round schedules a batch of timers —
// most of them guards ~1s out, a fifth near-term work — then "completes" 90%
// of the guards, cancelling them long before they are due, and advances
// 100us. The old core's lazy deletion keeps every cancelled guard in the
// heap until its timestamp (the heap grows monotonically all scenario long,
// every push/pop paying O(log n) over mostly-dead entries); the calendar
// queue tombstones in O(1) and reclaims tombstones at each occupancy rehash.
// `events` counts scheduled events — each one's full lifecycle (schedule +
// cancel, or schedule + fire) passes through the queue.
template <typename Sim>
ScenarioResult RunStorm(int rounds, int batch, uint64_t seed) {
  Sim sim;
  ScenarioResult r;
  std::vector<uint64_t> guards;
  guards.reserve(static_cast<size_t>(batch));
  uint64_t state = seed + 0x5deece66dull;
  uint64_t sink = 0;
  double w0 = WallSeconds();
  for (int round = 0; round < rounds; ++round) {
    guards.clear();
    for (int i = 0; i < batch; ++i) {
      uint64_t p0 = NextRand(&state);
      uint64_t p1 = p0 ^ 0x1234567ull;
      if (i % 5 == 4) {
        // Near-term work timer: fires inside this round's window.
        DurationNs gap = 1 + static_cast<DurationNs>(p0 % 100000);
        sim.ScheduleAfter(gap, [&sink, p0, p1, i] { sink += p0 ^ p1 ^ static_cast<uint64_t>(i); });
      } else {
        // Deadline guard ~1s out — due only if the request were to stall.
        DurationNs gap = SToNs(1) + static_cast<DurationNs>(p0 % 100000);
        guards.push_back(sim.ScheduleAfter(
            gap, [&sink, p0, p1, i] { sink += p0 ^ p1 ^ static_cast<uint64_t>(i); }));
      }
    }
    for (size_t g = 0; g < guards.size(); ++g) {
      if (g % 10 != 9) {  // 90% of requests complete well before the deadline
        sim.Cancel(guards[g]);
      }
    }
    sim.RunUntil(sim.Now() + UsToNs(100));
  }
  sim.Run();  // survivors fire at their deadlines; the legacy core also wades
              // through every tombstone it never reclaimed
  r.wall_s = WallSeconds() - w0;
  r.events = static_cast<uint64_t>(rounds) * static_cast<uint64_t>(batch);
  r.sim_end = sim.Now();
  if (sink == 0xdeadbeef) {
    std::fprintf(stderr, "sink collision\n");
  }
  return r;
}

// Wall-clock noise on a shared CI machine can dwarf one ~0.2s measurement.
// Both cores run `reps` interleaved repetitions (new, legacy, new, legacy, …
// so a load spike lands on both sides) and the minimum wall time per core —
// the least-contended rep — is the throughput estimate.
template <typename NewFn, typename LegacyFn>
void MeasureInterleaved(int reps, const NewFn& run_new, const LegacyFn& run_legacy,
                        ScenarioResult* out_new, ScenarioResult* out_legacy) {
  for (int i = 0; i < reps; ++i) {
    ScenarioResult a = run_new();
    if (i == 0 || a.wall_s < out_new->wall_s) {
      *out_new = a;
    }
    ScenarioResult b = run_legacy();
    if (i == 0 || b.wall_s < out_legacy->wall_s) {
      *out_legacy = b;
    }
  }
}

// ---------------------------------------------------------------------------
// replay_64te: the full serving stack on tiny engines — 64 colocated TEs,
// one JE, Poisson trace. Events here are real engine-step/JE/DistFlow chains.
flowserve::EngineConfig TinyEngine() {
  flowserve::EngineConfig config;
  config.model = model::ModelSpec::Tiny1B();
  config.parallelism = {1, 1, 1};
  config.role = flowserve::EngineRole::kColocated;
  config.kv_block_capacity_override = 4096;
  return config;
}

uint64_t TimelineHash(const workload::MetricsCollector& metrics, TimeNs sim_end) {
  uint64_t hash = 1469598103934665603ull;
  auto mix = [&hash](uint64_t v) {
    hash ^= v;
    hash *= 1099511628211ull;
  };
  for (const workload::RequestRecord& record : metrics.records()) {
    mix(static_cast<uint64_t>(record.id));
    mix(static_cast<uint64_t>(record.first_token));
    mix(static_cast<uint64_t>(record.completion));
  }
  mix(static_cast<uint64_t>(sim_end));
  return hash;
}

// Bound on calendar chain links walked per insert in the full-stack replay.
// A bucket width matched to the dequeue stream keeps about three events per
// bucket, so a sorted insert walks about one link; a width sized to the sparse
// pre-scheduled arrivals chains every engine's step event into one bucket.
constexpr double kMaxWalkPerInsert = 1.0;

struct ReplayResult {
  ScenarioResult perf;
  uint64_t timeline_hash = 0;
  size_t requests = 0;
  size_t completed = 0;
  uint64_t inserts = 0;       // events inserted into the queue during the replay
  uint64_t links_walked = 0;  // calendar chain links those inserts walked

  double WalkPerInsert() const {
    return inserts > 0 ? static_cast<double>(links_walked) / static_cast<double>(inserts) : 0.0;
  }
};

// Replays `trace` on `bed`, filling everything but the scenario's own
// counters.
ReplayResult TimedReplay(fleet::Fleet& bed, const std::vector<workload::RequestSpec>& trace) {
  ReplayResult r;
  r.requests = trace.size();
  const sim::EventQueue& queue = bed.sim().queue();
  uint64_t fired_before = bed.sim().TotalFired();
  uint64_t inserts_before = queue.inserts();
  uint64_t walked_before = queue.links_walked();
  double w0 = WallSeconds();
  workload::MetricsCollector metrics = bed.Replay(trace);
  r.perf.wall_s = WallSeconds() - w0;
  r.perf.events = bed.sim().TotalFired() - fired_before;
  r.perf.sim_end = bed.sim().Now();
  r.inserts = queue.inserts() - inserts_before;
  r.links_walked = queue.links_walked() - walked_before;
  r.completed = metrics.completed();
  r.timeline_hash = TimelineHash(metrics, r.perf.sim_end);
  return r;
}

ReplayResult RunReplay(int tes, double rps, double duration_s, uint64_t seed) {
  workload::TraceConfig trace_config = workload::TraceGenerator::InternalTrace(rps, duration_s, seed);
  std::vector<workload::RequestSpec> trace = workload::TraceGenerator(trace_config).Generate();

  fleet::Fleet bed(bench::TestbedSpec(/*num_machines=*/(tes + 7) / 8), bench::ActiveObs());
  bed.AddTes(TinyEngine(), /*colocated=*/tes, /*prefill=*/0, /*decode=*/0);
  bed.Link();

  return TimedReplay(bed, trace);
}

// ---------------------------------------------------------------------------
// long_horizon: the ROADMAP baseline fleet (`deepserve_sim --colocated=8
// --rps=4 --duration=1920`), run through a Fleet.
constexpr int kLongHorizonTes = 8;
constexpr int kLongHorizonTp = 4;
constexpr double kLongHorizonRps = 4.0;
constexpr double kLongHorizonSeconds = 1920.0;
// Bound on LRU work per request at the full horizon over half of it. Work
// that grew with history (a rescan of the cache per victim) would roughly
// double; bounded per-request work stays flat.
constexpr double kMaxWorkGrowth = 1.25;
// Bound on full-prompt key chains hashed per request: the JE's one per
// dispatch. A layer that re-hashed the prompt instead of sharing the JE's
// chain would add one per request.
constexpr double kMaxPromptHashesPerRequest = 1.0;

struct LongHorizonResult {
  ReplayResult replay;
  int64_t rtc_lru_examined = 0;  // summed over every TE's RTC caches
  int64_t je_tree_examined = 0;
  int64_t je_log_appended = 0;  // JE control-log records ever appended
  int64_t je_log_retained = 0;  // records the log still holds at the end
  int64_t prompt_hashes = 0;    // full-prompt key chains: the JE's plus every RTC's
  int64_t rtc_pinned = 0;       // RTC blocks still transfer-pinned after the drain

  double PerRequest(int64_t work) const {
    return replay.requests > 0 ? static_cast<double>(work) / static_cast<double>(replay.requests)
                               : 0.0;
  }
  double WorkPerRequest() const { return PerRequest(rtc_lru_examined + je_tree_examined); }
};

LongHorizonResult RunLongHorizon(double duration_s, uint64_t seed) {
  std::vector<workload::RequestSpec> trace =
      workload::TraceGenerator(
          workload::TraceGenerator::InternalTrace(kLongHorizonRps, duration_s, seed))
          .Generate();
  flowserve::EngineConfig engine;
  engine.model = model::ModelSpec::Yi34B();
  engine.parallelism = {kLongHorizonTp, 1, 1};
  engine.role = flowserve::EngineRole::kColocated;
  fleet::Fleet bed(bench::TestbedSpec(/*num_machines=*/(kLongHorizonTes * kLongHorizonTp + 7) / 8),
                   bench::ActiveObs());
  bed.AddTes(engine, /*colocated=*/kLongHorizonTes, /*prefill=*/0, /*decode=*/0);
  bed.Link();

  LongHorizonResult r;
  r.replay = TimedReplay(bed, trace);
  for (const auto& te : bed.manager().tes()) {
    flowserve::Engine& e = te->engine();
    for (int g = 0; g < e.config().parallelism.dp; ++g) {
      r.rtc_lru_examined += e.rtc(g).stats().lru_leaves_examined;
      r.prompt_hashes += e.rtc(g).stats().prompt_hashes;
      r.rtc_pinned += e.rtc(g).pinned_blocks();
    }
  }
  r.je_tree_examined = bed.je().stats().tree_leaves_examined;
  r.prompt_hashes += bed.je().stats().prompt_hashes;
  const ctrl::ControlLog* log = bed.je().control_log();
  r.je_log_appended = static_cast<int64_t>(log->next_seq());
  r.je_log_retained = static_cast<int64_t>(log->records().size());
  return r;
}

// ---------------------------------------------------------------------------
void PrintRow(const char* name, const ScenarioResult& r) {
  std::printf("%-14s %12" PRIu64 " %10.3f %14.0f %16.1f\n", name, r.events, r.wall_s,
              r.events_per_sec(), r.sim_per_wall());
}

int RunAll(const Options& opt) {
  const int churn_actors = 256;
  const uint64_t churn_target = opt.smoke ? 400000 : 4000000;
  const int storm_rounds = opt.smoke ? 100 : 300;
  const int storm_batch = opt.smoke ? 5000 : 10000;
  const int tes = 64;
  const double replay_rps = opt.smoke ? 24.0 : 48.0;
  const double replay_duration_s = opt.smoke ? 20.0 : 60.0;

  bench::PrintHeader("perf_sim: DES core throughput (events/sec, sim-s per wall-s)");
  std::printf("%-14s %12s %10s %14s %16s\n", "scenario", "events", "wall(s)", "events/sec",
              "sim-s/wall-s");
  bench::PrintRule();

  const int reps = 3;
  ScenarioResult churn;
  ScenarioResult churn_legacy;
  MeasureInterleaved(
      reps, [&] { return RunChurn<sim::Simulator>(churn_actors, churn_target, opt.seed); },
      [&] { return RunChurn<LegacySim>(churn_actors, churn_target, opt.seed); }, &churn,
      &churn_legacy);
  PrintRow("event_churn", churn);
  PrintRow("  (legacy)", churn_legacy);

  ScenarioResult storm;
  ScenarioResult storm_legacy;
  MeasureInterleaved(
      reps, [&] { return RunStorm<sim::Simulator>(storm_rounds, storm_batch, opt.seed); },
      [&] { return RunStorm<LegacySim>(storm_rounds, storm_batch, opt.seed); }, &storm,
      &storm_legacy);
  PrintRow("cancel_storm", storm);
  PrintRow("  (legacy)", storm_legacy);
  double storm_speedup = storm.events_per_sec() / std::max(storm_legacy.events_per_sec(), 1e-9);
  double churn_speedup = churn.events_per_sec() / std::max(churn_legacy.events_per_sec(), 1e-9);
  std::printf("speedup vs legacy core: cancel_storm %.2fx, event_churn %.2fx\n", storm_speedup,
              churn_speedup);

  ReplayResult replay = RunReplay(tes, replay_rps, replay_duration_s, opt.seed);
  PrintRow("replay_64te", replay.perf);
  ReplayResult replay2 = RunReplay(tes, replay_rps, replay_duration_s, opt.seed);
  bool replay_identical = replay.timeline_hash == replay2.timeline_hash &&
                          replay.perf.sim_end == replay2.perf.sim_end &&
                          replay.perf.events == replay2.perf.events &&
                          replay.links_walked == replay2.links_walked;
  std::printf("replay_64te: %zu/%zu requests completed, timeline %016" PRIx64 " (%s)\n",
              replay.completed, replay.requests, replay.timeline_hash,
              replay_identical ? "bit-identical replay" : "REPLAY DIVERGED");
  std::printf("replay_64te calendar links walked per insert: %.3f (bound %.2f)\n",
              replay.WalkPerInsert(), kMaxWalkPerInsert);

  LongHorizonResult half = RunLongHorizon(kLongHorizonSeconds / 2, opt.seed);
  LongHorizonResult lh = RunLongHorizon(kLongHorizonSeconds, opt.seed);
  LongHorizonResult lh2 = RunLongHorizon(kLongHorizonSeconds, opt.seed);
  PrintRow("long_horizon", lh.replay.perf);
  bool lh_identical = lh.replay.timeline_hash == lh2.replay.timeline_hash &&
                      lh.replay.perf.events == lh2.replay.perf.events &&
                      lh.rtc_lru_examined == lh2.rtc_lru_examined &&
                      lh.je_tree_examined == lh2.je_tree_examined &&
                      lh.je_log_appended == lh2.je_log_appended &&
                      lh.je_log_retained == lh2.je_log_retained &&
                      lh.prompt_hashes == lh2.prompt_hashes &&
                      lh.replay.links_walked == lh2.replay.links_walked;
  double lh_req_per_s =
      static_cast<double>(lh.replay.requests) / std::max(lh.replay.perf.wall_s, 1e-9);
  double work_growth = lh.WorkPerRequest() / std::max(half.WorkPerRequest(), 1e-9);
  std::printf("long_horizon: %zu/%zu requests completed, %.0f requests/wall-s, timeline %016"
              PRIx64 " (%s)\n",
              lh.replay.completed, lh.replay.requests, lh_req_per_s, lh.replay.timeline_hash,
              lh_identical ? "bit-identical replay" : "REPLAY DIVERGED");
  std::printf("long_horizon LRU leaves examined per request: rtc %.1f + je %.1f at %.0f sim-s, "
              "rtc %.1f + je %.1f at %.0f sim-s (growth %.3fx, bound %.2fx)\n",
              lh.PerRequest(lh.rtc_lru_examined), lh.PerRequest(lh.je_tree_examined),
              kLongHorizonSeconds, half.PerRequest(half.rtc_lru_examined),
              half.PerRequest(half.je_tree_examined), kLongHorizonSeconds / 2, work_growth,
              kMaxWorkGrowth);
  std::printf("long_horizon calendar links walked per insert: %.3f\n",
              lh.replay.WalkPerInsert());
  const double prompt_hashes_per_request = lh.PerRequest(lh.prompt_hashes);
  std::printf("long_horizon prompt key chains hashed per request: %.3f (bound %.2f)\n",
              prompt_hashes_per_request, kMaxPromptHashesPerRequest);
  std::printf("long_horizon JE control log: %" PRId64 " records appended, %" PRId64
              " retained at %.0f sim-s (%" PRId64 " at %.0f sim-s)\n",
              lh.je_log_appended, lh.je_log_retained, kLongHorizonSeconds, half.je_log_retained,
              kLongHorizonSeconds / 2);

  std::FILE* f = std::fopen(opt.out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perf_sim: cannot open %s\n", opt.out.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"perf_sim\",\n");
  std::fprintf(f, "  \"mode\": \"%s\",\n", opt.smoke ? "smoke" : "full");
  std::fprintf(f, "  \"seed\": %" PRIu64 ",\n", opt.seed);
  std::fprintf(f, "  \"scenarios\": {\n");
  std::fprintf(f,
               "    \"event_churn\": {\"events_fired\": %" PRIu64
               ", \"wall_seconds\": %.6f, \"events_per_sec\": %.1f, "
               "\"sim_seconds_per_wall_second\": %.3f, \"legacy_events_per_sec\": %.1f, "
               "\"speedup_vs_legacy\": %.3f},\n",
               churn.events, churn.wall_s, churn.events_per_sec(), churn.sim_per_wall(),
               churn_legacy.events_per_sec(), churn_speedup);
  std::fprintf(f,
               "    \"cancel_storm\": {\"events_scheduled\": %" PRIu64
               ", \"wall_seconds\": %.6f, \"events_per_sec\": %.1f, "
               "\"sim_seconds_per_wall_second\": %.3f, \"legacy_events_per_sec\": %.1f, "
               "\"speedup_vs_legacy\": %.3f},\n",
               storm.events, storm.wall_s, storm.events_per_sec(), storm.sim_per_wall(),
               storm_legacy.events_per_sec(), storm_speedup);
  std::fprintf(f,
               "    \"replay_64te\": {\"tes\": %d, \"requests\": %zu, \"completed\": %zu, "
               "\"events_fired\": %" PRIu64
               ", \"wall_seconds\": %.6f, \"events_per_sec\": %.1f, "
               "\"sim_seconds_per_wall_second\": %.3f, \"links_walked_per_insert\": %.4f, "
               "\"timeline_hash\": \"%016" PRIx64 "\", \"replay_identical\": %s},\n",
               tes, replay.requests, replay.completed, replay.perf.events, replay.perf.wall_s,
               replay.perf.events_per_sec(), replay.perf.sim_per_wall(), replay.WalkPerInsert(),
               replay.timeline_hash, replay_identical ? "true" : "false");
  std::fprintf(f,
               "    \"long_horizon\": {\"tes\": %d, \"rps\": %.1f, \"sim_seconds\": %.0f, "
               "\"requests\": %zu, \"completed\": %zu, \"events_fired\": %" PRIu64
               ", \"wall_seconds\": %.6f, \"requests_per_wall_second\": %.1f, "
               "\"rtc_lru_leaves_examined_per_request\": %.3f, "
               "\"je_tree_leaves_examined_per_request\": %.3f, "
               "\"half_horizon_rtc_lru_leaves_examined_per_request\": %.3f, "
               "\"half_horizon_je_tree_leaves_examined_per_request\": %.3f, "
               "\"work_growth\": %.4f, \"je_log_records_appended\": %" PRId64
               ", \"je_log_records_retained\": %" PRId64
               ", \"half_horizon_je_log_records_retained\": %" PRId64
               ", \"links_walked_per_insert\": %.4f, \"prompt_hashes_per_request\": %.4f"
               ", \"rtc_pinned_blocks_after_drain\": %" PRId64
               ", \"timeline_hash\": \"%016" PRIx64 "\", \"replay_identical\": %s}\n",
               kLongHorizonTes, kLongHorizonRps, kLongHorizonSeconds, lh.replay.requests,
               lh.replay.completed,
               lh.replay.perf.events, lh.replay.perf.wall_s, lh_req_per_s,
               lh.PerRequest(lh.rtc_lru_examined), lh.PerRequest(lh.je_tree_examined),
               half.PerRequest(half.rtc_lru_examined), half.PerRequest(half.je_tree_examined),
               work_growth, lh.je_log_appended, lh.je_log_retained, half.je_log_retained,
               lh.replay.WalkPerInsert(), prompt_hashes_per_request, lh.rtc_pinned,
               lh.replay.timeline_hash, lh_identical ? "true" : "false");
  std::fprintf(f, "  }\n}\n");
  std::fclose(f);
  std::fprintf(stderr, "perf_sim: wrote %s\n", opt.out.c_str());

  if (opt.smoke) {
    if (!replay_identical) {
      std::fprintf(stderr,
                   "SMOKE FAIL: full-stack replay diverged (%016" PRIx64 " vs %016" PRIx64 ")\n",
                   replay.timeline_hash, replay2.timeline_hash);
      return 1;
    }
    if (replay.completed == 0) {
      std::fprintf(stderr, "SMOKE FAIL: replay completed no requests\n");
      return 1;
    }
    if (replay.WalkPerInsert() > kMaxWalkPerInsert) {
      std::fprintf(stderr,
                   "SMOKE FAIL: replay_64te walked %.3f calendar links per insert (bound %.2f)\n",
                   replay.WalkPerInsert(), kMaxWalkPerInsert);
      return 1;
    }
    if (!lh_identical) {
      std::fprintf(stderr,
                   "SMOKE FAIL: long_horizon replay diverged (%016" PRIx64 " vs %016" PRIx64 ")\n",
                   lh.replay.timeline_hash, lh2.replay.timeline_hash);
      return 1;
    }
    if (work_growth > kMaxWorkGrowth) {
      std::fprintf(stderr,
                   "SMOKE FAIL: long_horizon LRU work per request grew %.3fx from %.0f to %.0f "
                   "sim-s (bound %.2fx)\n",
                   work_growth, kLongHorizonSeconds / 2, kLongHorizonSeconds, kMaxWorkGrowth);
      return 1;
    }
    if (lh.je_log_retained > half.je_log_retained) {
      std::fprintf(stderr,
                   "SMOKE FAIL: long_horizon JE control log retains %" PRId64
                   " records at %.0f sim-s but %" PRId64 " at %.0f sim-s\n",
                   lh.je_log_retained, kLongHorizonSeconds, half.je_log_retained,
                   kLongHorizonSeconds / 2);
      return 1;
    }
    if (prompt_hashes_per_request > kMaxPromptHashesPerRequest) {
      std::fprintf(stderr,
                   "SMOKE FAIL: long_horizon hashed %.3f prompt key chains per request "
                   "(bound %.2f)\n",
                   prompt_hashes_per_request, kMaxPromptHashesPerRequest);
      return 1;
    }
    if (lh.rtc_pinned != 0) {
      std::fprintf(stderr,
                   "SMOKE FAIL: long_horizon left %" PRId64
                   " RTC blocks transfer-pinned after the drain\n",
                   lh.rtc_pinned);
      return 1;
    }
    if (storm_speedup < 3.0) {
      std::fprintf(stderr,
                   "SMOKE FAIL: cancel_storm speedup %.2fx < 3x over the legacy core "
                   "(%.0f vs %.0f events/sec)\n",
                   storm_speedup, storm.events_per_sec(), storm_legacy.events_per_sec());
      return 1;
    }
    std::fprintf(stderr,
                 "smoke OK: replays bit-identical, cancel_storm %.2fx vs legacy, replay_64te "
                 "%.3f links walked per insert, long_horizon LRU work growth %.3fx, JE log "
                 "retains %" PRId64 " of %" PRId64 " records, %.3f prompt hashes per "
                 "request, %" PRId64 " RTC blocks pinned after the drain\n",
                 storm_speedup, replay.WalkPerInsert(), work_growth, lh.je_log_retained,
                 lh.je_log_appended, prompt_hashes_per_request, lh.rtc_pinned);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bench::OptionRegistry registry;
  registry.Flag("out", &opt.out, "machine-readable result JSON path");
  registry.Flag("seed", &opt.seed, "workload seed");
  registry.Flag("smoke", &opt.smoke,
                "fast run; exits non-zero unless replays are bit-identical, the "
                "slab core beats the legacy heap on cancel_storm, long_horizon LRU "
                "work per request stays flat, its JE control log stays bounded, its "
                "prompts are hashed once per request, no RTC transfer pin outlives "
                "the drain and the full-stack replay's calendar inserts stay O(1)");
  std::vector<char*> obs_args = registry.Parse(argc, argv);
  bench::ObsSession obs(static_cast<int>(obs_args.size()), obs_args.data());
  return RunAll(opt);
}
