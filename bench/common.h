// Shared scaffolding for the figure-reproduction benches: flag parsing, the
// paper's engine presets, the obs session, the single-JE FleetSpec, and table
// formatting.
#ifndef DEEPSERVE_BENCH_COMMON_H_
#define DEEPSERVE_BENCH_COMMON_H_

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/time_units.h"
#include "ctrl/control_log.h"
#include "fleet/fleet.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serving/route_policy.h"
#include "sim/simulator.h"
#include "workload/tracegen.h"

namespace deepserve::bench {

// Uniform command-line parsing for the benches. Register typed flags up
// front, then Parse() consumes the matching argv entries and returns the
// leftovers (argv[0] plus anything unrecognized) ready to hand to ObsSession.
// `--help` prints every registered flag plus the ObsSession ones and exits.
//
// Value flags are spelled --name=VALUE; bool flags are bare --name switches.
// Help order is registration order, so related flags group naturally.
class OptionRegistry {
 public:
  void Flag(const std::string& name, double* out, const std::string& help) {
    Add(name, help, /*is_switch=*/false,
        [out](const std::string& value) { *out = std::atof(value.c_str()); });
  }
  void Flag(const std::string& name, int* out, const std::string& help) {
    Add(name, help, /*is_switch=*/false,
        [out](const std::string& value) { *out = std::atoi(value.c_str()); });
  }
  void Flag(const std::string& name, uint64_t* out, const std::string& help) {
    Add(name, help, /*is_switch=*/false, [out](const std::string& value) {
      *out = std::strtoull(value.c_str(), nullptr, 10);
    });
  }
  void Flag(const std::string& name, std::string* out, const std::string& help) {
    Add(name, help, /*is_switch=*/false, [out](const std::string& value) { *out = value; });
  }
  void Flag(const std::string& name, bool* out, const std::string& help) {
    Add(name, help, /*is_switch=*/true, [out](const std::string&) { *out = true; });
  }

  std::vector<char*> Parse(int argc, char** argv) {
    std::vector<char*> rest{argv[0]};
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg == "--help" || arg == "-h") {
        PrintHelp(argv[0]);
        std::exit(0);
      }
      if (!Consume(arg)) {
        rest.push_back(argv[i]);
      }
    }
    return rest;
  }

  void PrintHelp(const char* argv0) const {
    std::printf("usage: %s [flags]\n", argv0);
    for (const auto& entry : entries_) {
      std::printf("  --%s%s\n        %s\n", entry.name.c_str(), entry.is_switch ? "" : "=VALUE",
                  entry.help.c_str());
    }
    std::printf(
        "  --trace-out=PATH\n        Chrome trace_event JSON (chrome://tracing, Perfetto)\n"
        "  --trace-jsonl=PATH\n        one trace event per line, for scripted analysis\n"
        "  --metrics-out=PATH\n        metrics-registry dump (counters/gauges/stats)\n");
  }

 private:
  struct Entry {
    std::string name;
    std::string help;
    bool is_switch;
    std::function<void(const std::string&)> set;
  };

  void Add(const std::string& name, const std::string& help, bool is_switch,
           std::function<void(const std::string&)> set) {
    entries_.push_back(Entry{name, help, is_switch, std::move(set)});
  }

  bool Consume(const std::string& arg) {
    for (const auto& entry : entries_) {
      if (entry.is_switch) {
        if (arg == "--" + entry.name) {
          entry.set("");
          return true;
        }
      } else {
        std::string prefix = "--" + entry.name + "=";
        if (arg.compare(0, prefix.size(), prefix) == 0) {
          entry.set(arg.substr(prefix.size()));
          return true;
        }
      }
    }
    return false;
  }

  std::vector<Entry> entries_;  // registration order == help order (deterministic)
};

// The traffic-management flags shared by deepserve_sim and the traffic
// benches, mapped onto serving::RouteConfig.
struct RouteOptions {
  std::string lb_policy = "rr";
  double hedge_ms = 0.0;      // 0 disables hedging
  int retry_budget = 0;       // budget floor; 0 leaves retries uncapped
  int outlier_errors = 0;     // consecutive errors before ejection; 0 = off
  double outlier_base_s = 5.0;
  double outlier_max_s = 60.0;

  void Register(OptionRegistry& options) {
    options.Flag("lb-policy", &lb_policy, "routing policy: rr | p2c | wlc | slo");
    options.Flag("hedge-ms", &hedge_ms,
                 "hedge-delay floor in ms; stragglers are duplicated onto a second "
                 "replica after max(this, observed p95) (0 = no hedging)");
    options.Flag("retry-budget", &retry_budget,
                 "shared crash-retry budget floor across JEs (0 = uncapped retries)");
    options.Flag("outlier-errors", &outlier_errors,
                 "consecutive errors before ejecting a replica (0 = ejection off)");
    options.Flag("outlier-base-s", &outlier_base_s, "initial ejection duration, seconds");
    options.Flag("outlier-max-s", &outlier_max_s, "ejection-backoff cap, seconds");
  }

  serving::RouteConfig ToConfig(uint64_t seed) const {
    serving::RouteConfig config;
    config.policy = lb_policy;
    config.seed = seed;
    config.hedge_floor = MsToNs(hedge_ms);
    config.retry_budget = retry_budget > 0;
    config.retry_floor = retry_budget;
    config.eject_consecutive_errors = outlier_errors;
    config.eject_base = SToNs(outlier_base_s);
    config.eject_max = SToNs(outlier_max_s);
    return config;
  }
};

// The replicated-control-plane flags shared by deepserve_sim and the
// failover benches, mapped onto ctrl::CtrlConfig.
struct CtrlOptions {
  int replicas = 1;         // 1 = degenerate unreplicated log (the default)
  double latency_ms = 1.0;  // append -> applied-on-a-standby delay
  double lease_ms = 500.0;  // leader lease (failover-delay floor)

  void Register(OptionRegistry& options) {
    options.Flag("ctrl-replicas", &replicas,
                 "control-plane log replicas per domain (1 = unreplicated: a "
                 "leader crash is permanent; >=2 enables standby failover)");
    options.Flag("ctrl-latency-ms", &latency_ms,
                 "control-log replication latency in ms (standby lag charged "
                 "at takeover)");
    options.Flag("ctrl-lease-ms", &lease_ms,
                 "leader lease in ms a standby must wait out before takeover");
  }

  ctrl::CtrlConfig ToConfig() const {
    ctrl::CtrlConfig config;
    config.replicas = replicas;
    config.quorum = replicas / 2 + 1;
    config.replication_latency = MsToNs(latency_ms);
    config.lease_duration = MsToNs(lease_ms);
    return config;
  }
};

// The paper's default serving instance: the 34B model at TP=4 on Gen2 NPUs.
inline flowserve::EngineConfig Engine34BTp4(flowserve::EngineRole role) {
  flowserve::EngineConfig config;
  config.model = model::ModelSpec::Yi34B();
  config.npu_spec = hw::NpuSpec::Gen2();
  config.parallelism = {4, 1, 1};
  config.role = role;
  return config;
}

// The online-serving testbed variant (Figs. 4-6): Gen1-class NPUs and a
// tighter per-step token budget, which puts the instance near the paper's
// operating point (saturation around ~1 RPS per fleet, visible prefill/decode
// interference inside PD-colocated engines).
inline flowserve::EngineConfig Engine34BTp4Paper(flowserve::EngineRole role) {
  flowserve::EngineConfig config = Engine34BTp4(role);
  config.npu_spec = hw::NpuSpec::Gen1();
  config.max_tokens_per_step = 2048;
  config.prefill_chunk_tokens = 1024;
  return config;
}

// Command-line observability session for the benches. Parses
//   --trace-out=<path>     Chrome trace_event JSON (chrome://tracing, Perfetto)
//   --trace-jsonl=<path>   one event per line, for scripted analysis
//   --metrics-out=<path>   metrics-registry dump (counters/gauges/stats)
// and hands its tracer/registry to every Fleet built with ActiveObs() while it
// is alive (raw-sim benches call Attach() themselves). Outputs are written
// when the session is destroyed. With no flags given, nothing attaches and
// the run is bit-identical to an uninstrumented one.
class ObsSession {
 public:
  ObsSession(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      auto take = [&arg](const char* prefix, std::string* out) {
        size_t n = std::strlen(prefix);
        if (arg.compare(0, n, prefix) == 0) {
          *out = arg.substr(n);
          return true;
        }
        return false;
      };
      if (!take("--trace-out=", &chrome_path_) && !take("--trace-jsonl=", &jsonl_path_) &&
          !take("--metrics-out=", &metrics_path_)) {
        std::fprintf(stderr,
                     "warning: ignoring unknown flag %s (supported: --trace-out=, "
                     "--trace-jsonl=, --metrics-out=)\n",
                     arg.c_str());
      }
    }
    active_ = this;
  }

  ~ObsSession() {
    Finish();
    if (active_ == this) {
      active_ = nullptr;
    }
  }

  ObsSession(const ObsSession&) = delete;
  ObsSession& operator=(const ObsSession&) = delete;

  bool tracing() const { return !chrome_path_.empty() || !jsonl_path_.empty(); }
  bool metrics_enabled() const { return !metrics_path_.empty(); }

  void Attach(sim::Simulator& sim) {
    fleet::ObsSinks obs = sinks();
    sim.SetTracer(obs.tracer);
    if (obs.metrics != nullptr) {
      sim.SetMetrics(obs.metrics);
    }
  }
  fleet::ObsSinks sinks() {
    return {tracing() ? &tracer_ : nullptr, metrics_enabled() ? &metrics_ : nullptr};
  }

  // Writes the requested outputs (idempotent; also runs at destruction).
  void Finish() {
    if (finished_) {
      return;
    }
    finished_ = true;
    auto report = [](const Status& status, const std::string& path, size_t events) {
      if (!status.ok()) {
        std::fprintf(stderr, "trace: %s\n", status.ToString().c_str());
      } else {
        std::fprintf(stderr, "trace: wrote %zu events to %s\n", events, path.c_str());
      }
    };
    if (!chrome_path_.empty()) {
      report(tracer_.WriteChromeJson(chrome_path_), chrome_path_, tracer_.size());
    }
    if (!jsonl_path_.empty()) {
      report(tracer_.WriteJsonl(jsonl_path_), jsonl_path_, tracer_.size());
    }
    if (!metrics_path_.empty()) {
      std::string dump = metrics_.Dump();
      std::FILE* f = std::fopen(metrics_path_.c_str(), "w");
      if (f == nullptr) {
        std::fprintf(stderr, "metrics: cannot open %s\n", metrics_path_.c_str());
      } else {
        std::fwrite(dump.data(), 1, dump.size(), f);
        std::fclose(f);
        std::fprintf(stderr, "metrics: wrote %s\n", metrics_path_.c_str());
      }
    }
  }

  obs::Tracer& tracer() { return tracer_; }
  obs::MetricsRegistry& metrics() { return metrics_; }

  // The session currently in scope (benches construct exactly one, first
  // thing in main), or nullptr when the bench takes no observability flags.
  static ObsSession* active() { return active_; }

 private:
  std::string chrome_path_;
  std::string jsonl_path_;
  std::string metrics_path_;
  bool finished_ = false;
  obs::Tracer tracer_;
  obs::MetricsRegistry metrics_;
  static inline ObsSession* active_ = nullptr;
};

// The spec every single-JE figure bench starts from: a homogeneous cluster of
// `num_machines` machines in one HCCS scale-up domain (of at least 4) and one
// JE running `policy`.
inline fleet::FleetSpec TestbedSpec(
    int num_machines = 4,
    serving::SchedulingPolicy policy = serving::SchedulingPolicy::kCombined) {
  fleet::FleetSpec spec;
  spec.cluster.num_machines = num_machines;
  spec.cluster.machines_per_scaleup_domain = std::max(4, num_machines);
  spec.je.policy = policy;
  return spec;
}

// The active ObsSession's sinks for a Fleet (none without a session).
inline fleet::ObsSinks ActiveObs() {
  ObsSession* obs = ObsSession::active();
  return obs != nullptr ? obs->sinks() : fleet::ObsSinks{};
}

inline void PrintHeader(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

inline void PrintRule() {
  std::printf("----------------------------------------------------------------\n");
}

}  // namespace deepserve::bench

#endif  // DEEPSERVE_BENCH_COMMON_H_
