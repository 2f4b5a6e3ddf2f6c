// The composition root: one DeepServe serving deployment (Fig. 1a) built
// from a declarative FleetSpec.
//
// A Fleet owns the simulator, the cluster, DistFlow's TransferEngine, the
// optional shared control log, the ClusterManager, N Job Executors and an
// optional Frontend over them, and fixes the two decisions every serving
// stack has to make the same way:
//
//   * build order — obs sinks attach to the simulator before any component
//     exists; then cluster, TransferEngine, control log, CM, JEs (in index
//     order), the TE-failure wiring, and the Frontend. TEs come after, via
//     AddTe, and Link() connects their DistFlow endpoints and settles.
//   * control plane — ctrl.replicas > 1 puts the CM's TE directory and every
//     JE's job table on one shared replicated log (JobExecutor::AttachControl,
//     which also registers each JE's own TE-failure handler). Otherwise CM and
//     JEs keep their private degenerate logs and the CM gets one failure
//     handler that fans out to every JE in index order.
//
// Everything else (fault injection, autoscaling, placement and detection
// knobs) stays on the components, reached through the accessors.
#ifndef DEEPSERVE_FLEET_FLEET_H_
#define DEEPSERVE_FLEET_FLEET_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "ctrl/control_log.h"
#include "distflow/distflow.h"
#include "flowserve/engine_config.h"
#include "hw/cluster.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serving/cluster_manager.h"
#include "serving/frontend.h"
#include "serving/job_executor.h"
#include "serving/predictor.h"
#include "serving/route_policy.h"
#include "sim/simulator.h"
#include "workload/metrics.h"
#include "workload/request.h"

namespace deepserve::fleet {

struct FleetSpec {
  hw::ClusterConfig cluster;
  serving::ScalingOptimizations scaling;  // Table-2 toggles of the CM's pipeline
  // replicas > 1: one shared replicated log for the CM and every JE.
  ctrl::CtrlConfig ctrl;
  serving::JeConfig je;  // every JE runs this config
  int num_jes = 1;
  // Builds each JE's decode-length predictor.
  std::function<std::unique_ptr<serving::DecodeLengthPredictor>()> predictor =
      serving::MakeOraclePredictor;
  // A Frontend over every JE, registered for `model` and routed by `route`.
  bool frontend = false;
  std::string model = "yi-34b";
  serving::RouteConfig route;
};

// Observability sinks attached to the simulator before anything is built
// (null = off; a replay is bit-identical either way).
struct ObsSinks {
  obs::Tracer* tracer = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
};

// A replay's terminations. Each submitted request ends in exactly one of
// completed, errored or rejected; double_terminated counts any beyond that.
struct ReplayTally {
  int64_t completed = 0;
  int64_t errored = 0;   // on_error after acceptance
  int64_t rejected = 0;  // Frontend pre-dispatch rejections
  int64_t double_terminated = 0;
};

// Per-request callbacks of a replay, beside the MetricsCollector record and
// the tally. Any member may be null.
struct ReplayHooks {
  // `first_token` is the prefill side's first-token time (a disaggregated
  // completion fires on the decode TE, which never saw the first token).
  std::function<void(const workload::RequestSpec&, TimeNs first_token,
                     const flowserve::Sequence&)>
      on_complete;
  std::function<void(const workload::RequestSpec&, const Status&)> on_error;
  // A Frontend pre-dispatch rejection: the request's one and only report.
  std::function<void(const workload::RequestSpec&, const Status&)> on_reject;
};

class Fleet {
 public:
  explicit Fleet(FleetSpec spec, ObsSinks obs = {});
  ~Fleet();

  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  // Creates a ready TE of `role` running `engine` and joins JE `je`'s group
  // for that role. A TE that does not fit the cluster is a fatal error.
  serving::TaskExecutor* AddTe(flowserve::EngineRole role, flowserve::EngineConfig engine,
                               size_t je = 0);
  // AddTe for `colocated` unified, then `prefill` and `decode` TEs, in order.
  void AddTes(const flowserve::EngineConfig& engine, int colocated, int prefill, int decode,
              size_t je = 0);
  // Links the DistFlow endpoints of every TE added so far and runs the
  // simulator until link setup settles. Call once, after the last AddTe.
  void Link();

  // Schedules every request of `trace` at its arrival: through the Frontend
  // when the fleet has one (ChatRequest deadline = spec.deadline), else to
  // JE 0. Completions accumulate in metrics(), terminations in tally().
  // `hooks` replace those of any earlier Submit, for its requests too.
  void Submit(const std::vector<workload::RequestSpec>& trace, ReplayHooks hooks = {});
  // Submit, run the simulator to completion, and hand back the metrics.
  workload::MetricsCollector Replay(const std::vector<workload::RequestSpec>& trace,
                                    ReplayHooks hooks = {});
  const workload::MetricsCollector& metrics() const { return metrics_; }
  const ReplayTally& tally() const { return tally_; }

  sim::Simulator& sim() { return sim_; }
  hw::Cluster& cluster() { return *cluster_; }
  distflow::TransferEngine& transfer() { return *transfer_; }
  // The shared control log; null unless spec.ctrl.replicas > 1.
  ctrl::ControlLog* ctrl_log() { return ctrl_log_.get(); }
  serving::ClusterManager& manager() { return *manager_; }
  serving::JobExecutor& je(size_t index = 0) { return *jes_.at(index); }
  size_t num_jes() const { return jes_.size(); }
  // Null unless spec.frontend.
  serving::Frontend* frontend() { return frontend_.get(); }

 private:
  serving::ResponseHandler Handler(const workload::RequestSpec& spec);
  void Terminate(workload::RequestId id, int64_t* counter);

  FleetSpec spec_;
  sim::Simulator sim_;
  std::unique_ptr<hw::Cluster> cluster_;
  std::unique_ptr<distflow::TransferEngine> transfer_;
  std::unique_ptr<ctrl::ControlLog> ctrl_log_;  // before manager_: CM detaches in ~
  std::unique_ptr<serving::ClusterManager> manager_;
  std::vector<std::unique_ptr<serving::JobExecutor>> jes_;
  std::unique_ptr<serving::Frontend> frontend_;
  std::vector<distflow::EndpointId> endpoints_;

  // Replay state.
  ReplayHooks hooks_;
  workload::MetricsCollector metrics_;
  std::map<workload::RequestId, TimeNs> first_tokens_;
  std::map<workload::RequestId, int> terminations_;
  ReplayTally tally_;
};

}  // namespace deepserve::fleet

#endif  // DEEPSERVE_FLEET_FLEET_H_
