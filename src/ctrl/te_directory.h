// TeDirectory: the ClusterManager's replicated control-plane state as a
// deterministic state machine (ctrl_state_machine.h).
//
// Everything the CM must not lose across a leader crash lives here: the TE
// registry (id, lifecycle, NPU placement), the device-in-use bitmap, the
// prewarmed pod/TE pool counters, crash bookkeeping (kind, time, detected),
// and the in-flight five-stage scale pipelines. What does NOT live here are
// runtime bindings — the live TaskExecutor objects, scheduled events, in
// flight PCIe/fork flows — which belong to the data plane and survive a
// control-plane outage on their own (a standby re-binds to them on takeover).
//
// Decisions (which NPUs to pack, whether a pool hit applies) are computed by
// the ClusterManager from const views of this class and then recorded; Apply
// only replays outcomes. All mutation is inside Apply (ds_lint:
// ctrl-apply-only).
#ifndef DEEPSERVE_CTRL_TE_DIRECTORY_H_
#define DEEPSERVE_CTRL_TE_DIRECTORY_H_

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "common/types.h"
#include "ctrl/ctrl_state_machine.h"
#include "hw/npu.h"

namespace deepserve::ctrl {

class TeDirectory final : public CtrlStateMachine {
 public:
  // CM-visible lifecycle. Draining is a data-plane (TaskExecutor) state and
  // is intentionally absent: a draining TE is kReady here until stopped.
  enum class Lifecycle : int32_t {
    kProvisioning,  // scale pipeline in flight; id reserved, no TaskExecutor yet
    kReady,
    kStopped,
    kFailed,   // crashed while serving
    kAborted,  // crashed while provisioning; never became a TaskExecutor
  };

  struct TeMeta {
    int32_t id = -1;
    Lifecycle lifecycle = Lifecycle::kProvisioning;
    std::vector<hw::NpuId> npus;
    int64_t pipeline = -1;  // open provisioning pipeline, -1 = none
    int32_t crash_kind = -1;
    TimeNs crash_time = -1;
    bool detected = false;
  };

  struct PipelineMeta {
    int64_t id = -1;
    int32_t te = -1;
    int32_t stages_done = 0;
  };

  explicit TeDirectory(int32_t domain = 0) : CtrlStateMachine(domain) {}

  std::string_view name() const override { return "te-directory"; }
  void Apply(const LogRecord& record) override;
  uint64_t Fingerprint() const override;
  std::unique_ptr<CtrlStateMachine> NewReplica() const override {
    return std::make_unique<TeDirectory>(domain());
  }
  void CopyFrom(const CtrlStateMachine& other) override;

  // ---- const views the leader decides from ----------------------------------
  const std::map<int32_t, TeMeta>& entries() const { return tes_; }
  const TeMeta* Find(int32_t id) const;
  const std::vector<uint8_t>& npu_in_use() const { return npu_in_use_; }
  int64_t npus_in_use() const;
  const std::map<int64_t, PipelineMeta>& open_pipelines() const { return pipelines_; }
  int32_t next_te_id() const { return next_te_id_; }
  int64_t next_pipeline() const { return next_pipeline_; }
  int prewarmed_pods() const { return prewarmed_pods_; }
  int prewarmed_tes() const { return prewarmed_tes_; }
  int64_t epoch() const { return epoch_; }
  uint64_t applied() const { return applied_; }

 private:
  std::map<int32_t, TeMeta> tes_;
  std::vector<uint8_t> npu_in_use_;
  int32_t next_te_id_ = 1;
  int64_t next_pipeline_ = 1;
  int prewarmed_pods_ = 0;
  int prewarmed_tes_ = 0;
  std::map<int64_t, PipelineMeta> pipelines_;
  int64_t epoch_ = 0;
  uint64_t applied_ = 0;  // records applied (replay sanity counter)
};

}  // namespace deepserve::ctrl

#endif  // DEEPSERVE_CTRL_TE_DIRECTORY_H_
