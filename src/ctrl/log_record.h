// The control log's record format: one plain struct per record kind, and the
// sequenced envelope that carries one of them.
//
// Each struct holds exactly the outcome its state machine applies, in the
// types that machine stores. TeDirectory (the CM's domain) applies the first
// group, JobTable (the JE's domain) the second; Epoch is shared. Apply on
// either machine DS_CHECK-fails on a kind of the other domain. ControlLog
// never looks inside the op: it sequences, stamps, stores and delivers.
#ifndef DEEPSERVE_CTRL_LOG_RECORD_H_
#define DEEPSERVE_CTRL_LOG_RECORD_H_

#include <cstdint>
#include <variant>
#include <vector>

#include "common/types.h"
#include "hw/npu.h"
#include "workload/job.h"
#include "workload/request.h"

namespace deepserve::ctrl {

// ---- TeDirectory ------------------------------------------------------------
struct DirectoryInit {
  int num_npus = 0;
};
struct PodsReserved {
  int count = 0;
};
struct WarmTesReserved {
  int count = 0;
};
struct NpusAllocated {
  std::vector<hw::NpuId> npus;
};
struct NpusReleased {
  std::vector<hw::NpuId> npus;
};
// A ready TE (CreateReadyTe / ScaleUpMany).
struct TeCreated {
  workload::TeId te = workload::kInvalidTe;
  std::vector<hw::NpuId> npus;
};
// Reserves both ids; the TE is provisioning until PipelineDone.
struct PipelineStarted {
  int64_t pipe = -1;
  workload::TeId te = workload::kInvalidTe;
  std::vector<hw::NpuId> npus;
};
// Prewarmed pods / TEs taken by a pipeline.
struct PodsConsumed {
  int count = 0;
};
struct WarmTesConsumed {
  int count = 0;
};
struct StageDone {
  int64_t pipe = -1;
  int32_t stage = 0;
};
// TE -> ready, pipeline closed.
struct PipelineDone {
  int64_t pipe = -1;
};
// TE -> aborted, pipeline closed.
struct PipelineAborted {
  int64_t pipe = -1;
};
struct TeStopped {
  workload::TeId te = workload::kInvalidTe;
};
struct TeCrashed {
  workload::TeId te = workload::kInvalidTe;
  int32_t kind = -1;  // serving::CrashKind
  TimeNs time = -1;   // the crash, which a buffered report appends later
};
struct TeDetected {
  workload::TeId te = workload::kInvalidTe;
};

// ---- JobTable ---------------------------------------------------------------
enum class TeGroup : int32_t { kColocated = 0, kPrefill = 1, kDecode = 2 };

struct TeAdded {
  TeGroup group = TeGroup::kColocated;
  workload::TeId te = workload::kInvalidTe;
};
// Removed from every group.
struct TeRemoved {
  workload::TeId te = workload::kInvalidTe;
};
// The dispatched request is immutable, so the record, the leader and the
// standby share it.
struct JobCreated {
  workload::JobId job = 0;
  int retries = 0;
  workload::SharedRequest request;
};
// The outstanding request touches this TE.
struct JobTeBound {
  workload::JobId job = 0;
  workload::TeId te = workload::kInvalidTe;
};
struct TaskCreated {
  workload::TaskId task = 0;
  workload::JobId job = 0;
  workload::TaskType type = workload::TaskType::kUnified;
  workload::TeId te = workload::kInvalidTe;
};
struct TaskCompleted {
  workload::TaskId task = 0;
};
// Job + open tasks completed; outstanding entry erased.
struct JobCompleted {
  workload::JobId job = 0;
};
// Job + open tasks failed; outstanding entry erased.
struct JobFailed {
  workload::JobId job = 0;
};
// Round-robin cursor tick.
struct RrAdvanced {};

// ---- both domains -----------------------------------------------------------
// A new leader took over this domain.
struct Epoch {};

using LogOp = std::variant<DirectoryInit, PodsReserved, WarmTesReserved, NpusAllocated,
                           NpusReleased, TeCreated, PipelineStarted, PodsConsumed,
                           WarmTesConsumed, StageDone, PipelineDone, PipelineAborted, TeStopped,
                           TeCrashed, TeDetected, TeAdded, TeRemoved, JobCreated, JobTeBound,
                           TaskCreated, TaskCompleted, JobCompleted, JobFailed, RrAdvanced,
                           Epoch>;

// One sequenced mutation. `seq` is global across domains (the log is shared);
// `domain` routes the record to one state machine.
struct LogRecord {
  uint64_t seq = 0;    // assigned by ControlLog::Append
  TimeNs time = 0;     // sim time at append (replay uses this, never Now())
  int32_t domain = 0;  // ControlLog::RegisterDomain id
  LogOp op;
};

// Visits a LogOp with one lambda per kind: std::visit(Overloaded{...}, op).
template <typename... Fs>
struct Overloaded : Fs... {
  using Fs::operator()...;
};

}  // namespace deepserve::ctrl

#endif  // DEEPSERVE_CTRL_LOG_RECORD_H_
