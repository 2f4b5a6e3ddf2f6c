// JobTable: the JobExecutor's replicated control-plane state as a
// deterministic state machine (ctrl_state_machine.h).
//
// Holds everything a standby JE needs to resume: the job/task records, the
// outstanding map (request + TEs touched + retry count — enough to re-dispatch
// or fail a request exactly once), the id counters, the round-robin cursor,
// and the TE group membership (as ids). Runtime-only artifacts stay in the
// JobExecutor: ResponseHandlers (re-established connections on takeover),
// TaskExecutor pointers (re-bound from ids via the ClusterManager), and the
// prompt-tree caches (rebuildable, affect only routing quality).
//
// workload/job.h holds the leaf record types (JobRecord/TaskRecord), so the
// control plane carries no dependency on the serving layer.
#ifndef DEEPSERVE_CTRL_JOB_TABLE_H_
#define DEEPSERVE_CTRL_JOB_TABLE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "common/types.h"
#include "ctrl/ctrl_state_machine.h"
#include "workload/job.h"
#include "workload/request.h"

namespace deepserve::ctrl {

class JobTable final : public CtrlStateMachine {
 public:
  struct Outstanding {
    workload::SharedRequest request;  // shared with the log record and the engines
    std::vector<workload::TeId> tes;  // TEs this request has touched
    int retries = 0;
  };

  explicit JobTable(int32_t domain = 0) : CtrlStateMachine(domain) {}

  std::string_view name() const override { return "job-table"; }
  void Apply(const LogRecord& record) override;
  uint64_t Fingerprint() const override;
  std::unique_ptr<CtrlStateMachine> NewReplica() const override {
    return std::make_unique<JobTable>(domain());
  }
  void CopyFrom(const CtrlStateMachine& other) override;

  // ---- const views the leader decides from ----------------------------------
  const std::vector<workload::JobRecord>& jobs() const { return jobs_; }
  const std::vector<workload::TaskRecord>& tasks() const { return tasks_; }
  const workload::JobRecord* FindJob(workload::JobId id) const;
  const std::map<workload::JobId, Outstanding>& outstanding() const { return outstanding_; }
  bool IsOutstanding(workload::JobId id) const { return outstanding_.count(id) != 0; }
  const std::vector<workload::TeId>& group(TeGroup g) const {
    return groups_[static_cast<size_t>(g)];
  }
  workload::JobId next_job() const { return next_job_; }
  workload::TaskId next_task() const { return next_task_; }
  uint64_t rr_cursor() const { return rr_cursor_; }
  int64_t epoch() const { return epoch_; }
  uint64_t applied() const { return applied_; }

 private:
  std::vector<workload::JobRecord> jobs_;
  std::vector<workload::TaskRecord> tasks_;
  std::map<workload::JobId, size_t> job_index_;
  std::map<workload::TaskId, size_t> task_index_;
  std::map<workload::JobId, Outstanding> outstanding_;
  std::vector<workload::TeId> groups_[3];
  workload::JobId next_job_ = 1;
  workload::TaskId next_task_ = 1;
  uint64_t rr_cursor_ = 0;
  int64_t epoch_ = 0;
  uint64_t applied_ = 0;  // records applied (replay sanity counter)
};

}  // namespace deepserve::ctrl

#endif  // DEEPSERVE_CTRL_JOB_TABLE_H_
