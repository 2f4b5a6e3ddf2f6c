#include "ctrl/job_table.h"

#include <algorithm>
#include <utility>
#include <variant>

#include "common/logging.h"

namespace deepserve::ctrl {

namespace {

// Marks `job` and its not-yet-completed tasks with `state` at `time` —
// the shared tail of the JobExecutor's complete/fail paths.
void CloseJob(workload::JobRecord* job, std::vector<workload::TaskRecord>* tasks,
              const std::map<workload::TaskId, size_t>& task_index,
              workload::JobState state, workload::TaskState task_state, TimeNs time) {
  job->state = state;
  job->completed = time;
  for (workload::TaskId task : job->tasks) {
    workload::TaskRecord& t = (*tasks)[task_index.at(task)];
    if (t.state != workload::TaskState::kCompleted) {
      t.state = task_state;
      t.completed = time;
    }
  }
}

}  // namespace

const workload::JobRecord* JobTable::FindJob(workload::JobId id) const {
  auto it = job_index_.find(id);
  return it == job_index_.end() ? nullptr : &jobs_[it->second];
}

void JobTable::Apply(const LogRecord& record) {
  DS_CHECK(record.domain == domain());
  ++applied_;
  const TimeNs time = record.time;
  std::visit(
      Overloaded{
          [&](const TeAdded& op) { groups_[static_cast<size_t>(op.group)].push_back(op.te); },
          [&](const TeRemoved& op) {
            for (auto& group : groups_) {
              group.erase(std::remove(group.begin(), group.end(), op.te), group.end());
            }
          },
          [&](const JobCreated& op) {
            DS_CHECK(op.job == next_job_ && op.request != nullptr);
            ++next_job_;
            workload::JobRecord job;
            job.id = op.job;
            job.request = op.request->id;
            job.type = workload::JobType::kChatCompletion;
            job.state = workload::JobState::kRunning;
            job.created = time;
            job_index_[job.id] = jobs_.size();
            jobs_.push_back(std::move(job));
            Outstanding& outstanding = outstanding_[op.job];
            outstanding.retries = op.retries;
            outstanding.request = op.request;
          },
          [&](const JobTeBound& op) {
            auto it = outstanding_.find(op.job);
            DS_CHECK(it != outstanding_.end());
            it->second.tes.push_back(op.te);
          },
          [&](const TaskCreated& op) {
            DS_CHECK(op.task == next_task_);
            ++next_task_;
            workload::TaskRecord task;
            task.id = op.task;
            task.job = op.job;
            task.type = op.type;
            task.te = op.te;
            task.state = workload::TaskState::kDispatched;
            task.created = time;
            task.dispatched = time;
            task_index_[task.id] = tasks_.size();
            jobs_[job_index_.at(task.job)].tasks.push_back(task.id);
            tasks_.push_back(task);
          },
          [&](const TaskCompleted& op) {
            workload::TaskRecord& task = tasks_[task_index_.at(op.task)];
            task.state = workload::TaskState::kCompleted;
            task.completed = time;
          },
          [&](const JobCompleted& op) {
            CloseJob(&jobs_[job_index_.at(op.job)], &tasks_, task_index_,
                     workload::JobState::kCompleted, workload::TaskState::kCompleted, time);
            outstanding_.erase(op.job);
          },
          [&](const JobFailed& op) {
            CloseJob(&jobs_[job_index_.at(op.job)], &tasks_, task_index_,
                     workload::JobState::kFailed, workload::TaskState::kFailed, time);
            outstanding_.erase(op.job);
          },
          [&](const RrAdvanced&) { ++rr_cursor_; },
          [&](const Epoch&) { ++epoch_; },
          [](const auto&) { DS_CHECK(false) << "a TeDirectory record in a JobTable domain"; },
      },
      record.op);
}

uint64_t JobTable::Fingerprint() const {
  uint64_t hash = kFnvOffset;
  Mix(&hash, static_cast<uint64_t>(next_job_));
  Mix(&hash, static_cast<uint64_t>(next_task_));
  Mix(&hash, rr_cursor_);
  Mix(&hash, static_cast<uint64_t>(epoch_));
  for (const auto& group : groups_) {
    Mix(&hash, group.size());
    for (workload::TeId id : group) {
      Mix(&hash, static_cast<uint64_t>(id));
    }
  }
  Mix(&hash, jobs_.size());
  for (const workload::JobRecord& job : jobs_) {
    Mix(&hash, static_cast<uint64_t>(job.id));
    Mix(&hash, static_cast<uint64_t>(job.request));
    Mix(&hash, static_cast<uint64_t>(job.state));
    Mix(&hash, static_cast<uint64_t>(job.created));
    Mix(&hash, static_cast<uint64_t>(job.completed));
    Mix(&hash, job.tasks.size());
    for (workload::TaskId task : job.tasks) {
      Mix(&hash, static_cast<uint64_t>(task));
    }
  }
  Mix(&hash, tasks_.size());
  for (const workload::TaskRecord& task : tasks_) {
    Mix(&hash, static_cast<uint64_t>(task.id));
    Mix(&hash, static_cast<uint64_t>(task.job));
    Mix(&hash, static_cast<uint64_t>(task.type));
    Mix(&hash, static_cast<uint64_t>(task.state));
    Mix(&hash, static_cast<uint64_t>(task.te));
    Mix(&hash, static_cast<uint64_t>(task.created));
    Mix(&hash, static_cast<uint64_t>(task.dispatched));
    Mix(&hash, static_cast<uint64_t>(task.completed));
  }
  Mix(&hash, outstanding_.size());
  for (const auto& [job_id, outstanding] : outstanding_) {
    const workload::RequestSpec& spec = *outstanding.request;
    Mix(&hash, static_cast<uint64_t>(job_id));
    Mix(&hash, static_cast<uint64_t>(spec.id));
    Mix(&hash, static_cast<uint64_t>(spec.arrival));
    Mix(&hash, static_cast<uint64_t>(spec.decode_len));
    Mix(&hash, static_cast<uint64_t>(spec.priority));
    Mix(&hash, static_cast<uint64_t>(spec.deadline));
    Mix(&hash, spec.prompt.size());
    for (TokenId token : spec.prompt) {
      Mix(&hash, static_cast<uint64_t>(token));
    }
    MixString(&hash, spec.context_id);
    Mix(&hash, static_cast<uint64_t>(outstanding.retries));
    Mix(&hash, outstanding.tes.size());
    for (workload::TeId te : outstanding.tes) {
      Mix(&hash, static_cast<uint64_t>(te));
    }
  }
  return hash;
}

void JobTable::CopyFrom(const CtrlStateMachine& other) {
  const auto* source = dynamic_cast<const JobTable*>(&other);
  DS_CHECK(source != nullptr) << "CopyFrom a " << other.name() << " into a " << name();
  *this = *source;
}

}  // namespace deepserve::ctrl
