#include "ctrl/control_log.h"

#include <utility>

#include "common/logging.h"

namespace deepserve::ctrl {

ControlLog::ControlLog(sim::Simulator* sim, CtrlConfig config)
    : sim_(sim), config_(config) {
  DS_CHECK(sim_ != nullptr);
  DS_CHECK(config_.replicas >= 1);
  DS_CHECK(config_.quorum >= 1 && config_.quorum <= config_.replicas);
  DS_CHECK(config_.replication_latency >= 0);
  DS_CHECK(config_.lease_duration >= 0);
  DS_CHECK(config_.replay_cost_per_record >= 0);
}

int32_t ControlLog::RegisterDomain(std::string name) {
  const int32_t id = next_domain_++;
  domains_[id].name = std::move(name);
  return id;
}

ControlLog::Domain& ControlLog::FindDomain(int32_t domain) {
  auto it = domains_.find(domain);
  DS_CHECK(it != domains_.end()) << "unregistered control-log domain " << domain;
  return it->second;
}

const ControlLog::Domain& ControlLog::FindDomain(int32_t domain) const {
  auto it = domains_.find(domain);
  DS_CHECK(it != domains_.end()) << "unregistered control-log domain " << domain;
  return it->second;
}

void ControlLog::Attach(CtrlStateMachine* sm) {
  DS_CHECK(sm != nullptr);
  Domain& d = FindDomain(sm->domain());
  if (d.standby == nullptr) {
    // Folding stops at a record whose domain has no standby, so none of this
    // domain's records has been dropped: the fresh replica is exact.
    d.standby = sm->NewReplica();
  }
  DS_CHECK(d.standby->name() == sm->name())
      << "domain " << d.name << " holds a " << d.standby->name() << ", not a " << sm->name();
  d.leader = sm;
}

void ControlLog::Detach(int32_t domain) { FindDomain(domain).leader = nullptr; }

const LogRecord& ControlLog::Append(LogRecord record) {
  Domain& d = FindDomain(record.domain);
  record.seq = next_seq_++;
  record.time = sim_->Now();
  ++d.appended;
  records_.push_back(std::move(record));
  const LogRecord& stored = records_.back();
  if (d.leader != nullptr) {
    d.leader->Apply(stored);
  }
  Fold();
  return stored;
}

void ControlLog::Fold() {
  const TimeNs horizon = sim_->Now() - config_.replication_latency;
  while (records_.size() > 1 && records_.front().time <= horizon) {
    CtrlStateMachine* standby = FindDomain(records_.front().domain).standby.get();
    if (standby == nullptr) {
      return;  // never attached: pinned until a standby exists
    }
    standby->Apply(records_.front());
    records_.pop_front();
  }
}

int64_t ControlLog::ReplayInto(CtrlStateMachine* sm) const {
  DS_CHECK(sm != nullptr);
  const Domain& d = FindDomain(sm->domain());
  if (d.standby != nullptr) {
    sm->CopyFrom(*d.standby);
  }
  int64_t replayed = 0;
  for (const LogRecord& record : records_) {
    if (record.domain == sm->domain()) {
      sm->Apply(record);
      ++replayed;
    }
  }
  return replayed;
}

int64_t ControlLog::CountDomain(int32_t domain) const { return FindDomain(domain).appended; }

const CtrlStateMachine* ControlLog::standby(int32_t domain) const {
  return FindDomain(domain).standby.get();
}

int64_t ControlLog::UnreplicatedAt(TimeNs crash_time) const {
  if (config_.replication_latency <= 0) {
    return 0;
  }
  DS_CHECK(records_.empty() || crash_time >= records_.back().time)
      << "records older than the replication window are already folded away";
  const TimeNs horizon = crash_time - config_.replication_latency;
  int64_t tail = 0;
  for (auto it = records_.rbegin(); it != records_.rend(); ++it) {
    if (it->time <= horizon) {
      break;
    }
    ++tail;
  }
  return tail;
}

DurationNs ControlLog::FailoverDelay(TimeNs crash_time) const {
  const int64_t tail = UnreplicatedAt(crash_time);
  return config_.lease_duration + config_.replication_latency +
         tail * config_.replay_cost_per_record;
}

}  // namespace deepserve::ctrl
