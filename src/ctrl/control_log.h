// Replicated control plane, part 2: the sequenced shared log (boki-style
// append -> sequence -> deliver).
//
// The log substrate (sequencer + storage shards) is modeled as durable: what
// crashes in our fault model is a *leader* (the ClusterManager or a
// JobExecutor acting on the state), never the log itself. That matches the
// shared-log designs this borrows from, where the log tier is replicated
// independently of its clients and a record is durable once sequenced.
//
// Timing model, chosen so the degenerate config is bit-identical to the
// pre-log tree:
//
//   * Append() assigns the next global sequence number, stamps the current
//     sim time, stores the record, and applies it inline to the attached
//     state machine of that domain. The leader is collocated with its state
//     machine, so the leader-visible apply is synchronous — NO simulator
//     events are scheduled per record, even with replication on.
//   * A standby's lag is computed analytically when a leader crashes:
//     records appended within `replication_latency` of the crash have not
//     reached the standby yet, so takeover costs
//        lease_duration                (wait out the dead leader's lease)
//      + replication_latency           (fetch the sealed tail from the log)
//      + tail_records * replay_cost    (apply them)
//     With replicas == 1 there is no standby: the leader's loss is permanent
//     until something recovers it by hand.
//
// This keeps the event stream of every non-failover run untouched (the
// 3-seed golden parity test pins that), while still charging honest time for
// failover itself.
//
// Memory model: the log stores only its unreplicated tail. Each domain owns a
// standby replica — a fresh instance of the first attached machine's type
// (CtrlStateMachine::NewReplica) that changes only by applying log records in
// sequence order. Whenever a record falls out of the replication window it is
// applied to its domain's standby and dropped, so the log retains exactly
// the records UnreplicatedAt() counts plus the newest one (the reference
// Append returns): one record with replication_latency == 0. Invariant: no
// record is dropped before a standby has applied it; a domain that was never
// attached has no standby, so its oldest record pins the log until it is.
// ReplayInto() copies the standby and replays the retained tail, so a
// failover's host work is O(tail) records, not O(history).
#ifndef DEEPSERVE_CTRL_CONTROL_LOG_H_
#define DEEPSERVE_CTRL_CONTROL_LOG_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>

#include "common/status.h"
#include "common/time_units.h"
#include "common/types.h"
#include "ctrl/ctrl_state_machine.h"
#include "sim/simulator.h"

namespace deepserve::ctrl {

struct CtrlConfig {
  // Control-plane replicas per domain (leader + standbys). 1 = no standby:
  // a leader crash is a permanent outage (the single-replica ablation).
  int replicas = 1;
  // Acks required before a record counts as delivered to the standby tier.
  // Must be <= replicas. Only meaningful when replicas > 1.
  int quorum = 1;
  // Append -> applied-on-a-standby delay. Also the cost of fetching the
  // sealed tail at takeover. 0 with replicas == 1 is the degenerate config
  // pinned bit-identical to the pre-log tree.
  DurationNs replication_latency = 0;
  // Leased leader: a standby must wait out the dead leader's lease before
  // taking over (prevents split-brain; matches the heartbeat default in
  // FaultDetectionConfig).
  DurationNs lease_duration = MsToNs(500);
  // Per-record cost of replaying the unreplicated tail at takeover.
  DurationNs replay_cost_per_record = UsToNs(2);
};

class ControlLog {
 public:
  explicit ControlLog(sim::Simulator* sim, CtrlConfig config = CtrlConfig{});

  ControlLog(const ControlLog&) = delete;
  ControlLog& operator=(const ControlLog&) = delete;

  // Registers a named domain (one state machine's record stream) and returns
  // its id. Registration order is deterministic, so ids are too.
  int32_t RegisterDomain(std::string name);

  // Attaches the live (leader) instance for sm->domain(): every subsequent
  // Append of that domain is applied to it inline. One attachment per domain;
  // re-attaching replaces the previous instance (failover swap). The first
  // attachment of a domain creates its standby replica from sm->NewReplica();
  // later ones must attach a machine of the same type.
  void Attach(CtrlStateMachine* sm);
  // Stops leader-applying the domain's records. Its standby keeps folding.
  void Detach(int32_t domain);

  // Sequences, stamps, stores, and leader-applies one record, then folds
  // every record that left the replication window into its standby. The
  // returned reference is valid until the next Append.
  const LogRecord& Append(LogRecord record);

  // Rebuilds `sm`, which must be fresh, as the fold of every record of
  // sm->domain() ever appended: copies the domain's standby (if it has one)
  // and replays the retained records of the domain, oldest first. Returns the
  // number of records replayed. Pair with Fingerprint() to prove log
  // completeness (a late joiner built from the log must equal the live
  // instance).
  int64_t ReplayInto(CtrlStateMachine* sm) const;

  // Records of `domain` appended so far (O(1)).
  int64_t CountDomain(int32_t domain) const;
  // Records appended within replication_latency of `crash_time` — the tail a
  // standby has not applied when the leader dies at crash_time. Only older
  // records are folded away, so `crash_time` must not precede the newest
  // append (sim time never runs backwards, so every real crash satisfies it).
  int64_t UnreplicatedAt(TimeNs crash_time) const;
  // Total takeover delay for a leader crash at `crash_time` (see file
  // comment). Meaningless when !replicated().
  DurationNs FailoverDelay(TimeNs crash_time) const;

  // The domain's standby replica, or nullptr before its first Attach.
  const CtrlStateMachine* standby(int32_t domain) const;
  bool replicated() const { return config_.replicas > 1; }
  const CtrlConfig& config() const { return config_; }
  // The retained tail, oldest first — NOT the whole history: next_seq() and
  // CountDomain() count every record ever appended.
  const std::deque<LogRecord>& records() const { return records_; }
  uint64_t next_seq() const { return next_seq_; }

 private:
  struct Domain {
    std::string name;
    CtrlStateMachine* leader = nullptr;
    std::unique_ptr<CtrlStateMachine> standby;
    int64_t appended = 0;
  };

  Domain& FindDomain(int32_t domain);
  const Domain& FindDomain(int32_t domain) const;
  // Applies every replicated record but the newest to its standby and drops it.
  void Fold();

  sim::Simulator* sim_;
  CtrlConfig config_;
  std::deque<LogRecord> records_;
  uint64_t next_seq_ = 0;
  int32_t next_domain_ = 1;
  std::map<int32_t, Domain> domains_;
};

}  // namespace deepserve::ctrl

#endif  // DEEPSERVE_CTRL_CONTROL_LOG_H_
