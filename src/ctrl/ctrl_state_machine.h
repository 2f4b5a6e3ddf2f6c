// Replicated control plane, part 1: the deterministic state-machine contract.
//
// Control-plane state (the TE directory in ClusterManager, the job table in
// JobExecutor) is modeled as deterministic state machines that mutate ONLY by
// applying records from a sequenced shared log (control_log.h). The contract:
//
//   state == fold(Apply, initial_state, log_prefix)
//
// for every replica, bit-for-bit. A standby that replays the same prefix owns
// the same state as the leader did, so leader failover is: copy the log's
// standby replica, replay the tail, bump the epoch, resume. Fingerprint()
// folds every field that participates in that contract into one hash; the
// failover path DS_CHECKs that a fresh replay fingerprints identically to the
// live instance before swapping it in, which forces every mutation to flow
// through the log (ds_lint's ctrl-apply-only rule enforces the same thing
// statically).
//
// Decisions stay outside: a leader computes what to do from const views of
// the state machine, then appends a record describing the outcome. Apply()
// must be pure replay — no Simulator access, no RNG, no reads of anything but
// the record and the machine's own state.
#ifndef DEEPSERVE_CTRL_CTRL_STATE_MACHINE_H_
#define DEEPSERVE_CTRL_CTRL_STATE_MACHINE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "ctrl/log_record.h"

namespace deepserve::ctrl {

class CtrlStateMachine {
 public:
  explicit CtrlStateMachine(int32_t domain) : domain_(domain) {}
  virtual ~CtrlStateMachine() = default;
  // State machines are plain values: copies are snapshots (ReplayInto starts
  // from one), and failover swaps a replayed standby in by assignment.
  CtrlStateMachine(const CtrlStateMachine&) = default;
  CtrlStateMachine& operator=(const CtrlStateMachine&) = default;
  CtrlStateMachine(CtrlStateMachine&&) = default;
  CtrlStateMachine& operator=(CtrlStateMachine&&) = default;

  int32_t domain() const { return domain_; }
  void set_domain(int32_t domain) { domain_ = domain; }

  virtual std::string_view name() const = 0;
  // Applies one record of this machine's domain. Must be deterministic and
  // must be the ONLY path that mutates state (ds_lint: ctrl-apply-only).
  virtual void Apply(const LogRecord& record) = 0;
  // Order-stable hash over every replicated field. Two instances with equal
  // fingerprints after the same prefix are interchangeable.
  virtual uint64_t Fingerprint() const = 0;
  // A fresh instance of this machine's concrete type on the same domain, in
  // the pre-log initial state. ControlLog builds each domain's standby
  // replica from it.
  virtual std::unique_ptr<CtrlStateMachine> NewReplica() const = 0;
  // Overwrites this machine with `other`'s state (a snapshot restore);
  // `other` must have the same concrete type.
  virtual void CopyFrom(const CtrlStateMachine& other) = 0;

 protected:
  // FNV-1a fold helpers shared by subclasses' Fingerprint().
  static constexpr uint64_t kFnvOffset = 1469598103934665603ull;
  static constexpr uint64_t kFnvPrime = 1099511628211ull;
  static void Mix(uint64_t* hash, uint64_t value) {
    *hash ^= value;
    *hash *= kFnvPrime;
  }
  static void MixString(uint64_t* hash, std::string_view s) {
    Mix(hash, s.size());
    for (char c : s) {
      Mix(hash, static_cast<uint64_t>(static_cast<unsigned char>(c)));
    }
  }

 private:
  int32_t domain_ = 0;
};

}  // namespace deepserve::ctrl

#endif  // DEEPSERVE_CTRL_CTRL_STATE_MACHINE_H_
