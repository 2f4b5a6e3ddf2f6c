// Model-serving Job Executor (JE) and the distributed scheduling policies of
// §5 (Algorithm 1).
//
// The JE turns each request into a job and its tasks, then picks the TE(s)
// to run them:
//   dist_sched(req, tes):
//     tes <- PD_aware(req, tes)            // §5.3: heatmap + decode-length
//     if tes.is_load_balanced():           //        predictor
//       tes <- locality_aware(req, tes)    // §5.2: global prompt trees
//     else:
//       tes <- load_aware(req, tes)
//
// The JE maintains one global prompt tree per TE group, built over the same
// block-key chains the TE-local RTC trees use ("shares an index with its
// corresponding global tree"). Round-robin and single-factor policies are
// also provided as the baselines the paper compares against.
//
// Control-plane state vs. runtime bindings: the job/task records, outstanding
// map, retry counts, id counters, round-robin cursor, and TE group membership
// (as ids) live in a ctrl::JobTable state machine mutating only through
// ctrl::ControlLog records, so a standby JE leader replaying the log can take
// over (CrashLeader / RecoverLeader). Runtime-only artifacts stay here:
// ResponseHandlers (modeled as connections the standby re-establishes),
// TaskExecutor pointers (re-bound from ids via the ClusterManager), and the
// prompt-tree caches (rebuildable; affect only routing quality).
#ifndef DEEPSERVE_SERVING_JOB_EXECUTOR_H_
#define DEEPSERVE_SERVING_JOB_EXECUTOR_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/types.h"
#include "ctrl/control_log.h"
#include "ctrl/job_table.h"
#include "rtc/radix_tree.h"
#include "serving/heatmap.h"
#include "serving/job.h"
#include "serving/predictor.h"
#include "serving/task_executor.h"
#include "sim/simulator.h"
#include "workload/request.h"

namespace deepserve::serving {

class ClusterManager;
class RetryBudget;

enum class SchedulingPolicy {
  kRoundRobin,
  kLoadOnly,
  kLocalityOnly,
  kPdAware,    // heatmap split, then load
  kCombined,   // Algorithm 1: PD-aware + locality-aware + load-aware
};

std::string_view SchedulingPolicyToString(SchedulingPolicy policy);

struct JeConfig {
  SchedulingPolicy policy = SchedulingPolicy::kCombined;
  int block_size = 16;             // prompt-tree symbol granularity
  int64_t load_balance_slack = 8;  // queue-depth spread considered balanced
  size_t max_tree_nodes = 65536;
  // Online-dynamics guard (§5.3.2): the heatmap's preferred TE sub-group is
  // overridden when its least-loaded member is this much deeper than the
  // alternative's — PD-disaggregated TEs "are more prone to overloading", and
  // the combined policy must not degrade badly there.
  double pd_overload_factor = 2.0;
  int64_t pd_overload_slack = 8;
  // Fault tolerance: how many times one request may be re-dispatched after TE
  // failures before it errors out through ResponseHandler::on_error.
  int max_retries = 3;
  // Heterogeneous clusters: before the scheduling policy runs, narrow the
  // candidate TEs to those whose HBM fits the request's predicted context
  // (prefill + predicted decode), then to the generation with the best
  // tokens-per-second-per-dollar among them — falling back to the unfiltered
  // set rather than stranding a placeable request. Off = generation-blind
  // routing, bit-identical to the historical behavior.
  bool cost_aware = false;
};

struct JeStats {
  int64_t requests = 0;           // external requests (retries not re-counted)
  int64_t retries = 0;            // jobs re-dispatched after a TE failure
  int64_t budget_denied = 0;      // retries refused by the shared RetryBudget
  int64_t cancelled = 0;          // jobs dropped via CancelRequest (no callbacks)
  int64_t errors = 0;             // jobs terminated through on_error
  int64_t deadline_failures = 0;  // errors that were expired at (re-)dispatch
  int64_t failed_tes_handled = 0;
  int64_t routed_colocated = 0;
  int64_t routed_disaggregated = 0;
  int64_t locality_decisions = 0;
  int64_t load_decisions = 0;
  int64_t locality_hits = 0;  // dispatches with a non-empty prefix match
  // Deterministic work counters: prompt copies (one immutable RequestSpec
  // per dispatch) and full-prompt key chains hashed. Both are one per routed
  // dispatch: the engines below share the copy and the chain (RtcStats::
  // prompt_hashes counts any chain an engine had to cut itself). Not
  // exported as metrics.
  int64_t prompt_copies = 0;
  int64_t prompt_hashes = 0;
  // Deterministic work counter: leaves the prompt trees' LRU indexes examined
  // while recording routes and trimming. Not exported as a metric.
  int64_t tree_leaves_examined = 0;
  // Cost-aware routing (JeConfig::cost_aware).
  int64_t cost_narrowed = 0;   // candidate sets actually narrowed by the filter
  int64_t cost_fallbacks = 0;  // no candidate fit the predicted context; kept all
  // Control-plane fault pipeline.
  int64_t je_crashes = 0;           // leader crashes injected
  int64_t je_failovers = 0;         // standby takeovers completed
  int64_t je_replayed_records = 0;  // retained log records those takeovers replayed
  int64_t deferred_ops = 0;         // completions/failures parked during outages
  int64_t queued_arrivals = 0;      // arrivals buffered until takeover
  DurationNs je_outage_total = 0;
};

class JobExecutor {
 public:
  JobExecutor(sim::Simulator* sim, JeConfig config, PdHeatmap heatmap,
              std::unique_ptr<DecodeLengthPredictor> predictor);
  // Detaches the JobTable from a shared (externally owned) control log.
  ~JobExecutor();

  JobExecutor(const JobExecutor&) = delete;
  JobExecutor& operator=(const JobExecutor&) = delete;

  // Moves this JE's JobTable domain onto a shared control log (default: an
  // internally owned degenerate single-replica log). Must be called before
  // any state exists — TE registrations, requests. When `cm` is given, the
  // JE registers its own TE failure handler with it (replacing manual
  // AddFailureHandler wiring) and can re-bind TE pointers after failover.
  void AttachControl(ctrl::ControlLog* log, ClusterManager* cm = nullptr);

  // TE group membership. Colocated TEs serve unified tasks; prefill/decode
  // TEs are pooled and paired per request (so 2P1D and 2P2D both work).
  void AddColocatedTe(TaskExecutor* te);
  void AddPrefillTe(TaskExecutor* te);
  void AddDecodeTe(TaskExecutor* te);
  // Returns whether the TE was actually a member of any group (false lets
  // callers — e.g. the autoscaler — detect retiring a TE someone else
  // already removed). While the leader is down the removal is parked until
  // takeover; the return value reflects current membership either way.
  bool RemoveTe(TeId id);

  // Frontend entry: create the job + task(s), run dist_sched, dispatch. The
  // handler's on_error fires (with the job marked failed) when no ready TE can
  // take the request or when the retry budget is exhausted after TE crashes;
  // otherwise on_complete fires exactly once when the request finishes.
  using SeqCallback = TaskExecutor::SeqCallback;
  void HandleRequest(const workload::RequestSpec& spec, ResponseHandler handler);

  // Ready serving slots for weighted load balancing: ready colocated TEs plus
  // min(ready prefill, ready decode) PD pairs. Unlike the group counts this
  // consults TeState, so mid-scale-up or failed TEs don't count. 0 when no
  // route can serve a request right now, and always 0 while this JE's leader
  // is down.
  int ReadyCapacityWeight() const;

  // Drops every outstanding job carrying this request id WITHOUT firing its
  // handler (the caller owns termination — the frontend's hedge path), and
  // cancels the engine-side sequence on every TE the job touched so its KV
  // pins release. Returns how many jobs were dropped (0 = none in flight).
  // While the leader is down the cancel is parked and 0 is returned.
  size_t CancelRequest(workload::RequestId request_id);

  // Installs a shared retry budget (frontend-owned): beyond the per-request
  // max_retries cap, each crash re-dispatch must also acquire a budget token
  // or the request errors out. nullptr = per-request cap only.
  void SetRetryBudget(RetryBudget* budget) { retry_budget_ = budget; }

  // Fault tolerance: a TE died. It leaves every group, its in-flight jobs are
  // marked failed, and their requests are re-dispatched to surviving TEs
  // (wire this to ClusterManager::AddFailureHandler, or let AttachControl do
  // it). Parked until takeover while the leader is down.
  void OnTeFailure(TeId id);

  // ---- control-plane failover -------------------------------------------------
  // Crashes this JE's leader. With a replicated log, a standby replays the
  // job table and takes over after ControlLog::FailoverDelay: completions
  // that arrive meanwhile are parked, new arrivals are buffered, and recovery
  // reconciles TEs that died during the outage. With a single replica the
  // outage is permanent: every outstanding job fails with UNAVAILABLE and
  // subsequent arrivals are rejected immediately.
  [[nodiscard]] Status CrashLeader();
  // Standby takeover: replay + fingerprint check + swap, epoch bump, handler
  // re-registration, TE re-binding, parked-op drain, dead-TE reconciliation,
  // then buffered-arrival dispatch.
  void RecoverLeader();
  bool leader_up() const { return !down_; }
  int64_t control_epoch() const { return table_.epoch(); }
  const ctrl::JobTable& table() const { return table_; }

  const JeStats& stats() const { return stats_; }
  const ctrl::ControlLog* control_log() const { return log_; }
  const std::vector<JobRecord>& jobs() const { return table_.jobs(); }
  const std::vector<TaskRecord>& tasks() const { return table_.tasks(); }
  size_t colocated_count() const { return colocated_.size(); }
  size_t prefill_count() const { return prefill_.size(); }
  size_t decode_count() const { return decode_.size(); }

 private:
  struct TePresence {
    std::vector<TeId> tes;  // sorted, unique
    TePresence SplitTail(size_t) { return *this; }
  };
  using PromptTree = rtc::RadixTree<TePresence>;

  // Algorithm 1 pieces.
  bool PreferDisaggregated(const workload::RequestSpec& spec);
  bool IsLoadBalanced(const std::vector<TaskExecutor*>& tes) const;
  TaskExecutor* LocalityAware(const rtc::BlockKeyChain& keys, PromptTree& tree,
                              const std::vector<TaskExecutor*>& tes);
  static TaskExecutor* LoadAware(const std::vector<TaskExecutor*>& tes);
  TaskExecutor* SelectFrom(const rtc::BlockKeyChain& keys, PromptTree& tree,
                           const std::vector<TaskExecutor*>& tes);

  void RecordRoute(const rtc::BlockKeyChain& keys, PromptTree& tree, TeId te);
  void TrimTree(PromptTree& tree);
  std::vector<TaskExecutor*> ReadyTes(const std::vector<TaskExecutor*>& tes) const;
  // The cost_aware narrowing pass (see JeConfig::cost_aware).
  // `predicted_tokens` = prefill + predicted decode for the request.
  std::vector<TaskExecutor*> CostAwareFilter(int64_t predicted_tokens,
                                             const std::vector<TaskExecutor*>& tes);

  // The dispatch core behind HandleRequest and the failure-retry path.
  // `retries` is how many times this request has already been re-dispatched.
  void Dispatch(const workload::RequestSpec& spec, ResponseHandler handler, int retries);
  // Terminates `job_id` through on_error (erasing it from the outstanding
  // map). No-op when the job already finished or the retry path owns it.
  void FailJob(JobId job_id, const Status& status);

  void DispatchColocated(TaskExecutor* te, flowserve::RequestRef request,
                         ResponseHandler handler);
  void DispatchDisaggregated(TaskExecutor* prefill_te, flowserve::RequestRef request,
                             ResponseHandler handler);

  TaskId NewTask(JobId job, TaskType type, TeId te);
  // The group member with this id (colocated, then prefill, then decode), or
  // nullptr when no group holds it.
  TaskExecutor* FindTe(TeId id) const;
  // Appends one JobTable record to the control log.
  void AppendJob(ctrl::LogOp op);
  // Runs a completion/failure continuation now, or parks it until the next
  // RecoverLeader() while this JE's leader is down. With a single-replica log
  // a parked op is dropped instead — no takeover will ever come.
  void RunOrDefer(std::function<void()> op);
  // RunOrDefer for an engine callback: while the leader is up, `op` runs at
  // once on the engine's live Sequence; a parked op holds a snapshot of it.
  SeqCallback Deferred(SeqCallback op);
  // Lazily registers the JE's trace track; -1 when tracing is disabled.
  int TracePid();

  sim::Simulator* sim_;
  JeConfig config_;
  PdHeatmap heatmap_;
  std::unique_ptr<DecodeLengthPredictor> predictor_;
  RetryBudget* retry_budget_ = nullptr;

  // Replicated control-plane state (see file comment) + its log.
  std::unique_ptr<ctrl::ControlLog> owned_log_;
  ctrl::ControlLog* log_ = nullptr;
  ctrl::JobTable table_;

  // Runtime bindings (data plane / per-leader artifacts).
  std::vector<TaskExecutor*> colocated_;
  std::vector<TaskExecutor*> prefill_;
  std::vector<TaskExecutor*> decode_;
  std::map<JobId, ResponseHandler> handlers_;

  PromptTree colocated_tree_{&stats_.tree_leaves_examined};
  PromptTree prefill_tree_{&stats_.tree_leaves_examined};

  // Leader failover state.
  ClusterManager* cm_ = nullptr;
  int64_t failure_handler_id_ = 0;  // 0 = not registered via AttachControl
  bool down_ = false;
  TimeNs crash_time_ = 0;
  std::vector<std::function<void()>> deferred_ops_;
  struct PendingArrival {
    workload::RequestSpec spec;
    ResponseHandler handler;
  };
  std::vector<PendingArrival> pending_arrivals_;

  JeStats stats_;
  int trace_pid_ = -1;
};

}  // namespace deepserve::serving

#endif  // DEEPSERVE_SERVING_JOB_EXECUTOR_H_
