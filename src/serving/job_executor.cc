#include "serving/job_executor.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "common/time_units.h"
#include "model/cost_model.h"
#include "serving/cluster_manager.h"
#include "serving/route_policy.h"

namespace deepserve::serving {

std::string_view SchedulingPolicyToString(SchedulingPolicy policy) {
  switch (policy) {
    case SchedulingPolicy::kRoundRobin:
      return "round-robin";
    case SchedulingPolicy::kLoadOnly:
      return "load-only";
    case SchedulingPolicy::kLocalityOnly:
      return "locality-only";
    case SchedulingPolicy::kPdAware:
      return "pd-aware";
    case SchedulingPolicy::kCombined:
      return "combined";
  }
  return "?";
}

JobExecutor::JobExecutor(sim::Simulator* sim, JeConfig config, PdHeatmap heatmap,
                         std::unique_ptr<DecodeLengthPredictor> predictor)
    : sim_(sim), config_(config), heatmap_(std::move(heatmap)),
      predictor_(std::move(predictor)) {
  DS_CHECK(sim_ != nullptr);
  DS_CHECK(predictor_ != nullptr);
  // Default control plane: a private degenerate log (single replica, zero
  // latency) — bit-identical behavior to unreplicated bookkeeping.
  owned_log_ = std::make_unique<ctrl::ControlLog>(sim_);
  log_ = owned_log_.get();
  table_.set_domain(log_->RegisterDomain("job-table"));
  log_->Attach(&table_);
}

JobExecutor::~JobExecutor() {
  if (cm_ != nullptr && failure_handler_id_ != 0) {
    cm_->RemoveFailureHandler(failure_handler_id_);
  }
  log_->Detach(table_.domain());
}

void JobExecutor::AttachControl(ctrl::ControlLog* log, ClusterManager* cm) {
  DS_CHECK(log != nullptr);
  DS_CHECK(table_.applied() == 0)
      << "AttachControl must precede any JE state (TEs, requests)";
  log_->Detach(table_.domain());
  table_.set_domain(log->RegisterDomain("job-table"));
  log_ = log;
  owned_log_.reset();
  log_->Attach(&table_);
  cm_ = cm;
  if (cm_ != nullptr) {
    failure_handler_id_ = cm_->AddFailureHandler([this](TeId id) { OnTeFailure(id); });
  }
}

void JobExecutor::AppendJob(ctrl::LogOp op) {
  log_->Append({0, 0, table_.domain(), std::move(op)});
}

void JobExecutor::RunOrDefer(std::function<void()> op) {
  if (!down_) {
    op();
    return;
  }
  if (!log_->replicated()) {
    // No standby will ever take over; the op targets state that was already
    // failed out in CrashLeader (or is moot), so it is dropped.
    return;
  }
  ++stats_.deferred_ops;
  deferred_ops_.push_back(std::move(op));
}

JobExecutor::SeqCallback JobExecutor::Deferred(SeqCallback op) {
  return [this, op = std::move(op)](const flowserve::Sequence& seq) {
    if (!down_) {
      op(seq);
      return;
    }
    RunOrDefer([op, snapshot = seq] { op(snapshot); });
  };
}

void JobExecutor::AddColocatedTe(TaskExecutor* te) {
  DS_CHECK(te->role() == flowserve::EngineRole::kColocated);
  if (down_) {
    RunOrDefer([this, te] { AddColocatedTe(te); });
    return;
  }
  AppendJob(ctrl::TeAdded{ctrl::TeGroup::kColocated, te->id()});
  colocated_.push_back(te);
}

void JobExecutor::AddPrefillTe(TaskExecutor* te) {
  DS_CHECK(te->role() == flowserve::EngineRole::kPrefillOnly);
  if (down_) {
    RunOrDefer([this, te] { AddPrefillTe(te); });
    return;
  }
  AppendJob(ctrl::TeAdded{ctrl::TeGroup::kPrefill, te->id()});
  prefill_.push_back(te);
}

void JobExecutor::AddDecodeTe(TaskExecutor* te) {
  DS_CHECK(te->role() == flowserve::EngineRole::kDecodeOnly);
  if (down_) {
    RunOrDefer([this, te] { AddDecodeTe(te); });
    return;
  }
  AppendJob(ctrl::TeAdded{ctrl::TeGroup::kDecode, te->id()});
  decode_.push_back(te);
}

bool JobExecutor::RemoveTe(TeId id) {
  if (down_) {
    bool removed = FindTe(id) != nullptr;
    RunOrDefer([this, id] { RemoveTe(id); });
    return removed;
  }
  bool removed = false;
  auto drop = [id, &removed](std::vector<TaskExecutor*>& tes) {
    auto tail = std::remove_if(tes.begin(), tes.end(),
                               [id](TaskExecutor* te) { return te->id() == id; });
    removed = removed || tail != tes.end();
    tes.erase(tail, tes.end());
  };
  drop(colocated_);
  drop(prefill_);
  drop(decode_);
  if (removed) {
    AppendJob(ctrl::TeRemoved{id});
  }
  // Prompt-tree tags for the departed TE are cleaned lazily during matching.
  return removed;
}

std::vector<TaskExecutor*> JobExecutor::ReadyTes(const std::vector<TaskExecutor*>& tes) const {
  std::vector<TaskExecutor*> ready;
  for (TaskExecutor* te : tes) {
    if (te->ready()) {
      ready.push_back(te);
    }
  }
  return ready;
}

std::vector<TaskExecutor*> JobExecutor::CostAwareFilter(
    int64_t predicted_tokens, const std::vector<TaskExecutor*>& tes) {
  if (tes.size() <= 1) {
    return tes;
  }
  // Feasibility: the TE's HBM must hold this request's predicted context at
  // its engine's utilization target. npu_spec reflects the TE's own silicon
  // (the ClusterManager applies npu_spec_from_placement at creation).
  std::vector<TaskExecutor*> fits;
  for (TaskExecutor* te : tes) {
    const flowserve::EngineConfig& engine = te->config().engine;
    if (te->engine().cost_model().MaxKvTokensPerNpu(engine.hbm_utilization) >=
        predicted_tokens) {
      fits.push_back(te);
    }
  }
  if (fits.empty()) {
    // Nothing fits the prediction — a tight TE beats a stranded request.
    ++stats_.cost_fallbacks;
    return tes;
  }
  auto score = [](const TaskExecutor* te) {
    const flowserve::EngineConfig& engine = te->config().engine;
    return model::TokensPerSecondPerDollar(engine.model, engine.npu_spec, engine.parallelism);
  };
  // Keep the best-scoring generation. Same-generation TEs produce the exact
  // same score (same pure-function inputs), so the equality compare is safe.
  double best = 0.0;
  for (TaskExecutor* te : fits) {
    best = std::max(best, score(te));
  }
  std::vector<TaskExecutor*> cheapest;
  for (TaskExecutor* te : fits) {
    if (score(te) >= best) {
      cheapest.push_back(te);
    }
  }
  if (cheapest.size() < tes.size()) {
    ++stats_.cost_narrowed;
  }
  return cheapest;
}

bool JobExecutor::PreferDisaggregated(const workload::RequestSpec& spec) {
  int64_t predicted = predictor_->Predict(spec);
  return heatmap_.PreferDisaggregated(spec.prefill_len(), predicted);
}

bool JobExecutor::IsLoadBalanced(const std::vector<TaskExecutor*>& tes) const {
  if (tes.size() <= 1) {
    return true;
  }
  int64_t lo = INT64_MAX;
  int64_t hi = INT64_MIN;
  for (TaskExecutor* te : tes) {
    int64_t depth = te->queue_depth();
    lo = std::min(lo, depth);
    hi = std::max(hi, depth);
  }
  return hi - lo <= config_.load_balance_slack;
}

TaskExecutor* JobExecutor::LoadAware(const std::vector<TaskExecutor*>& tes) {
  TaskExecutor* best = nullptr;
  for (TaskExecutor* te : tes) {
    if (best == nullptr || te->queue_depth() < best->queue_depth()) {
      best = te;
    }
  }
  return best;
}

TaskExecutor* JobExecutor::LocalityAware(const rtc::BlockKeyChain& keys, PromptTree& tree,
                                         const std::vector<TaskExecutor*>& tes) {
  // select_tes_prefix_match: deepest global-tree node tagged with each TE
  // along the prompt's key path = that TE's preserved-prefix length. The
  // tally is flat: one (id, depth) slot per candidate, sorted by id.
  auto match = tree.Match(keys.keys);
  using Slot = std::pair<TeId, size_t>;
  std::vector<Slot> depth_by_te;
  depth_by_te.reserve(tes.size());
  for (TaskExecutor* te : tes) {
    depth_by_te.emplace_back(te->id(), 0);
  }
  std::sort(depth_by_te.begin(), depth_by_te.end());
  auto slot = [&depth_by_te](TeId te) -> size_t* {
    auto it = std::lower_bound(depth_by_te.begin(), depth_by_te.end(), Slot{te, 0});
    return it != depth_by_te.end() && it->first == te ? &it->second : nullptr;
  };
  auto tally = [&](const PromptTree::Node* node, size_t depth) {
    for (TeId te : node->value.tes) {
      if (size_t* deepest = slot(te)) {
        *deepest = std::max(*deepest, depth);
      }
    }
  };
  for (PromptTree::Node* node : match.path) {
    tally(node, node->depth);
  }
  if (match.partial != nullptr) {
    size_t base = match.partial->depth - match.partial->edge.size();
    tally(match.partial, base + match.partial_len);
  }
  TaskExecutor* best = nullptr;
  size_t best_depth = 0;
  for (TaskExecutor* te : tes) {
    size_t depth = *slot(te->id());
    if (best == nullptr || depth > best_depth ||
        (depth == best_depth && te->queue_depth() < best->queue_depth())) {
      best = te;
      best_depth = depth;
    }
  }
  if (best_depth > 0) {
    ++stats_.locality_hits;
  }
  return best;
}

TaskExecutor* JobExecutor::SelectFrom(const rtc::BlockKeyChain& keys, PromptTree& tree,
                                      const std::vector<TaskExecutor*>& tes) {
  DS_CHECK(!tes.empty());
  switch (config_.policy) {
    case SchedulingPolicy::kRoundRobin:
      // The cursor advances once per request (RrAdvanced) in Dispatch.
      return tes[table_.rr_cursor() % tes.size()];
    case SchedulingPolicy::kLoadOnly:
      ++stats_.load_decisions;
      return LoadAware(tes);
    case SchedulingPolicy::kLocalityOnly:
      ++stats_.locality_decisions;
      return LocalityAware(keys, tree, tes);
    case SchedulingPolicy::kPdAware:
      ++stats_.load_decisions;
      return LoadAware(tes);
    case SchedulingPolicy::kCombined:
      if (IsLoadBalanced(tes)) {
        ++stats_.locality_decisions;
        return LocalityAware(keys, tree, tes);
      }
      ++stats_.load_decisions;
      return LoadAware(tes);
  }
  return tes.front();
}

void JobExecutor::TrimTree(PromptTree& tree) {
  while (tree.NodeCount() > config_.max_tree_nodes && tree.LruFront() != nullptr) {
    tree.RemoveLeaf(tree.LruFront());
  }
}

void JobExecutor::RecordRoute(const rtc::BlockKeyChain& keys, PromptTree& tree, TeId te) {
  if (keys.keys.empty()) {
    return;
  }
  auto* node = tree.Insert(keys.keys, sim_->Now());
  // Tag the full path: every prefix of this prompt now lives on `te`.
  for (PromptTree::Node* cursor = node; cursor != nullptr && cursor->parent != nullptr;
       cursor = cursor->parent) {
    std::vector<TeId>& tes = cursor->value.tes;
    auto it = std::lower_bound(tes.begin(), tes.end(), te);
    if (it == tes.end() || *it != te) {
      tes.insert(it, te);
    }
  }
  TrimTree(tree);
}

int JobExecutor::TracePid() {
  obs::Tracer* tracer = sim_->tracer();
  if (tracer == nullptr) {
    return -1;
  }
  if (trace_pid_ < 0) {
    trace_pid_ = tracer->NewTrack("je");
    tracer->SetLaneName(trace_pid_, 0, "routing");
  }
  return trace_pid_;
}

TaskId JobExecutor::NewTask(JobId job, TaskType type, TeId te) {
  const TaskId task_id = table_.next_task();
  AppendJob(ctrl::TaskCreated{task_id, job, type, te});
  return task_id;
}

TaskExecutor* JobExecutor::FindTe(TeId id) const {
  for (const auto* group : {&colocated_, &prefill_, &decode_}) {
    for (TaskExecutor* te : *group) {
      if (te->id() == id) {
        return te;
      }
    }
  }
  return nullptr;
}

int JobExecutor::ReadyCapacityWeight() const {
  if (down_) {
    return 0;
  }
  int coloc = 0;
  for (TaskExecutor* te : colocated_) {
    if (te->ready()) {
      ++coloc;
    }
  }
  int prefill = 0;
  for (TaskExecutor* te : prefill_) {
    if (te->ready()) {
      ++prefill;
    }
  }
  int decode = 0;
  for (TaskExecutor* te : decode_) {
    if (te->ready()) {
      ++decode;
    }
  }
  return coloc + std::min(prefill, decode);
}

size_t JobExecutor::CancelRequest(workload::RequestId request_id) {
  if (down_) {
    // Parked until takeover (or dropped when no standby exists — the crash
    // already failed every outstanding job, so there is nothing to cancel).
    RunOrDefer([this, request_id] { CancelRequest(request_id); });
    return 0;
  }
  std::vector<JobId> hits;
  for (const auto& [job_id, outstanding] : table_.outstanding()) {
    if (outstanding.request->id == request_id) {
      hits.push_back(job_id);
    }
  }
  for (JobId job_id : hits) {
    std::vector<TeId> tes = table_.outstanding().at(job_id).tes;
    AppendJob(ctrl::JobFailed{job_id});
    handlers_.erase(job_id);  // the handler dies here without firing
    for (TeId te_id : tes) {
      if (TaskExecutor* te = FindTe(te_id)) {
        te->CancelRequest(request_id);
      }
    }
    ++stats_.cancelled;
    if (obs::Tracer* t = sim_->tracer()) {
      t->Instant(sim_->Now(), TracePid(), 0, "je.cancel",
                 {obs::Arg("req", static_cast<int64_t>(request_id))});
    }
  }
  return hits.size();
}

void JobExecutor::HandleRequest(const workload::RequestSpec& spec, ResponseHandler handler) {
  ++stats_.requests;
  if (down_) {
    if (log_->replicated()) {
      // The standby picks these up at takeover.
      ++stats_.queued_arrivals;
      pending_arrivals_.push_back({spec, std::move(handler)});
    } else {
      ++stats_.errors;
      if (obs::Tracer* t = sim_->tracer()) {
        t->Instant(sim_->Now(), TracePid(), 0, "je.error",
                   {obs::Arg("req", static_cast<int64_t>(spec.id)),
                    obs::Arg("code", "unavailable")});
      }
      if (handler.on_error) {
        handler.on_error(UnavailableError("job executor leader down with no standby"));
      }
    }
    return;
  }
  Dispatch(spec, std::move(handler), /*retries=*/0);
}

void JobExecutor::FailJob(JobId job_id, const Status& status) {
  if (!table_.IsOutstanding(job_id)) {
    return;  // already completed, already failed, or owned by the retry path
  }
  workload::RequestId request = table_.outstanding().at(job_id).request->id;
  ResponseHandler handler;
  auto it = handlers_.find(job_id);
  if (it != handlers_.end()) {
    handler = std::move(it->second);
    handlers_.erase(it);
  }
  AppendJob(ctrl::JobFailed{job_id});
  ++stats_.errors;
  if (obs::Tracer* t = sim_->tracer()) {
    t->Instant(sim_->Now(), TracePid(), 0, "je.error",
               {obs::Arg("req", static_cast<int64_t>(request)),
                obs::Arg("code", StatusCodeToString(status.code()))});
  }
  if (handler.on_error) {
    handler.on_error(status);
  }
}

void JobExecutor::Dispatch(const workload::RequestSpec& spec, ResponseHandler handler,
                           int retries) {
  const JobId job_id = table_.next_job();
  // This dispatch's one copy of the request. JobCreated carries it, so a
  // standby replaying the log can re-dispatch or fail the request without
  // the leader's memory; the job tables and the engines share it.
  flowserve::RequestRef request = flowserve::RequestRef::Copy(spec);
  ++stats_.prompt_copies;
  AppendJob(ctrl::JobCreated{job_id, retries, request.spec});
  handlers_[job_id] = std::move(handler);

  if (spec.deadline > 0 && sim_->Now() > spec.deadline) {
    // Already dead on arrival here — typically a crash re-dispatch of a
    // request whose deadline lapsed while the fleet recovered. Don't queue
    // work no one is waiting for.
    ++stats_.deadline_failures;
    FailJob(job_id, DeadlineExceededError("request " + std::to_string(spec.id) +
                                          " expired before dispatch"));
    return;
  }

  std::vector<TaskExecutor*> coloc = ReadyTes(colocated_);
  std::vector<TaskExecutor*> prefill = ReadyTes(prefill_);
  std::vector<TaskExecutor*> decode = ReadyTes(decode_);
  if (config_.cost_aware) {
    int64_t predicted = spec.prefill_len() + predictor_->Predict(spec);
    coloc = CostAwareFilter(predicted, coloc);
    prefill = CostAwareFilter(predicted, prefill);
    decode = CostAwareFilter(predicted, decode);
  }
  bool disagg_available = !prefill.empty() && !decode.empty();
  if (coloc.empty() && !disagg_available) {
    // Nothing can serve this request right now: fail it instead of crashing
    // (a fleet mid-recovery legitimately hits this window).
    FailJob(job_id, UnavailableError("no ready TEs for request " + std::to_string(spec.id)));
    return;
  }

  // The prompt's one key chain: locality routing, the route record and the
  // engines' RTCs all use it.
  request.keys = rtc::HashPrompt(spec.prompt, config_.block_size);
  ++stats_.prompt_hashes;
  const rtc::BlockKeyChain& keys = *request.keys;

  // ---- PD_aware: choose the TE sub-group -----------------------------------
  bool use_disagg = false;
  switch (config_.policy) {
    case SchedulingPolicy::kRoundRobin: {
      // Baseline: alternate over routing slots (each colocated TE and the
      // disaggregated pool each count as one slot).
      size_t slots = coloc.size() + (disagg_available ? 1 : 0);
      size_t slot = table_.rr_cursor() % std::max<size_t>(1, slots);
      use_disagg = disagg_available && slot == coloc.size();
      break;
    }
    case SchedulingPolicy::kLoadOnly:
    case SchedulingPolicy::kLocalityOnly: {
      // Single-factor baselines ignore the heatmap: compare pool loads.
      if (!disagg_available) {
        use_disagg = false;
      } else if (coloc.empty()) {
        use_disagg = true;
      } else {
        use_disagg = LoadAware(prefill)->queue_depth() < LoadAware(coloc)->queue_depth();
      }
      break;
    }
    case SchedulingPolicy::kPdAware:
    case SchedulingPolicy::kCombined: {
      use_disagg = disagg_available && (coloc.empty() || PreferDisaggregated(spec));
      // Overload guard: ignore the heatmap when the preferred sub-group is
      // drowning relative to the alternative.
      if (disagg_available && !coloc.empty()) {
        int64_t disagg_depth = std::max(LoadAware(prefill)->queue_depth(),
                                        LoadAware(decode)->queue_depth());
        int64_t coloc_depth = LoadAware(coloc)->queue_depth();
        auto overloaded = [this](int64_t mine, int64_t other) {
          return static_cast<double>(mine) >
                 static_cast<double>(other) * config_.pd_overload_factor +
                     static_cast<double>(config_.pd_overload_slack);
        };
        if (use_disagg && overloaded(disagg_depth, coloc_depth)) {
          use_disagg = false;
        } else if (!use_disagg && overloaded(coloc_depth, disagg_depth)) {
          use_disagg = true;
        }
      }
      break;
    }
  }
  if (use_disagg && !disagg_available) {
    use_disagg = false;
  }
  if (!use_disagg && coloc.empty()) {
    use_disagg = true;
  }

  // Completion races a leader outage: a sequence finishing while the leader
  // is down parks here until the standby takes over. The IsOutstanding guard
  // makes termination exactly-once even if the job was failed/cancelled in
  // the interim (e.g. its TE died during the outage and the retry path took
  // ownership).
  ResponseHandler& stored = handlers_.at(job_id);
  auto complete_job = [this, job_id,
                       on_complete = stored.on_complete](const flowserve::Sequence& seq) {
    if (!table_.IsOutstanding(job_id)) {
      return;
    }
    AppendJob(ctrl::JobCompleted{job_id});
    handlers_.erase(job_id);
    if (on_complete) {
      on_complete(seq);
    }
  };

  // The TE-level handler: task bookkeeping plus this job's termination paths.
  // FailJob no-ops once the job completed or the retry path took ownership, so
  // exactly one of on_complete / on_error ever reaches the caller.
  ResponseHandler te_handler;
  te_handler.on_first_token = stored.on_first_token;
  te_handler.on_complete = Deferred(std::move(complete_job));
  te_handler.on_error = [this, job_id](const Status& status) {
    RunOrDefer([this, job_id, status] { FailJob(job_id, status); });
  };

  if (use_disagg) {
    ++stats_.routed_disaggregated;
    TaskExecutor* p = SelectFrom(keys, prefill_tree_, prefill);
    RecordRoute(keys, prefill_tree_, p->id());
    AppendJob(ctrl::JobTeBound{job_id, p->id()});
    if (obs::Tracer* t = sim_->tracer()) {
      t->Instant(sim_->Now(), TracePid(), 0, "je.route",
                 {obs::Arg("req", static_cast<int64_t>(spec.id)),
                  obs::Arg("route", "disaggregated"),
                  obs::Arg("prefill_te", static_cast<int64_t>(p->id()))});
    }
    DispatchDisaggregated(p, std::move(request), std::move(te_handler));
  } else {
    ++stats_.routed_colocated;
    TaskExecutor* te = SelectFrom(keys, colocated_tree_, coloc);
    RecordRoute(keys, colocated_tree_, te->id());
    AppendJob(ctrl::JobTeBound{job_id, te->id()});
    if (obs::Tracer* t = sim_->tracer()) {
      t->Instant(sim_->Now(), TracePid(), 0, "je.route",
                 {obs::Arg("req", static_cast<int64_t>(spec.id)),
                  obs::Arg("route", "colocated"),
                  obs::Arg("te", static_cast<int64_t>(te->id()))});
    }
    DispatchColocated(te, std::move(request), std::move(te_handler));
  }
  AppendJob(ctrl::RrAdvanced{});
}

void JobExecutor::DispatchColocated(TaskExecutor* te, flowserve::RequestRef request,
                                    ResponseHandler handler) {
  JobId job_id = table_.jobs().back().id;
  TaskId task_id = NewTask(job_id, TaskType::kUnified, te->id());
  handler.on_complete = Deferred([this, task_id, cb = std::move(handler.on_complete)](
                                     const flowserve::Sequence& seq) {
    AppendJob(ctrl::TaskCompleted{task_id});
    cb(seq);
  });
  te->SubmitUnified(std::move(request), std::move(handler));
}

void JobExecutor::DispatchDisaggregated(TaskExecutor* prefill_te, flowserve::RequestRef request,
                                        ResponseHandler handler) {
  const workload::RequestSpec& spec = *request.spec;
  JobId job_id = table_.jobs().back().id;
  std::vector<TaskExecutor*> decode = ReadyTes(decode_);
  if (config_.cost_aware) {
    decode = CostAwareFilter(spec.prefill_len() + predictor_->Predict(spec), decode);
  }
  DS_CHECK(!decode.empty());
  TaskExecutor* decode_te = LoadAware(decode);
  AppendJob(ctrl::JobTeBound{job_id, decode_te->id()});
  TaskId prefill_task_id = NewTask(job_id, TaskType::kPrefill, prefill_te->id());
  (void)NewTask(job_id, TaskType::kDecode, decode_te->id());
  handler.on_first_token = Deferred([this, prefill_task_id, cb = std::move(handler.on_first_token)](
                                        const flowserve::Sequence& seq) {
    AppendJob(ctrl::TaskCompleted{prefill_task_id});
    if (cb) {
      cb(seq);
    }
  });
  prefill_te->SubmitPrefill(std::move(request), decode_te, std::move(handler));
}

void JobExecutor::OnTeFailure(TeId id) {
  if (down_) {
    // Parked: the standby reconciles dead TEs at takeover, and this handler
    // re-runs first so membership and retries aren't double-processed.
    RunOrDefer([this, id] { OnTeFailure(id); });
    return;
  }
  ++stats_.failed_tes_handled;
  if (obs::Tracer* t = sim_->tracer()) {
    t->Instant(sim_->Now(), TracePid(), 0, "je.te_failure",
               {obs::Arg("te", static_cast<int64_t>(id))});
  }
  RemoveTe(id);
  // Collect jobs whose tasks ran on the dead TE, then re-dispatch each.
  struct Retry {
    workload::SharedRequest request;
    std::vector<TeId> tes;
    int retries = 0;
    ResponseHandler handler;
  };
  std::vector<JobId> hit_jobs;
  for (const auto& [job_id, outstanding] : table_.outstanding()) {
    if (std::find(outstanding.tes.begin(), outstanding.tes.end(), id) !=
        outstanding.tes.end()) {
      hit_jobs.push_back(job_id);
    }
  }
  std::vector<Retry> to_retry;
  for (JobId job_id : hit_jobs) {
    const ctrl::JobTable::Outstanding& outstanding = table_.outstanding().at(job_id);
    Retry retry;
    retry.request = outstanding.request;
    retry.tes = outstanding.tes;
    retry.retries = outstanding.retries;
    auto it = handlers_.find(job_id);
    if (it != handlers_.end()) {
      retry.handler = std::move(it->second);
      handlers_.erase(it);
    }
    AppendJob(ctrl::JobFailed{job_id});
    to_retry.push_back(std::move(retry));
  }
  for (auto& retry : to_retry) {
    // A surviving TE of a disaggregated pair may still hold half the job
    // (e.g. the prefill finished but the decode TE died, or vice versa);
    // cancel the leftover so its KV pins are released before the retry. The
    // Cancel Status is intentionally discarded: kNotFound just means that
    // side of the pair never admitted (or already finished) the sequence.
    for (TeId te_id : retry.tes) {
      TaskExecutor* te = te_id == id ? nullptr : FindTe(te_id);
      if (te != nullptr) {
        (void)te->engine().Cancel(retry.request->id);
      }
    }
    bool budget_ok = true;
    if (retry.retries < config_.max_retries && retry_budget_ != nullptr &&
        !retry_budget_->TryAcquire()) {
      // The fleet-wide retry budget (shared across every JE the frontend
      // registered) is dry: give up even though this request has per-request
      // retries left — retry storms must not amplify a failing fleet.
      budget_ok = false;
      ++stats_.budget_denied;
    }
    if (retry.retries >= config_.max_retries || !budget_ok) {
      // Retry budget exhausted: the request is gone for good — report it
      // instead of redispatching forever.
      ++stats_.errors;
      if (obs::Tracer* t = sim_->tracer()) {
        t->Instant(sim_->Now(), TracePid(), 0, "je.error",
                   {obs::Arg("req", static_cast<int64_t>(retry.request->id)),
                    obs::Arg("code", "aborted"),
                    obs::Arg("retries", static_cast<int64_t>(retry.retries))});
      }
      if (retry.handler.on_error) {
        retry.handler.on_error(AbortedError("request " + std::to_string(retry.request->id) +
                                            " dropped after " + std::to_string(retry.retries) +
                                            " re-dispatches"));
      }
      continue;
    }
    ++stats_.retries;
    if (obs::Tracer* t = sim_->tracer()) {
      t->Instant(sim_->Now(), TracePid(), 0, "je.redispatch",
                 {obs::Arg("req", static_cast<int64_t>(retry.request->id)),
                  obs::Arg("attempt", static_cast<int64_t>(retry.retries + 1))});
    }
    Dispatch(*retry.request, std::move(retry.handler), retry.retries + 1);
  }
}

Status JobExecutor::CrashLeader() {
  if (down_) {
    return FailedPreconditionError("job executor leader already down");
  }
  ++stats_.je_crashes;
  crash_time_ = sim_->Now();
  if (obs::Tracer* t = sim_->tracer()) {
    t->Instant(sim_->Now(), TracePid(), 0, "je.crash",
               {obs::Arg("replicated", static_cast<int64_t>(log_->replicated())),
                obs::Arg("log_records", log_->CountDomain(table_.domain()))});
  }
  // The dead leader's failure subscription must not fire into a down JE's
  // retry path; the standby re-subscribes at takeover.
  if (cm_ != nullptr && failure_handler_id_ != 0) {
    cm_->RemoveFailureHandler(failure_handler_id_);
    failure_handler_id_ = 0;
  }
  if (!log_->replicated()) {
    // Permanent outage: the crash destroys all in-flight scheduling state and
    // no standby will replay it. Clients observe severed connections — every
    // outstanding job fails, and engine-side sequences are cancelled so their
    // KV pins release (token conservation).
    std::vector<JobId> doomed;
    for (const auto& [job_id, outstanding] : table_.outstanding()) {
      doomed.push_back(job_id);
    }
    for (JobId job_id : doomed) {
      const ctrl::JobTable::Outstanding& outstanding = table_.outstanding().at(job_id);
      workload::RequestId request = outstanding.request->id;
      std::vector<TeId> tes = outstanding.tes;
      for (TeId te_id : tes) {
        if (TaskExecutor* te = FindTe(te_id)) {
          (void)te->engine().Cancel(request);
        }
      }
      FailJob(job_id, UnavailableError("request " + std::to_string(request) +
                                       " severed by job executor crash (no standby)"));
    }
    down_ = true;
    return Status::Ok();
  }
  down_ = true;
  const int64_t epoch_at_crash = table_.epoch();
  sim_->ScheduleAfter(log_->FailoverDelay(crash_time_), [this, epoch_at_crash] {
    // Guard against a manual RecoverLeader (or a crash/recover cycle) that
    // already bumped the epoch before this timer fired.
    if (down_ && table_.epoch() == epoch_at_crash) {
      RecoverLeader();
    }
  });
  return Status::Ok();
}

void JobExecutor::RecoverLeader() {
  DS_CHECK(down_) << "RecoverLeader on a live job executor leader";
  // Standby takeover: rebuild the job table purely from the shared log (its
  // standby replica plus the retained tail) and prove the replay converged
  // before swapping it in.
  ctrl::JobTable standby(table_.domain());
  stats_.je_replayed_records += log_->ReplayInto(&standby);
  DS_CHECK(standby.Fingerprint() == table_.Fingerprint())
      << "control-log replay diverged from live job table — a mutation "
         "bypassed the log";
  table_ = std::move(standby);
  down_ = false;
  AppendJob(ctrl::Epoch{});
  ++stats_.je_failovers;
  stats_.je_outage_total += sim_->Now() - crash_time_;
  if (obs::Tracer* t = sim_->tracer()) {
    t->Instant(sim_->Now(), TracePid(), 0, "je.failover",
               {obs::Arg("epoch", table_.epoch()),
                obs::Arg("outage_ms", NsToMs(sim_->Now() - crash_time_))});
  }
  // Re-establish runtime bindings: TE pointers from replicated ids, and the
  // failure subscription the dead leader held.
  std::vector<TeId> unbound;
  if (cm_ != nullptr) {
    std::vector<TaskExecutor*>* groups[3] = {&colocated_, &prefill_, &decode_};
    for (int g = 0; g < 3; ++g) {
      groups[g]->clear();
      for (TeId id : table_.group(static_cast<ctrl::TeGroup>(g))) {
        TaskExecutor* te = cm_->te(id);
        if (te != nullptr) {
          groups[g]->push_back(te);
        } else {
          unbound.push_back(id);
        }
      }
    }
    failure_handler_id_ = cm_->AddFailureHandler([this](TeId id) { OnTeFailure(id); });
  }
  // Drain order matters: (1) parked completions/failures/TE events first (so
  // membership changes and retries that predate the outage's end aren't
  // double-processed by the reconcile scan), (2) reconcile TEs that died or
  // stopped during the outage, (3) buffered arrivals last, against the
  // reconciled fleet.
  std::vector<std::function<void()>> ops = std::move(deferred_ops_);
  deferred_ops_.clear();
  for (auto& op : ops) {
    op();
  }
  for (TeId id : unbound) {
    OnTeFailure(id);
  }
  for (auto* group : {&colocated_, &prefill_, &decode_}) {
    std::vector<TaskExecutor*> members = *group;  // handlers mutate the groups
    for (TaskExecutor* te : members) {
      if (te->state() == TeState::kFailed) {
        OnTeFailure(te->id());
      } else if (te->state() == TeState::kStopped) {
        RemoveTe(te->id());
      }
    }
  }
  std::vector<PendingArrival> arrivals = std::move(pending_arrivals_);
  pending_arrivals_.clear();
  for (auto& arrival : arrivals) {
    Dispatch(arrival.spec, std::move(arrival.handler), /*retries=*/0);
  }
}

}  // namespace deepserve::serving
