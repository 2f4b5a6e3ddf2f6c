// Engine construction, wiring, and the request submission paths. The step
// loop lives in engine_step.cc and the completion/teardown paths in
// engine_finish.cc; policy decisions are delegated to sched::SchedPolicy.
#include "flowserve/engine.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "common/time_units.h"

namespace deepserve::flowserve {

std::string_view EngineRoleToString(EngineRole role) {
  switch (role) {
    case EngineRole::kColocated:
      return "colocated";
    case EngineRole::kPrefillOnly:
      return "prefill";
    case EngineRole::kDecodeOnly:
      return "decode";
  }
  return "?";
}

std::string_view SeqStateToString(SeqState state) {
  switch (state) {
    case SeqState::kTokenizing:
      return "tokenizing";
    case SeqState::kWaitingPopulate:
      return "waiting-populate";
    case SeqState::kQueued:
      return "queued";
    case SeqState::kPrefilling:
      return "prefilling";
    case SeqState::kAwaitingKvSend:
      return "awaiting-kv-send";
    case SeqState::kDecoding:
      return "decoding";
    case SeqState::kFinished:
      return "finished";
  }
  return "?";
}

Engine::Engine(sim::Simulator* sim, EngineConfig config)
    : sim_(sim), config_(config),
      cost_(config.model, config.npu_spec,
            model::ParallelismConfig{config.parallelism.tp, config.parallelism.pp, 1}),
      tokenizer_(config.model.vocab_size) {
  DS_CHECK(sim_ != nullptr);
  DS_CHECK_GE(config_.parallelism.dp, 1);
  auto policy = sched::MakeSchedPolicy(config_.sched);
  DS_CHECK(policy.ok()) << policy.status().ToString();
  policy_ = std::move(*policy);
  if (config_.ae_disagg.enabled) {
    DS_CHECK(config_.model.is_moe()) << "AE disaggregation needs an MoE model";
    cost_.SetAeDisagg(config_.ae_disagg);
  }
  kv_block_capacity_ = config_.kv_block_capacity_override > 0
                           ? config_.kv_block_capacity_override
                           : cost_.MaxKvTokensPerNpu(config_.hbm_utilization) /
                                 config_.block_size;
  DS_CHECK_GT(kv_block_capacity_, 0)
      << "model " << config_.model.name << " does not fit on "
      << config_.parallelism.ToString();
  for (int g = 0; g < config_.parallelism.dp; ++g) {
    auto group = std::make_unique<DpGroup>();
    group->index = g;
    rtc::RtcConfig rtc_config;
    rtc_config.block_size = config_.block_size;
    rtc_config.pool.npu_capacity = kv_block_capacity_;
    rtc_config.pool.dram_capacity = config_.dram_block_capacity;
    rtc_config.bytes_per_block =
        config_.model.KvBytesPerToken() * static_cast<Bytes>(config_.block_size);
    rtc_config.enable_prefix_caching = config_.enable_prefix_caching;
    rtc_config.enable_pic = config_.enable_pic;
    group->rtc = std::make_unique<rtc::RtcMaster>(sim_, rtc_config);
    groups_.push_back(std::move(group));
  }
}

Engine::~Engine() = default;

int Engine::TracePid() {
  obs::Tracer* tracer = sim_->tracer();
  if (tracer == nullptr) {
    return -1;
  }
  if (trace_pid_ < 0) {
    trace_pid_ = tracer->NewTrack("engine/" + std::string(EngineRoleToString(config_.role)) +
                                  "/" + config_.model.name);
    for (const auto& group : groups_) {
      tracer->SetLaneName(trace_pid_, group->index, "dp" + std::to_string(group->index));
    }
  }
  return trace_pid_;
}

void Engine::EnsureMetrics() {
  obs::MetricsRegistry* metrics = sim_->metrics();
  if (metrics == nullptr || m_steps_ != nullptr) {
    return;
  }
  m_steps_ = metrics->counter("engine.steps");
  m_preemptions_ = metrics->counter("engine.preemptions");
  m_prefill_tokens_ = metrics->counter("engine.prefill_tokens");
  m_decode_tokens_ = metrics->counter("engine.decode_tokens");
  m_shed_ = metrics->counter("engine.shed");
  m_deadline_misses_ = metrics->counter("engine.deadline_misses");
  m_tbt_violations_ = metrics->counter("engine.tbt_violations");
  m_ttft_violations_ = metrics->counter("engine.ttft_violations");
  m_step_ms_ = metrics->stats("engine.step_ms");
}

void Engine::NotifyWhenIdle(std::function<void()> cb) {
  if (sequences_.empty()) {
    sim_->ScheduleAfter(0, std::move(cb));
    return;
  }
  idle_waiters_.push_back(std::move(cb));
}

void Engine::AttachNpus(const std::vector<hw::Npu*>& npus) {
  const int ranks = config_.parallelism.tp * config_.parallelism.pp;
  DS_CHECK_EQ(static_cast<int>(npus.size()), ranks * config_.parallelism.dp)
      << "engine needs one NPU per TP*PP*DP rank";
  Bytes per_npu_block =
      config_.model.KvBytesPerToken() * static_cast<Bytes>(config_.block_size) /
      static_cast<Bytes>(ranks);
  for (int g = 0; g < config_.parallelism.dp; ++g) {
    for (int r = 0; r < ranks; ++r) {
      auto executor = std::make_unique<rtc::RtcExecutor>(
          npus[static_cast<size_t>(g * ranks + r)], per_npu_block);
      groups_[static_cast<size_t>(g)]->rtc->AddListener(executor.get());
      rtc_executors_.push_back(std::move(executor));
    }
  }
}

void Engine::SetRtcTransferFn(rtc::TransferFn fn) {
  for (auto& group : groups_) {
    group->rtc->SetTransferFn(fn);
  }
}

rtc::RtcMaster& Engine::rtc(int dp_group) {
  DS_CHECK_GE(dp_group, 0);
  DS_CHECK_LT(dp_group, static_cast<int>(groups_.size()));
  return *groups_[static_cast<size_t>(dp_group)]->rtc;
}

Sequence* Engine::FindLive(uint64_t serial) const {
  auto it = std::lower_bound(
      sequences_.begin(), sequences_.end(), serial,
      [](const SequencePtr& seq, uint64_t key) { return seq->serial < key; });
  return it != sequences_.end() && (*it)->serial == serial ? it->get() : nullptr;
}

int Engine::PickDpGroup() const {
  // Count every live sequence already assigned to each group (including ones
  // still in the tokenizer), so a burst of simultaneous submits spreads.
  std::vector<size_t> loads(groups_.size(), 0);
  for (const auto& seq : sequences_) {
    ++loads[static_cast<size_t>(seq->dp_group)];
  }
  int best = 0;
  for (size_t g = 1; g < loads.size(); ++g) {
    if (loads[g] < loads[static_cast<size_t>(best)]) {
      best = static_cast<int>(g);
    }
  }
  return best;
}

void Engine::Submit(const workload::RequestSpec& spec, SeqCallback on_first_token,
                    SeqCallback on_complete, SeqErrorCallback on_error) {
  Submit(RequestRef::Copy(spec), std::move(on_first_token), std::move(on_complete),
         std::move(on_error));
}

void Engine::Submit(RequestRef request, SeqCallback on_first_token, SeqCallback on_complete,
                    SeqErrorCallback on_error) {
  DS_CHECK(!draining_) << "Submit() on a draining engine; the TE stopped admitting";
  const workload::RequestSpec& spec = *request.spec;
  auto owned = std::make_unique<Sequence>();
  Sequence* seq = owned.get();
  seq->request_id = spec.id;
  seq->decode_target = std::max<int64_t>(1, spec.decode_len);
  seq->context_id = spec.context_id;
  seq->priority = spec.priority;
  seq->deadline = spec.deadline;
  seq->arrival = spec.arrival;
  seq->request = std::move(request);
  seq->prefill_target = seq->prompt_len();
  seq->submit_time = sim_->Now();
  seq->dp_group = PickDpGroup();
  seq->on_first_token = std::move(on_first_token);
  seq->on_complete = std::move(on_complete);
  seq->on_error = std::move(on_error);
  seq->state = SeqState::kTokenizing;
  DS_CHECK_LE((seq->prompt_len() + seq->decode_target) / config_.block_size + 1,
              kv_block_capacity_)
      << "request context cannot ever fit in this engine's KV capacity";
  seq->serial = next_serial_++;
  sequences_.push_back(std::move(owned));
  ++stats_.submitted;
  if (obs::Tracer* t = sim_->tracer()) {
    t->Instant(sim_->Now(), TracePid(), seq->dp_group, "seq.submit",
               {obs::Arg("req", static_cast<int64_t>(seq->request_id)),
                obs::Arg("prompt_len", seq->prompt_len()),
                obs::Arg("decode_len", seq->decode_target),
                obs::Arg("priority", seq->priority)});
  }
  // The tokenizer module runs independently ahead of sched-enqueue (§4.1).
  DurationNs tokenize = tokenizer_.EncodeDuration(static_cast<size_t>(seq->prompt_len()));
  sim_->ScheduleAfter(tokenize, [this, serial = seq->serial] {
    if (Sequence* live = FindLive(serial)) {
      SchedEnqueue(live);
    }
  });
}

void Engine::SchedEnqueue(Sequence* seq) {
  DpGroup& group = GroupFor(*seq);
  rtc::MatchInfo match;
  if (config_.enable_prefix_caching) {
    // Cut once here (a no-op for the JE's chain); the preserve on release
    // reuses it.
    seq->request.keys = group.rtc->KeysFor(seq->prompt(), std::move(seq->request.keys));
    if (!seq->context_id.empty()) {
      match = group.rtc->MatchByID(seq->context_id);
    }
    if (!match.hit()) {
      match = group.rtc->MatchByPrefixToken(seq->prompt(), seq->request.keys);
    }
    // Never reuse the full prompt: at least the final token must run through
    // the model to produce the first output.
    match = group.rtc->TruncateMatch(match, seq->prompt_len() - 1);
  }
  if (match.needs_populate()) {
    bool fetch = false;
    if (config_.enable_populate) {
      // Fitted cost model (§4.2): fetch wins when moving the off-NPU KV is
      // faster than recomputing it, by the configured margin.
      Bytes fetch_bytes = static_cast<Bytes>(match.offnpu_tokens) *
                          config_.model.KvBytesPerToken();
      DurationNs fetch_time =
          SToNs(static_cast<double>(fetch_bytes) /
                      (config_.populate_bandwidth_gbps * 1e9));
      DurationNs recompute_time = cost_.RecomputeDuration(match.offnpu_tokens);
      fetch = static_cast<double>(recompute_time) >=
              static_cast<double>(fetch_time) * config_.populate_speedup_threshold;
    }
    if (fetch) {
      group.rtc->Acquire(match.blocks);
      seq->blocks = match.blocks;
      auto ticket = group.rtc->Populate(match);
      if (ticket.ok()) {
        ++stats_.populates_started;
        seq->state = SeqState::kWaitingPopulate;
        seq->reused_tokens = match.matched_tokens;
        group.rtc->OnPopulateReady(*ticket, [this, serial = seq->serial] {
          if (Sequence* live = FindLive(serial)) {
            FinishEnqueue(live);
          }
        });
        return;
      }
      // Could not reserve NPU space for the fetch: fall back to the
      // NPU-resident prefix only.
      group.rtc->Free(seq->blocks);
      seq->blocks.clear();
      match = group.rtc->TruncateMatch(match, match.npu_tokens);
    } else {
      ++stats_.populates_rejected;
      match = group.rtc->TruncateMatch(match, match.npu_tokens);
    }
  }
  group.rtc->Acquire(match.blocks);
  seq->blocks = match.blocks;
  seq->reused_tokens = match.matched_tokens;
  if (config_.enable_pic) {
    auto pic = group.rtc->MatchPositionIndependent(seq->prompt(), match.matched_tokens);
    if (pic.matched_tokens > 0) {
      group.rtc->Acquire(pic.blocks);
      seq->pic_blocks = std::move(pic.blocks);
      seq->pic_tokens = pic.matched_tokens;
      stats_.pic_reused_tokens += pic.matched_tokens;
    }
  }
  FinishEnqueue(seq);
}

void Engine::FinishEnqueue(Sequence* seq) {
  DpGroup& group = GroupFor(*seq);
  seq->block_tokens =
      static_cast<int64_t>(seq->blocks.size()) * static_cast<int64_t>(config_.block_size);
  seq->prefilled = seq->reused_tokens;
  stats_.reused_tokens += seq->reused_tokens;
  seq->state = SeqState::kQueued;
  seq->enqueue_time = sim_->Now();
  if (obs::Tracer* t = sim_->tracer()) {
    t->Instant(sim_->Now(), TracePid(), group.index, "seq.enqueue",
               {obs::Arg("req", static_cast<int64_t>(seq->request_id)),
                obs::Arg("reused_tokens", seq->reused_tokens),
                obs::Arg("pic_tokens", seq->pic_tokens)});
  }
  group.ready.push_back(seq);
  KickLoop(group);
}

Status Engine::SubmitPrefilled(const workload::RequestSpec& spec, SeqCallback on_complete,
                               SeqErrorCallback on_error) {
  return SubmitPrefilled(RequestRef::Copy(spec), std::move(on_complete), std::move(on_error));
}

Status Engine::SubmitPrefilled(RequestRef request, SeqCallback on_complete,
                               SeqErrorCallback on_error) {
  DS_CHECK(config_.role != EngineRole::kPrefillOnly)
      << "prefill-only engines cannot accept prefilled sequences";
  const workload::RequestSpec& spec = *request.spec;
  auto owned = std::make_unique<Sequence>();
  Sequence* seq = owned.get();
  seq->request_id = spec.id;
  seq->decode_target = std::max<int64_t>(1, spec.decode_len);
  seq->context_id = spec.context_id;
  seq->priority = spec.priority;
  seq->deadline = spec.deadline;
  seq->arrival = spec.arrival;
  seq->request = std::move(request);
  seq->prefill_target = seq->prompt_len();
  seq->prefilled = seq->prompt_len();
  seq->generated = 1;  // the prefill TE produced the first token
  seq->submit_time = sim_->Now();
  seq->dp_group = PickDpGroup();
  seq->on_complete = std::move(on_complete);
  seq->on_error = std::move(on_error);
  DpGroup& group = GroupFor(*seq);
  int64_t blocks_needed =
      (seq->context_len() + config_.block_size - 1) / config_.block_size;
  DS_RETURN_IF_ERROR(group.rtc->AllocBlocks(blocks_needed, &seq->blocks));
  seq->block_tokens =
      static_cast<int64_t>(seq->blocks.size()) * static_cast<int64_t>(config_.block_size);
  seq->state = SeqState::kDecoding;
  ++stats_.submitted;
  seq->serial = next_serial_++;
  sequences_.push_back(std::move(owned));
  if (obs::Tracer* t = sim_->tracer()) {
    t->Instant(sim_->Now(), TracePid(), seq->dp_group, "seq.submit",
               {obs::Arg("req", static_cast<int64_t>(seq->request_id)),
                obs::Arg("prompt_len", seq->prompt_len()),
                obs::Arg("decode_len", seq->decode_target),
                obs::Arg("priority", seq->priority), obs::Arg("prefilled", true)});
  }
  if (seq->decode_done()) {
    sim_->ScheduleAfter(0, [this, serial = seq->serial, gi = group.index] {
      if (Sequence* live = FindLive(serial)) {
        FinishSequence(*groups_[static_cast<size_t>(gi)], live, 0);
      }
    });
    return Status::Ok();
  }
  group.decoding.push_back(seq);
  KickLoop(group);
  return Status::Ok();
}

void Engine::SetStepTimeMultiplier(double multiplier) {
  DS_CHECK(multiplier > 0.0);
  step_time_multiplier_ = multiplier;
}

LoadInfo Engine::load() const {
  LoadInfo info;
  double usage_sum = 0;
  for (const auto& group : groups_) {
    info.running += static_cast<int64_t>(group->prefilling.size() + group->decoding.size());
    usage_sum += static_cast<double>(group->rtc->npu_blocks_used()) /
                 static_cast<double>(kv_block_capacity_);
    for (const Sequence* seq : group->prefilling) {
      info.inflight_tokens += seq->prompt_len();
    }
    for (const Sequence* seq : group->decoding) {
      info.inflight_tokens += seq->context_len();
    }
  }
  info.kv_usage = usage_sum / static_cast<double>(groups_.size());
  info.waiting = static_cast<int64_t>(sequences_.size()) - info.running;
  return info;
}

bool Engine::busy() const { return busy_groups_ > 0; }

bool Engine::idle() const { return sequences_.empty(); }

}  // namespace deepserve::flowserve
