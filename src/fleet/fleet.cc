#include "fleet/fleet.h"

#include <utility>

#include "common/logging.h"

namespace deepserve::fleet {

Fleet::Fleet(FleetSpec spec, ObsSinks obs) : spec_(std::move(spec)) {
  DS_CHECK(spec_.num_jes >= 1);
  sim_.SetTracer(obs.tracer);
  if (obs.metrics != nullptr) {
    sim_.SetMetrics(obs.metrics);
  }
  cluster_ = std::make_unique<hw::Cluster>(&sim_, spec_.cluster);
  transfer_ = std::make_unique<distflow::TransferEngine>(&sim_, cluster_.get(),
                                                         distflow::DistFlowConfig{});
  const bool replicated = spec_.ctrl.replicas > 1;
  if (replicated) {
    ctrl_log_ = std::make_unique<ctrl::ControlLog>(&sim_, spec_.ctrl);
  }
  manager_ = std::make_unique<serving::ClusterManager>(
      &sim_, cluster_.get(), transfer_.get(), spec_.scaling, serving::ScalingLatencyModel{},
      ctrl_log_.get());
  for (int i = 0; i < spec_.num_jes; ++i) {
    jes_.push_back(std::make_unique<serving::JobExecutor>(
        &sim_, spec_.je, serving::PdHeatmap::Default(), spec_.predictor()));
    if (replicated) {
      // Each JE's job table gets its own log domain; AttachControl also
      // registers the JE's TE-failure handler with the manager.
      jes_.back()->AttachControl(ctrl_log_.get(), manager_.get());
    }
  }
  if (!replicated) {
    manager_->AddFailureHandler([this](serving::TeId id) {
      for (auto& je : jes_) {
        je->OnTeFailure(id);
      }
    });
  }
  if (spec_.frontend) {
    frontend_ = std::make_unique<serving::Frontend>(&sim_, spec_.route);
    for (auto& je : jes_) {
      frontend_->RegisterServingJe(spec_.model, je.get());
    }
  }
}

Fleet::~Fleet() = default;

serving::TaskExecutor* Fleet::AddTe(flowserve::EngineRole role, flowserve::EngineConfig engine,
                                    size_t je) {
  engine.role = role;
  auto te = manager_->CreateReadyTe(engine);
  DS_CHECK(te.ok()) << "fleet construction failed: " << te.status().ToString();
  endpoints_.push_back((*te)->id());
  serving::JobExecutor& owner = *jes_.at(je);
  switch (role) {
    case flowserve::EngineRole::kColocated:
      owner.AddColocatedTe(*te);
      break;
    case flowserve::EngineRole::kPrefillOnly:
      owner.AddPrefillTe(*te);
      break;
    case flowserve::EngineRole::kDecodeOnly:
      owner.AddDecodeTe(*te);
      break;
  }
  return *te;
}

void Fleet::AddTes(const flowserve::EngineConfig& engine, int colocated, int prefill,
                   int decode, size_t je) {
  for (int i = 0; i < colocated; ++i) {
    AddTe(flowserve::EngineRole::kColocated, engine, je);
  }
  for (int i = 0; i < prefill; ++i) {
    AddTe(flowserve::EngineRole::kPrefillOnly, engine, je);
  }
  for (int i = 0; i < decode; ++i) {
    AddTe(flowserve::EngineRole::kDecodeOnly, engine, je);
  }
}

void Fleet::Link() {
  DS_CHECK_OK(transfer_->LinkCluster(endpoints_, nullptr));
  sim_.Run();
}

void Fleet::Terminate(workload::RequestId id, int64_t* counter) {
  ++*counter;
  if (++terminations_[id] > 1) {
    ++tally_.double_terminated;
  }
}

serving::ResponseHandler Fleet::Handler(const workload::RequestSpec& spec) {
  serving::ResponseHandler::ErrorCallback on_error =
      [this, id = spec.id](const Status&) { Terminate(id, &tally_.errored); };
  if (hooks_.on_error) {
    on_error = [this, spec](const Status& status) {
      Terminate(spec.id, &tally_.errored);
      hooks_.on_error(spec, status);
    };
  }
  return {[this, id = spec.id](const flowserve::Sequence& seq) {
            first_tokens_[id] = seq.first_token_time;
          },
          [this, spec](const flowserve::Sequence& seq) {
            auto it = first_tokens_.find(spec.id);
            const TimeNs first_token =
                it != first_tokens_.end() ? it->second : seq.first_token_time;
            metrics_.Record({spec.id, spec.arrival, first_token, seq.finish_time,
                             spec.prefill_len(), spec.decode_len});
            Terminate(spec.id, &tally_.completed);
            if (hooks_.on_complete) {
              hooks_.on_complete(spec, first_token, seq);
            }
          },
          std::move(on_error)};
}

void Fleet::Submit(const std::vector<workload::RequestSpec>& trace, ReplayHooks hooks) {
  hooks_ = std::move(hooks);
  for (const auto& spec : trace) {
    sim_.ScheduleAt(spec.arrival, [this, spec] {
      if (frontend_ == nullptr) {
        jes_[0]->HandleRequest(spec, Handler(spec));
        return;
      }
      serving::ChatRequest request;
      request.model = spec_.model;
      request.spec = spec;
      request.deadline = spec.deadline;
      // A pre-dispatch rejection reports through the Status alone; the
      // handler never fires for it.
      Status status = frontend_->ChatCompletion(request, Handler(spec));
      if (!status.ok()) {
        Terminate(spec.id, &tally_.rejected);
        if (hooks_.on_reject) {
          hooks_.on_reject(spec, status);
        }
      }
    });
  }
}

workload::MetricsCollector Fleet::Replay(const std::vector<workload::RequestSpec>& trace,
                                         ReplayHooks hooks) {
  Submit(trace, std::move(hooks));
  sim_.Run();
  first_tokens_.clear();
  return std::exchange(metrics_, workload::MetricsCollector{});
}

}  // namespace deepserve::fleet
