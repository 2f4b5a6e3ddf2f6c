#include "ctrl/te_directory.h"

#include <utility>
#include <variant>

#include "common/logging.h"

namespace deepserve::ctrl {

const TeDirectory::TeMeta* TeDirectory::Find(int32_t id) const {
  auto it = tes_.find(id);
  return it == tes_.end() ? nullptr : &it->second;
}

int64_t TeDirectory::npus_in_use() const {
  int64_t used = 0;
  for (uint8_t bit : npu_in_use_) {
    used += bit != 0 ? 1 : 0;
  }
  return used;
}

void TeDirectory::Apply(const LogRecord& record) {
  DS_CHECK(record.domain == domain());
  ++applied_;
  auto mark_npus = [this](const std::vector<hw::NpuId>& npus, uint8_t in_use) {
    for (hw::NpuId npu : npus) {
      DS_CHECK(npu >= 0 && static_cast<size_t>(npu) < npu_in_use_.size());
      DS_CHECK(npu_in_use_[static_cast<size_t>(npu)] != in_use);
      npu_in_use_[static_cast<size_t>(npu)] = in_use;
    }
  };
  // Registers the next TE id; `pipeline` is its open pipeline, or -1.
  auto add_te = [this](workload::TeId id, Lifecycle lifecycle, int64_t pipeline,
                       const std::vector<hw::NpuId>& npus) {
    DS_CHECK(id == next_te_id_);
    ++next_te_id_;
    TeMeta meta;
    meta.id = id;
    meta.lifecycle = lifecycle;
    meta.npus = npus;
    meta.pipeline = pipeline;
    DS_CHECK(tes_.emplace(id, std::move(meta)).second);
  };
  auto find_te = [this](workload::TeId id, Lifecycle expected) -> TeMeta& {
    auto it = tes_.find(id);
    DS_CHECK(it != tes_.end());
    DS_CHECK(it->second.lifecycle == expected);
    return it->second;
  };
  // Closes a pipeline, moving its provisioning TE to `lifecycle`.
  auto close_pipeline = [&](int64_t pipe, Lifecycle lifecycle) {
    auto it = pipelines_.find(pipe);
    DS_CHECK(it != pipelines_.end());
    TeMeta& te = find_te(it->second.te, Lifecycle::kProvisioning);
    te.lifecycle = lifecycle;
    te.pipeline = -1;
    pipelines_.erase(it);
  };
  std::visit(
      Overloaded{
          [&](const DirectoryInit& op) {
            DS_CHECK(npu_in_use_.empty());
            npu_in_use_.assign(static_cast<size_t>(op.num_npus), 0);
          },
          [&](const PodsReserved& op) { prewarmed_pods_ += op.count; },
          [&](const WarmTesReserved& op) { prewarmed_tes_ += op.count; },
          [&](const NpusAllocated& op) { mark_npus(op.npus, 1); },
          [&](const NpusReleased& op) { mark_npus(op.npus, 0); },
          [&](const TeCreated& op) { add_te(op.te, Lifecycle::kReady, -1, op.npus); },
          [&](const PipelineStarted& op) {
            DS_CHECK(op.pipe == next_pipeline_);
            ++next_pipeline_;
            add_te(op.te, Lifecycle::kProvisioning, op.pipe, op.npus);
            PipelineMeta pm;
            pm.id = op.pipe;
            pm.te = op.te;
            DS_CHECK(pipelines_.emplace(op.pipe, pm).second);
          },
          [&](const PodsConsumed& op) {
            prewarmed_pods_ -= op.count;
            DS_CHECK(prewarmed_pods_ >= 0);
          },
          [&](const WarmTesConsumed& op) {
            prewarmed_tes_ -= op.count;
            DS_CHECK(prewarmed_tes_ >= 0);
          },
          [&](const StageDone& op) {
            auto it = pipelines_.find(op.pipe);
            DS_CHECK(it != pipelines_.end());
            it->second.stages_done = op.stage;
          },
          [&](const PipelineDone& op) { close_pipeline(op.pipe, Lifecycle::kReady); },
          [&](const PipelineAborted& op) { close_pipeline(op.pipe, Lifecycle::kAborted); },
          [&](const TeStopped& op) {
            find_te(op.te, Lifecycle::kReady).lifecycle = Lifecycle::kStopped;
          },
          [&](const TeCrashed& op) {
            TeMeta& te = find_te(op.te, Lifecycle::kReady);
            te.lifecycle = Lifecycle::kFailed;
            te.crash_kind = op.kind;
            te.crash_time = op.time;
          },
          [&](const TeDetected& op) {
            TeMeta& te = find_te(op.te, Lifecycle::kFailed);
            DS_CHECK(!te.detected);
            te.detected = true;
          },
          [&](const Epoch&) { ++epoch_; },
          [](const auto&) { DS_CHECK(false) << "a JobTable record in a TeDirectory domain"; },
      },
      record.op);
}

uint64_t TeDirectory::Fingerprint() const {
  uint64_t hash = kFnvOffset;
  Mix(&hash, static_cast<uint64_t>(next_te_id_));
  Mix(&hash, static_cast<uint64_t>(next_pipeline_));
  Mix(&hash, static_cast<uint64_t>(prewarmed_pods_));
  Mix(&hash, static_cast<uint64_t>(prewarmed_tes_));
  Mix(&hash, static_cast<uint64_t>(epoch_));
  Mix(&hash, npu_in_use_.size());
  for (uint8_t bit : npu_in_use_) {
    Mix(&hash, bit);
  }
  Mix(&hash, tes_.size());
  for (const auto& [id, meta] : tes_) {
    Mix(&hash, static_cast<uint64_t>(id));
    Mix(&hash, static_cast<uint64_t>(meta.lifecycle));
    Mix(&hash, meta.npus.size());
    for (hw::NpuId npu : meta.npus) {
      Mix(&hash, static_cast<uint64_t>(npu));
    }
    Mix(&hash, static_cast<uint64_t>(meta.pipeline));
    Mix(&hash, static_cast<uint64_t>(meta.crash_kind));
    Mix(&hash, static_cast<uint64_t>(meta.crash_time));
    Mix(&hash, meta.detected ? 1u : 0u);
  }
  Mix(&hash, pipelines_.size());
  for (const auto& [id, pm] : pipelines_) {
    Mix(&hash, static_cast<uint64_t>(id));
    Mix(&hash, static_cast<uint64_t>(pm.te));
    Mix(&hash, static_cast<uint64_t>(pm.stages_done));
  }
  return hash;
}

void TeDirectory::CopyFrom(const CtrlStateMachine& other) {
  const auto* source = dynamic_cast<const TeDirectory*>(&other);
  DS_CHECK(source != nullptr) << "CopyFrom a " << other.name() << " into a " << name();
  *this = *source;
}

}  // namespace deepserve::ctrl
