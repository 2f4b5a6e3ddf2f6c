#include "ctrl/te_directory.h"

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
  switch (record.type) {
    case kInit: {
      DS_CHECK(record.ints.size() == 1);
      DS_CHECK(npu_in_use_.empty());
      npu_in_use_.assign(static_cast<size_t>(record.ints[0]), 0);
      break;
    }
    case kReservePods: {
      DS_CHECK(record.ints.size() == 1);
      prewarmed_pods_ += static_cast<int>(record.ints[0]);
      break;
    }
    case kReserveTes: {
      DS_CHECK(record.ints.size() == 1);
      prewarmed_tes_ += static_cast<int>(record.ints[0]);
      break;
    }
    case kNpusAllocated: {
      for (int64_t npu : record.ints) {
        DS_CHECK(npu >= 0 && npu < static_cast<int64_t>(npu_in_use_.size()));
        DS_CHECK(npu_in_use_[static_cast<size_t>(npu)] == 0);
        npu_in_use_[static_cast<size_t>(npu)] = 1;
      }
      break;
    }
    case kNpusReleased: {
      for (int64_t npu : record.ints) {
        DS_CHECK(npu >= 0 && npu < static_cast<int64_t>(npu_in_use_.size()));
        DS_CHECK(npu_in_use_[static_cast<size_t>(npu)] != 0);
        npu_in_use_[static_cast<size_t>(npu)] = 0;
      }
      break;
    }
    case kTeCreated: {
      DS_CHECK(!record.ints.empty());
      const auto id = static_cast<int32_t>(record.ints[0]);
      DS_CHECK(id == next_te_id_);
      ++next_te_id_;
      TeMeta meta;
      meta.id = id;
      meta.lifecycle = Lifecycle::kReady;
      meta.npus.assign(record.ints.begin() + 1, record.ints.end());
      DS_CHECK(tes_.emplace(id, std::move(meta)).second);
      break;
    }
    case kPipelineStarted: {
      DS_CHECK(record.ints.size() >= 2);
      const int64_t pipe = record.ints[0];
      const auto id = static_cast<int32_t>(record.ints[1]);
      DS_CHECK(pipe == next_pipeline_);
      ++next_pipeline_;
      DS_CHECK(id == next_te_id_);
      ++next_te_id_;
      TeMeta meta;
      meta.id = id;
      meta.lifecycle = Lifecycle::kProvisioning;
      meta.pipeline = pipe;
      meta.npus.assign(record.ints.begin() + 2, record.ints.end());
      DS_CHECK(tes_.emplace(id, std::move(meta)).second);
      PipelineMeta pm;
      pm.id = pipe;
      pm.te = id;
      DS_CHECK(pipelines_.emplace(pipe, pm).second);
      break;
    }
    case kPodsConsumed: {
      DS_CHECK(record.ints.size() == 1);
      prewarmed_pods_ -= static_cast<int>(record.ints[0]);
      DS_CHECK(prewarmed_pods_ >= 0);
      break;
    }
    case kWarmTesConsumed: {
      DS_CHECK(record.ints.size() == 1);
      prewarmed_tes_ -= static_cast<int>(record.ints[0]);
      DS_CHECK(prewarmed_tes_ >= 0);
      break;
    }
    case kStageDone: {
      DS_CHECK(record.ints.size() == 2);
      auto it = pipelines_.find(record.ints[0]);
      DS_CHECK(it != pipelines_.end());
      it->second.stages_done = static_cast<int32_t>(record.ints[1]);
      break;
    }
    case kPipelineDone: {
      DS_CHECK(record.ints.size() == 1);
      auto it = pipelines_.find(record.ints[0]);
      DS_CHECK(it != pipelines_.end());
      auto te = tes_.find(it->second.te);
      DS_CHECK(te != tes_.end());
      DS_CHECK(te->second.lifecycle == Lifecycle::kProvisioning);
      te->second.lifecycle = Lifecycle::kReady;
      te->second.pipeline = -1;
      pipelines_.erase(it);
      break;
    }
    case kPipelineAborted: {
      DS_CHECK(record.ints.size() == 1);
      auto it = pipelines_.find(record.ints[0]);
      DS_CHECK(it != pipelines_.end());
      auto te = tes_.find(it->second.te);
      DS_CHECK(te != tes_.end());
      DS_CHECK(te->second.lifecycle == Lifecycle::kProvisioning);
      te->second.lifecycle = Lifecycle::kAborted;
      te->second.pipeline = -1;
      pipelines_.erase(it);
      break;
    }
    case kTeStopped: {
      DS_CHECK(record.ints.size() == 1);
      auto it = tes_.find(static_cast<int32_t>(record.ints[0]));
      DS_CHECK(it != tes_.end());
      DS_CHECK(it->second.lifecycle == Lifecycle::kReady);
      it->second.lifecycle = Lifecycle::kStopped;
      break;
    }
    case kTeCrashed: {
      DS_CHECK(record.ints.size() == 3);
      auto it = tes_.find(static_cast<int32_t>(record.ints[0]));
      DS_CHECK(it != tes_.end());
      DS_CHECK(it->second.lifecycle == Lifecycle::kReady);
      it->second.lifecycle = Lifecycle::kFailed;
      it->second.crash_kind = static_cast<int32_t>(record.ints[1]);
      it->second.crash_time = record.ints[2];
      break;
    }
    case kTeDetected: {
      DS_CHECK(record.ints.size() == 1);
      auto it = tes_.find(static_cast<int32_t>(record.ints[0]));
      DS_CHECK(it != tes_.end());
      DS_CHECK(it->second.lifecycle == Lifecycle::kFailed);
      DS_CHECK(!it->second.detected);
      it->second.detected = true;
      break;
    }
    case kEpoch: {
      ++epoch_;
      break;
    }
    default:
      DS_CHECK(false);
  }
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
    for (int64_t npu : meta.npus) {
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
