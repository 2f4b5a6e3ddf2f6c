// Per-NPU RTC executor.
//
// In FlowServe's master-executor architecture the RTC master decides, and an
// RTC executor on every NPU applies: here that means translating the master's
// logical NPU-block deltas into byte allocations on the simulated device, so
// HBM occupancy is visible to anything inspecting hw::Npu (and over-commit is
// caught by the device, not just the pool).
#ifndef DEEPSERVE_RTC_RTC_EXECUTOR_H_
#define DEEPSERVE_RTC_RTC_EXECUTOR_H_

#include "common/logging.h"
#include "common/types.h"
#include "hw/npu.h"
#include "rtc/rtc_master.h"

namespace deepserve::rtc {

class RtcExecutor : public NpuBlockListener {
 public:
  // bytes_per_block here is the PER-NPU share (the master's bytes_per_block
  // divided by the TP*PP degree).
  RtcExecutor(hw::Npu* npu, Bytes bytes_per_block)
      : npu_(npu), bytes_per_block_(bytes_per_block) {
    DS_CHECK(npu != nullptr);
  }

  void OnNpuBlocksChanged(int64_t delta_blocks) override {
    if (delta_blocks > 0) {
      Bytes bytes = static_cast<Bytes>(delta_blocks) * bytes_per_block_;
      DS_CHECK_OK(npu_->AllocateHbm(bytes));
      allocated_ += bytes;
    } else if (delta_blocks < 0) {
      Bytes bytes = static_cast<Bytes>(-delta_blocks) * bytes_per_block_;
      DS_CHECK_LE(bytes, allocated_);
      npu_->FreeHbm(bytes);
      allocated_ -= bytes;
    }
  }

  // Returns every byte this executor holds to the device (its TE is gone and
  // the NPU goes back to the free pool). Detach it from its master first.
  void Release() {
    npu_->FreeHbm(allocated_);
    allocated_ = 0;
  }

  hw::Npu* npu() { return npu_; }
  Bytes allocated_bytes() const { return allocated_; }

 private:
  hw::Npu* npu_;
  Bytes bytes_per_block_;
  Bytes allocated_ = 0;
};

}  // namespace deepserve::rtc

#endif  // DEEPSERVE_RTC_RTC_EXECUTOR_H_
