#include "rtc/block_pool.h"

#include "common/logging.h"

namespace deepserve::rtc {

namespace {
// Generations occupy the high 32 bits of the (signed) BlockId; keeping them
// in [1, 2^31) keeps every id positive and never 0 or kInvalidBlock.
constexpr uint32_t kMaxGen = 0x7fffffffu;

constexpr BlockId MakeId(size_t idx, uint32_t gen) {
  return static_cast<BlockId>((static_cast<uint64_t>(gen) << 32) |
                              static_cast<uint64_t>(idx));
}
}  // namespace

std::string_view TierToString(Tier tier) {
  switch (tier) {
    case Tier::kNpu:
      return "NPU";
    case Tier::kDram:
      return "DRAM";
    case Tier::kSsd:
      return "SSD";
  }
  return "?";
}

BlockPool::BlockPool(BlockPoolConfig config) : config_(config) {
  DS_CHECK_GT(config_.npu_capacity, 0);
  DS_CHECK_GE(config_.dram_capacity, 0);
}

int64_t BlockPool::capacity(Tier tier) const {
  switch (tier) {
    case Tier::kNpu:
      return config_.npu_capacity;
    case Tier::kDram:
      return config_.dram_capacity;
    case Tier::kSsd:
      return INT64_MAX;
  }
  return 0;
}

Status BlockPool::Allocate(int64_t n, Tier tier, std::vector<BlockId>* out) {
  DS_CHECK_GE(n, 0);
  if (used(tier) + n > capacity(tier)) {
    return ResourceExhaustedError("tier " + std::string(TierToString(tier)) + " needs " +
                                  std::to_string(n) + " blocks, has " +
                                  std::to_string(free_blocks(tier)));
  }
  for (int64_t i = 0; i < n; ++i) {
    size_t idx;
    if (!free_slots_.empty()) {
      idx = free_slots_.back();
      free_slots_.pop_back();
    } else {
      DS_CHECK_LT(slots_.size(), size_t{0xffffffff}) << "block slab exhausted";
      idx = slots_.size();
      slots_.emplace_back();
    }
    Slot& slot = slots_[idx];
    slot.live = true;
    slot.info = BlockInfo{};
    slot.info.ref_count = 1;
    slot.info.residency = TierBit(tier);
    out->push_back(MakeId(idx, slot.gen));
  }
  live_count_ += static_cast<size_t>(n);
  used_[static_cast<size_t>(tier)] += n;
  return Status::Ok();
}

Status BlockPool::AddResidency(BlockId id, Tier tier) {
  BlockInfo& info = mutable_info(id);
  if (info.resident(tier)) {
    return Status::Ok();
  }
  if (used(tier) + 1 > capacity(tier)) {
    return ResourceExhaustedError("no free blocks on tier " + std::string(TierToString(tier)));
  }
  info.residency |= TierBit(tier);
  ++used_[static_cast<size_t>(tier)];
  return Status::Ok();
}

void BlockPool::DropResidency(BlockId id, Tier tier) {
  BlockInfo& info = mutable_info(id);
  if (!info.resident(tier)) {
    return;
  }
  info.residency &= static_cast<uint8_t>(~TierBit(tier));
  --used_[static_cast<size_t>(tier)];
}

void BlockPool::Destroy(BlockId id) {
  BlockInfo& info = mutable_info(id);
  DS_CHECK_EQ(info.ref_count, 0) << "destroying referenced block " << id;
  if (info.pins > 0) {
    --pinned_blocks_;  // a block destroyed mid-transfer drops its pins
  }
  for (Tier tier : {Tier::kNpu, Tier::kDram, Tier::kSsd}) {
    if (info.resident(tier)) {
      --used_[static_cast<size_t>(tier)];
    }
  }
  size_t idx = IndexOf(id);
  Slot& slot = slots_[idx];
  slot.live = false;
  slot.info = BlockInfo{};
  slot.gen = slot.gen == kMaxGen ? 1 : slot.gen + 1;
  free_slots_.push_back(static_cast<uint32_t>(idx));
  --live_count_;
}

}  // namespace deepserve::rtc
