#include "rtc/rtc_master.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "common/sorted_view.h"

namespace deepserve::rtc {

RtcMaster::RtcMaster(sim::Simulator* sim, RtcConfig config)
    : sim_(sim), config_(config), pool_(config.pool), tree_(&stats_.lru_leaves_examined) {
  DS_CHECK(sim_ != nullptr);
  DS_CHECK_GT(config_.block_size, 0);
  // Default transfer: completes on the next simulator tick (unit tests).
  transfer_ = [this](Tier, Tier, Bytes, std::function<void()> done) {
    sim_->ScheduleAfter(0, std::move(done));
  };
}

int RtcMaster::TracePid() {
  obs::Tracer* tracer = sim_->tracer();
  if (tracer == nullptr) {
    return -1;
  }
  if (trace_pid_ < 0) {
    trace_pid_ = tracer->NewTrack("rtc");
    tracer->SetLaneName(trace_pid_, 0, "cache");
  }
  return trace_pid_;
}

void RtcMaster::SyncListeners() {
  int64_t used = pool_.used(Tier::kNpu);
  int64_t delta = used - last_npu_used_;
  if (delta == 0) {
    return;
  }
  last_npu_used_ = used;
  for (NpuBlockListener* listener : listeners_) {
    listener->OnNpuBlocksChanged(delta);
  }
}

MatchInfo RtcMaster::BuildMatchInfo(std::vector<BlockId> blocks, int64_t matched_tokens) const {
  MatchInfo info;
  info.matched_tokens = matched_tokens;
  bool npu_prefix = true;
  for (BlockId id : blocks) {
    const BlockInfo* block = pool_.Find(id);
    if (block == nullptr) {
      return MatchInfo{};
    }
    if (npu_prefix && block->resident(Tier::kNpu)) {
      info.npu_tokens += config_.block_size;
    } else {
      npu_prefix = false;
    }
  }
  info.offnpu_tokens = info.matched_tokens - info.npu_tokens;
  info.blocks = std::move(blocks);
  return info;
}

SharedBlockKeys RtcMaster::KeysFor(std::span<const TokenId> tokens, SharedBlockKeys keys) {
  if (keys != nullptr && keys->block_size == config_.block_size) {
    return keys;
  }
  ++stats_.prompt_hashes;
  return HashPrompt(tokens, config_.block_size);
}

MatchInfo RtcMaster::MatchByPrefixToken(std::span<const TokenId> prompt,
                                        const SharedBlockKeys& keys) {
  stats_.requested_tokens += static_cast<int64_t>(prompt.size());
  if (!config_.enable_prefix_caching) {
    ++stats_.match_misses;
    return MatchInfo{};
  }
  auto match = tree_.Match(KeysFor(prompt, keys)->keys);
  std::vector<BlockId> blocks;
  TimeNs now = sim_->Now();
  for (auto* node : match.path) {
    tree_.Touch(node, now);
    blocks.insert(blocks.end(), node->value.blocks.begin(), node->value.blocks.end());
  }
  if (match.partial != nullptr) {
    tree_.Touch(match.partial, now);
    size_t take = std::min(match.partial_len, match.partial->value.blocks.size());
    blocks.insert(blocks.end(), match.partial->value.blocks.begin(),
                  match.partial->value.blocks.begin() + static_cast<ptrdiff_t>(take));
  }
  int64_t matched_tokens =
      static_cast<int64_t>(blocks.size()) * static_cast<int64_t>(config_.block_size);
  if (matched_tokens > 0) {
    ++stats_.match_hits;
    stats_.matched_tokens += matched_tokens;
  } else {
    ++stats_.match_misses;
  }
  if (obs::Tracer* t = sim_->tracer()) {
    t->Instant(sim_->Now(), TracePid(), 0, matched_tokens > 0 ? "cache.hit" : "cache.miss",
               {obs::Arg("kind", "prefix"),
                obs::Arg("matched_tokens", matched_tokens),
                obs::Arg("requested_tokens", static_cast<int64_t>(prompt.size()))});
  }
  return BuildMatchInfo(std::move(blocks), matched_tokens);
}

MatchInfo RtcMaster::MatchByID(const std::string& id) {
  auto miss = [this, &id] {
    ++stats_.match_misses;
    if (obs::Tracer* t = sim_->tracer()) {
      t->Instant(sim_->Now(), TracePid(), 0, "cache.miss",
                 {obs::Arg("kind", "id"), obs::Arg("id", id)});
    }
    return MatchInfo{};
  };
  auto it = id_index_.find(id);
  if (it == id_index_.end()) {
    return miss();
  }
  // Validate against eviction: any discarded block invalidates the entry
  // (a destroyed block's id never resolves again, even once its slot is
  // reused).
  int64_t tokens = id_tokens_.at(id);
  MatchInfo match = BuildMatchInfo(it->second, tokens);
  if (!match.hit()) {
    id_index_.erase(it);
    id_tokens_.erase(id);
    return miss();
  }
  ++stats_.match_hits;
  stats_.matched_tokens += tokens;
  stats_.requested_tokens += tokens;
  if (obs::Tracer* t = sim_->tracer()) {
    t->Instant(sim_->Now(), TracePid(), 0, "cache.hit",
               {obs::Arg("kind", "id"), obs::Arg("id", id),
                obs::Arg("matched_tokens", tokens)});
  }
  return match;
}

void RtcMaster::Acquire(std::span<const BlockId> blocks) {
  for (BlockId id : blocks) {
    pool_.Ref(id);
  }
  RefreshOwners(blocks);
}

void RtcMaster::Refresh(Tree::Node* node) {
  BlockRun& run = node->value;
  bool evictable = !run.blocks.empty();
  run.has_dram = false;
  run.npu_only = false;
  for (BlockId id : run.blocks) {
    const BlockInfo& info = pool_.info(id);
    if (info.ref_count > 0 || info.pins > 0 || !info.resident(Tier::kNpu)) {
      evictable = false;
      break;
    }
    run.has_dram = run.has_dram || info.resident(Tier::kDram);
    run.npu_only = run.npu_only || info.residency == TierBit(Tier::kNpu);
  }
  tree_.SetEvictable(node, evictable);
}

void RtcMaster::RefreshOwners(std::span<const BlockId> blocks) {
  Tree::Node* last = nullptr;  // runs are contiguous: refresh each node once
  for (BlockId id : blocks) {
    const BlockInfo* info = pool_.Find(id);
    if (info == nullptr) {
      continue;
    }
    Tree::Node* node = info->node;
    if (node != nullptr && node != last) {
      Refresh(node);
      last = node;
    }
  }
}

void RtcMaster::Unpin(std::span<const BlockId> blocks) {
  for (BlockId id : blocks) {
    pool_.Unpin(id);
  }
}

Tier RtcMaster::LowestTierBelowNpu(const BlockInfo& info) const {
  if (info.resident(Tier::kDram)) {
    return Tier::kDram;
  }
  return Tier::kSsd;
}

Result<PopulateTicket> RtcMaster::Populate(const MatchInfo& info) {
  // Collect matched blocks that still need an NPU copy, grouped by source.
  std::vector<BlockId> from_dram;
  std::vector<BlockId> from_ssd;
  for (BlockId id : info.blocks) {
    const BlockInfo& block = pool_.info(id);
    DS_CHECK_GT(block.ref_count, 0) << "Populate requires Acquire()d blocks";
    if (block.resident(Tier::kNpu)) {
      continue;
    }
    (LowestTierBelowNpu(block) == Tier::kDram ? from_dram : from_ssd).push_back(id);
  }
  int64_t needed = static_cast<int64_t>(from_dram.size() + from_ssd.size());
  if (needed == 0) {
    PopulateTicket ticket = next_ticket_++;
    inflight_populates_[ticket] = 0;  // instantly ready
    return ticket;
  }
  DS_RETURN_IF_ERROR(EnsureNpuFree(needed));
  PopulateTicket ticket = next_ticket_++;
  int groups = static_cast<int>(!from_dram.empty()) + static_cast<int>(!from_ssd.empty());
  inflight_populates_[ticket] = groups;
  ++stats_.populates;
  stats_.populated_blocks += needed;
  if (obs::Tracer* t = sim_->tracer()) {
    t->AsyncBegin(sim_->Now(), TracePid(), ticket, "populate",
                  {obs::Arg("blocks", needed),
                   obs::Arg("from_dram", static_cast<int64_t>(from_dram.size())),
                   obs::Arg("from_ssd", static_cast<int64_t>(from_ssd.size()))});
  }

  auto launch = [this, ticket](std::vector<BlockId> blocks, Tier src) {
    // Reserve NPU slots up-front so concurrent allocation cannot over-commit;
    // pin the blocks so eviction cannot race the in-flight copy.
    for (BlockId id : blocks) {
      DS_CHECK_OK(pool_.AddResidency(id, Tier::kNpu));
      pool_.Pin(id);
    }
    RefreshOwners(blocks);
    SyncListeners();
    Bytes bytes = static_cast<Bytes>(blocks.size()) * config_.bytes_per_block;
    transfer_(src, Tier::kNpu, bytes, [this, ticket, blocks = std::move(blocks)] {
      Unpin(blocks);
      RefreshOwners(blocks);
      auto it = inflight_populates_.find(ticket);
      DS_CHECK(it != inflight_populates_.end());
      if (--it->second == 0) {
        if (obs::Tracer* t = sim_->tracer()) {
          t->AsyncEnd(sim_->Now(), TracePid(), ticket, "populate");
        }
        auto cb = populate_callbacks_.find(ticket);
        if (cb != populate_callbacks_.end()) {
          auto fn = std::move(cb->second);
          populate_callbacks_.erase(cb);
          fn();
        }
      }
    });
  };
  if (!from_dram.empty()) {
    launch(std::move(from_dram), Tier::kDram);
  }
  if (!from_ssd.empty()) {
    launch(std::move(from_ssd), Tier::kSsd);
  }
  return ticket;
}

void RtcMaster::OnPopulateReady(PopulateTicket ticket, std::function<void()> callback) {
  auto it = inflight_populates_.find(ticket);
  if (it == inflight_populates_.end() || it->second == 0) {
    sim_->ScheduleAfter(0, std::move(callback));
    return;
  }
  DS_CHECK(populate_callbacks_.emplace(ticket, std::move(callback)).second)
      << "populate ticket already has a callback";
}

MatchInfo RtcMaster::TruncateMatch(const MatchInfo& info, int64_t max_tokens) const {
  if (info.matched_tokens <= max_tokens) {
    return info;
  }
  size_t keep_blocks = static_cast<size_t>(std::max<int64_t>(0, max_tokens) /
                                           static_cast<int64_t>(config_.block_size));
  std::vector<BlockId> kept(info.blocks.begin(),
                            info.blocks.begin() + static_cast<ptrdiff_t>(keep_blocks));
  return BuildMatchInfo(std::move(kept), static_cast<int64_t>(keep_blocks) *
                                             static_cast<int64_t>(config_.block_size));
}

PicMatch RtcMaster::MatchPositionIndependent(std::span<const TokenId> prompt,
                                             int64_t skip_tokens) {
  PicMatch match;
  if (!config_.enable_pic) {
    return match;
  }
  size_t bs = static_cast<size_t>(config_.block_size);
  size_t first_block = static_cast<size_t>(std::max<int64_t>(0, skip_tokens)) / bs;
  size_t full = prompt.size() / bs;
  for (size_t b = first_block; b < full; ++b) {
    BlockKey content = ChainHash(0, prompt.subspan(b * bs, bs));
    auto it = pic_index_.find(content);
    if (it == pic_index_.end()) {
      continue;
    }
    const BlockInfo* info = pool_.Find(it->second);
    if (info == nullptr) {
      pic_index_.erase(it);  // block was evicted; prune the stale entry
      continue;
    }
    if (!info->resident(Tier::kNpu)) {
      continue;  // off-NPU PIC blocks are not worth fetching
    }
    match.blocks.push_back(it->second);
    match.matched_tokens += config_.block_size;
  }
  if (match.matched_tokens > 0) {
    ++stats_.pic_hits;
    stats_.pic_matched_tokens += match.matched_tokens;
  }
  return match;
}

PopulateState RtcMaster::QueryPopulate(PopulateTicket ticket) const {
  auto it = inflight_populates_.find(ticket);
  if (it == inflight_populates_.end()) {
    return PopulateState::kUnknown;
  }
  return it->second == 0 ? PopulateState::kReady : PopulateState::kInFlight;
}

Status RtcMaster::EnsureNpuFree(int64_t n) {
  if (pool_.free_blocks(Tier::kNpu) >= n) {
    return Status::Ok();
  }
  // Both passes walk the LRU index (unreferenced, unpinned, NPU-resident
  // runs only) once, oldest first, taking victims as they come: a victim's
  // eviction changes no other run, so the next victim is never behind the
  // cursor, except a parent that pass 2 turns into a leaf.
  // Pass 1: drop NPU residency of cold runs that already have a lower-tier
  // copy (no data loss). The node stays matchable (and populatable) from
  // DRAM/SSD; off the NPU, it leaves the index.
  auto droppable = [](const Tree::Node& node) { return !node.value.npu_only; };
  for (Tree::Node* from = tree_.LruFront(); pool_.free_blocks(Tier::kNpu) < n;) {
    Tree::Node* victim = tree_.FindLruLeafFrom(from, droppable);
    if (victim == nullptr) {
      break;
    }
    from = Tree::LruNext(victim);
    for (BlockId id : victim->value.blocks) {
      pool_.DropResidency(id, Tier::kNpu);
      ++stats_.evicted_blocks;
    }
    Refresh(victim);
  }
  // Pass 2: discard cold NPU-only cache entries entirely.
  for (Tree::Node* victim = tree_.LruFront();
       victim != nullptr && pool_.free_blocks(Tier::kNpu) < n;) {
    Tree::Node* next = Tree::LruNext(victim);
    for (BlockId id : victim->value.blocks) {
      pool_.Destroy(id);
      ++stats_.discarded_blocks;
    }
    Tree::Node* parent = tree_.RemoveLeaf(victim);
    victim = parent != nullptr && (next == nullptr || Tree::LruBefore(parent, next)) ? parent : next;
  }
  SyncListeners();
  if (pool_.free_blocks(Tier::kNpu) < n) {
    return ResourceExhaustedError("NPU blocks exhausted: need " + std::to_string(n) + ", free " +
                                  std::to_string(pool_.free_blocks(Tier::kNpu)));
  }
  return Status::Ok();
}

Status RtcMaster::AllocBlocks(int64_t n, std::vector<BlockId>* out) {
  DS_RETURN_IF_ERROR(EnsureNpuFree(n));
  DS_RETURN_IF_ERROR(pool_.Allocate(n, Tier::kNpu, out));
  SyncListeners();
  MaybeArmSwap();
  return Status::Ok();
}

void RtcMaster::Copy(std::span<const BlockId> blocks, Tier dst,
                     std::function<void()> on_complete) {
  CopyBlocks(blocks, dst, /*demote=*/false, std::move(on_complete));
}

void RtcMaster::CopyBlocks(std::span<const BlockId> blocks, Tier dst, bool demote,
                           std::function<void()> on_complete) {
  std::vector<BlockId> to_copy;
  for (BlockId id : blocks) {
    const BlockInfo& info = pool_.info(id);
    if (info.resident(dst)) {
      continue;
    }
    if (!pool_.AddResidency(id, dst).ok()) {
      continue;  // destination tier full: skip (best-effort copy)
    }
    to_copy.push_back(id);
  }
  if (to_copy.empty()) {
    if (on_complete) {
      sim_->ScheduleAfter(0, std::move(on_complete));
    }
    return;
  }
  for (BlockId id : to_copy) {
    pool_.Pin(id);
  }
  RefreshOwners(to_copy);
  Bytes bytes = static_cast<Bytes>(to_copy.size()) * config_.bytes_per_block;
  transfer_(Tier::kNpu, dst, bytes,
            [this, demote, to_copy = std::move(to_copy), cb = std::move(on_complete)]() mutable {
              Unpin(to_copy);
              if (demote) {
                for (BlockId id : to_copy) {
                  const BlockInfo* info = pool_.Find(id);
                  if (info != nullptr && info->ref_count == 0) {
                    pool_.DropResidency(id, Tier::kNpu);
                  }
                }
              }
              // After the demotion, so a swapped-out run leaves the LRU
              // index once instead of re-entering it between the two steps.
              RefreshOwners(to_copy);
              SyncListeners();  // no-op unless the demotion freed NPU blocks
              if (cb) {
                cb();
              }
            });
}

void RtcMaster::Free(std::span<const BlockId> blocks) {
  // Runs are contiguous: each node is refreshed once, after its last block.
  Tree::Node* pending = nullptr;
  for (BlockId id : blocks) {
    Tree::Node* node = pool_.info(id).node;
    pool_.Unref(id);  // private blocks die here; cached ones stay
    if (node != pending) {
      if (pending != nullptr) {
        Refresh(pending);
      }
      pending = node;
    }
  }
  if (pending != nullptr) {
    Refresh(pending);
  }
  SyncListeners();
}

void RtcMaster::CommitBlocks(std::span<const TokenId> tokens, std::span<const BlockKey> keys,
                             std::span<const BlockId> blocks) {
  if (keys.empty()) {
    return;
  }
  DS_CHECK_GE(blocks.size(), keys.size())
      << "Preserve needs one block per full " << config_.block_size << "-token chunk";
  // ds-lint: allow(deferred-capture, RadixTree::Insert runs its hooks before returning; the name collides with the deferred EventQueue::Insert sink)
  auto on_new = [&](Tree::Node& node, size_t begin, size_t end) {
    node.value.blocks.assign(blocks.begin() + static_cast<ptrdiff_t>(begin),
                             blocks.begin() + static_cast<ptrdiff_t>(end));
    for (size_t i = begin; i < end; ++i) {
      pool_.Commit(blocks[i], keys[i], &node);
      if (config_.enable_pic) {
        // Content-only hash (chain seed 0): same tokens at any position map
        // to the same PIC key.
        size_t bs = static_cast<size_t>(config_.block_size);
        BlockKey content = ChainHash(0, tokens.subspan(i * bs, bs));
        pic_index_[content] = blocks[i];
      }
    }
    Refresh(&node);
  };
  // A split moves the tail of a run to a new node; candidacy is per node, so
  // both halves are recomputed.
  auto on_split = [this](Tree::Node& head, Tree::Node& tail) {
    for (BlockId id : tail.value.blocks) {
      pool_.SetNode(id, &tail);
    }
    Refresh(&head);
    Refresh(&tail);
  };
  tree_.Insert(keys, sim_->Now(), on_new, on_split);
  MaybeArmSwap();
}

void RtcMaster::Preserve(std::span<const TokenId> tokens, std::span<const BlockId> blocks,
                         const SharedBlockKeys& keys) {
  if (!config_.enable_prefix_caching) {
    return;
  }
  CommitBlocks(tokens, KeysFor(tokens, keys)->keys, blocks);
}

Status RtcMaster::PreserveById(const std::string& id, std::span<const TokenId> tokens,
                               std::span<const BlockId> blocks, const SharedBlockKeys& keys) {
  if (id.empty()) {
    return InvalidArgumentError("empty context-cache id");
  }
  const SharedBlockKeys shared = KeysFor(tokens, keys);
  const std::vector<BlockKey>& chain = shared->keys;
  if (chain.empty()) {
    return InvalidArgumentError("context shorter than one block");
  }
  // Explicit entries also live in the prefix tree so implicit matching still
  // finds them (CommitBlocks is idempotent for existing spans).
  CommitBlocks(tokens, chain, blocks);
  id_index_[id].assign(blocks.begin(), blocks.begin() + static_cast<ptrdiff_t>(chain.size()));
  id_tokens_[id] =
      static_cast<int64_t>(chain.size()) * static_cast<int64_t>(config_.block_size);
  return Status::Ok();
}

bool RtcMaster::DropById(const std::string& id) {
  id_tokens_.erase(id);
  return id_index_.erase(id) > 0;
}

std::vector<std::pair<std::string, int64_t>> RtcMaster::CacheEntries() const {
  return SortedItems(id_tokens_);
}

void RtcMaster::MaybeArmSwap() {
  if (!config_.enable_background_swap || swap_armed_) {
    return;
  }
  double usage = static_cast<double>(pool_.used(Tier::kNpu)) /
                 static_cast<double>(pool_.capacity(Tier::kNpu));
  if (usage < config_.swap_high_watermark) {
    return;
  }
  swap_armed_ = true;
  sim_->ScheduleAfter(config_.swap_interval, [this] {
    swap_armed_ = false;
    SwapScan();
  });
}

void RtcMaster::SwapScan() {
  double usage = static_cast<double>(pool_.used(Tier::kNpu)) /
                 static_cast<double>(pool_.capacity(Tier::kNpu));
  if (usage < config_.swap_high_watermark) {
    return;
  }
  // Demote the coldest unreferenced NPU-only leaf runs to DRAM, then release
  // their NPU copies once the (timed) copy lands. This keeps the synchronous
  // eviction path (EnsureNpuFree pass 1) stocked with droppable blocks.
  int64_t budget = config_.swap_batch_blocks;
  auto swappable = [](const Tree::Node& node) { return !node.value.has_dram; };
  std::vector<Tree::Node*> victims;
  for (Tree::Node* from = tree_.LruFront(); budget > 0;) {
    Tree::Node* victim = tree_.FindLruLeafFrom(from, swappable);
    if (victim == nullptr) {
      break;
    }
    from = Tree::LruNext(victim);
    victims.push_back(victim);
    budget -= static_cast<int64_t>(victim->value.blocks.size());
  }
  for (Tree::Node* victim : victims) {
    stats_.swapped_out_blocks += static_cast<int64_t>(victim->value.blocks.size());
    // Non-null completion: a copy with nothing to move still completes on
    // the next tick, as it always has.
    CopyBlocks(victim->value.blocks, Tier::kDram, /*demote=*/true, [] {});
  }
  MaybeArmSwap();
}

}  // namespace deepserve::rtc
