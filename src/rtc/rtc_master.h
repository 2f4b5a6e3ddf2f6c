// Relational Tensor Cache (RTC) master module (§4.3, Table 1).
//
// RTC unifies caching and memory management for the KV cache. The master
// (this class) owns all indexing and placement decisions:
//   * a block pool with per-tier (NPU / DRAM / SSD) capacity accounting;
//   * a hybrid index: radix tree over block-key chains (implicit prefix
//     caching) + an explicit ID index (DeepServe's context-caching endpoint);
//   * the populate path that fetches preserved KV back into the NPU;
//   * LRU eviction and a background swapper that demotes cold blocks down
//     the tier hierarchy so the synchronous allocation path stays fast.
// Per-NPU RtcExecutors mirror the master's NPU-block decisions onto their
// devices (master-executor SPMD, §4.1). Actual transfer *timing* is
// delegated to an injected TransferFn, which FlowServe wires to DistFlow.
#ifndef DEEPSERVE_RTC_RTC_MASTER_H_
#define DEEPSERVE_RTC_RTC_MASTER_H_

#include <functional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/time_units.h"
#include "common/types.h"
#include "rtc/block_pool.h"
#include "rtc/radix_tree.h"
#include "sim/simulator.h"

namespace deepserve::rtc {

// Result of MatchByPrefixToken / MatchByID: which preserved blocks cover the
// request, and where they live. `npu_tokens` counts the leading contiguous
// run already NPU-resident; everything after it needs a Populate.
struct MatchInfo {
  int64_t matched_tokens = 0;
  int64_t npu_tokens = 0;
  int64_t offnpu_tokens = 0;
  std::vector<BlockId> blocks;

  bool hit() const { return matched_tokens > 0; }
  bool needs_populate() const { return offnpu_tokens > 0; }
};

using PopulateTicket = uint64_t;
enum class PopulateState { kUnknown, kInFlight, kReady };

// Position-independent match (EPIC-style, §4.3): cached blocks found by
// content anywhere in the prompt beyond the prefix-matched region. Reusing
// them requires recomputing a small boundary fraction, so the engine treats
// PIC reuse as a prefill-compute discount rather than skipped tokens.
struct PicMatch {
  int64_t matched_tokens = 0;
  std::vector<BlockId> blocks;
};

// (src tier, dst tier, bytes, completion). Installed by the engine; defaults
// to immediate completion so RTC unit-tests need no transfer fabric.
using TransferFn = std::function<void(Tier, Tier, Bytes, std::function<void()>)>;

// Mirrors master NPU-block deltas onto a device (see RtcExecutor).
class NpuBlockListener {
 public:
  virtual ~NpuBlockListener() = default;
  virtual void OnNpuBlocksChanged(int64_t delta_blocks) = 0;
};

struct RtcConfig {
  int block_size = 16;  // tokens per KV block
  BlockPoolConfig pool;
  // Bytes of one block across the whole instance (all layers, all TP ranks);
  // sizes populate/swap transfers.
  Bytes bytes_per_block = 512 * 1024;
  bool enable_prefix_caching = true;
  // Position-independent caching (content-hash index alongside the tree).
  bool enable_pic = false;
  bool enable_background_swap = true;
  DurationNs swap_interval = MsToNs(50);
  // Start demoting NPU->DRAM above this NPU-block usage fraction.
  double swap_high_watermark = 0.85;
  // Demote at most this many blocks per swap scan.
  int64_t swap_batch_blocks = 64;
};

struct RtcStats {
  int64_t match_hits = 0;
  int64_t match_misses = 0;
  int64_t matched_tokens = 0;
  int64_t requested_tokens = 0;
  int64_t pic_hits = 0;
  int64_t pic_matched_tokens = 0;
  int64_t populates = 0;
  int64_t populated_blocks = 0;
  int64_t evicted_blocks = 0;    // NPU residency drops under pressure
  int64_t discarded_blocks = 0;  // cache entries lost entirely
  int64_t swapped_out_blocks = 0;
  // Deterministic work counter: leaves the radix tree's LRU index examined
  // (victim walks plus re-link positioning). Not exported as a metric.
  int64_t lru_leaves_examined = 0;
  // Deterministic work counter: full-prompt key chains computed here because
  // the caller handed in none cut at this cache's block size (0 when every
  // request arrives through the JE). Not exported as a metric.
  int64_t prompt_hashes = 0;

  double TokenHitRate() const {
    return requested_tokens > 0
               ? static_cast<double>(matched_tokens) / static_cast<double>(requested_tokens)
               : 0.0;
  }
};

class RtcMaster {
 public:
  RtcMaster(sim::Simulator* sim, RtcConfig config);

  RtcMaster(const RtcMaster&) = delete;
  RtcMaster& operator=(const RtcMaster&) = delete;

  void SetTransferFn(TransferFn fn) { transfer_ = std::move(fn); }
  void AddListener(NpuBlockListener* listener) { listeners_.push_back(listener); }
  void ClearListeners() { listeners_.clear(); }

  // ---- Table 1: match APIs -------------------------------------------------
  // `keys`, when given and cut at this cache's block size, is the prompt's
  // key chain; otherwise the prompt is hashed here (RtcStats::prompt_hashes).
  // The same holds for Preserve and PreserveById.
  MatchInfo MatchByPrefixToken(std::span<const TokenId> prompt,
                               const SharedBlockKeys& keys = nullptr);
  MatchInfo MatchByID(const std::string& id);

  // Position-independent lookup over the prompt's full blocks starting at
  // `skip_tokens` (the prefix-matched region). Only NPU-resident cached
  // blocks are returned (off-NPU PIC fetches are not worth their transfer).
  PicMatch MatchPositionIndependent(std::span<const TokenId> prompt, int64_t skip_tokens);

  // ---- Table 1: populate ---------------------------------------------------
  // Starts fetching `info`'s off-NPU blocks into the NPU (async). The blocks
  // must be held (Acquire) first; each fetched block also carries a transfer
  // pin until it lands, so eviction cannot race the fetch.
  [[nodiscard]] Result<PopulateTicket> Populate(const MatchInfo& info);
  PopulateState QueryPopulate(PopulateTicket ticket) const;
  // Registers a one-shot callback fired when the ticket becomes ready (fires
  // immediately if it already is). This is how the sched-enqueue thread
  // "marks the request as ready" (§4.2) without polling.
  void OnPopulateReady(PopulateTicket ticket, std::function<void()> callback);

  // Truncates a match to at most `max_tokens` (block-aligned), recomputing
  // the NPU-resident prefix split. Used when the populate cost model rejects
  // fetching the off-NPU tail.
  MatchInfo TruncateMatch(const MatchInfo& info, int64_t max_tokens) const;

  // ---- Table 1: block APIs -------------------------------------------------
  // Per-block state (refs, transfer pins, residency, key, index node) lives
  // on the block's BlockInfo record; there is no side table to probe.
  // Holds matched blocks for a sequence (one ref each).
  void Acquire(std::span<const BlockId> blocks);
  // Appends n fresh NPU blocks to `out` (a sequence's block table), evicting
  // cold cache as needed. All or nothing: on failure `out` is untouched.
  [[nodiscard]] Status AllocBlocks(int64_t n, std::vector<BlockId>* out);
  // Appends one more NPU block for a decoding sequence: AllocBlocks(1, out).
  [[nodiscard]] Status AppendBlock(std::vector<BlockId>* out) { return AllocBlocks(1, out); }
  // Copies blocks to `dst` (timed through the TransferFn); used by explicit
  // checkpointing and by the background swapper. Each copied block carries a
  // transfer pin until the copy lands.
  void Copy(std::span<const BlockId> blocks, Tier dst, std::function<void()> on_complete);
  // Releases a sequence's refs. Cached blocks stay preserved; private ones
  // die (and with them any transfer pin still on them).
  void Free(std::span<const BlockId> blocks);

  // ---- preservation (cache commit) ----------------------------------------
  // Implicit prefix caching: indexes the sequence's full blocks under the
  // radix tree so future prompts can reuse them. `blocks` must cover at
  // least tokens.size()/block_size entries. Duplicate spans (e.g. two
  // concurrent identical prefills) keep the first commit; later private
  // duplicates simply die on Free.
  void Preserve(std::span<const TokenId> tokens, std::span<const BlockId> blocks,
                const SharedBlockKeys& keys = nullptr);
  // Explicit context caching: additionally registers the prefix under `id`.
  [[nodiscard]] Status PreserveById(const std::string& id, std::span<const TokenId> tokens,
                                    std::span<const BlockId> blocks,
                                    const SharedBlockKeys& keys = nullptr);
  // `keys` when it was cut at this cache's block size, else the chain of
  // `tokens` computed here: a sequence calls this once and hands the result
  // to its match and preserve calls.
  SharedBlockKeys KeysFor(std::span<const TokenId> tokens, SharedBlockKeys keys);
  bool DropById(const std::string& id);

  // ---- introspection -------------------------------------------------------
  const RtcConfig& config() const { return config_; }
  const RtcStats& stats() const { return stats_; }
  const BlockPool& pool() const { return pool_; }
  int64_t npu_blocks_used() const { return pool_.used(Tier::kNpu); }
  int64_t npu_blocks_free() const { return pool_.free_blocks(Tier::kNpu); }
  // Live blocks held by an in-flight populate or copy; 0 once the simulator
  // has drained.
  int64_t pinned_blocks() const { return pool_.pinned_blocks(); }
  size_t index_nodes() const { return tree_.NodeCount(); }
  // The prefix index itself, read-only (audits and tests).
  const CacheTree& index() const { return tree_; }
  // Deterministic snapshot of the explicit context cache: (id, cached token
  // count) sorted by id. The backing index is an unordered_map, so callers
  // (dumps, audits, tests) must come through this sorted view rather than
  // iterate it directly — see common/sorted_view.h and ds_lint rule
  // `unordered-iter`.
  std::vector<std::pair<std::string, int64_t>> CacheEntries() const;

  // Frees at least `n` NPU block slots by demoting/discarding cold cache.
  [[nodiscard]] Status EnsureNpuFree(int64_t n);

 private:
  using Tree = CacheTree;

  // The match over `blocks` with its NPU-resident prefix split out, or a
  // miss (no blocks, no tokens) when one of them no longer exists.
  MatchInfo BuildMatchInfo(std::vector<BlockId> blocks, int64_t matched_tokens) const;
  // Lazily registers this cache's trace track; -1 when tracing is disabled.
  int TracePid();
  void CommitBlocks(std::span<const TokenId> tokens, std::span<const BlockKey> keys,
                    std::span<const BlockId> blocks);
  void SyncListeners();
  void MaybeArmSwap();
  void SwapScan();
  // Recomputes a node's eviction candidacy and classes from its blocks'
  // ref counts, transfer pins and residency (BlockRun,
  // RadixTree::SetEvictable). Every ref-count, pin and residency change of a
  // cached block calls this.
  void Refresh(Tree::Node* node);
  // Refresh() for the index nodes holding `blocks` (blocks that no longer
  // exist or are private are skipped).
  void RefreshOwners(std::span<const BlockId> blocks);
  // Releases one transfer pin per block (no Refresh); blocks destroyed
  // mid-transfer are skipped.
  void Unpin(std::span<const BlockId> blocks);
  // Copy(); with `demote` (background swap-out), the NPU copy of every block
  // that landed and is still unreferenced is dropped when the copy lands.
  void CopyBlocks(std::span<const BlockId> blocks, Tier dst, bool demote,
                  std::function<void()> on_complete);
  Tier LowestTierBelowNpu(const BlockInfo& info) const;

  sim::Simulator* sim_;
  RtcConfig config_;
  BlockPool pool_;
  Tree tree_;
  std::unordered_map<std::string, std::vector<BlockId>> id_index_;
  std::unordered_map<std::string, int64_t> id_tokens_;
  // Content-hash (position-independent) index; stale entries from evicted
  // blocks are pruned lazily on lookup.
  std::unordered_map<BlockKey, BlockId> pic_index_;
  TransferFn transfer_;
  std::vector<NpuBlockListener*> listeners_;

  PopulateTicket next_ticket_ = 1;
  std::unordered_map<PopulateTicket, int> inflight_populates_;  // remaining groups
  std::unordered_map<PopulateTicket, std::function<void()>> populate_callbacks_;

  RtcStats stats_;
  int64_t last_npu_used_ = 0;
  bool swap_armed_ = false;
  int trace_pid_ = -1;
};

}  // namespace deepserve::rtc

#endif  // DEEPSERVE_RTC_RTC_MASTER_H_
