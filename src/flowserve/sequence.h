// Per-request sequence state inside a FlowServe engine.
#ifndef DEEPSERVE_FLOWSERVE_SEQUENCE_H_
#define DEEPSERVE_FLOWSERVE_SEQUENCE_H_

#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "rtc/block_pool.h"
#include "rtc/radix_tree.h"
#include "workload/request.h"

namespace deepserve::flowserve {

// A request as the JE hands it to a TE: copied once per dispatch into an
// immutable shared buffer, with its prompt's block-key chain hashed once.
// The engines it reaches — both TEs of a PD pair — hold these two pointers
// instead of copies. `keys` may be null or cut at another block size; the
// engine's RTC then hashes the prompt itself, once per sequence.
struct RequestRef {
  workload::SharedRequest spec;
  rtc::SharedBlockKeys keys;

  // The direct-caller path: one copy of `spec`, keys left to the RTC.
  static RequestRef Copy(const workload::RequestSpec& spec) {
    return {std::make_shared<const workload::RequestSpec>(spec), nullptr};
  }
};

enum class SeqState {
  kTokenizing,       // in the tokenizer module
  kWaitingPopulate,  // async KV prefetch in flight (§4.2)
  kQueued,           // ready for the sched-loop to admit
  kPrefilling,       // (chunked) prefill in progress
  kAwaitingKvSend,   // prefill-only TE: KV hand-off to decode TE in flight
  kDecoding,
  kFinished,
};

std::string_view SeqStateToString(SeqState state);

struct Sequence {
  // Per-engine serial, unique for the engine's lifetime (1, 2, ...). Deferred
  // engine callbacks validate liveness by serial: a freed Sequence's address
  // is soon reused by the next one, so a raw pointer cannot tell them apart.
  uint64_t serial = 0;
  workload::RequestId request_id = 0;
  RequestRef request;  // shared, never copied per engine (see RequestRef)
  int64_t decode_target = 0;
  std::string context_id;  // explicit-cache id ("" = implicit only)
  int priority = 1;        // 0 = interactive, 1 = normal, 2 = batch
  TimeNs deadline = 0;     // absolute completion deadline; 0 = none

  SeqState state = SeqState::kTokenizing;

  // Progress. `prefilled` counts context tokens with KV on this engine's NPUs
  // (including reused cache); `generated` counts output tokens. After a
  // preemption the KV is recomputed, so `prefill_target` grows to cover the
  // already-generated suffix as well.
  int64_t reused_tokens = 0;
  int64_t prefilled = 0;
  int64_t prefill_target = 0;
  int64_t generated = 0;

  // KV blocks pinned by this sequence (reused + privately allocated).
  std::vector<rtc::BlockId> blocks;
  // Position-independent reuse: pinned source blocks and the tokens they
  // cover. PIC reuse discounts prefill compute but the sequence still writes
  // its own (position-adjusted) KV into `blocks`.
  std::vector<rtc::BlockId> pic_blocks;
  int64_t pic_tokens = 0;
  // How many tokens of KV capacity `blocks` covers.
  int64_t block_tokens = 0;

  int dp_group = 0;
  int micro_batch = -1;  // PP home micro-batch (once admitted)

  TimeNs arrival = 0;           // request arrival (workload clock)
  TimeNs submit_time = 0;       // handed to this engine
  TimeNs enqueue_time = 0;      // entered the ready queue
  TimeNs first_token_time = 0;  // end of prefill
  TimeNs finish_time = 0;

  // Fired once when the first token is produced, and once on termination:
  // exactly one of on_complete (success) or on_error (shed / deadline
  // exceeded) runs for every accepted sequence.
  std::function<void(const Sequence&)> on_first_token;
  std::function<void(const Sequence&)> on_complete;
  std::function<void(const Sequence&, const Status&)> on_error;

  std::span<const TokenId> prompt() const { return request.spec->prompt; }
  int64_t prompt_len() const { return static_cast<int64_t>(prompt().size()); }
  // Context the KV cache must hold: processed prefix plus generated tokens
  // not already covered by a (post-preemption) recompute target.
  int64_t context_len() const {
    return prefilled + generated - (prefill_target - prompt_len());
  }
  bool prefill_done() const { return prefilled >= prefill_target; }
  bool decode_done() const { return generated >= decode_target; }
};

using SequencePtr = std::unique_ptr<Sequence>;

}  // namespace deepserve::flowserve

#endif  // DEEPSERVE_FLOWSERVE_SEQUENCE_H_
