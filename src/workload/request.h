// The logical inference request exchanged between the workload generators,
// the DeepServe platform, and the FlowServe engines.
#ifndef DEEPSERVE_WORKLOAD_REQUEST_H_
#define DEEPSERVE_WORKLOAD_REQUEST_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/types.h"

namespace deepserve::workload {

using RequestId = uint64_t;

struct RequestSpec {
  RequestId id = 0;
  TimeNs arrival = 0;
  // Prompt token ids (already tokenized; examples drive the Tokenizer).
  std::vector<TokenId> prompt;
  // Ground-truth number of output tokens this request will generate. The
  // scheduler must NOT read this directly — it sees it only through a
  // DecodeLengthPredictor (§5.3.2).
  int64_t decode_len = 0;
  // Optional explicit context-caching id (RTC MatchByID path); empty = none.
  std::string context_id;
  // Multi-tenant service class: 0 = interactive (jumps queues), 1 = normal,
  // 2 = batch/background. Schedulers admit lower values first.
  int priority = 1;
  // Absolute completion deadline (sim clock); 0 = none. Threaded from
  // ChatRequest.deadline down to the engine scheduler, where deadline-aware
  // policies use it for EDF ordering and shed decisions.
  TimeNs deadline = 0;

  int64_t prefill_len() const { return static_cast<int64_t>(prompt.size()); }
};

// One dispatch's immutable copy of a request, prompt included. The JE makes
// it once per dispatch; the control log's job record, the leader's and the
// standby's job tables and every engine the request reaches share it
// instead of copying the prompt.
using SharedRequest = std::shared_ptr<const RequestSpec>;

}  // namespace deepserve::workload

#endif  // DEEPSERVE_WORKLOAD_REQUEST_H_
