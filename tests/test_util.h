// Helpers shared by the test binaries: a small engine preset and synthetic
// requests.
#ifndef DEEPSERVE_TESTS_TEST_UTIL_H_
#define DEEPSERVE_TESTS_TEST_UTIL_H_

#include <cstdint>

#include "common/types.h"
#include "flowserve/engine_config.h"
#include "model/model_spec.h"
#include "workload/request.h"

namespace deepserve {

// A TP1 engine of `role` running `model`; `kv_blocks` > 0 overrides the KV
// block capacity (0 = sized from HBM).
inline flowserve::EngineConfig SmallEngine(
    flowserve::EngineRole role, int64_t kv_blocks = 4096,
    const model::ModelSpec& model = model::ModelSpec::Tiny1B()) {
  flowserve::EngineConfig config;
  config.model = model;
  config.parallelism = {1, 1, 1};
  config.role = role;
  config.kv_block_capacity_override = kv_blocks;
  return config;
}

// A request with a `prefill`-token prompt base, base+1, ... (wrapping every
// `wrap` tokens) and `decode` output tokens. Equal bases share prefixes.
inline workload::RequestSpec MakeRequest(workload::RequestId id, int64_t prefill, int64_t decode,
                                         TokenId base = 700, int64_t wrap = 8000) {
  workload::RequestSpec spec;
  spec.id = id;
  spec.decode_len = decode;
  spec.prompt.reserve(static_cast<size_t>(prefill));
  for (int64_t i = 0; i < prefill; ++i) {
    spec.prompt.push_back(base + static_cast<TokenId>(i % wrap));
  }
  return spec;
}

}  // namespace deepserve

#endif  // DEEPSERVE_TESTS_TEST_UTIL_H_
