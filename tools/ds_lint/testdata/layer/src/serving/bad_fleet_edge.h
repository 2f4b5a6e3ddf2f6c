// Layering fixture: the serving layer reaching up into the composition root
// that builds it. fleet sits on top of the DAG; no module may include it.
#ifndef DS_LINT_TESTDATA_LAYER_SERVING_BAD_FLEET_EDGE_H_
#define DS_LINT_TESTDATA_LAYER_SERVING_BAD_FLEET_EDGE_H_

#include "fleet/fleet.h"  // ds-lint-expect: layering-edge
#include "serving/job_executor.h"

namespace deepserve::serving {

struct FleetProbe {
  int jes = 0;
};

}  // namespace deepserve::serving

#endif  // DS_LINT_TESTDATA_LAYER_SERVING_BAD_FLEET_EDGE_H_
