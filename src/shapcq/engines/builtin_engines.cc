// The composition root of the engine layers: the manifest of built-in
// engines behind EngineRegistry::Global(). It sits above shapley/ (the
// frontier DPs, closed forms and group driver) and lineage/ (circuits,
// their cache and lineage extraction), and holds the lineage-circuit
// engine that joins the two (lineage_engine.h), so lineage/ includes
// nothing from shapley/.

#include "shapcq/engines/lineage_engine.h"
#include "shapcq/shapley/avg_quantile.h"
#include "shapcq/shapley/closed_forms.h"
#include "shapcq/shapley/count_distinct.h"
#include "shapcq/shapley/engine_registry.h"
#include "shapcq/shapley/has_duplicates.h"
#include "shapcq/shapley/min_max.h"
#include "shapcq/shapley/special_cases.h"
#include "shapcq/shapley/sum_count.h"

namespace shapcq {

EngineRegistry& EngineRegistry::Global() {
  // Adding an engine means registering it here (or from user code via
  // Register); the solver façade never changes.
  static EngineRegistry* registry = [] {
    auto* r = new EngineRegistry();
    RegisterClosedFormEngines(*r);
    RegisterSumCountEngine(*r);
    RegisterMinMaxEngine(*r);
    RegisterCountDistinctEngines(*r);
    RegisterAvgQuantileEngine(*r);
    RegisterGatedProductEngine(*r);
    RegisterHasDuplicatesEngine(*r);
    // The knowledge-compilation engine for the hard side of the frontier:
    // slots after every frontier DP and before the brute-force / Monte
    // Carlo fallback (priority 60).
    RegisterLineageCircuitEngine(*r);
    return r;
  }();
  return *registry;
}

}  // namespace shapcq
