// The lineage-circuit engine lives in engines/lineage_engine.h, next to the
// built-in engine manifest, so that lineage/ includes nothing from
// shapley/. This header stays only for code that still includes the old
// path; it pulls in the lineage telemetry (stats.h) that it used to
// re-export and nothing else.

#ifndef SHAPCQ_LINEAGE_ENGINE_H_
#define SHAPCQ_LINEAGE_ENGINE_H_

#include "shapcq/lineage/stats.h"

#endif  // SHAPCQ_LINEAGE_ENGINE_H_
