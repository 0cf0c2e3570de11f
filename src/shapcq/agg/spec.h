// Textual specs for aggregates and value functions.
//
// One small grammar shared by every text-facing entry point — the CLI
// (examples/shapcq_cli.cc), the daemon's request protocol
// (serve/protocol.h), and the journal replay harness — so a request means
// the same thing everywhere and round-trips through the journal:
//
//   aggregates      : sum count cdist min max avg median qnt:<a>/<b> dup
//   value functions : id:<i>  relu:<i>  gt:<i>:<b>  const:<c>   (1-based i)
//                     plus:<i>,<j>,...  maxof:<i>,...  minof:<i>,...
//                     (the Section 7.3 monoid folds t[i] ⊗ t[j] ⊗ ...)
//
// Only the parameter-derived τ constructors are reachable from text —
// exactly the ones with canonical fingerprints, so every text-built
// AggregateQuery is PlanCache-shareable.

#ifndef SHAPCQ_AGG_SPEC_H_
#define SHAPCQ_AGG_SPEC_H_

#include <string>

#include "shapcq/agg/aggregate.h"
#include "shapcq/agg/value_function.h"
#include "shapcq/util/status.h"

namespace shapcq {

// Parses an aggregate spec ("sum", "qnt:1/3", ...). INVALID_ARGUMENT on
// anything else.
StatusOr<AggregateFunction> ParseAggregateSpec(const std::string& text);

// Parses a value-function spec ("id:2", "gt:1:40000", "plus:1,2", ...).
// Head indexes are 1-based in the text and 0-based in the constructors.
StatusOr<ValueFunctionPtr> ParseTauSpec(const std::string& text);

}  // namespace shapcq

#endif  // SHAPCQ_AGG_SPEC_H_
