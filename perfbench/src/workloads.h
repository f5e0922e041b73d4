// The benchmark's workloads. Each one sets up from the run seed, runs whole
// rounds of a fixed operation sequence until the run's time is up, checks
// every output, and fills the report.
#pragma once

#include "common.h"

namespace perfbench {

/// The paper's experiment: a seeded high-granularity corpus against every
/// device algorithm on the simulated Pascal GPU.
void RunPaperSweep(const RunConfig& config, Tracer* tracer, Report& report);

/// Closed-loop traffic through the sharded solve service, with streaming
/// updates and registry eviction.
void RunServeMixed(const RunConfig& config, Tracer* tracer, Report& report);

/// Partitioned fleet solves with seeded device kills and recovery.
void RunFleetFailover(const RunConfig& config, Tracer* tracer, Report& report);

}  // namespace perfbench
