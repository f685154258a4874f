// SimModel: the simulation-model interface core::System implements.
//
// Every run is cycle-accurate: core::System's cycle loop driving one of
// the six architectures. Bit-exact, resumable and checkpointable.
//
// Contract notes:
//   - run() is resumable: max_cycles is an absolute bound, so run(N) then
//     run() equals run().
#pragma once

#include <string>

#include "common/types.hpp"
#include "engine/run_result.hpp"

namespace unsync::obs {
class MetricsRegistry;
class TraceSink;
}  // namespace unsync::obs

namespace unsync::engine {

/// A simulation model: anything that turns a configured (system, workload,
/// fault schedule) cell into a RunResult.
class SimModel {
 public:
  virtual ~SimModel() = default;

  /// Runs (or resumes) the simulation up to the absolute cycle max_cycles
  /// and returns the accumulated result.
  virtual RunResult run(Cycle max_cycles = ~Cycle{0}) = 0;

  /// Human-readable architecture name ("unsync", "reunion", ...).
  virtual const std::string& name() const = 0;

  /// Attaches (or detaches, with nullptr) observability sinks. Metrics are
  /// published when a run completes.
  virtual void set_observability(obs::MetricsRegistry* metrics,
                                 obs::TraceSink* trace) = 0;
};

}  // namespace unsync::engine
