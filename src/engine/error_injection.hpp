// Shared error-injection plumbing for system policies.
//
// Every redundant system consumes a per-group Poisson arrival schedule the
// same way: an error "strikes" when program progress (the leading core's
// commit watermark) crosses the next scheduled position, and handling it
// bumps the same RunResult counters and emits the same trace pair
// (kErrorInjection + kRecovery/kRollback). ArrivalCursor and record_error
// hoist that pattern out of the per-system duplicates; the systems keep
// only what genuinely differs — recovery-cost models and core
// forward/rollback mechanics.
#pragma once

#include <cstdint>
#include <vector>

#include "ckpt/archive.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "engine/run_result.hpp"
#include "obs/trace.hpp"

namespace unsync::engine {

/// One group's ordered error-arrival schedule plus its consumption cursor.
/// The schedule itself is re-derived deterministically at construction from
/// (seed, ser_per_inst, stream length); only the cursor is checkpoint state.
struct ArrivalCursor {
  std::vector<SeqNum> positions;  ///< ascending commit positions
  std::size_t next = 0;

  /// True when the next scheduled strike has been reached by `progress`.
  bool pending(SeqNum progress) const {
    return next < positions.size() && progress >= positions[next];
  }

  /// Consumes and returns the next arrival position.
  SeqNum take() { return positions[next++]; }

  /// Checkpoint walk: the schedule length (pinned — construction re-derives
  /// the positions) and the cursor. `mismatch` is the load error message.
  void visit(ckpt::Archive& ar, const char* mismatch) {
    ar.expect(positions.size(), mismatch);
    ar.u64(next);
  }

  /// Fault-channel walk: the positions themselves plus the cursor, so a
  /// schedule sampled under one configuration can be installed into a
  /// system constructed with a *different* (golden, ser=0) configuration
  /// whose own schedule is empty.
  void visit_schedule(ckpt::Archive& ar) {
    ar.u64s(positions);
    ar.u64(next);
    if (next > positions.size()) {
      throw ckpt::CkptError("arrival-schedule cursor out of range");
    }
  }
};

/// The prefix-sharing fault channel: the RNG that draws strike sides and
/// one arrival cursor per group. Its walk — the RNG words, then every
/// group's full schedule — is the one behind both a system's channel
/// (core::System::fault_channel_bytes / install_fault_channel) and the
/// campaign layer's out-of-band computation of a job's channel. Systems
/// without an error process (the baseline) have no RNG: an empty channel.
struct FaultSources {
  Rng* rng = nullptr;
  std::vector<ArrivalCursor*> arrivals;
  const char* count_mismatch = "";  ///< load error: group count differs

  void visit(ckpt::Archive& ar) const {
    if (rng == nullptr) return;
    ar.rng(*rng);
    ar.expect(arrivals.size(), count_mismatch);
    for (ArrivalCursor* c : arrivals) c->visit_schedule(ar);
  }
};

/// Applies the common accounting for one handled error: result counters
/// (recoveries vs rollbacks keyed on e.rollback), the chronological error
/// log, and the kErrorInjection + kRecovery/kRollback trace pair.
/// `resume_seq` is the position execution resumes from (the strike position
/// for forward recovery, the rollback target for re-execution schemes).
inline void record_error(RunResult& acc, const obs::Tracer& tracer,
                         const ErrorEvent& e, SeqNum resume_seq) {
  ++acc.errors_injected;
  if (e.rollback) {
    ++acc.rollbacks;
  } else {
    ++acc.recoveries;
  }
  acc.recovery_cycles_total += e.cost;
  acc.error_log.push_back(e);
  if (tracer.enabled()) {
    tracer.emit({.kind = obs::TraceKind::kErrorInjection,
                 .cycle = e.cycle,
                 .thread = e.thread,
                 .core = e.struck_core,
                 .seq = e.position,
                 .addr = 0,
                 .value = 0});
    tracer.emit({.kind = e.rollback ? obs::TraceKind::kRollback
                                    : obs::TraceKind::kRecovery,
                 .cycle = e.cycle,
                 .thread = e.thread,
                 .core = e.struck_core,
                 .seq = resume_seq,
                 .addr = 0,
                 .value = e.cost});
  }
}

}  // namespace unsync::engine
