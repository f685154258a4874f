// The result record every simulated run produces, and its stable
// serialisations (JSON schema + checkpoint wire layout).
//
// RunResult lives in the engine layer because the SimKernel accumulates it
// across run() segments (the resumable-run contract) and every system
// policy only appends its per-core stats and system counters at the end.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "cpu/ooo_core.hpp"

namespace unsync::ckpt {
class Archive;
}  // namespace unsync::ckpt

namespace unsync::engine {

/// One injected soft-error event as the timing system handled it.
struct ErrorEvent {
  Cycle cycle = 0;          ///< when the strike was handled
  SeqNum position = 0;      ///< commit position it was attached to
  unsigned thread = 0;      ///< which thread / redundancy group
  unsigned struck_core = 0; ///< side within the group (bad core)
  Cycle cost = 0;           ///< stall / penalty cycles charged
  bool rollback = false;    ///< true = re-execution; false = forward recovery

  void visit(ckpt::Archive& ar);
};

struct RunResult {
  std::string system;
  Cycle cycles = 0;                 ///< cycles until every thread finished
  /// Program instructions of the longest thread (for homogeneous runs this
  /// is simply "the" program length).
  std::uint64_t instructions = 0;
  /// Per-thread program lengths (heterogeneous multiprogramming).
  std::vector<std::uint64_t> thread_instructions;
  std::vector<cpu::CoreStats> core_stats;

  std::uint64_t errors_injected = 0;
  std::uint64_t recoveries = 0;       ///< UnSync forward recoveries
  std::uint64_t rollbacks = 0;        ///< Reunion checkpoint rollbacks
  Cycle recovery_cycles_total = 0;

  std::uint64_t cb_full_stalls = 0;   ///< UnSync commit stalls on full CB
  std::uint64_t fingerprint_syncs = 0;///< Reunion serializing synchronisations

  /// Chronological log of every injected error (all systems fill this).
  std::vector<ErrorEvent> error_log;

  /// True when the result came from an approximate model tier (the interval
  /// model); false for the cycle-accurate path. Serialised as both the
  /// "tier" ("fast"/"detailed") and "approximate" JSON keys.
  bool approximate = false;

  /// Per-thread IPC: program instructions over total cycles (a redundant
  /// pair retires the program once even though two cores execute it).
  double thread_ipc() const {
    return cycles ? static_cast<double>(instructions) /
                        static_cast<double>(cycles)
                  : 0.0;
  }

  /// Serialises the result under the stable "unsync.run_result.v2" schema
  /// (see docs/OBSERVABILITY.md). v2 adds the "tier" and "approximate" keys
  /// directly after "system"; all v1 keys are unchanged, so a v1 reader that
  /// ignores unknown keys still parses v2. `indent` = 0 emits the canonical
  /// compact form; > 0 pretty-prints. Byte-identical for identical results.
  std::string to_json(int indent = 0) const;

  /// Checkpoint walk: the "RRES" chunk shared by system checkpoints and
  /// the campaign journal.
  void visit(ckpt::Archive& ar);
};

}  // namespace unsync::engine
