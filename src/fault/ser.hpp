// Soft-error-rate model.
//
// Reproduces the paper's §VI-C methodology: FIT rates at 180 nm (1000 FIT)
// and 130 nm (100,000 FIT) define an exponential per-node ratio which is
// extrapolated to 90 nm; beyond 65 nm the rate saturates (iRoc data, as the
// paper notes). The paper's quoted operating point — 2.89e-17 errors per
// instruction at 90 nm — and its break-even point (1.29e-3) are exposed as
// named constants for the benches.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"

namespace unsync::fault {

/// The paper's per-instruction SER at the 90 nm node.
inline constexpr double kPaperSerPerInst90nm = 2.89e-17;

/// The hypothetical break-even SER at which UnSync and Reunion deliver equal
/// performance (paper §VI-C).
inline constexpr double kPaperBreakEvenSer = 1.29e-3;

/// FIT (failures per 10^9 device-hours) for a technology node, using the
/// paper's exponential interpolation anchored at 180 nm / 130 nm and
/// saturating at the 65 nm value for smaller nodes.
double fit_for_node(double nm);

/// Converts a FIT rate into a per-cycle error probability at `hz`.
double fit_to_per_cycle(double fit, double hz);

/// Converts a FIT rate into a per-instruction error probability at `hz` and
/// a given average IPC.
double fit_to_per_inst(double fit, double hz, double ipc);

/// Throws std::invalid_argument unless `ser_per_inst` is a per-instruction
/// probability: finite and in [0, 1]. A NaN or infinite rate would make
/// the arrival draw loop without end.
void check_ser(double ser_per_inst);

/// Poisson error-arrival process over an instruction stream: given a
/// per-instruction error probability, draws the ordered sequence numbers at
/// which errors strike within [0, total_insts).
std::vector<SeqNum> sample_error_arrivals(double ser_per_inst,
                                          std::uint64_t total_insts, Rng& rng);

/// The canonical per-thread arrival-schedule setup every redundant system
/// uses (UnSync, Reunion, lockstep, DMR-checkpoint): samples the ordered
/// strike positions for one thread's stream, returning an empty schedule —
/// with the RNG provably untouched, so draw sequences stay reproducible
/// across error-free and error-injecting configurations — when the error
/// process is off (ser_per_inst <= 0) or the stream is empty.
std::vector<SeqNum> schedule_arrivals(double ser_per_inst,
                                      std::uint64_t stream_insts, Rng& rng);

/// Expected number of errors for a run (for tests / sanity output).
inline double expected_errors(double ser_per_inst, std::uint64_t total_insts) {
  return ser_per_inst * static_cast<double>(total_insts);
}

}  // namespace unsync::fault
