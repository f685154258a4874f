#include "fault/ser.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace unsync::fault {

double fit_for_node(double nm) {
  assert(nm > 0);
  // Anchors from the paper: 1000 FIT @180nm, 100000 FIT @130nm. The rate
  // grows exponentially as feature size shrinks:
  //   FIT(nm) = A * exp(-k * nm),  fitted through both anchors.
  constexpr double kNm180 = 180.0, kFit180 = 1000.0;
  constexpr double kNm130 = 130.0, kFit130 = 100000.0;
  static const double k =
      std::log(kFit130 / kFit180) / (kNm180 - kNm130);  // per-nm growth
  static const double a = kFit180 * std::exp(k * kNm180);
  // Saturation beyond 65 nm (iRoc observation quoted in the paper).
  const double clamped_nm = std::max(nm, 65.0);
  return a * std::exp(-k * clamped_nm);
}

double fit_to_per_cycle(double fit, double hz) {
  // FIT = failures per 1e9 hours; hours per cycle = 1 / (3600 * hz).
  return fit / 1e9 / 3600.0 / hz;
}

double fit_to_per_inst(double fit, double hz, double ipc) {
  assert(ipc > 0);
  return fit_to_per_cycle(fit, hz) / ipc;
}

void check_ser(double ser_per_inst) {
  // NaN fails both comparisons; infinity fails the upper bound.
  if (ser_per_inst >= 0.0 && ser_per_inst <= 1.0) return;
  std::ostringstream got;
  got << ser_per_inst;
  throw std::invalid_argument(
      "ser must be a per-instruction probability in [0, 1], got " +
      got.str());
}

std::vector<SeqNum> sample_error_arrivals(double ser_per_inst,
                                          std::uint64_t total_insts,
                                          Rng& rng) {
  std::vector<SeqNum> arrivals;
  if (ser_per_inst <= 0.0 || total_insts == 0) return arrivals;
  // Exponential inter-arrival in instruction counts.
  double pos = 0.0;
  const double limit = static_cast<double>(total_insts);
  while (true) {
    pos += rng.exponential(ser_per_inst);
    if (pos >= limit) break;
    arrivals.push_back(static_cast<SeqNum>(pos));
  }
  return arrivals;
}

std::vector<SeqNum> schedule_arrivals(double ser_per_inst,
                                      std::uint64_t stream_insts, Rng& rng) {
  if (ser_per_inst <= 0.0 || stream_insts == 0) return {};
  return sample_error_arrivals(ser_per_inst, stream_insts, rng);
}

}  // namespace unsync::fault
