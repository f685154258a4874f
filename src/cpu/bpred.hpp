// Gshare branch predictor.
//
// Used when a workload stream does not carry misprediction hints (recorded
// URISC traces): the core predicts from (pc, outcome history) and charges
// the refill penalty itself on a wrong prediction.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace unsync::ckpt {
class Archive;
}  // namespace unsync::ckpt

namespace unsync::cpu {

class GsharePredictor {
 public:
  /// `table_bits` counters of 2 bits each; history length equals table_bits.
  explicit GsharePredictor(unsigned table_bits = 12);

  bool predict(Addr pc) const;

  /// Updates the counter and the global history with the real outcome.
  void update(Addr pc, bool taken);

  /// Convenience: predict, update, and report whether it was wrong.
  bool mispredicted(Addr pc, bool taken);

  std::uint64_t lookups() const { return lookups_; }
  std::uint64_t wrong() const { return wrong_; }
  double mispredict_rate() const {
    return lookups_ ? static_cast<double>(wrong_) / static_cast<double>(lookups_)
                    : 0.0;
  }

  /// Checkpoint walk: counter table, global history, and statistics.
  /// Table size must match the saved instance.
  void visit(ckpt::Archive& ar);

 private:
  std::size_t index(Addr pc) const;

  unsigned bits_;
  std::vector<std::uint8_t> counters_;  // 2-bit saturating, init weakly taken
  std::uint64_t history_ = 0;
  std::uint64_t lookups_ = 0;
  std::uint64_t wrong_ = 0;
};

}  // namespace unsync::cpu
