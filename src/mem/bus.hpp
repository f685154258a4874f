// A shared bus modelled as a single serially-granted resource.
//
// acquire(now, hold) returns the grant cycle — the first cycle at or after
// `now` when the bus is free — and reserves it for `hold` cycles. This
// first-come-first-served reservation discipline is how both the L1<->L2
// interconnect contention and the Communication-Buffer drain arbitration
// ("as and when the L1-L2 data bus is free", paper §III-A) are modelled.
#pragma once

#include <cstdint>

#include "common/types.hpp"
#include "fault/avf.hpp"

namespace unsync::ckpt {
class Archive;
}  // namespace unsync::ckpt

namespace unsync::mem {

class Bus {
 public:
  /// Reserves the bus for [grant, grant+hold) and returns grant.
  Cycle acquire(Cycle now, Cycle hold);

  /// Attaches an ACE residency tracker (fault/avf.hpp): each transaction's
  /// queue-occupancy window [now, grant+hold) is charged as entry-cycles.
  /// Observation only — never perturbs grant timing. Null detaches.
  void set_avf(fault::ResidencyTracker* avf) { avf_ = avf; }

  /// True when the bus would grant immediately at `now`.
  bool free_at(Cycle now) const { return next_free_ <= now; }

  Cycle next_free() const { return next_free_; }

  /// Total cycles the bus has been held (utilisation accounting).
  Cycle busy_cycles() const { return busy_cycles_; }
  std::uint64_t transactions() const { return transactions_; }

  void reset();

  /// Checkpoint walk: reservation horizon and utilisation counters.
  void visit(ckpt::Archive& ar);

 private:
  Cycle next_free_ = 0;
  Cycle busy_cycles_ = 0;
  std::uint64_t transactions_ = 0;
  fault::ResidencyTracker* avf_ = nullptr;  // observability; not checkpointed
};

}  // namespace unsync::mem
