#include "mem/bus.hpp"

#include <algorithm>

namespace unsync::mem {

Cycle Bus::acquire(Cycle now, Cycle hold) {
  const Cycle grant = std::max(now, next_free_);
  next_free_ = grant + hold;
  busy_cycles_ += hold;
  ++transactions_;
  if (avf_) avf_->add(grant + hold - now);
  return grant;
}

void Bus::reset() {
  next_free_ = 0;
  busy_cycles_ = 0;
  transactions_ = 0;
}

}  // namespace unsync::mem
