#include "engine/sim_kernel.hpp"

#include <algorithm>

namespace unsync::engine {

namespace {
constexpr Cycle kNever = ~Cycle{0};

bool all_done(const SystemPolicy& policy, std::size_t groups) {
  for (std::size_t g = 0; g < groups; ++g) {
    if (!policy.finished(g)) return false;
  }
  return true;
}
}  // namespace

void SimKernel::tick(SystemPolicy& policy, std::size_t groups) {
  for (std::size_t g = 0; g < groups; ++g) {
    if (policy.finished(g)) continue;
    // The kernel — not the policy — owns the member walk: every member
    // of an unfinished group gets its tick in index order, whatever the
    // group's shape (one core, an identical pair, a leader + checker).
    const std::size_t members = policy.member_count(g);
    for (std::size_t m = 0; m < members; ++m) {
      policy.member_tick(g, m, now_);
    }
    policy.sync_phase(g, now_);
    policy.on_error(g, now_, acc_);
  }
  ++now_;
}

RunResult SimKernel::complete(SystemPolicy& policy) {
  RunResult r = acc_;
  r.cycles = now_;
  policy.finish(r);
  policy.on_run_complete(r);
  return r;
}

RunResult SimKernel::run(SystemPolicy& policy, Cycle max_cycles) {
  const std::size_t groups = policy.group_count();
  while (!all_done(policy, groups) && now_ < max_cycles) {
    // A skip is sound only when EVERY unfinished group is quiescent:
    // shared structures (the bus, the L2) stay untouched for the whole
    // window exactly because no group acts during it.
    Cycle target = kNever;
    for (std::size_t g = 0; g < groups && target > now_; ++g) {
      if (policy.finished(g)) continue;
      target = std::min(target, policy.next_event(g, now_));
    }
    target = std::min(target, max_cycles);
    if (target > now_) {
      for (std::size_t g = 0; g < groups; ++g) {
        if (!policy.finished(g)) policy.skip_cycles(g, now_, target);
      }
      const Cycle from = now_;
      now_ = target;
      if (on_skip_) on_skip_(from, target);
      continue;
    }
    tick(policy, groups);
  }
  return complete(policy);
}

RunResult SimKernel::run_naive(SystemPolicy& policy, Cycle max_cycles) {
  const std::size_t groups = policy.group_count();
  while (!all_done(policy, groups) && now_ < max_cycles) tick(policy, groups);
  return complete(policy);
}

}  // namespace unsync::engine
