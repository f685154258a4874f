// The shared cycle engine: one canonical simulation loop for every system.
//
// SimKernel owns what used to be duplicated across five bespoke run()
// implementations — the absolute-max_cycles resumable-run contract, the
// cycle cursor, the accumulated RunResult, and quiescence fast-forwarding
// on the hot path. Systems plug in as SystemPolicy objects; see
// docs/ENGINE.md.
//
// Fast-forwarding: when every unfinished group reports a next-event cycle
// T > now, the cycles in [now, T) are provably static — no commit, issue,
// dispatch, fetch, drain or error injection can occur — so the kernel
// replays their deterministic per-cycle counters in closed form
// (SystemPolicy::skip_cycles) and jumps the clock. run() always does this;
// run_naive() ticks every cycle and is kept only as the reference that
// tests/test_engine_parity.cpp holds run() to, at the end of every skip
// window and against pre-refactor goldens.
#pragma once

#include <functional>
#include <utility>

#include "common/types.hpp"
#include "engine/policy.hpp"
#include "engine/run_result.hpp"

namespace unsync::engine {

class SimKernel {
 public:
  /// Runs `policy` until every group is finished or the ABSOLUTE cycle
  /// bound `max_cycles` is reached. Continuable: run(N) followed by run()
  /// yields the same final result, bit for bit, as one uninterrupted run().
  /// Skips every window in which all unfinished groups are quiescent.
  RunResult run(SystemPolicy& policy, Cycle max_cycles);

  /// The reference loop: same contract as run(), but ticks every cycle.
  /// Callers are the parity tests, the golden generator and the engine
  /// throughput bench; production runs use run().
  RunResult run_naive(SystemPolicy& policy, Cycle max_cycles);

  /// Test seam: called by run() after every skip with the window
  /// [from, to) just replayed, the clock already at `to`.
  using SkipObserver = std::function<void(Cycle from, Cycle to)>;
  void set_skip_observer(SkipObserver observer) {
    on_skip_ = std::move(observer);
  }

  Cycle now() const { return now_; }

  /// The result fields accumulated across run() segments. Systems
  /// initialise the identity fields (system name, instruction counts) at
  /// construction and the error path appends to it mid-run.
  RunResult& result() { return acc_; }
  const RunResult& result() const { return acc_; }

  /// Kernel-level checkpoint walk: one chunk tagged policy.ckpt_tag()
  /// holding the cycle cursor, the accumulated result, then the policy
  /// payload (see docs/CHECKPOINTS.md).
  void visit(SystemPolicy& policy, ckpt::Archive& ar);

 private:
  /// One naive cycle: every unfinished group's members, sync and error
  /// phases, then the clock.
  void tick(SystemPolicy& policy, std::size_t groups);
  /// Snapshots the accumulator into the returned result and fires the
  /// policy's finish / on_run_complete hooks.
  RunResult complete(SystemPolicy& policy);

  Cycle now_ = 0;
  RunResult acc_;
  SkipObserver on_skip_;
};

}  // namespace unsync::engine
