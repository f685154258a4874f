// The shared cycle engine: one canonical simulation loop for every system.
//
// SimKernel owns what used to be duplicated across five bespoke run()
// implementations — the absolute-max_cycles resumable-run contract, the
// cycle cursor, the accumulated RunResult, and (new) quiescence
// fast-forwarding on the hot path. Systems plug in as SystemPolicy
// objects; see docs/ENGINE.md.
//
// Fast-forwarding: when every unfinished group reports a next-event cycle
// T > now, the cycles in [now, T) are provably static — no commit, issue,
// dispatch, fetch, drain or error injection can occur — so the kernel
// replays their deterministic per-cycle counters in closed form
// (SystemPolicy::skip_cycles) and jumps the clock. The result is
// bit-identical to the naive loop (tests/test_engine_parity.cpp pins this
// against pre-refactor goldens); only wall-clock time changes.
#pragma once

#include "common/types.hpp"
#include "engine/policy.hpp"
#include "engine/run_result.hpp"

namespace unsync::engine {

class SimKernel {
 public:
  /// Runs `policy` until every group is finished or the ABSOLUTE cycle
  /// bound `max_cycles` is reached. Continuable: run(N) followed by run()
  /// yields the same final result, bit for bit, as one uninterrupted run().
  RunResult run(SystemPolicy& policy, Cycle max_cycles, bool fast_forward);

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
  Cycle now_ = 0;
  RunResult acc_;
};

}  // namespace unsync::engine
