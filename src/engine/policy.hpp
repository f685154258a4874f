// The policy interface a simulated system implements to be driven by the
// SimKernel (see docs/ENGINE.md for the full contract).
//
// A system is a set of redundancy *groups*, and a group is an ordered list
// of *members* — one simulated core plus whatever per-core structure the
// system couples to it (an UnSync Communication Buffer, a hetero-checker
// log cursor). Members need not be identical: the heterogeneous checker
// system pairs a big out-of-order leader with a small in-order checker in
// the same group. The kernel owns the cycle loop; the policy supplies the
// per-member and per-group phases:
//
//   member_tick — advance one member by one cycle (self-gating: a member
//                 whose core has drained simply does nothing)
//   sync_phase  — system-specific compare/drain work (UnSync CB drain,
//                 checker-log comparison)
//   on_error    — consume the group's error-arrival schedule
//   member_finished / finished — per-member and group termination
//
// plus the fast-forward hooks (next_event / skip_cycles, with per-member
// defaults), the result finaliser (finish / on_run_complete) and the
// checkpoint body (ckpt_tag / visit_policy_state).
#pragma once

#include <cstddef>

#include "common/types.hpp"
#include "engine/run_result.hpp"

namespace unsync::ckpt {
class Archive;
}  // namespace unsync::ckpt

namespace unsync::engine {

class SystemPolicy {
 public:
  virtual ~SystemPolicy() = default;

  /// Number of redundancy groups. Must stay constant for the lifetime of
  /// the system (the kernel iterates groups in index order every cycle).
  virtual std::size_t group_count() const = 0;

  /// Number of members in group `g` (baseline: 1; the DMR systems: 2;
  /// UnSync: the configured group size). Must stay constant per group.
  virtual std::size_t member_count(std::size_t g) const = 0;

  /// True when member `m` of group `g` has retired its stream and drained
  /// every per-member structure the system tracks for it (CB contents,
  /// un-consumed log entries, ...).
  virtual bool member_finished(std::size_t g, std::size_t m) const = 0;

  /// Advance member `m` of group `g` by one cycle. The kernel calls this
  /// for every member of an unfinished group, in member-index order, so
  /// implementations self-gate (a drained core ignores the tick).
  virtual void member_tick(std::size_t g, std::size_t m, Cycle now) = 0;

  /// True when group `g` has retired its whole stream and drained every
  /// structure the system tracks for it. A finished group receives no
  /// further phase calls. Default: every member is finished.
  virtual bool finished(std::size_t g) const {
    const std::size_t members = member_count(g);
    for (std::size_t m = 0; m < members; ++m) {
      if (!member_finished(g, m)) return false;
    }
    return true;
  }

  /// System-specific synchronisation after the members ticked (UnSync
  /// drains its Communication Buffers here). Default: nothing.
  virtual void sync_phase(std::size_t g, Cycle now) {
    (void)g;
    (void)now;
  }

  /// Error-arrival check for group `g`; fires at most the next scheduled
  /// strike into `acc`. Default: error-free system.
  virtual void on_error(std::size_t g, Cycle now, RunResult& acc) {
    (void)g;
    (void)now;
    (void)acc;
  }

  /// Fast-forward support, per member: a conservative lower bound on the
  /// next cycle at which member `m` can change state. Returning `now`
  /// vetoes skipping. The default vetoes, so a member without fast-forward
  /// support is simply never skipped.
  virtual Cycle member_next_event(std::size_t g, std::size_t m,
                                  Cycle now) const {
    (void)g;
    (void)m;
    return now;
  }

  /// Replay member `m`'s per-cycle counters for a static window [from, to)
  /// that member_next_event() promised. Self-gating like member_tick.
  virtual void member_skip_cycles(std::size_t g, std::size_t m, Cycle from,
                                  Cycle to) {
    (void)g;
    (void)m;
    (void)from;
    (void)to;
  }

  /// Fast-forward support, per group: a conservative lower bound on the
  /// next cycle at which group `g` can change state. Returning `now` vetoes
  /// skipping (something may act this cycle); returning T > now asserts
  /// that every cycle in [now, T) is static — ticking it would change
  /// nothing except deterministic per-cycle counters, which skip_cycles()
  /// replays in closed form. The default vetoes; systems with group-level
  /// coupling (arrival schedules, drain buses) fold members_next_event()
  /// into their own bound.
  virtual Cycle next_event(std::size_t g, Cycle now) const {
    (void)g;
    return now;
  }

  /// Replay the per-cycle counters of group `g` for the static window
  /// [from, to) that next_event() promised. Only called with to > from.
  /// Default: replay every member.
  virtual void skip_cycles(std::size_t g, Cycle from, Cycle to) {
    const std::size_t members = member_count(g);
    for (std::size_t m = 0; m < members; ++m) {
      member_skip_cycles(g, m, from, to);
    }
  }

  /// Fold the per-core stats and system counters into the final result
  /// (called on a copy of the kernel accumulator after the loop exits).
  virtual void finish(RunResult& r) const = 0;

  /// Invoked with the finished result just before run() returns — the
  /// metric-publication hook. Default: nothing.
  virtual void on_run_complete(const RunResult& r) { (void)r; }

  /// Checkpoint body: the 4-character chunk tag identifying this system's
  /// state layout, and the one walk over the policy payload inside the
  /// kernel's chunk (after the cycle cursor and accumulated result — see
  /// SimKernel::visit and docs/CHECKPOINTS.md). The walk marks the RNG
  /// words and arrival cursors with ar.fault_channel(), so the same walk
  /// yields save, load and the state fingerprint.
  virtual const char* ckpt_tag() const = 0;
  virtual void visit_policy_state(ckpt::Archive& ar) = 0;

 protected:
  /// Minimum of member_next_event over every member of `g`; `now` (veto)
  /// as soon as any member vetoes. The building block group-level
  /// next_event overrides combine with their arrival / drain bounds.
  Cycle members_next_event(std::size_t g, Cycle now) const {
    Cycle cand = ~Cycle{0};
    const std::size_t members = member_count(g);
    for (std::size_t m = 0; m < members; ++m) {
      const Cycle t = member_next_event(g, m, now);
      if (t <= now) return now;
      cand = t < cand ? t : cand;
    }
    return cand;
  }
};

}  // namespace unsync::engine
