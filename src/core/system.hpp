// Common interface of the simulated CMP systems (baseline / UnSync /
// Reunion / lock-step / DMR checkpointing / hetero checker): configuration,
// the run contract, and the result record every bench consumes.
//
// A System is the one cycle loop (docs/ENGINE.md) plus the redundancy-group
// scaffold every architecture shares: the memory hierarchy, the per-thread
// arrival draw, group progress, the fault channel, the result fold, the
// write-back store buffer, and the observability and checkpoint plumbing.
// A concrete system adds only its commit environments, its sync phase and
// its recovery rule. The result record is engine::RunResult.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "cpu/core_config.hpp"
#include "cpu/ooo_core.hpp"
#include "engine/error_injection.hpp"
#include "engine/run_result.hpp"
#include "engine/sim_model.hpp"
#include "engine/stream_utils.hpp"
#include "fault/avf.hpp"
#include "mem/config.hpp"
#include "mem/hierarchy.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "workload/dyn_op.hpp"

namespace unsync::ckpt {
class Archive;
}  // namespace unsync::ckpt

namespace unsync::core {

/// Shared configuration (Table I defaults).
struct SystemConfig {
  cpu::CoreConfig core;
  mem::MemConfig mem;
  /// Number of application threads. Baseline runs one core per thread;
  /// the redundant systems run one *core pair* per thread.
  unsigned num_threads = 2;
  /// Per-instruction soft-error probability (0 = error-free run).
  double ser_per_inst = 0.0;
  std::uint64_t seed = 42;
  /// ACE/AVF residency accounting for the uncore (CLI: avf=1; see
  /// docs/FAULTS.md). Observation-only: enabling it never changes simulated
  /// results, and with the default 0 every hook is a null-pointer branch.
  bool avf = false;
  /// Per-uncore-structure protection choice (CLI: protect.<structure>=).
  /// Joined with the measured exposure at report time; does not alter
  /// simulation timing.
  fault::UncorePlan uncore_protect;
};

/// A simulated CMP: a set of redundancy *groups*, one per application
/// thread, each an ordered list of *members* — one simulated core plus
/// whatever per-core structure the system couples to it (an UnSync
/// Communication Buffer, a hetero-checker log cursor). Members need not be
/// identical: the hetero checker pairs a big out-of-order leader with a
/// small in-order checker. run() executes every thread's stream to
/// completion (or max_cycles) and reports the aggregate result.
///
/// Resumable-run contract: `max_cycles` is an ABSOLUTE simulated-cycle
/// bound, and run() is continuable — run(N) followed by run() yields the
/// same final result, bit for bit, as a single run(). That, combined with
/// save_checkpoint()/load_checkpoint(), is what lets a mid-run snapshot be
/// restored into a freshly-constructed identical system and resumed to a
/// byte-identical RunResult (docs/CHECKPOINTS.md).
///
/// Observability contract: every system owns a Tracer (wired into its cores
/// and memory hierarchy at construction; free while no sink is attached) and
/// optionally publishes into a MetricsRegistry at the end of run(). Both are
/// attached post-construction via set_observability(). Observability
/// attachments are NOT part of checkpoint state.
class System : public engine::SimModel {
 public:
  ~System() override = default;

  /// Runs until every group is finished or the clock reaches `max_cycles`,
  /// fast-forwarding over every window in which all unfinished groups are
  /// quiescent: when each reports a next_event() T > now, the cycles in
  /// [now, T) are provably static — no commit, issue, dispatch, fetch,
  /// drain or error injection can occur — so their deterministic per-cycle
  /// counters are replayed in closed form (member_skip_cycles) and the
  /// clock jumps (docs/ENGINE.md).
  engine::RunResult run(Cycle max_cycles = ~Cycle{0}) override;

  /// The reference loop behind run(): same contract (absolute bound,
  /// continuable), but ticks every cycle instead of skipping quiescent
  /// windows. Only the parity tests, tools/gen_engine_goldens and the
  /// engine throughput bench call it.
  engine::RunResult run_naive(Cycle max_cycles = ~Cycle{0});

  /// Test seam: `observer(from, to)` runs after every window run() skips,
  /// the clock already at `to`.
  using SkipObserver = std::function<void(Cycle from, Cycle to)>;
  void set_skip_observer(SkipObserver observer) {
    on_skip_ = std::move(observer);
  }

  // ---- The per-member and per-group phases the loop drives -------------
  //
  // Each cycle, every member of every unfinished group gets member_tick()
  // in index order, then the group's sync_phase() and on_error(). The
  // member hooks default to the group's registered OoO cores (hetero
  // overrides them to cover its in-order checker), self-gated on done().

  /// Number of members in group `g` (baseline: 1; the DMR systems: 2;
  /// UnSync: the configured group size). Constant per group.
  virtual std::size_t member_count(std::size_t) const {
    return cores_per_group_;
  }

  /// True when member `m` of group `g` has retired its stream and drained
  /// every per-member structure the system tracks for it (CB contents,
  /// un-consumed log entries, ...).
  virtual bool member_finished(std::size_t g, std::size_t m) const {
    return member_core(g, m).done();
  }

  /// Advances member `m` of group `g` by one cycle. Called for every
  /// member of an unfinished group, so a drained core ignores the tick.
  virtual void member_tick(std::size_t g, std::size_t m, Cycle now) {
    cpu::OooCore& core = member_core(g, m);
    if (!core.done()) core.tick(now);
  }

  /// A conservative lower bound on the next cycle at which member `m` of
  /// group `g` can change state; returning `now` vetoes skipping.
  virtual Cycle member_next_event(std::size_t g, std::size_t m,
                                  Cycle now) const {
    return member_core(g, m).next_event(now);
  }

  /// Replays member `m`'s per-cycle counters for a static window
  /// [from, to) that member_next_event() promised. Self-gating like
  /// member_tick.
  virtual void member_skip_cycles(std::size_t g, std::size_t m, Cycle from,
                                  Cycle to) {
    cpu::OooCore& core = member_core(g, m);
    if (!core.done()) core.skip_cycles(from, to);
  }

  /// System-specific synchronisation after the members ticked (UnSync
  /// drains its Communication Buffers here). Default: nothing.
  virtual void sync_phase(std::size_t g, Cycle now) {
    (void)g;
    (void)now;
  }

  /// Error-arrival check for group `g`; fires at most the next scheduled
  /// strike into `acc`. Default: error-free system.
  virtual void on_error(std::size_t g, Cycle now, engine::RunResult& acc) {
    (void)g;
    (void)now;
    (void)acc;
  }

  /// A conservative lower bound on the next cycle at which group `g` can
  /// change state. Returning `now` vetoes skipping (something may act this
  /// cycle); returning T > now asserts that every cycle in [now, T) is
  /// static — ticking it would change nothing except deterministic
  /// per-cycle counters, which member_skip_cycles() replays. Default: the
  /// members' next events, vetoed while the group's next arrival is
  /// pending (progress only advances through vetoed commits, so the strike
  /// fires on the cycle the watermark crosses it). Systems with more
  /// group-level coupling (drain buses, checker logs) fold
  /// members_next_event() into their own bound.
  virtual Cycle next_event(std::size_t g, Cycle now) const;

  /// Folds the per-core stats and system counters into the final result
  /// (called on a copy of the accumulator after the loop exits). Appends
  /// every registered core's stats in registration order; systems extend
  /// it with their own counters.
  virtual void finish(engine::RunResult& r) const;

  /// Checkpoint body: the 4-character chunk tag identifying this system's
  /// state layout, and the one walk over the system's own payload inside
  /// that chunk (after the cycle cursor and accumulated result — see
  /// visit_checkpoint and docs/CHECKPOINTS.md). The walk marks the RNG
  /// words and arrival cursors with ar.fault_channel(), so the same walk
  /// yields save, load and the state fingerprint.
  virtual const char* ckpt_tag() const = 0;
  virtual void visit_policy_state(ckpt::Archive& ar) = 0;

  /// Number of redundancy groups: one per application thread.
  std::size_t group_count() const { return config_.num_threads; }

  /// True when group `g` has retired its whole stream and drained every
  /// structure the system tracks for it: every member is finished. A
  /// finished group receives no further phase calls.
  bool finished(std::size_t g) const {
    const std::size_t members = member_count(g);
    for (std::size_t m = 0; m < members; ++m) {
      if (!member_finished(g, m)) return false;
    }
    return true;
  }

  const std::string& name() const override { return name_; }

  /// Serialises / restores the complete mutable simulation state (cycle
  /// cursor, accumulated result, RNG, memory hierarchy, every core): a
  /// name-tagged "SYS0" envelope around the chunk tagged ckpt_tag().
  /// load_checkpoint() must be called on a system constructed with the
  /// identical configuration, streams and parameters as the saved one;
  /// mismatches — including a checkpoint taken from a different
  /// system kind — throw ckpt::CkptError.
  void save_checkpoint(ckpt::Serializer& s) const;
  void load_checkpoint(ckpt::Deserializer& d);
  /// load_checkpoint over the whole of `payload` (a save_checkpoint
  /// output, no container); trailing bytes throw ckpt::CkptError. Every
  /// restore path ends here, after its own container checks if any.
  void load_checkpoint_payload(std::string_view payload);

  /// Whole-file convenience: the "unsync.ckpt.v1" container (magic, schema,
  /// CRC-32) written via write-to-temp + atomic rename.
  void save_checkpoint_file(const std::string& path) const;
  void load_checkpoint_file(const std::string& path);

  /// In-memory convenience: the exact bytes save_checkpoint_file() would
  /// write, returned as a "unsync.ckpt.v1" container blob with no
  /// filesystem round trip. load_checkpoint_bytes() verifies magic /
  /// schema / CRC and rejects trailing bytes (ckpt::CkptError), just like
  /// the file path. The prefix engine holds no containers: its golden
  /// snapshots are packed save_checkpoint payloads (runtime/prefix.hpp).
  std::string save_checkpoint_bytes() const;
  void load_checkpoint_bytes(std::string_view blob);

  // ---- Prefix-sharing hooks (docs/CAMPAIGNS.md, "Prefix-sharing") -------
  //
  // A faulty run differs from the ser=0 golden run of the same
  // configuration ONLY in its fault channel — the RNG words and the
  // per-group arrival schedules — until the first arrival fires. Systems
  // that expose that channel let the campaign layer build the golden run
  // once, restore its checkpoints into per-job systems, and install each
  // job's own channel on top.

  /// What this system's fault channel is made of: the RNG and every
  /// group's arrival cursor (nothing for the baseline).
  engine::FaultSources fault_sources();

  /// The fault channel's wire bytes: RNG words plus the FULL per-group
  /// arrival schedules (positions, not just the cursor — the checkpoint
  /// pins only the length because construction re-derives the positions,
  /// which a golden-configured system cannot). Empty without a channel.
  std::string fault_channel_bytes() const;

  /// Installs a channel in fault_channel_bytes() form; throws
  /// ckpt::CkptError on a mismatch or trailing bytes.
  void install_fault_channel(std::string_view bytes);

  /// Per-group commit progress: the same watermark arrival consumption is
  /// keyed on (max retired over the group's registered cores). Used to
  /// pick the latest golden checkpoint that provably precedes a job's
  /// first strike.
  std::vector<SeqNum> group_progress() const;

  /// The arrival draw of every redundant system: one schedule per thread,
  /// drawn in thread order from `rng` over that thread's stream length.
  /// Construction and runtime::compute_fault_channel both call it, so the
  /// draw sequence the fault channel pins is written once.
  static std::vector<std::vector<SeqNum>> draw_arrivals(
      double ser_per_inst, const std::vector<std::uint64_t>& lengths,
      Rng& rng);

  /// ckpt::hash64 over a Fingerprint-mode walk of visit_policy_state():
  /// the architectural state minus the fault channel. Two runs with equal
  /// fingerprints at the same cycle boundary — and no arrivals left to
  /// fire — evolve identically from there.
  std::uint64_t state_fingerprint() const;

  /// The system's memory hierarchy.
  mem::MemoryHierarchy& memory() { return memory_; }

  /// Attaches (or detaches, with nullptr) a metrics registry and a trace
  /// sink. With a registry attached, per-cycle ROB-occupancy histograms are
  /// sampled under "<name>.<core>.rob.occupancy" and the full metric tree is
  /// published when run() finishes. Call before run().
  void set_observability(obs::MetricsRegistry* metrics,
                         obs::TraceSink* trace) override;

  const obs::Tracer& tracer() const { return tracer_; }
  obs::MetricsRegistry* metrics() const { return metrics_; }

 protected:
  /// Builds the group scaffold: checks one stream per thread, records the
  /// stream lengths, builds the memory hierarchy from `mem` with
  /// `cores_per_group` cores per thread, pre-warms it, draws every
  /// thread's arrivals (unless `error_process` is false: the baseline has
  /// none, so it draws nothing and exposes no fault channel) and seeds the
  /// result's identity fields. Throws std::invalid_argument on zero
  /// threads or a stream count mismatch.
  System(std::string name, const SystemConfig& config,
         const std::vector<const workload::InstStream*>& streams,
         unsigned cores_per_group, const mem::MemConfig& mem,
         bool error_process = true);

  /// Derived constructors register `cores_per_group` cores per thread in
  /// group-major order (group 0 side 0, group 0 side 1, ..., matching
  /// RunResult::core_stats), which is how the default member hooks find
  /// member m of group g. Wires the core to the system tracer; metric
  /// names are "<name>.core<i>" with one core per group, otherwise
  /// "<name>.group<g>.core<s>".
  void register_core(cpu::OooCore& core);

  /// Commit progress of group `g`: max retired over its registered cores.
  SeqNum progress(std::size_t g) const {
    SeqNum p = 0;
    for (std::size_t m = 0; m < cores_per_group_; ++m) {
      p = std::max(p, member_core(g, m).retired());
    }
    return p;
  }

  /// True when group `g`'s progress has reached its next arrival. Called
  /// every cycle (on_error, next_event), so progress is read only while
  /// an arrival is left.
  bool arrival_pending(std::size_t g) const {
    const engine::ArrivalCursor& a = arrivals_[g];
    return a.next < a.positions.size() && a.pending(progress(g));
  }

  /// The write-back store buffer (kStoreBufferEntries deep) in front of a
  /// write-back L1: retires the writebacks done by `now`, then rejects the
  /// store (stalling commit) when the buffer is full or issues it.
  /// `in_flight` holds the completion cycles of one core's buffer.
  bool store_buffer_commit(std::vector<Cycle>& in_flight, CoreId core,
                           Addr addr, Cycle now);

  /// Metric path prefix of registered core `i` (see register_core).
  std::string core_prefix(std::size_t i) const;

  /// Minimum of member_next_event over every member of `g`; `now` (veto)
  /// as soon as any member vetoes. The building block of next_event().
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

  /// Publishes the standard metric tree for a finished run: per-core
  /// counters/gauges, the memory hierarchy, and the system-level error /
  /// stall counters. Called only with a registry attached.
  void publish_metrics(const engine::RunResult& r);

  /// System-specific metrics published after the standard tree (UnSync CB
  /// occupancy, DMR-checkpoint counts, ...) into metrics_, which is never
  /// null here. No-op by default.
  virtual void publish_extra_metrics() {}

  /// System-specific AVF wiring beyond the shared uncore (UnSync registers
  /// its Communication Buffers as write_buffer instances). Called from
  /// set_observability() when avf=1 and a registry is attached.
  virtual void register_avf(fault::AvfCollector& collector) {
    (void)collector;
  }

  /// Event-trace gate shared by the system, its cores and its memory.
  obs::Tracer tracer_;
  obs::MetricsRegistry* metrics_ = nullptr;

  const std::string name_;
  const SystemConfig config_;
  const std::vector<std::uint64_t> thread_lengths_;
  mem::MemoryHierarchy memory_;
  /// The error process: seeded with config.seed, drawn from at
  /// construction (arrivals) and by each system's recovery rule.
  Rng rng_;
  /// Per-group error-arrival schedule and consumption cursor (empty
  /// schedules for the baseline).
  std::vector<engine::ArrivalCursor> arrivals_;

 private:
  /// One naive cycle: every unfinished group's members, sync and error
  /// phases, then the clock.
  void tick(std::size_t groups);
  /// Replays every member of group `g` over the static window [from, to)
  /// that next_event() promised.
  void skip_cycles(std::size_t g, Cycle from, Cycle to) {
    const std::size_t members = member_count(g);
    for (std::size_t m = 0; m < members; ++m) {
      member_skip_cycles(g, m, from, to);
    }
  }
  /// Snapshots the accumulator into the returned result, folds it with
  /// finish() and, with a registry attached, publishes the metric tree.
  engine::RunResult complete();

  /// The "SYS0" envelope: system name, then one chunk tagged ckpt_tag()
  /// holding the cycle cursor, the accumulated result and the system's
  /// visit_policy_state() payload.
  void visit_checkpoint(ckpt::Archive& ar);

  /// Builds the collector and attaches residency trackers to the memory
  /// hierarchy (bus, DRAM queue, cache tags, MSHRs) and every registered
  /// core's TLBs, then gives the concrete system its register_avf() turn.
  void wire_avf();

  cpu::OooCore& member_core(std::size_t g, std::size_t m) const {
    return *registered_cores_[g * cores_per_group_ + m];
  }

  /// The cycle cursor and the result accumulated across run() segments,
  /// whose identity fields (system name, instruction counts) the
  /// constructor seeds and which the error path appends to mid-run.
  Cycle now_ = 0;
  engine::RunResult acc_;
  SkipObserver on_skip_;

  bool error_process_ = true;
  std::size_t cores_per_group_ = 1;  ///< registered cores per thread
  std::vector<cpu::OooCore*> registered_cores_;
  std::unique_ptr<fault::AvfCollector> avf_collector_;
};

/// Size of the post-commit store buffer used by write-back configurations.
inline constexpr std::size_t kStoreBufferEntries = 8;

}  // namespace unsync::core
