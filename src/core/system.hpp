// Common interface of the simulated CMP systems (baseline / UnSync /
// Reunion / lock-step / DMR checkpointing / hetero checker): configuration,
// the run contract, and the result record every bench consumes.
//
// The cycle loop lives in engine::SimKernel (docs/ENGINE.md). A System is
// an engine::SystemPolicy plus the redundancy-group scaffold every
// architecture shares: the memory hierarchy, the per-thread arrival draw,
// group progress, the fault channel, the result fold, the write-back store
// buffer, and the observability and checkpoint plumbing. A concrete system
// adds only its commit environments, its sync phase and its recovery rule.
// The result record is engine::RunResult.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "cpu/core_config.hpp"
#include "cpu/ooo_core.hpp"
#include "engine/error_injection.hpp"
#include "engine/policy.hpp"
#include "fault/avf.hpp"
#include "engine/run_result.hpp"
#include "engine/sim_kernel.hpp"
#include "engine/sim_model.hpp"
#include "engine/stream_utils.hpp"
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

/// A simulated CMP. run() executes every thread's stream to completion (or
/// max_cycles) and reports the aggregate result.
///
/// Resumable-run contract (enforced by the kernel): `max_cycles` is an
/// ABSOLUTE simulated-cycle bound, and run() is continuable — run(N)
/// followed by run() yields the same final result, bit for bit, as a single
/// run(). That, combined with save_checkpoint()/load_checkpoint(), is what
/// lets a mid-run snapshot be restored into a freshly-constructed identical
/// system and resumed to a byte-identical RunResult (docs/CHECKPOINTS.md).
///
/// Observability contract: every system owns a Tracer (wired into its cores
/// and memory hierarchy at construction; free while no sink is attached) and
/// optionally publishes into a MetricsRegistry at the end of run(). Both are
/// attached post-construction via set_observability(). Observability
/// attachments are NOT part of checkpoint state.
class System : public engine::SystemPolicy, public engine::SimModel {
 public:
  ~System() override = default;

  /// Drives this system's policy phases through the shared kernel, which
  /// fast-forwards over provably-static windows (docs/ENGINE.md).
  engine::RunResult run(Cycle max_cycles = ~Cycle{0}) override {
    return kernel_.run(*this, max_cycles);
  }

  /// The reference loop behind run(): same contract (absolute bound,
  /// continuable), but ticks every cycle instead of skipping quiescent
  /// windows. Only the parity tests, tools/gen_engine_goldens and the
  /// engine throughput bench call it.
  engine::RunResult run_naive(Cycle max_cycles = ~Cycle{0}) {
    return kernel_.run_naive(*this, max_cycles);
  }

  /// Test seam: `observer(from, to)` runs after every window run() skips
  /// (see engine::SimKernel::set_skip_observer).
  void set_skip_observer(engine::SimKernel::SkipObserver observer) {
    kernel_.set_skip_observer(std::move(observer));
  }

  /// The default group shape: one group per thread whose members are its
  /// registered OoO cores (hetero overrides the member hooks). Finished,
  /// tick, plan and skip member `m` of group `g`, self-gated on done().
  std::size_t group_count() const override { return config_.num_threads; }
  std::size_t member_count(std::size_t) const override {
    return cores_per_group_;
  }
  bool member_finished(std::size_t g, std::size_t m) const override {
    return member_core(g, m).done();
  }
  void member_tick(std::size_t g, std::size_t m, Cycle now) override {
    cpu::OooCore& core = member_core(g, m);
    if (!core.done()) core.tick(now);
  }
  Cycle member_next_event(std::size_t g, std::size_t m,
                          Cycle now) const override {
    return member_core(g, m).next_event(now);
  }
  void member_skip_cycles(std::size_t g, std::size_t m, Cycle from,
                          Cycle to) override {
    cpu::OooCore& core = member_core(g, m);
    if (!core.done()) core.skip_cycles(from, to);
  }

  /// Members' next events, vetoed while the group's next arrival is
  /// pending: progress only advances through (vetoed) commits, so the
  /// strike fires on the cycle the watermark crosses it.
  Cycle next_event(std::size_t g, Cycle now) const override;

  /// Appends every registered core's stats in registration order; systems
  /// extend it with their own counters.
  void finish(engine::RunResult& r) const override;

  const std::string& name() const override { return name_; }

  /// Serialises / restores the complete mutable simulation state (cycle
  /// cursor, accumulated result, RNG, memory hierarchy, every core): a
  /// name-tagged "SYS0" envelope around the kernel-level chunk tagged
  /// ckpt_tag(). load_checkpoint() must be called on a system constructed
  /// with the identical configuration, streams and parameters as the saved
  /// one; mismatches — including a checkpoint taken from a different
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

  /// Kernel hook: publishes the standard metric tree plus the system's
  /// extras once the run loop exits.
  void on_run_complete(const engine::RunResult& r) override {
    if (!metrics_) return;
    publish_metrics(r);
    publish_extra_metrics();
  }

 protected:
  /// Builds the group scaffold: checks one stream per thread, records the
  /// stream lengths, builds the memory hierarchy from `mem` with
  /// `cores_per_group` cores per thread, pre-warms it, draws every
  /// thread's arrivals (unless `error_process` is false: the baseline has
  /// none, so it draws nothing and exposes no fault channel) and seeds the
  /// result's identity fields. Throws std::invalid_argument on a stream
  /// count mismatch.
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

  /// The shared cycle engine: owns the cycle cursor and the accumulated
  /// result, whose identity fields (system name, instruction counts) the
  /// constructor seeds.
  engine::SimKernel kernel_;

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
  /// The "SYS0" envelope: system name, then the kernel chunk.
  void visit_checkpoint(ckpt::Archive& ar);

  /// Builds the collector and attaches residency trackers to the memory
  /// hierarchy (bus, DRAM queue, cache tags, MSHRs) and every registered
  /// core's TLBs, then gives the concrete system its register_avf() turn.
  void wire_avf();

  cpu::OooCore& member_core(std::size_t g, std::size_t m) const {
    return *registered_cores_[g * cores_per_group_ + m];
  }

  bool error_process_ = true;
  std::size_t cores_per_group_ = 1;  ///< registered cores per thread
  std::vector<cpu::OooCore*> registered_cores_;
  std::unique_ptr<fault::AvfCollector> avf_collector_;
};

/// Size of the post-commit store buffer used by write-back configurations.
inline constexpr std::size_t kStoreBufferEntries = 8;

}  // namespace unsync::core
