// In-order checker-core timing model.
//
// A deliberately small core: scalar-class in-order pipeline with no rename,
// no ROB and blocking execution — the head instruction executes to
// completion before the next may start, and up to `width` single-cycle
// instructions retire per cycle once their turn comes. This is the MEEK /
// DIVA checker-core shape: a core an order of magnitude simpler than the
// leader it shadows, cheap enough that strapping one to every big core is a
// plausible area budget.
//
// The model reuses the OooCore ecosystem wholesale: the same DynOp streams,
// the same CommitEnv commit hooks (which is how the heterogeneous system
// feeds it verified inputs from the CheckLog), the same CoreStats block and
// the same tick / next_event / skip_cycles quiescence contract, so the
// core::System cycle loop drives a leader + checker group exactly like a
// pair of big cores. In-order interpretation of the shared stall counters:
// dispatch_stall_iq counts head-instruction execution-wait cycles (there is
// no issue queue), commit_stall_gate / commit_stall_store keep their
// meanings, and the ROB-occupancy fields stay zero.
#pragma once

#include <cstdint>
#include <memory>

#include "cpu/core_config.hpp"
#include "cpu/ooo_core.hpp"
#include "mem/hierarchy.hpp"
#include "obs/trace.hpp"
#include "workload/dyn_op.hpp"

namespace unsync::cpu {

struct InOrderConfig {
  /// Instructions retired per cycle once the head is complete (classic
  /// checker designs retire a small batch per cycle to keep pace with the
  /// leader's average IPC despite the simpler pipeline).
  std::uint32_t width = 2;

  /// Fixed load-to-use latency when the core runs without a memory
  /// hierarchy (checker mode: load values arrive pre-verified from the
  /// CheckLog, so no cache is accessed). With a hierarchy attached, loads
  /// instead block until the access completes (blocking-miss).
  Cycle load_latency = 1;

  /// Execution latencies by class (no structural hazards beyond the
  /// blocking head instruction, so these are pure latencies).
  Cycle int_mul_latency = 4;
  Cycle int_div_latency = 20;
  Cycle fp_alu_latency = 4;
  Cycle fp_mul_latency = 6;
  Cycle fp_div_latency = 24;
  /// In-order pipelines still drain on serializing instructions.
  Cycle serialize_latency = 3;

  /// Same interval-IPC sampling knob as CoreConfig::sample_interval.
  Cycle sample_interval = 0;
};

class InOrderCore {
 public:
  /// `memory` may be null: checker mode, loads complete at load_latency.
  InOrderCore(CoreId id, const InOrderConfig& config,
              mem::MemoryHierarchy* memory,
              std::unique_ptr<workload::InstStream> stream,
              CommitEnv* env = nullptr);

  CoreId id() const { return id_; }
  const InOrderConfig& config() const { return config_; }

  void tick(Cycle now);

  /// Quiescence fast-forwarding, same contract as OooCore::next_event: a
  /// return of T > now guarantees every tick in [now, T) only advances the
  /// deterministic per-cycle counters skip_cycles() replays. The in-order
  /// model vetoes (returns now) whenever the head instruction could start,
  /// commit, or charge a commit-gate stall — the owning system is expected
  /// to widen gate-stalled windows itself (it knows when the gate can
  /// open); see HeteroCheckerSystem::next_event.
  Cycle next_event(Cycle now) const;

  /// Replays the static window [from, to). Windows containing commit-gate
  /// or store-reject stalls are only replayable when the environment's
  /// can_commit / on_store_commit are idempotent while blocked (true for
  /// the CheckLog environments: a blocked probe mutates nothing).
  void skip_cycles(Cycle from, Cycle to);

  bool done() const { return stream_done_ && !op_valid_; }
  SeqNum retired() const { return stats_.committed; }

  void stall_until(Cycle cycle) {
    frozen_until_ = frozen_until_ > cycle ? frozen_until_ : cycle;
  }

  /// Squashes the (single) in-flight instruction; it will re-execute.
  void flush_pipeline();

  /// Repositions the stream cursor so the next instruction to execute is
  /// `seq` (rollback recovery). Implies flush_pipeline().
  void set_position(SeqNum seq);

  const CoreStats& stats() const { return stats_; }

  /// Head-of-pipeline views for the owning system's fast-forward planning:
  /// the sequence number the core will commit next (kNoSeq when drained)
  /// and whether its execution has completed (i.e. only the commit gate can
  /// be holding it).
  SeqNum head_seq() const { return op_valid_ ? op_.seq : kNoSeq; }
  const workload::DynOp* head_op() const { return op_valid_ ? &op_ : nullptr; }
  bool head_exec_done(Cycle now) const {
    return op_valid_ && started_ && complete_at_ <= now;
  }

  void set_tracer(const obs::Tracer* tracer) { tracer_ = tracer; }

  /// Checkpoint walk: cursor + in-flight instruction + statistics.
  /// Defined in core_ckpt.cpp with the other cpu wire layouts.
  void visit(ckpt::Archive& ar);

 private:
  static constexpr Cycle kNever = ~Cycle{0};

  Cycle exec_latency(const workload::DynOp& op, Cycle now) const;
  /// Eager-fetch invariant: op_valid_ || stream_done_ — the head slot is
  /// refilled immediately after each commit so head_seq() is always
  /// meaningful to the owning system.
  void refill_head();
  void end_cycle(Cycle now);

  CoreId id_;
  InOrderConfig config_;
  mem::MemoryHierarchy* memory_;
  std::unique_ptr<workload::InstStream> stream_;
  CommitEnv* env_;
  CommitEnv default_env_;

  bool stream_done_ = false;
  bool op_valid_ = false;
  workload::DynOp op_{};
  bool started_ = false;
  Cycle complete_at_ = 0;

  Cycle frozen_until_ = 0;
  Cycle next_sample_ = 0;
  CoreStats stats_;

  const obs::Tracer* tracer_ = nullptr;
};

}  // namespace unsync::cpu
