// Fingerprinting-style checkpointing (Smolens et al. [19]), one of the
// related-work redundancy schemes of paper §II: cores run decoupled between
// checkpoints; every `checkpoint_interval` instructions both cores
// synchronise, capture a heavyweight checkpoint (architectural + memory
// state), and exchange a hash. Errors surface at the *next* checkpoint and
// roll back to the previous one — long detection latency and a
// per-checkpoint capture cost, traded against zero coupling in between.
#pragma once

#include <memory>
#include <vector>

#include "core/system.hpp"
#include "workload/dyn_op.hpp"

namespace unsync::core {

struct CheckpointParams {
  /// Instructions between checkpoints.
  std::uint64_t checkpoint_interval = 1000;
  /// Cycles both cores stall to capture a checkpoint (architectural state
  /// plus the memory-state capture the paper calls "heavy-weight").
  Cycle checkpoint_cost = 120;
  /// Hash exchange + compare latency at each checkpoint.
  Cycle compare_latency = 10;
  /// Checkpoint-restore cost on rollback (before re-execution begins).
  Cycle restore_cost = 200;

  /// This object, or std::invalid_argument unless checkpoint_interval >= 1
  /// (a zero interval never opens an epoch).
  const CheckpointParams& validated() const;
};

class DmrCheckpointSystem final : public System {
 public:
  DmrCheckpointSystem(const SystemConfig& config,
                      const CheckpointParams& params,
                      const workload::InstStream& stream);
  DmrCheckpointSystem(const SystemConfig& config,
                      const CheckpointParams& params,
                      const std::vector<const workload::InstStream*>& streams);

  std::uint64_t checkpoints_taken() const { return checkpoints_taken_; }

  // Cycle-loop phases: one decoupled pair per thread.
  void on_error(std::size_t g, Cycle now, engine::RunResult& acc) override;

  const char* ckpt_tag() const override { return "DMRC"; }
  void visit_policy_state(ckpt::Archive& ar) override;

 protected:
  void publish_extra_metrics() override;

 private:
  struct Pair;

  class CheckpointEnv final : public cpu::CommitEnv {
   public:
    CheckpointEnv(DmrCheckpointSystem* sys, Pair* pair, unsigned side)
        : sys_(sys), pair_(pair), side_(side) {}
    bool can_commit(CoreId core, const workload::DynOp& op,
                    Cycle now) override;
    bool on_store_commit(CoreId core, const workload::DynOp& op,
                         Cycle now) override;

   private:
    DmrCheckpointSystem* sys_;
    Pair* pair_;
    unsigned side_;
  };

  struct Pair {
    std::unique_ptr<cpu::OooCore> core[2];
    std::unique_ptr<CheckpointEnv> env[2];
    std::vector<Cycle> store_buffer[2];  // per side: completion times
    /// Next checkpoint boundary (instruction count) and sync state.
    SeqNum next_boundary = 0;
    bool reached[2] = {false, false};
    Cycle reached_at[2] = {0, 0};
    Cycle checkpoint_done = 0;  ///< when the in-progress capture finishes
    SeqNum last_committed_boundary = 0;  ///< rollback target
  };

  CheckpointParams params_;
  std::vector<std::unique_ptr<Pair>> pairs_;
  std::uint64_t checkpoints_taken_ = 0;
};

}  // namespace unsync::core
