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

#include "common/rng.hpp"
#include "core/system.hpp"
#include "engine/error_injection.hpp"
#include "mem/hierarchy.hpp"
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
};

class DmrCheckpointSystem final : public System {
 public:
  DmrCheckpointSystem(const SystemConfig& config,
                      const CheckpointParams& params,
                      const workload::InstStream& stream);
  DmrCheckpointSystem(const SystemConfig& config,
                      const CheckpointParams& params,
                      const std::vector<const workload::InstStream*>& streams);

  const std::string& name() const override { return name_; }
  mem::MemoryHierarchy& memory() override { return memory_; }

  std::uint64_t checkpoints_taken() const { return checkpoints_taken_; }

  // SystemPolicy phases: one decoupled pair per thread.
  std::size_t group_count() const override { return pairs_.size(); }
  std::size_t member_count(std::size_t) const override { return 2; }
  bool member_finished(std::size_t g, std::size_t m) const override {
    return pairs_[g]->core[m]->done();
  }
  void on_error(std::size_t g, Cycle now, engine::RunResult& acc) override;
  Cycle next_event(std::size_t g, Cycle now) const override;
  void finish(engine::RunResult& r) const override;

  const char* ckpt_tag() const override { return "DMRC"; }
  void visit_policy_state(ckpt::Archive& ar) override;

  // Prefix-sharing hooks (see core/system.hpp).
  engine::FaultSources fault_sources() override;
  std::vector<SeqNum> group_progress() const override;

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
    std::vector<std::vector<Cycle>> store_buffer;
    /// Next checkpoint boundary (instruction count) and sync state.
    SeqNum next_boundary = 0;
    bool reached[2] = {false, false};
    Cycle reached_at[2] = {0, 0};
    Cycle checkpoint_done = 0;  ///< when the in-progress capture finishes
    SeqNum last_committed_boundary = 0;  ///< rollback target
    engine::ArrivalCursor arrivals;
  };

  std::string name_ = "dmr-checkpoint";
  SystemConfig config_;
  CheckpointParams params_;
  std::vector<std::uint64_t> thread_lengths_;
  mem::MemoryHierarchy memory_;
  Rng rng_;
  std::vector<std::unique_ptr<Pair>> pairs_;
  std::uint64_t checkpoints_taken_ = 0;
};

}  // namespace unsync::core
