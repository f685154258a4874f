// Mainframe-style tight lock-step (IBM S/390 G5 [15]), one of the
// related-work redundancy schemes of paper §II: the two cores stay
// cycle-coupled (neither may retire past the other by more than a commit
// group), and every load value passes through the input-replication checker
// before use. Divergence is detected the cycle it happens, so recovery is a
// cheap pipeline flush — but the coupling and load-path checker tax every
// error-free cycle, which is exactly why "lock-step becomes an increasing
// burden as device scaling continues".
#pragma once

#include <memory>
#include <vector>

#include "core/system.hpp"
#include "workload/dyn_op.hpp"

namespace unsync::core {

struct LockstepParams {
  /// Maximum retirement skew between the coupled cores, in instructions
  /// (one commit group).
  std::uint32_t max_skew = 4;
  /// Checker delay added to every load (input replication).
  Cycle load_check_latency = 2;
  /// Pipeline flush + resynchronisation penalty on a detected divergence.
  Cycle resync_penalty = 30;
};

class LockstepSystem final : public System {
 public:
  LockstepSystem(const SystemConfig& config, const LockstepParams& params,
                 const workload::InstStream& stream);
  LockstepSystem(const SystemConfig& config, const LockstepParams& params,
                 const std::vector<const workload::InstStream*>& streams);

  // Cycle-loop phases: one coupled pair per thread.
  void on_error(std::size_t g, Cycle now, engine::RunResult& acc) override;
  void finish(engine::RunResult& r) const override;

  const char* ckpt_tag() const override { return "LOCK"; }
  void visit_policy_state(ckpt::Archive& ar) override;

 private:
  struct Pair;

  class LockstepEnv final : public cpu::CommitEnv {
   public:
    LockstepEnv(LockstepSystem* sys, Pair* pair, unsigned side)
        : sys_(sys), pair_(pair), side_(side) {}
    bool can_commit(CoreId core, const workload::DynOp& op,
                    Cycle now) override;
    bool on_store_commit(CoreId core, const workload::DynOp& op,
                         Cycle now) override;

   private:
    LockstepSystem* sys_;
    Pair* pair_;
    unsigned side_;
  };

  struct Pair {
    std::unique_ptr<cpu::OooCore> core[2];
    std::unique_ptr<LockstepEnv> env[2];
    std::vector<Cycle> store_buffer[2];  // per side: completion times
    std::uint64_t lockstep_stalls = 0;
  };

  LockstepParams params_;
  std::vector<std::unique_ptr<Pair>> pairs_;
};

}  // namespace unsync::core
