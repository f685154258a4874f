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

#include "common/rng.hpp"
#include "core/system.hpp"
#include "engine/error_injection.hpp"
#include "mem/hierarchy.hpp"
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

  const std::string& name() const override { return name_; }
  mem::MemoryHierarchy& memory() override { return memory_; }

  // SystemPolicy phases: one coupled pair per thread.
  std::size_t group_count() const override { return pairs_.size(); }
  std::size_t member_count(std::size_t) const override { return 2; }
  bool member_finished(std::size_t g, std::size_t m) const override {
    return pairs_[g]->core[m]->done();
  }
  void on_error(std::size_t g, Cycle now, engine::RunResult& acc) override;
  Cycle next_event(std::size_t g, Cycle now) const override;
  void finish(engine::RunResult& r) const override;

  const char* ckpt_tag() const override { return "LOCK"; }
  void visit_policy_state(ckpt::Archive& ar) override;

  // Prefix-sharing hooks (see core/system.hpp).
  engine::FaultSources fault_sources() override;
  std::vector<SeqNum> group_progress() const override;

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
    std::vector<std::vector<Cycle>> store_buffer;
    engine::ArrivalCursor arrivals;
    std::uint64_t lockstep_stalls = 0;
  };

  std::string name_ = "lockstep";
  SystemConfig config_;
  LockstepParams params_;
  std::vector<std::uint64_t> thread_lengths_;
  mem::MemoryHierarchy memory_;
  Rng rng_;
  std::vector<std::unique_ptr<Pair>> pairs_;
};

}  // namespace unsync::core
