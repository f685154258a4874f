// Baseline CMP: one core per thread, write-back L1, no redundancy.
//
// This is the reference every figure normalises against ("baseline CMP
// architecture", Table I) — and it is also the performance a soft error
// silently corrupts.
#pragma once

#include <memory>
#include <vector>

#include "core/system.hpp"
#include "workload/dyn_op.hpp"

namespace unsync::core {

class BaselineSystem final : public System {
 public:
  /// Homogeneous: `stream` is cloned once per thread.
  BaselineSystem(const SystemConfig& config,
                 const workload::InstStream& stream);

  /// Heterogeneous multiprogramming: one stream per thread
  /// (`streams.size()` must equal `config.num_threads`).
  BaselineSystem(const SystemConfig& config,
                 const std::vector<const workload::InstStream*>& streams);

  // The baseline has no error process: one core per group, no arrivals,
  // an empty fault channel, and a fingerprint that is the full policy
  // state.
  const char* ckpt_tag() const override { return "BASE"; }
  void visit_policy_state(ckpt::Archive& ar) override;

 private:
  /// Commit environment: the shared write-back store buffer, one per
  /// core; commit stalls when it fills.
  class StoreBufferEnv final : public cpu::CommitEnv {
   public:
    explicit StoreBufferEnv(BaselineSystem* sys) : sys_(sys) {}

    bool on_store_commit(CoreId core, const workload::DynOp& op,
                         Cycle now) override;

    void visit(ckpt::Archive& ar);

   private:
    BaselineSystem* sys_;
    std::vector<std::vector<Cycle>> in_flight_;  // per core: completion times
  };

  StoreBufferEnv env_;
  std::vector<std::unique_ptr<cpu::OooCore>> cores_;
};

}  // namespace unsync::core
