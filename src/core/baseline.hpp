// Baseline CMP: one core per thread, write-back L1, no redundancy.
//
// This is the reference every figure normalises against ("baseline CMP
// architecture", Table I) — and it is also the performance a soft error
// silently corrupts.
#pragma once

#include <memory>
#include <vector>

#include "core/system.hpp"
#include "mem/hierarchy.hpp"
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

  const std::string& name() const override { return name_; }
  mem::MemoryHierarchy& memory() override { return memory_; }

  // SystemPolicy phases: one group per thread, one core per group.
  std::size_t group_count() const override { return cores_.size(); }
  std::size_t member_count(std::size_t) const override { return 1; }
  bool member_finished(std::size_t g, std::size_t) const override {
    return cores_[g]->done();
  }
  Cycle next_event(std::size_t g, Cycle now) const override {
    return members_next_event(g, now);
  }
  void finish(engine::RunResult& r) const override;

  const char* ckpt_tag() const override { return "BASE"; }
  void visit_policy_state(ckpt::Archive& ar) override;

  // Prefix-sharing hooks: the baseline has no error process at all, so its
  // fault channel is empty and its fingerprint is the full policy state.
  std::vector<SeqNum> group_progress() const override;

 private:
  /// Commit environment: a small post-commit store buffer in front of the
  /// write-back L1; commit stalls when it fills.
  class StoreBufferEnv final : public cpu::CommitEnv {
   public:
    StoreBufferEnv(mem::MemoryHierarchy* memory, std::size_t entries)
        : memory_(memory), entries_(entries) {}

    bool on_store_commit(CoreId core, const workload::DynOp& op,
                         Cycle now) override;

    void visit(ckpt::Archive& ar);

   private:
    mem::MemoryHierarchy* memory_;
    std::size_t entries_;
    std::vector<std::vector<Cycle>> in_flight_;  // per core: completion times
  };

  std::string name_ = "baseline";
  SystemConfig config_;
  std::vector<std::uint64_t> thread_lengths_;
  mem::MemoryHierarchy memory_;
  StoreBufferEnv env_;
  std::vector<std::unique_ptr<cpu::OooCore>> cores_;
};

/// Size of the post-commit store buffer used by write-back configurations.
inline constexpr std::size_t kStoreBufferEntries = 8;

}  // namespace unsync::core
