// The UnSync architecture (paper §III).
//
// Each application thread runs on a *group* of identical cores (the paper
// evaluates pairs; §I and §VIII note the degree of redundancy is a user
// choice, so the group size is configurable) with write-through L1s. The
// cores are NOT synchronised during error-free execution: the only coupling
// is the Communication Buffer (CB) per core — every committed store enters
// the committing core's CB, and an entry drains to the ECC-protected shared
// L2 only once EVERY core of the group has committed that store (the
// "latest entry that has completed execution on both" rule, §III-A(a)
// generalised), at which point a single copy is written over the shared bus.
//
// Error handling is hardware detection (parity / DMR, per the protection
// plan) plus "always forward execution" recovery (§III-A(c)): on a detected
// error the EIH stalls the group, the erroneous core's pipeline is flushed,
// the architectural state and L1 content of an error-free core are copied
// across through the shared L2, the erroneous CB is overwritten from the
// error-free CB, and every core resumes from the error-free core's
// position — the slower cores are forwarded, never re-executed.
#pragma once

#include <memory>
#include <vector>

#include "core/system.hpp"
#include "fault/protection.hpp"
#include "mem/write_buffer.hpp"
#include "workload/dyn_op.hpp"

namespace unsync::core {

struct UnSyncParams {
  /// Redundant cores per thread. 2 = the paper's evaluated configuration;
  /// 3 tolerates a second strike during recovery (§VIII trade-off).
  unsigned group_size = 2;

  /// CB capacity per core, in entries (Table II uses 10; Figure 6 sweeps
  /// the size — with 16-byte entries, 2 KiB = 128 entries).
  std::size_t cb_entries = 128;
  /// Bytes one CB entry occupies (address + data + tag), used to express
  /// Figure 6's x-axis in bytes.
  static constexpr std::size_t kCbEntryBytes = 16;

  /// CB->L2 words drained per cycle when the bus is free.
  unsigned drain_per_cycle = 1;

  /// Recovery cost model (§III-A(c)). EIH signalling round trip:
  Cycle eih_signal_cycles = 20;
  /// Cycles per architectural-state word copied core-to-core via the L2.
  Cycle state_copy_word_cycles = 4;
  /// Architectural words to copy: 32 int + 32 fp registers + PC + misc.
  unsigned arch_state_words = 68;
  /// Cycles per valid L1 line copied via the L2.
  Cycle l1_copy_line_cycles = 8;

  static std::size_t entries_for_bytes(std::size_t bytes) {
    return bytes / kCbEntryBytes;
  }

  /// This object, or std::invalid_argument unless group_size >= 2 and
  /// cb_entries >= 1 (a one-core group has no error-free core to recover
  /// from; an empty CB can never take a store).
  const UnSyncParams& validated() const;
};

class UnSyncSystem final : public System {
 public:
  UnSyncSystem(const SystemConfig& config, const UnSyncParams& params,
               const workload::InstStream& stream);

  /// Heterogeneous multiprogramming: one stream per thread (each thread's
  /// redundancy group clones its stream group_size times).
  UnSyncSystem(const SystemConfig& config, const UnSyncParams& params,
               const std::vector<const workload::InstStream*>& streams);

  const fault::ProtectionPlan& plan() const { return plan_; }
  unsigned group_size() const { return params_.group_size; }

  // SystemPolicy phases: one group of redundant cores per thread; each
  // member is one core plus its Communication Buffer.
  bool member_finished(std::size_t g, std::size_t m) const override;
  void sync_phase(std::size_t g, Cycle now) override;
  void on_error(std::size_t g, Cycle now, engine::RunResult& acc) override;
  Cycle next_event(std::size_t g, Cycle now) const override;
  void finish(engine::RunResult& r) const override;

  const char* ckpt_tag() const override { return "UNSY"; }
  void visit_policy_state(ckpt::Archive& ar) override;

 protected:
  void publish_extra_metrics() override;
  void register_avf(fault::AvfCollector& collector) override;

 private:
  struct Group;

  /// Commit environment for one core of a group: write-through L1 store +
  /// CB insertion; rejects (stalling commit) when the CB is full.
  class CbEnv final : public cpu::CommitEnv {
   public:
    CbEnv(UnSyncSystem* sys, Group* group, unsigned side)
        : sys_(sys), group_(group), side_(side) {}

    bool on_store_commit(CoreId core, const workload::DynOp& op,
                         Cycle now) override;

   private:
    UnSyncSystem* sys_;
    Group* group_;
    unsigned side_;
  };

  struct Group {
    std::vector<std::unique_ptr<cpu::OooCore>> cores;
    std::vector<std::unique_ptr<CbEnv>> envs;
    std::vector<std::unique_ptr<mem::WriteBuffer>> cbs;
    std::uint64_t cb_full_stalls = 0;
  };

  Cycle recovery_cost(const Group& group, unsigned error_free_side) const;

  UnSyncParams params_;
  fault::ProtectionPlan plan_;
  std::vector<std::unique_ptr<Group>> groups_;
};

}  // namespace unsync::core
