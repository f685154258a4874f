// Heterogeneous leader/checker redundancy (MEEK / DIVA-style, cf. paper
// §II's partial-redundancy discussion).
//
// Each application thread runs on an ASYMMETRIC group: a big out-of-order
// leader core (member 0) and a small in-order checker core (member 1)
// executing the same stream. The only coupling is a bounded CheckLog: the
// leader appends one entry per committed load / branch / store, and the
// checker consumes entries strictly in order at its own commit stage,
// comparing outcomes. Sync discipline is log-structured:
//
//   * a full log stalls the leader's commit stage (back-pressure — the
//     checker sets the group's sustainable throughput);
//   * an empty log stalls the checker (it may never run ahead of verified
//     leader results);
//   * stores are held in the log and reach the memory hierarchy only when
//     the checker verifies them — unverified state never escapes the group.
//
// Error handling: a soft-error strike on the leader at instruction P is
// DETECTED when the checker verifies P (mismatching entry), so detection
// latency is the log residency — bounded by the log capacity, far shorter
// than DMR-checkpoint epochs. Recovery rolls both cores back to the last
// verified commit (= P, everything older is checker-verified), discards the
// unverified log tail, and stalls both for `rollback_penalty` cycles.
#pragma once

#include <memory>
#include <vector>

#include "core/system.hpp"
#include "cpu/check_log.hpp"
#include "cpu/in_order_core.hpp"
#include "workload/dyn_op.hpp"

namespace unsync::core {

struct HeteroParams {
  /// CheckLog capacity in entries — the detection-latency bound and the
  /// leader's commit slack over the checker.
  std::size_t log_entries = 64;
  /// Checker retire width (single-cycle instructions per cycle).
  std::uint32_t checker_width = 2;
  /// Checker fixed load-to-use latency (values arrive from the log).
  Cycle checker_load_latency = 1;
  /// Pipeline squash + restore penalty on a detected mismatch (both cores).
  Cycle rollback_penalty = 60;

  /// This object, or std::invalid_argument unless log_entries >= 1 and
  /// checker_width >= 1 (either at zero stalls the group forever).
  const HeteroParams& validated() const;
};

class HeteroCheckerSystem final : public System {
 public:
  HeteroCheckerSystem(const SystemConfig& config, const HeteroParams& params,
                      const workload::InstStream& stream);

  /// Heterogeneous multiprogramming: one stream per thread.
  HeteroCheckerSystem(const SystemConfig& config, const HeteroParams& params,
                      const std::vector<const workload::InstStream*>& streams);

  // Cycle-loop phases: one asymmetric leader+checker group per thread.
  // Only the leader is a registered core, so progress and the fault
  // channel are the leader's; the member hooks cover the checker too.
  std::size_t member_count(std::size_t) const override { return 2; }
  bool member_finished(std::size_t g, std::size_t m) const override;
  void member_tick(std::size_t g, std::size_t m, Cycle now) override;
  Cycle member_next_event(std::size_t g, std::size_t m,
                          Cycle now) const override;
  void member_skip_cycles(std::size_t g, std::size_t m, Cycle from,
                          Cycle to) override;
  void on_error(std::size_t g, Cycle now, engine::RunResult& acc) override;
  Cycle next_event(std::size_t g, Cycle now) const override;
  void finish(engine::RunResult& r) const override;

  const char* ckpt_tag() const override { return "HTRO"; }
  void visit_policy_state(ckpt::Archive& ar) override;

 protected:
  void publish_extra_metrics() override;
  void register_avf(fault::AvfCollector& collector) override;

 private:
  struct Group;

  /// Leader commit hooks: every logged-class instruction needs a log slot
  /// at commit; stores enter the log instead of the memory hierarchy.
  class LeaderEnv final : public cpu::CommitEnv {
   public:
    LeaderEnv(HeteroCheckerSystem* sys, Group* group)
        : sys_(sys), group_(group) {}
    bool can_commit(CoreId core, const workload::DynOp& op,
                    Cycle now) override;
    bool on_store_commit(CoreId core, const workload::DynOp& op,
                         Cycle now) override;
    void on_commit(CoreId core, const workload::DynOp& op, Cycle now) override;

   private:
    HeteroCheckerSystem* sys_;
    Group* group_;
  };

  /// Checker commit hooks: a logged-class instruction may commit only once
  /// the leader's matching entry is in the log; consuming it advances the
  /// verified watermark and releases verified stores to memory.
  class CheckerEnv final : public cpu::CommitEnv {
   public:
    CheckerEnv(HeteroCheckerSystem* sys, Group* group)
        : sys_(sys), group_(group) {}
    bool can_commit(CoreId core, const workload::DynOp& op,
                    Cycle now) override;
    void on_commit(CoreId core, const workload::DynOp& op, Cycle now) override;

   private:
    HeteroCheckerSystem* sys_;
    Group* group_;
  };

  struct Group {
    std::unique_ptr<cpu::OooCore> leader;
    std::unique_ptr<cpu::InOrderCore> checker;
    std::unique_ptr<cpu::CheckLog> log;
    std::unique_ptr<LeaderEnv> leader_env;
    std::unique_ptr<CheckerEnv> checker_env;
    /// A strike on the leader, latent until the checker verifies past it.
    bool fault_pending = false;
    SeqNum fault_position = 0;
    Cycle fault_cycle = 0;
    // Counters.
    std::uint64_t log_full_stalls = 0;
    std::uint64_t detections = 0;
    std::uint64_t detection_latency_total = 0;
  };

  static bool logged_class(const workload::DynOp& op) {
    return op.is_load() || op.is_store() || op.is_branch();
  }

  HeteroParams params_;
  std::vector<std::unique_ptr<Group>> groups_;
};

}  // namespace unsync::core
