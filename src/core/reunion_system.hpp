// The Reunion architecture (Smolens et al., MICRO'06), as analysed by the
// paper's §IV — the comparison baseline for every UnSync experiment.
//
// Each thread runs on a vocal/mute core pair with write-back, SECDED-
// protected L1s. Every `fingerprint_interval` committed instructions the
// core closes a CRC-16 fingerprint over its architectural updates; the pair
// exchanges and compares fingerprints, which takes `compare_latency` cycles
// after BOTH cores have closed the interval. Until a fingerprint verifies:
//   * its instructions stay in the CHECK-stage buffer and keep their ROB
//     slots occupied (§IV-A.5 — this is the Figure 5 pressure), and
//   * at most two fingerprints may be outstanding (one comparing, one
//     forming), so commit stalls when a third would be needed.
// Serializing instructions force the pair to synchronise: the open interval
// closes early, all outstanding fingerprints must verify, and one extra
// comparison round covering the serializing instruction completes before it
// may commit (§IV-A.5 — the Figure 4 overhead).
//
// A detected mismatch (soft error) triggers rollback: both cores squash and
// re-execute from the last verified fingerprint boundary.
#pragma once

#include <deque>
#include <memory>
#include <vector>

#include "core/system.hpp"
#include "fault/protection.hpp"
#include "workload/dyn_op.hpp"

namespace unsync::core {

struct ReunionParams {
  /// Fingerprint interval in instructions (paper Table II / Fig. 4 use 10).
  unsigned fingerprint_interval = 10;
  /// Cycles to exchange + compare a closed fingerprint between the cores.
  Cycle compare_latency = 10;
  /// CHECK-stage buffer capacity in instructions: 0 = provision for the
  /// configuration, FI + latency + 1 — which yields exactly the paper's 17
  /// entries at FI=10 with the 6-cycle minimum comparison latency. Commit
  /// stalls when this many committed instructions are still unverified.
  unsigned csb_entries = 0;
  /// Pipeline squash + refill penalty on rollback.
  Cycle rollback_penalty = 20;

  unsigned effective_csb_entries() const {
    const unsigned provisioned =
        csb_entries != 0 ? csb_entries
                         : fingerprint_interval +
                               static_cast<unsigned>(compare_latency) + 1;
    // The CSB must hold at least one full interval plus the instruction
    // that closes it, or a fingerprint could never complete (a deadlock no
    // real design would ship).
    return provisioned > fingerprint_interval + 1 ? provisioned
                                                  : fingerprint_interval + 1;
  }
};

class ReunionSystem final : public System {
 public:
  ReunionSystem(const SystemConfig& config, const ReunionParams& params,
                const workload::InstStream& stream);

  /// Heterogeneous multiprogramming: one stream per thread.
  ReunionSystem(const SystemConfig& config, const ReunionParams& params,
                const std::vector<const workload::InstStream*>& streams);

  const fault::ProtectionPlan& plan() const { return plan_; }

  // SystemPolicy phases: one vocal/mute pair per thread.
  void on_error(std::size_t g, Cycle now, engine::RunResult& acc) override;
  void finish(engine::RunResult& r) const override;

  const char* ckpt_tag() const override { return "REUN"; }
  void visit_policy_state(ckpt::Archive& ar) override;

 private:
  struct Pair;

  /// One closed-or-forming fingerprint of a pair.
  struct Fingerprint {
    std::uint64_t count[2] = {0, 0};  ///< instructions folded in, per side
    bool closed[2] = {false, false};
    Cycle closed_at[2] = {0, 0};
    Cycle verify_done = ~Cycle{0};    ///< set once both sides closed
  };

  /// Cross-core synchronisation state for one serializing instruction.
  /// A queue is required: the core that commits a serializing instruction
  /// first can reach the *next* one while its partner is still completing
  /// the previous sync.
  struct SerializeSync {
    SeqNum seq = kNoSeq;
    bool requested[2] = {false, false};
    bool committed[2] = {false, false};
    Cycle request_at[2] = {0, 0};
    Cycle ready_at = ~Cycle{0};
  };

  class ReunionEnv final : public cpu::CommitEnv {
   public:
    ReunionEnv(ReunionSystem* sys, Pair* pair, unsigned side)
        : sys_(sys), pair_(pair), side_(side) {}

    bool can_commit(CoreId core, const workload::DynOp& op,
                    Cycle now) override;
    bool on_store_commit(CoreId core, const workload::DynOp& op,
                         Cycle now) override;
    void on_commit(CoreId core, const workload::DynOp& op, Cycle now) override;
    std::uint32_t reserved_rob_slots(CoreId core, Cycle now) override;

    // Fast-forward planning views (const): emulate the front-gated
    // prune_verified catch-up without mutating it.
    std::uint32_t reserved_rob_slots_at(CoreId core, Cycle now) const override;
    Cycle next_state_change(CoreId core, Cycle now) const override;

   private:
    ReunionSystem* sys_;
    Pair* pair_;
    unsigned side_;
  };

  struct Pair {
    std::unique_ptr<cpu::OooCore> core[2];
    std::unique_ptr<ReunionEnv> env[2];
    std::deque<Fingerprint> fingerprints;  // oldest first; back may be open
    std::deque<SerializeSync> serialize_queue;
    std::vector<Cycle> store_buffer[2];  // per side: completion times
    std::uint64_t serializing_syncs = 0;
    /// Commit watermark of the last fully verified fingerprint, per side
    /// (rollback target).
    SeqNum verified_watermark[2] = {0, 0};
  };

  void prune_verified(Pair& pair, Cycle now);
  void close_side(Pair& pair, Fingerprint& fp, unsigned side, Cycle now);

  /// Fingerprint interval actually applied: committed-but-unverified
  /// instructions hold ROB slots, so an interval longer than the window
  /// would wedge the pipeline — hardware must close the fingerprint before
  /// the ROB jams. Clamped once at construction so both cores close at
  /// identical instruction positions.
  unsigned effective_fi() const { return effective_fi_; }
  std::uint64_t unverified_insts(const Pair& pair, unsigned side,
                                 Cycle now) const;

  ReunionParams params_;
  fault::ProtectionPlan plan_;
  std::vector<std::unique_ptr<Pair>> pairs_;
  unsigned effective_fi_ = 10;
};

}  // namespace unsync::core
