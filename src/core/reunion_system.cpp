#include "core/reunion_system.hpp"

#include <algorithm>
#include <cassert>

namespace unsync::core {

namespace {
constexpr Cycle kNever = ~Cycle{0};
}  // namespace

// ---- Fingerprint bookkeeping ------------------------------------------------

void ReunionSystem::prune_verified(Pair& pair, Cycle now) {
  while (!pair.fingerprints.empty()) {
    const Fingerprint& front = pair.fingerprints.front();
    if (!(front.closed[0] && front.closed[1]) || front.verify_done > now) {
      break;
    }
    assert(front.count[0] == front.count[1] &&
           "redundant cores must close identical intervals");
    pair.verified_watermark[0] += front.count[0];
    pair.verified_watermark[1] += front.count[1];
    pair.fingerprints.pop_front();
  }
}

void ReunionSystem::close_side(Pair& pair, Fingerprint& fp, unsigned side,
                               Cycle now) {
  fp.closed[side] = true;
  fp.closed_at[side] = now;
  if (fp.closed[0] && fp.closed[1]) {
    fp.verify_done =
        std::max(fp.closed_at[0], fp.closed_at[1]) + params_.compare_latency;
  }
  (void)pair;
}

std::uint64_t ReunionSystem::unverified_insts(const Pair& pair, unsigned side,
                                              Cycle now) const {
  (void)now;
  std::uint64_t n = 0;
  for (const auto& fp : pair.fingerprints) n += fp.count[side];
  return n;
}

// ---- Commit environment -----------------------------------------------------

bool ReunionSystem::ReunionEnv::can_commit(CoreId core,
                                           const workload::DynOp& op,
                                           Cycle now) {
  (void)core;
  Pair& pair = *pair_;
  sys_->prune_verified(pair, now);

  if (op.is_serializing()) {
    // Find (or open) the synchronisation record for this instruction.
    SerializeSync* found = nullptr;
    for (auto& s : pair.serialize_queue) {
      if (s.seq == op.seq) {
        found = &s;
        break;
      }
    }
    if (found == nullptr) {
      pair.serialize_queue.emplace_back();
      found = &pair.serialize_queue.back();
      found->seq = op.seq;
    }
    SerializeSync& sync = *found;
    if (!sync.requested[side_]) {
      sync.requested[side_] = true;
      sync.request_at[side_] = now;
      // Force-close this side's forming interval so everything older can
      // verify (the pipeline "stalls till the fingerprint including the
      // serializing instruction is verified").
      for (auto& fp : pair.fingerprints) {
        if (!fp.closed[side_] && fp.count[side_] > 0) {
          sys_->close_side(pair, fp, side_, now);
        }
      }
    }
    if (!(sync.requested[0] && sync.requested[1])) return false;
    if (sync.ready_at == kNever) {
      // Both cores arrived: everything outstanding must verify, then one
      // extra comparison round covers the serializing instruction itself.
      Cycle last = std::max(sync.request_at[0], sync.request_at[1]);
      for (const auto& fp : pair.fingerprints) {
        if (!(fp.closed[0] && fp.closed[1])) return false;  // still filling
        last = std::max(last, fp.verify_done);
      }
      sync.ready_at = last + sys_->params_.compare_latency;
      ++pair.serializing_syncs;
      if (sys_->tracer_.enabled()) {
        sys_->tracer_.emit({.kind = obs::TraceKind::kFingerprintSync,
                            .cycle = now,
                            .thread = static_cast<std::uint32_t>(core / 2),
                            .core = static_cast<std::uint32_t>(core),
                            .seq = op.seq,
                            .addr = 0,
                            .value = sync.ready_at - now});
      }
    }
    return now >= sync.ready_at;
  }

  // Regular instruction: the CHECK-stage buffer must have room for one
  // more committed-but-unverified instruction (§IV-A.3).
  return sys_->unverified_insts(pair, side_, now) <
         sys_->params_.effective_csb_entries();
}

bool ReunionSystem::ReunionEnv::on_store_commit(CoreId core,
                                                const workload::DynOp& op,
                                                Cycle now) {
  return sys_->store_buffer_commit(pair_->store_buffer[side_], core,
                                   op.mem_addr, now);
}

void ReunionSystem::ReunionEnv::on_commit(CoreId core,
                                          const workload::DynOp& op,
                                          Cycle now) {
  (void)core;
  Pair& pair = *pair_;

  // Find (or open) this side's forming interval.
  Fingerprint* forming = nullptr;
  for (auto& fp : pair.fingerprints) {
    if (!fp.closed[side_]) {
      forming = &fp;
      break;
    }
  }
  if (forming == nullptr) {
    pair.fingerprints.emplace_back();
    forming = &pair.fingerprints.back();
  }

  ++forming->count[side_];
  if (op.is_serializing()) {
    // The serializing instruction closes its own (verified) interval.
    sys_->close_side(pair, *forming, side_, now);
    // Its synchronisation round already completed in can_commit; the
    // closing comparison is accounted there. Mark it pre-verified.
    if (forming->closed[0] && forming->closed[1]) {
      forming->verify_done = std::min(forming->verify_done, now);
    }
    for (auto it = pair.serialize_queue.begin();
         it != pair.serialize_queue.end(); ++it) {
      if (it->seq == op.seq) {
        it->committed[side_] = true;
        if (it->committed[0] && it->committed[1]) {
          pair.serialize_queue.erase(it);
        }
        break;
      }
    }
  } else if (forming->count[side_] >= sys_->effective_fi()) {
    sys_->close_side(pair, *forming, side_, now);
  }
}

std::uint32_t ReunionSystem::ReunionEnv::reserved_rob_slots(CoreId core,
                                                            Cycle now) {
  (void)core;
  sys_->prune_verified(*pair_, now);
  // Committed-but-unverified instructions keep their ROB slots (§IV-A.5).
  const std::uint64_t held = sys_->unverified_insts(*pair_, side_, now);
  return static_cast<std::uint32_t>(
      std::min<std::uint64_t>(held, sys_->config_.core.rob_entries));
}

std::uint32_t ReunionSystem::ReunionEnv::reserved_rob_slots_at(
    CoreId core, Cycle now) const {
  (void)core;
  // What reserved_rob_slots(now) would return: skip the front prefix
  // prune_verified would pop (both-closed, verified by now), count the rest.
  std::uint64_t held = 0;
  bool pruning = true;
  for (const auto& fp : pair_->fingerprints) {
    if (pruning && fp.closed[0] && fp.closed[1] && fp.verify_done <= now) {
      continue;
    }
    pruning = false;
    held += fp.count[side_];
  }
  return static_cast<std::uint32_t>(
      std::min<std::uint64_t>(held, sys_->config_.core.rob_entries));
}

Cycle ReunionSystem::ReunionEnv::next_state_change(CoreId core,
                                                   Cycle now) const {
  (void)core;
  // Reserved slots shrink (without any core acting) exactly when a pending
  // verification completes. Both-closed fingerprints form a front prefix
  // with nondecreasing verify_done, so the earliest future change is the
  // first one still pending. A not-yet-closed front fingerprint can only
  // close through a partner-core commit — a core event the cycle loop
  // already bounds the window by.
  for (const auto& fp : pair_->fingerprints) {
    if (!(fp.closed[0] && fp.closed[1])) break;
    if (fp.verify_done > now) return fp.verify_done;
  }
  return kNever;
}

// ---- System -----------------------------------------------------------------

ReunionSystem::ReunionSystem(const SystemConfig& config,
                             const ReunionParams& params,
                             const workload::InstStream& stream)
    : ReunionSystem(config, params,
                    engine::replicate(stream, config.num_threads)) {}

ReunionSystem::ReunionSystem(
    const SystemConfig& config, const ReunionParams& params,
    const std::vector<const workload::InstStream*>& streams)
    : System("reunion", config, streams, 2, config.mem),
      params_(params),
      plan_(fault::reunion_plan()),
      effective_fi_(std::min(
          params.fingerprint_interval,
          std::max(1u, config.core.rob_entries - config.core.commit_width))) {
  for (unsigned t = 0; t < config_.num_threads; ++t) {
    auto pair = std::make_unique<Pair>();
    for (unsigned side = 0; side < 2; ++side) {
      const CoreId core_id = t * 2 + side;
      pair->env[side] = std::make_unique<ReunionEnv>(this, pair.get(), side);
      pair->core[side] = std::make_unique<cpu::OooCore>(
          core_id, config_.core, &memory_, member_stream(t),
          pair->env[side].get());
      register_core(*pair->core[side]);
    }
    pairs_.push_back(std::move(pair));
  }
}

void ReunionSystem::on_error(std::size_t g, Cycle now,
                             engine::RunResult& acc) {
  if (!arrival_pending(g)) return;
  const SeqNum position = arrivals_[g].take();
  Pair& pair = *pairs_[g];
  const auto thread = static_cast<unsigned>(g);

  // The corrupted fingerprint mismatches at the next comparison; both cores
  // squash and resume from the last verified fingerprint boundary,
  // re-executing everything since (checkpoint rollback).
  const SeqNum target =
      std::min(pair.verified_watermark[0], pair.verified_watermark[1]);
  const Cycle resume_at = now + params_.rollback_penalty;
  const auto struck = static_cast<unsigned>(rng_.below(2));
  engine::record_error(acc, tracer_,
                       {.cycle = now, .position = position, .thread = thread,
                        .struck_core = struck, .cost = params_.rollback_penalty,
                        .rollback = true},
                       target);
  for (unsigned side = 0; side < 2; ++side) {
    pair.core[side]->set_position(target);
    pair.core[side]->stall_until(resume_at);
  }
  pair.fingerprints.clear();
  pair.serialize_queue.clear();
}

void ReunionSystem::finish(engine::RunResult& r) const {
  System::finish(r);
  for (const auto& pair : pairs_) {
    r.fingerprint_syncs += pair->serializing_syncs;
  }
}

}  // namespace unsync::core
