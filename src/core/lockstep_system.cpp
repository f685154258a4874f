#include "core/lockstep_system.hpp"

namespace unsync::core {

bool LockstepSystem::LockstepEnv::can_commit(CoreId core,
                                             const workload::DynOp& op,
                                             Cycle now) {
  (void)core;
  (void)now;
  // Tight coupling: neither core may retire past its partner by more than
  // one commit group.
  const auto& other = *pair_->core[1 - side_];
  if (op.seq >= other.retired() + sys_->params_.max_skew) {
    ++pair_->lockstep_stalls;
    return false;
  }
  return true;
}

bool LockstepSystem::LockstepEnv::on_store_commit(CoreId core,
                                                  const workload::DynOp& op,
                                                  Cycle now) {
  return sys_->store_buffer_commit(pair_->store_buffer[side_], core,
                                   op.mem_addr, now);
}

LockstepSystem::LockstepSystem(const SystemConfig& config,
                               const LockstepParams& params,
                               const workload::InstStream& stream)
    : LockstepSystem(config, params,
                     engine::replicate(stream, config.num_threads)) {}

LockstepSystem::LockstepSystem(
    const SystemConfig& config, const LockstepParams& params,
    const std::vector<const workload::InstStream*>& streams)
    : System("lockstep", config, streams, 2, config.mem), params_(params) {
  cpu::CoreConfig core_cfg = config_.core;
  core_cfg.extra_load_latency = params_.load_check_latency;
  for (unsigned t = 0; t < config_.num_threads; ++t) {
    auto pair = std::make_unique<Pair>();
    for (unsigned side = 0; side < 2; ++side) {
      pair->env[side] = std::make_unique<LockstepEnv>(this, pair.get(), side);
      pair->core[side] = std::make_unique<cpu::OooCore>(
          t * 2 + side, core_cfg, &memory_, member_stream(t),
          pair->env[side].get());
      register_core(*pair->core[side]);
    }
    pairs_.push_back(std::move(pair));
  }
}

void LockstepSystem::on_error(std::size_t g, Cycle now,
                              engine::RunResult& acc) {
  if (!arrival_pending(g)) return;
  const SeqNum position = arrivals_[g].take();
  // Lock-step sees the divergence the cycle it occurs; recovery is a
  // flush + instruction retry on both cores.
  const Cycle resume_at = now + params_.resync_penalty;
  const auto struck = static_cast<unsigned>(rng_.below(2));
  engine::record_error(acc, tracer_,
                       {.cycle = now, .position = position,
                        .thread = static_cast<unsigned>(g),
                        .struck_core = struck, .cost = params_.resync_penalty,
                        .rollback = false},
                       position);
  for (unsigned side = 0; side < 2; ++side) {
    pairs_[g]->core[side]->stall_until(resume_at);
  }
}

void LockstepSystem::finish(engine::RunResult& r) const {
  System::finish(r);
  for (const auto& pair : pairs_) {
    r.fingerprint_syncs += pair->lockstep_stalls;  // repurposed: sync stalls
  }
}

}  // namespace unsync::core
