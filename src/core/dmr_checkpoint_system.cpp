#include "core/dmr_checkpoint_system.hpp"

#include <algorithm>
#include <stdexcept>

namespace unsync::core {

const CheckpointParams& CheckpointParams::validated() const {
  if (checkpoint_interval < 1) {
    throw std::invalid_argument(
        "dmr-checkpoint: checkpoint interval must be >= 1");
  }
  return *this;
}

bool DmrCheckpointSystem::CheckpointEnv::can_commit(CoreId core,
                                                    const workload::DynOp& op,
                                                    Cycle now) {
  (void)core;
  Pair& p = *pair_;
  if (op.seq < p.next_boundary) return true;

  // This core reached the checkpoint boundary: wait for the partner, then
  // the (heavyweight) capture + hash comparison.
  if (!p.reached[side_]) {
    p.reached[side_] = true;
    p.reached_at[side_] = now;
  }
  if (!(p.reached[0] && p.reached[1])) return false;
  if (p.checkpoint_done == 0) {
    p.checkpoint_done = std::max(p.reached_at[0], p.reached_at[1]) +
                        sys_->params_.checkpoint_cost +
                        sys_->params_.compare_latency;
    ++sys_->checkpoints_taken_;
    if (sys_->tracer_.enabled()) {
      sys_->tracer_.emit({.kind = obs::TraceKind::kCheckpoint,
                          .cycle = now,
                          .thread = static_cast<std::uint32_t>(core / 2),
                          .core = static_cast<std::uint32_t>(core),
                          .seq = p.next_boundary,
                          .addr = 0,
                          .value = p.checkpoint_done - now});
    }
  }
  if (now < p.checkpoint_done) return false;

  // Checkpoint committed: open the next epoch.
  p.last_committed_boundary = p.next_boundary;
  p.next_boundary += sys_->params_.checkpoint_interval;
  p.reached[0] = p.reached[1] = false;
  p.checkpoint_done = 0;
  return true;
}

bool DmrCheckpointSystem::CheckpointEnv::on_store_commit(
    CoreId core, const workload::DynOp& op, Cycle now) {
  return sys_->store_buffer_commit(pair_->store_buffer[side_], core,
                                   op.mem_addr, now);
}

DmrCheckpointSystem::DmrCheckpointSystem(const SystemConfig& config,
                                         const CheckpointParams& params,
                                         const workload::InstStream& stream)
    : DmrCheckpointSystem(config, params,
                          engine::replicate(stream, config.num_threads)) {}

DmrCheckpointSystem::DmrCheckpointSystem(
    const SystemConfig& config, const CheckpointParams& params,
    const std::vector<const workload::InstStream*>& streams)
    : System("dmr-checkpoint", config, streams, 2, config.mem),
      params_(params.validated()) {
  for (unsigned t = 0; t < config_.num_threads; ++t) {
    auto pair = std::make_unique<Pair>();
    pair->next_boundary = params_.checkpoint_interval;
    for (unsigned side = 0; side < 2; ++side) {
      pair->env[side] =
          std::make_unique<CheckpointEnv>(this, pair.get(), side);
      pair->core[side] = std::make_unique<cpu::OooCore>(
          t * 2 + side, config_.core, &memory_, member_stream(t),
          pair->env[side].get());
      register_core(*pair->core[side]);
    }
    pairs_.push_back(std::move(pair));
  }
}

void DmrCheckpointSystem::on_error(std::size_t g, Cycle now,
                                   engine::RunResult& acc) {
  if (!arrival_pending(g)) return;
  const SeqNum position = arrivals_[g].take();
  Pair& pair = *pairs_[g];
  // The mismatch surfaces at the next checkpoint hash; both cores restore
  // the previous checkpoint (heavyweight) and re-execute the whole epoch.
  const Cycle resume_at = now + params_.restore_cost;
  const auto struck = static_cast<unsigned>(rng_.below(2));
  engine::record_error(acc, tracer_,
                       {.cycle = now, .position = position,
                        .thread = static_cast<unsigned>(g),
                        .struck_core = struck, .cost = params_.restore_cost,
                        .rollback = true},
                       pair.last_committed_boundary);
  for (unsigned side = 0; side < 2; ++side) {
    pair.core[side]->set_position(pair.last_committed_boundary);
    pair.core[side]->stall_until(resume_at);
  }
  pair.next_boundary =
      pair.last_committed_boundary + params_.checkpoint_interval;
  pair.reached[0] = pair.reached[1] = false;
  pair.checkpoint_done = 0;
}

void DmrCheckpointSystem::publish_extra_metrics() {
  metrics_->set_counter(name_ + ".checkpoints_taken", checkpoints_taken_);
}

}  // namespace unsync::core
