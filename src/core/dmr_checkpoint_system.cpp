#include "core/dmr_checkpoint_system.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "core/baseline.hpp"
#include "fault/ser.hpp"

namespace unsync::core {

namespace {

/// Shared write-back store-buffer behaviour (same as the baseline CMP).
bool store_buffer_commit(mem::MemoryHierarchy& memory,
                         std::vector<Cycle>& buffer, CoreId core, Addr addr,
                         Cycle now) {
  std::erase_if(buffer, [now](Cycle done) { return done <= now; });
  if (buffer.size() >= kStoreBufferEntries) return false;
  buffer.push_back(memory.store_writeback(core, addr, now).done);
  return true;
}

}  // namespace

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
  return store_buffer_commit(sys_->memory_, pair_->store_buffer[side_], core,
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
    : System(config.num_threads, config.fast_forward, config.avf),
      config_(config),
      params_(params),
      thread_lengths_(engine::lengths_of(streams)),
      memory_(config.mem, config.num_threads * 2),
      rng_(config.seed) {
  assert(params_.checkpoint_interval > 0);
  if (streams.size() != config_.num_threads) {
    throw std::invalid_argument(
        "DmrCheckpointSystem: need one stream per thread");
  }
  engine::prewarm_from(memory_, streams);
  for (unsigned t = 0; t < config_.num_threads; ++t) {
    auto pair = std::make_unique<Pair>();
    pair->store_buffer.resize(2);
    pair->next_boundary = params_.checkpoint_interval;
    for (unsigned side = 0; side < 2; ++side) {
      pair->env[side] =
          std::make_unique<CheckpointEnv>(this, pair.get(), side);
      pair->core[side] = std::make_unique<cpu::OooCore>(
          t * 2 + side, config_.core, &memory_, streams[t]->clone(),
          pair->env[side].get());
      register_core(*pair->core[side]);
    }
    pair->arrivals.positions = fault::schedule_arrivals(
        config_.ser_per_inst, thread_lengths_[t], rng_);
    pairs_.push_back(std::move(pair));
  }
  engine::RunResult& acc = kernel_.result();
  acc.system = name_;
  acc.thread_instructions = thread_lengths_;
  acc.instructions = engine::max_length(thread_lengths_);
}

void DmrCheckpointSystem::member_tick(std::size_t g, std::size_t m,
                                      Cycle now) {
  auto& core = *pairs_[g]->core[m];
  if (!core.done()) core.tick(now);
}

Cycle DmrCheckpointSystem::member_next_event(std::size_t g, std::size_t m,
                                             Cycle now) const {
  return pairs_[g]->core[m]->next_event(now);
}

void DmrCheckpointSystem::member_skip_cycles(std::size_t g, std::size_t m,
                                             Cycle from, Cycle to) {
  auto& core = *pairs_[g]->core[m];
  if (!core.done()) core.skip_cycles(from, to);
}

void DmrCheckpointSystem::on_error(std::size_t g, Cycle now,
                                   engine::RunResult& acc) {
  Pair& pair = *pairs_[g];
  const SeqNum progress =
      std::max(pair.core[0]->retired(), pair.core[1]->retired());
  if (!pair.arrivals.pending(progress)) return;
  const SeqNum position = pair.arrivals.take();
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

Cycle DmrCheckpointSystem::next_event(std::size_t g, Cycle now) const {
  const Pair& pair = *pairs_[g];
  const Cycle cand = members_next_event(g, now);
  if (cand <= now) return now;
  const SeqNum progress =
      std::max(pair.core[0]->retired(), pair.core[1]->retired());
  if (pair.arrivals.pending(progress)) return now;
  return cand;
}

void DmrCheckpointSystem::finish(engine::RunResult& r) const {
  for (const auto& pair : pairs_) {
    for (unsigned side = 0; side < 2; ++side) {
      r.core_stats.push_back(pair->core[side]->stats());
    }
  }
}

void DmrCheckpointSystem::publish_extra_metrics() {
  if (!metrics_) return;
  metrics_->set_counter(name_ + ".checkpoints_taken", checkpoints_taken_);
}

std::vector<SeqNum> DmrCheckpointSystem::group_progress() const {
  std::vector<SeqNum> p;
  p.reserve(pairs_.size());
  for (const auto& pair : pairs_) {
    p.push_back(std::max(pair->core[0]->retired(), pair->core[1]->retired()));
  }
  return p;
}

}  // namespace unsync::core
