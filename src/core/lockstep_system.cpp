#include "core/lockstep_system.hpp"

#include <algorithm>
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
  return store_buffer_commit(sys_->memory_, pair_->store_buffer[side_], core,
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
    : System(config.num_threads, config.avf),
      config_(config),
      params_(params),
      thread_lengths_(engine::lengths_of(streams)),
      memory_(config.mem, config.num_threads * 2),
      rng_(config.seed) {
  if (streams.size() != config_.num_threads) {
    throw std::invalid_argument("LockstepSystem: need one stream per thread");
  }
  engine::prewarm_from(memory_, streams);
  cpu::CoreConfig core_cfg = config_.core;
  core_cfg.extra_load_latency = params_.load_check_latency;
  for (unsigned t = 0; t < config_.num_threads; ++t) {
    auto pair = std::make_unique<Pair>();
    pair->store_buffer.resize(2);
    for (unsigned side = 0; side < 2; ++side) {
      pair->env[side] = std::make_unique<LockstepEnv>(this, pair.get(), side);
      pair->core[side] = std::make_unique<cpu::OooCore>(
          t * 2 + side, core_cfg, &memory_, streams[t]->clone(),
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

void LockstepSystem::on_error(std::size_t g, Cycle now,
                              engine::RunResult& acc) {
  Pair& pair = *pairs_[g];
  const SeqNum progress =
      std::max(pair.core[0]->retired(), pair.core[1]->retired());
  if (!pair.arrivals.pending(progress)) return;
  const SeqNum position = pair.arrivals.take();
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
    pair.core[side]->stall_until(resume_at);
  }
}

Cycle LockstepSystem::next_event(std::size_t g, Cycle now) const {
  const Pair& pair = *pairs_[g];
  const Cycle cand = members_next_event(g, now);
  if (cand <= now) return now;
  const SeqNum progress =
      std::max(pair.core[0]->retired(), pair.core[1]->retired());
  if (pair.arrivals.pending(progress)) return now;
  return cand;
}

void LockstepSystem::finish(engine::RunResult& r) const {
  for (const auto& pair : pairs_) {
    for (unsigned side = 0; side < 2; ++side) {
      r.core_stats.push_back(pair->core[side]->stats());
    }
    r.fingerprint_syncs += pair->lockstep_stalls;  // repurposed: sync stalls
  }
}

std::vector<SeqNum> LockstepSystem::group_progress() const {
  std::vector<SeqNum> p;
  p.reserve(pairs_.size());
  for (const auto& pair : pairs_) {
    p.push_back(std::max(pair->core[0]->retired(), pair->core[1]->retired()));
  }
  return p;
}

}  // namespace unsync::core
