#include "core/baseline.hpp"

#include <stdexcept>

namespace unsync::core {

bool BaselineSystem::StoreBufferEnv::on_store_commit(CoreId core,
                                                     const workload::DynOp& op,
                                                     Cycle now) {
  if (in_flight_.size() <= core) in_flight_.resize(core + 1);
  auto& buf = in_flight_[core];
  std::erase_if(buf, [now](Cycle done) { return done <= now; });
  if (buf.size() >= entries_) return false;
  buf.push_back(memory_->store_writeback(core, op.mem_addr, now).done);
  return true;
}

BaselineSystem::BaselineSystem(const SystemConfig& config,
                               const workload::InstStream& stream)
    : BaselineSystem(config, engine::replicate(stream, config.num_threads)) {}

BaselineSystem::BaselineSystem(
    const SystemConfig& config,
    const std::vector<const workload::InstStream*>& streams)
    : System(config.num_threads, config.fast_forward, config.avf),
      config_(config),
      thread_lengths_(engine::lengths_of(streams)),
      memory_(config.mem, config.num_threads),
      env_(&memory_, kStoreBufferEntries) {
  if (streams.size() != config.num_threads) {
    throw std::invalid_argument("BaselineSystem: need one stream per thread");
  }
  engine::prewarm_from(memory_, streams);
  for (unsigned t = 0; t < config.num_threads; ++t) {
    cores_.push_back(std::make_unique<cpu::OooCore>(
        t, config.core, &memory_, streams[t]->clone(), &env_));
    register_core(*cores_.back());
  }
  engine::RunResult& acc = kernel_.result();
  acc.system = name_;
  acc.thread_instructions = thread_lengths_;
  acc.instructions = engine::max_length(thread_lengths_);
}

void BaselineSystem::finish(engine::RunResult& r) const {
  for (const auto& core : cores_) r.core_stats.push_back(core->stats());
}

std::vector<SeqNum> BaselineSystem::group_progress() const {
  std::vector<SeqNum> p;
  p.reserve(cores_.size());
  for (const auto& core : cores_) p.push_back(core->retired());
  return p;
}

}  // namespace unsync::core
