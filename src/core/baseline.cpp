#include "core/baseline.hpp"

namespace unsync::core {

bool BaselineSystem::StoreBufferEnv::on_store_commit(CoreId core,
                                                     const workload::DynOp& op,
                                                     Cycle now) {
  if (in_flight_.size() <= core) in_flight_.resize(core + 1);
  return sys_->store_buffer_commit(in_flight_[core], core, op.mem_addr, now);
}

BaselineSystem::BaselineSystem(const SystemConfig& config,
                               const workload::InstStream& stream)
    : BaselineSystem(config, engine::replicate(stream, config.num_threads)) {}

BaselineSystem::BaselineSystem(
    const SystemConfig& config,
    const std::vector<const workload::InstStream*>& streams)
    : System("baseline", config, streams, 1, config.mem,
             /*error_process=*/false),
      env_(this) {
  for (unsigned t = 0; t < config.num_threads; ++t) {
    cores_.push_back(std::make_unique<cpu::OooCore>(
        t, config.core, &memory_, member_stream(t), &env_));
    register_core(*cores_.back());
  }
}

}  // namespace unsync::core
