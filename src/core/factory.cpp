#include "core/factory.hpp"

#include "core/baseline.hpp"

namespace unsync::core {

const char* name_of(SystemKind kind) {
  switch (kind) {
    case SystemKind::kBaseline: return "baseline";
    case SystemKind::kUnSync: return "unsync";
    case SystemKind::kReunion: return "reunion";
    case SystemKind::kLockstep: return "lockstep";
    case SystemKind::kCheckpoint: return "checkpoint";
    case SystemKind::kHetero: return "hetero";
  }
  return "?";
}

std::optional<SystemKind> parse_system(const std::string& name) {
  if (name == "baseline") return SystemKind::kBaseline;
  if (name == "unsync") return SystemKind::kUnSync;
  if (name == "reunion") return SystemKind::kReunion;
  if (name == "lockstep") return SystemKind::kLockstep;
  if (name == "checkpoint") return SystemKind::kCheckpoint;
  if (name == "hetero") return SystemKind::kHetero;
  return std::nullopt;
}

namespace {

// Both overloads share this one switch — the only construction site.
template <typename Workload>
std::unique_ptr<System> construct(SystemKind kind, const SystemConfig& config,
                                  const Workload& workload,
                                  const SystemParams& params) {
  switch (kind) {
    case SystemKind::kBaseline:
      return std::make_unique<BaselineSystem>(config, workload);
    case SystemKind::kUnSync:
      return std::make_unique<UnSyncSystem>(config, params.unsync, workload);
    case SystemKind::kReunion:
      return std::make_unique<ReunionSystem>(config, params.reunion, workload);
    case SystemKind::kLockstep:
      return std::make_unique<LockstepSystem>(config, params.lockstep,
                                              workload);
    case SystemKind::kCheckpoint:
      return std::make_unique<DmrCheckpointSystem>(config, params.checkpoint,
                                                   workload);
    case SystemKind::kHetero:
      return std::make_unique<HeteroCheckerSystem>(config, params.hetero,
                                                   workload);
  }
  return nullptr;  // unreachable: the switch covers every kind
}

}  // namespace

std::unique_ptr<System> make_system(SystemKind kind,
                                    const SystemConfig& config,
                                    const workload::InstStream& stream,
                                    const SystemParams& params) {
  return construct(kind, config, stream, params);
}

std::unique_ptr<System> make_system(
    SystemKind kind, const SystemConfig& config,
    const std::vector<const workload::InstStream*>& streams,
    const SystemParams& params) {
  return construct(kind, config, streams, params);
}

std::unique_ptr<engine::SimModel> make_model(SystemKind kind,
                                             const SystemConfig& config,
                                             const workload::InstStream& stream,
                                             const SystemParams& params) {
  return make_system(kind, config, stream, params);
}

}  // namespace unsync::core
