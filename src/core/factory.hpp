// The single place a SystemKind becomes a concrete simulation model.
//
// Every consumer (CampaignRunner, unsync_sim, examples, benches) used to
// carry its own construction switch; they now all route through
// make_system(), so adding an architecture is a one-file change.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/dmr_checkpoint_system.hpp"
#include "core/hetero_checker_system.hpp"
#include "core/lockstep_system.hpp"
#include "core/reunion_system.hpp"
#include "core/system.hpp"
#include "core/unsync_system.hpp"
#include "engine/sim_model.hpp"
#include "workload/dyn_op.hpp"

namespace unsync::core {

enum class SystemKind : std::uint8_t {
  kBaseline,
  kUnSync,
  kReunion,
  kLockstep,
  kCheckpoint,
  kHetero,
};

const char* name_of(SystemKind kind);
/// Parses the CLI spelling ("baseline", "unsync", ...); nullopt if unknown.
std::optional<SystemKind> parse_system(const std::string& name);

/// Architecture-specific knobs, bundled so call sites can configure any
/// system through one object (only the member matching the kind is read).
struct SystemParams {
  UnSyncParams unsync;
  ReunionParams reunion;
  LockstepParams lockstep;
  CheckpointParams checkpoint;
  HeteroParams hetero;
};

/// Throws std::invalid_argument when the member of `params` that `kind`
/// reads is out of range: the check that kind's constructor makes, for
/// front ends to run on every job before any job runs.
void validate(SystemKind kind, const SystemParams& params);

/// Homogeneous: `stream` is cloned once per thread (or per redundant core).
std::unique_ptr<System> make_system(SystemKind kind,
                                    const SystemConfig& config,
                                    const workload::InstStream& stream,
                                    const SystemParams& params = {});

/// Heterogeneous multiprogramming: one stream per thread.
std::unique_ptr<System> make_system(
    SystemKind kind, const SystemConfig& config,
    const std::vector<const workload::InstStream*>& streams,
    const SystemParams& params = {});

/// The same System behind the SimModel interface. perfbench is the only
/// caller.
std::unique_ptr<engine::SimModel> make_model(SystemKind kind,
                                             const SystemConfig& config,
                                             const workload::InstStream& stream,
                                             const SystemParams& params = {});

}  // namespace unsync::core
