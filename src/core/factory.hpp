// The single place a SystemKind becomes a concrete simulation model.
//
// Every consumer (CampaignRunner, unsync_sim, examples, benches) used to
// carry its own construction switch; they now all route through
// make_system() / make_model(), so adding an architecture — or a model
// tier — is a one-file change. make_system() always builds the detailed
// (cycle-accurate) System; make_model() additionally honours
// SystemParams::tier and can return the fast interval model instead
// (docs/TIERS.md).
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
#include "engine/interval_model.hpp"
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
/// Also the single source of the model-tier choice: make_model() reads
/// `tier`; make_system() ignores it (it always builds the detailed tier).
struct SystemParams {
  UnSyncParams unsync;
  ReunionParams reunion;
  LockstepParams lockstep;
  CheckpointParams checkpoint;
  HeteroParams hetero;
  engine::Tier tier = engine::Tier::kDetailed;
};

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

/// Translates a system kind + its detailed-tier knobs into the analytical
/// abstract the interval model consumes (exposed for validation tooling).
engine::IntervalSpec interval_spec_for(SystemKind kind,
                                       const SystemParams& params);

/// Tier-dispatching construction: params.tier == kDetailed returns the
/// cycle-accurate System (every System IS-A SimModel); kFast returns an
/// engine::IntervalModel configured for the same cell. Both consume the
/// same streams, seed and SER, so fault-arrival schedules are identical
/// across tiers.
std::unique_ptr<engine::SimModel> make_model(SystemKind kind,
                                             const SystemConfig& config,
                                             const workload::InstStream& stream,
                                             const SystemParams& params = {});

/// Heterogeneous multiprogramming: one stream per thread.
std::unique_ptr<engine::SimModel> make_model(
    SystemKind kind, const SystemConfig& config,
    const std::vector<const workload::InstStream*>& streams,
    const SystemParams& params = {});

}  // namespace unsync::core
