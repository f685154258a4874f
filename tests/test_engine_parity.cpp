// Bit-exactness contract for the shared cycle engine (src/engine/).
//
// The goldens under tests/golden/engine/ were captured BEFORE the SimKernel
// refactor, from the five original systems' bespoke run() loops (the hetero
// goldens were captured when that system was introduced, already on the
// member-hook kernel, and pin it the same three ways). These tests prove the
// kernel reproduces those loops bit for bit — counters, error log, per-core
// stats, everything RunResult::to_json serialises — in three modes:
//
//   1. naive: the cycle-by-cycle loop (fast_forward off, the default);
//   2. fast-forward: quiescence skipping on (engine.fast_forward=1), which
//      must be an *observably invisible* optimisation (docs/ENGINE.md);
//   3. resumable fast-forward: run(n) + run() must equal one run() — the
//      kernel's resumable-run contract survives mid-skip interruption.
//
// If a test here fails after an intentional behaviour change, regenerate the
// goldens with tools/gen_engine_goldens and document why in docs/ENGINE.md.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/factory.hpp"
#include "workload/profile.hpp"
#include "workload/synthetic.hpp"

#ifndef UNSYNC_TEST_DATA_DIR
#error "UNSYNC_TEST_DATA_DIR must point at tests/ (set by tests/CMakeLists.txt)"
#endif

namespace unsync {
namespace {

constexpr core::SystemKind kKinds[] = {
    core::SystemKind::kBaseline,   core::SystemKind::kUnSync,
    core::SystemKind::kReunion,    core::SystemKind::kLockstep,
    core::SystemKind::kCheckpoint, core::SystemKind::kHetero};
constexpr const char* kProfiles[] = {"galgel", "gzip"};
constexpr std::uint64_t kSeeds[] = {7, 21, 1234};

std::string read_golden(const std::string& name) {
  const std::string path =
      std::string(UNSYNC_TEST_DATA_DIR) + "/golden/engine/" + name;
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing golden file " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string golden_name(core::SystemKind kind, const char* prof,
                        std::uint64_t seed) {
  return std::string(core::name_of(kind)) + "_" + prof + "_s" +
         std::to_string(seed) + ".json";
}

/// Same recipe as tools/gen_engine_goldens.cpp — the goldens are only valid
/// against this exact construction.
std::unique_ptr<core::System> make_grid_system(core::SystemKind kind,
                                               const char* prof,
                                               std::uint64_t seed,
                                               bool fast_forward) {
  workload::SyntheticStream stream(workload::profile(prof), seed, 6000);
  core::SystemConfig cfg;
  cfg.num_threads = 2;
  cfg.ser_per_inst = 5e-4;
  cfg.seed = seed;
  cfg.fast_forward = fast_forward;
  return core::make_system(kind, cfg, stream);
}

void expect_grid_matches_goldens(bool fast_forward) {
  for (const auto kind : kKinds) {
    for (const char* prof : kProfiles) {
      for (const auto seed : kSeeds) {
        const auto sys = make_grid_system(kind, prof, seed, fast_forward);
        const engine::RunResult r = sys->run();
        // gen_engine_goldens writes to_json() plus a trailing newline.
        EXPECT_EQ(r.to_json() + "\n",
                  read_golden(golden_name(kind, prof, seed)))
            << core::name_of(kind) << "/" << prof << "/s" << seed
            << " diverged from pre-refactor golden (fast_forward="
            << fast_forward << ")";
      }
    }
  }
}

// Mode 1: the naive loop must reproduce the original bespoke loops exactly.
TEST(EngineParity, NaiveMatchesPreRefactorGoldens) {
  expect_grid_matches_goldens(/*fast_forward=*/false);
}

// Mode 2: quiescence fast-forwarding must be bit-invisible. Any divergence
// here means OooCore::next_event claimed a window was static when it was not
// (or skip_cycles' closed-form replay missed a counter).
TEST(EngineParity, FastForwardMatchesPreRefactorGoldens) {
  expect_grid_matches_goldens(/*fast_forward=*/true);
}

// Mode 3: run(n) + run() == run(), with fast-forwarding on. The interim
// max_cycles bound lands inside skip windows, so this exercises the kernel's
// clamp-to-max_cycles path and proves a checkpointed/resumed campaign cannot
// observe the optimisation either.
TEST(EngineParity, ResumableRunUnderFastForward) {
  const std::uint64_t kCuts[] = {1, 1000, 4567};
  for (const auto kind : kKinds) {
    for (const auto cut : kCuts) {
      const auto whole = make_grid_system(kind, "galgel", 21, true);
      const engine::RunResult full = whole->run();

      const auto split = make_grid_system(kind, "galgel", 21, true);
      const engine::RunResult partial = split->run(cut);
      EXPECT_LE(partial.cycles, cut)
          << core::name_of(kind) << ": run(" << cut
          << ") overshot the absolute max_cycles bound";
      const engine::RunResult resumed = split->run();
      EXPECT_EQ(resumed.to_json(), full.to_json())
          << core::name_of(kind) << ": run(" << cut
          << ") + run() != run() under fast-forward";
    }
  }
}

// A system that already finished must return the same result again without
// advancing (the kernel's run() is idempotent once every group is done).
TEST(EngineParity, RunAfterCompletionIsIdempotent) {
  const auto sys = make_grid_system(core::SystemKind::kUnSync, "gzip", 7, true);
  const engine::RunResult first = sys->run();
  const engine::RunResult again = sys->run();
  EXPECT_EQ(first.to_json(), again.to_json());
}

}  // namespace
}  // namespace unsync
