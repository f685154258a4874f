// Bit-exactness contract for the shared cycle engine (src/engine/).
//
// The goldens under tests/golden/engine/ were captured BEFORE the SimKernel
// refactor, from the five original systems' bespoke run() loops (the hetero
// goldens were captured when that system was introduced, already on the
// member-hook kernel, and pin it the same three ways). These tests prove the
// kernel reproduces those loops bit for bit — counters, error log, per-core
// stats, everything RunResult::to_json serialises — in three modes:
//
//   1. naive: the reference cycle-by-cycle loop, run_naive();
//   2. fast-forward: the default run(), whose quiescence skipping must be
//      an *observably invisible* optimisation (docs/ENGINE.md);
//   3. resumable fast-forward: run(n) + run() must equal one run() — the
//      kernel's resumable-run contract survives mid-skip interruption.
//
// Below them, the shadow oracle checks run() against run_naive() at the end
// of every skip window, not only in the final result.
//
// If a test here fails after an intentional behaviour change, regenerate the
// goldens with tools/gen_engine_goldens and document why in docs/ENGINE.md.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "ckpt/archive.hpp"
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
constexpr std::uint64_t kOracleInsts = 6000;

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
                                               std::uint64_t seed) {
  workload::SyntheticStream stream(workload::profile(prof), seed, 6000);
  core::SystemConfig cfg;
  cfg.num_threads = 2;
  cfg.ser_per_inst = 5e-4;
  cfg.seed = seed;
  return core::make_system(kind, cfg, stream);
}

void expect_grid_matches_goldens(bool naive) {
  for (const auto kind : kKinds) {
    for (const char* prof : kProfiles) {
      for (const auto seed : kSeeds) {
        const auto sys = make_grid_system(kind, prof, seed);
        const engine::RunResult r = naive ? sys->run_naive() : sys->run();
        // gen_engine_goldens writes to_json() plus a trailing newline.
        EXPECT_EQ(r.to_json() + "\n",
                  read_golden(golden_name(kind, prof, seed)))
            << core::name_of(kind) << "/" << prof << "/s" << seed
            << " diverged from pre-refactor golden ("
            << (naive ? "run_naive" : "run") << ")";
      }
    }
  }
}

// Mode 1: the naive loop must reproduce the original bespoke loops exactly.
TEST(EngineParity, NaiveMatchesPreRefactorGoldens) {
  expect_grid_matches_goldens(/*naive=*/true);
}

// Mode 2: quiescence fast-forwarding must be bit-invisible. Any divergence
// here means OooCore::next_event claimed a window was static when it was not
// (or skip_cycles' closed-form replay missed a counter).
TEST(EngineParity, FastForwardMatchesPreRefactorGoldens) {
  expect_grid_matches_goldens(/*naive=*/false);
}

// Mode 3: run(n) + run() == run(), with fast-forwarding on. The interim
// max_cycles bound lands inside skip windows, so this exercises the kernel's
// clamp-to-max_cycles path and proves a checkpointed/resumed campaign cannot
// observe the optimisation either.
TEST(EngineParity, ResumableRunUnderFastForward) {
  const std::uint64_t kCuts[] = {1, 1000, 4567};
  for (const auto kind : kKinds) {
    for (const auto cut : kCuts) {
      const auto whole = make_grid_system(kind, "galgel", 21);
      const engine::RunResult full = whole->run();

      const auto split = make_grid_system(kind, "galgel", 21);
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
  const auto sys = make_grid_system(core::SystemKind::kUnSync, "gzip", 7);
  const engine::RunResult first = sys->run();
  const engine::RunResult again = sys->run();
  EXPECT_EQ(first.to_json(), again.to_json());
}

// ---- Shadow oracle: every skip window against the naive loop ---------------
//
// The goldens only see final results. The oracle sees every skip: a twin of
// the system under test, built from the same config, is advanced with
// run_naive() to the end of each window run() skips, and the two systems
// must agree there on everything state_fingerprint() hashes — compared as
// the walked bytes themselves, which is stronger than the hash and cheaper
// — and on the fault channel the fingerprint leaves out. A next_event that
// promised a static window that was not, or a skip_cycles that misses one
// counter, fails at the first window it gets wrong, named by [from, to).
//
// Small caches keep each walk cheap (tens of µs instead of milliseconds at
// the default geometry) and raise the miss rate, so memory stalls and their
// skip windows are frequent. The default geometry stays covered by the
// goldens above, through both run() and run_naive().

struct OracleCase {
  core::SystemKind kind;
  const char* profile;
  std::uint64_t seed;
  core::SystemParams params;
  const char* variant;  ///< names non-default params in failure messages
};

std::unique_ptr<core::System> make_oracle_system(const OracleCase& c) {
  workload::SyntheticStream stream(workload::profile(c.profile), c.seed,
                                   kOracleInsts);
  core::SystemConfig cfg;
  cfg.num_threads = 2;
  cfg.ser_per_inst = 5e-4;  // arrivals land inside runs: their bounds count
  cfg.seed = c.seed;
  cfg.mem.l1d.size_bytes = 1024;
  cfg.mem.l1i.size_bytes = 1024;
  cfg.mem.l2.size_bytes = 8 * 1024;
  cfg.core.itlb.entries = 8;
  cfg.core.dtlb.entries = 8;
  return core::make_system(c.kind, cfg, stream, c.params);
}

/// The bytes state_fingerprint() hashes.
std::string fingerprint_walk(core::System& sys) {
  ckpt::Serializer s;
  ckpt::Archive ar(s, ckpt::Archive::Mode::kFingerprint);
  sys.visit_policy_state(ar);
  return s.take();
}

/// Runs `c` under run() with the oracle attached; returns the number of
/// skip windows it compared.
std::size_t run_under_oracle(const OracleCase& c) {
  const auto sys = make_oracle_system(c);
  const auto twin = make_oracle_system(c);
  const std::string where = std::string(core::name_of(c.kind)) + c.variant +
                            "/" + c.profile + "/s" + std::to_string(c.seed);
  std::size_t windows = 0;
  bool diverged = false;
  sys->set_skip_observer([&](Cycle from, Cycle to) {
    if (diverged) return;  // report the first bad window only
    ++windows;
    (void)twin->run_naive(to);
    if (fingerprint_walk(*twin) != fingerprint_walk(*sys) ||
        twin->fault_channel_bytes() != sys->fault_channel_bytes()) {
      diverged = true;
      ADD_FAILURE() << where << ": skip window [" << from << ", " << to
                    << ") diverged from the naive loop";
    }
  });
  const engine::RunResult skipped = sys->run();
  if (!diverged) {
    EXPECT_EQ(skipped.to_json(), twin->run_naive().to_json())
        << where << ": final results differ";
  }
  // The compared bytes are exactly what the fingerprint hashes.
  EXPECT_EQ(ckpt::hash64(fingerprint_walk(*sys)), sys->state_fingerprint());
  return windows;
}

class SkipOracle : public ::testing::TestWithParam<core::SystemKind> {};

TEST_P(SkipOracle, EverySkipWindowMatchesTheNaiveLoop) {
  for (const char* prof : {"gzip", "galgel", "mcf"}) {
    for (const std::uint64_t seed : {7u, 21u}) {
      const std::size_t windows =
          run_under_oracle({GetParam(), prof, seed, {}, ""});
      EXPECT_GT(windows, 0u) << core::name_of(GetParam()) << "/" << prof
                             << "/s" << seed << ": nothing was skipped";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSystems, SkipOracle, ::testing::ValuesIn(kKinds),
    [](const auto& info) { return std::string(core::name_of(info.param)); });

// The non-default shapes whose skip bounds differ: a three-core UnSync
// group (one more member folded into each bound) and a hetero checker
// whose log fills within a few commits, so the leader's log-full stall
// and the checker's chase dominate.
TEST(SkipOracleShapes, UnSyncGroupOfThree) {
  core::SystemParams params;
  params.unsync.group_size = 3;
  EXPECT_GT(run_under_oracle(
                {core::SystemKind::kUnSync, "gzip", 7, params, "[group=3]"}),
            0u);
}

TEST(SkipOracleShapes, HeteroWithTinyCheckLog) {
  core::SystemParams params;
  params.hetero.log_entries = 2;
  EXPECT_GT(run_under_oracle(
                {core::SystemKind::kHetero, "galgel", 7, params, "[log=2]"}),
            0u);
}

}  // namespace
}  // namespace unsync
