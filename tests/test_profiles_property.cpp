// Property sweeps over the whole benchmark catalogue: every profile must
// drive every system to completion with deterministic, plausible behaviour.
// These are the "no benchmark left behind" guards for the bench harness.
#include <gtest/gtest.h>

#include "core/baseline.hpp"
#include "core/reunion_system.hpp"
#include "core/unsync_system.hpp"
#include "workload/profile.hpp"
#include "workload/synthetic.hpp"

namespace unsync::core {
namespace {

constexpr std::uint64_t kInsts = 8000;

SystemConfig cfg1() {
  SystemConfig cfg;
  cfg.num_threads = 1;
  return cfg;
}

class EveryProfile : public ::testing::TestWithParam<int> {
 protected:
  const workload::BenchmarkProfile& prof() const {
    return workload::all_profiles().at(static_cast<std::size_t>(GetParam()));
  }
};

TEST_P(EveryProfile, BaselineIpcPlausible) {
  workload::SyntheticStream s(prof(), 21, kInsts);
  BaselineSystem sys(cfg1(), s);
  const engine::RunResult r = sys.run();
  EXPECT_EQ(r.core_stats[0].committed, kInsts);
  // A 4-wide core on any realistic mix lands well inside (0.05, 4.0).
  EXPECT_GT(r.thread_ipc(), 0.05) << prof().name;
  EXPECT_LT(r.thread_ipc(), 4.0) << prof().name;
}

TEST_P(EveryProfile, UnsyncCompletesBothCores) {
  workload::SyntheticStream s(prof(), 22, kInsts);
  UnSyncParams p;
  p.cb_entries = 128;
  UnSyncSystem sys(cfg1(), p, s);
  const engine::RunResult r = sys.run();
  EXPECT_EQ(r.core_stats[0].committed, kInsts) << prof().name;
  EXPECT_EQ(r.core_stats[1].committed, kInsts) << prof().name;
}

TEST_P(EveryProfile, ReunionCompletesBothCores) {
  workload::SyntheticStream s(prof(), 23, kInsts);
  ReunionSystem sys(cfg1(), ReunionParams{}, s);
  const engine::RunResult r = sys.run();
  EXPECT_EQ(r.core_stats[0].committed, kInsts) << prof().name;
  EXPECT_EQ(r.core_stats[1].committed, kInsts) << prof().name;
}

TEST_P(EveryProfile, MixStatisticsWithinTolerance) {
  workload::SyntheticStream s(prof(), 24, 50000);
  workload::DynOp op;
  std::uint64_t loads = 0, stores = 0, branches = 0;
  while (s.next(&op)) {
    loads += op.is_load();
    stores += op.is_store();
    branches += op.is_branch();
  }
  const double n = 50000;
  EXPECT_NEAR(loads / n, prof().mix.load, 0.015) << prof().name;
  EXPECT_NEAR(stores / n, prof().mix.store, 0.015) << prof().name;
  EXPECT_NEAR(branches / n, prof().mix.branch, 0.015) << prof().name;
}

TEST_P(EveryProfile, CloneDeterminismUnderSystems) {
  // Two fresh systems over the same stream: identical cycle counts.
  workload::SyntheticStream s(prof(), 25, kInsts);
  const Cycle a = BaselineSystem(cfg1(), s).run().cycles;
  const Cycle b = BaselineSystem(cfg1(), s).run().cycles;
  EXPECT_EQ(a, b) << prof().name;
}

INSTANTIATE_TEST_SUITE_P(
    Catalogue, EveryProfile, ::testing::Range(0, 14),
    [](const ::testing::TestParamInfo<int>& info) {
      return unsync::workload::all_profiles()
          .at(static_cast<std::size_t>(info.param))
          .name;
    });

}  // namespace
}  // namespace unsync::core
