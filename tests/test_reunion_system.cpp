#include "core/reunion_system.hpp"

#include <gtest/gtest.h>

#include "core/baseline.hpp"
#include "workload/profile.hpp"
#include "workload/synthetic.hpp"

namespace unsync::core {
namespace {

SystemConfig small_config(unsigned threads = 1) {
  SystemConfig cfg;
  cfg.num_threads = threads;
  return cfg;
}

ReunionParams default_params() { return ReunionParams{}; }

TEST(ReunionSystem, CompletesAStreamOnBothCores) {
  workload::SyntheticStream stream(workload::profile("gzip"), 1, 20000);
  ReunionSystem sys(small_config(), default_params(), stream);
  const engine::RunResult r = sys.run();
  EXPECT_EQ(r.system, "reunion");
  ASSERT_EQ(r.core_stats.size(), 2u);
  EXPECT_EQ(r.core_stats[0].committed, 20000u);
  EXPECT_EQ(r.core_stats[1].committed, 20000u);
}

TEST(ReunionSystem, SlowerThanBaseline) {
  workload::SyntheticStream stream(workload::profile("bzip2"), 2, 30000);
  BaselineSystem base(small_config(), stream);
  ReunionSystem sys(small_config(), default_params(), stream);
  EXPECT_LT(sys.run().thread_ipc(), base.run().thread_ipc());
}

TEST(ReunionSystem, SerializingInstructionsCostSynchronisations) {
  // bzip2 has 2% serializing instructions -> ~600 syncs over 30k insts.
  workload::SyntheticStream stream(workload::profile("bzip2"), 3, 30000);
  ReunionSystem sys(small_config(), default_params(), stream);
  const engine::RunResult r = sys.run();
  EXPECT_GT(r.fingerprint_syncs, 400u);
}

TEST(ReunionSystem, SerializingHeavyWorkloadsHurtMore) {
  // Overhead vs baseline must be larger for bzip2 (2% serializing) than for
  // equake (0.1%) — the Figure 4 ordering.
  auto overhead = [](const std::string& bench) {
    workload::SyntheticStream stream(workload::profile(bench), 4, 30000);
    BaselineSystem base(small_config(), stream);
    ReunionSystem sys(small_config(), ReunionParams{}, stream);
    const double b = base.run().thread_ipc();
    const double r = sys.run().thread_ipc();
    return (b - r) / b;
  };
  EXPECT_GT(overhead("bzip2"), overhead("equake"));
}

TEST(ReunionSystem, LargerFiIncreasesRobPressure) {
  // Figure 5: larger fingerprint intervals + latency degrade performance,
  // most strongly for window-hungry workloads.
  workload::SyntheticStream stream(workload::profile("galgel"), 5, 30000);
  ReunionParams small_fi;
  small_fi.fingerprint_interval = 1;
  small_fi.compare_latency = 10;
  ReunionParams big_fi;
  big_fi.fingerprint_interval = 50;
  big_fi.compare_latency = 60;
  ReunionSystem a(small_config(), small_fi, stream);
  ReunionSystem b(small_config(), big_fi, stream);
  EXPECT_LT(a.run().cycles, b.run().cycles);
}

TEST(ReunionSystem, CompareLatencySweepMonotonic) {
  workload::SyntheticStream stream(workload::profile("ammp"), 6, 20000);
  Cycle prev = 0;
  for (Cycle lat : {10u, 30u, 60u}) {
    ReunionParams p;
    p.fingerprint_interval = 30;
    p.compare_latency = lat;
    ReunionSystem sys(small_config(), p, stream);
    const Cycle c = sys.run().cycles;
    EXPECT_GE(c + c / 50, prev) << lat;  // monotone within 2% noise
    prev = c;
  }
}

TEST(ReunionSystem, ErrorFreeRunHasNoRollbacks) {
  workload::SyntheticStream stream(workload::profile("gzip"), 7, 10000);
  ReunionSystem sys(small_config(), default_params(), stream);
  const engine::RunResult r = sys.run();
  EXPECT_EQ(r.errors_injected, 0u);
  EXPECT_EQ(r.rollbacks, 0u);
}

TEST(ReunionSystem, ErrorsTriggerRollbacksAndStillComplete) {
  workload::SyntheticStream stream(workload::profile("gzip"), 8, 30000);
  SystemConfig cfg = small_config();
  cfg.ser_per_inst = 1e-4;
  ReunionSystem sys(cfg, default_params(), stream);
  const engine::RunResult r = sys.run();
  EXPECT_GT(r.rollbacks, 0u);
  EXPECT_EQ(r.core_stats[0].committed, 30000u);
  EXPECT_EQ(r.core_stats[1].committed, 30000u);
}

TEST(ReunionSystem, RollbacksReexecuteWork) {
  // With rollbacks, a core executes more cycles than error-free.
  workload::SyntheticStream stream(workload::profile("gzip"), 9, 30000);
  SystemConfig cfg = small_config();
  cfg.ser_per_inst = 1e-3;
  ReunionSystem with_errors(cfg, default_params(), stream);
  ReunionSystem clean(small_config(), default_params(), stream);
  EXPECT_GT(with_errors.run().cycles, clean.run().cycles);
}

TEST(ReunionSystem, WriteBackL1Retained) {
  workload::SyntheticStream stream(workload::profile("gzip"), 10, 5000);
  ReunionSystem sys(small_config(), default_params(), stream);
  sys.run();
  EXPECT_EQ(sys.memory().config().l1d.write_policy,
            mem::WritePolicy::kWriteBack);
}

TEST(ReunionSystem, DeterministicAcrossRuns) {
  workload::SyntheticStream stream(workload::profile("ammp"), 11, 15000);
  ReunionSystem a(small_config(), default_params(), stream);
  ReunionSystem b(small_config(), default_params(), stream);
  EXPECT_EQ(a.run().cycles, b.run().cycles);
}

TEST(ReunionSystem, TwoPairsComplete) {
  workload::SyntheticStream stream(workload::profile("gzip"), 12, 10000);
  ReunionSystem sys(small_config(2), default_params(), stream);
  const engine::RunResult r = sys.run();
  ASSERT_EQ(r.core_stats.size(), 4u);
  for (const auto& cs : r.core_stats) EXPECT_EQ(cs.committed, 10000u);
}

}  // namespace
}  // namespace unsync::core
