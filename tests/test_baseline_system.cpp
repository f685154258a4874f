#include "core/baseline.hpp"

#include <gtest/gtest.h>

#include "workload/profile.hpp"
#include "workload/synthetic.hpp"

namespace unsync::core {
namespace {

SystemConfig small_config(unsigned threads = 1) {
  SystemConfig cfg;
  cfg.num_threads = threads;
  return cfg;
}

TEST(BaselineSystem, CompletesAStream) {
  workload::SyntheticStream stream(workload::profile("gzip"), 1, 20000);
  BaselineSystem sys(small_config(), stream);
  const engine::RunResult r = sys.run();
  EXPECT_EQ(r.system, "baseline");
  EXPECT_EQ(r.instructions, 20000u);
  EXPECT_GT(r.cycles, 0u);
  ASSERT_EQ(r.core_stats.size(), 1u);
  EXPECT_EQ(r.core_stats[0].committed, 20000u);
}

TEST(BaselineSystem, IpcInPlausibleRange) {
  workload::SyntheticStream stream(workload::profile("gzip"), 2, 50000);
  BaselineSystem sys(small_config(), stream);
  const engine::RunResult r = sys.run();
  EXPECT_GT(r.thread_ipc(), 0.3);
  EXPECT_LT(r.thread_ipc(), 4.0);
}

TEST(BaselineSystem, TwoThreadsShareTheL2) {
  workload::SyntheticStream stream(workload::profile("mcf"), 3, 20000);
  BaselineSystem one(small_config(1), stream);
  BaselineSystem two(small_config(2), stream);
  const engine::RunResult r1 = one.run();
  const engine::RunResult r2 = two.run();
  // Contention can only slow a thread down.
  EXPECT_GE(r2.cycles, r1.cycles);
  ASSERT_EQ(r2.core_stats.size(), 2u);
  EXPECT_EQ(r2.core_stats[0].committed, 20000u);
  EXPECT_EQ(r2.core_stats[1].committed, 20000u);
}

TEST(BaselineSystem, DeterministicAcrossRuns) {
  workload::SyntheticStream stream(workload::profile("bzip2"), 4, 20000);
  BaselineSystem a(small_config(), stream);
  BaselineSystem b(small_config(), stream);
  EXPECT_EQ(a.run().cycles, b.run().cycles);
}

TEST(BaselineSystem, MaxCyclesBoundsRun) {
  workload::SyntheticStream stream(workload::profile("gzip"), 5, 1000000);
  BaselineSystem sys(small_config(), stream);
  const engine::RunResult r = sys.run(1000);
  EXPECT_EQ(r.cycles, 1000u);
  EXPECT_LT(r.core_stats[0].committed, 1000000u);
}

TEST(BaselineSystem, MemorySystemExercised) {
  workload::SyntheticStream stream(workload::profile("mcf"), 6, 30000);
  BaselineSystem sys(small_config(), stream);
  sys.run();
  EXPECT_GT(sys.memory().l1(0).misses(), 0u);
  EXPECT_GT(sys.memory().l2().hits() + sys.memory().l2().misses(), 0u);
  EXPECT_GT(sys.memory().bus().transactions(), 0u);
}

TEST(BaselineSystem, CacheFriendlyFasterThanCacheHostile) {
  workload::SyntheticStream friendly(workload::profile("gzip"), 7, 30000);
  workload::SyntheticStream hostile(workload::profile("mcf"), 7, 30000);
  BaselineSystem a(small_config(), friendly);
  BaselineSystem b(small_config(), hostile);
  EXPECT_LT(a.run().cycles, b.run().cycles);
}

TEST(BaselineSystem, HighIlpBeatsLowIlp) {
  // galgel (dep distance 24) extracts more parallelism than mcf (3), even
  // though both are miss-heavy.
  workload::SyntheticStream wide(workload::profile("galgel"), 8, 30000);
  workload::SyntheticStream narrow(workload::profile("mcf"), 8, 30000);
  BaselineSystem a(small_config(), wide);
  BaselineSystem b(small_config(), narrow);
  EXPECT_GT(a.run().thread_ipc(), b.run().thread_ipc());
}

}  // namespace
}  // namespace unsync::core
