// Heterogeneous multiprogramming: different workloads on different threads
// of the same CMP, sharing the L2 and bus.
#include <gtest/gtest.h>

#include "core/baseline.hpp"
#include "core/dmr_checkpoint_system.hpp"
#include "core/lockstep_system.hpp"
#include "core/reunion_system.hpp"
#include "core/unsync_system.hpp"
#include "workload/profile.hpp"
#include "workload/synthetic.hpp"

namespace unsync::core {
namespace {

SystemConfig cfg(unsigned threads) {
  SystemConfig c;
  c.num_threads = threads;
  return c;
}

TEST(Multiprogram, BaselineRunsDifferentBenchmarksPerThread) {
  workload::SyntheticStream a(workload::profile("gzip"), 1, 12000);
  workload::SyntheticStream b(workload::profile("mcf"), 1, 8000);
  BaselineSystem sys(cfg(2), {&a, &b});
  const RunResult r = sys.run();
  ASSERT_EQ(r.core_stats.size(), 2u);
  EXPECT_EQ(r.core_stats[0].committed, 12000u);
  EXPECT_EQ(r.core_stats[1].committed, 8000u);
  ASSERT_EQ(r.thread_instructions.size(), 2u);
  EXPECT_EQ(r.thread_instructions[0], 12000u);
  EXPECT_EQ(r.thread_instructions[1], 8000u);
  EXPECT_EQ(r.instructions, 12000u);  // longest thread
}

TEST(Multiprogram, StreamCountMustMatchThreads) {
  workload::SyntheticStream a(workload::profile("gzip"), 1, 1000);
  EXPECT_THROW(BaselineSystem(cfg(2), {&a}), std::invalid_argument);
  EXPECT_THROW(BaselineSystem(cfg(1), {&a, &a}), std::invalid_argument);
}

TEST(Multiprogram, NoisyNeighbourSlowsVictim) {
  // gzip alone vs gzip sharing the L2/bus with the miss-storm mcf: the
  // victim's per-core IPC must drop.
  workload::SyntheticStream gzip_s(workload::profile("gzip"), 2, 12000);
  workload::SyntheticStream mcf_s(workload::profile("mcf"), 2, 12000);

  BaselineSystem alone(cfg(1), {&gzip_s});
  const double ipc_alone = alone.run().core_stats[0].ipc();

  BaselineSystem shared(cfg(2), {&gzip_s, &mcf_s});
  const auto r = shared.run();
  const double ipc_shared = r.core_stats[0].ipc();
  EXPECT_LT(ipc_shared, ipc_alone * 1.01);
  EXPECT_EQ(r.core_stats[0].committed, 12000u);
}

TEST(Multiprogram, UnsyncHeterogeneousGroups) {
  workload::SyntheticStream a(workload::profile("susan"), 3, 8000);
  workload::SyntheticStream b(workload::profile("galgel"), 3, 6000);
  UnSyncParams p;
  p.cb_entries = 128;
  UnSyncSystem sys(cfg(2), p, {&a, &b});
  const RunResult r = sys.run();
  ASSERT_EQ(r.core_stats.size(), 4u);  // two pairs
  EXPECT_EQ(r.core_stats[0].committed, 8000u);
  EXPECT_EQ(r.core_stats[1].committed, 8000u);
  EXPECT_EQ(r.core_stats[2].committed, 6000u);
  EXPECT_EQ(r.core_stats[3].committed, 6000u);
}

TEST(Multiprogram, ReunionHeterogeneousPairs) {
  workload::SyntheticStream a(workload::profile("bzip2"), 4, 6000);
  workload::SyntheticStream b(workload::profile("equake"), 4, 6000);
  ReunionSystem sys(cfg(2), ReunionParams{}, {&a, &b});
  const RunResult r = sys.run();
  ASSERT_EQ(r.core_stats.size(), 4u);
  for (const auto& cs : r.core_stats) EXPECT_EQ(cs.committed, 6000u);
}

TEST(Multiprogram, RelatedWorkHeterogeneous) {
  workload::SyntheticStream a(workload::profile("gzip"), 5, 5000);
  workload::SyntheticStream b(workload::profile("qsort"), 5, 5000);
  LockstepSystem lock(cfg(2), LockstepParams{}, {&a, &b});
  EXPECT_EQ(lock.run().core_stats[2].committed, 5000u);
  DmrCheckpointSystem check(cfg(2), CheckpointParams{}, {&a, &b});
  EXPECT_EQ(check.run().core_stats[0].committed, 5000u);
}

TEST(Multiprogram, ErrorsScaledPerThreadLength) {
  // Thread 0 runs 10x the instructions of thread 1 at the same SER: it
  // should absorb roughly 10x the errors.
  workload::SyntheticStream a(workload::profile("gzip"), 6, 40000);
  workload::SyntheticStream b(workload::profile("gzip"), 7, 4000);
  SystemConfig c = cfg(2);
  c.ser_per_inst = 2e-4;
  UnSyncParams p;
  p.cb_entries = 128;
  UnSyncSystem sys(c, p, {&a, &b});
  const RunResult r = sys.run();
  EXPECT_GT(r.errors_injected, 3u);
  EXPECT_EQ(r.recoveries, r.errors_injected);
}

TEST(Multiprogram, HomogeneousConvenienceEqualsExplicit) {
  workload::SyntheticStream s(workload::profile("twolf"), 8, 6000);
  BaselineSystem convenience(cfg(2), s);
  BaselineSystem explicit_set(cfg(2), {&s, &s});
  EXPECT_EQ(convenience.run().cycles, explicit_set.run().cycles);
}

}  // namespace
}  // namespace unsync::core
