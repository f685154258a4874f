#include <gtest/gtest.h>

#include "core/baseline.hpp"
#include "core/dmr_checkpoint_system.hpp"
#include "core/lockstep_system.hpp"
#include "core/unsync_system.hpp"
#include "workload/profile.hpp"
#include "workload/synthetic.hpp"

namespace unsync::core {
namespace {

SystemConfig cfg1(double ser = 0.0) {
  SystemConfig cfg;
  cfg.num_threads = 1;
  cfg.ser_per_inst = ser;
  return cfg;
}

TEST(Lockstep, CompletesAndStaysCoupled) {
  workload::SyntheticStream s(workload::profile("gzip"), 1, 15000);
  LockstepSystem sys(cfg1(), LockstepParams{}, s);
  const RunResult r = sys.run();
  ASSERT_EQ(r.core_stats.size(), 2u);
  EXPECT_EQ(r.core_stats[0].committed, 15000u);
  EXPECT_EQ(r.core_stats[1].committed, 15000u);
}

TEST(Lockstep, SlowerThanBaseline) {
  // The coupling + load-checker tax must cost against the uncoupled CMP.
  workload::SyntheticStream s(workload::profile("gzip"), 2, 20000);
  BaselineSystem base(cfg1(), s);
  LockstepSystem lock(cfg1(), LockstepParams{}, s);
  EXPECT_LT(lock.run().thread_ipc(), base.run().thread_ipc());
}

TEST(Lockstep, SlowerThanUnsync) {
  // The paper's premise: decoupling (UnSync) beats coupling (lock-step) in
  // error-free execution.
  workload::SyntheticStream s(workload::profile("mcf"), 3, 20000);
  UnSyncParams up;
  up.cb_entries = 256;
  UnSyncSystem us(cfg1(), up, s);
  LockstepSystem lock(cfg1(), LockstepParams{}, s);
  EXPECT_GT(us.run().thread_ipc(), lock.run().thread_ipc());
}

TEST(Lockstep, LoadHeavyWorkloadsPayTheCheckerTax) {
  auto overhead = [](const char* bench) {
    workload::SyntheticStream s(workload::profile(bench), 4, 20000);
    BaselineSystem base(cfg1(), s);
    LockstepSystem lock(cfg1(), LockstepParams{}, s);
    const double b = base.run().thread_ipc();
    return (b - lock.run().thread_ipc()) / b;
  };
  EXPECT_GT(overhead("mcf"), 0.0);  // 33% loads
}

TEST(Lockstep, ErrorsAreCheapToRecover) {
  workload::SyntheticStream s(workload::profile("gzip"), 5, 20000);
  LockstepSystem clean(cfg1(), LockstepParams{}, s);
  LockstepSystem dirty(cfg1(1e-4), LockstepParams{}, s);
  const auto rc = clean.run();
  const auto rd = dirty.run();
  EXPECT_GT(rd.errors_injected, 0u);
  EXPECT_EQ(rd.recoveries, rd.errors_injected);
  // Per-error cost is a small flush: total slowdown stays tiny.
  EXPECT_LT(rd.cycles, rc.cycles + rd.errors_injected * 100);
  EXPECT_EQ(rd.core_stats[0].committed, 20000u);
}

TEST(Checkpoint, CompletesWithPeriodicCaptures) {
  workload::SyntheticStream s(workload::profile("gzip"), 6, 20000);
  CheckpointParams p;
  p.checkpoint_interval = 1000;
  DmrCheckpointSystem sys(cfg1(), p, s);
  const RunResult r = sys.run();
  EXPECT_EQ(r.core_stats[0].committed, 20000u);
  EXPECT_EQ(r.core_stats[1].committed, 20000u);
  // 20000 insts / 1000 = 20 boundaries (the final one falls exactly at the
  // stream end and may not be crossed).
  EXPECT_GE(sys.checkpoints_taken(), 19u);
  EXPECT_LE(sys.checkpoints_taken(), 20u);
}

TEST(Checkpoint, CaptureCostScalesInverselyWithInterval) {
  workload::SyntheticStream s(workload::profile("gzip"), 7, 30000);
  CheckpointParams frequent;
  frequent.checkpoint_interval = 250;
  CheckpointParams rare;
  rare.checkpoint_interval = 5000;
  DmrCheckpointSystem a(cfg1(), frequent, s);
  DmrCheckpointSystem b(cfg1(), rare, s);
  EXPECT_GT(a.run().cycles, b.run().cycles);
}

TEST(Checkpoint, SlowerThanUnsyncErrorFree) {
  workload::SyntheticStream s(workload::profile("bzip2"), 8, 20000);
  UnSyncParams up;
  up.cb_entries = 256;
  UnSyncSystem us(cfg1(), up, s);
  DmrCheckpointSystem cp(cfg1(), CheckpointParams{}, s);
  EXPECT_GT(us.run().thread_ipc(), cp.run().thread_ipc());
}

TEST(Checkpoint, RollbackReexecutesEpoch) {
  workload::SyntheticStream s(workload::profile("gzip"), 9, 30000);
  DmrCheckpointSystem clean(cfg1(), CheckpointParams{}, s);
  DmrCheckpointSystem dirty(cfg1(5e-4), CheckpointParams{}, s);
  const auto rc = clean.run();
  const auto rd = dirty.run();
  EXPECT_GT(rd.rollbacks, 0u);
  EXPECT_GT(rd.cycles, rc.cycles);  // epochs re-executed
  EXPECT_EQ(rd.core_stats[0].committed, 30000u);
}

TEST(Checkpoint, DeterministicAcrossRuns) {
  workload::SyntheticStream s(workload::profile("ammp"), 10, 15000);
  DmrCheckpointSystem a(cfg1(1e-4), CheckpointParams{}, s);
  DmrCheckpointSystem b(cfg1(1e-4), CheckpointParams{}, s);
  EXPECT_EQ(a.run().cycles, b.run().cycles);
}

// Landscape property: error-free ordering of the redundancy schemes on a
// representative benchmark — baseline >= unsync > {checkpoint, lockstep}.
TEST(RelatedWork, ErrorFreeOrdering) {
  workload::SyntheticStream s(workload::profile("gzip"), 11, 30000);
  BaselineSystem base(cfg1(), s);
  UnSyncParams up;
  up.cb_entries = 256;
  UnSyncSystem us(cfg1(), up, s);
  LockstepSystem lock(cfg1(), LockstepParams{}, s);
  DmrCheckpointSystem cp(cfg1(), CheckpointParams{}, s);

  const double b = base.run().thread_ipc();
  const double u = us.run().thread_ipc();
  const double l = lock.run().thread_ipc();
  const double c = cp.run().thread_ipc();
  EXPECT_GE(b * 1.02, u);
  EXPECT_GT(u, l);
  EXPECT_GT(u, c);
}

}  // namespace
}  // namespace unsync::core
