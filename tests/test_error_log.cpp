// Tests for the per-event soft-error log and interval IPC sampling.
#include <gtest/gtest.h>

#include "core/baseline.hpp"
#include "core/dmr_checkpoint_system.hpp"
#include "core/lockstep_system.hpp"
#include "core/report.hpp"
#include "core/reunion_system.hpp"
#include "core/unsync_system.hpp"
#include "workload/profile.hpp"
#include "workload/synthetic.hpp"

namespace unsync::core {
namespace {

SystemConfig cfg1(double ser) {
  SystemConfig cfg;
  cfg.num_threads = 1;
  cfg.ser_per_inst = ser;
  return cfg;
}

TEST(ErrorLog, UnsyncLogsForwardRecoveries) {
  workload::SyntheticStream s(workload::profile("gzip"), 1, 25000);
  UnSyncParams p;
  p.cb_entries = 256;
  UnSyncSystem sys(cfg1(2e-4), p, s);
  const RunResult r = sys.run();
  ASSERT_GT(r.errors_injected, 0u);
  ASSERT_EQ(r.error_log.size(), r.errors_injected);
  Cycle prev = 0;
  for (const auto& e : r.error_log) {
    EXPECT_FALSE(e.rollback);
    EXPECT_GT(e.cost, 0u);
    EXPECT_LT(e.struck_core, 2u);
    EXPECT_EQ(e.thread, 0u);
    EXPECT_GE(e.cycle, prev);  // chronological
    prev = e.cycle;
    EXPECT_LT(e.position, 25000u);
  }
  // Logged costs must sum to the aggregate counter.
  Cycle total = 0;
  for (const auto& e : r.error_log) total += e.cost;
  EXPECT_EQ(total, r.recovery_cycles_total);
}

TEST(ErrorLog, ReunionLogsRollbacks) {
  workload::SyntheticStream s(workload::profile("gzip"), 2, 25000);
  ReunionSystem sys(cfg1(2e-4), ReunionParams{}, s);
  const RunResult r = sys.run();
  ASSERT_EQ(r.error_log.size(), r.rollbacks);
  for (const auto& e : r.error_log) EXPECT_TRUE(e.rollback);
}

TEST(ErrorLog, RelatedWorkSystemsLogToo) {
  workload::SyntheticStream s(workload::profile("gzip"), 3, 20000);
  LockstepSystem lock(cfg1(2e-4), LockstepParams{}, s);
  const auto rl = lock.run();
  EXPECT_EQ(rl.error_log.size(), rl.recoveries);
  DmrCheckpointSystem check(cfg1(2e-4), CheckpointParams{}, s);
  const auto rc = check.run();
  EXPECT_EQ(rc.error_log.size(), rc.rollbacks);
  for (const auto& e : rc.error_log) EXPECT_TRUE(e.rollback);
}

TEST(ErrorLog, EmptyWhenErrorFree) {
  workload::SyntheticStream s(workload::profile("gzip"), 4, 5000);
  UnSyncParams p;
  p.cb_entries = 128;
  UnSyncSystem sys(cfg1(0.0), p, s);
  EXPECT_TRUE(sys.run().error_log.empty());
}

TEST(ErrorLog, ReportRendersEvents) {
  workload::SyntheticStream s(workload::profile("gzip"), 5, 25000);
  UnSyncParams p;
  p.cb_entries = 256;
  UnSyncSystem sys(cfg1(2e-4), p, s);
  const RunResult r = sys.run();
  ASSERT_FALSE(r.error_log.empty());
  const std::string text = RunReport(r).str();
  EXPECT_NE(text.find("Soft-error events"), std::string::npos);
  EXPECT_NE(text.find("forward recovery"), std::string::npos);
}

TEST(IntervalSampling, DisabledByDefault) {
  workload::SyntheticStream s(workload::profile("gzip"), 6, 5000);
  BaselineSystem sys(cfg1(0.0), s);
  EXPECT_TRUE(sys.run().core_stats[0].interval_committed.empty());
}

TEST(IntervalSampling, SamplesMonotoneCommitCounts) {
  workload::SyntheticStream s(workload::profile("gzip"), 7, 20000);
  SystemConfig cfg = cfg1(0.0);
  cfg.core.sample_interval = 1000;
  BaselineSystem sys(cfg, s);
  const RunResult r = sys.run();
  const auto& samples = r.core_stats[0].interval_committed;
  ASSERT_GT(samples.size(), 5u);
  for (std::size_t i = 1; i < samples.size(); ++i) {
    EXPECT_GE(samples[i], samples[i - 1]);
  }
  EXPECT_LE(samples.back(), 20000u);
  // Roughly one sample per 1000 cycles.
  EXPECT_NEAR(static_cast<double>(samples.size()),
              static_cast<double>(r.cycles) / 1000.0, 2.0);
}

TEST(IntervalSampling, SparklineRendered) {
  workload::SyntheticStream s(workload::profile("gzip"), 8, 20000);
  SystemConfig cfg = cfg1(0.0);
  cfg.core.sample_interval = 1000;
  BaselineSystem sys(cfg, s);
  const RunResult r = sys.run();
  const std::string text = RunReport(r).str();
  EXPECT_NE(text.find("IPC over time"), std::string::npos);
}

TEST(IntervalSampling, RecoveryShowsAsThroughputDip) {
  // With heavy errors, some intervals must commit far fewer instructions
  // than the busiest interval (the recovery stalls are visible in time).
  workload::SyntheticStream s(workload::profile("gzip"), 9, 40000);
  SystemConfig cfg = cfg1(3e-4);
  cfg.core.sample_interval = 1000;
  UnSyncParams p;
  p.cb_entries = 256;
  UnSyncSystem sys(cfg, p, s);
  const RunResult r = sys.run();
  ASSERT_GT(r.recoveries, 2u);
  const auto& samples = r.core_stats[0].interval_committed;
  ASSERT_GT(samples.size(), 10u);
  std::uint64_t min_delta = ~0ull, max_delta = 0;
  for (std::size_t i = 1; i < samples.size(); ++i) {
    const auto d = samples[i] - samples[i - 1];
    min_delta = std::min(min_delta, d);
    max_delta = std::max(max_delta, d);
  }
  EXPECT_LT(min_delta * 2, max_delta);  // clear dips
}

}  // namespace
}  // namespace unsync::core
