#include "core/unsync_system.hpp"

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

UnSyncParams big_cb() {
  UnSyncParams p;
  p.cb_entries = 256;  // 4 KiB: Figure 6's "no bottleneck" point
  return p;
}

TEST(UnSyncSystem, CompletesAStreamOnBothCores) {
  workload::SyntheticStream stream(workload::profile("gzip"), 1, 20000);
  UnSyncSystem sys(small_config(), big_cb(), stream);
  const engine::RunResult r = sys.run();
  EXPECT_EQ(r.system, "unsync");
  ASSERT_EQ(r.core_stats.size(), 2u);  // one pair
  EXPECT_EQ(r.core_stats[0].committed, 20000u);
  EXPECT_EQ(r.core_stats[1].committed, 20000u);
}

TEST(UnSyncSystem, UsesWriteThroughL1) {
  workload::SyntheticStream stream(workload::profile("gzip"), 2, 5000);
  UnSyncSystem sys(small_config(), big_cb(), stream);
  sys.run();
  EXPECT_EQ(sys.memory().config().l1d.write_policy,
            mem::WritePolicy::kWriteThrough);
  EXPECT_EQ(sys.memory().l1(0).lines_dirty(), 0u);
  EXPECT_EQ(sys.memory().l1(1).lines_dirty(), 0u);
}

TEST(UnSyncSystem, DrainsOneCopyOfEveryStore) {
  workload::SyntheticStream stream(workload::profile("susan"), 3, 20000);
  UnSyncSystem sys(small_config(), big_cb(), stream);
  const engine::RunResult r = sys.run();
  // Both cores committed every store, but the L2 received one copy each:
  // bus word pushes == stores per thread (no coalescing).
  const std::uint64_t stores = r.core_stats[0].stores;
  EXPECT_GT(stores, 3000u);
  EXPECT_EQ(r.core_stats[1].stores, stores);
}

TEST(UnSyncSystem, NearBaselinePerformanceWithLargeCb) {
  // The paper's headline: error-free UnSync runs within a few percent of
  // the baseline CMP when the CB is large enough.
  workload::SyntheticStream stream(workload::profile("gzip"), 4, 40000);
  BaselineSystem base(small_config(), stream);
  UnSyncSystem sys(small_config(), big_cb(), stream);
  const double base_ipc = base.run().thread_ipc();
  const double unsync_ipc = sys.run().thread_ipc();
  EXPECT_GT(unsync_ipc, base_ipc * 0.90);
}

TEST(UnSyncSystem, TinyCbCausesStalls) {
  workload::SyntheticStream stream(workload::profile("susan"), 5, 30000);
  UnSyncParams tiny;
  tiny.cb_entries = 4;
  UnSyncSystem small(small_config(), tiny, stream);
  UnSyncSystem large(small_config(), big_cb(), stream);
  const engine::RunResult rs = small.run();
  const engine::RunResult rl = large.run();
  EXPECT_GT(rs.cb_full_stalls, rl.cb_full_stalls);
  EXPECT_GT(rs.cycles, rl.cycles);
}

TEST(UnSyncSystem, CbSizeMonotonicallyHelps) {
  workload::SyntheticStream stream(workload::profile("susan"), 6, 20000);
  Cycle prev = ~Cycle{0};
  for (std::size_t entries : {8u, 32u, 128u, 256u}) {
    UnSyncParams p;
    p.cb_entries = entries;
    UnSyncSystem sys(small_config(), p, stream);
    const Cycle c = sys.run().cycles;
    EXPECT_LE(c, prev + prev / 50) << entries;  // allow 2% noise
    prev = c;
  }
}

TEST(UnSyncSystem, ErrorFreeRunHasNoRecoveries) {
  workload::SyntheticStream stream(workload::profile("gzip"), 7, 10000);
  UnSyncSystem sys(small_config(), big_cb(), stream);
  const engine::RunResult r = sys.run();
  EXPECT_EQ(r.errors_injected, 0u);
  EXPECT_EQ(r.recoveries, 0u);
  EXPECT_EQ(r.recovery_cycles_total, 0u);
}

TEST(UnSyncSystem, ErrorsTriggerForwardRecovery) {
  workload::SyntheticStream stream(workload::profile("gzip"), 8, 30000);
  SystemConfig cfg = small_config();
  cfg.ser_per_inst = 1e-4;  // ~3 errors over the run
  UnSyncSystem sys(cfg, big_cb(), stream);
  const engine::RunResult r = sys.run();
  EXPECT_GT(r.errors_injected, 0u);
  EXPECT_EQ(r.recoveries, r.errors_injected);
  EXPECT_GT(r.recovery_cycles_total, 0u);
  // Recovery must not lose the program: both cores finished everything.
  EXPECT_EQ(r.core_stats[0].committed, 30000u);
  EXPECT_EQ(r.core_stats[1].committed, 30000u);
}

TEST(UnSyncSystem, RecoveryCostScalesWithErrors) {
  workload::SyntheticStream stream(workload::profile("gzip"), 9, 30000);
  SystemConfig low = small_config();
  low.ser_per_inst = 5e-5;
  SystemConfig high = small_config();
  high.ser_per_inst = 1e-3;
  UnSyncSystem a(low, big_cb(), stream);
  UnSyncSystem b(high, big_cb(), stream);
  const engine::RunResult ra = a.run();
  const engine::RunResult rb = b.run();
  EXPECT_GT(rb.errors_injected, ra.errors_injected);
  EXPECT_GT(rb.cycles, ra.cycles);
}

TEST(UnSyncSystem, SerializingInstructionsDoNotSynchronise) {
  // ammp has 1.7% serializing instructions; UnSync's overhead vs baseline
  // must stay small (Figure 4's right-hand bars, ~2%).
  workload::SyntheticStream stream(workload::profile("ammp"), 10, 30000);
  BaselineSystem base(small_config(), stream);
  UnSyncSystem sys(small_config(), big_cb(), stream);
  const double base_ipc = base.run().thread_ipc();
  const double unsync_ipc = sys.run().thread_ipc();
  EXPECT_GT(unsync_ipc, base_ipc * 0.90);
}

TEST(UnSyncSystem, TwoPairsRunConcurrently) {
  workload::SyntheticStream stream(workload::profile("gzip"), 11, 10000);
  UnSyncSystem sys(small_config(2), big_cb(), stream);
  const engine::RunResult r = sys.run();
  ASSERT_EQ(r.core_stats.size(), 4u);
  for (const auto& cs : r.core_stats) EXPECT_EQ(cs.committed, 10000u);
}

TEST(UnSyncSystem, DeterministicAcrossRuns) {
  workload::SyntheticStream stream(workload::profile("bzip2"), 12, 15000);
  SystemConfig cfg = small_config();
  cfg.ser_per_inst = 1e-4;
  UnSyncSystem a(cfg, big_cb(), stream);
  UnSyncSystem b(cfg, big_cb(), stream);
  const engine::RunResult ra = a.run();
  const engine::RunResult rb = b.run();
  EXPECT_EQ(ra.cycles, rb.cycles);
  EXPECT_EQ(ra.errors_injected, rb.errors_injected);
}

}  // namespace
}  // namespace unsync::core
