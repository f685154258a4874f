// Tests for configurable redundancy degree (UnSync groups of N cores).
#include <gtest/gtest.h>

#include "core/baseline.hpp"
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

UnSyncParams params_n(unsigned n, std::size_t cb = 256) {
  UnSyncParams p;
  p.group_size = n;
  p.cb_entries = cb;
  return p;
}

TEST(UnSyncNWay, TripleGroupCompletesOnAllCores) {
  workload::SyntheticStream s(workload::profile("gzip"), 1, 15000);
  UnSyncSystem sys(cfg1(), params_n(3), s);
  const engine::RunResult r = sys.run();
  ASSERT_EQ(r.core_stats.size(), 3u);
  for (const auto& cs : r.core_stats) EXPECT_EQ(cs.committed, 15000u);
}

TEST(UnSyncNWay, TripleDrainsOneCopyOfStores) {
  workload::SyntheticStream s(workload::profile("susan"), 2, 15000);
  UnSyncSystem sys(cfg1(), params_n(3), s);
  const engine::RunResult r = sys.run();
  // All three cores committed the same store count.
  EXPECT_EQ(r.core_stats[0].stores, r.core_stats[1].stores);
  EXPECT_EQ(r.core_stats[1].stores, r.core_stats[2].stores);
}

TEST(UnSyncNWay, MoreCoresCostPerformanceNotCorrectness) {
  // A third core adds L2/bus pressure: never faster, and within a modest
  // factor of the pair configuration.
  workload::SyntheticStream s(workload::profile("mcf"), 3, 15000);
  UnSyncSystem pair(cfg1(), params_n(2), s);
  UnSyncSystem triple(cfg1(), params_n(3), s);
  const Cycle two = pair.run().cycles;
  const Cycle three = triple.run().cycles;
  EXPECT_GE(three + three / 50, two);
  EXPECT_LT(three, two * 2);
}

TEST(UnSyncNWay, TripleGroupRecoversFromErrors) {
  workload::SyntheticStream s(workload::profile("gzip"), 4, 20000);
  UnSyncSystem sys(cfg1(1e-4), params_n(3), s);
  const engine::RunResult r = sys.run();
  EXPECT_GT(r.errors_injected, 0u);
  EXPECT_EQ(r.recoveries, r.errors_injected);
  for (const auto& cs : r.core_stats) EXPECT_EQ(cs.committed, 20000u);
}

TEST(UnSyncNWay, QuadGroupWorks) {
  workload::SyntheticStream s(workload::profile("gzip"), 5, 8000);
  UnSyncSystem sys(cfg1(1e-4), params_n(4), s);
  const engine::RunResult r = sys.run();
  ASSERT_EQ(r.core_stats.size(), 4u);
  for (const auto& cs : r.core_stats) EXPECT_EQ(cs.committed, 8000u);
}

TEST(UnSyncNWay, GroupSizeAccessor) {
  workload::SyntheticStream s(workload::profile("gzip"), 6, 100);
  UnSyncSystem sys(cfg1(), params_n(3), s);
  EXPECT_EQ(sys.group_size(), 3u);
}

TEST(UnSyncNWay, DeterministicWithErrors) {
  workload::SyntheticStream s(workload::profile("bzip2"), 7, 12000);
  UnSyncSystem a(cfg1(1e-4), params_n(3), s);
  UnSyncSystem b(cfg1(1e-4), params_n(3), s);
  const auto ra = a.run();
  const auto rb = b.run();
  EXPECT_EQ(ra.cycles, rb.cycles);
  EXPECT_EQ(ra.recoveries, rb.recoveries);
}

// Property sweep: every group size completes the stream exactly.
class GroupSize : public ::testing::TestWithParam<unsigned> {};

TEST_P(GroupSize, StreamCompletesExactly) {
  workload::SyntheticStream s(workload::profile("qsort"), 8, 10000);
  UnSyncSystem sys(cfg1(5e-5), params_n(GetParam()), s);
  const engine::RunResult r = sys.run();
  ASSERT_EQ(r.core_stats.size(), GetParam());
  for (const auto& cs : r.core_stats) EXPECT_EQ(cs.committed, 10000u);
}

INSTANTIATE_TEST_SUITE_P(Degrees, GroupSize, ::testing::Values(2u, 3u, 4u));

}  // namespace
}  // namespace unsync::core
