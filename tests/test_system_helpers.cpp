// Tests for the shared system plumbing in core/system.hpp: thread-stream
// replication, multi-stream pre-warming, and the RunResult helpers.
#include <gtest/gtest.h>

#include "core/system.hpp"
#include "workload/profile.hpp"
#include "workload/synthetic.hpp"

namespace unsync::core {
namespace {

TEST(SystemHelpers, ReplicateFansOutOnePointer) {
  workload::SyntheticStream s(workload::profile("gzip"), 1, 100);
  const auto v = engine::replicate(s, 3);
  ASSERT_EQ(v.size(), 3u);
  for (const auto* p : v) EXPECT_EQ(p, &s);
}

TEST(SystemHelpers, LengthsAndMax) {
  workload::SyntheticStream a(workload::profile("gzip"), 1, 100);
  workload::SyntheticStream b(workload::profile("mcf"), 1, 250);
  const auto lengths = engine::lengths_of({&a, &b});
  ASSERT_EQ(lengths.size(), 2u);
  EXPECT_EQ(lengths[0], 100u);
  EXPECT_EQ(lengths[1], 250u);
  EXPECT_EQ(engine::max_length(lengths), 250u);
  EXPECT_EQ(engine::max_length({}), 0u);
}

TEST(SystemHelpers, PrewarmDeduplicatesStreams) {
  // The same stream listed twice warms its regions once; two distinct
  // streams warm both regions. Verified through L2 line counts.
  workload::SyntheticStream a(workload::profile("gzip"), 1, 100);
  workload::SyntheticStream b(workload::profile("mcf"), 9, 100);

  mem::MemoryHierarchy dup(mem::MemConfig{}, 2);
  engine::prewarm_from(dup, {&a, &a});
  mem::MemoryHierarchy two(mem::MemConfig{}, 2);
  engine::prewarm_from(two, {&a, &b});
  // Distinct (profile, seed) pairs live in distinct address slots, so two
  // streams install roughly twice the data-warm lines.
  EXPECT_GT(two.l2().lines_valid(), dup.l2().lines_valid() * 3 / 2);
}

TEST(SystemHelpers, ThreadIpcUsesLongestThread) {
  engine::RunResult r;
  r.cycles = 1000;
  r.instructions = 2000;
  EXPECT_DOUBLE_EQ(r.thread_ipc(), 2.0);
  r.cycles = 0;
  EXPECT_DOUBLE_EQ(r.thread_ipc(), 0.0);
}

TEST(SystemHelpers, ErrorEventDefaults) {
  const engine::ErrorEvent e{};
  EXPECT_EQ(e.cycle, 0u);
  EXPECT_FALSE(e.rollback);
}

}  // namespace
}  // namespace unsync::core
