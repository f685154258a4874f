#include "mem/cache.hpp"

#include <gtest/gtest.h>

#include "ckpt/archive.hpp"

namespace unsync::mem {
namespace {

CacheConfig small_cache(WritePolicy policy = WritePolicy::kWriteBack) {
  // 4 sets x 2 ways x 64B lines = 512 B.
  return {.size_bytes = 512, .line_bytes = 64, .assoc = 2, .hit_latency = 2,
          .mshrs = 4, .write_policy = policy};
}

TEST(Cache, ColdMissThenHit) {
  Cache c(small_cache());
  EXPECT_FALSE(c.access_read(0x100).hit);
  EXPECT_TRUE(c.access_read(0x100).hit);
  EXPECT_TRUE(c.access_read(0x13f).hit);   // same line
  EXPECT_FALSE(c.access_read(0x140).hit);  // next line
}

TEST(Cache, ContainsIsSideEffectFree) {
  Cache c(small_cache());
  EXPECT_FALSE(c.contains(0x100));
  c.access_read(0x100);
  EXPECT_TRUE(c.contains(0x100));
  EXPECT_EQ(c.hits() + c.misses(), 1u);  // contains didn't count
}

TEST(Cache, LruEviction) {
  Cache c(small_cache());
  // Three lines mapping to the same set (set stride = 4 sets * 64 B = 256).
  c.access_read(0x000);
  c.access_read(0x100);
  c.access_read(0x000);            // touch: 0x100 becomes LRU
  c.access_read(0x200);            // evicts 0x100
  EXPECT_TRUE(c.contains(0x000));
  EXPECT_FALSE(c.contains(0x100));
  EXPECT_TRUE(c.contains(0x200));
}

TEST(Cache, WriteBackDirtyVictimReported) {
  Cache c(small_cache(WritePolicy::kWriteBack));
  c.access_write(0x000);  // allocate + dirty
  c.access_read(0x100);
  const auto r = c.access_read(0x200);  // evicts dirty 0x000
  ASSERT_TRUE(r.dirty_victim.has_value());
  EXPECT_EQ(*r.dirty_victim, 0x000u);
  EXPECT_EQ(c.writebacks(), 1u);
}

TEST(Cache, CleanVictimNotReported) {
  Cache c(small_cache());
  c.access_read(0x000);
  c.access_read(0x100);
  const auto r = c.access_read(0x200);
  EXPECT_FALSE(r.dirty_victim.has_value());
}

TEST(Cache, WriteThroughNeverDirties) {
  Cache c(small_cache(WritePolicy::kWriteThrough));
  c.access_read(0x000);   // bring the line in
  c.access_write(0x000);  // hit, but stays clean
  EXPECT_TRUE(c.contains(0x000));
  EXPECT_FALSE(c.line_dirty(0x000));
  EXPECT_EQ(c.lines_dirty(), 0u);
}

TEST(Cache, WriteThroughMissDoesNotAllocate) {
  Cache c(small_cache(WritePolicy::kWriteThrough));
  EXPECT_FALSE(c.access_write(0x300).hit);
  EXPECT_FALSE(c.contains(0x300));  // no-write-allocate
}

TEST(Cache, WriteBackMissAllocates) {
  Cache c(small_cache(WritePolicy::kWriteBack));
  EXPECT_FALSE(c.access_write(0x300).hit);
  EXPECT_TRUE(c.contains(0x300));
  EXPECT_TRUE(c.line_dirty(0x300));
}

TEST(Cache, InvalidateSingleLine) {
  Cache c(small_cache());
  c.access_read(0x100);
  EXPECT_TRUE(c.invalidate(0x100));
  EXPECT_FALSE(c.contains(0x100));
  EXPECT_FALSE(c.invalidate(0x100));  // already gone
}

TEST(Cache, InvalidateAllClearsEverything) {
  Cache c(small_cache());
  c.access_write(0x000);
  c.access_read(0x040);
  c.access_read(0x080);
  EXPECT_GT(c.lines_valid(), 0u);
  c.invalidate_all();
  EXPECT_EQ(c.lines_valid(), 0u);
  EXPECT_EQ(c.lines_dirty(), 0u);
}

TEST(Cache, MissRateAccounting) {
  Cache c(small_cache());
  c.access_read(0x000);  // miss
  c.access_read(0x000);  // hit
  c.access_read(0x000);  // hit
  c.access_read(0x040);  // miss
  EXPECT_DOUBLE_EQ(c.miss_rate(), 0.5);
}

TEST(Cache, LineAddrMasksOffset) {
  Cache c(small_cache());
  EXPECT_EQ(c.line_addr(0x1234), 0x1200u);
  EXPECT_EQ(c.line_addr(0x1240), 0x1240u);
}

TEST(Mshr, SecondaryMissMerges) {
  MshrFile m(2);
  m.allocate(0x100, 0, 50);
  const auto inflight = m.in_flight(0x100, 10);
  ASSERT_TRUE(inflight.has_value());
  EXPECT_EQ(*inflight, 50u);
  EXPECT_FALSE(m.in_flight(0x200, 10).has_value());
}

TEST(Mshr, EntriesExpire) {
  MshrFile m(2);
  m.allocate(0x100, 0, 50);
  EXPECT_FALSE(m.in_flight(0x100, 50).has_value());
  EXPECT_EQ(m.occupancy(50), 0u);
}

TEST(Mshr, FirstFreeBlocksWhenFull) {
  MshrFile m(2);
  m.allocate(0x100, 0, 50);
  m.allocate(0x200, 0, 70);
  EXPECT_EQ(m.first_free(10), 50u);  // earliest completion
  EXPECT_EQ(m.first_free(60), 60u);  // one expired already
}

TEST(Mshr, StallAccounting) {
  MshrFile m(1);
  m.add_stall(40);
  m.add_stall(2);
  EXPECT_EQ(m.stall_cycles(), 42u);
}

// Property sweep: with a cache of N lines, touching exactly N distinct lines
// then re-touching them all yields zero additional misses (LRU retains the
// working set when it fits).
class CacheWorkingSet : public ::testing::TestWithParam<int> {};

TEST_P(CacheWorkingSet, FittingWorkingSetFullyRetained) {
  const int lines = GetParam();
  const std::uint32_t size = static_cast<std::uint32_t>(lines) * 64;
  Cache c({.size_bytes = size, .line_bytes = 64, .assoc = 2, .hit_latency = 2,
           .mshrs = 4, .write_policy = WritePolicy::kWriteBack});
  for (int i = 0; i < lines; ++i) c.access_read(static_cast<Addr>(i) * 64);
  const auto misses_before = c.misses();
  for (int i = 0; i < lines; ++i) c.access_read(static_cast<Addr>(i) * 64);
  EXPECT_EQ(c.misses(), misses_before);
  EXPECT_EQ(c.lines_valid(), static_cast<std::uint64_t>(lines));
}

INSTANTIATE_TEST_SUITE_P(Sizes, CacheWorkingSet,
                         ::testing::Values(8, 16, 64, 256));

// Property: a dirty victim's reconstructed address maps back to the same
// set it was evicted from.
TEST(Cache, VictimAddressReconstruction) {
  Cache c(small_cache(WritePolicy::kWriteBack));
  c.access_write(0x1000);
  c.access_write(0x1100);
  const auto r = c.access_write(0x1200);  // same set as the others
  ASSERT_TRUE(r.dirty_victim.has_value());
  EXPECT_EQ(c.line_addr(*r.dirty_victim) % (4 * 64), 0x1000u % (4 * 64));
}

// The line array is saved and loaded as one block of 18-byte records: a
// restored cache holds the same lines, a second save gives the same bytes,
// and a block cut short throws instead of reading past the end.
TEST(Cache, CheckpointRoundTripsTheLineBlock) {
  Cache c(small_cache(WritePolicy::kWriteBack));
  c.access_write(0x000);
  c.access_read(0x140);
  c.access_read(0x2c0);
  ckpt::Serializer s;
  {
    ckpt::Archive ar(s);
    c.visit(ar);
  }
  const std::string bytes = s.take();

  Cache back(small_cache(WritePolicy::kWriteBack));
  {
    ckpt::Deserializer d(bytes);
    ckpt::Archive ar(d);
    back.visit(ar);
    EXPECT_TRUE(d.at_end());
  }
  EXPECT_EQ(back.lines_valid(), 3u);
  EXPECT_EQ(back.lines_dirty(), 1u);
  for (const Addr a : {0x000, 0x140, 0x2c0}) EXPECT_TRUE(back.contains(a)) << a;
  EXPECT_TRUE(back.line_dirty(0x000));
  ckpt::Serializer again;
  {
    ckpt::Archive ar(again);
    back.visit(ar);
  }
  EXPECT_EQ(again.data(), bytes);

  // CACH tag, chunk length, line count, then 8 lines x 18 bytes.
  ASSERT_GT(bytes.size(), 4u + 8 + 8 + 8 * 18);
  std::string cut = bytes.substr(0, 4 + 8 + 8 + 8 * 18 - 1);
  const std::uint64_t len = cut.size() - 12;
  for (std::size_t i = 0; i < 8; ++i) {
    cut[4 + i] = static_cast<char>((len >> (8 * i)) & 0xFF);
  }
  Cache victim(small_cache(WritePolicy::kWriteBack));
  ckpt::Deserializer d(cut);
  ckpt::Archive ar(d);
  EXPECT_THROW(victim.visit(ar), ckpt::CkptError);
}

}  // namespace
}  // namespace unsync::mem
