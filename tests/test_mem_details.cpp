// Memory-system detail tests: DRAM channel bandwidth, cache pre-warming,
// I-cache prefetch behaviour, and the write-through word path.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "ckpt/archive.hpp"
#include "ckpt/serializer.hpp"
#include "engine/stream_utils.hpp"
#include "mem/hierarchy.hpp"
#include "workload/profile.hpp"
#include "workload/synthetic.hpp"

namespace unsync::mem {
namespace {

MemConfig small() {
  MemConfig m;
  m.l1d = {.size_bytes = 1024, .line_bytes = 64, .assoc = 2, .hit_latency = 2,
           .mshrs = 8, .write_policy = WritePolicy::kWriteBack};
  m.l1i = {.size_bytes = 1024, .line_bytes = 64, .assoc = 2, .hit_latency = 1,
           .mshrs = 4, .write_policy = WritePolicy::kWriteBack};
  m.l2 = {.size_bytes = 64 * 1024, .line_bytes = 64, .assoc = 8,
          .hit_latency = 20, .mshrs = 16,
          .write_policy = WritePolicy::kWriteBack};
  return m;
}

TEST(DramChannel, SerialisesLineFetches) {
  MemoryHierarchy mh(small(), 1);
  // Many parallel L2 misses: completions must spread out by at least the
  // channel's per-line occupancy (8 cycles).
  std::vector<Cycle> dones;
  for (int i = 0; i < 8; ++i) {
    dones.push_back(mh.load(0, 0x1000000 + i * 4096, 0).done);
  }
  std::sort(dones.begin(), dones.end());
  for (std::size_t i = 1; i < dones.size(); ++i) {
    EXPECT_GE(dones[i] - dones[i - 1], mh.config().dram_line_cycles);
  }
}

TEST(Prewarm, L2LinesInstalledWithoutTime) {
  MemoryHierarchy mh(small(), 1);
  mh.prewarm_l2(0x40000, 4096);
  // A fresh L1 miss to the warmed region hits the L2: far below DRAM time.
  const auto r = mh.load(0, 0x40100, 0);
  EXPECT_TRUE(r.l2_hit);
  EXPECT_LT(r.done, mh.config().dram_latency / 2);
}

TEST(Prewarm, IcachesWarmAllCores) {
  MemoryHierarchy mh(small(), 2);
  mh.prewarm_icaches(0x1000, 512);
  for (unsigned c = 0; c < 2; ++c) {
    const auto r = mh.ifetch(c, 0x1100, 0);
    EXPECT_TRUE(r.l1_hit) << "core " << c;
  }
}

// Pre-warming pins: the counters and the hash of the saved bytes of each
// warmed cache, on the Table I hierarchy with the synthetic streams'
// regions (128 KiB warm region, 28 KiB code region at 0x1000).
struct WarmPin {
  std::uint64_t hits, misses, lines_valid, bytes_hash;
};

WarmPin pin_of(Cache& c) {
  ckpt::Serializer s;
  ckpt::Archive ar(s);
  c.visit(ar);
  return {c.hits(), c.misses(), c.lines_valid(), ckpt::hash64(s.data())};
}

void expect_pin(Cache& c, const WarmPin& want, const char* what) {
  const WarmPin got = pin_of(c);
  EXPECT_EQ(got.hits, want.hits) << what;
  EXPECT_EQ(got.misses, want.misses) << what;
  EXPECT_EQ(got.lines_valid, want.lines_valid) << what;
  EXPECT_EQ(got.bytes_hash, want.bytes_hash) << what;
}

TEST(Prewarm, PinsTheWarmedL2AndIcaches) {
  MemoryHierarchy mh(MemConfig{}, 2);
  mh.prewarm_l2(0x0200'0000, 128 * 1024);
  mh.prewarm_icaches(0x1000, 0x7000);
  expect_pin(mh.l2(), {0, 2048 + 448, 2048 + 448, 17599697214592712782ull},
             "L2");
  for (unsigned c = 0; c < 2; ++c) {
    expect_pin(mh.icache(c), {0, 448, 448, 5744653902414890587ull}, "L1i");
  }
}

TEST(Prewarm, PinsASecondStreamWhoseCodeRegionIsAlreadyWarm) {
  // Two streams with disjoint warm regions and the same code region: the
  // second stream's code fills hit in the L2 and in every I-cache.
  MemoryHierarchy mh(MemConfig{}, 2);
  const workload::SyntheticStream gzip(workload::profile("gzip"), 1, 1000);
  const workload::SyntheticStream mcf(workload::profile("mcf"), 1, 1000);
  engine::prewarm_from(mh, {&gzip, &mcf});
  expect_pin(mh.l2(),
             {448, 2 * 2048 + 448, 2 * 2048 + 448, 8600469221717907354ull},
             "L2");
  for (unsigned c = 0; c < 2; ++c) {
    expect_pin(mh.icache(c), {448, 448, 448, 12632750146956489387ull}, "L1i");
  }
}

TEST(IcachePrefetch, NextLineArrivesWithDemand) {
  MemoryHierarchy mh(small(), 1);
  const auto first = mh.ifetch(0, 0x200000, 0);
  EXPECT_FALSE(first.l1_hit);
  // The next line was prefetched alongside; fetching it after the fill
  // completes is a hit.
  const auto next = mh.ifetch(0, 0x200040, first.done + 16);
  EXPECT_TRUE(next.l1_hit);
}

TEST(IcachePrefetch, DoesNotRunAwayPastOneLine) {
  MemoryHierarchy mh(small(), 1);
  const auto first = mh.ifetch(0, 0x300000, 0);
  // Two lines ahead was NOT prefetched by the single demand access.
  EXPECT_FALSE(mh.icache(0).contains(0x300080));
  (void)first;
}

TEST(WriteThroughPath, WordPushesAllocateInL2) {
  MemConfig cfg = small();
  cfg.l1d.write_policy = WritePolicy::kWriteThrough;
  MemoryHierarchy mh(cfg, 1);
  mh.push_word_to_l2(0x500000, 0);
  EXPECT_TRUE(mh.l2().contains(0x500000));
  EXPECT_TRUE(mh.l2().line_dirty(0x500000));
}

TEST(WriteThroughPath, WordPushConsumesDramForAllocation) {
  MemConfig cfg = small();
  cfg.l1d.write_policy = WritePolicy::kWriteThrough;
  MemoryHierarchy mh(cfg, 1);
  const auto before = mh.dram_channel().busy_cycles();
  mh.push_word_to_l2(0x600000, 0);  // L2 write miss -> write-allocate fetch
  EXPECT_GT(mh.dram_channel().busy_cycles(), before);
}

TEST(WriteThroughPath, SecondPushToSameLineIsCheap) {
  MemConfig cfg = small();
  cfg.l1d.write_policy = WritePolicy::kWriteThrough;
  MemoryHierarchy mh(cfg, 1);
  mh.push_word_to_l2(0x700000, 0);
  const auto busy = mh.dram_channel().busy_cycles();
  mh.push_word_to_l2(0x700008, 100);  // same line: no second allocation
  EXPECT_EQ(mh.dram_channel().busy_cycles(), busy);
}

TEST(ReadAfterWriteThroughPush, WaitsForAllocationFill) {
  MemConfig cfg = small();
  cfg.l1d.write_policy = WritePolicy::kWriteThrough;
  MemoryHierarchy mh(cfg, 1);
  mh.push_word_to_l2(0x800000, 0);
  // A load shortly after must wait for the line's DRAM allocation, not
  // treat the tag-resident line as instantly ready.
  const auto r = mh.load(0, 0x800000, 5);
  EXPECT_GT(r.done, mh.config().l2.hit_latency + 10u);
}

}  // namespace
}  // namespace unsync::mem
