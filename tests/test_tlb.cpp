#include "mem/tlb.hpp"

#include <gtest/gtest.h>

#include "ckpt/archive.hpp"

namespace unsync::mem {
namespace {

TEST(Tlb, ColdMissThenHit) {
  Tlb tlb({.entries = 8, .assoc = 2, .page_bits = 12});
  EXPECT_FALSE(tlb.access(0x1000));
  EXPECT_TRUE(tlb.access(0x1000));
  EXPECT_TRUE(tlb.access(0x1FFF));   // same page
  EXPECT_FALSE(tlb.access(0x2000));  // next page
}

TEST(Tlb, NonPowerOfTwoSetCount) {
  // Table I's I-TLB: 48 entries, 2-way -> 24 sets.
  Tlb tlb({.entries = 48, .assoc = 2, .page_bits = 12});
  for (Addr p = 0; p < 48; ++p) tlb.access(p << 12);
  // All 48 pages map across 24 sets at 2 ways: all retained.
  for (Addr p = 0; p < 48; ++p) {
    EXPECT_TRUE(tlb.contains(p << 12)) << p;
  }
}

TEST(Tlb, LruEvictionWithinSet) {
  Tlb tlb({.entries = 4, .assoc = 2, .page_bits = 12});  // 2 sets
  // Pages 0, 2, 4 all map to set 0.
  tlb.access(Addr{0} << 12);
  tlb.access(Addr{2} << 12);
  tlb.access(Addr{0} << 12);  // touch: page 2 is LRU
  tlb.access(Addr{4} << 12);  // evicts page 2
  EXPECT_TRUE(tlb.contains(Addr{0} << 12));
  EXPECT_FALSE(tlb.contains(Addr{2} << 12));
  EXPECT_TRUE(tlb.contains(Addr{4} << 12));
}

TEST(Tlb, ContainsIsSideEffectFree) {
  Tlb tlb({.entries = 8, .assoc = 2, .page_bits = 12});
  EXPECT_FALSE(tlb.contains(0x5000));
  EXPECT_EQ(tlb.hits() + tlb.misses(), 0u);
}

TEST(Tlb, MissRateAccounting) {
  Tlb tlb({.entries = 8, .assoc = 2, .page_bits = 12});
  tlb.access(0x1000);  // miss
  tlb.access(0x1000);  // hit
  tlb.access(0x1008);  // hit (same page)
  tlb.access(0x9000);  // miss
  EXPECT_DOUBLE_EQ(tlb.miss_rate(), 0.5);
}

TEST(Tlb, FlushInvalidatesEverything) {
  Tlb tlb({.entries = 8, .assoc = 2, .page_bits = 12});
  tlb.access(0x1000);
  tlb.access(0x2000);
  tlb.flush();
  EXPECT_FALSE(tlb.contains(0x1000));
  EXPECT_FALSE(tlb.contains(0x2000));
}

// Property: a working set of exactly `entries` pages with uniform access
// never misses after the cold pass when pages spread evenly over sets.
class TlbWorkingSet : public ::testing::TestWithParam<int> {};

TEST_P(TlbWorkingSet, SequentialPagesFullyRetained) {
  const int entries = GetParam();
  Tlb tlb({.entries = static_cast<std::uint32_t>(entries), .assoc = 2,
           .page_bits = 12});
  for (int p = 0; p < entries; ++p) tlb.access(static_cast<Addr>(p) << 12);
  const auto misses = tlb.misses();
  for (int round = 0; round < 3; ++round) {
    for (int p = 0; p < entries; ++p) tlb.access(static_cast<Addr>(p) << 12);
  }
  EXPECT_EQ(tlb.misses(), misses);
}

INSTANTIATE_TEST_SUITE_P(Sizes, TlbWorkingSet,
                         ::testing::Values(4, 16, 48, 64));

TEST(Tlb, PageBitsRespected) {
  Tlb big_pages({.entries = 4, .assoc = 2, .page_bits = 16});  // 64 KiB pages
  big_pages.access(0x0000);
  EXPECT_TRUE(big_pages.contains(0xFFFF));   // same 64 KiB page
  EXPECT_FALSE(big_pages.contains(0x10000));
}

// The entry array is saved and loaded as one block of 17-byte records: a
// restored TLB holds the same pages, a second save gives the same bytes,
// and a block cut short throws instead of reading past the end.
TEST(Tlb, CheckpointRoundTripsTheEntryBlock) {
  Tlb tlb({.entries = 8, .assoc = 2, .page_bits = 12});
  for (const Addr page : {1, 2, 9}) tlb.access(page << 12);
  ckpt::Serializer s;
  {
    ckpt::Archive ar(s);
    tlb.visit(ar);
  }
  const std::string bytes = s.take();

  Tlb back({.entries = 8, .assoc = 2, .page_bits = 12});
  {
    ckpt::Deserializer d(bytes);
    ckpt::Archive ar(d);
    back.visit(ar);
    EXPECT_TRUE(d.at_end());
  }
  for (const Addr page : {1, 2, 9}) EXPECT_TRUE(back.contains(page << 12));
  EXPECT_FALSE(back.contains(Addr{3} << 12));
  ckpt::Serializer again;
  {
    ckpt::Archive ar(again);
    back.visit(ar);
  }
  EXPECT_EQ(again.data(), bytes);

  // TLB0 tag, chunk length, entry count, then 8 entries x 17 bytes.
  ASSERT_GT(bytes.size(), 4u + 8 + 8 + 8 * 17);
  std::string cut = bytes.substr(0, 4 + 8 + 8 + 8 * 17 - 1);
  const std::uint64_t len = cut.size() - 12;
  for (std::size_t i = 0; i < 8; ++i) {
    cut[4 + i] = static_cast<char>((len >> (8 * i)) & 0xFF);
  }
  Tlb victim({.entries = 8, .assoc = 2, .page_bits = 12});
  ckpt::Deserializer d(cut);
  ckpt::Archive ar(d);
  EXPECT_THROW(victim.visit(ar), ckpt::CkptError);
}

}  // namespace
}  // namespace unsync::mem
