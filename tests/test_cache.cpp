#include "mem/cache.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "ckpt/archive.hpp"
#include "core/factory.hpp"
#include "core/system.hpp"
#include "mem/config.hpp"
#include "workload/profile.hpp"
#include "workload/synthetic.hpp"

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

// ---- Geometry checks --------------------------------------------------------
//
// Every configured build defines NDEBUG, so the constructor checks throw
// instead of asserting.

TEST(CacheGeometry, SetCountMustBeAPowerOfTwo) {
  CacheConfig c = small_cache();
  c.size_bytes = 3 * 2 * 64;  // 3 sets
  EXPECT_THROW((void)Cache{c}, std::invalid_argument);
  c.size_bytes = 64;  // less than one set: 0 sets
  EXPECT_THROW((void)Cache{c}, std::invalid_argument);
}

TEST(CacheGeometry, LineSizeMustBeAPowerOfTwo) {
  CacheConfig c = small_cache();
  c.line_bytes = 48;
  c.size_bytes = 4 * 2 * 48;
  EXPECT_THROW((void)Cache{c}, std::invalid_argument);
  c.line_bytes = 0;
  EXPECT_THROW((void)Cache{c}, std::invalid_argument);
}

TEST(CacheGeometry, AssociativityMustFitThePerSetCount) {
  CacheConfig c = small_cache();
  c.assoc = 0;
  EXPECT_THROW((void)Cache{c}, std::invalid_argument);
  c.assoc = Cache::max_assoc() + 1;
  c.size_bytes = c.assoc * 64;
  EXPECT_THROW((void)Cache{c}, std::invalid_argument);
}

TEST(CacheGeometry, LargestAssociativityIsUsable) {
  // One fully associative set at the largest way count: every way fills,
  // then the LRU line is the victim.
  const std::uint32_t ways = Cache::max_assoc();
  Cache c({.size_bytes = ways * 64, .line_bytes = 64, .assoc = ways,
           .hit_latency = 2, .mshrs = 4,
           .write_policy = WritePolicy::kWriteBack});
  for (std::uint32_t i = 0; i < ways; ++i) c.access_read(Addr{i} * 64);
  EXPECT_EQ(c.lines_valid(), ways);
  EXPECT_EQ(c.misses(), ways);
  c.access_read(Addr{ways} * 64);
  EXPECT_FALSE(c.contains(0));
  EXPECT_TRUE(c.contains(Addr{1} * 64));
}

// ---- Differential check against a dense reference tag array ----------------
//
// RefCache is the tag array without per-set in-use counts: every way of a
// set is scanned, all lines start as zero lines, and the victim is the
// first invalid way, else the least recently used one. Cache must agree
// with it on every result, counter and probe, and on the saved bytes at
// every save, including across save -> load into a fresh instance.
class RefCache {
 public:
  struct Line {
    Addr tag = 0;
    bool valid = false;
    bool dirty = false;
    std::uint64_t lru = 0;
  };

  explicit RefCache(const CacheConfig& c)
      : cfg_(c), sets_(c.num_sets()), lines_(std::size_t{sets_} * c.assoc) {}

  LookupResult access(Addr addr, bool is_write) {
    const bool write_back = cfg_.write_policy == WritePolicy::kWriteBack;
    const Addr line = addr / cfg_.line_bytes;
    const std::size_t set = line % sets_;
    const Addr tag = line / sets_;
    Line* ways = &lines_[set * cfg_.assoc];
    ++clock_;
    for (std::uint32_t w = 0; w < cfg_.assoc; ++w) {
      if (ways[w].valid && ways[w].tag == tag) {
        ++hits_;
        ways[w].lru = clock_;
        if (is_write && write_back) ways[w].dirty = true;
        return {.hit = true, .dirty_victim = std::nullopt};
      }
    }
    ++misses_;
    if (is_write && !write_back) return {};
    Line* victim = ways;
    for (std::uint32_t w = 0; w < cfg_.assoc; ++w) {
      if (!ways[w].valid) {
        victim = &ways[w];
        break;
      }
      if (ways[w].lru < victim->lru) victim = &ways[w];
    }
    LookupResult r;
    if (victim->valid && victim->dirty) {
      ++writebacks_;
      r.dirty_victim = (victim->tag * sets_ + set) * cfg_.line_bytes;
    }
    *victim = {tag, true, is_write && write_back, clock_};
    return r;
  }

  Line* find(Addr addr) {
    const Addr line = addr / cfg_.line_bytes;
    Line* ways = &lines_[(line % sets_) * cfg_.assoc];
    for (std::uint32_t w = 0; w < cfg_.assoc; ++w) {
      if (ways[w].valid && ways[w].tag == line / sets_) return &ways[w];
    }
    return nullptr;
  }
  bool invalidate(Addr addr) {
    Line* l = find(addr);
    if (l) l->valid = l->dirty = false;
    return l != nullptr;
  }
  void invalidate_all() {
    for (Line& l : lines_) l.valid = l.dirty = false;
  }
  std::uint64_t lines_valid() const {
    return static_cast<std::uint64_t>(std::count_if(
        lines_.begin(), lines_.end(), [](const Line& l) { return l.valid; }));
  }
  std::uint64_t lines_dirty() const {
    return static_cast<std::uint64_t>(
        std::count_if(lines_.begin(), lines_.end(),
                      [](const Line& l) { return l.valid && l.dirty; }));
  }

  /// Cache::visit's Save bytes, written field by field.
  std::string save() const {
    ckpt::Serializer s;
    s.begin_chunk("CACH");
    s.u64(lines_.size());
    for (const Line& l : lines_) {
      s.u64(l.tag);
      s.b(l.valid);
      s.b(l.dirty);
      s.u64(l.lru);
    }
    for (const std::uint64_t v : {clock_, hits_, misses_, writebacks_}) {
      s.u64(v);
    }
    s.begin_chunk("MSHR");
    s.u32(cfg_.mshrs);
    s.u64(0);  // no in-flight misses
    s.u64(0);  // stall cycles
    s.end_chunk();
    s.end_chunk();
    return s.take();
  }

  std::uint64_t hits_ = 0, misses_ = 0, writebacks_ = 0;

 private:
  CacheConfig cfg_;
  std::uint64_t sets_;
  std::vector<Line> lines_;
  std::uint64_t clock_ = 0;
};

std::string save_bytes(Cache& c) {
  ckpt::Serializer s;
  ckpt::Archive ar(s);
  c.visit(ar);
  return s.take();
}

std::unique_ptr<Cache> load_fresh(const CacheConfig& config,
                                  const std::string& bytes) {
  auto c = std::make_unique<Cache>(config);
  ckpt::Deserializer d(bytes);
  ckpt::Archive ar(d);
  c->visit(ar);
  EXPECT_TRUE(d.at_end());
  return c;
}

/// Associativity (0 = the 4 MiB L2 of Table I) and write policy.
using DiffParam = std::tuple<std::uint32_t, WritePolicy>;
class CacheDifferential : public ::testing::TestWithParam<DiffParam> {};

TEST_P(CacheDifferential, MatchesTheDenseReferenceModel) {
  const auto [assoc, policy] = GetParam();
  CacheConfig config = MemConfig{}.l2;
  if (assoc != 0) {
    config = {.size_bytes = 16 * assoc * 64, .line_bytes = 64, .assoc = assoc,
              .hit_latency = 2, .mshrs = 4, .write_policy = policy};
  }
  config.write_policy = policy;
  const std::uint64_t sets = config.num_sets();
  // Up to 32 sets spread over the index range, and assoc + 3 tags per set,
  // so sets overflow and evict.
  const std::uint64_t set_pool = std::min<std::uint64_t>(sets, 32);
  for (const std::uint64_t seed : {1, 2, 3}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::mt19937_64 rng(seed);
    const auto draw_addr = [&] {
      const std::uint64_t set = (rng() % set_pool) * (sets / set_pool);
      const std::uint64_t tag = rng() % (config.assoc + 3);
      return ((tag * sets + set) * config.line_bytes) +
             rng() % config.line_bytes;
    };
    auto cache = std::make_unique<Cache>(config);
    RefCache ref(config);
    // Fewer operations on the L2, whose every save is 1.2 MB.
    const int ops = assoc == 0 ? 500 : 2000;
    for (int op = 0; op < ops; ++op) {
      SCOPED_TRACE("op " + std::to_string(op));
      const Addr addr = draw_addr();
      const std::uint64_t kind = rng() % 100;
      if (kind < 45) {
        const LookupResult got = cache->access_read(addr);
        const LookupResult want = ref.access(addr, false);
        ASSERT_EQ(got.hit, want.hit);
        ASSERT_EQ(got.dirty_victim, want.dirty_victim);
      } else if (kind < 75) {
        const LookupResult got = cache->access_write(addr);
        const LookupResult want = ref.access(addr, true);
        ASSERT_EQ(got.hit, want.hit);
        ASSERT_EQ(got.dirty_victim, want.dirty_victim);
      } else if (kind < 88) {
        ASSERT_EQ(cache->invalidate(addr), ref.invalidate(addr));
      } else if (kind < 90) {
        cache->invalidate_all();
        ref.invalidate_all();
      } else if (kind < 97) {
        // Save (unused ways stay zero bytes), then either keep going or
        // continue in a freshly loaded instance.
        const std::string bytes = save_bytes(*cache);
        ASSERT_TRUE(bytes == ref.save());
        if (kind >= 94) cache = load_fresh(config, bytes);
      }
      ASSERT_EQ(cache->hits(), ref.hits_);
      ASSERT_EQ(cache->misses(), ref.misses_);
      ASSERT_EQ(cache->writebacks(), ref.writebacks_);
      ASSERT_EQ(cache->lines_valid(), ref.lines_valid());
      ASSERT_EQ(cache->lines_dirty(), ref.lines_dirty());
      for (const Addr probe : {addr, Addr{draw_addr()}}) {
        const auto* line = ref.find(probe);
        ASSERT_EQ(cache->contains(probe), line != nullptr);
        ASSERT_EQ(cache->line_dirty(probe), line && line->dirty);
      }
    }
    EXPECT_TRUE(save_bytes(*cache) == ref.save());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheDifferential,
    ::testing::Combine(::testing::Values(1u, 2u, 8u, 16u, 0u),
                       ::testing::Values(WritePolicy::kWriteBack,
                                         WritePolicy::kWriteThrough)),
    [](const auto& info) {
      const std::uint32_t assoc = std::get<0>(info.param);
      const bool wb = std::get<1>(info.param) == WritePolicy::kWriteBack;
      return (assoc == 0 ? "L2" : "assoc" + std::to_string(assoc)) +
             (wb ? "_wb" : "_wt");
    });

// ---- Sparse save -> load ----------------------------------------------------
//
// Save writes only each set's ways in use, and load takes the in-use counts
// from the saved bytes: a restored cache re-saves byte-identically and then
// behaves exactly like a twin that was never saved.

struct CacheOp {
  enum Kind { kRead, kWrite, kInvalidate, kInvalidateAll } kind;
  Addr addr;
};

/// Random accesses to the 4 MiB L2, mostly empty: 64 sets spread over the
/// index range, assoc + 3 tags each, so busy sets fill and evict.
std::vector<CacheOp> sparse_ops(const CacheConfig& config, std::uint64_t seed,
                                int n) {
  std::mt19937_64 rng(seed);
  const std::uint64_t sets = config.num_sets();
  std::vector<CacheOp> ops;
  for (int i = 0; i < n; ++i) {
    const std::uint64_t set = (rng() % 64) * (sets / 64) + rng() % 3;
    const std::uint64_t tag = rng() % (config.assoc + 3);
    const Addr addr = (tag * sets + set) * config.line_bytes;
    const std::uint64_t kind = rng() % 200;
    ops.push_back({kind < 110   ? CacheOp::kRead
                   : kind < 180 ? CacheOp::kWrite
                   : kind < 199 ? CacheOp::kInvalidate
                                : CacheOp::kInvalidateAll,
                   addr});
  }
  return ops;
}

/// Applies `op`; returns what the access reported (a miss for the
/// invalidations, which report nothing comparable).
LookupResult apply(Cache& c, const CacheOp& op) {
  switch (op.kind) {
    case CacheOp::kRead: return c.access_read(op.addr);
    case CacheOp::kWrite: return c.access_write(op.addr);
    case CacheOp::kInvalidate:
      return {.hit = c.invalidate(op.addr), .dirty_victim = std::nullopt};
    case CacheOp::kInvalidateAll: c.invalidate_all(); break;
  }
  return {};
}

TEST(CacheSparseRestore, RestoredCacheMatchesANeverSavedTwin) {
  const CacheConfig config = MemConfig{}.l2;
  for (const std::uint64_t seed : {1, 2, 3}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Cache original(config);
    Cache twin(config);
    for (const CacheOp& op : sparse_ops(config, seed, 3000)) {
      apply(original, op);
      apply(twin, op);
    }
    const std::string bytes = save_bytes(original);
    const auto restored = load_fresh(config, bytes);
    ASSERT_TRUE(save_bytes(*restored) == bytes);
    EXPECT_EQ(restored->lines_valid(), twin.lines_valid());
    EXPECT_EQ(restored->lines_dirty(), twin.lines_dirty());

    const std::vector<CacheOp> more = sparse_ops(config, seed + 100, 3000);
    for (std::size_t i = 0; i < more.size(); ++i) {
      const LookupResult got = apply(*restored, more[i]);
      const LookupResult want = apply(twin, more[i]);
      ASSERT_EQ(got.hit, want.hit) << "op " << i;
      ASSERT_EQ(got.dirty_victim, want.dirty_victim) << "op " << i;
    }
    EXPECT_EQ(restored->hits(), twin.hits());
    EXPECT_EQ(restored->misses(), twin.misses());
    EXPECT_EQ(restored->writebacks(), twin.writebacks());
    EXPECT_EQ(restored->lines_valid(), twin.lines_valid());
    EXPECT_EQ(restored->lines_dirty(), twin.lines_dirty());
    EXPECT_TRUE(save_bytes(*restored) == save_bytes(twin));
  }
}

TEST(CacheSparseRestore, LoadTakesANonZeroWayPastTheSavedCountAsInUse) {
  // 4 sets x 4 ways; set 0 has one way in use when saved. Way 2 of set 0
  // is then given a valid line with tag 5: load must count ways 0..2 as in
  // use (way 1 an invalid zero line), find the line, and re-save the
  // patched bytes unchanged.
  const CacheConfig config = {.size_bytes = 1024, .line_bytes = 64,
                              .assoc = 4, .hit_latency = 2, .mshrs = 4,
                              .write_policy = WritePolicy::kWriteBack};
  Cache c(config);
  c.access_read(0x000);
  std::string bytes = save_bytes(c);
  // CACH tag, chunk length, line count, then 18-byte records (tag, valid,
  // dirty, lru) in set order.
  const std::size_t way2 = 4 + 8 + 8 + 2 * 18;
  ASSERT_EQ(bytes.substr(way2, 18), std::string(18, '\0'));
  bytes[way2] = 5;       // tag
  bytes[way2 + 8] = 1;   // valid
  bytes[way2 + 10] = 7;  // lru
  const auto back = load_fresh(config, bytes);
  EXPECT_EQ(back->lines_valid(), 2u);
  const Addr tag5 = Addr{5} * 4 * 64;  // tag 5, set 0
  EXPECT_TRUE(back->contains(tag5));
  EXPECT_TRUE(save_bytes(*back) == bytes);
  // A miss to set 0 fills the invalid way 1, not a fourth way.
  back->access_read(Addr{9} * 4 * 64);
  EXPECT_TRUE(back->contains(0x000));
  EXPECT_TRUE(back->contains(tag5));
  EXPECT_EQ(save_bytes(*back).substr(way2, 18), bytes.substr(way2, 18));
  EXPECT_EQ(save_bytes(*back).substr(way2 + 18, 18), std::string(18, '\0'));
}

// ---- Unwritten line storage -------------------------------------------------
//
// The line array is allocated without being written. These tests free a
// buffer of 0xFF bytes the size of a line array right before building, so
// the allocation is likely to reuse it, and check that no byte of it shows:
// sanitizers do not report reads of uninitialised memory, this does.

/// Bytes of a cache's line array: one 24-byte line per way.
std::size_t line_array_bytes(const CacheConfig& c) {
  return std::size_t{c.num_sets()} * c.assoc * 24;
}

/// Frees `bytes` of 0xFF. Done twice: glibc serves the first request of a
/// large size from a fresh mapping and only the later ones from its heap.
void poison_heap(std::size_t bytes) {
  for (int i = 0; i < 2; ++i) {
    auto* p = static_cast<unsigned char*>(::operator new(bytes));
    volatile unsigned char* v = p;
    for (std::size_t b = 0; b < bytes; ++b) v[b] = 0xFF;
    ::operator delete(p);
  }
}

TEST(CachePoisonedHeap, SavedBytesMatchACleanBuild) {
  const auto run = [](const CacheConfig& config, bool poison) {
    if (poison) poison_heap(line_array_bytes(config));
    Cache c(config);
    c.access_write(0x40);
    c.access_read(0x12340);
    c.invalidate_all();
    c.access_read(0x80);
    return save_bytes(c);
  };
  for (const CacheConfig& config : {small_cache(), MemConfig{}.l1d,
                                    MemConfig{}.l2}) {
    const std::string poisoned = run(config, true);
    EXPECT_TRUE(poisoned == run(config, false)) << config.size_bytes;
  }
}

TEST(CachePoisonedHeap, PrewarmedSystemMatchesACleanBuild) {
  core::SystemConfig cfg;
  cfg.num_threads = 2;
  cfg.seed = 11;
  workload::SyntheticStream stream(workload::profile("gzip"), cfg.seed, 2000);
  for (const auto kind : {core::SystemKind::kBaseline,
                          core::SystemKind::kUnSync}) {
    const auto build = [&](bool poison) {
      if (poison) {
        poison_heap(line_array_bytes(cfg.mem.l1d));
        poison_heap(line_array_bytes(cfg.mem.l2));
      }
      auto sys = core::make_system(kind, cfg, stream);
      const std::uint64_t fingerprint = sys->state_fingerprint();
      return std::pair{fingerprint, sys->save_checkpoint_bytes()};
    };
    const auto clean = build(false);
    const auto poisoned = build(true);
    EXPECT_EQ(poisoned.first, clean.first) << core::name_of(kind);
    EXPECT_TRUE(poisoned.second == clean.second) << core::name_of(kind);
  }
}

}  // namespace
}  // namespace unsync::mem
