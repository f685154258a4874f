// Checkpoint/restore subsystem tests (src/ckpt + the components' visit()
// walks): wire-format primitives, the "unsync.ckpt.v1" container (golden-
// pinned bytes), corruption rejection, component round-trips, and the
// headline guarantee — a system snapshotted mid-run and restored into a
// fresh process-equivalent instance finishes with a bit-identical RunResult
// for every architecture.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/archive.hpp"
#include "ckpt/serializer.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "core/factory.hpp"
#include "core/system.hpp"
#include "mem/write_buffer.hpp"
#include "obs/metrics.hpp"
#include "workload/profile.hpp"
#include "workload/synthetic.hpp"

namespace {

using namespace unsync;

std::string hex(std::string_view bytes) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  for (const unsigned char c : bytes) {
    out.push_back(digits[c >> 4]);
    out.push_back(digits[c & 0xF]);
  }
  return out;
}

/// One Save walk of `c`.
template <typename T>
std::string saved(T& c) {
  ckpt::Serializer s;
  ckpt::Archive ar(s);
  c.visit(ar);
  return s.take();
}

/// One Load walk of `c` over `bytes`; true when every byte was consumed.
template <typename T>
bool load(T& c, std::string bytes) {
  ckpt::Deserializer d(std::move(bytes));
  ckpt::Archive ar(d);
  c.visit(ar);
  return d.at_end();
}

// ---- CRC and scalar wire format ---------------------------------------------

TEST(Crc32, MatchesTheStandardCheckValue) {
  // The universal CRC-32 check vector: crc32("123456789") = 0xCBF43926.
  EXPECT_EQ(ckpt::crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(ckpt::crc32(""), 0u);
  EXPECT_NE(ckpt::crc32("123456789"), ckpt::crc32("123456788"));
}

TEST(Crc32, SeedChainsIncrementally) {
  // Note the explicit string_views: with a raw char* the seed would bind to
  // the (const void*, len) overload's length parameter.
  const std::uint32_t whole = ckpt::crc32(std::string_view("123456789"));
  const std::uint32_t part = ckpt::crc32(
      std::string_view("6789"), ckpt::crc32(std::string_view("12345")));
  EXPECT_EQ(whole, part);
}

TEST(Crc32, EightByteStepsMatchTheByteLoop) {
  // Every length 0..63 at every start offset 0..7: the eight-byte steps
  // and the tail loop agree with folding in one byte at a time.
  std::string data(72, '\0');
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<char>(i * 37 + 11);
  }
  for (std::size_t at = 0; at < 8; ++at) {
    for (std::size_t len = 0; len < 64; ++len) {
      const std::string_view span(data.data() + at, len);
      std::uint32_t bytewise = 0;
      for (const char c : span) {
        bytewise = ckpt::crc32(std::string_view(&c, 1), bytewise);
      }
      EXPECT_EQ(ckpt::crc32(span), bytewise) << at << "+" << len;
    }
  }
}

// ---- Zero blocks: differential check against the byte loops -----------------
//
// crc32 and hash64 fold a run of all-zero 256-byte blocks in with one
// multiply. These reference loops take one byte (and for the CRC one bit)
// at a time; both functions must return exactly what they return.

std::uint32_t crc32_bytewise(std::string_view s, std::uint32_t seed = 0) {
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (const char ch : s) {
    c ^= static_cast<unsigned char>(ch);
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  }
  return c ^ 0xFFFFFFFFu;
}

std::uint64_t fnv1a_bytewise(std::string_view s,
                             std::uint64_t h = ckpt::kFnvOffset) {
  for (const char ch : s) {
    h ^= static_cast<unsigned char>(ch);
    h *= 1099511628211ull;
  }
  return h;
}

/// `n` random bytes, none of them zero.
std::string nonzero_bytes(std::mt19937_64& rng, std::size_t n) {
  std::string out(n, '\0');
  for (char& c : out) c = static_cast<char>(1 + rng() % 255);
  return out;
}

/// A sparse buffer: random zero runs (up to ~20 blocks) between short
/// random stretches that themselves hold zeros.
std::string sparse_bytes(std::mt19937_64& rng, std::size_t n) {
  std::string out;
  while (out.size() < n) {
    out.append(rng() % 5200, '\0');
    for (std::size_t k = rng() % 300; k > 0; --k) {
      out.push_back(static_cast<char>(rng() % 3 == 0 ? 0 : rng()));
    }
  }
  out.resize(n);
  return out;
}

void expect_matches_byte_loops(std::string_view s, std::uint32_t crc_seed,
                               std::uint64_t fnv_seed) {
  EXPECT_EQ(ckpt::crc32(s, crc_seed), crc32_bytewise(s, crc_seed));
  EXPECT_EQ(ckpt::hash64(s, fnv_seed), fnv1a_bytewise(s, fnv_seed));
}

TEST(ZeroBlocks, ZeroRunsAtEveryAlignmentMatchTheByteLoops) {
  // A run of each length starts at every offset mod 8, both inside the
  // first block and after three blocks of data; 999 blocks take the
  // square-and-multiply path, the others the short-run table.
  std::mt19937_64 rng(1);
  for (const std::size_t run : {0, 1, 255, 256, 257, 4095, 4096, 4097,
                                 256 * 999 + 5}) {
    for (std::size_t align = 0; align < 8; ++align) {
      for (const std::size_t head : {align, 3 * 256 + align}) {
        const std::string s = nonzero_bytes(rng, head) +
                              std::string(run, '\0') + nonzero_bytes(rng, 300);
        SCOPED_TRACE("run " + std::to_string(run) + " at " +
                     std::to_string(head));
        expect_matches_byte_loops(s, 0, ckpt::kFnvOffset);
        expect_matches_byte_loops(s, 0x9E3779B9u, 0x0123456789ABCDEFull);
        // The run at the very end, with nothing after it.
        expect_matches_byte_loops(s.substr(0, head + run), 0,
                                  ckpt::kFnvOffset);
      }
    }
  }
}

TEST(ZeroBlocks, AllZeroAndNoZeroBuffersMatchTheByteLoops) {
  std::mt19937_64 rng(2);
  for (const std::size_t n : {0, 1, 8, 255, 256, 257, 511, 512, 4095, 4096,
                               4097, 256 * 16, 65536 + 3}) {
    SCOPED_TRACE("size " + std::to_string(n));
    expect_matches_byte_loops(std::string(n, '\0'), 0, ckpt::kFnvOffset);
    expect_matches_byte_loops(std::string(n, '\0'), 0xFFFFFFFFu, 1);
    expect_matches_byte_loops(nonzero_bytes(rng, n), 0, ckpt::kFnvOffset);
  }
}

TEST(ZeroBlocks, RandomSparseBuffersMatchTheByteLoops) {
  std::mt19937_64 rng(3);
  for (int trial = 0; trial < 40; ++trial) {
    const std::string s = sparse_bytes(rng, rng() % 40000);
    SCOPED_TRACE("trial " + std::to_string(trial));
    expect_matches_byte_loops(s, 0, ckpt::kFnvOffset);
    expect_matches_byte_loops(s, static_cast<std::uint32_t>(rng()), rng());
  }
}

TEST(ZeroBlocks, NonZeroSeedsChainAcrossSplitPoints) {
  // Blocks are counted from each call's start, so a split moves every
  // later block boundary: the chained result must still be the whole
  // buffer's.
  std::mt19937_64 rng(4);
  const std::uint32_t crc_seed = 0x12345678u;
  const std::uint64_t fnv_seed = 0xCBF29CE484222325ull ^ 0x55;
  for (int trial = 0; trial < 10; ++trial) {
    const std::string s = sparse_bytes(rng, 20000 + rng() % 20000);
    const std::uint32_t crc_whole = crc32_bytewise(s, crc_seed);
    const std::uint64_t fnv_whole = fnv1a_bytewise(s, fnv_seed);
    for (const std::size_t at :
         {std::size_t{0}, std::size_t{1}, std::size_t{255}, std::size_t{256},
          std::size_t{257}, std::size_t{4097}, s.size() / 2 + rng() % 8,
          s.size() - 1, s.size()}) {
      const std::string_view a = std::string_view(s).substr(0, at);
      const std::string_view b = std::string_view(s).substr(at);
      EXPECT_EQ(ckpt::crc32(b, ckpt::crc32(a, crc_seed)), crc_whole) << at;
      EXPECT_EQ(ckpt::hash64(b, ckpt::hash64(a, fnv_seed)), fnv_whole) << at;
    }
  }
}

// ---- Packed payloads --------------------------------------------------------
//
// PackedPayload drops the whole all-zero 256-byte blocks counted from the
// payload's start. The reference below finds them one block at a time.

/// The (offset, length) runs pack must keep of `s`: every byte outside a
/// whole all-zero block, adjacent kept blocks merged.
std::vector<std::pair<std::size_t, std::size_t>> kept_runs_blockwise(
    std::string_view s) {
  std::vector<std::pair<std::size_t, std::size_t>> runs;
  for (std::size_t at = 0; at < s.size(); at += 256) {
    const std::size_t n = std::min<std::size_t>(256, s.size() - at);
    if (n == 256 &&
        s.substr(at, n).find_first_not_of('\0') == std::string_view::npos) {
      continue;
    }
    if (!runs.empty() && runs.back().first + runs.back().second == at) {
      runs.back().second += n;
    } else {
      runs.emplace_back(at, n);
    }
  }
  return runs;
}

void expect_packs(std::string_view s) {
  const ckpt::PackedPayload packed = ckpt::PackedPayload::pack(s);
  const auto runs = kept_runs_blockwise(s);
  std::size_t kept = 0;
  for (const auto& run : runs) kept += run.second;
  // Each kept run costs its bytes plus an (offset, length) pair.
  EXPECT_EQ(packed.bytes(), kept + runs.size() * 2 * sizeof(std::size_t));
  // Unpacking overwrites whatever a reused buffer held, shorter or longer.
  std::string out = "stale";
  packed.unpack_into(out);
  EXPECT_EQ(out, s);
  out.assign(s.size() + 300, '\x5A');
  packed.unpack_into(out);
  EXPECT_EQ(out, s);
}

TEST(PackedPayload, ZeroRunsAtEveryAlignmentRoundTrip) {
  std::mt19937_64 rng(5);
  for (const std::size_t run :
       {0, 1, 255, 256, 257, 511, 512, 513, 4095, 4096, 4097}) {
    for (std::size_t align = 0; align < 8; ++align) {
      for (const std::size_t head : {align, 3 * 256 + align}) {
        const std::string s = nonzero_bytes(rng, head) +
                              std::string(run, '\0') + nonzero_bytes(rng, 300);
        SCOPED_TRACE("run " + std::to_string(run) + " at " +
                     std::to_string(head));
        expect_packs(s);
        // The zero run at the very end, with nothing after it.
        expect_packs(s.substr(0, head + run));
      }
    }
  }
}

TEST(PackedPayload, AllZeroAndNoZeroBuffersRoundTrip) {
  std::mt19937_64 rng(6);
  for (const std::size_t n :
       {0, 1, 8, 255, 256, 257, 300, 511, 512, 513, 1000, 4095, 4096, 4097,
        65536 + 3}) {
    SCOPED_TRACE("size " + std::to_string(n));
    expect_packs(std::string(n, '\0'));
    expect_packs(nonzero_bytes(rng, n));
  }
  // Whole zero blocks keep nothing; a zero tail shorter than a block is
  // kept as it is.
  EXPECT_EQ(ckpt::PackedPayload::pack(std::string(4096, '\0')).bytes(), 0u);
  EXPECT_EQ(ckpt::PackedPayload::pack(std::string(4096 + 7, '\0')).bytes(),
            7 + 2 * sizeof(std::size_t));
}

TEST(PackedPayload, KeptRunsAtTheStartAndTheEndRoundTrip) {
  std::mt19937_64 rng(7);
  for (const std::size_t edge : {1, 255, 256, 257, 700}) {
    SCOPED_TRACE("edge " + std::to_string(edge));
    const std::string zeros(5 * 256 + 9, '\0');
    const std::string data = nonzero_bytes(rng, edge);
    expect_packs(data + zeros);               // run at the start
    expect_packs(zeros + data);               // run at the end
    expect_packs(data + zeros + data);        // both
    expect_packs(zeros + data + zeros);       // neither
    expect_packs(data + zeros + data + zeros + data);
  }
}

TEST(PackedPayload, RandomSparseBuffersRoundTrip) {
  std::mt19937_64 rng(8);
  for (int trial = 0; trial < 40; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    expect_packs(sparse_bytes(rng, rng() % 40000));
  }
}

TEST(Serializer, ClearKeepsCapacityAndStartsOver) {
  ckpt::Serializer s;
  s.begin_chunk("ABCD");
  (void)s.extend(5000);
  s.end_chunk();
  const std::string first = s.data();
  const std::size_t capacity = s.data().capacity();
  s.clear();
  EXPECT_TRUE(s.data().empty());
  EXPECT_EQ(s.data().capacity(), capacity);
  s.begin_chunk("ABCD");
  (void)s.extend(5000);
  s.end_chunk();
  EXPECT_EQ(s.data(), first);
}

TEST(Serializer, ScalarsRoundTrip) {
  ckpt::Serializer s;
  s.u8(0xAB);
  s.u32(0xDEADBEEF);
  s.u64(~std::uint64_t{0});
  s.i64(-123456789);
  s.b(true);
  s.b(false);
  s.f64(0.1);
  s.f64(-0.0);
  s.str("hello\0world");  // embedded NUL truncated by string_view ctor rules
  s.str("");

  ckpt::Deserializer d(s.take());
  EXPECT_EQ(d.u8(), 0xAB);
  EXPECT_EQ(d.u32(), 0xDEADBEEFu);
  EXPECT_EQ(d.u64(), ~std::uint64_t{0});
  EXPECT_EQ(d.i64(), -123456789);
  EXPECT_TRUE(d.b());
  EXPECT_FALSE(d.b());
  EXPECT_EQ(d.f64(), 0.1);
  const double neg_zero = d.f64();
  EXPECT_EQ(neg_zero, 0.0);
  EXPECT_TRUE(std::signbit(neg_zero));  // f64 is bit-exact, not value-equal
  EXPECT_EQ(d.str(), "hello");
  EXPECT_EQ(d.str(), "");
  EXPECT_TRUE(d.at_end());
}

TEST(Serializer, ScalarsAreLittleEndian) {
  ckpt::Serializer s;
  s.u32(0x01020304);
  EXPECT_EQ(hex(s.data()), "04030201");
}

TEST(Deserializer, ReadingPastTheEndThrows) {
  ckpt::Deserializer d(std::string("\x01", 1));
  EXPECT_EQ(d.u8(), 1);
  EXPECT_THROW(d.u8(), ckpt::CkptError);
  ckpt::Deserializer d2(std::string("abc"));
  EXPECT_THROW(d2.u64(), ckpt::CkptError);
}

// ---- Tagged chunks ----------------------------------------------------------

TEST(Chunks, NestAndVerifyExactConsumption) {
  ckpt::Serializer s;
  s.begin_chunk("OUTR");
  s.u64(7);
  s.begin_chunk("INNR");
  s.str("payload");
  s.end_chunk();
  s.u32(9);
  s.end_chunk();

  ckpt::Deserializer d(s.take());
  d.begin_chunk("OUTR");
  EXPECT_EQ(d.u64(), 7u);
  d.begin_chunk("INNR");
  EXPECT_EQ(d.str(), "payload");
  d.end_chunk();
  EXPECT_EQ(d.u32(), 9u);
  d.end_chunk();
  EXPECT_TRUE(d.at_end());
}

TEST(Chunks, TagMismatchThrows) {
  ckpt::Serializer s;
  s.begin_chunk("AAAA");
  s.u64(1);
  s.end_chunk();
  ckpt::Deserializer d(s.take());
  EXPECT_THROW(d.begin_chunk("BBBB"), ckpt::CkptError);
}

TEST(Chunks, UnderConsumptionThrows) {
  ckpt::Serializer s;
  s.begin_chunk("DATA");
  s.u64(1);
  s.u64(2);
  s.end_chunk();
  ckpt::Deserializer d(s.take());
  d.begin_chunk("DATA");
  (void)d.u64();  // reader that forgets the second field must fail loudly
  EXPECT_THROW(d.end_chunk(), ckpt::CkptError);
}

TEST(Chunks, OverConsumptionThrows) {
  ckpt::Serializer s;
  s.begin_chunk("DATA");
  s.u32(1);
  s.end_chunk();
  s.u64(42);  // the next section, not part of the chunk
  ckpt::Deserializer d(s.take());
  d.begin_chunk("DATA");
  (void)d.u32();
  EXPECT_THROW(d.u32(), ckpt::CkptError);  // would cross the chunk boundary
}

// ---- Container format (golden-pinned) ---------------------------------------

TEST(Container, GoldenBytes) {
  // Pins the "unsync.ckpt.v1" file layout byte-for-byte: magic, schema
  // string, payload length, CRC-32, payload. Any change to this golden is a
  // schema break and needs a version bump, not a golden update.
  EXPECT_EQ(hex(ckpt::wrap_container("ab")),
            "554e5359434b50540e00000000000000"  // "UNSYCKPT", len("unsync...")
            "756e73796e632e636b70742e7631"      // "unsync.ckpt.v1"
            "0200000000000000"                  // payload length = 2
            "6d48839e"                          // crc32("ab")
            "6162");                            // payload "ab"
}

TEST(Container, SealedInPlaceEqualsWrapped) {
  // A payload serialised behind begin_container's placeholder header and
  // sealed in place is byte-for-byte the wrapped one.
  std::mt19937_64 rng(9);
  for (const std::size_t n : {0, 1, 2, 255, 4097, 40000}) {
    const std::string payload = sparse_bytes(rng, n);
    ckpt::Serializer s;
    ckpt::begin_container(s);
    s.bytes(payload.data(), payload.size());
    EXPECT_EQ(ckpt::seal_container(s), ckpt::wrap_container(payload)) << n;
  }
}

TEST(Container, RoundTrips) {
  const std::string payload = "arbitrary \x00 binary \xff bytes";
  const std::string file = ckpt::wrap_container(payload);
  const std::string_view back = ckpt::container_payload(file);
  EXPECT_EQ(back, payload);
  // The payload is viewed in place, not copied.
  EXPECT_EQ(back.data() + back.size(), file.data() + file.size());
}

TEST(Container, RejectsCorruption) {
  std::string file = ckpt::wrap_container("some checkpoint payload");
  // Flip one payload bit -> CRC mismatch.
  std::string corrupt = file;
  corrupt.back() = static_cast<char>(corrupt.back() ^ 0x01);
  EXPECT_THROW(ckpt::container_payload(corrupt), ckpt::CkptError);
  // Truncate -> advertised length vs. bytes-present mismatch.
  EXPECT_THROW(ckpt::container_payload(
                   std::string_view(file).substr(0, file.size() - 3)),
               ckpt::CkptError);
  // Bad magic.
  std::string bad_magic = file;
  bad_magic[0] = 'X';
  EXPECT_THROW(ckpt::container_payload(bad_magic), ckpt::CkptError);
  // Unknown schema string.
  std::string bad_schema = file;
  bad_schema[16] = 'X';  // first byte of "unsync.ckpt.v1"
  EXPECT_THROW(ckpt::container_payload(bad_schema), ckpt::CkptError);
}

TEST(Container, FileRoundTripAndCorruptFileRejection) {
  const std::string path = ::testing::TempDir() + "ckpt_file_test.ckpt";
  ckpt::write_file(path, "file payload");
  EXPECT_EQ(ckpt::read_file(path), "file payload");

  // Corrupt the file on disk; read_file must throw CkptError.
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign((std::istreambuf_iterator<char>(in)),
                 std::istreambuf_iterator<char>());
  }
  // Header and payload are written apart, as the wrapped bytes.
  EXPECT_EQ(bytes, ckpt::wrap_container("file payload"));
  bytes[bytes.size() - 2] = static_cast<char>(bytes[bytes.size() - 2] ^ 0x10);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  EXPECT_THROW(ckpt::read_file(path), ckpt::CkptError);
  std::remove(path.c_str());
}

// ---- Component round-trips --------------------------------------------------

// ---- Record blocks ------------------------------------------------------------

struct Rec {
  std::uint64_t tag = 0;
  bool valid = false;
  std::uint64_t lru = 0;
};

TEST(ArchiveRecords, SameBytesAndSitesAsOneScalarPerField) {
  std::vector<Rec> recs = {{0x0102030405060708ull, true, 9},
                           {~std::uint64_t{0}, false, 0},
                           {42, true, 1ull << 63}};
  std::vector<ckpt::Archive::ScalarSite> block_sites, scalar_sites;
  ckpt::Serializer block, scalars;
  {
    ckpt::Archive ar(block);
    ar.record_scalars(&block_sites);
    ar.records(recs, &Rec::tag, &Rec::valid, &Rec::lru);
  }
  {
    ckpt::Archive ar(scalars);
    ar.record_scalars(&scalar_sites);
    for (Rec& r : recs) {
      ar.u64(r.tag);
      ar.b(r.valid);
      ar.u64(r.lru);
    }
  }
  EXPECT_EQ(hex(block.data()), hex(scalars.data()));
  ASSERT_EQ(block_sites.size(), scalar_sites.size());
  for (std::size_t k = 0; k < block_sites.size(); ++k) {
    EXPECT_EQ(block_sites[k].offset, scalar_sites[k].offset) << k;
  }

  // Load: back into zeroed records; a block one byte short throws.
  std::vector<Rec> back(recs.size());
  {
    ckpt::Deserializer d(block.data());
    ckpt::Archive ar(d);
    ar.records(back, &Rec::tag, &Rec::valid, &Rec::lru);
    EXPECT_TRUE(d.at_end());
  }
  for (std::size_t i = 0; i < recs.size(); ++i) {
    EXPECT_EQ(back[i].tag, recs[i].tag);
    EXPECT_EQ(back[i].valid, recs[i].valid);
    EXPECT_EQ(back[i].lru, recs[i].lru);
  }
  ckpt::Deserializer short_block(block.data().substr(1));
  ckpt::Archive ar(short_block);
  EXPECT_THROW(ar.records(back, &Rec::tag, &Rec::valid, &Rec::lru),
               ckpt::CkptError);
}

TEST(ArchiveRecords, CoreWalksSkipBulkSpansAndFaultChannels) {
  std::vector<Rec> recs(4);
  std::uint64_t scalar = 7, channel = 8;
  const auto walk = [&](ckpt::Archive::Mode mode) {
    ckpt::Serializer s;
    ckpt::Archive ar(s, mode);
    ar.u64(scalar);
    ar.fault_channel([&] { ar.u64(channel); });
    ar.records(recs, &Rec::tag, &Rec::valid, &Rec::lru);
    return s.take();
  };
  EXPECT_EQ(walk(ckpt::Archive::Mode::kSave).size(), 8u + 8u + 4u * 17u);
  EXPECT_EQ(walk(ckpt::Archive::Mode::kFingerprint).size(), 8u + 4u * 17u);
}

TEST(ComponentCkpt, RngStateRoundTrips) {
  Rng a(12345);
  for (int i = 0; i < 100; ++i) (void)a.next();
  Rng b(999);  // different seed, then overwritten
  b.set_state(a.state());
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(ComponentCkpt, WriteBufferRoundTrips) {
  mem::WriteBuffer wb(8);
  wb.push(0x1000, 1, 10);
  wb.push(0x2000, 2, 11);
  wb.push(0x3000, 3, 12);
  wb.pop();

  const std::string bytes = saved(wb);

  mem::WriteBuffer restored(8);
  EXPECT_TRUE(load(restored, bytes));
  EXPECT_EQ(restored.size(), wb.size());
  EXPECT_EQ(restored.front().addr, wb.front().addr);
  EXPECT_EQ(restored.front().seq, wb.front().seq);
  EXPECT_EQ(restored.peak_occupancy(), wb.peak_occupancy());
  EXPECT_EQ(restored.total_pushed(), wb.total_pushed());

  // save -> load -> save is byte-identical.
  EXPECT_EQ(saved(restored), bytes);

  // Capacity is configuration, not state: restoring into a differently
  // sized buffer is rejected.
  mem::WriteBuffer wrong(16);
  EXPECT_THROW(load(wrong, bytes), ckpt::CkptError);
}

TEST(ComponentCkpt, SyntheticStreamRoundTrips) {
  workload::SyntheticStream a(workload::profile("gzip"), 7, 10000);
  workload::DynOp op;
  for (int i = 0; i < 1234; ++i) ASSERT_TRUE(a.next(&op));

  workload::SyntheticStream b(workload::profile("gzip"), 7, 10000);
  EXPECT_TRUE(load(b, saved(a)));

  workload::DynOp oa, ob;
  while (true) {
    const bool ha = a.next(&oa), hb = b.next(&ob);
    ASSERT_EQ(ha, hb);
    if (!ha) break;
    ASSERT_EQ(oa.seq, ob.seq);
    ASSERT_EQ(oa.pc, ob.pc);
    ASSERT_EQ(oa.mem_addr, ob.mem_addr);
    ASSERT_EQ(oa.taken, ob.taken);
  }
}

TEST(ComponentCkpt, SyntheticStreamRejectsIdentityMismatch) {
  workload::SyntheticStream a(workload::profile("gzip"), 7, 10000);
  const std::string bytes = saved(a);

  workload::SyntheticStream wrong_seed(workload::profile("gzip"), 8, 10000);
  EXPECT_THROW(load(wrong_seed, bytes), ckpt::CkptError);

  workload::SyntheticStream wrong_prof(workload::profile("mcf"), 7, 10000);
  EXPECT_THROW(load(wrong_prof, bytes), ckpt::CkptError);
}

// A share() cursor writes the exact "SYNS" chunk its own clone would, at
// every lag, and a loaded cursor continues exactly as the clone loaded
// with the same bytes — also when the loaded members disagree.
TEST(ComponentCkpt, SharedCursorsCheckpointAsClones) {
  const workload::SyntheticStream proto(workload::profile("gzip"), 7, 6000);
  auto cursors = proto.share(2);
  workload::DynOp op;
  for (const auto& [a, b] : {std::pair{0, 0}, std::pair{1300, 200},
                            std::pair{2000, 1999}, std::pair{5000, 1000}}) {
    ASSERT_TRUE(cursors[0]->seek(a));
    ASSERT_TRUE(cursors[1]->seek(b));
    for (const auto& [cursor, at] : {std::pair{cursors[0].get(), a},
                                     std::pair{cursors[1].get(), b}}) {
      auto clone = proto.clone();
      for (int i = 0; i < at; ++i) ASSERT_TRUE(clone->next(&op));
      EXPECT_EQ(saved(*cursor), saved(*clone)) << "at " << at;
    }
  }

  // Load each member from the bytes of a clone: a consistent pair, then a
  // pair whose second member was perturbed (it must read as its clone).
  const std::string at_900 = [&] {
    auto clone = proto.clone();
    for (int i = 0; i < 900; ++i) clone->next(&op);
    return saved(*clone);
  }();
  const std::string at_40 = [&] {
    auto clone = proto.clone();
    for (int i = 0; i < 40; ++i) clone->next(&op);
    return saved(*clone);
  }();
  std::string perturbed = at_900;
  perturbed[perturbed.size() - 20] ^= 1;  // a word of the RNG state
  for (const std::string& second : {at_900, perturbed}) {
    auto loaded = proto.share(2);
    ASSERT_TRUE(load(*loaded[0], at_40));
    ASSERT_TRUE(load(*loaded[1], second));
    EXPECT_EQ(saved(*loaded[1]), second);
    auto ref0 = proto.clone();
    auto ref1 = proto.clone();
    ASSERT_TRUE(load(*ref0, at_40));
    ASSERT_TRUE(load(*ref1, second));
    for (int i = 0; i < 3000; ++i) {
      for (const auto& [member, ref] : {std::pair{loaded[0].get(), &ref0},
                                        std::pair{loaded[1].get(), &ref1}}) {
        workload::DynOp x, y;
        const bool got = member->next(&x);
        ASSERT_EQ(got, (*ref)->next(&y)) << i;
        ASSERT_EQ(x.seq, y.seq) << i;
        ASSERT_EQ(x.pc, y.pc) << i;
        ASSERT_EQ(x.mem_addr, y.mem_addr) << i;
      }
    }
    EXPECT_EQ(saved(*loaded[0]), saved(*ref0));
    EXPECT_EQ(saved(*loaded[1]), saved(*ref1));
  }
}

TEST(ComponentCkpt, RunningStatRestoreIsExact) {
  RunningStat a;
  for (const double v : {1.5, -2.25, 7.75, 0.125, 3.5}) a.add(v);
  RunningStat b;
  b.restore(a.count(), a.mean(), a.m2(), a.min(), a.max(), a.sum());
  // Bit-equality, not tolerance: restore() reinstates the raw accumulators.
  EXPECT_EQ(a.mean(), b.mean());
  EXPECT_EQ(a.stddev(), b.stddev());
  EXPECT_EQ(a.sum(), b.sum());
  a.add(42.0);
  b.add(42.0);
  EXPECT_EQ(a.stddev(), b.stddev());  // and further accumulation agrees
}

TEST(ComponentCkpt, MetricsSnapshotRoundTripsByteIdentically) {
  obs::MetricsRegistry reg;
  reg.counter("sys.core0.commits").inc(123);
  reg.gauge("sys.ipc").add(0.75);
  reg.gauge("sys.ipc").add(1.25);
  reg.histogram("sys.rob", 0, 128, 8).add(17);
  obs::MetricsSnapshot snap = reg.snapshot();

  ckpt::Serializer s;
  snap.save(s);
  const std::string bytes = s.take();

  obs::MetricsSnapshot restored;
  ckpt::Deserializer d(bytes);
  restored.load(d);
  EXPECT_EQ(restored.to_json(), snap.to_json());

  ckpt::Serializer s2;
  restored.save(s2);
  EXPECT_EQ(s2.data(), bytes);
}

// ---- Whole-system snapshot / resume -----------------------------------------

class SystemCkpt : public ::testing::TestWithParam<core::SystemKind> {
 protected:
  std::unique_ptr<core::System> make() const {
    core::SystemConfig cfg;
    cfg.num_threads = 2;
    cfg.ser_per_inst = 2e-5;  // exercise error injection + recovery state
    cfg.seed = 1234;
    workload::SyntheticStream stream(workload::profile("gzip"), cfg.seed,
                                     6000);
    return core::make_system(GetParam(), cfg, stream);
  }
};

TEST_P(SystemCkpt, MidRunSnapshotResumesBitExactly) {
  // Ground truth: one uninterrupted run.
  const engine::RunResult full = make()->run();
  ASSERT_GT(full.cycles, 100u);

  // Interrupted twin: run to ~40%, snapshot, discard the instance.
  const Cycle cut = full.cycles * 2 / 5;
  std::string snapshot;
  {
    auto sys = make();
    sys->run(cut);
    ckpt::Serializer s;
    sys->save_checkpoint(s);
    snapshot = s.take();
  }

  // Fresh instance (a new process in miniature): restore, then finish.
  auto resumed = make();
  {
    ckpt::Deserializer d(snapshot);
    resumed->load_checkpoint(d);
    EXPECT_TRUE(d.at_end());
  }
  // save -> load -> save byte-identity before resuming.
  {
    ckpt::Serializer s;
    resumed->save_checkpoint(s);
    EXPECT_EQ(s.data(), snapshot);
  }
  const engine::RunResult after = resumed->run();
  EXPECT_EQ(after.to_json(), full.to_json());
}

TEST_P(SystemCkpt, SegmentedRunMatchesUninterrupted) {
  // The resumable-run contract alone (no serialization): run(N) then run()
  // is the same as one run().
  const engine::RunResult full = make()->run();
  auto sys = make();
  sys->run(full.cycles / 3);
  sys->run(full.cycles * 2 / 3);
  EXPECT_EQ(sys->run().to_json(), full.to_json());
}

TEST_P(SystemCkpt, FileRoundTripResumesBitExactly) {
  const engine::RunResult full = make()->run();
  const std::string path = ::testing::TempDir() + "sys_" +
                           std::string(core::name_of(GetParam())) + ".ckpt";
  {
    auto sys = make();
    sys->run(full.cycles / 2);
    sys->save_checkpoint_file(path);
  }
  auto resumed = make();
  resumed->load_checkpoint_file(path);
  EXPECT_EQ(resumed->run().to_json(), full.to_json());
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    AllSystems, SystemCkpt,
    ::testing::Values(core::SystemKind::kBaseline, core::SystemKind::kUnSync,
                      core::SystemKind::kReunion, core::SystemKind::kLockstep,
                      core::SystemKind::kCheckpoint, core::SystemKind::kHetero),
    [](const auto& info) { return std::string(core::name_of(info.param)); });

TEST(SystemCkptMismatch, RejectsCheckpointFromAnotherSystemKind) {
  core::SystemConfig cfg;
  cfg.num_threads = 1;
  workload::SyntheticStream stream(workload::profile("gzip"), 42, 2000);

  auto baseline = core::make_system(core::SystemKind::kBaseline, cfg, stream);
  baseline->run(500);
  ckpt::Serializer s;
  baseline->save_checkpoint(s);

  auto unsync_sys = core::make_system(core::SystemKind::kUnSync, cfg, stream);
  ckpt::Deserializer d(s.take());
  EXPECT_THROW(unsync_sys->load_checkpoint(d), ckpt::CkptError);
}

TEST(SystemCkptMismatch, HeteroTagRejectsForeignCheckpoints) {
  // HTRO is its own wire tag: a hetero system refuses an UnSync snapshot and
  // vice versa, even though both serialise a two-member group per thread.
  core::SystemConfig cfg;
  cfg.num_threads = 1;
  workload::SyntheticStream stream(workload::profile("gzip"), 42, 2000);

  auto hetero = core::make_system(core::SystemKind::kHetero, cfg, stream);
  hetero->run(500);
  ckpt::Serializer s;
  hetero->save_checkpoint(s);
  const std::string hetero_bytes = s.take();

  auto unsync_sys = core::make_system(core::SystemKind::kUnSync, cfg, stream);
  {
    ckpt::Deserializer d(hetero_bytes);
    EXPECT_THROW(unsync_sys->load_checkpoint(d), ckpt::CkptError);
  }

  ckpt::Serializer s2;
  unsync_sys->save_checkpoint(s2);
  auto hetero2 = core::make_system(core::SystemKind::kHetero, cfg, stream);
  ckpt::Deserializer d2(s2.take());
  EXPECT_THROW(hetero2->load_checkpoint(d2), ckpt::CkptError);
}

TEST(SystemCkptMismatch, RejectsConfigurationMismatch) {
  workload::SyntheticStream stream(workload::profile("gzip"), 42, 2000);
  core::SystemConfig two;
  two.num_threads = 2;
  auto sys2 = core::make_system(core::SystemKind::kUnSync, two, stream);
  sys2->run(400);
  ckpt::Serializer s;
  sys2->save_checkpoint(s);

  core::SystemConfig one;
  one.num_threads = 1;
  auto sys1 = core::make_system(core::SystemKind::kUnSync, one, stream);
  ckpt::Deserializer d(s.take());
  EXPECT_THROW(sys1->load_checkpoint(d), ckpt::CkptError);
}

TEST(SystemCkptMismatch, RejectsTrailingGarbageInFile) {
  core::SystemConfig cfg;
  cfg.num_threads = 1;
  workload::SyntheticStream stream(workload::profile("gzip"), 42, 2000);
  auto sys = core::make_system(core::SystemKind::kBaseline, cfg, stream);
  sys->run(300);

  ckpt::Serializer s;
  sys->save_checkpoint(s);
  std::string payload = s.take();
  payload += "trailing";
  const std::string path = ::testing::TempDir() + "trailing.ckpt";
  ckpt::write_file(path, payload);

  auto fresh = core::make_system(core::SystemKind::kBaseline, cfg, stream);
  EXPECT_THROW(fresh->load_checkpoint_file(path), ckpt::CkptError);
  std::remove(path.c_str());
}

// ---- Wire-stability pins ----------------------------------------------------
//
// Pins the checkpoint bytes, the state fingerprint and the fault-channel
// bytes of every system at a fixed mid-run cycle. The values were recorded
// before the component state walks were unified into one visit() each; any
// drift here means the wire format (or the fingerprint) moved.

struct WirePin {
  core::SystemKind kind;
  std::uint64_t checkpoint_hash;
  std::uint64_t fingerprint;
  std::uint64_t fault_channel_hash;
};

class WireStability : public ::testing::TestWithParam<WirePin> {};

TEST_P(WireStability, MidRunBytesAndFingerprintArePinned) {
  const WirePin& pin = GetParam();
  core::SystemConfig cfg;
  cfg.num_threads = 2;
  cfg.ser_per_inst = 1e-3;  // several arrivals per thread: non-empty schedules
  cfg.seed = 77;
  workload::SyntheticStream stream(workload::profile("gzip"), cfg.seed, 4000);
  auto sys = core::make_system(pin.kind, cfg, stream);
  sys->run(20000);

  const std::string channel = sys->fault_channel_bytes();
  if (pin.kind != core::SystemKind::kBaseline) {
    // RNG words + group count + two non-empty schedules with cursors.
    EXPECT_GT(channel.size(), 4 * 8 + 8 + 2 * (8 + 8 + 8));
  }
  EXPECT_EQ(ckpt::hash64(sys->save_checkpoint_bytes()), pin.checkpoint_hash);
  EXPECT_EQ(sys->state_fingerprint(), pin.fingerprint);
  EXPECT_EQ(ckpt::hash64(channel), pin.fault_channel_hash);
}

INSTANTIATE_TEST_SUITE_P(
    AllSystems, WireStability,
    ::testing::Values(
        WirePin{core::SystemKind::kBaseline, 1165567031804653075ull,
                15516716254053648600ull, 1469598103934665603ull},
        WirePin{core::SystemKind::kUnSync, 12966129479804583633ull,
                2571605378922463206ull, 11586476240112683065ull},
        WirePin{core::SystemKind::kReunion, 9959300832933207504ull,
                13897458990699050173ull, 11586476240112683065ull},
        WirePin{core::SystemKind::kLockstep, 7833298294407954837ull,
                1539972557535588112ull, 11586476240112683065ull},
        WirePin{core::SystemKind::kCheckpoint, 7546955459280675790ull,
                397029394507799887ull, 11586476240112683065ull},
        WirePin{core::SystemKind::kHetero, 11906617168337081584ull,
                15633480285119997842ull, 10200822151405831211ull}),
    [](const auto& info) {
      return std::string(core::name_of(info.param.kind));
    });

// ---- Divergent stream cursors -----------------------------------------------
//
// The members of a redundancy group read one instruction stream, each at
// its own position: a decoupled core runs ahead of its partner, and the
// hetero checker trails its leader. These pins checkpoint every redundant
// system at a cycle where the first group's members sit at different
// stream positions, and check that restoring into a fresh system and
// resuming equals the uninterrupted run.

/// The next-op position of every synthetic stream in `sys`'s checkpoint,
/// in walk order (the first group's members come first).
std::vector<std::uint64_t> stream_positions(const core::System& sys) {
  ckpt::Serializer s;
  sys.save_checkpoint(s);
  const std::string bytes = s.take();
  std::vector<std::uint64_t> at;
  for (std::size_t i = bytes.find("SYNS"); i != std::string::npos;
       i = bytes.find("SYNS", i + 4)) {
    ckpt::Deserializer d(bytes.substr(i));
    ckpt::Archive ar(d);
    ar.chunk("SYNS", [&] {
      (void)ar.pinned(std::string());  // profile name
      (void)ar.pinned(0);  // seed
      (void)ar.pinned(0);  // length
      Rng rng;
      ar.rng(rng);
      std::uint64_t next_seq = 0, cold = 0;
      bool last_was_store = false;
      ar.u64(next_seq);
      ar.u64(cold);
      ar.b(last_was_store);
      at.push_back(next_seq);
    });
  }
  return at;
}

struct DivergentPin {
  core::SystemKind kind;
  Cycle cut;
  /// False for Reunion only: its pair fetches in step (the fingerprint
  /// gate and the shared L2 keep both cores on the same cycle), so no cycle
  /// separates its cursors; the pin still covers a mid-run restore.
  bool diverged;
  std::uint64_t checkpoint_hash;
};

class DivergentCursors : public ::testing::TestWithParam<DivergentPin> {
 protected:
  static std::unique_ptr<core::System> make(core::SystemKind kind) {
    core::SystemConfig cfg;
    cfg.num_threads = 1;
    cfg.ser_per_inst = 1e-3;
    cfg.seed = 77;
    workload::SyntheticStream stream(workload::profile("gzip"), cfg.seed,
                                     4000);
    return core::make_system(kind, cfg, stream);
  }
};

TEST_P(DivergentCursors, PinnedBytesRestoreAndResumeExactly) {
  const DivergentPin& pin = GetParam();
  const engine::RunResult full = make(pin.kind)->run();

  auto sys = make(pin.kind);
  sys->run(pin.cut);
  const std::vector<std::uint64_t> pos = stream_positions(*sys);
  ASSERT_EQ(pos.size(), 2u);
  EXPECT_EQ(pos[0] != pos[1], pin.diverged)
      << "positions " << pos[0] << " and " << pos[1];
  ckpt::Serializer s;
  sys->save_checkpoint(s);
  const std::string snapshot = s.take();
  EXPECT_EQ(ckpt::hash64(snapshot), pin.checkpoint_hash);

  auto resumed = make(pin.kind);
  resumed->load_checkpoint_payload(snapshot);
  ckpt::Serializer again;
  resumed->save_checkpoint(again);
  EXPECT_EQ(again.data(), snapshot);
  EXPECT_EQ(resumed->state_fingerprint(), sys->state_fingerprint());
  EXPECT_EQ(resumed->run().to_json(), full.to_json());
  EXPECT_EQ(sys->run().to_json(), full.to_json());
}

INSTANTIATE_TEST_SUITE_P(
    RedundantSystems, DivergentCursors,
    ::testing::Values(
        DivergentPin{core::SystemKind::kUnSync, 3762, true,
                     1627786154441771913ull},
        DivergentPin{core::SystemKind::kReunion, 3000, false,
                     5591884753001155540ull},
        DivergentPin{core::SystemKind::kLockstep, 4232, true,
                     2227080675155387076ull},
        DivergentPin{core::SystemKind::kCheckpoint, 4218, true,
                     16995938771424047757ull},
        DivergentPin{core::SystemKind::kHetero, 970, true,
                     16744502868767201750ull}),
    [](const auto& info) {
      return std::string(core::name_of(info.param.kind));
    });

// ---- Container fuzzing ------------------------------------------------------
//
// The robustness contract of every "unsync.ckpt.v1" consumer (file AND
// in-memory blob): arbitrary truncation or bit corruption throws CkptError —
// never a crash, never a silently-wrong restore. The container CRC makes
// this provable for single-bit flips; truncation trips the magic / length /
// CRC checks depending on where the cut lands.

class CkptFuzz : public ::testing::TestWithParam<core::SystemKind> {
 protected:
  std::unique_ptr<core::System> make() const {
    core::SystemConfig cfg;
    cfg.num_threads = 1;
    cfg.ser_per_inst = 5e-5;
    cfg.seed = 99;
    workload::SyntheticStream stream(workload::profile("gzip"), cfg.seed,
                                     1500);
    return core::make_system(GetParam(), cfg, stream);
  }

  std::string snapshot() const {
    auto sys = make();
    sys->run(400);
    return sys->save_checkpoint_bytes();
  }

  /// Offsets spread over the whole blob, dense in the container header.
  static std::vector<std::size_t> sample_offsets(std::size_t size) {
    std::vector<std::size_t> at;
    for (std::size_t i = 0; i < size && i < 40; ++i) at.push_back(i);
    for (std::size_t i = 40; i < size; i += size / 64 + 1) at.push_back(i);
    if (size > 0) at.push_back(size - 1);
    return at;
  }
};

TEST_P(CkptFuzz, TruncatedCheckpointBytesAlwaysThrow) {
  const std::string blob = snapshot();
  ASSERT_GT(blob.size(), 100u);
  auto sys = make();  // container_payload throws before any state is touched
  for (const std::size_t keep : sample_offsets(blob.size())) {
    EXPECT_THROW(sys->load_checkpoint_bytes(blob.substr(0, keep)),
                 ckpt::CkptError)
        << "truncated to " << keep << " of " << blob.size() << " bytes";
  }
}

TEST_P(CkptFuzz, BitFlippedCheckpointBytesAlwaysThrow) {
  const std::string blob = snapshot();
  auto sys = make();
  for (const std::size_t at : sample_offsets(blob.size())) {
    for (const unsigned bit : {0u, 3u, 7u}) {
      std::string corrupt = blob;
      corrupt[at] = static_cast<char>(corrupt[at] ^ (1u << bit));
      EXPECT_THROW(sys->load_checkpoint_bytes(corrupt), ckpt::CkptError)
          << "bit " << bit << " of byte " << at;
    }
  }
}

TEST_P(CkptFuzz, CorruptCheckpointFilesAlwaysThrow) {
  // One file per system: ctest -j runs the instantiations concurrently.
  const std::string path = ::testing::TempDir() + "fuzz_" +
                           std::string(core::name_of(GetParam())) + ".ckpt";
  {
    auto sys = make();
    sys->run(400);
    sys->save_checkpoint_file(path);
  }
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign((std::istreambuf_iterator<char>(in)),
                 std::istreambuf_iterator<char>());
  }
  const auto rewrite = [&](const std::string& content) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(content.data(), static_cast<std::streamsize>(content.size()));
  };
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{7}, std::size_t{17}, bytes.size() / 2,
        bytes.size() - 1}) {
    rewrite(bytes.substr(0, keep));
    auto sys = make();
    EXPECT_THROW(sys->load_checkpoint_file(path), ckpt::CkptError)
        << "file truncated to " << keep;
  }
  std::string flipped = bytes;
  flipped[bytes.size() / 3] = static_cast<char>(flipped[bytes.size() / 3] ^ 0x40);
  rewrite(flipped);
  auto sys = make();
  EXPECT_THROW(sys->load_checkpoint_file(path), ckpt::CkptError);
  std::remove(path.c_str());
}

TEST_P(CkptFuzz, SaveLoadBytesRoundTripsBitExactly) {
  // The in-memory path mirrors the file path: save_checkpoint_bytes ->
  // load_checkpoint_bytes resumes to a bit-identical final result.
  const engine::RunResult full = make()->run();
  const std::string blob = snapshot();
  auto resumed = make();
  resumed->load_checkpoint_bytes(blob);
  EXPECT_EQ(resumed->save_checkpoint_bytes(), blob);
  EXPECT_EQ(resumed->run().to_json(), full.to_json());
}

TEST_P(CkptFuzz, OversizedElementCountThrowsInsteadOfAllocating) {
  // A CRC-valid checkpoint whose element count was patched: the container
  // checks all pass, so only the Load-mode count bound stands between the
  // count and a multi-exabyte resize. The patched count is the first MSHR
  // file's in-flight count (tag, chunk length, u32 capacity, then count).
  const std::string payload(ckpt::container_payload(snapshot()));
  const std::size_t tag = payload.find("MSHR");
  ASSERT_NE(tag, std::string::npos);
  const std::size_t at = tag + 4 + 8 + 4;
  for (const std::uint64_t count :
       {0x4000000000000000ull, 0x400000000ull, 1000000ull}) {
    std::string patched = payload;
    for (std::size_t i = 0; i < 8; ++i) {
      patched[at + i] = static_cast<char>((count >> (8 * i)) & 0xFF);
    }
    auto sys = make();
    EXPECT_THROW(sys->load_checkpoint_bytes(ckpt::wrap_container(patched)),
                 ckpt::CkptError)
        << "count " << count;
  }
}

TEST_P(CkptFuzz, TruncatedCacheLineBlockThrows) {
  // A CRC-valid checkpoint cut inside the first cache's line block, with
  // every enclosing chunk (SYS0, the policy chunk, MEMH, CACH) shortened to
  // end at the cut: every header check passes, so the block read itself
  // must find the bytes missing.
  const std::string payload(ckpt::container_payload(snapshot()));
  const auto u64_at = [&](std::size_t at) {
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < 8; ++i) {
      v |= std::uint64_t{static_cast<std::uint8_t>(payload[at + i])}
           << (8 * i);
    }
    return v;
  };
  // SYS0 holds the system name, then the policy chunk.
  ASSERT_EQ(payload.compare(0, 4, "SYS0"), 0);
  const std::size_t policy = 4 + 8 + 8 + u64_at(12);
  const std::size_t memh = payload.find("MEMH", policy);
  const std::size_t cach = payload.find("CACH", memh);
  ASSERT_NE(cach, std::string::npos);
  const std::size_t lines = u64_at(cach + 12);
  const std::size_t block = cach + 4 + 8 + 8;  // tag, length, line count
  ASSERT_GT(lines, 2u);
  for (const std::size_t cut :
       {block, block + 5, block + 18, block + 18 * lines - 1}) {
    std::string cut_payload = payload.substr(0, cut);
    for (const std::size_t chunk : {std::size_t{0}, policy, memh, cach}) {
      const std::uint64_t len = cut - (chunk + 12);
      for (std::size_t i = 0; i < 8; ++i) {
        cut_payload[chunk + 4 + i] = static_cast<char>((len >> (8 * i)) & 0xFF);
      }
    }
    auto sys = make();
    try {
      sys->load_checkpoint_bytes(ckpt::wrap_container(cut_payload));
      ADD_FAILURE() << "cut at " << cut << " restored";
    } catch (const ckpt::CkptError& e) {
      EXPECT_NE(std::string(e.what()).find(
                    "need " + std::to_string(18 * lines) + " bytes"),
                std::string::npos)
          << "cut at " << cut << ": " << e.what();
    }
  }
}

TEST_P(CkptFuzz, CorruptRobSeqsNeverReachOutOfBoundsEntries) {
  // A CRC-valid checkpoint whose first core's ROB seqs and completion
  // pairs were patched: the core looks every seq up through one bounds-
  // and tag-checked index, so the restore either throws CkptError or runs
  // on without touching memory outside the ROB.
  const std::string payload(ckpt::container_payload(snapshot()));
  const auto u64_at = [](const std::string& b, std::size_t at) {
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < 8; ++i) {
      v |= std::uint64_t{static_cast<std::uint8_t>(b[at + i])} << (8 * i);
    }
    return v;
  };
  const auto put_u64 = [](std::string& b, std::size_t at, std::uint64_t v) {
    for (std::size_t i = 0; i < 8; ++i) {
      b[at + i] = static_cast<char>((v >> (8 * i)) & 0xFF);
    }
  };
  // CPU0 layout: tag, length, u32 core id, the CSTA chunk, two u64s, the
  // fetch queue (count + 45-byte ops), the ROB (count + 56-byte entries:
  // op, in_iq, issued, complete_at, mispredicted), then the completion
  // pairs (count + 16-byte pairs).
  constexpr std::size_t kOpBytes = 45;
  constexpr std::size_t kEntryBytes = kOpBytes + 11;
  const std::size_t cpu = payload.find("CPU0");
  ASSERT_NE(cpu, std::string::npos);
  const std::size_t csta = cpu + 4 + 8 + 4;
  ASSERT_EQ(payload.compare(csta, 4, "CSTA"), 0);
  const std::size_t fetch = csta + 4 + 8 + u64_at(payload, csta + 4) + 16;
  const std::size_t rob = fetch + 8 + u64_at(payload, fetch) * kOpBytes;
  const std::uint64_t rob_count = u64_at(payload, rob);
  ASSERT_GE(rob_count, 3u) << "snapshot should hold a busy ROB";
  const auto entry_seq = [&](std::uint64_t k) {
    return rob + 8 + k * kEntryBytes;
  };
  const std::size_t pairs = rob + 8 + rob_count * kEntryBytes;
  ASSERT_EQ(u64_at(payload, pairs), rob_count);
  ASSERT_EQ(u64_at(payload, pairs + 8), u64_at(payload, entry_seq(0)));
  const auto pair_at = [&](std::uint64_t k) { return pairs + 8 + k * 16; };

  const std::uint64_t head = u64_at(payload, entry_seq(0));
  const std::uint64_t mid = rob_count / 2;
  struct Patch {
    std::uint64_t entry;
    std::uint64_t seq;
  };
  for (const Patch& patch :
       {Patch{0, head + 1000}, Patch{0, ~std::uint64_t{0} - 1},
        Patch{mid, head}, Patch{mid, head + rob_count + 5},
        Patch{rob_count - 1, kNoSeq}}) {
    std::string patched = payload;
    put_u64(patched, entry_seq(patch.entry), patch.seq);
    put_u64(patched, pair_at(patch.entry), patch.seq ^ 1);  // the pair's seq
    put_u64(patched, pair_at(mid) + 8, 0);  // a completion cycle
    auto sys = make();
    try {
      sys->load_checkpoint_bytes(ckpt::wrap_container(patched));
      sys->run(400 + 2000);
    } catch (const ckpt::CkptError&) {
      // Rejecting the corrupt state is the other accepted outcome.
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    WireFormats, CkptFuzz,
    ::testing::Values(core::SystemKind::kUnSync, core::SystemKind::kHetero),
    [](const auto& info) { return std::string(core::name_of(info.param)); });

// ---- One walk per component: mutation coverage -----------------------------
//
// Perturbs the k-th numeric scalar of a system's visit_policy_state() walk,
// for every k, and checks that the walk is the single description of the
// state: the perturbed value changes state_fingerprint() unless it lies in
// a fault_channel() span (then only the fault channel changes), and it
// survives save -> load into a freshly built system. A field that a walk reads but then drops, or recomputes from
// others, fails here.

class StateWalkMutation : public ::testing::TestWithParam<core::SystemKind> {
 protected:
  /// One thread and small caches keep the walk (and so the number of
  /// perturbations) short; the branch-predictor tables stay full size.
  std::unique_ptr<core::System> make() const {
    core::SystemConfig cfg;
    cfg.num_threads = 1;
    cfg.ser_per_inst = 1e-3;
    cfg.seed = 5;
    cfg.mem.l1d.size_bytes = 1024;
    cfg.mem.l1i.size_bytes = 1024;
    cfg.mem.l2.size_bytes = 8 * 1024;
    cfg.core.itlb.entries = 8;
    cfg.core.dtlb.entries = 8;
    workload::SyntheticStream stream(workload::profile("gzip"), cfg.seed,
                                     3000);
    return core::make_system(GetParam(), cfg, stream);
  }

  /// Scalars the walk records, one per cache-line and TLB-entry field
  /// too: the counts from before those arrays became one block each.
  std::size_t pinned_sites() const {
    switch (GetParam()) {
      case core::SystemKind::kBaseline: return 5332;
      case core::SystemKind::kUnSync: return 10109;
      case core::SystemKind::kReunion: return 10028;
      case core::SystemKind::kLockstep: return 9991;
      case core::SystemKind::kCheckpoint: return 9998;
      case core::SystemKind::kHetero: return 5382;
    }
    return 0;
  }
};

TEST_P(StateWalkMutation, EveryScalarReachesTheFingerprintAndTheCheckpoint) {
  auto sys = make();
  sys->run(6000);  // mid-run: queues, MSHRs and arrival cursors populated

  std::vector<ckpt::Archive::ScalarSite> sites;
  std::string bytes;
  {
    ckpt::Serializer s;
    ckpt::Archive ar(s);
    ar.record_scalars(&sites);
    sys->visit_policy_state(ar);
    bytes = s.take();
  }
  ASSERT_GT(sites.size(), 100u);
  // The block path still exposes every line field to the perturbation.
  EXPECT_EQ(sites.size(), pinned_sites());
  const std::uint64_t fingerprint = sys->state_fingerprint();
  const std::string channel = sys->fault_channel_bytes();

  auto perturbed = make();  // loaded with each perturbed walk in turn
  auto restored = make();   // loaded from perturbed's checkpoint
  {
    // Unperturbed, the walk reproduces the state exactly — so a scalar
    // that loading drops cannot hide behind a difference elsewhere.
    ckpt::Deserializer d(bytes);
    ckpt::Archive ar(d);
    perturbed->visit_policy_state(ar);
    ASSERT_EQ(perturbed->state_fingerprint(), fingerprint);
    ASSERT_EQ(perturbed->fault_channel_bytes(), channel);
  }
  std::size_t channel_scalars = 0;
  for (std::size_t k = 0; k < sites.size(); ++k) {
    std::string mutated = bytes;
    mutated[sites[k].offset] ^= 1;  // lowest bit: scalars are little-endian
    {
      ckpt::Deserializer d(mutated);
      ckpt::Archive ar(d);
      perturbed->visit_policy_state(ar);
      ASSERT_TRUE(d.at_end()) << "scalar " << k;
    }
    const std::uint64_t fp = perturbed->state_fingerprint();
    if (sites[k].fault_channel) {
      ++channel_scalars;
      EXPECT_EQ(fp, fingerprint) << "fault-channel scalar " << k;
      EXPECT_NE(perturbed->fault_channel_bytes(), channel) << "scalar " << k;
    } else {
      EXPECT_NE(fp, fingerprint)
          << "scalar " << k << " (byte " << sites[k].offset
          << ") is walked but does not reach the fingerprint";
    }
    restored->load_checkpoint_bytes(perturbed->save_checkpoint_bytes());
    EXPECT_EQ(restored->state_fingerprint(), fp) << "scalar " << k;
    EXPECT_EQ(restored->fault_channel_bytes(),
              perturbed->fault_channel_bytes())
        << "scalar " << k;
  }
  // Only the baseline has no fault channel.
  EXPECT_EQ(channel_scalars == 0,
            GetParam() == core::SystemKind::kBaseline);
}

INSTANTIATE_TEST_SUITE_P(
    AllSystems, StateWalkMutation,
    ::testing::Values(core::SystemKind::kBaseline, core::SystemKind::kUnSync,
                      core::SystemKind::kReunion, core::SystemKind::kLockstep,
                      core::SystemKind::kCheckpoint, core::SystemKind::kHetero),
    [](const auto& info) { return std::string(core::name_of(info.param)); });

}  // namespace
