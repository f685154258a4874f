#include "ckpt/serializer.hpp"

#include <unistd.h>

#include <array>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <initializer_list>

namespace unsync::ckpt {

namespace {

constexpr std::string_view kMagic = "UNSYCKPT";

/// Slicing-by-8 tables for the reflected CRC-32 (polynomial 0xEDB88320):
/// t[0] is the classic byte table and t[k][i] advances t[k-1][i] by one
/// more zero byte, so crc32 folds in eight input bytes per step. Same
/// checksum as the byte-at-a-time loop, several times faster on the
/// megabyte checkpoint blobs every save and restore checks.
std::array<std::array<std::uint32_t, 256>, 8> make_crc_tables() {
  std::array<std::array<std::uint32_t, 256>, 8> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      t[k][i] = t[0][t[k - 1][i] & 0xFF] ^ (t[k - 1][i] >> 8);
    }
  }
  return t;
}

/// Checksums scan in blocks of this many bytes: an all-zero block costs
/// one word scan, and a run of them one multiply.
constexpr std::size_t kBlock = 256;

bool zero_block(const unsigned char* p) {
  std::uint64_t any = 0;
  for (std::size_t i = 0; i < kBlock; i += 8) {
    std::uint64_t w;
    std::memcpy(&w, p + i, sizeof w);
    any |= w;
  }
  return any == 0;
}

/// Splits [p, p + len) into runs of whole all-zero blocks, passed as
/// zeros(block count), and the bytes between them, passed as bytes(p, n),
/// in order. Blocks are counted from `p`, so a checksum of a blob read
/// back from disk finds the same runs as one of the blob in memory.
template <typename Bytes, typename Zeros>
void fold_blocks(const unsigned char* p, std::size_t len, Bytes&& bytes,
                 Zeros&& zeros) {
  const unsigned char* const end = p + len;
  const unsigned char* mark = p;  // first byte not folded in yet
  std::size_t run = 0;            // zero blocks just before p
  for (; static_cast<std::size_t>(end - p) >= kBlock; p += kBlock) {
    if (zero_block(p)) {
      if (mark != p) bytes(mark, static_cast<std::size_t>(p - mark));
      ++run;
      mark = p + kBlock;
    } else if (run != 0) {
      zeros(run);
      run = 0;
    }
  }
  if (run != 0) zeros(run);
  bytes(mark, static_cast<std::size_t>(end - mark));
}

// ---- CRC-32 zero runs -------------------------------------------------------
//
// With zero input the CRC register is linear: n zero bytes multiply it by
// x^(8n) modulo the polynomial (zlib's crc32_combine). In the reflected
// representation x^0 is bit 31.

constexpr std::uint32_t kCrcPoly = 0xEDB88320u;

/// a * b modulo the CRC-32 polynomial, both reflected.
std::uint32_t multmodp(std::uint32_t a, std::uint32_t b) {
  std::uint32_t p = 0;
  for (int i = 0; i < 32; ++i, a <<= 1) {
    p ^= b & (0u - (a >> 31));
    b = (b >> 1) ^ (kCrcPoly & (0u - (b & 1)));
  }
  return p;
}

/// Operators x^(8 * kBlock * m) for runs of m zero blocks: one entry per m
/// below kShortRuns, and one per power of two m = 2^k for longer runs.
constexpr std::size_t kShortRuns = 16;
struct ZeroRunOps {
  std::array<std::uint32_t, kShortRuns> short_runs{};
  std::array<std::uint32_t, 64> pow2{};
};

ZeroRunOps make_zero_run_ops() {
  ZeroRunOps ops;
  std::uint32_t x8 = 1u << 23;  // x^8: one zero byte
  std::uint32_t block = 1u << 31;
  for (std::size_t i = 0; i < kBlock; ++i) block = multmodp(block, x8);
  ops.short_runs[0] = 1u << 31;
  for (std::size_t m = 1; m < kShortRuns; ++m) {
    ops.short_runs[m] = multmodp(ops.short_runs[m - 1], block);
  }
  ops.pow2[0] = block;
  for (std::size_t k = 1; k < ops.pow2.size(); ++k) {
    ops.pow2[k] = multmodp(ops.pow2[k - 1], ops.pow2[k - 1]);
  }
  return ops;
}

/// The CRC register after `blocks` zero blocks more.
std::uint32_t crc_zero_blocks(std::uint32_t c, std::size_t blocks) {
  static const ZeroRunOps ops = make_zero_run_ops();
  if (blocks < kShortRuns) return multmodp(ops.short_runs[blocks], c);
  for (std::size_t k = 0; blocks != 0; ++k, blocks >>= 1) {
    if (blocks & 1) c = multmodp(ops.pow2[k], c);
  }
  return c;
}

// ---- FNV-1a -----------------------------------------------------------------

constexpr std::uint64_t kFnvPrime = 1099511628211ull;

constexpr std::uint64_t pow_mod64(std::uint64_t base, std::uint64_t e) {
  std::uint64_t r = 1;
  for (; e != 0; e >>= 1, base *= base) {
    if (e & 1) r *= base;
  }
  return r;
}

/// FNV-1a over one zero block: the state times P^kBlock.
constexpr std::uint64_t kFnvBlock = pow_mod64(kFnvPrime, kBlock);

// ---- Container header -------------------------------------------------------

/// Magic, length-prefixed schema, payload length, payload CRC-32.
constexpr std::size_t kHeaderSize = kMagic.size() + 8 + kSchema.size() + 8 + 4;

/// Writes the container header of `payload` to [at, at + kHeaderSize).
void put_header(char* at, std::string_view payload) {
  std::memcpy(at, kMagic.data(), kMagic.size());
  at += kMagic.size();
  store_le<std::uint64_t>(at, kSchema.size());
  at += 8;
  std::memcpy(at, kSchema.data(), kSchema.size());
  at += kSchema.size();
  store_le<std::uint64_t>(at, payload.size());
  store_le<std::uint32_t>(at + 8, crc32(payload));
}

/// Writes `pieces`, in order, to a temp file unique to this writer
/// (`<path>.tmp.<pid>.<n>`), flushes, then atomically renames it to `path`.
void atomic_write(const std::string& path,
                  std::initializer_list<std::string_view> pieces) {
  // The temp name is unique per writer: two processes (or threads) saving
  // the same path must not share a temp file, or the slower rename finds
  // it already gone.
  static std::atomic<std::uint64_t> writes{0};
  const std::string tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
                          std::to_string(writes.fetch_add(1));
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw std::runtime_error("cannot write " + tmp);
    for (const std::string_view piece : pieces) {
      out.write(piece.data(), static_cast<std::streamsize>(piece.size()));
    }
    out.flush();
    if (!out) throw std::runtime_error("short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw std::runtime_error("cannot rename " + tmp + " -> " + path);
  }
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t len, std::uint32_t seed) {
  static const auto t = make_crc_tables();
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  const auto bytes = [&](const unsigned char* p, std::size_t n) {
    for (; n >= 8; n -= 8, p += 8) {
      const std::uint32_t lo =
          c ^ (std::uint32_t{p[0]} | std::uint32_t{p[1]} << 8 |
               std::uint32_t{p[2]} << 16 | std::uint32_t{p[3]} << 24);
      c = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^
          t[5][(lo >> 16) & 0xFF] ^ t[4][lo >> 24] ^ t[3][p[4]] ^
          t[2][p[5]] ^ t[1][p[6]] ^ t[0][p[7]];
    }
    for (; n > 0; --n, ++p) c = t[0][(c ^ *p) & 0xFF] ^ (c >> 8);
  };
  fold_blocks(static_cast<const unsigned char*>(data), len, bytes,
              [&](std::size_t blocks) { c = crc_zero_blocks(c, blocks); });
  return c ^ 0xFFFFFFFFu;
}

std::uint64_t hash64(std::string_view s, std::uint64_t h) {
  fold_blocks(
      reinterpret_cast<const unsigned char*>(s.data()), s.size(),
      [&](const unsigned char* p, std::size_t n) {
        for (; n > 0; --n, ++p) {
          h ^= *p;
          h *= kFnvPrime;
        }
      },
      [&](std::size_t blocks) { h *= pow_mod64(kFnvBlock, blocks); });
  return h;
}

// ---- PackedPayload ----------------------------------------------------------

PackedPayload PackedPayload::pack(std::string_view payload) {
  PackedPayload out;
  out.size_ = payload.size();
  const auto* base = reinterpret_cast<const unsigned char*>(payload.data());
  std::size_t kept = 0;
  fold_blocks(
      base, payload.size(),
      [&](const unsigned char* p, std::size_t n) {
        if (n == 0) return;
        out.runs_.push_back({static_cast<std::size_t>(p - base), n});
        kept += n;
      },
      [](std::size_t) {});
  out.runs_.shrink_to_fit();
  out.data_.reserve(kept);
  for (const Run& r : out.runs_) out.data_.append(payload.substr(r.at, r.len));
  return out;
}

void PackedPayload::unpack_into(std::string& out) const {
  out.assign(size_, '\0');
  const char* from = data_.data();
  for (const Run& r : runs_) {
    std::memcpy(out.data() + r.at, from, r.len);
    from += r.len;
  }
}

// ---- Serializer -------------------------------------------------------------

void Serializer::begin_chunk(std::string_view tag) {
  if (tag.size() != 4) throw std::logic_error("chunk tag must be 4 chars");
  buf_.append(tag.data(), 4);
  chunk_stack_.push_back(buf_.size());
  u64(0);  // length placeholder, patched by end_chunk()
}

void Serializer::end_chunk() {
  if (chunk_stack_.empty()) throw std::logic_error("end_chunk without begin");
  const std::size_t at = chunk_stack_.back();
  chunk_stack_.pop_back();
  const std::uint64_t len = buf_.size() - (at + 8);
  for (std::size_t i = 0; i < 8; ++i) {
    buf_[at + i] = static_cast<char>((len >> (8 * i)) & 0xFF);
  }
}

// ---- Deserializer -----------------------------------------------------------

void Deserializer::need(std::size_t n) const {
  // A read may not cross the end of the innermost open chunk: a misaligned
  // reader fails at the exact field, not at some later end_chunk().
  if (chunk_remaining() < n) {
    throw CkptError("checkpoint truncated: need " + std::to_string(n) +
                    " bytes at offset " + std::to_string(pos_));
  }
}

char Deserializer::take_byte() {
  need(1);
  return buf_[pos_++];
}

std::string Deserializer::str() {
  const std::uint64_t n = u64();
  need(n);
  std::string s(buf_.substr(pos_, n));
  pos_ += n;
  return s;
}

void Deserializer::begin_chunk(std::string_view tag) {
  need(4);
  const std::string_view got(buf_.data() + pos_, 4);
  if (got != tag) {
    throw CkptError("checkpoint chunk mismatch: expected '" +
                    std::string(tag) + "', found '" + std::string(got) + "'");
  }
  pos_ += 4;
  const std::uint64_t len = u64();
  need(len);
  chunk_stack_.emplace_back(std::string(tag), pos_ + len);
}

void Deserializer::end_chunk() {
  if (chunk_stack_.empty()) throw std::logic_error("end_chunk without begin");
  const auto [tag, end] = chunk_stack_.back();
  chunk_stack_.pop_back();
  if (pos_ != end) {
    throw CkptError("checkpoint chunk '" + tag + "' size mismatch: " +
                    std::to_string(end - pos_) + " bytes unconsumed");
  }
}

// ---- Container --------------------------------------------------------------

std::string wrap_container(std::string_view payload) {
  Serializer s;
  begin_container(s);
  s.bytes(payload.data(), payload.size());
  return seal_container(s);
}

void begin_container(Serializer& s) { (void)s.extend(kHeaderSize); }

std::string seal_container(Serializer& s) {
  std::string file = s.take();
  if (file.size() < kHeaderSize) {
    throw std::logic_error("seal_container without begin_container");
  }
  put_header(file.data(), std::string_view(file).substr(kHeaderSize));
  return file;
}

std::string_view container_payload(std::string_view file_bytes) {
  Deserializer d{file_bytes};
  if (file_bytes.size() < kMagic.size() ||
      file_bytes.substr(0, kMagic.size()) != kMagic) {
    throw CkptError("not a checkpoint file (bad magic)");
  }
  for (std::size_t i = 0; i < kMagic.size(); ++i) (void)d.u8();
  const std::string schema = d.str();
  if (schema != kSchema) {
    throw CkptError("unsupported checkpoint schema '" + schema +
                    "' (expected '" + std::string(kSchema) + "')");
  }
  const std::uint64_t len = d.u64();
  const std::uint32_t want_crc = d.u32();
  if (d.remaining() != len) {
    throw CkptError("checkpoint payload truncated: header advertises " +
                    std::to_string(len) + " bytes, " +
                    std::to_string(d.remaining()) + " present");
  }
  const std::string_view payload = file_bytes.substr(file_bytes.size() - len);
  const std::uint32_t got_crc = crc32(payload);
  if (got_crc != want_crc) {
    throw CkptError("checkpoint CRC mismatch (file corrupted)");
  }
  return payload;
}

void atomic_write_text(const std::string& path, std::string_view content) {
  atomic_write(path, {content});
}

void write_file(const std::string& path, std::string_view payload) {
  char header[kHeaderSize];
  put_header(header, payload);
  atomic_write(path, {{header, kHeaderSize}, payload});
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open checkpoint " + path);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  return std::string(container_payload(bytes));
}

}  // namespace unsync::ckpt
