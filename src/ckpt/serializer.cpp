#include "ckpt/serializer.hpp"

#include <unistd.h>

#include <array>
#include <atomic>
#include <cstdio>
#include <fstream>

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

}  // namespace

std::uint32_t crc32(const void* data, std::size_t len, std::uint32_t seed) {
  static const auto t = make_crc_tables();
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  const auto* p = static_cast<const unsigned char*>(data);
  for (; len >= 8; len -= 8, p += 8) {
    const std::uint32_t lo =
        c ^ (std::uint32_t{p[0]} | std::uint32_t{p[1]} << 8 |
             std::uint32_t{p[2]} << 16 | std::uint32_t{p[3]} << 24);
    c = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
        t[4][lo >> 24] ^ t[3][p[4]] ^ t[2][p[5]] ^ t[1][p[6]] ^ t[0][p[7]];
  }
  for (; len > 0; --len, ++p) c = t[0][(c ^ *p) & 0xFF] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
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
  s.bytes(kMagic.data(), kMagic.size());
  s.str(kSchema);
  s.u64(payload.size());
  s.u32(crc32(payload));
  s.bytes(payload.data(), payload.size());
  return s.take();
}

std::string unwrap_container(std::string_view file_bytes) {
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
  return std::string(payload);
}

void atomic_write_text(const std::string& path, std::string_view content) {
  // The temp name is unique per writer: two processes (or threads) saving
  // the same path must not share a temp file, or the slower rename finds
  // it already gone.
  static std::atomic<std::uint64_t> writes{0};
  const std::string tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
                          std::to_string(writes.fetch_add(1));
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw std::runtime_error("cannot write " + tmp);
    out.write(content.data(),
              static_cast<std::streamsize>(content.size()));
    out.flush();
    if (!out) throw std::runtime_error("short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw std::runtime_error("cannot rename " + tmp + " -> " + path);
  }
}

void write_file(const std::string& path, std::string_view payload) {
  atomic_write_text(path, wrap_container(payload));
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open checkpoint " + path);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  return unwrap_container(bytes);
}

}  // namespace unsync::ckpt
