// Versioned, checksummed binary serialization for simulator checkpoints.
//
// The wire format is a tagged-chunk container ("unsync.ckpt.v1"): every
// component writes its state inside a 4-byte-tagged, length-prefixed chunk,
// so a reader can verify it is consuming exactly the section it expects and
// a format mismatch fails loudly instead of silently misaligning the byte
// stream. Files carry a magic, the schema string, a payload length and a
// CRC-32 of the payload; write_file() goes through write-to-temp + atomic
// rename so a crash mid-save never leaves a torn checkpoint behind.
//
// Scalars are little-endian fixed-width; doubles are bit-cast to u64, which
// is what makes save -> load -> save byte-identical (the bit-exactness the
// resumable-run contract in docs/CHECKPOINTS.md is built on).
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace unsync::ckpt {

/// Schema identifier embedded in every checkpoint file header.
inline constexpr std::string_view kSchema = "unsync.ckpt.v1";

/// A malformed, truncated or corrupted checkpoint (bad magic/schema, CRC
/// mismatch, chunk-tag mismatch, or reading past the end). The CLI maps
/// this to exit code 2 — "fix the input", not "the simulation failed".
struct CkptError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over `data`,
/// seedable for incremental computation. A 256-byte block of zeros costs
/// one word scan: a run of them is folded in as one multiply.
std::uint32_t crc32(const void* data, std::size_t len,
                    std::uint32_t seed = 0);
inline std::uint32_t crc32(std::string_view s, std::uint32_t seed = 0) {
  return crc32(s.data(), s.size(), seed);
}

/// FNV-1a 64-bit hash. Used where a 32-bit CRC's collision rate is too high
/// for comfort — state_fingerprint() and the benchmark result digests.
/// Not cryptographic; fine for states produced by the deterministic
/// simulator rather than an adversary. `h` is the state to continue from
/// (the offset basis, or the hash of the bytes before `s`); zero blocks are
/// folded in as one multiply per run, as in crc32.
inline constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
std::uint64_t hash64(std::string_view s, std::uint64_t h = kFnvOffset);

/// Writes the unsigned `v` to `p` little-endian, whatever the host's byte
/// order: one store on a little-endian host.
template <typename T>
void store_le(char* p, T v) {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(p, &v, sizeof v);
  } else {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      p[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
    }
  }
}

/// Reads a little-endian unsigned T from `p` (the inverse of store_le).
template <typename T>
T load_le(const char* p) {
  T v = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&v, p, sizeof v);
  } else {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(static_cast<unsigned char>(p[i])) << (8 * i);
    }
  }
  return v;
}

class Serializer {
 public:
  void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v) { put_le(v); }
  void u64(std::uint64_t v) { put_le(v); }
  void i64(std::int64_t v) { put_le(static_cast<std::uint64_t>(v)); }
  void b(bool v) { u8(v ? 1 : 0); }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  void str(std::string_view s) {
    u64(s.size());
    buf_.append(s.data(), s.size());
  }
  void bytes(const void* data, std::size_t len) {
    buf_.append(static_cast<const char*>(data), len);
  }
  /// Appends `len` bytes for the caller to fill in place (a block of
  /// fixed-width records); the pointer is valid until the next write.
  char* extend(std::size_t len) {
    const std::size_t at = buf_.size();
    buf_.resize(at + len);
    return buf_.data() + at;
  }

  /// Opens a tagged chunk (`tag` must be exactly 4 characters). The length
  /// is back-patched by end_chunk(); chunks nest.
  void begin_chunk(std::string_view tag);
  void end_chunk();

  const std::string& data() const { return buf_; }
  std::string take() { return std::move(buf_); }
  /// Empties the buffer but keeps its capacity, so a Serializer reused for
  /// the next save of the same state writes into memory already mapped.
  void clear() {
    buf_.clear();
    chunk_stack_.clear();
  }

 private:
  template <typename T>
  void put_le(T v) {
    // Assembled in a local and appended at once: one capacity check per
    // scalar instead of one per byte.
    char bytes[sizeof(T)];
    store_le(bytes, v);
    buf_.append(bytes, sizeof(T));
  }

  std::string buf_;
  std::vector<std::size_t> chunk_stack_;  // offsets of pending length fields
};

class Deserializer {
 public:
  /// Reads `payload`, which the Deserializer owns.
  explicit Deserializer(std::string payload)
      : owned_(std::move(payload)), buf_(owned_) {}
  /// Reads `bytes` in place, without a copy: they must outlive the reader.
  explicit Deserializer(std::string_view bytes) : buf_(bytes) {}
  // buf_ may view owned_: a copied or moved reader would dangle.
  Deserializer(const Deserializer&) = delete;
  Deserializer& operator=(const Deserializer&) = delete;

  std::uint8_t u8() { return static_cast<std::uint8_t>(take_byte()); }
  std::uint32_t u32() { return get_le<std::uint32_t>(); }
  std::uint64_t u64() { return get_le<std::uint64_t>(); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  bool b() { return u8() != 0; }
  double f64() {
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }
  std::string str();
  void bytes(void* data, std::size_t len) {
    if (len != 0) std::memcpy(data, take(len), len);
  }
  /// Consumes `len` bytes and returns where they start (a block of
  /// fixed-width records, decoded in place).
  const char* take(std::size_t len) {
    need(len);
    const char* at = buf_.data() + pos_;
    pos_ += len;
    return at;
  }

  /// Consumes the header of a chunk and verifies its tag; end_chunk()
  /// verifies the advertised length was consumed exactly.
  void begin_chunk(std::string_view tag);
  void end_chunk();

  bool at_end() const { return pos_ == buf_.size(); }
  std::size_t remaining() const { return buf_.size() - pos_; }
  /// Bytes left before the end of the innermost open chunk (the whole
  /// payload when no chunk is open).
  std::size_t chunk_remaining() const {
    return (chunk_stack_.empty() ? buf_.size() : chunk_stack_.back().second) -
           pos_;
  }

 private:
  char take_byte();
  void need(std::size_t n) const;

  template <typename T>
  T get_le() {
    return load_le<T>(take(sizeof(T)));
  }

  std::string owned_;  // empty when reading a caller's bytes in place
  std::string_view buf_;
  std::size_t pos_ = 0;
  std::vector<std::pair<std::string, std::size_t>> chunk_stack_;  // tag, end
};

/// A payload with its all-zero 256-byte blocks left out: the in-memory form
/// of a checkpoint that never leaves the process (the prefix engine's golden
/// snapshots). It carries no container and no CRC. The blocks are the ones
/// crc32 and hash64 fold in as zero runs, counted from the payload's start.
class PackedPayload {
 public:
  static PackedPayload pack(std::string_view payload);
  /// Replaces `out` with the packed payload: zeros, then the kept runs
  /// copied back in. Reuses `out`'s capacity.
  void unpack_into(std::string& out) const;
  /// Bytes it holds: the kept runs and their offsets.
  std::size_t bytes() const {
    return data_.size() + runs_.size() * sizeof(Run);
  }

 private:
  struct Run {
    std::size_t at = 0;   ///< offset in the payload
    std::size_t len = 0;  ///< bytes, stored back to back in data_
  };
  std::vector<Run> runs_;
  std::string data_;
  std::size_t size_ = 0;
};

// ---- Container I/O ----------------------------------------------------------

/// Wraps `payload` in the "unsync.ckpt.v1" container (magic, schema,
/// length, CRC-32) and returns the file bytes.
std::string wrap_container(std::string_view payload);

/// Builds a container in one buffer: begin_container writes the header with
/// the length and CRC left zero, the caller serialises the payload behind
/// it, and seal_container back-patches both and returns the file bytes
/// (the same bytes wrap_container returns for that payload).
void begin_container(Serializer& s);
std::string seal_container(Serializer& s);

/// Verifies magic / schema / length / CRC and returns the payload: a view
/// into `file_bytes`, which must outlive it. Throws CkptError on any
/// mismatch.
std::string_view container_payload(std::string_view file_bytes);

/// The container header and then `payload`, written to a temp file and
/// atomically renamed (the payload is not copied). Throws
/// std::runtime_error on I/O failure.
void write_file(const std::string& path, std::string_view payload);

/// Reads and unwraps a checkpoint file. Throws CkptError on corruption,
/// std::runtime_error if the file cannot be read.
std::string read_file(const std::string& path);

/// Writes `content` (arbitrary text, e.g. a JSONL journal) to `path`
/// crash-safely: write to a temp file unique to this writer
/// (`<path>.tmp.<pid>.<n>`), flush, then atomically rename.
void atomic_write_text(const std::string& path, std::string_view content);

}  // namespace unsync::ckpt
