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

/// Checksums and packed payloads scan a payload in blocks of this many
/// bytes, counted from its start: an all-zero block costs one word scan.
inline constexpr std::size_t kZeroBlock = 256;

/// A payload with its all-zero kZeroBlock-byte blocks left out: the
/// in-memory form of a checkpoint that never leaves the process (the prefix
/// engine's golden snapshots). It carries no container and no CRC. The
/// blocks are the ones crc32 and hash64 fold in as zero runs. A packed
/// Serializer writes it (take_packed()); a Deserializer reads it in place.
class PackedPayload {
 public:
  /// Kept bytes [at, at + len) of the payload. Runs are ascending and
  /// separated by at least one left-out block; each starts on a block
  /// boundary, and the last one holds the payload's partial tail block
  /// whatever its bytes.
  struct Run {
    std::size_t at = 0;
    std::size_t len = 0;
    bool operator==(const Run&) const = default;
  };

  /// Size of the payload it packs.
  std::size_t size() const { return size_; }
  const std::vector<Run>& runs() const { return runs_; }
  /// The kept runs' bytes, back to back.
  const std::string& kept() const { return kept_; }
  /// Bytes it holds: the kept runs and their offsets.
  std::size_t bytes() const {
    return kept_.size() + runs_.size() * sizeof(Run);
  }

  bool operator==(const PackedPayload&) const = default;

 private:
  friend class Serializer;
  std::vector<Run> runs_;
  std::string kept_;
  std::size_t size_ = 0;
};

class Serializer {
 public:
  /// Where the payload goes. kFlat holds it whole (data(), take());
  /// kPacked drops its all-zero blocks as they are written and hands the
  /// rest over as a PackedPayload (take_packed()). Both take the same
  /// writes: one walk serves either.
  enum class Sink : std::uint8_t { kFlat, kPacked };

  explicit Serializer(Sink sink = Sink::kFlat)
      : packed_(sink == Sink::kPacked) {}

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
  /// Appends `n` zero bytes. A packed sink stores none of the whole blocks
  /// among them.
  void zeros(std::size_t n) {
    if (packed_ && n >= kZeroBlock) {
      skip_zeros(n);
    } else {
      buf_.append(n, '\0');
    }
  }

  /// Opens a tagged chunk (`tag` must be exactly 4 characters). The length
  /// is back-patched by end_chunk(); chunks nest.
  void begin_chunk(std::string_view tag);
  void end_chunk();

  /// Payload bytes written so far.
  std::size_t size() const { return base_ + buf_.size() - window_; }

  /// The payload (flat sink only).
  const std::string& data() const { return buf_; }
  std::string take() { return std::move(buf_); }
  /// Packed sink only, with no chunk open: the payload written so far,
  /// packed. Empties the serializer like clear().
  PackedPayload take_packed();
  /// Empties the buffer but keeps its capacity, so a Serializer reused for
  /// the next save of the same state writes into memory already mapped.
  void clear() {
    buf_.clear();
    chunk_stack_.clear();
    runs_.clear();
    pinned_.clear();
    base_ = 0;
    window_ = 0;
  }

 private:
  /// A byte written: its index in buf_ and its offset in the payload (the
  /// same in a flat sink).
  struct Site {
    std::size_t at = 0;
    std::size_t offset = 0;
  };

  template <typename T>
  void put_le(T v) {
    // Assembled in a local and appended at once: one capacity check per
    // scalar instead of one per byte.
    char bytes[sizeof(T)];
    store_le(bytes, v);
    buf_.append(bytes, sizeof(T));
  }

  void skip_zeros(std::size_t n);
  void scan_window();
  void keep(std::size_t offset, std::size_t len);
  void drop_pinned(const Site& block);

  // A packed sink holds the kept blocks in buf_[0, window_) and the bytes
  // not scanned yet, from payload offset base_ (a block boundary) on, in
  // buf_[window_, end). A flat sink has base_ = window_ = 0.
  std::string buf_;
  std::vector<Site> chunk_stack_;  // pending length fields
  bool packed_ = false;
  std::size_t base_ = 0;
  std::size_t window_ = 0;
  std::vector<PackedPayload::Run> runs_;  // of buf_[0, window_)
  /// Kept blocks that held a pending length field when scanned: their
  /// zeros may not have been final.
  std::vector<Site> pinned_;
};

class Deserializer {
 public:
  /// Reads `payload`, which the Deserializer owns.
  explicit Deserializer(std::string payload) : owned_(std::move(payload)) {
    view(owned_);
  }
  /// Reads `bytes` in place, without a copy: they must outlive the reader.
  explicit Deserializer(std::string_view bytes) { view(bytes); }
  /// Reads the payload `packed` holds, in place: kept bytes where they lie,
  /// left-out blocks as zeros. `packed` must outlive the reader.
  explicit Deserializer(const PackedPayload& packed);
  // seg_ may point into owned_ or scratch_: a copied or moved reader would
  // dangle.
  Deserializer(const Deserializer&) = delete;
  Deserializer& operator=(const Deserializer&) = delete;

  std::uint8_t u8() { return static_cast<std::uint8_t>(*take(1)); }
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
  /// fixed-width records, decoded in place). The pointer is valid until the
  /// next read.
  const char* take(std::size_t len) {
    need(len);
    if (pos_ + len > seg_end_) return take_across(len);
    const char* at = seg_ + (pos_ - seg_at_);
    pos_ += len;
    return at;
  }
  /// Length of the left-out zeros from the read position on: 0 in a kept
  /// run and in a flat payload. skip() consumes them without reading.
  std::size_t gap() { return packed_ ? packed_gap() : 0; }
  void skip(std::size_t len) {
    need(len);
    pos_ += len;
  }

  /// Consumes the header of a chunk and verifies its tag; end_chunk()
  /// verifies the advertised length was consumed exactly.
  void begin_chunk(std::string_view tag);
  void end_chunk();

  /// Throws CkptError unless `n` more bytes lie before the end of the
  /// innermost open chunk.
  void need(std::size_t n) const;

  bool at_end() const { return pos_ == size_; }
  std::size_t remaining() const { return size_ - pos_; }
  /// Bytes left before the end of the innermost open chunk (the whole
  /// payload when no chunk is open).
  std::size_t chunk_remaining() const {
    return (chunk_stack_.empty() ? size_ : chunk_stack_.back().second) - pos_;
  }

 private:
  void view(std::string_view bytes) {
    seg_ = bytes.data();
    seg_end_ = size_ = bytes.size();
  }
  void seek();
  std::size_t packed_gap();
  const char* take_across(std::size_t len);

  template <typename T>
  T get_le() {
    return load_le<T>(take(sizeof(T)));
  }

  std::string owned_;  // empty when reading a caller's bytes in place
  const PackedPayload* packed_ = nullptr;
  std::size_t size_ = 0;
  std::size_t pos_ = 0;
  // The segment reads are served from: payload bytes [seg_at_, seg_end_)
  // stored from seg_ on. A flat payload is one segment; a packed one is a
  // kept run, or a stretch of a gap served from a shared zero block.
  const char* seg_ = nullptr;
  std::size_t seg_at_ = 0;
  std::size_t seg_end_ = 0;
  std::size_t run_ = 0;       // packed: first run ending after seg_at_
  std::size_t run_kept_ = 0;  // packed: where runs()[run_] starts in kept()
  std::string scratch_;       // packed: a read across a run's edge
  std::vector<std::pair<std::string, std::size_t>> chunk_stack_;  // tag, end
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
