// One state walk per component.
//
// A stateful component describes its state exactly once, in
// `void visit(ckpt::Archive&)`, and the archive decides what the walk does:
//
//   Save        — write every field to a Serializer;
//   Load        — read every field back from a Deserializer, rejecting a
//                 checkpoint whose ids / capacities / geometry differ from
//                 the restoring instance (expect) or whose element counts
//                 cannot fit in the bytes left (count);
//   Fingerprint — Save, minus the spans marked fault_channel(): the RNG
//                 words and arrival cursors that are the only difference
//                 between a faulty run and its fault-free golden run.
//   Core        — Fingerprint, minus the spans marked bulk(): the cache
//                 and TLB line arrays, nearly all of a system's bytes. The
//                 prefix engine hashes this small walk first and the full
//                 Fingerprint walk only when it matches.
//
// Because save, load and fingerprint are one walk, they cannot disagree: a
// field added to visit() is saved, restored and fingerprinted at once. The
// wire layout is the Serializer's (docs/CHECKPOINTS.md); the archive adds
// no bytes of its own.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "ckpt/serializer.hpp"
#include "common/rng.hpp"

namespace unsync::ckpt {

/// One state walk, run in Save, Load, Fingerprint or Core mode (see above).
class Archive {
 public:
  enum class Mode : std::uint8_t { kSave, kLoad, kFingerprint, kCore };

  /// Where one numeric scalar landed in the saved bytes (see
  /// record_scalars()).
  struct ScalarSite {
    std::size_t offset = 0;      ///< first byte in the Serializer's data
    bool fault_channel = false;  ///< inside a fault_channel() span
    bool bulk = false;           ///< inside a bulk() span
  };

  /// A Save (or Fingerprint, or Core) walk appending to `out`.
  explicit Archive(Serializer& out, Mode mode = Mode::kSave)
      : out_(&out), mode_(mode) {}
  /// A Load walk consuming `in`.
  explicit Archive(Deserializer& in) : in_(&in), mode_(Mode::kLoad) {}

  bool loading() const { return mode_ == Mode::kLoad; }

  /// Save mode only: logs the position of every numeric scalar written
  /// from here on into `sites` — how the mutation tests perturb the k-th
  /// field of a walk without knowing its layout.
  void record_scalars(std::vector<ScalarSite>* sites) { sites_ = sites; }

  // ---- Scalars: written from / read into the referenced field ----------

  void u8(std::uint8_t& v) {
    if (in_) {
      v = in_->u8();
    } else {
      note();
      out_->u8(v);
    }
  }
  void u32(std::uint32_t& v) {
    if (in_) {
      v = in_->u32();
    } else {
      note();
      out_->u32(v);
    }
  }
  void u64(std::uint64_t& v) {
    if (in_) {
      v = in_->u64();
    } else {
      note();
      out_->u64(v);
    }
  }
  void b(bool& v) {
    if (in_) {
      v = in_->b();
    } else {
      note();
      out_->b(v);
    }
  }
  void f64(double& v) {
    if (in_) {
      v = in_->f64();
    } else {
      note();
      out_->f64(v);
    }
  }
  /// A one-byte enum.
  template <typename E>
    requires std::is_enum_v<E>
  void u8(E& e) {
    auto v = static_cast<std::uint8_t>(e);
    u8(v);
    e = static_cast<E>(v);
  }
  void str(std::string& v) {
    if (in_) {
      v = in_->str();
    } else {
      out_->str(v);
    }
  }
  /// A fixed-length run of bytes whose size is the instance's geometry
  /// (a predictor table): the same wire bytes as one u8() per element,
  /// written and read as one block.
  void u8s(std::vector<std::uint8_t>& v) {
    if (in_) {
      in_->bytes(v.data(), v.size());
      return;
    }
    for (std::size_t i = 0; sites_ && i < v.size(); ++i) note(i);
    out_->bytes(v.data(), v.size());
  }
  /// A fixed-length run of records whose size is the instance's geometry
  /// (cache lines, TLB entries), each walked as the listed fields in
  /// order: the same wire bytes as one scalar call per field
  /// (little-endian, a bool as one byte), written and read as one block.
  template <typename T, typename... F>
  void records(std::vector<T>& v, F T::*... field) {
    static_assert(((std::is_same_v<F, bool> || std::is_unsigned_v<F>) && ...));
    constexpr std::size_t kWidth = (sizeof(F) + ...);
    if (in_) {
      const char* p = in_->take(v.size() * kWidth);
      for (T& r : v) ((p = get_field(p, r.*field)), ...);
      return;
    }
    for (std::size_t at = 0; sites_ && at < v.size() * kWidth;) {
      ((note(at), at += sizeof(F)), ...);
    }
    char* p = out_->extend(v.size() * kWidth);
    for (const T& r : v) ((p = put_field(p, r.*field)), ...);
  }
  /// The four xoshiro state words.
  void rng(Rng& r) {
    std::array<std::uint64_t, 4> words = r.state();
    for (std::uint64_t& w : words) u64(w);
    if (in_) r.set_state(words);
  }

  // ---- Structure -------------------------------------------------------

  /// A tagged, length-prefixed chunk around `fn`'s fields.
  template <typename Fn>
  void chunk(std::string_view tag, Fn&& fn) {
    if (in_) {
      in_->begin_chunk(tag);
      fn();
      in_->end_chunk();
    } else {
      out_->begin_chunk(tag);
      fn();
      out_->end_chunk();
    }
  }

  /// An identity field (id, capacity, geometry): save writes `value`, load
  /// returns the saved value for the caller to compare.
  std::uint64_t pinned(std::uint64_t value) {
    if (in_) return in_->u64();
    out_->u64(value);
    return value;
  }
  std::string pinned(const std::string& value) {
    if (in_) return in_->str();
    out_->str(value);
    return value;
  }

  /// An identity field the restoring instance must match: save writes
  /// `value`; load throws CkptError(what) if the saved one differs. The
  /// two overloads keep the wire width of the caller's type.
  void expect(std::uint64_t value, const char* what) {
    if (pinned(value) != value) throw CkptError(what);
  }
  void expect(std::uint32_t value, const char* what) {
    if (in_) {
      if (in_->u32() != value) throw CkptError(what);
    } else {
      out_->u32(value);
    }
  }

  /// An element count: save writes c.size(); load reads it and resizes
  /// `c`, after checking that the open chunk still holds at least one byte
  /// per element — a corrupt count fails here instead of allocating.
  template <typename C>
  void count(C& c) {
    if (!in_) {
      out_->u64(c.size());
      return;
    }
    const std::uint64_t n = in_->u64();
    const std::size_t left = in_->chunk_remaining();
    if (n > left) {
      throw CkptError("checkpoint element count " + std::to_string(n) +
                      " exceeds the " + std::to_string(left) +
                      " bytes left");
    }
    c.resize(n);
  }

  /// A counted sequence of u64s (a vector or deque of cycles, addresses,
  /// sequence numbers).
  template <typename C>
  void u64s(C& c) {
    count(c);
    for (std::uint64_t& v : c) u64(v);
  }

  /// The fault channel: walked by Save and Load, skipped by Fingerprint
  /// and Core.
  template <typename Fn>
  void fault_channel(Fn&& fn) {
    if (mode_ == Mode::kFingerprint || mode_ == Mode::kCore) return;
    ++fault_depth_;
    fn();
    --fault_depth_;
  }

  /// A line array: walked by every mode but Core.
  template <typename Fn>
  void bulk(Fn&& fn) {
    if (mode_ == Mode::kCore) return;
    ++bulk_depth_;
    fn();
    --bulk_depth_;
  }

 private:
  /// Logs a scalar `ahead` bytes past the end of the written data.
  void note(std::size_t ahead = 0) {
    if (sites_) {
      sites_->push_back(
          {out_->data().size() + ahead, fault_depth_ > 0, bulk_depth_ > 0});
    }
  }

  template <typename T>
  static char* put_field(char* p, T v) {
    if constexpr (std::is_same_v<T, bool>) {
      *p = v ? 1 : 0;
    } else {
      store_le(p, v);
    }
    return p + sizeof(T);
  }
  template <typename T>
  static const char* get_field(const char* p, T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      v = *p != 0;
    } else {
      v = load_le<T>(p);
    }
    return p + sizeof(T);
  }

  Serializer* out_ = nullptr;
  Deserializer* in_ = nullptr;
  const Mode mode_;
  unsigned fault_depth_ = 0;
  unsigned bulk_depth_ = 0;
  std::vector<ScalarSite>* sites_ = nullptr;
};

}  // namespace unsync::ckpt
