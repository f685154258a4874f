// Translation lookaside buffer (Table I: 48-entry 2-way I-TLB, 64-entry
// 2-way D-TLB).
//
// Set-associative with LRU, 4 KiB pages. Unlike the Cache class, set counts
// need not be powers of two (48 entries / 2-way = 24 sets), so indexing is
// modulo. A miss costs the core a fixed page-walk latency; the TLB is also
// one of the parity-protected storage structures of the UnSync plan.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "fault/avf.hpp"

namespace unsync::ckpt {
class Archive;
}  // namespace unsync::ckpt

namespace unsync::mem {

struct TlbConfig {
  std::uint32_t entries = 64;
  std::uint32_t assoc = 2;
  std::uint32_t page_bits = 12;  // 4 KiB pages
};

class Tlb {
 public:
  explicit Tlb(const TlbConfig& config);

  const TlbConfig& config() const { return config_; }

  /// Translates the page of `addr`: returns true on hit; on miss the entry
  /// is installed (the walk result) and false is returned.
  bool access(Addr addr);

  /// Probe without side effects.
  bool contains(Addr addr) const;

  void flush();

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  double miss_rate() const {
    const auto total = hits_ + misses_;
    return total ? static_cast<double>(misses_) / static_cast<double>(total)
                 : 0.0;
  }

  std::uint64_t valid_count() const { return valid_count_; }

  /// ACE residency hook (fault/avf.hpp): integrates the valid-entry count
  /// over cycles. access() takes no cycle argument, so the owning core
  /// calls avf_update(now) at each translation site. Observation only.
  void set_avf(fault::ResidencyTracker* avf) { avf_ = avf; }
  void avf_update(Cycle now) {
    if (avf_) avf_->set_live(now, valid_count_);
  }

  /// Checkpoint walk over all mutable state (entries, LRU clock, hit/miss
  /// counters). Geometry must match the saved instance.
  void visit(ckpt::Archive& ar);

 private:
  struct Entry {
    Addr vpn = 0;
    bool valid = false;
    std::uint64_t lru = 0;
  };

  Addr vpn_of(Addr addr) const { return addr >> config_.page_bits; }
  std::size_t set_of(Addr vpn) const {
    return static_cast<std::size_t>(vpn % num_sets_);
  }

  TlbConfig config_;
  std::uint32_t num_sets_;
  std::vector<Entry> entries_;
  std::uint64_t clock_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t valid_count_ = 0;  // incremental count of valid entries
  fault::ResidencyTracker* avf_ = nullptr;  // observability; not checkpointed
};

}  // namespace unsync::mem
