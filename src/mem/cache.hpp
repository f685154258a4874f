// Set-associative cache tag array with LRU replacement, plus an MSHR file.
//
// The timing model is a latency calculator: callers present an address and
// the current cycle; the cache reports hit/miss, manages line state
// (valid/dirty), and the MSHR file bounds outstanding misses and merges
// secondary misses to an in-flight line. Data values are not stored — data
// correctness is the functional simulator's concern; this class models
// *time and state*, which is what the paper's experiments measure.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include "common/types.hpp"
#include "fault/avf.hpp"
#include "mem/config.hpp"

namespace unsync::ckpt {
class Archive;
}  // namespace unsync::ckpt

namespace unsync::mem {

/// Outstanding-miss registers. Bounds miss-level parallelism and merges
/// repeat misses to the same line onto the existing in-flight entry.
class MshrFile {
 public:
  explicit MshrFile(std::uint32_t entries) : entries_(entries) {}

  /// If `line_addr` already has an in-flight miss, returns its completion
  /// cycle (secondary miss: no new request needed).
  std::optional<Cycle> in_flight(Addr line_addr, Cycle now) const;

  /// Earliest cycle at or after `now` at which a free MSHR exists.
  Cycle first_free(Cycle now) const;

  /// Registers a new miss that completes at `done`. Caller must have
  /// ensured a free entry via first_free().
  void allocate(Addr line_addr, Cycle now, Cycle done);

  /// ACE residency hook (fault/avf.hpp): each allocated MSHR is charged its
  /// lifetime [now, done) as entry-cycles. Observation only; null detaches.
  void set_avf(fault::ResidencyTracker* avf) { avf_ = avf; }

  std::uint32_t capacity() const { return entries_; }
  std::uint32_t occupancy(Cycle now) const;

  /// Cycles callers spent blocked on a full MSHR file (stat).
  Cycle stall_cycles() const { return stall_cycles_; }
  void add_stall(Cycle c) { stall_cycles_ += c; }

  void reset() { misses_.clear(); stall_cycles_ = 0; }

  /// Checkpoint walk (in-flight misses including lazily-expired entries,
  /// stall counter). Capacity must match the saved instance.
  void visit(ckpt::Archive& ar);

 private:
  struct Entry {
    Addr line_addr;
    Cycle done;
  };
  std::uint32_t entries_;
  mutable std::vector<Entry> misses_;  // expired entries pruned lazily
  Cycle stall_cycles_ = 0;
  fault::ResidencyTracker* avf_ = nullptr;  // observability; not checkpointed

  void prune(Cycle now) const;
};

/// Result of a tag-array lookup-and-update.
struct LookupResult {
  bool hit = false;
  /// On insert with eviction of a dirty line: its line address (needs a
  /// write-back to the next level).
  std::optional<Addr> dirty_victim;
};

/// Tag array of a set-associative cache with LRU replacement.
///
/// Each set keeps a count of the ways in use: ways [used, assoc) read as
/// all-zero lines (tag 0, invalid, clean, lru 0), and their storage is not
/// read until a fill claims one and zeroes it. Building a cache — a 4 MiB
/// L2 is 65,536 lines — costs what a job touches, not the capacity, and so
/// do checkpoint walks: save and fingerprint write only the ways in use,
/// and a load sets each set's count to 1 + its last non-zero way in the
/// saved bytes, so a restored cache keeps scanning only the ways it uses.
class Cache {
 public:
  /// Throws std::invalid_argument unless the set count and line size are
  /// powers of two and 1 <= assoc <= max_assoc().
  explicit Cache(const CacheConfig& config);

  /// The largest associativity the per-set in-use count can hold.
  static constexpr std::uint32_t max_assoc() {
    return std::numeric_limits<WayCount>::max();
  }

  const CacheConfig& config() const { return config_; }

  Addr line_addr(Addr addr) const { return addr & ~Addr{config_.line_bytes - 1}; }

  /// Probe without side effects.
  bool contains(Addr addr) const;
  bool line_dirty(Addr addr) const;

  /// Access for a read: on hit updates LRU; on miss inserts the line
  /// (evicting LRU) and reports any dirty victim.
  LookupResult access_read(Addr addr);

  /// Access for a write. Under write-back, a hit (or allocated miss) marks
  /// the line dirty. Under write-through the line is never marked dirty and
  /// a write miss does not allocate (no-write-allocate, the conventional
  /// pairing the paper's write-through L1 uses).
  LookupResult access_write(Addr addr);

  /// Reads every line of [base, base + bytes) in, as access_read() would
  /// (pre-warming: same LRU stamps, counters and victims).
  void prewarm(Addr base, std::uint64_t bytes);

  /// Invalidates a single line (returns true if it was present).
  bool invalidate(Addr addr);
  /// Invalidates everything (recovery: "invalidate both the cache lines").
  void invalidate_all();

  std::uint64_t lines_valid() const { return valid_count_; }
  std::uint64_t lines_dirty() const;

  /// Tag-array bits held per valid line: the tag itself plus valid+dirty
  /// state (the strike surface of a tag-array upset — an LRU flip only
  /// perturbs replacement, never correctness).
  std::uint32_t tag_entry_bits() const {
    return 64 - line_shift_ - set_shift_ + 2;
  }

  /// ACE residency hooks (fault/avf.hpp): integrate the valid-line count
  /// over cycles for the tag array and (where wired — the shared L2) the
  /// data array, whose per-entry bits are line_bytes*8. Call after any
  /// access/invalidate with the current cycle; observation only, null
  /// trackers = one branch each.
  void set_avf(fault::ResidencyTracker* avf) { avf_ = avf; }
  void set_data_avf(fault::ResidencyTracker* avf) { data_avf_ = avf; }
  void avf_update(Cycle now) {
    if (avf_) avf_->set_live(now, valid_count_);
    if (data_avf_) data_avf_->set_live(now, valid_count_);
  }

  // Statistics.
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::uint64_t writebacks() const { return writebacks_; }
  double miss_rate() const;

  MshrFile& mshrs() { return mshrs_; }
  const MshrFile& mshrs() const { return mshrs_; }

  /// Checkpoint walk: tag array, LRU clock, statistics and the MSHR file.
  /// Geometry (sets/assoc/line size) must match the saved instance.
  void visit(ckpt::Archive& ar);

 private:
  using WayCount = std::uint8_t;

  /// No member initialisers: the line array is allocated unwritten (see
  /// DefaultInit), and `Line{}` is the all-zero line of an unused way.
  struct Line {
    Addr tag;
    bool valid;
    bool dirty;
    std::uint64_t lru;  // smaller = older
  };

  /// Allocator whose no-argument construct() default-initialises, so a
  /// sized vector of Lines is allocated without being written.
  template <typename T>
  struct DefaultInit : std::allocator<T> {
    template <typename U>
    void construct(U* p) {
      ::new (static_cast<void*>(p)) U;
    }
  };

  std::size_t set_index(Addr addr) const;
  Addr tag_of(Addr addr) const;
  LookupResult lookup(Addr addr, bool is_write);

  CacheConfig config_;
  // Hot-path shift/mask forms of the power-of-two geometry: lookup() runs
  // once per simulated memory access, so the divisions in set_index/tag_of
  // are folded into one shift each.
  unsigned line_shift_ = 0;  // log2(line_bytes)
  unsigned set_shift_ = 0;   // log2(num_sets)
  Addr set_mask_ = 0;        // num_sets - 1
  std::vector<Line, DefaultInit<Line>> lines_;  // sets * assoc, by set
  std::vector<WayCount> used_;  // per set: ways [0, used) are in use
  std::uint64_t lru_clock_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t writebacks_ = 0;
  std::uint64_t valid_count_ = 0;  // incremental lines_valid()
  MshrFile mshrs_;
  // Observability; not checkpointed.
  fault::ResidencyTracker* avf_ = nullptr;
  fault::ResidencyTracker* data_avf_ = nullptr;
};

}  // namespace unsync::mem
