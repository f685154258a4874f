// Non-coalescing FIFO write buffer.
//
// Used in two roles: the baseline/Reunion post-commit store buffer, and the
// storage substrate of the UnSync Communication Buffer (the CB adds its
// pairwise drain protocol on top, in src/core/unsync.cpp). Non-coalescing is
// a paper requirement (§III-A): each CB entry is an individual store tagged
// with its instruction, so redundant copies can be matched one-to-one.
#pragma once

#include <cassert>
#include <cstdint>
#include <deque>
#include <string>

#include "common/types.hpp"
#include "fault/avf.hpp"
#include "obs/metrics.hpp"

namespace unsync::ckpt {
class Archive;
}  // namespace unsync::ckpt

namespace unsync::mem {

struct WriteBufferEntry {
  Addr addr = 0;
  SeqNum seq = 0;    ///< committing instruction's sequence number
  Cycle ready = 0;   ///< cycle at which the entry became visible
};

class WriteBuffer {
 public:
  explicit WriteBuffer(std::size_t capacity) : capacity_(capacity) {
    assert(capacity > 0);
  }

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  bool full() const { return entries_.size() >= capacity_; }

  /// Appends a store; returns false (and changes nothing) when full.
  bool push(Addr addr, SeqNum seq, Cycle ready) {
    if (full()) return false;
    entries_.push_back({addr, seq, ready});
    peak_ = entries_.size() > peak_ ? entries_.size() : peak_;
    ++total_pushed_;
    return true;
  }

  const WriteBufferEntry& front() const {
    assert(!empty());
    return entries_.front();
  }

  void pop() {
    assert(!empty());
    entries_.pop_front();
  }

  /// Indexed access in FIFO order (CB drain-frontier matching).
  const WriteBufferEntry& at(std::size_t i) const { return entries_.at(i); }

  void clear() { entries_.clear(); }

  /// Replaces this buffer's contents with another's (UnSync recovery step 5:
  /// "the content of the CB, corresponding to the erroneous core, is
  /// overwritten by data from the error-free core").
  void copy_from(const WriteBuffer& other) {
    entries_ = other.entries_;
  }

  std::size_t peak_occupancy() const { return peak_; }
  std::uint64_t total_pushed() const { return total_pushed_; }

  /// ACE residency hook (fault/avf.hpp): integrates occupancy over cycles.
  /// push/pop/copy_from take no cycle argument, so the owning system calls
  /// avf_update(now) at its commit/drain/recovery sites. Observation only.
  void set_avf(fault::ResidencyTracker* avf) { avf_ = avf; }
  void avf_update(Cycle now) {
    if (avf_) avf_->set_live(now, entries_.size());
  }

  /// Checkpoint walk: entries plus occupancy counters. Capacity must match
  /// the saved instance. Defined in mem_ckpt.cpp with the other mem walks.
  void visit(ckpt::Archive& ar);

 private:
  std::size_t capacity_;
  std::deque<WriteBufferEntry> entries_;
  std::size_t peak_ = 0;
  std::uint64_t total_pushed_ = 0;
  fault::ResidencyTracker* avf_ = nullptr;  // observability; not checkpointed
};

/// Publishes a write buffer's occupancy counters into `reg` under `prefix`
/// (e.g. "unsync.group0.cb0").
inline void publish_write_buffer(obs::MetricsRegistry& reg,
                                 const std::string& prefix,
                                 const WriteBuffer& wb) {
  reg.set_counter(prefix + ".capacity", wb.capacity());
  reg.set_counter(prefix + ".peak_occupancy", wb.peak_occupancy());
  reg.set_counter(prefix + ".total_pushed", wb.total_pushed());
}

}  // namespace unsync::mem
