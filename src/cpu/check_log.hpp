// Bounded leader→checker verification log (MEEK/DIVA-style heterogeneous
// redundancy, cf. paper §II's discussion of partial-redundancy checkers).
//
// The leading (big) core appends one entry per committed instruction whose
// result the trailing checker must reproduce: load values, branch outcomes
// and store address/data. The checker consumes entries strictly in order at
// its own commit stage and compares. The log is the ONLY coupling between
// the two cores — it plays the role the Communication Buffer plays for
// UnSync, and like the CB it is a real SRAM structure: bounded (a full log
// stalls the leader's commit stage), checkpointable, a fault-injection
// target (fault/injector.hpp kCheckLogEntry) and an ACE residency site.
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

namespace unsync::cpu {

/// What the entry carries for the checker to compare.
enum class CheckKind : std::uint8_t {
  kLoadValue = 0,      ///< load data forwarded to the checker
  kBranchOutcome = 1,  ///< resolved direction
  kStoreData = 2,      ///< store address + data, released on verification
};

struct CheckLogEntry {
  SeqNum seq = 0;      ///< committing instruction on the leader
  Addr addr = kNoAddr; ///< effective address (loads/stores)
  CheckKind kind = CheckKind::kLoadValue;
  bool taken = false;  ///< branch outcome payload
};

/// Bits one entry occupies (address + data word + tag/kind), used by the
/// ACE analysis to convert entry·cycles into bit·cycles.
inline constexpr std::uint64_t kCheckLogEntryBits = 160;

class CheckLog {
 public:
  explicit CheckLog(std::size_t capacity) : capacity_(capacity) {
    assert(capacity > 0);
  }

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  bool full() const { return entries_.size() >= capacity_; }

  /// Leader side: appends at commit; returns false (and changes nothing)
  /// when full — the leader's commit stage stalls.
  bool push(const CheckLogEntry& e) {
    if (full()) return false;
    entries_.push_back(e);
    peak_ = entries_.size() > peak_ ? entries_.size() : peak_;
    ++total_pushed_;
    return true;
  }

  /// Checker side: strictly in-order consumption.
  const CheckLogEntry& front() const {
    assert(!empty());
    return entries_.front();
  }
  void pop() {
    assert(!empty());
    entries_.pop_front();
  }

  /// Error recovery: the log between the verified watermark and the
  /// leader's head is unverified work — discarded wholesale on rollback.
  void clear() { entries_.clear(); }

  std::size_t peak_occupancy() const { return peak_; }
  std::uint64_t total_pushed() const { return total_pushed_; }

  /// ACE residency hook (fault/avf.hpp): every resident entry is
  /// architecturally critical until the checker consumes it (unverified
  /// stores have not reached memory; load values are the checker's inputs).
  /// The owning system calls avf_update(now) at its append/consume sites.
  void set_avf(fault::ResidencyTracker* avf) { avf_ = avf; }
  void avf_update(Cycle now) {
    if (avf_) avf_->set_live(now, entries_.size());
  }

  /// Checkpoint walk: entries plus occupancy counters. Capacity must match
  /// the saved instance. Defined in core_ckpt.cpp with the other cpu walks.
  void visit(ckpt::Archive& ar);

 private:
  std::size_t capacity_;
  std::deque<CheckLogEntry> entries_;
  std::size_t peak_ = 0;
  std::uint64_t total_pushed_ = 0;
  fault::ResidencyTracker* avf_ = nullptr;  // observability; not checkpointed
};

/// Publishes a check log's occupancy counters into `reg` under `prefix`
/// (e.g. "hetero.group0.log").
inline void publish_check_log(obs::MetricsRegistry& reg,
                              const std::string& prefix, const CheckLog& log) {
  reg.set_counter(prefix + ".capacity", log.capacity());
  reg.set_counter(prefix + ".peak_occupancy", log.peak_occupancy());
  reg.set_counter(prefix + ".total_pushed", log.total_pushed());
}

}  // namespace unsync::cpu
