// The simulated memory system: per-core split L1, a shared L2, the shared
// L1<->L2 bus, and a DRAM channel (parameters per Table I).
//
// The hierarchy is a latency calculator with resource reservation: accesses
// return their completion cycle, and shared resources (bus, MSHRs, DRAM
// channel) push completion times out under contention. Both L1 write
// policies are supported because the paper's §III-C.1 argument — and our
// reproduction of it — contrasts write-through (UnSync's requirement)
// against write-back.
#pragma once

#include <memory>
#include <vector>

#include <string>

#include "common/types.hpp"
#include "mem/bus.hpp"
#include "mem/cache.hpp"
#include "mem/config.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace unsync::mem {

struct MemAccessResult {
  Cycle done = 0;
  bool l1_hit = false;
  bool l2_hit = false;
};

class MemoryHierarchy {
 public:
  MemoryHierarchy(const MemConfig& config, unsigned num_cores);

  const MemConfig& config() const { return config_; }
  unsigned num_cores() const { return static_cast<unsigned>(l1d_.size()); }

  /// Data load by `core` issued at `now`.
  MemAccessResult load(CoreId core, Addr addr, Cycle now);

  /// Instruction fetch by `core` at `now` (read path through the split
  /// I-cache; misses contend for the same shared bus and L2).
  MemAccessResult ifetch(CoreId core, Addr addr, Cycle now);

  /// Store under a write-back L1: write-allocate; dirty-victim write-backs
  /// consume bus bandwidth.
  MemAccessResult store_writeback(CoreId core, Addr addr, Cycle now);

  /// Store under a write-through L1: updates the local L1 state only (the
  /// line is refreshed if present, never dirtied). The word itself must be
  /// propagated by the caller — via push_word_to_l2() — when its store
  /// buffer / Communication Buffer drains.
  Cycle store_writethrough_local(CoreId core, Addr addr, Cycle now);

  /// Pushes one store word to the L2 over the shared bus (write-through
  /// traffic / CB drain). Returns the completion cycle.
  Cycle push_word_to_l2(Addr addr, Cycle now);

  /// Installs every line of [base, base+bytes) into the L2 without charging
  /// simulated time — cache warmup before the measured region of interest.
  void prewarm_l2(Addr base, std::uint64_t bytes);

  /// Installs a code region into every core's I-cache (and the L2).
  void prewarm_icaches(Addr base, std::uint64_t bytes);

  Cache& l1(CoreId core) { return *l1d_.at(core); }
  const Cache& l1(CoreId core) const { return *l1d_.at(core); }
  Cache& icache(CoreId core) { return *l1i_.at(core); }
  const Cache& icache(CoreId core) const { return *l1i_.at(core); }
  Cache& l2() { return l2_; }
  const Cache& l2() const { return l2_; }
  Bus& bus() { return bus_; }
  const Bus& bus() const { return bus_; }
  Bus& dram_channel() { return dram_chan_; }

  /// Core id used in kBusTransaction records for shared traffic with no
  /// originating core (Communication-Buffer drains).
  static constexpr std::uint32_t kSharedCore = ~std::uint32_t{0};

  /// Attaches an event-trace gate; the hierarchy emits one
  /// kBusTransaction record per granted shared-bus transfer. Null sink =
  /// one branch per transfer.
  void set_tracer(const obs::Tracer* tracer) { tracer_ = tracer; }

  /// Re-integrates every cache tag array's ACE residency at `now` (one
  /// null-pointer branch per cache when no trackers are attached). The
  /// System layer calls this once when wiring AVF trackers so prewarmed
  /// occupancy is captured from cycle 0; per-access updates happen inline
  /// on the touched caches only.
  void avf_update_all(Cycle now) {
    for (auto& c : l1d_) c->avf_update(now);
    for (auto& c : l1i_) c->avf_update(now);
    l2_.avf_update(now);
  }

  /// Publishes cache / bus / DRAM-channel counters into `reg` under
  /// `prefix` (e.g. "unsync.mem"): per-core L1D/L1I, shared L2, buses.
  void publish_metrics(obs::MetricsRegistry& reg,
                       const std::string& prefix) const;

  /// Checkpoint walk: every cache (tags, LRU, stats, MSHRs) plus both
  /// buses. The hierarchy must be constructed with the same MemConfig and
  /// core count as the saved instance.
  void visit(ckpt::Archive& ar);

 private:
  /// L2 read reached at cycle `t` (after bus transfer); returns fill-ready
  /// cycle and whether it hit.
  std::pair<Cycle, bool> l2_read(Addr addr, Cycle t);
  void l2_write_state(Addr addr, Cycle t);
  /// Shared read path: L1 lookup, MSHR merge, bus transfer, L2 access.
  MemAccessResult read_through(CoreId core, Cache& l1, const CacheConfig& cfg,
                               Addr addr, Cycle now);
  /// Emits one kBusTransaction record (value: 0 = line fill, 1 = dirty
  /// victim write-back, 2 = store-word push).
  void emit_bus(Cycle grant, std::uint32_t core, Addr addr,
                std::uint64_t value) const;

  MemConfig config_;
  std::vector<std::unique_ptr<Cache>> l1d_;
  std::vector<std::unique_ptr<Cache>> l1i_;
  Cache l2_;
  Bus bus_;        // shared L1<->L2 interconnect
  Bus dram_chan_;  // memory channel behind the L2
  const obs::Tracer* tracer_ = nullptr;
};

}  // namespace unsync::mem
