// Out-of-order core timing model.
//
// A cycle-stepped model of a 4-wide out-of-order core (Table I): fetch
// queue, ROB, issue queue with oldest-first select, split load/store queue
// with store-to-load forwarding, functional-unit pools, gshare branch
// prediction, and serializing-instruction drain semantics.
//
// The issue stage is wakeup-driven and does no per-cycle ROB walks. The
// ROB is a ring whose sequence numbers are contiguous, so a producer's
// completion is one indexed lookup (in_flight). An instruction waiting on
// an unissued producer is parked on it and woken when it issues; one whose
// producers have all issued waits on a timer for the cycle its sources are
// ready; only instructions whose sources are ready are tried, oldest
// first. Each load resolves its forwarding store once at dispatch, and the
// in-flight serializing instructions form a FIFO, so the LSQ and fence
// checks are O(1).
//
// The model is trace/stream-driven: it consumes retired-order DynOps, so
// wrong-path work is modelled as fetch bubbles (the front end stalls from
// the fetch of a mispredicted branch until it resolves plus the refill
// penalty) rather than by simulating wrong-path instructions. This is the
// standard trace-driven treatment and captures the first-order cost.
//
// The redundancy architectures (src/core) hook the commit stage through
// CommitEnv: gating commit (Reunion fingerprint verification), intercepting
// stores (CB / store buffer), and reserving ROB slots for
// committed-but-unverified instructions (Reunion CHECK-stage pressure).
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cstdint>
#include <deque>
#include <memory>
#include <utility>
#include <vector>

#include "common/stats.hpp"
#include "common/types.hpp"
#include "cpu/bpred.hpp"
#include "cpu/core_config.hpp"
#include "mem/hierarchy.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "workload/dyn_op.hpp"

namespace unsync::cpu {

/// Commit-stage hooks supplied by the system wrapper (baseline / UnSync /
/// Reunion). Default implementations are pass-through.
class CommitEnv {
 public:
  virtual ~CommitEnv() = default;

  /// May `op` commit at `now`? Returning false stalls the commit stage.
  virtual bool can_commit(CoreId core, const workload::DynOp& op, Cycle now) {
    (void)core; (void)op; (void)now;
    return true;
  }

  /// A store is leaving the core at commit. Return false to reject it
  /// (downstream buffer full) — the commit stage stalls and retries.
  virtual bool on_store_commit(CoreId core, const workload::DynOp& op,
                               Cycle now) {
    (void)core; (void)op; (void)now;
    return true;
  }

  /// Called once per committed instruction (after acceptance).
  virtual void on_commit(CoreId core, const workload::DynOp& op, Cycle now) {
    (void)core; (void)op; (void)now;
  }

  /// ROB slots currently held by already-committed instructions (Reunion:
  /// committed but fingerprint-unverified). Shrinks effective ROB capacity.
  virtual std::uint32_t reserved_rob_slots(CoreId core, Cycle now) {
    (void)core; (void)now;
    return 0;
  }

  /// Side-effect-free view of reserved_rob_slots for fast-forward planning:
  /// must return the value reserved_rob_slots(core, now) WOULD return,
  /// without mutating any environment state. Used by OooCore::next_event.
  virtual std::uint32_t reserved_rob_slots_at(CoreId core, Cycle now) const {
    (void)core; (void)now;
    return 0;
  }

  /// The next cycle > now at which this environment's reserved_rob_slots
  /// value can change without any core acting (Reunion: the earliest
  /// pending fingerprint verification). Bounds ROB-stalled fast-forward
  /// windows; ~Cycle{0} = never.
  virtual Cycle next_state_change(CoreId core, Cycle now) const {
    (void)core; (void)now;
    return ~Cycle{0};
  }
};

struct CoreStats {
  Cycle cycles = 0;
  std::uint64_t committed = 0;
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
  std::uint64_t branches = 0;
  std::uint64_t mispredicts = 0;
  std::uint64_t serializing = 0;

  // Stall / pressure accounting (cycle-granularity event counts).
  std::uint64_t commit_stall_store = 0;   ///< store rejected downstream
  std::uint64_t commit_stall_gate = 0;    ///< CommitEnv::can_commit == false
  std::uint64_t dispatch_stall_rob = 0;
  std::uint64_t dispatch_stall_iq = 0;
  std::uint64_t dispatch_stall_lsq = 0;
  std::uint64_t fetch_blocked_branch = 0;
  std::uint64_t fetch_blocked_serialize = 0;
  std::uint64_t fetch_blocked_icache = 0;
  std::uint64_t itlb_misses = 0;
  std::uint64_t dtlb_misses = 0;
  std::uint64_t recovery_stall_cycles = 0;  ///< externally injected stalls

  std::uint64_t rob_occupancy_accum = 0;  ///< sum over cycles (avg = /cycles)

  /// Committed-instruction counts sampled every CoreConfig::sample_interval
  /// cycles (empty when sampling is off). Interval IPC between samples i-1
  /// and i is (c[i]-c[i-1]) / interval.
  std::vector<std::uint64_t> interval_committed;

  double ipc() const {
    return cycles ? static_cast<double>(committed) / static_cast<double>(cycles)
                  : 0.0;
  }
  double avg_rob_occupancy() const {
    return cycles ? static_cast<double>(rob_occupancy_accum) /
                        static_cast<double>(cycles)
                  : 0.0;
  }

  /// Checkpoint walk over every field, including the interval-IPC samples.
  /// Also how the engine persists RunResult::core_stats.
  void visit(ckpt::Archive& ar);
};

class OooCore {
 public:
  OooCore(CoreId id, const CoreConfig& config, mem::MemoryHierarchy* memory,
          std::unique_ptr<workload::InstStream> stream,
          CommitEnv* env = nullptr);

  CoreId id() const { return id_; }
  const CoreConfig& config() const { return config_; }

  /// Advances the core by one clock cycle.
  void tick(Cycle now);

  /// Quiescence fast-forwarding (docs/ENGINE.md): a conservative lower
  /// bound on the next cycle at which this core can change state.
  /// Returning `now` vetoes skipping — some stage may act this cycle.
  /// Returning T > now guarantees every tick in [now, T) is static: no
  /// commit, issue, dispatch or fetch occurs, and the only effects are the
  /// deterministic per-cycle counters that skip_cycles() replays.
  Cycle next_event(Cycle now) const;

  /// Replays the per-cycle bookkeeping of the static window [from, to)
  /// that next_event() promised, in closed form: cycle/occupancy counters,
  /// ROB-histogram samples, interval-IPC samples and the one stall counter
  /// the window's stable stall reason increments. Bit-identical to calling
  /// tick() to-from times across a static window.
  void skip_cycles(Cycle from, Cycle to);

  /// True when the stream is exhausted and the pipeline has drained.
  bool done() const;

  /// Number of instructions architecturally committed so far.
  SeqNum retired() const { return stats_.committed; }

  /// Externally freezes the core (error recovery): no pipeline activity
  /// until `cycle`. Repeated calls keep the later deadline.
  void stall_until(Cycle cycle);

  /// Flushes all in-flight (uncommitted) work — recovery step 2, "the
  /// pipeline of the erroneous core is flushed".
  void flush_pipeline();

  /// Repositions the architectural stream cursor so the next instruction to
  /// enter the pipeline is `seq` (UnSync recovery: both cores resume from
  /// the error-free core's position, the slower core is forwarded, a
  /// faster erroneous core re-traces). Implies flush_pipeline().
  void set_position(SeqNum seq);

  const CoreStats& stats() const { return stats_; }
  std::uint32_t rob_occupancy() const {
    return static_cast<std::uint32_t>(rob_.size());
  }

  /// When in-flight instruction `seq` completes: ~Cycle{0} while it waits
  /// to issue, or when it is not in the ROB (committed, not yet
  /// dispatched, or flushed). Pipeline introspection for tests.
  Cycle completion_at(SeqNum seq) const {
    const RobEntry* e = in_flight(seq);
    return e ? e->complete_at : kNever;
  }

  /// Attaches an event-trace gate. The core emits kFetch and kCommit
  /// records through it; a gate with no sink costs one branch per event
  /// site, so leaving this attached permanently is free.
  void set_tracer(const obs::Tracer* tracer) { tracer_ = tracer; }

  /// Attaches a per-cycle ROB-occupancy histogram (the Figure 5 metric).
  /// Sampling is one Histogram::add per cycle while attached; pass nullptr
  /// to detach.
  void set_rob_histogram(Histogram* hist) { rob_hist_ = hist; }

  /// Attaches ACE residency trackers (fault/avf.hpp) to the core's TLBs;
  /// valid-entry occupancy is integrated at each translation site. Like the
  /// tracer, detached trackers cost one branch per site.
  void set_tlb_avf(fault::ResidencyTracker* itlb, fault::ResidencyTracker* dtlb) {
    itlb_.set_avf(itlb);
    dtlb_.set_avf(dtlb);
  }

  const mem::Tlb& itlb() const { return itlb_; }
  const mem::Tlb& dtlb() const { return dtlb_; }

  GsharePredictor& predictor() { return bpred_; }

  /// Checkpoint walk: the complete per-core mutable state — fetch queue,
  /// ROB (followed by its derived completion pairs), predictor, TLBs, FU
  /// reservations, front-end cursor (including the stream's own state),
  /// LSQ occupancy, the committed-store forwarding window, and statistics.
  /// Loading requires a core constructed with the same id, config and
  /// stream identity, and rebuilds the derived issue, store and fence
  /// structures from the loaded ROB. Observability attachments are not
  /// part of the state.
  void visit(ckpt::Archive& ar);

 private:
  static constexpr Cycle kNever = ~Cycle{0};

  /// A FIFO over power-of-two storage of fixed capacity.
  template <typename T>
  class Ring {
   public:
    explicit Ring(std::size_t min_capacity)
        : slots_(std::bit_ceil(std::max<std::size_t>(min_capacity, 1))),
          mask_(slots_.size() - 1) {}

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    std::size_t capacity() const { return slots_.size(); }
    /// The i-th oldest element; i < size().
    T& operator[](std::size_t i) { return slots_[(head_ + i) & mask_]; }
    const T& operator[](std::size_t i) const {
      return slots_[(head_ + i) & mask_];
    }
    T& front() { return (*this)[0]; }
    const T& front() const { return (*this)[0]; }
    T& back() { return (*this)[size_ - 1]; }
    void push_back(const T& v) {
      assert(size_ < slots_.size());
      slots_[(head_ + size_++) & mask_] = v;
    }
    void pop_front() {
      assert(size_ > 0);
      head_ = (head_ + 1) & mask_;
      --size_;
    }
    void clear() { head_ = size_ = 0; }
    /// Makes the ring hold `n` <= capacity() elements, oldest in slot 0,
    /// for the caller to overwrite.
    void resize(std::size_t n) {
      assert(n <= slots_.size());
      head_ = 0;
      size_ = n;
    }

   private:
    std::vector<T> slots_;
    std::size_t mask_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
  };

  struct RobEntry {
    workload::DynOp op;
    bool in_iq = true;      // waiting to issue
    bool issued = false;
    Cycle complete_at = kNever;
    bool mispredicted = false;  // resolved at dispatch (hint or predictor)

    // Derived (set at dispatch and issue, rebuilt on load), not walked:
    /// Loads: the youngest older store to the same word at dispatch.
    SeqNum fwd_store = kNoSeq;
    /// Entries parked on this unissued one, linked through next_waiter.
    SeqNum waiters = kNoSeq;
    SeqNum next_waiter = kNoSeq;
  };

  /// An issue-queue entry whose producers have all issued, keyed by the
  /// cycle its sources are ready. A producer's complete_at never changes
  /// after issue, so the key is exact.
  struct Timer {
    Cycle ready;
    SeqNum seq;
    bool operator>(const Timer& o) const { return ready > o.ready; }
  };

  /// One in-flight store: its seq and the word it writes.
  struct StoreRef {
    SeqNum seq = kNoSeq;
    Addr word = 0;
  };

  enum FuKind : std::uint8_t {
    kFuIntAlu, kFuIntMul, kFuIntDiv, kFuFpAlu, kFuFpMul, kFuFpDiv, kFuMem,
    kFuNone,
  };

  struct FuPool {
    FuPoolConfig cfg;
    std::vector<Cycle> next_free;
  };

  void do_commit(Cycle now);
  void do_issue(Cycle now);
  /// Issues `e`, whose sources are ready, at `now` if the LSQ/fence rules
  /// and a unit allow; `full_pools` collects the pools found busy this
  /// cycle.
  bool try_issue(RobEntry& e, Cycle now, std::uint32_t* full_pools);
  /// next_event's view of an entry whose sources are ready: `now` =
  /// do_issue would attempt it (veto), kNever = it waits on an event
  /// next_event already covers, otherwise the cycle its blocker clears.
  Cycle issue_bound(const RobEntry& e, Cycle now) const;
  void do_dispatch(Cycle now);
  void do_fetch(Cycle now);

  /// The ROB entry holding `seq`, or nullptr when `seq` is not in flight.
  /// The one seq -> entry lookup: bounds- and tag-checked, so a corrupt
  /// checkpoint cannot index outside the ring.
  const RobEntry* in_flight(SeqNum seq) const {
    if (rob_.empty()) return nullptr;
    const SeqNum offset = seq - rob_.front().op.seq;
    if (offset >= rob_.size()) return nullptr;
    const RobEntry& e = rob_[offset];
    return e.op.seq == seq ? &e : nullptr;
  }
  RobEntry* in_flight(SeqNum seq) {
    return const_cast<RobEntry*>(std::as_const(*this).in_flight(seq));
  }

  /// Adds a dispatched entry to the derived structures.
  void track(RobEntry& e);
  /// Rebuilds the issue structures, store list and fence FIFO from the
  /// ROB.
  void rebuild_derived();

  /// Files waiting entry `e` by its sources: parked on an unissued
  /// producer, or timed for the cycle its sources are ready.
  void wait_for_sources(RobEntry& e);
  /// Re-files the entries parked on `producer`, which just issued.
  void wake_waiters(RobEntry& producer);
  /// Moves the timed entries ready by `cycle` to ready_.
  void promote(Cycle cycle);
  /// True when a serializing instruction older than `seq` is in flight.
  bool fenced(SeqNum seq) const {
    return !fences_.empty() && fences_.front() < seq;
  }

  static FuKind pool_for(isa::InstClass cls);
  /// Reserves a free unit of `pool` at `now` and sets *complete_at;
  /// false when every unit is busy.
  bool try_fu(FuPool& pool, Cycle now, Cycle* complete_at);

  bool lsq_load_can_issue(const RobEntry& e, Cycle now, bool* forwarded) const;

  CoreId id_;
  CoreConfig config_;
  mem::MemoryHierarchy* memory_;
  std::unique_ptr<workload::InstStream> stream_;
  CommitEnv* env_;
  CommitEnv default_env_;

  Ring<workload::DynOp> fetch_queue_;
  /// Contiguous seqs [front().op.seq, front().op.seq + size()).
  Ring<RobEntry> rob_;

  // Derived from the ROB (rebuilt on load, cleared on flush). Every
  // waiting entry is in exactly one place: parked on a producer, in
  // timers_, or in ready_.
  std::vector<SeqNum> ready_;  ///< sources ready, oldest first
  std::vector<Timer> timers_;  ///< min-heap on Timer::ready
  Ring<StoreRef> stores_;      ///< in-flight stores, oldest first
  Ring<SeqNum> fences_;        ///< in-flight serializing, oldest first

  GsharePredictor bpred_;
  mem::Tlb itlb_;
  mem::Tlb dtlb_;

  std::array<FuPool, kFuNone> fu_;

  // Front-end state.
  bool stream_done_ = false;
  SeqNum fetch_blocked_on_ = kNoSeq;  // branch seq gating fetch
  Cycle fetch_resume_at_ = 0;
  bool pending_stream_op_valid_ = false;
  workload::DynOp pending_stream_op_{};

  // In-flight queue occupancy.
  std::uint32_t iq_count_ = 0;
  std::uint32_t lq_count_ = 0;
  std::uint32_t sq_count_ = 0;

  /// Post-commit store buffer view: recently committed store words still
  /// capable of forwarding to younger loads (the data has left the ROB but
  /// not necessarily reached the cache).
  std::deque<Addr> committed_store_words_;

  Cycle frozen_until_ = 0;
  Cycle next_sample_ = 0;
  CoreStats stats_;

  // Observability (both optional; null = off, one branch per site).
  const obs::Tracer* tracer_ = nullptr;
  Histogram* rob_hist_ = nullptr;
};

/// Publishes one core's counters and gauges into `reg` under `prefix`
/// (e.g. "unsync.group0.core1"): the registry-side view of CoreStats.
void publish_core_stats(obs::MetricsRegistry& reg, const std::string& prefix,
                        const CoreStats& stats);

}  // namespace unsync::cpu
