#include "cpu/ooo_core.hpp"

#include <algorithm>
#include <cassert>
#include <functional>
#include <utility>

namespace unsync::cpu {

namespace {
Addr word_of(Addr addr) { return addr & ~Addr{7}; }
}  // namespace

OooCore::OooCore(CoreId id, const CoreConfig& config,
                 mem::MemoryHierarchy* memory,
                 std::unique_ptr<workload::InstStream> stream, CommitEnv* env)
    : id_(id),
      config_(config),
      memory_(memory),
      stream_(std::move(stream)),
      env_(env ? env : &default_env_),
      fetch_queue_(config.fetch_queue_entries),
      rob_(config.rob_entries),
      stores_(config.rob_entries),
      fences_(config.rob_entries),
      itlb_(config.itlb),
      dtlb_(config.dtlb),
      fu_{{{config.int_alu, {}},
           {config.int_mul, {}},
           {config.int_div, {}},
           {config.fp_alu, {}},
           {config.fp_mul, {}},
           {config.fp_div, {}},
           {config.mem_port, {}}}} {
  assert(memory_ != nullptr);
  assert(stream_ != nullptr);
  for (FuPool& p : fu_) p.next_free.assign(p.cfg.count, 0);
  ready_.reserve(config.iq_entries);
  timers_.reserve(config.iq_entries);
}

bool OooCore::done() const {
  return stream_done_ && !pending_stream_op_valid_ && fetch_queue_.empty() &&
         rob_.empty();
}

void OooCore::stall_until(Cycle cycle) {
  frozen_until_ = std::max(frozen_until_, cycle);
}

void OooCore::flush_pipeline() {
  const SeqNum resume = stats_.committed;
  fetch_queue_.clear();
  rob_.clear();
  ready_.clear();
  timers_.clear();
  stores_.clear();
  fences_.clear();
  committed_store_words_.clear();
  iq_count_ = lq_count_ = sq_count_ = 0;
  fetch_blocked_on_ = kNoSeq;
  pending_stream_op_valid_ = false;
  // Reposition the stream cursor at the oldest uncommitted instruction.
  stream_done_ = !stream_->seek(resume);
}

void OooCore::set_position(SeqNum seq) {
  stats_.committed = seq;
  flush_pipeline();
}

OooCore::FuKind OooCore::pool_for(isa::InstClass cls) {
  using isa::InstClass;
  switch (cls) {
    case InstClass::kIntAlu:
    case InstClass::kBranch:
      return kFuIntAlu;
    case InstClass::kIntMul: return kFuIntMul;
    case InstClass::kIntDiv: return kFuIntDiv;
    case InstClass::kFpAlu: return kFuFpAlu;
    case InstClass::kFpMul: return kFuFpMul;
    case InstClass::kFpDiv: return kFuFpDiv;
    case InstClass::kLoad:
    case InstClass::kStore:
      return kFuMem;
    case InstClass::kSerializing:
    case InstClass::kHalt:
      break;  // no functional unit needed
  }
  return kFuNone;
}

bool OooCore::try_fu(FuPool& pool, Cycle now, Cycle* complete_at) {
  for (auto& free_at : pool.next_free) {
    if (free_at <= now) {
      free_at = pool.cfg.pipelined ? now + 1 : now + pool.cfg.latency;
      *complete_at = now + pool.cfg.latency;
      return true;
    }
  }
  return false;
}

void OooCore::track(RobEntry& e, Cycle ready_by) {
  if (e.in_iq) wait_for_sources(e, ready_by);
  if (e.op.is_load()) {
    // Older entries leave the ROB only by in-order commit, so once this
    // store has committed every older store has too: the match resolved
    // now stays the youngest older same-word store for the load's life.
    const Addr word = word_of(e.op.mem_addr);
    for (std::size_t i = stores_.size(); i-- > 0;) {
      if (stores_[i].word == word) {
        e.fwd_store = stores_[i].seq;
        break;
      }
    }
  } else if (e.op.is_store()) {
    stores_.push_back({e.op.seq, word_of(e.op.mem_addr)});
  } else if (e.op.is_serializing()) {
    fences_.push_back(e.op.seq);
  }
}

void OooCore::rebuild_derived() {
  ready_.clear();
  timers_.clear();
  stores_.clear();
  fences_.clear();
  for (std::size_t i = 0; i < rob_.size(); ++i) {
    RobEntry& e = rob_[i];
    e.fwd_store = e.waiters = e.next_waiter = kNoSeq;
  }
  for (std::size_t i = 0; i < rob_.size(); ++i) track(rob_[i]);
}

void OooCore::wait_for_sources(RobEntry& e, Cycle ready_by) {
  Cycle ready = 0;
  for (const SeqNum src : e.op.src) {
    if (src == kNoSeq) continue;
    RobEntry* producer = in_flight(src);
    if (!producer) continue;  // producer already committed
    if (producer->complete_at == kNever) {
      e.next_waiter = producer->waiters;
      producer->waiters = e.op.seq;
      return;
    }
    ready = std::max(ready, producer->complete_at);
  }
  if (ready_by != 0 && ready <= ready_by) {
    ready_.insert(std::upper_bound(ready_.begin(), ready_.end(), e.op.seq),
                  e.op.seq);
    return;
  }
  timers_.push_back({ready, e.op.seq});
  std::push_heap(timers_.begin(), timers_.end(), std::greater<>{});
}

void OooCore::wake_waiters(RobEntry& producer) {
  // Bounded by the ROB size, so even a corrupt restore's list ends.
  SeqNum seq = std::exchange(producer.waiters, kNoSeq);
  for (std::size_t n = 0; seq != kNoSeq && n < rob_.size(); ++n) {
    RobEntry* e = in_flight(seq);
    if (!e) break;
    seq = std::exchange(e->next_waiter, kNoSeq);
    wait_for_sources(*e);
  }
}

void OooCore::promote(Cycle cycle) {
  while (!timers_.empty() && timers_.front().ready <= cycle) {
    const SeqNum seq = timers_.front().seq;
    std::pop_heap(timers_.begin(), timers_.end(), std::greater<>{});
    timers_.pop_back();
    ready_.insert(std::upper_bound(ready_.begin(), ready_.end(), seq), seq);
  }
}

void OooCore::tick(Cycle now) {
  ++stats_.cycles;
  stats_.rob_occupancy_accum += rob_.size();
  if (rob_hist_) rob_hist_->add(static_cast<double>(rob_.size()));

  if (config_.sample_interval != 0 && now >= next_sample_) {
    stats_.interval_committed.push_back(stats_.committed);
    next_sample_ = now + config_.sample_interval;
  }

  if (now < frozen_until_) {
    ++stats_.recovery_stall_cycles;
    return;
  }

  do_commit(now);
  do_issue(now);
  do_dispatch(now);
  do_fetch(now);
  // Entries ready next cycle join ready_ now, so next_event sees them there.
  promote(now + 1);
}

Cycle OooCore::issue_bound(const RobEntry& e, Cycle now) const {
  switch (e.op.cls) {
    case isa::InstClass::kSerializing:
      // Issues only from the ROB head; becoming head takes an older
      // commit, which is itself a vetoed event.
      return rob_.front().op.seq == e.op.seq ? now : kNever;
    case isa::InstClass::kLoad:
      // A fence clears only when the serializing instruction retires, a
      // commit event next_event() already vetoes at the head.
      if (fenced(e.op.seq)) return kNever;
      if (const RobEntry* store = in_flight(e.fwd_store)) {
        if (!store->issued) return kNever;  // the store's issue is covered
        if (store->complete_at > now) return store->complete_at;
      }
      return now;  // lsq_load_can_issue would pass
    case isa::InstClass::kStore:
      // Blocked only by an older in-flight serializing instruction, whose
      // retirement is a covered commit event.
      return fenced(e.op.seq) ? kNever : now;
    default:
      return now;  // would attempt a functional unit
  }
}

Cycle OooCore::next_event(Cycle now) const {
  if (done()) return kNever;
  if (now < frozen_until_) return frozen_until_;

  Cycle cand = kNever;

  // Commit stage: a ready head acts every cycle (commits, or charges a
  // gate/store stall) — veto. An issued-but-incomplete head completes at
  // complete_at; an unissued head is covered by the issue scan below.
  if (!rob_.empty()) {
    const RobEntry& head = rob_.front();
    if (head.issued) {
      if (head.complete_at <= now) return now;
      cand = std::min(cand, head.complete_at);
    }
  }

  // Issue stage. An entry parked on an unissued producer is covered: the
  // producer's own issue bounds it. Timed entries are bounded by their
  // ready cycle; the ones due by now (not yet promoted) and ready_ are
  // checked exactly as do_issue would try them.
  const auto check = [&](SeqNum seq) {
    const RobEntry* e = in_flight(seq);
    if (e && e->in_iq) cand = std::min(cand, issue_bound(*e, now));
  };
  for (const SeqNum seq : ready_) {
    check(seq);
    if (cand == now) return now;
  }
  if (!timers_.empty() && timers_.front().ready > now) {
    cand = std::min(cand, timers_.front().ready);
  } else {
    for (const Timer& t : timers_) {
      if (t.ready > now) {
        cand = std::min(cand, t.ready);
      } else {
        check(t.seq);
      }
    }
    if (cand == now) return now;
  }

  // Dispatch stage: while the fetch queue is non-empty it either acts or
  // charges exactly one stall counter per cycle.
  if (!fetch_queue_.empty()) {
    const std::uint32_t reserved = env_->reserved_rob_slots_at(id_, now);
    const workload::DynOp& op = fetch_queue_.front();
    if (rob_.size() + reserved >= config_.rob_entries) {
      // ROB-stalled: bounded by the next environment state change
      // (Reunion fingerprint verification frees reserved slots).
      cand = std::min(cand, env_->next_state_change(id_, now));
    } else if (iq_count_ >= config_.iq_entries ||
               (op.is_load() && lq_count_ >= config_.lq_entries) ||
               (op.is_store() && sq_count_ >= config_.sq_entries)) {
      // Queue-stalled: frees only via an issue/commit, already covered.
    } else {
      return now;  // dispatch acts
    }
  }

  // Fetch stage. A front end blocked on a mispredicted branch un-blocks
  // when that branch issues — an issue event covered by the scan above.
  if (fetch_blocked_on_ == kNoSeq) {
    if (now < fetch_resume_at_) {
      cand = std::min(cand, fetch_resume_at_);
    } else if ((!stream_done_ || pending_stream_op_valid_) &&
               fetch_queue_.size() < config_.fetch_queue_entries) {
      return now;  // fetch acts
    }
  }

  return cand;
}

void OooCore::skip_cycles(Cycle from, Cycle to) {
  assert(to > from);
  promote(to);  // as the window's last tick would have left ready_
  const Cycle w = to - from;
  stats_.cycles += w;
  stats_.rob_occupancy_accum += static_cast<std::uint64_t>(rob_.size()) * w;
  if (rob_hist_) rob_hist_->add(static_cast<double>(rob_.size()), w);

  if (config_.sample_interval != 0) {
    // Replay `if (now >= next_sample_) sample` for each now in [from, to).
    Cycle c = std::max(from, next_sample_);
    while (c < to) {
      stats_.interval_committed.push_back(stats_.committed);
      next_sample_ = c + config_.sample_interval;
      c = next_sample_;
    }
  }

  if (from < frozen_until_) {
    assert(to <= frozen_until_ && "skip window overruns a recovery stall");
    stats_.recovery_stall_cycles += w;
    return;
  }

  // do_dispatch queries the environment every unfrozen cycle, and the
  // query may catch up lazy state (Reunion's prune_verified). Querying at
  // the window's last cycle leaves that state exactly where the naive
  // loop's last query would. The reserved count itself is constant over
  // the window: a ROB-full stall is bounded by next_state_change.
  const std::uint32_t reserved = env_->reserved_rob_slots(id_, to - 1);
  // The window's stall reason is stable (next_event bounded it on every
  // input that could flip it), so the one counter the naive loop would
  // charge per cycle advances by the window length.
  if (!fetch_queue_.empty()) {
    const workload::DynOp& op = fetch_queue_.front();
    if (rob_.size() + reserved >= config_.rob_entries) {
      stats_.dispatch_stall_rob += w;
    } else if (iq_count_ >= config_.iq_entries) {
      stats_.dispatch_stall_iq += w;
    } else if ((op.is_load() && lq_count_ >= config_.lq_entries) ||
               (op.is_store() && sq_count_ >= config_.sq_entries)) {
      stats_.dispatch_stall_lsq += w;
    }
  }
  if (fetch_blocked_on_ != kNoSeq) {
    stats_.fetch_blocked_branch += w;
  } else if (from < fetch_resume_at_) {
    assert(to <= fetch_resume_at_ && "skip window overruns a fetch drain");
    stats_.fetch_blocked_serialize += w;
  }
}

void OooCore::do_commit(Cycle now) {
  for (std::uint32_t n = 0; n < config_.commit_width && !rob_.empty(); ++n) {
    RobEntry& head = rob_.front();
    if (!head.issued || head.complete_at > now) break;

    if (!env_->can_commit(id_, head.op, now)) {
      ++stats_.commit_stall_gate;
      break;
    }
    if (head.op.is_store()) {
      if (!env_->on_store_commit(id_, head.op, now)) {
        ++stats_.commit_stall_store;
        break;
      }
      --sq_count_;
      ++stats_.stores;
      stores_.pop_front();
      committed_store_words_.push_back(head.op.mem_addr & ~Addr{7});
      if (committed_store_words_.size() > 16) {
        committed_store_words_.pop_front();
      }
    }

    switch (head.op.cls) {
      case isa::InstClass::kLoad:
        --lq_count_;
        ++stats_.loads;
        break;
      case isa::InstClass::kBranch:
        ++stats_.branches;
        if (head.mispredicted) ++stats_.mispredicts;
        break;
      case isa::InstClass::kSerializing:
        ++stats_.serializing;
        fences_.pop_front();
        // Trap/barrier drains the front end after it retires.
        fetch_resume_at_ =
            std::max(fetch_resume_at_, now + config_.serialize_fetch_penalty);
        break;
      default:
        break;
    }

    env_->on_commit(id_, head.op, now);
    if (tracer_ && tracer_->enabled()) {
      tracer_->emit({.kind = obs::TraceKind::kCommit, .cycle = now,
                     .thread = 0, .core = id_, .seq = head.op.seq,
                     .addr = head.op.mem_addr, .value = 0});
    }
    rob_.pop_front();
    ++stats_.committed;
  }
}

bool OooCore::lsq_load_can_issue(const RobEntry& e, Cycle now,
                                 bool* forwarded) const {
  *forwarded = false;
  // Memory ops never pass an in-flight serializing instruction (fence
  // semantics). The youngest older store to the same word decides: not yet
  // executed blocks the load; an executed one forwards.
  if (fenced(e.op.seq)) return false;
  if (const RobEntry* store = in_flight(e.fwd_store)) {
    if (!store->issued || store->complete_at > now) return false;
    *forwarded = true;
    return true;
  }
  // No in-ROB producer: the word may still live in the post-commit store
  // buffer on its way to the cache.
  const Addr word = word_of(e.op.mem_addr);
  for (const Addr w : committed_store_words_) {
    if (w == word) {
      *forwarded = true;
      break;
    }
  }
  return true;
}

void OooCore::do_issue(Cycle now) {
  promote(now);
  std::uint32_t issued = 0;
  std::uint32_t full_pools = 0;  // bit per FuKind found busy this cycle
  std::size_t kept = 0;
  std::size_t i = 0;
  for (; i < ready_.size() && issued < config_.issue_width; ++i) {
    RobEntry* e = in_flight(ready_[i]);
    if (!e || !e->in_iq) continue;  // only after a corrupt restore: drop
    if (try_issue(*e, now, &full_pools)) {
      ++issued;
      wake_waiters(*e);
    } else {
      ready_[kept++] = ready_[i];
    }
  }
  ready_.erase(ready_.begin() + static_cast<std::ptrdiff_t>(kept),
               ready_.begin() + static_cast<std::ptrdiff_t>(i));
}

bool OooCore::try_issue(RobEntry& e, Cycle now, std::uint32_t* full_pools) {
  // A pool found busy stays busy for the rest of the cycle.
  const FuKind kind = pool_for(e.op.cls);
  const std::uint32_t pool_bit = 1u << kind;
  if (*full_pools & pool_bit) return false;
  const auto reserve = [&](Cycle* complete_at) {
    if (try_fu(fu_[kind], now, complete_at)) return true;
    *full_pools |= pool_bit;
    return false;
  };

  Cycle complete_at = kNever;
  switch (e.op.cls) {
    case isa::InstClass::kSerializing: {
      // Issues only from the ROB head, after everything older retired.
      if (rob_.front().op.seq != e.op.seq) return false;
      complete_at = now + 1;
      break;
    }
    case isa::InstClass::kLoad: {
      bool forwarded = false;
      if (!lsq_load_can_issue(e, now, &forwarded)) return false;
      Cycle port_done = 0;
      if (!reserve(&port_done)) return false;
      // Address translation precedes the cache access; a D-TLB miss
      // inserts the page-walk latency.
      Cycle start = now;
      if (!dtlb_.access(e.op.mem_addr)) {
        start += config_.tlb_walk_latency;
        ++stats_.dtlb_misses;
      }
      dtlb_.avf_update(now);
      if (forwarded) {
        complete_at = start + config_.store_forward_latency;
      } else {
        complete_at = memory_->load(id_, e.op.mem_addr, start).done;
      }
      complete_at += config_.extra_load_latency;
      break;
    }
    case isa::InstClass::kStore: {
      // Execution = address generation + data capture; the memory write
      // happens at commit through the CommitEnv.
      if (fenced(e.op.seq)) return false;
      Cycle port_done = 0;
      if (!reserve(&port_done)) return false;
      complete_at = now + 1;
      if (!dtlb_.access(e.op.mem_addr)) {
        complete_at += config_.tlb_walk_latency;
        ++stats_.dtlb_misses;
      }
      dtlb_.avf_update(now);
      break;
    }
    default: {
      if (kind == kFuNone) {
        complete_at = now + 1;  // kHalt (or a corrupt class): no unit
      } else if (!reserve(&complete_at)) {
        return false;
      }
      break;
    }
  }

  e.in_iq = false;
  e.issued = true;
  e.complete_at = complete_at;
  --iq_count_;

  // A resolving mispredicted branch un-blocks the front end.
  if (e.op.is_branch() && fetch_blocked_on_ == e.op.seq) {
    fetch_blocked_on_ = kNoSeq;
    fetch_resume_at_ =
        std::max(fetch_resume_at_, complete_at + config_.mispredict_penalty);
  }
  return true;
}

void OooCore::do_dispatch(Cycle now) {
  const std::uint32_t reserved = env_->reserved_rob_slots(id_, now);
  for (std::uint32_t n = 0; n < config_.fetch_width; ++n) {
    if (fetch_queue_.empty()) break;
    if (rob_.size() + reserved >= config_.rob_entries) {
      ++stats_.dispatch_stall_rob;
      break;
    }
    if (iq_count_ >= config_.iq_entries) {
      ++stats_.dispatch_stall_iq;
      break;
    }
    const workload::DynOp& op = fetch_queue_.front();
    if (op.is_load() && lq_count_ >= config_.lq_entries) {
      ++stats_.dispatch_stall_lsq;
      break;
    }
    if (op.is_store() && sq_count_ >= config_.sq_entries) {
      ++stats_.dispatch_stall_lsq;
      break;
    }

    // Built in its ROB slot: every field is (re)set here.
    RobEntry& e = rob_.append();
    e.op = op;
    e.in_iq = true;
    e.issued = false;
    e.complete_at = kNever;
    e.mispredicted = op.is_branch() && op.has_mispredict_hint
                         ? op.mispredict_hint
                         : false;
    e.fwd_store = e.waiters = e.next_waiter = kNoSeq;
    track(e, now + 1);
    ++iq_count_;
    if (e.op.is_load()) ++lq_count_;
    if (e.op.is_store()) ++sq_count_;
    fetch_queue_.pop_front();
  }
}

void OooCore::do_fetch(Cycle now) {
  if (fetch_blocked_on_ != kNoSeq) {
    ++stats_.fetch_blocked_branch;
    return;
  }
  if (now < fetch_resume_at_) {
    ++stats_.fetch_blocked_serialize;
    return;
  }
  for (std::uint32_t n = 0; n < config_.fetch_width; ++n) {
    if (fetch_queue_.size() >= config_.fetch_queue_entries) break;

    // The op is produced in its fetch-queue slot; one that does not enter
    // the queue this cycle is popped back off.
    workload::DynOp& op = fetch_queue_.append();
    if (pending_stream_op_valid_) {
      op = pending_stream_op_;
      pending_stream_op_valid_ = false;
    } else if (stream_done_ || !stream_->next(&op)) {
      fetch_queue_.pop_back();
      stream_done_ = true;
      break;
    }

    // Front end: translate and fetch the instruction's line. An I-TLB miss
    // or I-cache miss stalls fetch until the walk / fill completes; the op
    // is retried (kept pending) afterwards.
    if (config_.model_frontend) {
      Cycle blocked_until = 0;
      if (!itlb_.access(op.pc)) {
        ++stats_.itlb_misses;
        blocked_until = now + config_.tlb_walk_latency;
      }
      itlb_.avf_update(now);
      const auto fetch_result = memory_->ifetch(id_, op.pc, now);
      if (!fetch_result.l1_hit) {
        blocked_until = std::max(blocked_until, fetch_result.done);
      }
      if (blocked_until > now) {
        ++stats_.fetch_blocked_icache;
        pending_stream_op_ = op;
        pending_stream_op_valid_ = true;
        fetch_queue_.pop_back();
        fetch_resume_at_ = std::max(fetch_resume_at_, blocked_until);
        return;
      }
    }

    if (op.is_branch()) {
      // Resolve the prediction now: hinted streams carry the outcome;
      // recorded traces consult the core's own predictor.
      bool wrong;
      if (op.has_mispredict_hint) {
        wrong = op.mispredict_hint;
        // Keep predictor state warm even in hinted mode (cheap, harmless).
      } else {
        wrong = bpred_.mispredicted(op.pc, op.taken);
        op.has_mispredict_hint = true;
        op.mispredict_hint = wrong;
      }
      if (tracer_ && tracer_->enabled()) {
        tracer_->emit({.kind = obs::TraceKind::kFetch, .cycle = now,
                       .thread = 0, .core = id_, .seq = op.seq,
                       .addr = op.pc, .value = wrong ? 1u : 0u});
      }
      if (wrong) {
        // The front end chases the wrong path until this branch resolves.
        fetch_blocked_on_ = op.seq;
        return;
      }
      continue;
    }
    if (tracer_ && tracer_->enabled()) {
      tracer_->emit({.kind = obs::TraceKind::kFetch, .cycle = now,
                     .thread = 0, .core = id_, .seq = op.seq, .addr = op.pc,
                     .value = 0});
    }
  }
}

void publish_core_stats(obs::MetricsRegistry& reg, const std::string& prefix,
                        const CoreStats& s) {
  reg.set_counter(prefix + ".cycles", s.cycles);
  reg.set_counter(prefix + ".commit.committed", s.committed);
  reg.set_counter(prefix + ".commit.loads", s.loads);
  reg.set_counter(prefix + ".commit.stores", s.stores);
  reg.set_counter(prefix + ".commit.branches", s.branches);
  reg.set_counter(prefix + ".commit.mispredicts", s.mispredicts);
  reg.set_counter(prefix + ".commit.serializing", s.serializing);
  reg.set_counter(prefix + ".stall.commit_store", s.commit_stall_store);
  reg.set_counter(prefix + ".stall.commit_gate", s.commit_stall_gate);
  reg.set_counter(prefix + ".stall.dispatch_rob", s.dispatch_stall_rob);
  reg.set_counter(prefix + ".stall.dispatch_iq", s.dispatch_stall_iq);
  reg.set_counter(prefix + ".stall.dispatch_lsq", s.dispatch_stall_lsq);
  reg.set_counter(prefix + ".stall.fetch_branch", s.fetch_blocked_branch);
  reg.set_counter(prefix + ".stall.fetch_serialize", s.fetch_blocked_serialize);
  reg.set_counter(prefix + ".stall.fetch_icache", s.fetch_blocked_icache);
  reg.set_counter(prefix + ".stall.recovery_cycles", s.recovery_stall_cycles);
  reg.set_counter(prefix + ".tlb.itlb_misses", s.itlb_misses);
  reg.set_counter(prefix + ".tlb.dtlb_misses", s.dtlb_misses);
  reg.observe(prefix + ".ipc", s.ipc());
  reg.observe(prefix + ".rob.avg_occupancy", s.avg_rob_occupancy());
}

}  // namespace unsync::cpu
