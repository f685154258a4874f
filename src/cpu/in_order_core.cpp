#include "cpu/in_order_core.hpp"

#include <cassert>

namespace unsync::cpu {

InOrderCore::InOrderCore(CoreId id, const InOrderConfig& config,
                         mem::MemoryHierarchy* memory,
                         std::unique_ptr<workload::InstStream> stream,
                         CommitEnv* env)
    : id_(id),
      config_(config),
      memory_(memory),
      stream_(std::move(stream)),
      env_(env ? env : &default_env_) {
  assert(stream_ != nullptr);
  assert(config_.width > 0);
  refill_head();
}

void InOrderCore::refill_head() {
  if (op_valid_ || stream_done_) return;
  if (stream_->next(&op_)) {
    op_valid_ = true;
    started_ = false;
  } else {
    stream_done_ = true;
  }
}

Cycle InOrderCore::exec_latency(const workload::DynOp& op, Cycle now) const {
  using isa::InstClass;
  switch (op.cls) {
    case InstClass::kIntMul: return now + config_.int_mul_latency - 1;
    case InstClass::kIntDiv: return now + config_.int_div_latency - 1;
    case InstClass::kFpAlu: return now + config_.fp_alu_latency - 1;
    case InstClass::kFpMul: return now + config_.fp_mul_latency - 1;
    case InstClass::kFpDiv: return now + config_.fp_div_latency - 1;
    case InstClass::kSerializing:
      return now + config_.serialize_latency - 1;
    case InstClass::kLoad:
      if (memory_) return memory_->load(id_, op.mem_addr, now).done;
      return now + config_.load_latency - 1;
    default:
      return now;  // ALU / branch / store: single cycle
  }
}

void InOrderCore::flush_pipeline() {
  // Only the head instruction is ever in flight; squash its execution but
  // keep the op — re-execution starts from scratch.
  started_ = false;
  complete_at_ = 0;
}

void InOrderCore::set_position(SeqNum seq) {
  stats_.committed = seq;
  op_valid_ = false;
  started_ = false;
  complete_at_ = 0;
  stream_done_ = !stream_->seek(seq);
  refill_head();
}

void InOrderCore::end_cycle(Cycle now) {
  ++stats_.cycles;
  if (config_.sample_interval != 0 && now >= next_sample_) {
    stats_.interval_committed.push_back(stats_.committed);
    next_sample_ = now + config_.sample_interval;
  }
}

void InOrderCore::tick(Cycle now) {
  end_cycle(now);

  if (now < frozen_until_) {
    ++stats_.recovery_stall_cycles;
    return;
  }

  for (std::uint32_t n = 0; n < config_.width; ++n) {
    refill_head();
    if (!op_valid_) break;

    if (!started_) {
      started_ = true;
      complete_at_ = exec_latency(op_, now);
    }
    if (complete_at_ > now) {
      ++stats_.dispatch_stall_iq;  // head executing (see header note)
      break;
    }

    if (!env_->can_commit(id_, op_, now)) {
      ++stats_.commit_stall_gate;
      break;
    }
    if (op_.is_store() && !env_->on_store_commit(id_, op_, now)) {
      ++stats_.commit_stall_store;
      break;
    }

    switch (op_.cls) {
      case isa::InstClass::kLoad: ++stats_.loads; break;
      case isa::InstClass::kStore: ++stats_.stores; break;
      case isa::InstClass::kBranch:
        ++stats_.branches;
        if (op_.has_mispredict_hint && op_.mispredict_hint) {
          ++stats_.mispredicts;
        }
        break;
      case isa::InstClass::kSerializing: ++stats_.serializing; break;
      default: break;
    }

    env_->on_commit(id_, op_, now);
    if (tracer_ && tracer_->enabled()) {
      tracer_->emit({.kind = obs::TraceKind::kCommit, .cycle = now,
                     .thread = 0, .core = id_, .seq = op_.seq,
                     .addr = op_.mem_addr, .value = 0});
    }
    op_valid_ = false;
    started_ = false;
    ++stats_.committed;
  }
  refill_head();  // keep head_seq() meaningful between ticks
}

Cycle InOrderCore::next_event(Cycle now) const {
  if (done()) return kNever;
  if (now < frozen_until_) return frozen_until_;
  if (op_valid_ && started_ && complete_at_ > now) return complete_at_;
  // The head could start, commit, or charge a gate stall this cycle.
  return now;
}

void InOrderCore::skip_cycles(Cycle from, Cycle to) {
  assert(to > from);
  const Cycle w = to - from;
  stats_.cycles += w;

  if (config_.sample_interval != 0) {
    Cycle c = from > next_sample_ ? from : next_sample_;
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
  if (!op_valid_) return;  // drained: nothing the naive loop would charge

  if (started_ && complete_at_ > from) {
    assert(to <= complete_at_ && "skip window overruns an execution wait");
    stats_.dispatch_stall_iq += w;
    return;
  }

  // Head complete but held at the gate for the whole window. The blocked
  // probes are idempotent (header contract), so one call stands in for the
  // per-cycle calls the naive loop would make.
  assert(started_ && "un-started head vetoes next_event");
  if (!env_->can_commit(id_, op_, from)) {
    stats_.commit_stall_gate += w;
    return;
  }
  if (op_.is_store() && !env_->on_store_commit(id_, op_, from)) {
    stats_.commit_stall_store += w;
    return;
  }
  assert(false && "skip window over a committable head instruction");
}

}  // namespace unsync::cpu
