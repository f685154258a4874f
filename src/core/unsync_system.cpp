#include "core/unsync_system.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace unsync::core {

const UnSyncParams& UnSyncParams::validated() const {
  if (group_size < 2) {
    throw std::invalid_argument("unsync: group size must be >= 2");
  }
  if (cb_entries < 1) {
    throw std::invalid_argument("unsync: cb entries must be >= 1");
  }
  return *this;
}

bool UnSyncSystem::CbEnv::on_store_commit(CoreId core,
                                          const workload::DynOp& op,
                                          Cycle now) {
  mem::WriteBuffer& cb = *group_->cbs[side_];
  if (cb.full()) {
    ++group_->cb_full_stalls;
    return false;
  }
  // Write-through: the word updates the local L1 (no dirty state) and a
  // copy enters this core's CB for the group drain to L2.
  sys_->memory_.store_writethrough_local(core, op.mem_addr, now);
  cb.push(op.mem_addr, op.seq, now);
  cb.avf_update(now);
  return true;
}

UnSyncSystem::UnSyncSystem(const SystemConfig& config,
                           const UnSyncParams& params,
                           const workload::InstStream& stream)
    : UnSyncSystem(config, params,
                   engine::replicate(stream, config.num_threads)) {}

UnSyncSystem::UnSyncSystem(
    const SystemConfig& config, const UnSyncParams& params,
    const std::vector<const workload::InstStream*>& streams)
    : System("unsync", config, streams, params.validated().group_size,
             [&] {
               // UnSync requires write-through L1s (§III-C.1).
               mem::MemConfig m = config.mem;
               m.l1d.write_policy = mem::WritePolicy::kWriteThrough;
               return m;
             }()),
      params_(params),
      plan_(fault::unsync_plan()) {
  for (unsigned t = 0; t < config_.num_threads; ++t) {
    auto group = std::make_unique<Group>();
    for (unsigned side = 0; side < params_.group_size; ++side) {
      const CoreId core_id = t * params_.group_size + side;
      group->cbs.push_back(
          std::make_unique<mem::WriteBuffer>(params_.cb_entries));
      group->envs.push_back(
          std::make_unique<CbEnv>(this, group.get(), side));
      group->cores.push_back(std::make_unique<cpu::OooCore>(
          core_id, config_.core, &memory_, member_stream(t),
          group->envs.back().get()));
      register_core(*group->cores.back());
    }
    groups_.push_back(std::move(group));
  }
}

bool UnSyncSystem::member_finished(std::size_t g, std::size_t m) const {
  return System::member_finished(g, m) && groups_[g]->cbs[m]->empty();
}

void UnSyncSystem::sync_phase(std::size_t g, Cycle now) {
  Group& group = *groups_[g];
  const auto thread = static_cast<unsigned>(g);
  // The drain frontier is the newest store committed on EVERY core of the
  // group; since all cores commit the identical store sequence, the CBs
  // agree on their common prefix and drain head-to-head, one L2 copy per
  // entry.
  for (unsigned n = 0; n < params_.drain_per_cycle; ++n) {
    for (const auto& cb : group.cbs) {
      if (cb->empty()) return;
    }
    // "As and when the L1-L2 data bus is free" (§III-A(a)).
    if (!memory_.bus().free_at(now)) return;
#ifndef NDEBUG
    const SeqNum front_seq = group.cbs.front()->front().seq;
    for (const auto& cb : group.cbs) {
      assert(cb->front().seq == front_seq &&
             "redundant CBs must agree on their drain frontier");
    }
#endif
    const mem::WriteBufferEntry& head = group.cbs.front()->front();
    if (tracer_.enabled()) {
      tracer_.emit({.kind = obs::TraceKind::kCbDrain,
                    .cycle = now,
                    .thread = thread,
                    .core = 0,
                    .seq = head.seq,
                    .addr = head.addr,
                    .value = 0});
    }
    memory_.push_word_to_l2(head.addr, now);
    for (const auto& cb : group.cbs) {
      cb->pop();
      cb->avf_update(now);
    }
  }
}

Cycle UnSyncSystem::recovery_cost(const Group& group,
                                  unsigned error_free_side) const {
  // §III-A(c): EIH signalling, architectural-state copy, and the L1 content
  // copy from the error-free core, all through the shared L2.
  const auto& good_core = *group.cores[error_free_side];
  const std::uint64_t l1_lines = memory_.l1(good_core.id()).lines_valid();
  return params_.eih_signal_cycles +
         params_.arch_state_words * params_.state_copy_word_cycles +
         l1_lines * params_.l1_copy_line_cycles;
}

void UnSyncSystem::on_error(std::size_t g, Cycle now,
                            engine::RunResult& acc) {
  Group& group = *groups_[g];
  // An error strikes when program progress (the leading core's commit
  // watermark) crosses the arrival position.
  if (!arrival_pending(g)) return;
  const SeqNum position = arrivals_[g].take();
  const auto thread = static_cast<unsigned>(g);

  // Any core of the group is equally likely to be struck. Detection is
  // certain under the UnSync plan (parity/DMR cover every sequential
  // element), so recovery always engages. The state source is the leading
  // error-free core ("always forward": laggards are forwarded, a faster
  // erroneous core re-traces).
  const auto n = static_cast<unsigned>(group.cores.size());
  const unsigned bad = static_cast<unsigned>(rng_.below(n));
  unsigned good = bad == 0 ? 1 : 0;
  for (unsigned side = 0; side < n; ++side) {
    if (side == bad) continue;
    if (group.cores[side]->retired() > group.cores[good]->retired()) {
      good = side;
    }
  }

  const Cycle cost = recovery_cost(group, good);
  const Cycle resume_at = now + cost;
  engine::record_error(acc, tracer_,
                       {.cycle = now, .position = position, .thread = thread,
                        .struck_core = bad, .cost = cost, .rollback = false},
                       position);

  // 1-2) Stop every core; flush the erroneous pipeline.
  group.cores[bad]->flush_pipeline();
  // 3+6) Copy architectural state: the erroneous core resumes from the
  // error-free core's position.
  group.cores[bad]->set_position(group.cores[good]->retired());
  for (auto& core : group.cores) core->stall_until(resume_at);
  // 4-5) In-flight CB transfers complete (drain continues naturally); the
  // erroneous CB is overwritten from the error-free CB.
  group.cbs[bad]->copy_from(*group.cbs[good]);
  group.cbs[bad]->avf_update(now);
}

Cycle UnSyncSystem::next_event(std::size_t g, Cycle now) const {
  Cycle cand = System::next_event(g, now);
  if (cand <= now) return now;
  // CB drain is ready exactly when every CB is non-empty and the bus is
  // free; a CB only becomes non-empty through a store commit, which is a
  // vetoed core event.
  bool drainable = true;
  for (const auto& cb : groups_[g]->cbs) drainable &= !cb->empty();
  if (drainable) {
    if (memory_.bus().free_at(now)) return now;
    cand = std::min(cand, memory_.bus().next_free());
  }
  return cand;
}

void UnSyncSystem::finish(engine::RunResult& r) const {
  System::finish(r);
  for (const auto& group : groups_) r.cb_full_stalls += group->cb_full_stalls;
}

void UnSyncSystem::publish_extra_metrics() {
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    const auto& cbs = groups_[g]->cbs;
    for (std::size_t s = 0; s < cbs.size(); ++s) {
      mem::publish_write_buffer(
          *metrics_,
          name_ + ".group" + std::to_string(g) + ".cb" + std::to_string(s),
          *cbs[s]);
    }
  }
}

void UnSyncSystem::register_avf(fault::AvfCollector& collector) {
  // Each CB is a write-buffer instance: 16-byte entries = 128 bits.
  for (auto& group : groups_) {
    for (auto& cb : group->cbs) {
      cb->set_avf(collector.make_tracker(
          fault::UncoreStructure::kWriteBuffer, cb->capacity(),
          fault::kWriteBufferEntryBits));
    }
  }
}

}  // namespace unsync::core
