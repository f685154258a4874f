#include "core/hetero_checker_system.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace unsync::core {

namespace {
constexpr Cycle kNever = ~Cycle{0};
}  // namespace

const HeteroParams& HeteroParams::validated() const {
  if (log_entries < 1) {
    throw std::invalid_argument("hetero: check log entries must be >= 1");
  }
  if (checker_width < 1) {
    throw std::invalid_argument("hetero: checker width must be >= 1");
  }
  return *this;
}

// ---- LeaderEnv ------------------------------------------------------------

bool HeteroCheckerSystem::LeaderEnv::can_commit(CoreId core,
                                                const workload::DynOp& op,
                                                Cycle now) {
  (void)core;
  (void)now;
  // Back-pressure: every logged-class instruction needs a free log entry at
  // commit; a full log means the checker has fallen a full window behind.
  if (logged_class(op) && group_->log->full()) {
    ++group_->log_full_stalls;
    return false;
  }
  return true;
}

bool HeteroCheckerSystem::LeaderEnv::on_store_commit(CoreId core,
                                                     const workload::DynOp& op,
                                                     Cycle now) {
  (void)core;
  // can_commit reserved the slot this cycle; the store is HELD here — it
  // reaches the memory hierarchy only when the checker verifies it.
  const bool ok = group_->log->push(
      {.seq = op.seq, .addr = op.mem_addr,
       .kind = cpu::CheckKind::kStoreData, .taken = false});
  assert(ok && "leader store committed past a full check log");
  (void)ok;
  group_->log->avf_update(now);
  return true;
}

void HeteroCheckerSystem::LeaderEnv::on_commit(CoreId core,
                                               const workload::DynOp& op,
                                               Cycle now) {
  (void)core;
  if (op.is_store()) return;  // logged in on_store_commit
  if (!logged_class(op)) return;
  const bool ok = group_->log->push(
      {.seq = op.seq,
       .addr = op.is_load() ? op.mem_addr : kNoAddr,
       .kind = op.is_load() ? cpu::CheckKind::kLoadValue
                            : cpu::CheckKind::kBranchOutcome,
       .taken = op.taken});
  assert(ok && "leader committed past a full check log");
  (void)ok;
  group_->log->avf_update(now);
}

// ---- CheckerEnv -----------------------------------------------------------

bool HeteroCheckerSystem::CheckerEnv::can_commit(CoreId core,
                                                 const workload::DynOp& op,
                                                 Cycle now) {
  (void)core;
  (void)now;
  // In-order consumption: the checker may not outrun the leader's log. This
  // predicate is pure — the skip_cycles gate probe relies on that.
  if (logged_class(op)) return !group_->log->empty();
  return true;
}

void HeteroCheckerSystem::CheckerEnv::on_commit(CoreId core,
                                                const workload::DynOp& op,
                                                Cycle now) {
  (void)core;
  if (!logged_class(op)) return;
  const cpu::CheckLogEntry& e = group_->log->front();
  assert(e.seq == op.seq && "check log out of step with the checker");
  if (e.kind == cpu::CheckKind::kStoreData) {
    // Verified: the store may finally leave the group.
    sys_->memory_.store_writeback(group_->leader->id(), e.addr, now);
  }
  group_->log->pop();
  group_->log->avf_update(now);
}

// ---- HeteroCheckerSystem --------------------------------------------------

HeteroCheckerSystem::HeteroCheckerSystem(const SystemConfig& config,
                                         const HeteroParams& params,
                                         const workload::InstStream& stream)
    : HeteroCheckerSystem(config, params,
                          engine::replicate(stream, config.num_threads)) {}

HeteroCheckerSystem::HeteroCheckerSystem(
    const SystemConfig& config, const HeteroParams& params,
    const std::vector<const workload::InstStream*>& streams)
    // Only the leaders own caches: the checker runs log-fed, touching the
    // hierarchy solely through verified-store writebacks on the leader's
    // L1.
    : System("hetero", config, streams, 1, config.mem,
             /*error_process=*/true, /*stream_readers=*/2),
      params_(params.validated()) {
  cpu::InOrderConfig checker_cfg;
  checker_cfg.width = params_.checker_width;
  checker_cfg.load_latency = params_.checker_load_latency;
  checker_cfg.sample_interval = config_.core.sample_interval;
  for (unsigned t = 0; t < config_.num_threads; ++t) {
    auto group = std::make_unique<Group>();
    group->log = std::make_unique<cpu::CheckLog>(params_.log_entries);
    group->leader_env = std::make_unique<LeaderEnv>(this, group.get());
    group->checker_env = std::make_unique<CheckerEnv>(this, group.get());
    group->leader = std::make_unique<cpu::OooCore>(
        t, config_.core, &memory_, member_stream(t),
        group->leader_env.get());
    register_core(*group->leader);
    group->checker = std::make_unique<cpu::InOrderCore>(
        config_.num_threads + t, checker_cfg, nullptr, member_stream(t),
        group->checker_env.get());
    group->checker->set_tracer(&tracer_);
    groups_.push_back(std::move(group));
  }
}

bool HeteroCheckerSystem::member_finished(std::size_t g,
                                          std::size_t m) const {
  const Group& group = *groups_[g];
  return m == 0 ? group.leader->done() : group.checker->done();
}

void HeteroCheckerSystem::member_tick(std::size_t g, std::size_t m,
                                      Cycle now) {
  Group& group = *groups_[g];
  if (m == 0) {
    if (!group.leader->done()) group.leader->tick(now);
  } else {
    if (!group.checker->done()) group.checker->tick(now);
  }
}

Cycle HeteroCheckerSystem::member_next_event(std::size_t g, std::size_t m,
                                             Cycle now) const {
  const Group& group = *groups_[g];
  return m == 0 ? group.leader->next_event(now)
                : group.checker->next_event(now);
}

void HeteroCheckerSystem::member_skip_cycles(std::size_t g, std::size_t m,
                                             Cycle from, Cycle to) {
  Group& group = *groups_[g];
  if (m == 0) {
    if (!group.leader->done()) group.leader->skip_cycles(from, to);
  } else {
    if (!group.checker->done()) group.checker->skip_cycles(from, to);
  }
}

void HeteroCheckerSystem::on_error(std::size_t g, Cycle now,
                                   engine::RunResult& acc) {
  Group& group = *groups_[g];
  // A strike becomes latent when the leader's progress crosses it — the
  // leader keeps running on corrupted state until verification catches it.
  if (!group.fault_pending && arrival_pending(g)) {
    group.fault_position = arrivals_[g].take();
    group.fault_cycle = now;
    group.fault_pending = true;
  }
  // Detection: the checker verifies the struck instruction and the compare
  // mismatches. Detection latency is the log residency of that entry.
  if (group.fault_pending &&
      group.checker->retired() > group.fault_position) {
    const Cycle resume_at = now + params_.rollback_penalty;
    engine::record_error(acc, tracer_,
                         {.cycle = now, .position = group.fault_position,
                          .thread = static_cast<unsigned>(g),
                          .struck_core = 0, .cost = params_.rollback_penalty,
                          .rollback = true},
                         group.fault_position);
    ++group.detections;
    group.detection_latency_total += now - group.fault_cycle;
    // Everything older than the struck instruction is checker-verified, so
    // the last verified commit IS the strike position: both cores roll back
    // there and the unverified log tail is discarded.
    group.leader->set_position(group.fault_position);
    group.leader->stall_until(resume_at);
    group.checker->set_position(group.fault_position);
    group.checker->stall_until(resume_at);
    group.log->clear();
    group.log->avf_update(now);
    group.fault_pending = false;
  }
}

Cycle HeteroCheckerSystem::next_event(std::size_t g, Cycle now) const {
  const Group& group = *groups_[g];
  const Cycle lead =
      group.leader->done() ? kNever : group.leader->next_event(now);
  if (lead <= now) return now;
  if (arrival_pending(g)) return now;
  if (group.fault_pending &&
      group.checker->retired() > group.fault_position) {
    return now;
  }
  Cycle chk = group.checker->done() ? kNever : group.checker->next_event(now);
  if (chk <= now) {
    // The checker's one cross-member wait: its head instruction is executed
    // and needs a verified input, but the log is empty. The log cannot gain
    // an entry before the leader's own next event, so the leader's bound
    // covers the checker too.
    const workload::DynOp* head = group.checker->head_op();
    if (head != nullptr && logged_class(*head) &&
        group.checker->head_exec_done(now) && group.log->empty()) {
      chk = lead;
    } else {
      return now;
    }
  }
  return std::min(lead, chk);
}

void HeteroCheckerSystem::finish(engine::RunResult& r) const {
  // Leaders first (the registered cores, aligning core_stats[i] with the
  // "<name>.core<i>" metric prefixes), then the checkers.
  System::finish(r);
  for (const auto& group : groups_) {
    r.core_stats.push_back(group->checker->stats());
    r.cb_full_stalls += group->log_full_stalls;
  }
}

void HeteroCheckerSystem::publish_extra_metrics() {
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    const Group& group = *groups_[g];
    const std::string prefix = name_ + ".group" + std::to_string(g);
    cpu::publish_check_log(*metrics_, prefix + ".log", *group.log);
    cpu::publish_core_stats(*metrics_, prefix + ".checker",
                            group.checker->stats());
    metrics_->set_counter(prefix + ".log_full_stalls",
                          group.log_full_stalls);
    metrics_->set_counter(prefix + ".detections", group.detections);
    metrics_->set_counter(prefix + ".detection_latency_cycles",
                          group.detection_latency_total);
  }
}

void HeteroCheckerSystem::register_avf(fault::AvfCollector& collector) {
  for (auto& group : groups_) {
    group->log->set_avf(collector.make_tracker(
        fault::UncoreStructure::kCheckLog, params_.log_entries,
        static_cast<std::uint32_t>(cpu::kCheckLogEntryBits)));
  }
}

}  // namespace unsync::core
