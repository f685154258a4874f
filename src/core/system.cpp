#include "core/system.hpp"

#include <algorithm>
#include <stdexcept>

#include "fault/ser.hpp"

namespace unsync::core {

namespace {
bool all_finished(const System& sys, std::size_t groups) {
  for (std::size_t g = 0; g < groups; ++g) {
    if (!sys.finished(g)) return false;
  }
  return true;
}
}  // namespace

System::System(std::string name, const SystemConfig& config,
               const std::vector<const workload::InstStream*>& streams,
               unsigned cores_per_group, const mem::MemConfig& mem,
               bool error_process)
    : name_(std::move(name)),
      config_(config),
      thread_lengths_(engine::lengths_of(streams)),
      memory_(mem, config.num_threads * cores_per_group),
      rng_(config.seed),
      arrivals_(config.num_threads),
      error_process_(error_process),
      cores_per_group_(cores_per_group) {
  if (config.num_threads == 0) {
    throw std::invalid_argument(name_ + ": need at least one thread");
  }
  if (streams.size() != config.num_threads) {
    throw std::invalid_argument(name_ + ": need one stream per thread");
  }
  engine::prewarm_from(memory_, streams);
  if (error_process_) {
    auto schedules = draw_arrivals(config.ser_per_inst, thread_lengths_, rng_);
    for (std::size_t t = 0; t < schedules.size(); ++t) {
      arrivals_[t].positions = std::move(schedules[t]);
    }
  }
  acc_.system = name_;
  acc_.thread_instructions = thread_lengths_;
  acc_.instructions = engine::max_length(thread_lengths_);
}

engine::RunResult System::run(Cycle max_cycles) {
  const std::size_t groups = group_count();
  while (!all_finished(*this, groups) && now_ < max_cycles) {
    // A skip is sound only when EVERY unfinished group is quiescent:
    // shared structures (the bus, the L2) stay untouched for the whole
    // window exactly because no group acts during it.
    Cycle target = ~Cycle{0};
    for (std::size_t g = 0; g < groups && target > now_; ++g) {
      if (finished(g)) continue;
      target = std::min(target, next_event(g, now_));
    }
    target = std::min(target, max_cycles);
    if (target > now_) {
      for (std::size_t g = 0; g < groups; ++g) {
        if (!finished(g)) skip_cycles(g, now_, target);
      }
      const Cycle from = now_;
      now_ = target;
      if (on_skip_) on_skip_(from, target);
      continue;
    }
    tick(groups);
  }
  return complete();
}

engine::RunResult System::run_naive(Cycle max_cycles) {
  const std::size_t groups = group_count();
  while (!all_finished(*this, groups) && now_ < max_cycles) tick(groups);
  return complete();
}

void System::tick(std::size_t groups) {
  for (std::size_t g = 0; g < groups; ++g) {
    if (finished(g)) continue;
    // The loop — not the concrete system — owns the member walk: every
    // member of an unfinished group gets its tick in index order, whatever
    // the group's shape (one core, an identical pair, a leader + checker).
    const std::size_t members = member_count(g);
    for (std::size_t m = 0; m < members; ++m) member_tick(g, m, now_);
    sync_phase(g, now_);
    on_error(g, now_, acc_);
  }
  ++now_;
}

engine::RunResult System::complete() {
  engine::RunResult r = acc_;
  r.cycles = now_;
  finish(r);
  if (metrics_) {
    publish_metrics(r);
    publish_extra_metrics();
  }
  return r;
}

std::vector<std::vector<SeqNum>> System::draw_arrivals(
    double ser_per_inst, const std::vector<std::uint64_t>& lengths,
    Rng& rng) {
  std::vector<std::vector<SeqNum>> schedules;
  schedules.reserve(lengths.size());
  for (const std::uint64_t len : lengths) {
    schedules.push_back(fault::schedule_arrivals(ser_per_inst, len, rng));
  }
  return schedules;
}

void System::register_core(cpu::OooCore& core) {
  core.set_tracer(&tracer_);
  registered_cores_.push_back(&core);
}

std::vector<SeqNum> System::group_progress() const {
  std::vector<SeqNum> p;
  p.reserve(config_.num_threads);
  for (std::size_t g = 0; g < config_.num_threads; ++g) {
    p.push_back(progress(g));
  }
  return p;
}

Cycle System::next_event(std::size_t g, Cycle now) const {
  const Cycle cand = members_next_event(g, now);
  if (cand <= now || arrival_pending(g)) return now;
  return cand;
}

void System::finish(engine::RunResult& r) const {
  for (const cpu::OooCore* core : registered_cores_) {
    r.core_stats.push_back(core->stats());
  }
}

bool System::store_buffer_commit(std::vector<Cycle>& in_flight, CoreId core,
                                 Addr addr, Cycle now) {
  std::erase_if(in_flight, [now](Cycle done) { return done <= now; });
  if (in_flight.size() >= kStoreBufferEntries) return false;
  in_flight.push_back(memory_.store_writeback(core, addr, now).done);
  return true;
}

std::string System::core_prefix(std::size_t i) const {
  if (cores_per_group_ <= 1) return name() + ".core" + std::to_string(i);
  return name() + ".group" + std::to_string(i / cores_per_group_) +
         ".core" + std::to_string(i % cores_per_group_);
}

void System::set_observability(obs::MetricsRegistry* metrics,
                               obs::TraceSink* trace) {
  metrics_ = metrics;
  tracer_.set_sink(trace);
  memory_.set_tracer(&tracer_);
  for (std::size_t i = 0; i < registered_cores_.size(); ++i) {
    cpu::OooCore& core = *registered_cores_[i];
    if (metrics_) {
      // One bucket per integer occupancy in [0, rob_entries].
      const auto cap = core.config().rob_entries;
      core.set_rob_histogram(&metrics_->histogram(
          core_prefix(i) + ".rob.occupancy", 0.0,
          static_cast<double>(cap + 1), cap + 1));
    } else {
      core.set_rob_histogram(nullptr);
    }
  }
  if (config_.avf && metrics_ && !avf_collector_) wire_avf();
}

void System::wire_avf() {
  avf_collector_ = std::make_unique<fault::AvfCollector>();
  fault::AvfCollector& c = *avf_collector_;
  mem::MemoryHierarchy& m = memory_;

  m.bus().set_avf(c.make_tracker(fault::UncoreStructure::kBusQueue,
                                 fault::kBusQueueEntries,
                                 fault::kBusQueueEntryBits));
  m.dram_channel().set_avf(c.make_tracker(fault::UncoreStructure::kDramQueue,
                                          fault::kDramQueueEntries,
                                          fault::kDramQueueEntryBits));

  const auto wire_cache = [&c](mem::Cache& cache) {
    const auto lines = static_cast<std::uint64_t>(cache.config().num_sets()) *
                       cache.config().assoc;
    cache.set_avf(c.make_tracker(fault::UncoreStructure::kCacheTag, lines,
                                 cache.tag_entry_bits()));
    cache.mshrs().set_avf(c.make_tracker(fault::UncoreStructure::kMshr,
                                         cache.mshrs().capacity(),
                                         fault::kMshrEntryBits));
  };
  for (unsigned i = 0; i < m.num_cores(); ++i) {
    wire_cache(m.l1(i));
    wire_cache(m.icache(i));
  }
  wire_cache(m.l2());
  // The shared L2's data array dominates uncore SRAM capacity; per the ACE
  // model every valid line's payload is live state (line_bytes*8 bits).
  {
    mem::Cache& l2 = m.l2();
    const auto lines = static_cast<std::uint64_t>(l2.config().num_sets()) *
                       l2.config().assoc;
    l2.set_data_avf(c.make_tracker(fault::UncoreStructure::kCacheData, lines,
                                   l2.config().line_bytes * 8));
  }

  for (cpu::OooCore* core : registered_cores_) {
    core->set_tlb_avf(
        c.make_tracker(fault::UncoreStructure::kTlb,
                       core->itlb().config().entries, fault::kTlbEntryBits),
        c.make_tracker(fault::UncoreStructure::kTlb,
                       core->dtlb().config().entries, fault::kTlbEntryBits));
  }

  register_avf(c);
  // Capture prewarmed tag occupancy from cycle 0.
  m.avf_update_all(0);
}

void System::publish_metrics(const engine::RunResult& r) {
  obs::MetricsRegistry& reg = *metrics_;
  for (std::size_t i = 0;
       i < registered_cores_.size() && i < r.core_stats.size(); ++i) {
    cpu::publish_core_stats(reg, core_prefix(i), r.core_stats[i]);
  }
  memory_.publish_metrics(reg, name() + ".mem");
  reg.set_counter(name() + ".cycles", r.cycles);
  reg.set_counter(name() + ".instructions", r.instructions);
  reg.set_counter(name() + ".errors.injected", r.errors_injected);
  reg.set_counter(name() + ".errors.recoveries", r.recoveries);
  reg.set_counter(name() + ".errors.rollbacks", r.rollbacks);
  reg.set_counter(name() + ".errors.recovery_cycles_total",
                  r.recovery_cycles_total);
  reg.set_counter(name() + ".stall.cb_full", r.cb_full_stalls);
  reg.set_counter(name() + ".fingerprint_syncs", r.fingerprint_syncs);
  reg.gauge(name() + ".thread_ipc").add(r.thread_ipc());
  if (avf_collector_) {
    avf_collector_->finish(r.cycles);
    avf_collector_->publish(reg, r.cycles);
  }
}

}  // namespace unsync::core
