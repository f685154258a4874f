#include "core/system.hpp"

namespace unsync::core {

void System::register_core(cpu::OooCore& core) {
  core.set_tracer(&tracer_);
  registered_cores_.push_back(&core);
}

std::string System::core_prefix(std::size_t i) const {
  const std::size_t per =
      num_threads_ ? registered_cores_.size() / num_threads_ : 1;
  if (per <= 1) return name() + ".core" + std::to_string(i);
  return name() + ".group" + std::to_string(i / per) + ".core" +
         std::to_string(i % per);
}

void System::set_observability(obs::MetricsRegistry* metrics,
                               obs::TraceSink* trace) {
  metrics_ = metrics;
  tracer_.set_sink(trace);
  memory().set_tracer(&tracer_);
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
  if (avf_enabled_ && metrics_ && !avf_collector_) wire_avf();
}

void System::wire_avf() {
  avf_collector_ = std::make_unique<fault::AvfCollector>();
  fault::AvfCollector& c = *avf_collector_;
  mem::MemoryHierarchy& m = memory();

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
  if (!metrics_) return;
  obs::MetricsRegistry& reg = *metrics_;
  for (std::size_t i = 0;
       i < registered_cores_.size() && i < r.core_stats.size(); ++i) {
    cpu::publish_core_stats(reg, core_prefix(i), r.core_stats[i]);
  }
  memory().publish_metrics(reg, name() + ".mem");
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
