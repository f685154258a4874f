#include "mem/hierarchy.hpp"

#include "mem/write_buffer.hpp"

namespace unsync::mem {

MemoryHierarchy::MemoryHierarchy(const MemConfig& config, unsigned num_cores)
    : config_(config), l2_(config.l2) {
  l1d_.reserve(num_cores);
  l1i_.reserve(num_cores);
  for (unsigned i = 0; i < num_cores; ++i) {
    l1d_.push_back(std::make_unique<Cache>(config.l1d));
    l1i_.push_back(std::make_unique<Cache>(config.l1i));
  }
}

std::pair<Cycle, bool> MemoryHierarchy::l2_read(Addr addr, Cycle t) {
  const Addr line = l2_.line_addr(addr);
  const LookupResult r = l2_.access_read(addr);
  l2_.avf_update(t);
  if (r.dirty_victim) {
    // Dirty L2 victim drains to DRAM; consumes channel bandwidth but is off
    // the critical path of this access.
    dram_chan_.acquire(t, config_.dram_line_cycles);
  }
  if (r.hit) {
    // A tag hit on a line whose fill is still in flight (the tag array is
    // updated at allocation time) must wait for the data to arrive.
    if (const auto fill = l2_.mshrs().in_flight(line, t)) {
      return {std::max(*fill, t + config_.l2.hit_latency), true};
    }
    return {t + config_.l2.hit_latency, true};
  }
  if (const auto done = l2_.mshrs().in_flight(line, t)) {
    return {*done, false};
  }
  const Cycle free = l2_.mshrs().first_free(t);
  l2_.mshrs().add_stall(free - t);
  const Cycle grant = dram_chan_.acquire(free + config_.l2.hit_latency,
                                         config_.dram_line_cycles);
  const Cycle done = grant + config_.dram_latency;
  l2_.mshrs().allocate(line, t, done);
  return {done, false};
}

void MemoryHierarchy::l2_write_state(Addr addr, Cycle t) {
  const Addr line = l2_.line_addr(addr);
  const LookupResult r = l2_.access_write(addr);
  l2_.avf_update(t);
  if (r.dirty_victim) {
    dram_chan_.acquire(t, config_.dram_line_cycles);
  }
  if (!r.hit && !l2_.mshrs().in_flight(line, t)) {
    // Write-allocate: the rest of the line is fetched from DRAM. The write
    // itself is posted (merges into the fill buffer), but the fetch
    // consumes channel bandwidth and readers of the line must wait for it.
    if (l2_.mshrs().first_free(t) <= t) {
      const Cycle grant = dram_chan_.acquire(t + config_.l2.hit_latency,
                                             config_.dram_line_cycles);
      l2_.mshrs().allocate(line, t, grant + config_.dram_latency);
    }
  }
}

void MemoryHierarchy::emit_bus(Cycle grant, std::uint32_t core, Addr addr,
                               std::uint64_t value) const {
  if (tracer_ && tracer_->enabled()) {
    tracer_->emit({.kind = obs::TraceKind::kBusTransaction,
                   .cycle = grant,
                   .thread = 0,
                   .core = core,
                   .seq = 0,
                   .addr = addr,
                   .value = value});
  }
}

MemAccessResult MemoryHierarchy::read_through(CoreId core, Cache& l1,
                                              const CacheConfig& cfg,
                                              Addr addr, Cycle now) {
  const Addr line = l1.line_addr(addr);
  const LookupResult r = l1.access_read(addr);
  l1.avf_update(now);
  if (r.hit) {
    // The line may still be in flight (allocated at miss time): a "hit"
    // under the fill waits for the outstanding MSHR to complete.
    if (const auto fill = l1.mshrs().in_flight(line, now)) {
      return {.done = std::max(*fill, now + cfg.hit_latency),
              .l1_hit = false, .l2_hit = false};
    }
    return {.done = now + cfg.hit_latency, .l1_hit = true, .l2_hit = false};
  }
  if (r.dirty_victim) {
    // Evicted dirty line: write-back transfer to L2 (off critical path).
    const Cycle wb = bus_.acquire(now, config_.bus_line_cycles);
    emit_bus(wb, static_cast<std::uint32_t>(core), *r.dirty_victim, 1);
    l2_write_state(*r.dirty_victim, now);
  }
  if (const auto done = l1.mshrs().in_flight(line, now)) {
    return {.done = *done, .l1_hit = false, .l2_hit = false};
  }
  const Cycle free = l1.mshrs().first_free(now);
  l1.mshrs().add_stall(free - now);
  const Cycle tag_checked = free + cfg.hit_latency;
  const Cycle grant = bus_.acquire(tag_checked, config_.bus_line_cycles);
  emit_bus(grant, static_cast<std::uint32_t>(core), line, 0);
  const auto [l2_done, l2_hit] = l2_read(addr, grant + config_.bus_line_cycles);
  l1.mshrs().allocate(line, now, l2_done);
  return {.done = l2_done, .l1_hit = false, .l2_hit = l2_hit};
}

MemAccessResult MemoryHierarchy::load(CoreId core, Addr addr, Cycle now) {
  return read_through(core, *l1d_.at(core), config_.l1d, addr, now);
}

MemAccessResult MemoryHierarchy::ifetch(CoreId core, Addr addr, Cycle now) {
  Cache& l1i = *l1i_.at(core);
  const MemAccessResult demand =
      read_through(core, l1i, config_.l1i, addr, now);
  // Next-line prefetch: sequential code is the common case, so the fetch
  // engine streams the following line in the shadow of the demand access.
  const Addr next_line = l1i.line_addr(addr) + config_.l1i.line_bytes;
  if (!l1i.contains(next_line) &&
      !l1i.mshrs().in_flight(next_line, now).has_value() &&
      l1i.mshrs().first_free(now) <= now) {
    (void)read_through(core, l1i, config_.l1i, next_line, now);
  }
  return demand;
}

MemAccessResult MemoryHierarchy::store_writeback(CoreId core, Addr addr,
                                                 Cycle now) {
  Cache& l1 = *l1d_.at(core);
  const Addr line = l1.line_addr(addr);
  const LookupResult r = l1.access_write(addr);
  l1.avf_update(now);
  if (r.hit) {
    if (l1.mshrs().in_flight(line, now)) {
      // Store to a line whose fill is in flight: the data merges into the
      // MSHR's fill buffer — the store itself completes immediately.
      return {.done = now + config_.l1d.hit_latency, .l1_hit = false,
              .l2_hit = false};
    }
    return {.done = now + config_.l1d.hit_latency, .l1_hit = true,
            .l2_hit = false};
  }
  if (r.dirty_victim) {
    const Cycle wb = bus_.acquire(now, config_.bus_line_cycles);
    emit_bus(wb, static_cast<std::uint32_t>(core), *r.dirty_victim, 1);
    l2_write_state(*r.dirty_victim, now);
  }
  // Write-allocate: the line is fetched like a load miss, but the store
  // data is posted into the MSHR — only an MSHR-full condition delays the
  // store's completion from the core's point of view.
  if (l1.mshrs().in_flight(line, now)) {
    return {.done = now + config_.l1d.hit_latency, .l1_hit = false,
            .l2_hit = false};
  }
  const Cycle free = l1.mshrs().first_free(now);
  l1.mshrs().add_stall(free - now);
  const Cycle tag_checked = free + config_.l1d.hit_latency;
  const Cycle grant = bus_.acquire(tag_checked, config_.bus_line_cycles);
  emit_bus(grant, static_cast<std::uint32_t>(core), line, 0);
  const auto [l2_done, l2_hit] = l2_read(addr, grant + config_.bus_line_cycles);
  l1.mshrs().allocate(line, now, l2_done);
  return {.done = tag_checked, .l1_hit = false, .l2_hit = l2_hit};
}

Cycle MemoryHierarchy::store_writethrough_local(CoreId core, Addr addr,
                                                Cycle now) {
  Cache& l1 = *l1d_.at(core);
  l1.access_write(addr);  // refresh if present; no-write-allocate on miss
  l1.avf_update(now);
  return now + config_.l1d.hit_latency;
}

void MemoryHierarchy::prewarm_l2(Addr base, std::uint64_t bytes) {
  for (Addr a = l2_.line_addr(base); a < base + bytes;
       a += config_.l2.line_bytes) {
    l2_.access_read(a);
  }
}

void MemoryHierarchy::prewarm_icaches(Addr base, std::uint64_t bytes) {
  prewarm_l2(base, bytes);
  for (auto& icache : l1i_) {
    for (Addr a = icache->line_addr(base); a < base + bytes;
         a += config_.l1i.line_bytes) {
      icache->access_read(a);
    }
  }
}

Cycle MemoryHierarchy::push_word_to_l2(Addr addr, Cycle now) {
  const Cycle grant = bus_.acquire(now, config_.bus_word_cycles);
  emit_bus(grant, kSharedCore, addr, 2);
  const Cycle arrive = grant + config_.bus_word_cycles;
  l2_write_state(addr, arrive);
  return arrive + config_.l2.hit_latency;
}

void MemoryHierarchy::publish_metrics(obs::MetricsRegistry& reg,
                                      const std::string& prefix) const {
  const auto publish_cache = [&reg](const std::string& p, const Cache& c) {
    reg.set_counter(p + ".hits", c.hits());
    reg.set_counter(p + ".misses", c.misses());
    reg.set_counter(p + ".writebacks", c.writebacks());
    reg.set_counter(p + ".mshr_stall_cycles", c.mshrs().stall_cycles());
  };
  for (std::size_t i = 0; i < l1d_.size(); ++i) {
    publish_cache(prefix + ".l1d" + std::to_string(i), *l1d_[i]);
    publish_cache(prefix + ".l1i" + std::to_string(i), *l1i_[i]);
  }
  publish_cache(prefix + ".l2", l2_);
  reg.set_counter(prefix + ".bus.busy_cycles", bus_.busy_cycles());
  reg.set_counter(prefix + ".bus.transactions", bus_.transactions());
  reg.set_counter(prefix + ".dram.busy_cycles", dram_chan_.busy_cycles());
  reg.set_counter(prefix + ".dram.transactions", dram_chan_.transactions());
}

}  // namespace unsync::mem
