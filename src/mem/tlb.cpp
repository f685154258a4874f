#include "mem/tlb.hpp"

#include <cassert>

namespace unsync::mem {

Tlb::Tlb(const TlbConfig& config)
    : config_(config),
      num_sets_(config.entries / config.assoc),
      entries_(config.entries) {
  assert(config.assoc > 0 && config.entries % config.assoc == 0);
  assert(num_sets_ > 0);
}

bool Tlb::contains(Addr addr) const {
  const Addr vpn = vpn_of(addr);
  const std::size_t base = set_of(vpn) * config_.assoc;
  for (std::uint32_t w = 0; w < config_.assoc; ++w) {
    const Entry& e = entries_[base + w];
    if (e.valid && e.vpn == vpn) return true;
  }
  return false;
}

bool Tlb::access(Addr addr) {
  const Addr vpn = vpn_of(addr);
  const std::size_t base = set_of(vpn) * config_.assoc;
  ++clock_;
  for (std::uint32_t w = 0; w < config_.assoc; ++w) {
    Entry& e = entries_[base + w];
    if (e.valid && e.vpn == vpn) {
      e.lru = clock_;
      ++hits_;
      return true;
    }
  }
  ++misses_;
  // Install the walked translation over the LRU way.
  std::size_t victim = base;
  for (std::uint32_t w = 0; w < config_.assoc; ++w) {
    if (!entries_[base + w].valid) {
      victim = base + w;
      break;
    }
    if (entries_[base + w].lru < entries_[victim].lru) victim = base + w;
  }
  if (!entries_[victim].valid) ++valid_count_;
  entries_[victim] = {vpn, true, clock_};
  return false;
}

void Tlb::flush() {
  for (auto& e : entries_) e.valid = false;
  valid_count_ = 0;
}

}  // namespace unsync::mem
