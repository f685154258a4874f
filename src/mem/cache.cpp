#include "mem/cache.hpp"

#include <algorithm>
#include <cassert>

namespace unsync::mem {

void MshrFile::prune(Cycle now) const {
  std::erase_if(misses_, [now](const Entry& e) { return e.done <= now; });
}

std::optional<Cycle> MshrFile::in_flight(Addr line_addr, Cycle now) const {
  prune(now);
  for (const auto& e : misses_) {
    if (e.line_addr == line_addr) return e.done;
  }
  return std::nullopt;
}

Cycle MshrFile::first_free(Cycle now) const {
  prune(now);
  if (misses_.size() < entries_) return now;
  Cycle earliest = misses_.front().done;
  for (const auto& e : misses_) earliest = std::min(earliest, e.done);
  return earliest;
}

void MshrFile::allocate(Addr line_addr, Cycle now, Cycle done) {
  prune(now);
  assert(misses_.size() < entries_);
  misses_.push_back({line_addr, done});
  if (avf_) avf_->add(done > now ? done - now : 0);
}

std::uint32_t MshrFile::occupancy(Cycle now) const {
  prune(now);
  return static_cast<std::uint32_t>(misses_.size());
}

namespace {
unsigned log2_exact(std::uint64_t v) {
  unsigned s = 0;
  while ((std::uint64_t{1} << s) < v) ++s;
  return s;
}
}  // namespace

Cache::Cache(const CacheConfig& config)
    : config_(config),
      lines_(static_cast<std::size_t>(config.num_sets()) * config.assoc),
      mshrs_(config.mshrs) {
  assert(config.num_sets() > 0 && (config.num_sets() & (config.num_sets() - 1)) == 0 &&
         "set count must be a power of two");
  assert((config.line_bytes & (config.line_bytes - 1)) == 0 &&
         "line size must be a power of two");
  line_shift_ = log2_exact(config.line_bytes);
  set_shift_ = log2_exact(config.num_sets());
  set_mask_ = config.num_sets() - 1;
}

std::size_t Cache::set_index(Addr addr) const {
  return static_cast<std::size_t>((addr >> line_shift_) & set_mask_);
}

Addr Cache::tag_of(Addr addr) const {
  return addr >> (line_shift_ + set_shift_);
}

bool Cache::contains(Addr addr) const {
  const auto set = set_index(addr) * config_.assoc;
  const Addr tag = tag_of(addr);
  for (std::uint32_t w = 0; w < config_.assoc; ++w) {
    if (lines_[set + w].valid && lines_[set + w].tag == tag) return true;
  }
  return false;
}

bool Cache::line_dirty(Addr addr) const {
  const auto set = set_index(addr) * config_.assoc;
  const Addr tag = tag_of(addr);
  for (std::uint32_t w = 0; w < config_.assoc; ++w) {
    const Line& l = lines_[set + w];
    if (l.valid && l.tag == tag) return l.dirty;
  }
  return false;
}

LookupResult Cache::lookup(Addr addr, bool is_write) {
  // One shift serves both decompositions (set + tag) on this per-access
  // hot path; set_index()/tag_of() stay for the cold probe helpers.
  const Addr line = addr >> line_shift_;
  const auto set_bits = static_cast<std::size_t>(line & set_mask_);
  const auto set = set_bits * config_.assoc;
  const Addr tag = line >> set_shift_;
  ++lru_clock_;

  for (std::uint32_t w = 0; w < config_.assoc; ++w) {
    Line& l = lines_[set + w];
    if (l.valid && l.tag == tag) {
      ++hits_;
      l.lru = lru_clock_;
      if (is_write && config_.write_policy == WritePolicy::kWriteBack) {
        l.dirty = true;
      }
      return {.hit = true, .dirty_victim = std::nullopt};
    }
  }

  ++misses_;
  // Write miss under write-through: no-write-allocate — the word goes to
  // the next level but the line is not brought in.
  if (is_write && config_.write_policy == WritePolicy::kWriteThrough) {
    return {.hit = false, .dirty_victim = std::nullopt};
  }

  // Choose victim: first invalid way, else LRU.
  std::size_t victim = set;
  for (std::uint32_t w = 0; w < config_.assoc; ++w) {
    if (!lines_[set + w].valid) {
      victim = set + w;
      break;
    }
    if (lines_[set + w].lru < lines_[victim].lru) victim = set + w;
  }

  LookupResult r;
  r.hit = false;
  Line& v = lines_[victim];
  if (v.valid && v.dirty) {
    ++writebacks_;
    r.dirty_victim = ((v.tag << set_shift_) | set_bits) << line_shift_;
  }
  if (!v.valid) ++valid_count_;
  v.valid = true;
  v.tag = tag;
  v.dirty = is_write && config_.write_policy == WritePolicy::kWriteBack;
  v.lru = lru_clock_;
  return r;
}

LookupResult Cache::access_read(Addr addr) { return lookup(addr, false); }

LookupResult Cache::access_write(Addr addr) { return lookup(addr, true); }

bool Cache::invalidate(Addr addr) {
  const auto set = set_index(addr) * config_.assoc;
  const Addr tag = tag_of(addr);
  for (std::uint32_t w = 0; w < config_.assoc; ++w) {
    Line& l = lines_[set + w];
    if (l.valid && l.tag == tag) {
      l.valid = false;
      l.dirty = false;
      --valid_count_;
      return true;
    }
  }
  return false;
}

void Cache::invalidate_all() {
  for (auto& l : lines_) {
    l.valid = false;
    l.dirty = false;
  }
  valid_count_ = 0;
}

std::uint64_t Cache::lines_dirty() const {
  return static_cast<std::uint64_t>(
      std::count_if(lines_.begin(), lines_.end(),
                    [](const Line& l) { return l.valid && l.dirty; }));
}

double Cache::miss_rate() const {
  const auto total = hits_ + misses_;
  return total ? static_cast<double>(misses_) / static_cast<double>(total) : 0.0;
}

}  // namespace unsync::mem
