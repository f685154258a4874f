#include "mem/cache.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

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

bool power_of_two(std::uint64_t v) { return v != 0 && (v & (v - 1)) == 0; }

/// The geometry checks run in every build (asserts compile out under
/// NDEBUG); returns the validated config for the member initialisers.
const CacheConfig& checked(const CacheConfig& c) {
  if (!power_of_two(c.line_bytes)) {
    throw std::invalid_argument("cache line size must be a power of two");
  }
  if (c.assoc < 1 || c.assoc > Cache::max_assoc()) {
    throw std::invalid_argument("cache associativity must be in [1, " +
                                std::to_string(Cache::max_assoc()) + "]");
  }
  if (!power_of_two(c.size_bytes / (std::uint64_t{c.line_bytes} * c.assoc))) {
    throw std::invalid_argument("cache set count must be a power of two");
  }
  return c;
}
}  // namespace

Cache::Cache(const CacheConfig& config)
    : config_(checked(config)),
      lines_(static_cast<std::size_t>(config.num_sets()) * config.assoc),
      used_(config.num_sets()),
      mshrs_(config.mshrs) {
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
  const auto set = set_index(addr);
  const Addr tag = tag_of(addr);
  const Line* ways = &lines_[set * config_.assoc];
  for (std::uint32_t w = 0; w < used_[set]; ++w) {
    if (ways[w].valid && ways[w].tag == tag) return true;
  }
  return false;
}

bool Cache::line_dirty(Addr addr) const {
  const auto set = set_index(addr);
  const Addr tag = tag_of(addr);
  const Line* ways = &lines_[set * config_.assoc];
  for (std::uint32_t w = 0; w < used_[set]; ++w) {
    if (ways[w].valid && ways[w].tag == tag) return ways[w].dirty;
  }
  return false;
}

LookupResult Cache::lookup(Addr addr, bool is_write) {
  // One shift serves both decompositions (set + tag) on this per-access
  // hot path; set_index()/tag_of() stay for the cold probe helpers.
  const Addr line = addr >> line_shift_;
  const auto set_bits = static_cast<std::size_t>(line & set_mask_);
  Line* ways = &lines_[set_bits * config_.assoc];
  const std::uint32_t used = used_[set_bits];
  const Addr tag = line >> set_shift_;
  ++lru_clock_;

  for (std::uint32_t w = 0; w < used; ++w) {
    Line& l = ways[w];
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

  // Choose victim: first invalid way, else LRU. An unused way is an
  // invalid all-zero line, so the first one is taken after the used ways.
  Line* victim = ways;
  bool found_invalid = false;
  for (std::uint32_t w = 0; w < used; ++w) {
    if (!ways[w].valid) {
      victim = &ways[w];
      found_invalid = true;
      break;
    }
    if (ways[w].lru < victim->lru) victim = &ways[w];
  }
  if (!found_invalid && used < config_.assoc) {
    victim = &ways[used];
    *victim = Line{};
    ++used_[set_bits];
  }

  LookupResult r;
  r.hit = false;
  Line& v = *victim;
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

void Cache::prewarm(Addr base, std::uint64_t bytes) {
  for (Addr a = line_addr(base); a < base + bytes; a += config_.line_bytes) {
    const Addr line = a >> line_shift_;
    const auto set = static_cast<std::size_t>(line & set_mask_);
    if (used_[set] != 0) {
      lookup(a, false);
      continue;
    }
    // A set no fill has reached yet: the miss lookup() would take, without
    // its way scans.
    lines_[set * config_.assoc] = {.tag = line >> set_shift_, .valid = true,
                                   .dirty = false, .lru = ++lru_clock_};
    used_[set] = 1;
    ++misses_;
    ++valid_count_;
  }
}

bool Cache::invalidate(Addr addr) {
  const auto set = set_index(addr);
  const Addr tag = tag_of(addr);
  Line* ways = &lines_[set * config_.assoc];
  for (std::uint32_t w = 0; w < used_[set]; ++w) {
    Line& l = ways[w];
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
  // Tags and LRU stamps stay: they are part of the checkpointed state.
  for (std::size_t set = 0; set < used_.size(); ++set) {
    Line* ways = &lines_[set * config_.assoc];
    for (std::uint32_t w = 0; w < used_[set]; ++w) {
      ways[w].valid = false;
      ways[w].dirty = false;
    }
  }
  valid_count_ = 0;
}

std::uint64_t Cache::lines_dirty() const {
  std::uint64_t n = 0;
  for (std::size_t set = 0; set < used_.size(); ++set) {
    const Line* ways = &lines_[set * config_.assoc];
    for (std::uint32_t w = 0; w < used_[set]; ++w) {
      n += ways[w].valid && ways[w].dirty;
    }
  }
  return n;
}

double Cache::miss_rate() const {
  const auto total = hits_ + misses_;
  return total ? static_cast<double>(misses_) / static_cast<double>(total) : 0.0;
}

}  // namespace unsync::mem
