#include "runtime/prefix.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "ckpt/archive.hpp"
#include "common/rng.hpp"
#include "core/factory.hpp"
#include "runtime/campaign_journal.hpp"

namespace unsync::runtime {

namespace {

/// Serialised u64 fields of a PrefixStats, in encode() order.
constexpr std::size_t kStatsFields = 10;

std::uint64_t* stats_fields(PrefixStats& s, std::size_t i) {
  std::uint64_t* fields[kStatsFields] = {
      &s.goldens_built, &s.hits,           &s.misses,        &s.evictions,
      &s.bytes,         &s.restore_ns,     &s.cycles_skipped,
      &s.jobs_restored, &s.jobs_spliced,   &s.jobs_bypassed};
  return fields[i];
}

/// Per-thread stream length of a job — what construction hands to
/// core::System::draw_arrivals. Every thread replays a clone of the same
/// stream, so all groups share one length.
std::uint64_t job_stream_length(const SimJob& job) {
  if (!job.profile.empty()) return job.insts;
  return job.trace ? job.trace->size() : 0;
}

/// The golden twin of a job: identical cell, error process off.
SimJob golden_job(const SimJob& job) {
  SimJob g = job;
  g.ser_per_inst = 0.0;
  return g;
}

/// Latest golden checkpoint that provably precedes every group's first
/// arrival: safe iff no group's commit watermark has reached its first
/// strike position (arrivals fire when progress >= position, so equality
/// already means "fired"). nullptr when even the first boundary is too
/// late.
const GoldenTrace::Snap* latest_safe_snap(const GoldenTrace& golden,
                                          const FaultChannel& channel) {
  for (auto it = golden.snaps.rbegin(); it != golden.snaps.rend(); ++it) {
    const GoldenTrace::Snap& snap = *it;
    if (snap.progress.size() != channel.schedules.size()) return nullptr;
    bool safe = true;
    for (std::size_t g = 0; g < channel.schedules.size() && safe; ++g) {
      safe = channel.schedules[g].empty() ||
             snap.progress[g] < channel.schedules[g].front();
    }
    if (safe) return &snap;
  }
  return nullptr;
}

}  // namespace

void PrefixStats::merge(const PrefixStats& o) {
  PrefixStats copy = o;  // const-friendly field access
  for (std::size_t i = 0; i < kStatsFields; ++i) {
    *stats_fields(*this, i) += *stats_fields(copy, i);
  }
}

obs::MetricsSnapshot PrefixStats::snapshot() const {
  obs::MetricsRegistry reg;
  reg.set_counter("campaign.prefix_cache.goldens_built", goldens_built);
  reg.set_counter("campaign.prefix_cache.hits", hits);
  reg.set_counter("campaign.prefix_cache.misses", misses);
  reg.set_counter("campaign.prefix_cache.evictions", evictions);
  reg.set_counter("campaign.prefix_cache.bytes", bytes);
  reg.set_counter("campaign.prefix_cache.restore_ns", restore_ns);
  reg.set_counter("campaign.prefix_cache.cycles_skipped", cycles_skipped);
  reg.set_counter("campaign.prefix_cache.jobs_restored", jobs_restored);
  reg.set_counter("campaign.prefix_cache.jobs_early_terminated",
                  jobs_spliced);
  reg.set_counter("campaign.prefix_cache.jobs_bypassed", jobs_bypassed);
  return reg.snapshot();
}

std::string PrefixStats::encode() const {
  ckpt::Serializer s;
  PrefixStats copy = *this;
  for (std::size_t i = 0; i < kStatsFields; ++i) {
    s.u64(*stats_fields(copy, i));
  }
  return s.take();
}

std::optional<PrefixStats> PrefixStats::decode(std::string blob) {
  try {
    ckpt::Deserializer d(std::move(blob));
    PrefixStats out;
    for (std::size_t i = 0; i < kStatsFields; ++i) {
      *stats_fields(out, i) = d.u64();
    }
    if (!d.at_end()) return std::nullopt;
    return out;
  } catch (const ckpt::CkptError&) {
    return std::nullopt;
  }
}

FaultChannel compute_fault_channel(const SimJob& job, std::uint64_t seed) {
  FaultChannel ch;
  if (job.system == core::SystemKind::kBaseline) {
    // The baseline has no error process: empty channel, empty wire bytes
    // (installing it is a no-op).
    ch.schedules.assign(job.app_threads, {});
    return ch;
  }
  // The construction-time draw of every redundant system, from an RNG
  // seeded with the job seed.
  Rng rng(seed);
  ch.schedules = core::System::draw_arrivals(
      job.ser_per_inst,
      std::vector<std::uint64_t>(job.app_threads, job_stream_length(job)),
      rng);
  ch.has_rng = true;

  // Encoded through the systems' own channel walk, with every cursor at 0:
  // nothing has fired yet.
  std::vector<engine::ArrivalCursor> cursors(ch.schedules.size());
  engine::FaultSources sources{&rng, {}, ""};
  for (std::size_t g = 0; g < cursors.size(); ++g) {
    cursors[g].positions = ch.schedules[g];
    sources.arrivals.push_back(&cursors[g]);
  }
  ckpt::Serializer s;
  ckpt::Archive ar(s);
  sources.visit(ar);
  ch.encoded = s.take();
  return ch;
}

std::string golden_job_key(const SimJob& job, std::uint64_t seed) {
  ckpt::Serializer s;
  s.u8(static_cast<std::uint8_t>(job.system));
  s.str(job.profile);
  s.u64(reinterpret_cast<std::uintptr_t>(job.trace.get()));
  s.u64(job.trace ? job.trace->size() : 0);
  s.u64(job.insts);
  s.u32(job.app_threads);
  s.b(job.avf);
  for (const auto m : job.protect.mechanism) {
    s.u8(static_cast<std::uint8_t>(m));
  }
  // Synthetic streams are generated from the seed, so profile cells only
  // share a golden within one seed; trace replays are seed-independent, so
  // every Monte-Carlo trial of a trace cell shares one golden run.
  s.b(!job.profile.empty());
  s.u64(job.profile.empty() ? 0 : seed);
  encode_params(s, job.params);
  return s.take();
}

PrefixStats PrefixEngine::stats() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void PrefixEngine::note_bypass() {
  const std::lock_guard<std::mutex> lock(mu_);
  ++stats_.jobs_bypassed;
}

std::vector<std::size_t> PrefixEngine::schedule_order(
    const std::vector<SimJob>& jobs, std::uint64_t campaign_seed) const {
  struct Key {
    std::string golden;
    SeqNum first_arrival = 0;
    std::size_t index = 0;
  };
  std::vector<Key> keys;
  keys.reserve(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    Key k;
    k.index = i;
    const std::uint64_t seed = job_seed(jobs, campaign_seed, i);
    k.golden = golden_job_key(jobs[i], seed);
    const FaultChannel ch = compute_fault_channel(jobs[i], seed);
    SeqNum first = kNoSeq;
    for (const auto& sched : ch.schedules) {
      if (!sched.empty()) first = std::min(first, sched.front());
    }
    // Arrival-free jobs sort first within their group: they return the
    // golden result directly, so running one early builds the golden every
    // sibling needs.
    k.first_arrival = first == kNoSeq ? 0 : first;
    keys.push_back(std::move(k));
  }
  std::vector<std::size_t> order(jobs.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     const Key& ka = keys[a];
                     const Key& kb = keys[b];
                     if (ka.golden != kb.golden) return ka.golden < kb.golden;
                     if (ka.first_arrival != kb.first_arrival) {
                       return ka.first_arrival < kb.first_arrival;
                     }
                     return ka.index < kb.index;
                   });
  return order;
}

std::shared_ptr<const GoldenTrace> build_golden(const SimJob& job,
                                                std::uint64_t seed,
                                                Cycle interval) {
  const SimJob gjob = golden_job(job);
  const auto stream = make_job_stream(gjob, seed);
  const auto sys = core::make_system(gjob.system, job_system_config(gjob, seed),
                                     *stream, gjob.params);

  auto trace = std::make_shared<GoldenTrace>();
  // Every boundary saves into the same buffer, packed as it is written.
  ckpt::Serializer scratch(ckpt::Serializer::Sink::kPacked);
  for (Cycle k = 1;; ++k) {
    const Cycle boundary = k * interval;
    engine::RunResult r = sys->run(boundary);
    if (r.cycles < boundary) {
      trace->final_result = std::move(r);
      break;
    }
    GoldenTrace::Snap snap;
    snap.boundary = boundary;
    sys->save_checkpoint(scratch);
    snap.state = scratch.take_packed();
    snap.progress = sys->group_progress();
    trace->bytes += snap.state.bytes();
    trace->snaps.push_back(std::move(snap));
  }
  return trace;
}

void restore_golden(core::System& sys, const GoldenTrace::Snap& snap) {
  sys.load_checkpoint_packed(snap.state);
}

void PrefixEngine::evict_over_budget_locked(const std::string& keep) {
  const std::size_t budget = options_.cache_mb * std::size_t{1024} * 1024;
  while (stats_.bytes > budget && !lru_.empty()) {
    // Least-recently-used ready entry other than the one being kept.
    auto victim = lru_.end();
    for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
      if (*it == keep) continue;
      const auto found = cache_.find(*it);
      if (found != cache_.end() && found->second.ready) {
        victim = std::prev(it.base());
        break;
      }
    }
    if (victim == lru_.end()) break;
    const auto found = cache_.find(*victim);
    stats_.bytes -= found->second.bytes;
    ++stats_.evictions;
    cache_.erase(found);
    lru_.erase(victim);
  }
}

void PrefixEngine::insert_golden(const std::string& key,
                                 std::shared_ptr<const GoldenTrace> trace) {
  const std::size_t budget = options_.cache_mb * std::size_t{1024} * 1024;
  // A single golden larger than the whole budget is thinned before
  // publication (dropping every other checkpoint halves the bytes while
  // keeping restore coverage).
  if (trace->bytes > budget) {
    auto thinned = std::make_shared<GoldenTrace>(*trace);
    while (thinned->bytes > budget && thinned->snaps.size() > 1) {
      std::vector<GoldenTrace::Snap> kept;
      kept.reserve(thinned->snaps.size() / 2 + 1);
      thinned->bytes = 0;
      for (std::size_t i = 0; i < thinned->snaps.size(); ++i) {
        if (i % 2 == 0) continue;  // keep the later of each pair
        thinned->bytes += thinned->snaps[i].state.bytes();
        kept.push_back(std::move(thinned->snaps[i]));
      }
      thinned->snaps = std::move(kept);
    }
    trace = std::move(thinned);
  }
  const std::lock_guard<std::mutex> lock(mu_);
  CacheEntry& entry = cache_[key];
  entry.ready = true;
  entry.trace = trace;
  entry.bytes = trace->bytes;
  stats_.bytes += entry.bytes;
  ++stats_.goldens_built;
  evict_over_budget_locked(key);
  cv_.notify_all();
}

std::shared_ptr<const GoldenTrace> PrefixEngine::acquire_golden(
    const SimJob& job, std::uint64_t seed) {
  const std::string key = golden_job_key(job, seed);
  {
    std::unique_lock<std::mutex> lock(mu_);
    auto it = cache_.find(key);
    if (it == cache_.end()) {
      ++stats_.misses;
      CacheEntry entry;
      lru_.push_front(key);
      entry.lru = lru_.begin();
      cache_.emplace(key, std::move(entry));
    } else {
      ++stats_.hits;
      lru_.splice(lru_.begin(), lru_, it->second.lru);
      it->second.lru = lru_.begin();
      cv_.wait(lock, [&] {
        const auto found = cache_.find(key);
        return found == cache_.end() || found->second.ready;
      });
      const auto found = cache_.find(key);
      if (found != cache_.end()) return found->second.trace;
      // The builder failed (exception) or the entry was evicted while we
      // waited: become the builder ourselves.
      CacheEntry entry;
      lru_.push_front(key);
      entry.lru = lru_.begin();
      cache_.emplace(key, std::move(entry));
    }
  }
  std::shared_ptr<const GoldenTrace> trace;
  try {
    trace = build_golden(job, seed, options_.interval);
  } catch (...) {
    const std::lock_guard<std::mutex> lock(mu_);
    const auto it = cache_.find(key);
    if (it != cache_.end()) {
      lru_.erase(it->second.lru);
      cache_.erase(it);
    }
    cv_.notify_all();
    throw;
  }
  insert_golden(key, trace);
  return trace;
}

engine::RunResult PrefixEngine::run_job(const SimJob& job, std::uint64_t seed) {
  const FaultChannel channel = compute_fault_channel(job, seed);
  const std::shared_ptr<const GoldenTrace> golden = acquire_golden(job, seed);

  if (channel.empty()) {
    // No arrival anywhere: the job IS the golden run (the only state that
    // differs — RNG words — is never consumed and never reported).
    const std::lock_guard<std::mutex> lock(mu_);
    ++stats_.jobs_spliced;
    stats_.cycles_skipped += golden->final_result.cycles;
    return golden->final_result;
  }

  // Construct the golden twin and overlay the job's fault channel: before
  // the first arrival the two runs are state-identical except for that
  // channel, so a golden checkpoint plus the channel reproduces the faulty
  // run exactly.
  const SimJob gjob = golden_job(job);
  const auto stream = make_job_stream(gjob, seed);
  const auto sys = core::make_system(gjob.system, job_system_config(gjob, seed),
                                     *stream, gjob.params);

  if (const GoldenTrace::Snap* snap = latest_safe_snap(*golden, channel)) {
    const auto t0 = std::chrono::steady_clock::now();
    restore_golden(*sys, *snap);
    const auto dt = std::chrono::steady_clock::now() - t0;
    const std::lock_guard<std::mutex> lock(mu_);
    ++stats_.jobs_restored;
    stats_.cycles_skipped += snap->boundary;
    stats_.restore_ns += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(dt).count());
  }
  sys->install_fault_channel(channel.encoded);
  return sys->run();
}

}  // namespace unsync::runtime
