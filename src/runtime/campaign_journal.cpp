#include "runtime/campaign_journal.hpp"

#include <fstream>

#include "ckpt/archive.hpp"
#include "common/rng.hpp"

namespace unsync::runtime {

void encode_params(ckpt::Serializer& s, const core::SystemParams& p) {
  s.u32(p.unsync.group_size);
  s.u64(p.unsync.cb_entries);
  s.u32(p.unsync.drain_per_cycle);
  s.u64(p.unsync.eih_signal_cycles);
  s.u64(p.unsync.state_copy_word_cycles);
  s.u32(p.unsync.arch_state_words);
  s.u64(p.unsync.l1_copy_line_cycles);
  s.u32(p.reunion.fingerprint_interval);
  s.u64(p.reunion.compare_latency);
  s.u32(p.reunion.csb_entries);
  s.u64(p.reunion.rollback_penalty);
  s.u32(p.lockstep.max_skew);
  s.u64(p.lockstep.load_check_latency);
  s.u64(p.lockstep.resync_penalty);
  s.u64(p.checkpoint.checkpoint_interval);
  s.u64(p.checkpoint.checkpoint_cost);
  s.u64(p.checkpoint.compare_latency);
  s.u64(p.checkpoint.restore_cost);
  s.u64(p.hetero.log_entries);
  s.u32(p.hetero.checker_width);
  s.u64(p.hetero.checker_load_latency);
  s.u64(p.hetero.rollback_penalty);
  // Formerly the model tier; every run is cycle-accurate now. Written as
  // 0 so existing journal headers and golden keys keep their bytes.
  s.u8(0);
}

std::uint32_t grid_fingerprint(const std::vector<SimJob>& jobs) {
  ckpt::Serializer s;
  for (const auto& job : jobs) {
    s.str(job.label);
    s.str(job.profile);
    s.b(static_cast<bool>(job.trace));
    s.u64(job.trace ? job.trace->size() : 0);
    s.u8(static_cast<std::uint8_t>(job.system));
    s.u64(job.insts);
    s.f64(job.ser_per_inst);
    s.u32(job.app_threads);
    // Formerly the engine.fast_forward flag; every run fast-forwards now.
    // Written as false so existing journal headers keep their bytes, while
    // a journal written with the flag set matches no grid and is refused.
    s.b(false);
    s.b(job.seed.has_value());
    s.u64(job.seed.value_or(0));
    s.b(job.avf);
    for (const auto m : job.protect.mechanism) {
      s.u8(static_cast<std::uint8_t>(m));
    }
    encode_params(s, job.params);
  }
  return ckpt::crc32(s.data());
}

ckpt::JournalHeader make_journal_header(const std::vector<SimJob>& jobs,
                                        std::uint64_t campaign_seed,
                                        bool collect_metrics, bool prefix,
                                        Cycle prefix_interval) {
  ckpt::JournalHeader h;
  h.campaign_seed = campaign_seed;
  h.jobs = jobs.size();
  h.grid_crc = grid_fingerprint(jobs);
  if (prefix) {
    // Fold the prefix policy into the grid CRC only when the engine is on
    // (the header line format itself is unchanged), so prefix_share=0
    // journals stay byte-identical to builds that predate the engine.
    ckpt::Serializer s;
    s.u32(h.grid_crc);
    s.b(true);
    s.u64(prefix_interval);
    h.grid_crc = ckpt::crc32(s.data());
  }
  h.collect_metrics = collect_metrics;
  return h;
}

bool entry_acceptable(const engine::RunResult& result) {
  return !result.approximate;
}

std::string encode_entry_blob(const engine::RunResult& result,
                              const obs::MetricsSnapshot* metrics) {
  ckpt::Serializer s;
  ckpt::Archive ar(s);
  const_cast<engine::RunResult&>(result).visit(ar);  // Save mode only reads
  s.b(metrics != nullptr);
  if (metrics) metrics->save(s);
  return s.take();
}

std::optional<RestoredJob> decode_entry_blob(std::string blob) {
  try {
    ckpt::Deserializer d(std::move(blob));
    RestoredJob r;
    ckpt::Archive ar(d);
    r.result.visit(ar);
    r.has_metrics = d.b();
    if (r.has_metrics) r.metrics.load(d);
    if (!d.at_end()) return std::nullopt;
    return r;
  } catch (const ckpt::CkptError&) {
    return std::nullopt;
  }
}

std::uint64_t job_seed(const std::vector<SimJob>& jobs,
                       std::uint64_t campaign_seed, std::size_t index) {
  return jobs[index].seed
             ? *jobs[index].seed
             : derive_seed(campaign_seed, static_cast<std::uint64_t>(index));
}

namespace {

/// Shared walk over a journal file: validates the header against `expect`
/// and invokes `on_entry` for every CRC-valid entry line. Returns false if
/// the file is missing or empty (fresh campaign).
template <typename Fn>
bool for_each_valid_entry(const std::string& path,
                          const ckpt::JournalHeader& expect, Fn&& on_entry) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;

  std::string line;
  if (!std::getline(in, line) || line.empty()) return false;

  const auto header = ckpt::JournalHeader::parse(line);
  if (!header) {
    throw ckpt::CkptError("campaign journal '" + path +
                          "': missing or unknown schema header");
  }
  header->require_match(expect, path);

  while (std::getline(in, line)) {
    auto entry = ckpt::parse_entry_line(line, expect.jobs);
    if (!entry) continue;
    on_entry(std::move(*entry));
  }
  return true;
}

}  // namespace

std::vector<std::optional<RestoredJob>> load_journal(
    const std::string& path, const ckpt::JournalHeader& expect) {
  std::vector<std::optional<RestoredJob>> restored(
      static_cast<std::size_t>(expect.jobs));
  for_each_valid_entry(path, expect, [&](ckpt::ParsedEntry entry) {
    auto job = decode_entry_blob(std::move(entry.blob));
    if (!job || job->has_metrics != expect.collect_metrics) return;
    restored[static_cast<std::size_t>(entry.index)] =
        std::move(*job);  // duplicate index: last wins
  });
  return restored;
}

std::vector<char> journal_done_mask(const std::string& path,
                                    const ckpt::JournalHeader& expect) {
  std::vector<char> done(static_cast<std::size_t>(expect.jobs), 0);
  for_each_valid_entry(path, expect, [&](ckpt::ParsedEntry entry) {
    // The CRC already guards the payload; decode anyway so a torn line
    // whose fields happen to parse can never mark a job as done.
    auto job = decode_entry_blob(std::move(entry.blob));
    if (!job || job->has_metrics != expect.collect_metrics) return;
    done[static_cast<std::size_t>(entry.index)] = 1;
  });
  return done;
}

JournalStatus journal_status(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw ckpt::CkptError("campaign journal '" + path + "': cannot open");
  }
  std::string line;
  if (!std::getline(in, line) || line.empty()) {
    throw ckpt::CkptError("campaign journal '" + path + "': empty file");
  }
  const auto header = ckpt::JournalHeader::parse(line);
  if (!header) {
    throw ckpt::CkptError("campaign journal '" + path +
                          "': missing or unknown schema header");
  }

  JournalStatus status;
  status.header = *header;
  std::vector<char> seen(static_cast<std::size_t>(header->jobs), 0);
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (auto stats_blob = ckpt::parse_stats_line(line)) {
      // Prefix-engine totals appended at campaign end. Last valid line
      // wins (resume rewrites the journal, then appends a fresh one).
      if (auto stats = PrefixStats::decode(std::move(*stats_blob))) {
        status.prefix = *stats;
      } else {
        ++status.corrupt;
      }
      continue;
    }
    auto entry = ckpt::parse_entry_line(line, header->jobs);
    const std::optional<RestoredJob> job =
        entry ? decode_entry_blob(std::move(entry->blob))
              : std::optional<RestoredJob>();
    if (!entry || !job || job->has_metrics != header->collect_metrics) {
      ++status.corrupt;
      continue;
    }
    char& mark = seen[static_cast<std::size_t>(entry->index)];
    if (mark) {
      ++status.duplicates;
    } else {
      mark = 1;
      ++status.done;
    }
  }
  return status;
}

}  // namespace unsync::runtime
