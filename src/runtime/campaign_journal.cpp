#include "runtime/campaign_journal.hpp"

#include <stdexcept>
#include <string_view>
#include <unordered_map>

#include "ckpt/archive.hpp"
#include "ckpt/serializer.hpp"
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

std::uint64_t job_seed(const std::vector<SimJob>& jobs,
                       std::uint64_t campaign_seed, std::size_t index) {
  return jobs[index].seed
             ? *jobs[index].seed
             : derive_seed(campaign_seed, static_cast<std::uint64_t>(index));
}

namespace {

/// Decodes journal-blob bytes; nullopt if truncated/corrupt/trailing.
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

/// Reads a journal's header line; nullopt if the file is missing or empty.
/// A first line that is not a campaign-journal header throws.
std::optional<ckpt::JournalHeader> read_header(std::ifstream& in,
                                               const std::string& path) {
  std::string line;
  if (!in || !std::getline(in, line) || line.empty()) return std::nullopt;
  auto header = ckpt::JournalHeader::parse(line);
  if (!header) {
    throw ckpt::CkptError("campaign journal '" + path +
                          "': missing or unknown schema header");
  }
  return header;
}

}  // namespace

std::vector<std::optional<RestoredJob>> load_journal(
    const std::string& path, const ckpt::JournalHeader& expect,
    const std::vector<SimJob>& jobs) {
  std::vector<std::optional<RestoredJob>> restored(jobs.size());
  std::ifstream in(path, std::ios::binary);
  const auto header = read_header(in, path);
  if (!header) return restored;
  header->require_match(expect, path);

  for (std::string line; std::getline(in, line);) {
    auto entry = ckpt::parse_entry_line(line, jobs.size());
    if (!entry) continue;
    const auto i = static_cast<std::size_t>(entry->index);
    if (!line.starts_with(ckpt::journal_entry_prefix(
            i, jobs[i].label, job_seed(jobs, expect.campaign_seed, i)))) {
      continue;
    }
    auto job = decode_entry_blob(std::move(entry->blob));
    if (!job || job->has_metrics != expect.collect_metrics ||
        !entry_acceptable(job->result)) {
      continue;
    }
    restored[i] = std::move(*job);  // duplicate index: last wins
  }
  return restored;
}

JournalWriter::JournalWriter(const std::string& path,
                             const ckpt::JournalHeader& header,
                             const std::vector<SimJob>& jobs, bool resume)
    : jobs_(jobs), campaign_seed_(header.campaign_seed) {
  restored_ = resume ? load_journal(path, header, jobs)
                     : std::vector<std::optional<RestoredJob>>(jobs.size());
  std::string rewrite = header.to_line();
  rewrite.push_back('\n');
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const auto& job = restored_[i];
    if (!job) continue;
    rewrite += entry_line(i, job->result,
                          job->has_metrics ? &job->metrics : nullptr);
    rewrite.push_back('\n');
  }
  ckpt::atomic_write_text(path, rewrite);
  out_.open(path, std::ios::binary | std::ios::app);
  if (!out_) {
    throw std::runtime_error("cannot open campaign journal '" + path +
                             "' for append");
  }
}

void JournalWriter::append(std::size_t index, const engine::RunResult& result,
                           const obs::MetricsSnapshot* metrics) {
  write_line(entry_line(index, result, metrics));
}

void JournalWriter::append_stats(const PrefixStats& stats) {
  write_line(ckpt::journal_stats_line(stats.encode()));
}

std::string JournalWriter::entry_line(
    std::size_t index, const engine::RunResult& result,
    const obs::MetricsSnapshot* metrics) const {
  return ckpt::journal_entry_line(index, jobs_[index].label,
                                  job_seed(jobs_, campaign_seed_, index),
                                  encode_entry_blob(result, metrics));
}

void JournalWriter::write_line(std::string line) {
  line.push_back('\n');
  const std::lock_guard<std::mutex> lock(mu_);
  out_ << line;
  out_.flush();
}

engine::RunResult run_campaign_job(const SimJob& job, std::uint64_t seed,
                                   PrefixEngine* engine,
                                   obs::MetricsSnapshot* metrics) {
  if (metrics) {
    if (engine) engine->note_bypass();
    obs::MetricsRegistry reg;
    engine::RunResult result = CampaignRunner::run_job(job, seed, &reg);
    *metrics = reg.snapshot();
    return result;
  }
  if (engine) return engine->run_job(job, seed);
  return CampaignRunner::run_job(job, seed);
}

JournalStatus journal_status(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  const auto header = read_header(in, path);
  if (!header) {
    throw ckpt::CkptError("campaign journal '" + path +
                          "': missing or empty file");
  }

  JournalStatus status;
  status.header = *header;
  // The index/label/seed prefix each index was first seen with. Sized by
  // what the file holds, never by the header's own job count, which a
  // corrupt header can make absurd.
  std::unordered_map<std::uint64_t, std::string> first_prefix;
  for (std::string line; std::getline(in, line);) {
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
    const auto job =
        entry ? decode_entry_blob(std::move(entry->blob)) : std::nullopt;
    if (!entry || !job || job->has_metrics != header->collect_metrics) {
      ++status.corrupt;
      continue;
    }
    // A re-run repeats its job's prefix: a duplicate. Another label or
    // seed under a seen index is a flipped index, which resume drops and
    // re-runs: corrupt.
    const std::string_view prefix =
        std::string_view(line).substr(0, line.find("\"crc\":"));
    const auto [it, fresh] = first_prefix.try_emplace(entry->index, prefix);
    if (fresh) {
      ++status.done;
    } else if (it->second == prefix) {
      ++status.duplicates;
    } else {
      ++status.corrupt;
    }
  }
  return status;
}

}  // namespace unsync::runtime
