#include "runtime/campaign.hpp"

#include <chrono>
#include <fstream>
#include <mutex>
#include <stdexcept>

#include "ckpt/journal.hpp"
#include "ckpt/serializer.hpp"
#include "common/rng.hpp"
#include "obs/json.hpp"
#include "runtime/campaign_journal.hpp"
#include "runtime/prefix.hpp"
#include "runtime/thread_pool.hpp"
#include "workload/profile.hpp"
#include "workload/synthetic.hpp"
#include "workload/trace.hpp"

namespace unsync::runtime {

std::uint64_t CampaignOutput::total_instructions() const {
  std::uint64_t total = 0;
  for (const auto& r : results) {
    for (const auto n : r.thread_instructions) total += n;
  }
  return total;
}

std::string CampaignOutput::to_json(int indent, bool include_timing) const {
  obs::JsonWriter w(indent);
  w.begin_object();
  w.key("schema").value("unsync.campaign.v2");
  w.key("campaign_seed").value(campaign_seed);
  w.key("total_instructions").value(total_instructions());
  w.key("jobs").begin_array();
  for (std::size_t i = 0; i < results.size(); ++i) {
    w.begin_object();
    w.key("label").value(i < labels.size() ? labels[i] : std::string());
    w.key("seed").value(i < seeds.size() ? seeds[i] : std::uint64_t{0});
    w.key("result").raw(results[i].to_json());
    if (include_timing && i < job_wall_seconds.size()) {
      w.key("wall_seconds").value(job_wall_seconds[i]);
    }
    w.end_object();
  }
  w.end_array();
  if (metrics.empty()) {
    w.key("metrics").null();
  } else {
    w.key("metrics").raw(metrics.to_json());
  }
  if (include_timing) {
    w.key("wall_seconds").value(wall_seconds);
    if (!scheduler_metrics.empty()) {
      w.key("scheduler_metrics").raw(scheduler_metrics.to_json());
    }
  }
  w.end_object();
  return w.take();
}

std::unique_ptr<workload::InstStream> make_job_stream(const SimJob& job,
                                                      std::uint64_t seed) {
  if (!job.profile.empty()) {
    return std::make_unique<workload::SyntheticStream>(
        workload::profile(job.profile), seed, job.insts);
  }
  if (job.trace) return std::make_unique<workload::TraceStream>(job.trace);
  throw std::invalid_argument("job '" + job.label +
                              "' selects no workload (profile or trace)");
}

core::SystemConfig job_system_config(const SimJob& job, std::uint64_t seed) {
  core::SystemConfig sys_cfg;
  sys_cfg.num_threads = job.app_threads;
  sys_cfg.ser_per_inst = job.ser_per_inst;
  sys_cfg.seed = seed;
  sys_cfg.avf = job.avf;
  sys_cfg.uncore_protect = job.protect;
  return sys_cfg;
}

namespace {

/// Renders SchedulerStats + per-job wall times into the campaign.scheduler.*
/// subtree. Measurement only: excluded from the default to_json() exactly
/// like wall_seconds.
obs::MetricsSnapshot scheduler_snapshot(
    const SchedulerStats& stats, const std::vector<double>& job_wall_seconds) {
  obs::MetricsRegistry reg;
  const WorkerStats total = stats.total();
  reg.set_counter("campaign.scheduler.workers", stats.workers.size());
  reg.set_counter("campaign.scheduler.local_claims", total.local_claims);
  reg.set_counter("campaign.scheduler.steals", total.steals);
  reg.set_counter("campaign.scheduler.steal_failures", total.steal_failures);
  reg.set_counter("campaign.scheduler.idle_ns", total.idle_ns);
  for (std::size_t w = 0; w < stats.workers.size(); ++w) {
    const std::string base =
        "campaign.scheduler.worker" + std::to_string(w) + ".";
    const auto& ws = stats.workers[w];
    reg.set_counter(base + "indices", ws.indices);
    reg.set_counter(base + "local_claims", ws.local_claims);
    reg.set_counter(base + "steals", ws.steals);
    reg.set_counter(base + "steal_failures", ws.steal_failures);
    reg.set_counter(base + "idle_ns", ws.idle_ns);
  }
  // Per-job wall-time distribution: 100 x 25ms buckets (clamped above
  // 2.5s into the last bucket) plus an exact-moment gauge.
  auto& hist =
      reg.histogram("campaign.scheduler.job_wall_seconds", 0.0, 2.5, 100);
  auto& gauge = reg.gauge("campaign.scheduler.job_wall_seconds_stat");
  for (const double s : job_wall_seconds) {
    hist.add(s);
    gauge.add(s);
  }
  return reg.snapshot();
}

}  // namespace

engine::RunResult CampaignRunner::run_job(const SimJob& job, std::uint64_t seed,
                                          obs::MetricsRegistry* metrics,
                                          obs::TraceSink* trace) {
  const auto stream = make_job_stream(job, seed);
  const auto sys = core::make_system(job.system, job_system_config(job, seed),
                                     *stream, job.params);
  if (metrics || trace) sys->set_observability(metrics, trace);
  return sys->run();
}

CampaignOutput CampaignRunner::run(const std::vector<SimJob>& jobs) const {
  CampaignOutput out;
  out.results.resize(jobs.size());
  out.seeds.resize(jobs.size());
  out.job_wall_seconds.resize(jobs.size(), 0.0);
  out.campaign_seed = options_.campaign_seed;
  out.labels.reserve(jobs.size());
  for (const auto& job : jobs) out.labels.push_back(job.label);

  // Per-job registries; merged in submission order after the grid so the
  // aggregate is independent of the worker count.
  std::vector<obs::MetricsSnapshot> job_metrics(
      options_.collect_metrics ? jobs.size() : 0);

  // Prefix-sharing engine. Metrics-collecting campaigns keep the engine
  // but route every job around it (per-cycle histograms depend on the
  // cycles a shared prefix would skip), so `campaign status` still reports
  // why nothing was shared.
  std::unique_ptr<PrefixEngine> engine;
  if (options_.prefix.enabled) {
    engine = std::make_unique<PrefixEngine>(options_.prefix);
  }
  const bool prefix_jobs = engine && !options_.collect_metrics;

  // Journal setup. On resume the surviving entries are re-encoded into a
  // fresh journal via atomic rewrite (dropping torn/corrupt lines), then
  // the stream continues in append mode — so after any number of
  // kill/resume cycles the journal holds exactly one valid line per
  // completed job.
  std::vector<char> restored(jobs.size(), 0);
  std::ofstream journal;
  if (!options_.journal.empty()) {
    const ckpt::JournalHeader header = make_journal_header(
        jobs, options_.campaign_seed, options_.collect_metrics,
        options_.prefix.enabled, options_.prefix.interval);
    std::string rewrite = header.to_line();
    rewrite.push_back('\n');
    if (options_.resume) {
      auto loaded = load_journal(options_.journal, header);
      for (std::size_t i = 0; i < jobs.size(); ++i) {
        if (!loaded[i] || !entry_acceptable(loaded[i]->result)) continue;
        restored[i] = 1;
        const std::uint64_t seed = job_seed(jobs, options_.campaign_seed, i);
        const std::string blob = encode_entry_blob(
            loaded[i]->result,
            loaded[i]->has_metrics ? &loaded[i]->metrics : nullptr);
        rewrite += ckpt::journal_entry_line(i, jobs[i].label, seed, blob);
        rewrite.push_back('\n');
        out.results[i] = std::move(loaded[i]->result);
        if (options_.collect_metrics) {
          job_metrics[i] = std::move(loaded[i]->metrics);
        }
      }
    }
    ckpt::atomic_write_text(options_.journal, rewrite);
    journal.open(options_.journal, std::ios::binary | std::ios::app);
    if (!journal) {
      throw std::runtime_error("cannot open campaign journal '" +
                               options_.journal + "' for append");
    }
  }

  std::mutex progress_mu;
  std::size_t completed = 0;
  std::size_t unflushed = 0;

  // Execution-order permutation: jobs that share a golden configuration
  // are claimed together (and ordered by first arrival), so each golden is
  // built once and stays hot in the LRU. Results are still stored by the
  // true submission index — output bytes never depend on this.
  std::vector<std::size_t> order;
  if (prefix_jobs) order = engine->schedule_order(jobs, options_.campaign_seed);

  const auto start = std::chrono::steady_clock::now();
  SchedulerStats sched_stats;
  parallel_for(
      options_.threads, jobs.size(),
      [&](std::size_t idx) {
        const std::size_t i = order.empty() ? idx : order[idx];
        const std::uint64_t seed = job_seed(jobs, options_.campaign_seed, i);
        out.seeds[i] = seed;
        if (!restored[i]) {
          const auto job_start = std::chrono::steady_clock::now();
          if (options_.collect_metrics) {
            if (engine) engine->note_bypass();
            obs::MetricsRegistry reg;
            out.results[i] = run_job(jobs[i], seed, &reg);
            job_metrics[i] = reg.snapshot();
          } else if (engine) {
            out.results[i] = engine->run_job(jobs[i], seed);
          } else {
            out.results[i] = run_job(jobs[i], seed);
          }
          out.job_wall_seconds[i] =
              std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            job_start)
                  .count();
        }
        std::string entry;
        if (journal.is_open() && !restored[i]) {
          const std::string blob = encode_entry_blob(
              out.results[i],
              options_.collect_metrics ? &job_metrics[i] : nullptr);
          entry = ckpt::journal_entry_line(i, jobs[i].label, seed, blob);
          entry.push_back('\n');
        }
        if (options_.progress || !entry.empty()) {
          const std::lock_guard<std::mutex> lock(progress_mu);
          if (!entry.empty()) {
            journal << entry;
            if (++unflushed >= options_.checkpoint_every) {
              journal.flush();
              unflushed = 0;
            }
          }
          if (options_.progress) options_.progress(++completed, jobs.size());
        }
      },
      &sched_stats);
  if (journal.is_open()) {
    // Completed prefix-sharing campaigns record the engine totals as a
    // trailing "stats" line. Entry readers skip it; `campaign status`
    // decodes it. Resume's atomic rewrite above drops any earlier one, so
    // a finished journal carries exactly one.
    if (engine) {
      journal << ckpt::journal_stats_line(engine->stats().encode()) << '\n';
    }
    journal.flush();
  }
  out.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  out.scheduler_metrics = scheduler_snapshot(sched_stats, out.job_wall_seconds);
  if (engine) out.scheduler_metrics.merge(engine->stats().snapshot());

  // Submission-order merge keeps out.metrics a pure function of the grid.
  // Wall-clock lives only in wall_seconds / job_wall_seconds (and whatever
  // a caller explicitly derives from them) — never in this snapshot.
  for (auto& snap : job_metrics) out.metrics.merge(snap);
  return out;
}

}  // namespace unsync::runtime
