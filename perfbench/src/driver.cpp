// perfbench driver: three closed-loop campaign workloads run through the
// public C++ API, checked job by job against committed reference digests.
//
//   perfbench_driver --workload <long_run|mc_short|inject_prefix>
//                    --seed <n> --seconds <s> --trace <0|1>
//                    --reference <dir> [--out <dir>]
//   perfbench_driver --gen-digests <dir>
//
// --trace 0 measures the end-to-end metrics with nothing but the campaign
// runner in the loop (plus a host-speed reference kernel between rounds,
// see HostReference). --trace 1 is a separate run: each round drives the
// same grid once through CampaignRunner (untraced) and twice through the
// layers' public calls, once with a span around each call and once without
// (for the cost of tracing), then writes the spans and a per-layer summary
// under --out. The last stdout line is the result object.
// See perfbench/NOTES.md for why each workload and metric exists.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_logic.hpp"
#include "ckpt/journal.hpp"
#include "ckpt/serializer.hpp"
#include "common/rng.hpp"
#include "core/factory.hpp"
#include "core/system.hpp"
#include "engine/run_result.hpp"
#include "runtime/campaign.hpp"
#include "runtime/campaign_journal.hpp"
#include "runtime/prefix.hpp"
#include "workload/profile.hpp"
#include "workload/synthetic.hpp"

namespace {

using namespace unsync;
using perfbench::DigestTable;
using perfbench::JobTally;
using perfbench::Span;
using perfbench::SpanLog;
using Clock = std::chrono::steady_clock;
using Trace = std::shared_ptr<const std::vector<workload::DynOp>>;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

constexpr std::array<core::SystemKind, 6> kSystems = {
    core::SystemKind::kBaseline, core::SystemKind::kUnSync,
    core::SystemKind::kReunion,  core::SystemKind::kLockstep,
    core::SystemKind::kCheckpoint, core::SystemKind::kHetero};

std::size_t system_index(core::SystemKind k) {
  for (std::size_t i = 0; i < kSystems.size(); ++i) {
    if (kSystems[i] == k) return i;
  }
  throw std::logic_error("unknown system");
}

/// Seeds of the reference pool. Every cell draws its own seed for a trial:
/// with one seed per trial, all cells of that trial would share one
/// arrival schedule and a run would average far fewer independent draws.
constexpr std::uint64_t kPoolSeed = 0x2011'0905;
std::uint64_t pool_seed(std::size_t trial, std::size_t cell) {
  return derive_seed(derive_seed(kPoolSeed, trial), cell);
}

/// One set-up takes micro- to milliseconds, so a set-up figure repeats it
/// until this much time has passed and divides by the count.
constexpr double kSetupFigureSeconds = 0.05;

// ---- Workloads ----------------------------------------------------------------

struct WorkloadSpec {
  std::string name;
  /// Profiles; for trace workloads, the profiles recorded into traces.
  std::vector<std::string> inputs;
  bool traces = false;
  std::uint64_t insts = 0;
  double ser = 0.0;
  unsigned workers = 1;
  bool journal = false;
  bool prefix = false;
  std::size_t pool = 0;              ///< reference trials per cell
  std::size_t trials_per_round = 0;  ///< trials of every cell per round

  std::string header() const {
    std::ostringstream h;
    h << name << " inputs=";
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      h << (i ? "," : "") << inputs[i];
    }
    h << " insts=" << insts << " ser=" << ser << " pool=" << pool
      << " traces=" << traces;
    return h.str();
  }
};

std::vector<WorkloadSpec> all_workloads() {
  WorkloadSpec long_run;
  long_run.name = "long_run";
  // gzip: store-rich (CB / write-buffer sync traffic); mcf: L2/DRAM-miss
  // bound (memory hierarchy, long stall windows); galgel: ROB-saturating
  // (the per-cycle ROB walk).
  long_run.inputs = {"gzip", "mcf", "galgel"};
  long_run.insts = 100000;
  long_run.pool = 8;
  long_run.trials_per_round = 1;

  WorkloadSpec mc_short;
  mc_short.name = "mc_short";
  mc_short.inputs = workload::fig5_benchmarks();
  mc_short.insts = 300;
  // About a quarter of the redundant jobs see an arrival.
  mc_short.ser = 1e-3;
  mc_short.workers = 2;
  mc_short.journal = true;
  mc_short.pool = 64;
  mc_short.trials_per_round = 8;

  WorkloadSpec inject;
  inject.name = "inject_prefix";
  inject.inputs = {"gzip", "susan"};
  inject.traces = true;
  inject.insts = 10000;
  // ~1.8 expected arrivals per redundant job: with the baseline's jobs
  // (no error process) about 30% of all jobs have no arrival, well away
  // from the 50% and 90% latency cut points.
  inject.ser = 1.8e-4;
  inject.prefix = true;
  inject.pool = 64;
  inject.trials_per_round = 4;
  return {long_run, mc_short, inject};
}

const WorkloadSpec& find_workload(const std::vector<WorkloadSpec>& all,
                                  const std::string& name) {
  for (const auto& w : all) {
    if (w.name == name) return w;
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

/// Trace workloads replay recordings made from fixed seeds, so every trial
/// of a cell shares one golden run and varies only its fault channel.
std::uint64_t trace_seed(const std::string& profile) {
  return profile == "gzip" ? 7 : 11;
}

Trace record_trace(const std::string& profile, std::uint64_t insts) {
  workload::SyntheticStream stream(workload::profile(profile),
                                   trace_seed(profile), insts);
  std::vector<workload::DynOp> ops;
  ops.reserve(insts);
  for (workload::DynOp op; stream.next(&op);) ops.push_back(op);
  return std::make_shared<const std::vector<workload::DynOp>>(std::move(ops));
}

using Inputs = std::map<std::string, Trace>;

Inputs build_inputs(const WorkloadSpec& w) {
  Inputs in;
  for (const auto& name : w.inputs) {
    in[name] = w.traces ? record_trace(name, w.insts) : nullptr;
  }
  return in;
}

struct Job {
  runtime::SimJob sim;
  std::string key;  ///< "<input>/<system>/t<trial>": the digest-table key
};

Job make_job(const WorkloadSpec& w, const Inputs& in, const std::string& input,
             core::SystemKind system, std::size_t trial) {
  Job j;
  j.sim.label = input;
  if (w.traces) {
    j.sim.trace = in.at(input);
  } else {
    j.sim.profile = input;
  }
  j.sim.system = system;
  j.sim.insts = w.insts;
  j.sim.ser_per_inst = w.ser;
  const auto input_index = static_cast<std::size_t>(
      std::find(w.inputs.begin(), w.inputs.end(), input) - w.inputs.begin());
  j.sim.seed =
      pool_seed(trial, input_index * kSystems.size() + system_index(system));
  j.key = input + "/" + core::name_of(system) + "/t" + std::to_string(trial);
  return j;
}

/// Every job a run can draw from: pool trials × inputs × systems, nested
/// in that order. Its digests are the committed reference.
std::vector<Job> pool_grid(const WorkloadSpec& w, const Inputs& in) {
  std::vector<Job> jobs;
  jobs.reserve(w.pool * w.inputs.size() * kSystems.size());
  for (std::size_t t = 0; t < w.pool; ++t) {
    for (const auto& input : w.inputs) {
      for (const auto sys : kSystems) {
        jobs.push_back(make_job(w, in, input, sys, t));
      }
    }
  }
  return jobs;
}

/// Round `round` of the run seeded `seed`, drawn from the pool grid:
/// trials_per_round consecutive pool trials (the start offset comes from
/// the seed), inputs in a seed-shuffled order, systems round-robin
/// innermost so a slow patch of the host hits all six alike.
std::vector<Job> round_grid(const WorkloadSpec& w, const std::vector<Job>& pool,
                            std::uint64_t seed, std::size_t round) {
  Rng rng(derive_seed(seed, round + 1));
  std::vector<std::size_t> order(w.inputs.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.below(i)]);
  }
  const std::size_t base = derive_seed(seed, 0) % w.pool;
  std::vector<Job> jobs;
  for (std::size_t t = 0; t < w.trials_per_round; ++t) {
    const std::size_t trial = (base + round * w.trials_per_round + t) % w.pool;
    for (const std::size_t input : order) {
      for (std::size_t sys = 0; sys < kSystems.size(); ++sys) {
        jobs.push_back(
            pool[(trial * w.inputs.size() + input) * kSystems.size() + sys]);
      }
    }
  }
  return jobs;
}

std::vector<runtime::SimJob> sims_of(const std::vector<Job>& jobs) {
  std::vector<runtime::SimJob> out;
  out.reserve(jobs.size());
  for (const auto& j : jobs) out.push_back(j.sim);
  return out;
}

std::uint64_t digest_of(const engine::RunResult& r) {
  return ckpt::hash64(r.to_json());
}

// ---- Set-up -----------------------------------------------------------------

/// Set-up: building the inputs (recording traces where the workload
/// replays them) and the pool grid the rounds draw from. Its work does not
/// depend on the seed. It is timed once before the first round and again
/// after every round, so its figures sample the same stretch of host time
/// as the rounds do; the median figure is reported.
struct Setup {
  Inputs inputs;                  ///< from the first figure, used by the run
  std::vector<Job> pool;          ///< likewise
  std::vector<double> setup_s;    ///< seconds per set-up, one per figure
  std::vector<double> record_ms;  ///< its trace recording, one per figure

  void time_figure(const WorkloadSpec& w) {
    const auto t0 = Clock::now();
    double record_s = 0.0;
    std::size_t n = 0;
    do {
      const auto r0 = Clock::now();
      Inputs in = build_inputs(w);
      record_s += seconds_since(r0);
      std::vector<Job> grid = pool_grid(w, in);
      if (pool.empty()) {
        inputs = std::move(in);
        pool = std::move(grid);
      }
      ++n;
    } while (seconds_since(t0) < kSetupFigureSeconds);
    setup_s.push_back(seconds_since(t0) / static_cast<double>(n));
    record_ms.push_back(record_s * 1e3 / static_cast<double>(n));
    // Hand the figure's freed memory back to the OS, so that where its
    // garbage sat in the heap does not move the next round's peak RSS.
    malloc_trim(0);
  }
};

/// One short job per system, untimed, so the first timed round does not
/// pay for page faults and allocator growth.
void warm_up() {
  for (const auto sys : kSystems) {
    runtime::SimJob warm;
    warm.label = "warmup";
    warm.profile = "gzip";
    warm.insts = 2000;
    warm.system = sys;
    (void)runtime::CampaignRunner::run_job(warm, 1);
  }
}

// ---- Untraced rounds ----------------------------------------------------------

struct RoundRecord {
  double wall_s = 0.0;
  std::size_t jobs = 0;
  std::uint64_t insts = 0;
  std::array<double, 6> sys_cycles{};
  std::array<double, 6> sys_wall{};
  double job_wall_sum = 0.0;
};

struct Measure {
  std::vector<RoundRecord> rounds;
  std::vector<double> job_ms;
  std::vector<double> campaign_json_ms;
  JobTally tally;
};

runtime::CampaignRunner::Options runner_options(const WorkloadSpec& w,
                                                std::uint64_t seed,
                                                const std::string& out_dir) {
  runtime::CampaignRunner::Options o;
  o.threads = w.workers;
  o.campaign_seed = seed;
  o.prefix.enabled = w.prefix;
  if (w.journal) o.journal = out_dir + "/" + w.name + ".journal.jsonl";
  return o;
}

/// One closed-loop round through CampaignRunner: the whole grid is
/// submitted at once and each worker claims its next job when the last
/// one finishes.
void untraced_round(const WorkloadSpec& w, const std::vector<Job>& jobs,
                    const DigestTable& ref, std::uint64_t seed,
                    const std::string& out_dir, bool time_json, Measure& m) {
  const auto opts = runner_options(w, seed, out_dir);
  if (!opts.journal.empty()) std::filesystem::remove(opts.journal);
  runtime::CampaignOutput out;
  try {
    out = runtime::CampaignRunner(opts).run(sims_of(jobs));
  } catch (const std::exception& e) {
    std::cerr << "round failed: " << e.what() << "\n";
    m.tally.threw(jobs.size());
    return;
  }
  RoundRecord r;
  r.wall_s = out.wall_seconds;
  r.jobs = jobs.size();
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const auto& res = out.results[i];
    m.tally.check(ref, jobs[i].key, digest_of(res));
    const std::size_t s = system_index(jobs[i].sim.system);
    r.insts += res.instructions;
    r.sys_cycles[s] += static_cast<double>(res.cycles);
    r.sys_wall[s] += out.job_wall_seconds[i];
    r.job_wall_sum += out.job_wall_seconds[i];
    m.job_ms.push_back(out.job_wall_seconds[i] * 1e3);
  }
  if (time_json) {
    const auto t0 = Clock::now();
    (void)out.to_json();
    m.campaign_json_ms.push_back(seconds_since(t0) * 1e3);
  }
  m.rounds.push_back(r);
}

// ---- Traced rounds ------------------------------------------------------------

/// Exact simulated-work counts of one traced round.
struct Counts {
  std::uint64_t cycles = 0, insts = 0;
  std::uint64_t mispredicts = 0, stall_rob = 0, stall_iq = 0, stall_lsq = 0,
                icache_blocked = 0, rob_accum = 0, core_cycles = 0;
  std::uint64_t cb_full_stalls = 0, fingerprint_syncs = 0,
                commit_stall_gate = 0;
  std::uint64_t l1d_accesses = 0, l1d_misses = 0, l2_misses = 0,
                bus_transactions = 0;
  std::uint64_t errors = 0, recoveries = 0, rollbacks = 0,
                recovery_cycles = 0;

  void add(const engine::RunResult& r) {
    cycles += r.cycles;
    insts += r.instructions;
    for (const auto& c : r.core_stats) {
      mispredicts += c.mispredicts;
      stall_rob += c.dispatch_stall_rob;
      stall_iq += c.dispatch_stall_iq;
      stall_lsq += c.dispatch_stall_lsq;
      icache_blocked += c.fetch_blocked_icache;
      rob_accum += c.rob_occupancy_accum;
      core_cycles += c.cycles;
      commit_stall_gate += c.commit_stall_gate;
    }
    cb_full_stalls += r.cb_full_stalls;
    fingerprint_syncs += r.fingerprint_syncs;
    errors += r.errors_injected;
    recoveries += r.recoveries;
    rollbacks += r.rollbacks;
    recovery_cycles += r.recovery_cycles_total;
  }

  void add_memory_counts(const Counts& o) {
    l1d_accesses += o.l1d_accesses;
    l1d_misses += o.l1d_misses;
    l2_misses += o.l2_misses;
    bus_transactions += o.bus_transactions;
  }

  void add_memory(mem::MemoryHierarchy& mh) {
    for (unsigned c = 0; c < mh.num_cores(); ++c) {
      l1d_accesses += mh.l1(c).hits() + mh.l1(c).misses();
      l1d_misses += mh.l1(c).misses();
    }
    l2_misses += mh.l2().misses();
    bus_transactions += mh.bus().transactions();
  }
};

struct Traced {
  std::vector<Span> spans;
  double wall_s = 0.0;        ///< traced direct passes, all rounds
  double bare_wall_s = 0.0;   ///< the same passes with recording off
  // First traced round only, so they are exact for a seed:
  std::uint64_t first_round_jobs = 0;
  Counts counts;
  std::uint64_t arrival_jobs = 0;  ///< jobs with at least one arrival
  runtime::PrefixStats prefix;
  std::uint64_t next_job = 0;  ///< job ids are unique across the run

  void absorb(SpanLog& log) {
    const int base = static_cast<int>(spans.size());
    for (auto& s : log.spans()) {
      if (s.parent >= 0) s.parent += base;
      spans.push_back(std::move(s));
    }
  }
};

core::System& as_system(engine::SimModel& m) {
  auto* s = dynamic_cast<core::System*>(&m);
  if (!s) throw std::logic_error("detailed tier expected");
  return *s;
}

/// Spans of one job on one worker, or nothing at all (not even a clock
/// read) when the pass does not record.
struct Recorder {
  SpanLog* log;  ///< null: recording off
  std::uint64_t job;
  const char* system;

  int open(const char* name) const {
    return log ? log->open(name, now_ns(), job, system) : -1;
  }
  void close(int id, std::uint64_t count = 0) const {
    if (log) log->close(id, now_ns(), count);
  }
};

/// The same grid driven through the layers' public calls; workers claim
/// jobs from a shared cursor like the runner does. With `record` each call
/// gets a span; without, the pass makes exactly the same calls untimed, so
/// the two passes' wall times give the cost of tracing.
void direct_round(const WorkloadSpec& w, const std::vector<Job>& jobs,
                  const DigestTable& ref, std::uint64_t seed,
                  const std::string& out_dir, std::int64_t epoch, bool record,
                  Traced& tr, JobTally& tally) {
  const auto sims = sims_of(jobs);
  std::unique_ptr<runtime::PrefixEngine> engine;
  std::vector<std::size_t> order(jobs.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  if (w.prefix) {
    runtime::PrefixOptions popts;  // the engine's default interval and budget
    popts.enabled = true;
    engine = std::make_unique<runtime::PrefixEngine>(popts);
    order = engine->schedule_order(sims, seed);
  }
  std::ofstream journal;
  if (w.journal) {
    journal.open(out_dir + "/" + w.name + ".direct.journal.jsonl",
                 std::ios::binary | std::ios::trunc);
  }
  const bool first = record && tr.first_round_jobs == 0;
  struct Outcome {
    bool ok = false;
    engine::RunResult result;
    Counts mem;
    bool arrival = false;
  };
  std::vector<Outcome> outcomes(jobs.size());
  std::mutex mu;  // guards the journal stream and the error log
  std::atomic<std::size_t> cursor{0};
  std::vector<SpanLog> logs;
  for (unsigned t = 0; t < w.workers; ++t) logs.emplace_back(epoch, t);
  const std::uint64_t job_base = tr.next_job;

  auto worker = [&](unsigned t) {
    for (std::size_t idx; (idx = cursor.fetch_add(1)) < jobs.size();) {
      const std::size_t i = order[idx];
      const auto& sim = sims[i];
      const std::uint64_t seed_i = *sim.seed;
      const Recorder rec{record ? &logs[t] : nullptr, job_base + i,
                         core::name_of(sim.system)};
      Outcome& out = outcomes[i];
      try {
        engine::RunResult& res = out.result;
        const int job = rec.open("runtime.job");
        if (engine) {
          const int s = rec.open("runtime.prefix_run_job");
          res = engine->run_job(sim, seed_i);
          rec.close(s, res.cycles);
        } else {
          int s = rec.open("workload.make_job_stream");
          const auto stream = runtime::make_job_stream(sim, seed_i);
          rec.close(s);
          s = rec.open("core.make_model");
          const auto model = core::make_model(
              sim.system, runtime::job_system_config(sim, seed_i), *stream,
              sim.params);
          rec.close(s);
          s = rec.open("engine.run");
          res = model->run();
          rec.close(s, res.cycles);
          if (first) out.mem.add_memory(as_system(*model).memory());
        }
        rec.close(job);

        int s = rec.open("fault.compute_fault_channel");
        const auto channel = runtime::compute_fault_channel(sim, seed_i);
        rec.close(s, channel.schedules.size());
        out.arrival = !channel.empty();

        s = rec.open("runtime.journal_encode");
        std::string line = ckpt::journal_entry_line(
            i, sim.label, seed_i, runtime::encode_entry_blob(res, nullptr));
        rec.close(s, line.size());

        if (journal.is_open()) {
          s = rec.open("runtime.journal_append");
          const std::lock_guard<std::mutex> lock(mu);
          journal << line << '\n';
          journal.flush();
          rec.close(s, line.size() + 1);
        }
        out.ok = true;
      } catch (const std::exception& e) {
        const std::lock_guard<std::mutex> lock(mu);
        std::cerr << "direct job " << jobs[i].key << " failed: " << e.what()
                  << "\n";
      }
    }
  };

  const auto t0 = Clock::now();
  std::vector<std::thread> pool;
  for (unsigned t = 1; t < w.workers; ++t) pool.emplace_back(worker, t);
  worker(0);
  for (auto& th : pool) th.join();
  (record ? tr.wall_s : tr.bare_wall_s) += seconds_since(t0);
  if (!record) {
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      if (outcomes[i].ok) {
        tally.check(ref, jobs[i].key, digest_of(outcomes[i].result));
      } else {
        tally.threw(1);
      }
    }
    return;
  }
  tr.next_job += jobs.size();
  for (auto& log : logs) tr.absorb(log);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const Outcome& out = outcomes[i];
    if (!out.ok) {
      tally.threw(1);
      continue;
    }
    tally.check(ref, jobs[i].key, digest_of(out.result));
    if (first) {
      tr.counts.add(out.result);
      tr.counts.add_memory_counts(out.mem);
      tr.arrival_jobs += out.arrival;
    }
  }
  if (first) {
    tr.first_round_jobs = jobs.size();
    if (engine) tr.prefix = engine->stats();
  }
}

/// Direct checkpoint-layer calls on every cell of the workload at the
/// prefix engine's default interval: save, fingerprint, restore into a
/// fresh system, and a check that the restored state fingerprints equal.
/// The prefix workload's systems are only reachable here, so its memory
/// counts come from these runs.
void ckpt_probe(const WorkloadSpec& w, const Inputs& in, std::int64_t epoch,
                Traced& tr, JobTally& tally) {
  constexpr int kBoundaries = 3;
  const Cycle interval = runtime::PrefixOptions{}.interval;
  SpanLog log(epoch, 0);
  for (const auto& input : w.inputs) {
    for (const auto sys : kSystems) {
      Job j = make_job(w, in, input, sys, 0);
      j.sim.ser_per_inst = 0.0;  // the golden configuration
      const std::uint64_t seed = *j.sim.seed;
      const std::uint64_t id = tr.next_job++;
      const std::string name = core::name_of(sys);
      const auto cfg = runtime::job_system_config(j.sim, seed);
      const int probe = log.open("ckpt.probe", now_ns(), id, name);
      int s = log.open("workload.make_job_stream", now_ns(), id, name);
      const auto stream = runtime::make_job_stream(j.sim, seed);
      log.close(s, now_ns());
      s = log.open("core.make_model", now_ns(), id, name);
      const auto model = core::make_model(sys, cfg, *stream, j.sim.params);
      log.close(s, now_ns());
      core::System& system = as_system(*model);
      Cycle done = 0;
      for (int k = 1; k <= kBoundaries; ++k) {
        const Cycle boundary = static_cast<Cycle>(k) * interval;
        s = log.open("engine.run", now_ns(), id, name);
        const auto res = model->run(boundary);
        log.close(s, now_ns(), res.cycles - done);
        done = res.cycles;
        s = log.open("ckpt.save_checkpoint_bytes", now_ns(), id, name);
        const std::string blob = system.save_checkpoint_bytes();
        log.close(s, now_ns(), blob.size());
        s = log.open("ckpt.state_fingerprint", now_ns(), id, name);
        const std::uint64_t fp = system.state_fingerprint();
        log.close(s, now_ns());
        const auto fresh_stream = runtime::make_job_stream(j.sim, seed);
        const auto fresh =
            core::make_model(sys, cfg, *fresh_stream, j.sim.params);
        s = log.open("ckpt.load_checkpoint_bytes", now_ns(), id, name);
        as_system(*fresh).load_checkpoint_bytes(blob);
        log.close(s, now_ns(), blob.size());
        ++tally.attempted;
        if (as_system(*fresh).state_fingerprint() != fp) ++tally.failed;
        if (res.cycles < boundary) break;  // the job finished
      }
      if (w.prefix) tr.counts.add_memory(system.memory());
      log.close(probe, now_ns());
    }
  }
  tr.absorb(log);
}

/// Drains each of the workload's profiles for a fixed op count.
void drain_probe(const WorkloadSpec& w, std::int64_t epoch, Traced& tr) {
  constexpr std::uint64_t kOps = 200000;
  SpanLog log(epoch, 0);
  for (const auto& input : w.inputs) {
    workload::SyntheticStream stream(workload::profile(input),
                                     pool_seed(0, 0), kOps);
    std::uint64_t n = 0;
    const int s = log.open("workload.drain_stream", now_ns(), tr.next_job++);
    for (workload::DynOp op; stream.next(&op);) ++n;
    log.close(s, now_ns(), n);
  }
  tr.absorb(log);
}

// ---- Host-speed reference ---------------------------------------------------

/// Milliseconds one reference pass takes on the host the benchmark was
/// defined on (4 vCPUs; median over its steadiness runs).
constexpr double kReferenceNominalMs = 16.0;

/// One pass of a fixed kernel bound by cache and memory latency the way the
/// simulator's cache and checkpoint state is: xorshift-driven
/// read-modify-writes into a 4 MiB table. It is benchmark code, so no
/// change to the simulator moves it; only the host does.
volatile std::uint64_t g_reference_sink = 0;

double reference_pass_ms() {
  std::vector<std::uint64_t> table(std::size_t{1} << 19);
  const std::uint64_t mask = table.size() - 1;
  const auto t0 = Clock::now();
  std::uint64_t h = 88172645463325252ull;
  for (std::uint64_t i = 0; i < 2000000; ++i) {
    h ^= h << 13;
    h ^= h >> 7;
    h ^= h << 17;
    table[h & mask] += h;
    if (h & 1) table[(h >> 20) & mask] ^= i;
  }
  const double ms = seconds_since(t0) * 1e3;
  g_reference_sink = table[h & mask];
  return ms;
}

/// Reference passes sampled between rounds. The host this benchmark runs
/// on drifts by tens of percent over minutes, and the simulator and this
/// kernel drift together; the end-to-end timings are reported at the
/// nominal host speed by scaling with factor() = median pass time in this
/// run ÷ kReferenceNominalMs. Raw values are printed beside them.
struct HostReference {
  std::vector<double> pass_ms;
  void sample() {
    for (int i = 0; i < 3; ++i) pass_ms.push_back(reference_pass_ms());
  }
  double ms() const { return perfbench::median(pass_ms); }
  double factor() const { return ms() / kReferenceNominalMs; }
};

// ---- Metrics ------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string source = {};  ///< per-layer: the call the value comes from
  std::string moves = {};   ///< per-layer: end-to-end metric @ workload
};

std::string system_name(std::size_t i) { return core::name_of(kSystems[i]); }

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// End-to-end metrics at the measured host speed; see HostReference for
/// how they are brought to the nominal one.
std::vector<Metric> end_to_end(const Measure& m, const Setup& setup) {
  std::vector<double> jobs_s, insts_s;
  std::array<std::vector<double>, 6> cyc_s;
  for (const auto& r : m.rounds) {
    jobs_s.push_back(static_cast<double>(r.jobs) / r.wall_s);
    insts_s.push_back(static_cast<double>(r.insts) / r.wall_s);
    for (std::size_t s = 0; s < kSystems.size(); ++s) {
      if (r.sys_wall[s] > 0) cyc_s[s].push_back(r.sys_cycles[s] / r.sys_wall[s]);
    }
  }
  std::vector<Metric> out = {
      {"sim_insts_per_s", perfbench::median(insts_s), "inst/s"}};
  for (std::size_t s = 0; s < kSystems.size(); ++s) {
    out.push_back({"sim_cycles_per_s." + system_name(s),
                   perfbench::median(cyc_s[s]), "cycle/s"});
  }
  out.push_back({"jobs_per_s", perfbench::median(jobs_s), "job/s"});
  out.push_back({"job_ms_p50",
                 perfbench::percentile(m.job_ms, 50).value_or(0), "ms"});
  out.push_back({"job_ms_p90",
                 perfbench::percentile(m.job_ms, 90).value_or(0), "ms"});
  out.push_back({"setup_s", perfbench::median(setup.setup_s), "s"});
  out.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
  return out;
}

/// Scales rates up and times down by the host factor (memory is left as is).
std::vector<Metric> at_nominal_speed(std::vector<Metric> raw, double factor) {
  for (auto& m : raw) {
    if (m.unit == "s" || m.unit == "ms") {
      m.value /= factor;
    } else if (m.unit != "MB") {
      m.value *= factor;
    }
  }
  return raw;
}

/// Per-layer metrics of a traced run; see NOTES.md for the mapping table.
std::vector<Metric> per_layer(const WorkloadSpec& w, const Setup& setup,
                              const Measure& untraced, const Traced& tr,
                              const HostReference& host) {
  std::map<std::string, std::vector<double>> us;  // name[.system] -> µs
  std::array<double, 6> run_ns{}, run_cycles{};
  double job_ns = 0, sim_call_ns = 0, drain_ns = 0, drain_ops = 0;
  std::vector<double> blob_kib;
  for (const auto& s : tr.spans) {
    const double d = static_cast<double>(s.duration());
    us[s.name].push_back(d / 1e3);
    if (!s.system.empty()) us[s.name + "." + s.system].push_back(d / 1e3);
    if (s.name == "engine.run") {
      const std::size_t i = system_index(*core::parse_system(s.system));
      run_ns[i] += d;
      run_cycles[i] += static_cast<double>(s.count);
    }
    if (s.name == "runtime.job") job_ns += d;
    const bool in_job = s.parent >= 0 &&
                        tr.spans[static_cast<std::size_t>(s.parent)].name ==
                            "runtime.job";
    if (in_job && (s.name == "engine.run" || s.name == "runtime.prefix_run_job")) {
      sim_call_ns += d;
    }
    if (s.name == "ckpt.save_checkpoint_bytes") {
      blob_kib.push_back(static_cast<double>(s.count) / 1024.0);
    }
    if (s.name == "workload.drain_stream") {
      drain_ns += d;
      drain_ops += static_cast<double>(s.count);
    }
  }
  auto med = [&](const std::string& key) {
    const auto it = us.find(key);
    return it == us.end() ? 0.0 : perfbench::median(it->second);
  };
  auto frac = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  const Counts& c = tr.counts;
  const auto& p = tr.prefix;
  double job_wall = 0, campaign_wall = 0;
  for (const auto& r : untraced.rounds) {
    job_wall += r.job_wall_sum;
    campaign_wall += r.wall_s;
  }

  std::vector<Metric> out;
  auto add = [&](std::string name, double v, std::string unit,
                 std::string source, std::string moves) {
    out.push_back({std::move(name), v, std::move(unit), std::move(source),
                   std::move(moves)});
  };
  add("runtime.overhead_frac", 1.0 - frac(job_wall, w.workers * campaign_wall),
      "frac", "CampaignOutput job_wall_seconds vs wall_seconds",
      "jobs_per_s@mc_short");
  add("runtime.journal_encode_us", med("runtime.journal_encode"), "us",
      "encode_entry_blob + ckpt::journal_entry_line", "jobs_per_s@mc_short");
  add("prefix.goldens_built", static_cast<double>(p.goldens_built), "count",
      "PrefixEngine::stats", "jobs_per_s,job_ms_p90@inject_prefix");
  add("prefix.jobs_restored", static_cast<double>(p.jobs_restored), "count",
      "PrefixEngine::stats", "jobs_per_s,job_ms_p90@inject_prefix");
  add("prefix.jobs_early_terminated", static_cast<double>(p.jobs_spliced),
      "count", "PrefixEngine::stats", "jobs_per_s,job_ms_p90@inject_prefix");
  // jobs_spliced also counts zero-arrival jobs, which return the golden
  // result without a convergence check, so the share is taken over the
  // jobs that had an arrival (the restore-and-compare path).
  const double no_arrival =
      w.prefix ? static_cast<double>(tr.first_round_jobs - tr.arrival_jobs)
               : 0.0;
  add("prefix.converged_frac",
      frac(static_cast<double>(p.jobs_spliced) - no_arrival,
           static_cast<double>(tr.arrival_jobs)),
      "frac", "PrefixEngine::stats + compute_fault_channel",
      "jobs_per_s,job_ms_p90@inject_prefix");
  add("prefix.cycles_skipped_frac",
      frac(static_cast<double>(p.cycles_skipped),
           static_cast<double>(tr.counts.cycles)),
      "frac", "PrefixEngine::stats", "jobs_per_s,job_ms_p90@inject_prefix");
  add("prefix.restore_s", static_cast<double>(p.restore_ns) / 1e9, "s",
      "PrefixEngine::stats", "jobs_per_s,job_ms_p90@inject_prefix");
  add("prefix.cache_mib", static_cast<double>(p.bytes) / (1024.0 * 1024.0),
      "MiB", "PrefixEngine::stats", "peak_rss_mb@inject_prefix");
  add("workload.make_stream_us", med("workload.make_job_stream"), "us",
      "runtime::make_job_stream", "jobs_per_s@mc_short");
  add("workload.gen_ns_per_op", frac(drain_ns, drain_ops), "ns/op",
      "SyntheticStream::next (drained)", "sim_insts_per_s@long_run");
  add("workload.record_ms",
      w.traces ? perfbench::median(setup.record_ms) : 0.0, "ms",
      "trace recording in set-up", "setup_s@inject_prefix");
  for (std::size_t s = 0; s < kSystems.size(); ++s) {
    add("core.make_model_us." + system_name(s),
        med("core.make_model." + system_name(s)), "us", "core::make_model",
        "jobs_per_s,job_ms_p50@mc_short");
  }
  const double base_ns = frac(run_ns[0], run_cycles[0]);
  for (std::size_t s = 1; s < kSystems.size(); ++s) {
    add("core.host_cost_ratio." + system_name(s),
        frac(frac(run_ns[s], run_cycles[s]), base_ns), "ratio",
        "SimModel::run ns/cycle vs baseline",
        "sim_cycles_per_s." + system_name(s) + "@long_run");
  }
  add("core.cb_full_stalls", static_cast<double>(c.cb_full_stalls), "count",
      "RunResult::cb_full_stalls", "sim_cycles_per_s.*@long_run");
  add("core.fingerprint_syncs", static_cast<double>(c.fingerprint_syncs),
      "count", "RunResult::fingerprint_syncs", "sim_cycles_per_s.*@long_run");
  add("core.commit_stall_gate", static_cast<double>(c.commit_stall_gate),
      "count", "CoreStats::commit_stall_gate", "sim_cycles_per_s.*@long_run");
  for (std::size_t s = 0; s < kSystems.size(); ++s) {
    add("engine.ns_per_cycle." + system_name(s), frac(run_ns[s], run_cycles[s]),
        "ns/cycle", "SimModel::run",
        "sim_cycles_per_s." + system_name(s) + "@long_run");
  }
  add("engine.run_share", frac(sim_call_ns, job_ns), "frac",
      "SimModel::run or PrefixEngine::run_job within each job",
      "sim_cycles_per_s.*@long_run");
  add("sim.cycles", static_cast<double>(c.cycles), "count", "RunResult::cycles",
      "sim_cycles_per_s.*@long_run");
  add("sim.insts", static_cast<double>(c.insts), "count",
      "RunResult::instructions", "sim_insts_per_s@long_run");
  const std::string cpu_moves = "sim_cycles_per_s.*@long_run";
  add("cpu.mispredicts", static_cast<double>(c.mispredicts), "count",
      "CoreStats::mispredicts", cpu_moves);
  add("cpu.dispatch_stall_rob", static_cast<double>(c.stall_rob), "count",
      "CoreStats::dispatch_stall_rob", cpu_moves);
  add("cpu.dispatch_stall_iq", static_cast<double>(c.stall_iq), "count",
      "CoreStats::dispatch_stall_iq", cpu_moves);
  add("cpu.dispatch_stall_lsq", static_cast<double>(c.stall_lsq), "count",
      "CoreStats::dispatch_stall_lsq", cpu_moves);
  add("cpu.fetch_blocked_icache", static_cast<double>(c.icache_blocked),
      "count", "CoreStats::fetch_blocked_icache", cpu_moves);
  add("cpu.rob_occupancy_avg",
      frac(static_cast<double>(c.rob_accum), static_cast<double>(c.core_cycles)),
      "entries", "CoreStats::rob_occupancy_accum / cycles", cpu_moves);
  add("mem.l1d_accesses", static_cast<double>(c.l1d_accesses), "count",
      "MemoryHierarchy::l1 hits + misses", cpu_moves);
  add("mem.l1d_misses", static_cast<double>(c.l1d_misses), "count",
      "MemoryHierarchy::l1 misses", cpu_moves);
  add("mem.l2_misses", static_cast<double>(c.l2_misses), "count",
      "MemoryHierarchy::l2 misses", cpu_moves);
  add("mem.bus_transactions", static_cast<double>(c.bus_transactions),
      "count", "MemoryHierarchy::bus transactions", cpu_moves);
  add("fault.errors_injected", static_cast<double>(c.errors), "count",
      "RunResult::errors_injected", "jobs_per_s@mc_short");
  add("fault.recoveries", static_cast<double>(c.recoveries), "count",
      "RunResult::recoveries", "jobs_per_s@mc_short");
  add("fault.rollbacks", static_cast<double>(c.rollbacks), "count",
      "RunResult::rollbacks", "jobs_per_s@mc_short");
  add("fault.recovery_cycles", static_cast<double>(c.recovery_cycles), "count",
      "RunResult::recovery_cycles_total", "jobs_per_s@mc_short");
  add("fault.channel_us", med("fault.compute_fault_channel"), "us",
      "runtime::compute_fault_channel", "jobs_per_s@inject_prefix");
  add("ckpt.save_ms", med("ckpt.save_checkpoint_bytes") / 1e3, "ms",
      "System::save_checkpoint_bytes", "jobs_per_s@inject_prefix");
  add("ckpt.restore_ms", med("ckpt.load_checkpoint_bytes") / 1e3, "ms",
      "System::load_checkpoint_bytes", "jobs_per_s@inject_prefix");
  add("ckpt.fingerprint_us", med("ckpt.state_fingerprint"), "us",
      "System::state_fingerprint", "jobs_per_s@inject_prefix");
  add("ckpt.blob_kib", perfbench::median(blob_kib), "KiB",
      "System::save_checkpoint_bytes size", "peak_rss_mb@inject_prefix");
  add("obs.campaign_json_ms", perfbench::median(untraced.campaign_json_ms),
      "ms", "CampaignOutput::to_json", "jobs_per_s@mc_short");
  add("host.reference_ms", host.ms(), "ms",
      "fixed 4 MiB read-modify-write kernel between rounds",
      "(host speed; scales every end-to-end timing)");
  add("trace.overhead_frac", frac(tr.wall_s, tr.bare_wall_s) - 1.0, "frac",
      "direct-call passes with / without span recording", "(tracing cost)");
  return out;
}

// ---- Output -------------------------------------------------------------------

std::string num(double v) {
  std::ostringstream o;
  o << std::setprecision(10) << v;
  return o.str();
}

std::string json_str(const std::string& s) {
  std::string o = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') o.push_back('\\');
    o.push_back(c);
  }
  return o + "\"";
}

void write_trace_files(const std::string& dir, const std::string& stem,
                       const Traced& tr, const std::vector<Metric>& metrics) {
  std::filesystem::create_directories(dir);
  {
    std::ofstream f(dir + "/" + stem + ".spans.jsonl");
    for (const auto& s : tr.spans) {
      f << "{\"name\":" << json_str(s.name) << ",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent
        << ",\"job\":" << s.job << ",\"thread\":" << s.thread
        << ",\"system\":" << json_str(s.system) << ",\"count\":" << s.count
        << "}\n";
    }
  }
  const auto self = perfbench::self_times(tr.spans);
  struct Roll {
    double total_ms = 0, self_ms = 0;
    std::uint64_t calls = 0;
  };
  std::map<std::string, Roll> by_layer, by_span;
  for (std::size_t i = 0; i < tr.spans.size(); ++i) {
    const auto& s = tr.spans[i];
    for (Roll* r : {&by_layer[perfbench::layer_of(s.name)], &by_span[s.name]}) {
      r->total_ms += static_cast<double>(s.duration()) / 1e6;
      r->self_ms += static_cast<double>(self[i]) / 1e6;
      ++r->calls;
    }
  }
  std::ofstream f(dir + "/" + stem + ".summary.json");
  auto rolls = [&](const std::map<std::string, Roll>& m) {
    f << "{";
    bool first = true;
    for (const auto& [k, r] : m) {
      f << (first ? "\n" : ",\n") << "    " << json_str(k)
        << ": {\"self_ms\": " << num(r.self_ms)
        << ", \"total_ms\": " << num(r.total_ms) << ", \"calls\": " << r.calls
        << "}";
      first = false;
    }
    f << "\n  }";
  };
  f << "{\n  \"spans_file\": " << json_str(stem + ".spans.jsonl")
    << ",\n  \"layers\": ";
  rolls(by_layer);
  f << ",\n  \"spans\": ";
  rolls(by_span);
  f << ",\n  \"metrics\": [";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const auto& m = metrics[i];
    f << (i ? ",\n" : "\n") << "    {\"name\": " << json_str(m.name)
      << ", \"value\": " << num(m.value) << ", \"unit\": " << json_str(m.unit)
      << ", \"source\": " << json_str(m.source)
      << ", \"moves\": " << json_str(m.moves) << "}";
  }
  f << "\n  ]\n}\n";
}

void print_result(const std::vector<Metric>& metrics, const JobTally& tally,
                  const std::string& samples_note) {
  std::cout << samples_note << "\n";
  for (const auto& m : metrics) {
    std::cout << "  " << std::left << std::setw(34) << m.name << std::right
              << std::setw(18) << num(m.value) << " " << m.unit << "\n";
  }
  std::cout << "{\"correct\": " << (tally.failed == 0 ? "true" : "false")
            << ", \"attempted\": " << tally.attempted
            << ", \"failed\": " << tally.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::cout << (i ? ", " : "") << json_str(metrics[i].name)
              << ": {\"value\": " << num(metrics[i].value)
              << ", \"unit\": " << json_str(metrics[i].unit) << "}";
  }
  std::cout << "}}" << std::endl;
}

// ---- Reference generation -----------------------------------------------------

/// Runs every pool job of every workload on the naive path (no prefix
/// sharing, no journal) and writes one digest file per workload.
int gen_digests(const std::string& dir) {
  std::filesystem::create_directories(dir);
  for (const auto& w : all_workloads()) {
    const std::vector<Job> jobs = pool_grid(w, build_inputs(w));
    runtime::CampaignRunner::Options o;
    o.threads = 2;
    const auto out = runtime::CampaignRunner(o).run(sims_of(jobs));
    std::map<std::string, std::uint64_t> d;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      d[jobs[i].key] = digest_of(out.results[i]);
    }
    std::ofstream f(dir + "/" + w.name + ".digests");
    DigestTable(w.header(), std::move(d)).write(f);
    std::cerr << w.name << ": " << jobs.size() << " reference digests\n";
  }
  return 0;
}

// ---- Main -----------------------------------------------------------------------

struct Args {
  std::string workload;
  std::optional<std::uint64_t> seed;
  std::optional<double> seconds;
  bool trace = false;
  std::string reference = "perfbench/reference";
  std::string out = ".bench_out";
  std::string gen_digests;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--reference") a.reference = v;
    else if (k == "--out") a.out = v;
    else if (k == "--gen-digests") a.gen_digests = v;
    else throw std::invalid_argument("unknown argument " + k);
  }
  return a;
}

int run(const Args& a) {
  if (!a.seed || !a.seconds) {
    throw std::invalid_argument("--seed and --seconds are required");
  }
  const std::uint64_t seed = *a.seed;
  const double seconds = *a.seconds;
  const auto all = all_workloads();
  const WorkloadSpec& w = find_workload(all, a.workload);
  const DigestTable ref =
      DigestTable::load(a.reference + "/" + w.name + ".digests");
  if (ref.header() != w.header()) {
    throw std::runtime_error("reference digests were generated for '" +
                             ref.header() + "', workload is '" + w.header() +
                             "'");
  }
  std::filesystem::create_directories(a.out);

  Setup setup;
  setup.time_figure(w);
  warm_up();
  const std::int64_t epoch = now_ns();
  Measure m;
  Traced tr;
  JobTally traced_tally;
  // Stop when the time is up and (for the end-to-end metrics) the p90 job
  // latency has its ten samples beyond; never run away if the host is far
  // slower than expected.
  HostReference host;
  host.sample();
  const auto t0 = Clock::now();
  const double cap = seconds * 3 + 30;
  for (std::size_t round = 0;; ++round) {
    const auto jobs = round_grid(w, setup.pool, seed, round);
    if (a.trace) {
      // Reverse the pass order every round so host drift hits all alike.
      auto runner = [&] {
        untraced_round(w, jobs, ref, seed, a.out, true, m);
      };
      auto direct = [&](bool record) {
        direct_round(w, jobs, ref, seed, a.out, epoch, record, tr,
                     traced_tally);
      };
      if (round % 2 == 0) {
        runner();
        direct(true);
        direct(false);
      } else {
        direct(false);
        direct(true);
        runner();
      }
    } else {
      untraced_round(w, jobs, ref, seed, a.out, false, m);
    }
    host.sample();
    setup.time_figure(w);
    const double elapsed = seconds_since(t0);
    if (!m.rounds.empty()) {
      const auto& r = m.rounds.back();
      std::cerr << "round " << round << ": " << r.jobs << " jobs in "
                << num(r.wall_s) << " s\n";
    }
    const bool enough =
        a.trace || perfbench::percentile(m.job_ms, 90).has_value();
    if ((elapsed >= seconds && enough) || elapsed >= cap) break;
  }

  std::ostringstream note;
  note << "perfbench " << w.name << " seed=" << seed
       << " trace=" << a.trace << ": " << m.rounds.size() << " rounds, "
       << m.job_ms.size() << " job-latency samples, workers=" << w.workers
       << ", nproc=" << std::thread::hardware_concurrency()
       << ", host reference " << num(host.ms()) << " ms/pass (factor "
       << num(host.factor()) << ")";
  JobTally tally = m.tally;
  std::vector<Metric> metrics;
  if (a.trace) {
    ckpt_probe(w, setup.inputs, epoch, tr, traced_tally);
    drain_probe(w, epoch, tr);
    metrics = per_layer(w, setup, m, tr, host);
    const std::string stem = w.name + "-seed" + std::to_string(seed);
    write_trace_files(a.out, stem, tr, metrics);
    note << "\ntrace: " << tr.spans.size() << " spans -> " << a.out << "/"
         << stem << ".{spans.jsonl,summary.json}";
    tally.attempted += traced_tally.attempted;
    tally.failed += traced_tally.failed;
  } else {
    const auto raw = end_to_end(m, setup);
    note << "\nmeasured at this host's speed:";
    for (const auto& r : raw) {
      note << "\n  raw." << std::left << std::setw(30) << r.name << std::right
           << std::setw(18) << num(r.value) << " " << r.unit;
    }
    note << "\nat nominal host speed:";
    metrics = at_nominal_speed(raw, host.factor());
  }
  if (!a.trace && !perfbench::percentile(m.job_ms, 90)) {
    std::cerr << "too few job samples for job_ms_p90\n";
    tally.threw(1);
  }
  print_result(metrics, tally, note.str());
  return tally.failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse_args(argc, argv);
    if (!a.gen_digests.empty()) return gen_digests(a.gen_digests);
    return run(a);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
