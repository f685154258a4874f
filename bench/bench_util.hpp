// Shared plumbing for the table/figure harnesses.
//
// Every bench binary regenerates one table or figure of the paper. Output
// is a TextTable whose rows mirror the paper's rows/series, plus a short
// PAPER-SHAPE note stating what to compare against the publication.
// Common knobs (overridable as key=value argv):
//   insts=<N>    dynamic instructions per benchmark run   (default 30000)
//   seed=<N>     workload seed                             (default 42)
//   threads=<N>  application threads (pairs for redundant) (default 1)
//   workers=<N>  host threads for grid fan-out             (default cores)
//   jobs=<N>     grid size for benches that scale job count (default per
//                bench: bench_campaign_scaling's job count,
//                bench_injection_prefix's trials per SER point)
//   json=<path>  also write JSON ("-" = stdout): the raw campaign grid, or
//                for a gated bench its BenchReport
#pragma once

#include <fstream>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/table.hpp"
#include "core/baseline.hpp"
#include "core/reunion_system.hpp"
#include "core/unsync_system.hpp"
#include "obs/json.hpp"
#include "runtime/campaign.hpp"
#include "workload/profile.hpp"
#include "workload/synthetic.hpp"

namespace unsync::bench {

struct BenchArgs {
  std::uint64_t insts = 30000;
  bool insts_set = false;  ///< insts= given explicitly on the command line
  std::uint64_t seed = 42;
  unsigned threads = 1;
  unsigned workers = 0;  // 0 = hardware concurrency
  std::uint64_t jobs = 0;  // 0 = the bench's own default grid size
  std::string json;      // empty = no JSON dump; "-" = stdout

  /// A malformed or out-of-range knob exits 2 (knobs_or_exit).
  static BenchArgs parse(int argc, char** argv) {
    const Config cfg = Config::from_args(argc, argv);
    return knobs_or_exit([&] {
      BenchArgs a;
      a.insts_set = cfg.has("insts");
      a.insts = cfg.get_unsigned<std::uint64_t>("insts", 30000);
      a.seed = cfg.get_unsigned<std::uint64_t>("seed", 42);
      a.threads = cfg.get_unsigned<unsigned>("threads", 1, 1);
      a.workers = cfg.get_unsigned<unsigned>("workers", 0);
      a.jobs = cfg.get_unsigned<std::uint64_t>("jobs", 0);
      a.json = cfg.get_string("json", "");
      cfg.report_unused("bench");
      return a;
    });
  }

  core::SystemConfig system_config(double ser = 0.0) const {
    core::SystemConfig cfg;
    cfg.num_threads = threads;
    cfg.ser_per_inst = ser;
    cfg.seed = seed;
    return cfg;
  }

  workload::SyntheticStream stream(const std::string& benchmark) const {
    return workload::SyntheticStream(workload::profile(benchmark), seed,
                                     insts);
  }
};

inline double baseline_ipc(const BenchArgs& a, const std::string& bench) {
  workload::SyntheticStream s = a.stream(bench);
  core::BaselineSystem sys(a.system_config(), s);
  return sys.run().thread_ipc();
}

inline engine::RunResult unsync_run(const BenchArgs& a,
                                    const std::string& bench,
                                    const core::UnSyncParams& p,
                                    double ser = 0.0) {
  workload::SyntheticStream s = a.stream(bench);
  core::UnSyncSystem sys(a.system_config(ser), p, s);
  return sys.run();
}

inline engine::RunResult reunion_run(const BenchArgs& a,
                                     const std::string& bench,
                                     const core::ReunionParams& p,
                                     double ser = 0.0) {
  workload::SyntheticStream s = a.stream(bench);
  core::ReunionSystem sys(a.system_config(ser), p, s);
  return sys.run();
}

/// One grid cell with the bench harness's fixed-seed semantics (every cell
/// runs the identical same-seed workload stream, as the serial helpers
/// above always did).
inline runtime::SimJob sim_job(const BenchArgs& a, const std::string& bench,
                               core::SystemKind system, double ser = 0.0) {
  runtime::SimJob job;
  job.label = bench;
  job.profile = bench;
  job.insts = a.insts;
  job.seed = a.seed;
  job.app_threads = a.threads;
  job.ser_per_inst = ser;
  job.system = system;
  return job;
}

/// Fans a grid out across workers= host threads; results come back in
/// submission order, so table rows are independent of the worker count.
inline runtime::CampaignOutput run_grid(const BenchArgs& a,
                                        const std::vector<runtime::SimJob>& jobs) {
  runtime::CampaignRunner::Options opts;
  opts.threads = a.workers;
  opts.campaign_seed = a.seed;
  return runtime::CampaignRunner(opts).run(jobs);
}

/// Writes `text` to `path` ("-" = stdout).
inline void write_json(const std::string& path, const std::string& text) {
  if (path == "-") {
    std::cout << text << "\n";
    return;
  }
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot write json file " + path);
  f << text << "\n";
  std::cout << "(JSON written to " << path << ")\n";
}

/// Honors the json= knob: writes the raw campaign grid ("unsync.campaign.v2")
/// so a plotting script can consume exactly what the table was built from.
inline void maybe_dump_json(const BenchArgs& a,
                            const runtime::CampaignOutput& out) {
  if (!a.json.empty()) write_json(a.json, out.to_json(2));
}

/// A gated bench's report, "unsync.bench_report.v1":
///   {schema, bench, grid, exact, measured}
/// `grid` names the inputs every number is a function of, `exact` holds the
/// deterministic values a baseline pins key for key, and `measured` holds
/// raw quantities (timings, margins, counts) a baseline may bound with
/// min/max. tools/check_bench_regression.py gates a report against
/// bench/BENCH_<bench>_baseline.json. Keys are written sorted.
class BenchReport {
 public:
  explicit BenchReport(std::string bench) : bench_(std::move(bench)) {}

  template <class T>
  void grid(const std::string& key, T v) { grid_[key] = render(v); }
  template <class T>
  void exact(const std::string& key, T v) { exact_[key] = render(v); }
  template <class T>
  void measured(const std::string& key, T v) { measured_[key] = render(v); }

  /// Honors the json= knob: "" writes nothing.
  void write(const std::string& path) const {
    if (path.empty()) return;
    obs::JsonWriter w(2);
    w.begin_object();
    w.key("schema").value("unsync.bench_report.v1");
    w.key("bench").value(bench_);
    for (const auto& [name, section] :
         {std::pair{"grid", &grid_}, std::pair{"exact", &exact_},
          std::pair{"measured", &measured_}}) {
      w.key(name).begin_object();
      for (const auto& [k, v] : *section) w.key(k).raw(v);
      w.end_object();
    }
    w.end_object();
    write_json(path, w.str());
  }

 private:
  template <class T>
  static std::string render(T v) {
    obs::JsonWriter w;
    w.value(v);
    return w.take();
  }

  std::string bench_;
  std::map<std::string, std::string> grid_, exact_, measured_;
};

inline void print_header(const std::string& what, const BenchArgs& a) {
  std::cout << "\n=== " << what << " ===\n"
            << "(insts=" << a.insts << " seed=" << a.seed
            << " threads=" << a.threads << ")\n\n";
}

inline void print_shape_note(const std::string& note) {
  std::cout << "\nPAPER SHAPE: " << note << "\n";
}

}  // namespace unsync::bench
