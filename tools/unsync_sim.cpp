// unsync_sim — the command-line front end of the simulator.
//
// Subcommands:
//   run          simulate a workload on a chosen architecture
//   sweep        one CSV row per value of a swept parameter
//   campaign     a (benchmark x system) grid across a host thread pool
//   campaign-worker       run one shard of a distributed campaign
//   campaign-coordinator  wait for the shards and merge their journals
//   campaign status       inspect a campaign journal (done/pending/corrupt)
//   characterize print a stream characterisation (benchmark-table style)
//   asm          assemble + functionally execute a URISC source file
//   record       record a URISC program into a binary UTRC trace file
//   hw           print the hardware model summary for each architecture
//   list         list built-in benchmark profiles and kernels
//   version      print schema versions and build configuration
//
// Checkpoint / restore (docs/CHECKPOINTS.md):
//   run checkpoint=<f> checkpoint_at=<cycle>  snapshot mid-run and exit
//   run resume=<f>                            continue a snapshot to the end
//   campaign checkpoint=<f> [resume=1]        crash-safe resumable campaigns
//
// Workload selection (for run / sweep / campaign / characterize / record):
//   bench=<name>      one of the built-in statistical profiles
//   kernel=<name>     one of the built-in URISC kernels (e.g. matmul_8)
//   program=<file.s>  assemble and trace a URISC source file
//   trace=<file.utrc> replay a previously recorded binary trace
//
// Options are key=value; all keys are snake_case. A leading "--" is
// accepted and stripped, and kebab-case GNU spellings map onto the
// snake_case key (--format=json == format=json, --prefix-interval=800 ==
// prefix_interval=800; a bare --progress == progress=1).
//
// Parallelism: sweep and campaign fan their independent simulations out
// across host threads (threads=N, default: hardware concurrency). Results
// are aggregated in submission order and every job seed derives from
// (seed, job_index), so output — including format=json — is byte-identical
// for any thread count.
//
// Exit codes: 0 = success; 1 = simulation/runtime error (assembly failure,
// unreadable trace, model error); 2 = configuration/usage error (unknown
// subcommand or system, malformed, out-of-range or unrecognized key=value).
//
// Examples:
//   unsync_sim run system=unsync bench=bzip2 insts=100000 ser=1e-9 report=1
//   unsync_sim run system=unsync bench=susan format=json metrics=m.json
//   unsync_sim campaign systems=baseline,unsync,reunion insts=50000 csv=1
//   unsync_sim campaign benches=susan,lame format=json --progress
//   unsync_sim sweep param=cb values=8,64,256 system=unsync bench=susan
//   unsync_sim characterize bench=susan insts=50000
//   unsync_sim hw
#include <algorithm>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "ckpt/serializer.hpp"
#include "common/config.hpp"
#include "common/log.hpp"
#include "common/table.hpp"
#include "core/factory.hpp"
#include "core/report.hpp"
#include "core/system.hpp"
#include "fault/avf.hpp"
#include "hwmodel/components.hpp"
#include "hwmodel/core_model.hpp"
#include "isa/assembler.hpp"
#include "isa/functional_sim.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/campaign.hpp"
#include "runtime/campaign_journal.hpp"
#include "runtime/distributed.hpp"
#include "workload/kernels.hpp"
#include "workload/profile.hpp"
#include "workload/stream_stats.hpp"
#include "workload/synthetic.hpp"
#include "workload/trace.hpp"

namespace {

using namespace unsync;

// A misuse of the command line (unknown subcommand/system/parameter, a
// malformed or out-of-range value) throws unsync::ConfigError, so scripts
// can tell "fix the invocation" (exit 2) from "the run failed" (exit 1).
constexpr int kExitOk = 0;
constexpr int kExitSimError = 1;
constexpr int kExitConfigError = 2;

void print_usage(std::ostream& os) {
  os <<
      "usage: unsync_sim "
      "<run|sweep|campaign|campaign-worker|campaign-coordinator|"
      "characterize|asm|record|hw|avf-report|list|version>"
      " [key=value...]\n"
      "  run: system=unsync|reunion|baseline|lockstep|checkpoint|hetero\n"
      "       bench=|kernel=|program=|trace=   [insts= seed= threads= ser=]\n"
      "       unsync: cb=<entries> group=<N>   reunion: fi= latency=\n"
      "       checkpoint: interval= capture=\n"
      "       hetero: checker.log=<entries> checker.width=<N>\n"
      "               checker.rollback=<cycles>  (docs/SYSTEMS.md)\n"
      "       output: report=1 csv=1 format=json\n"
      "               metrics=<path>  write the metric tree (.csv or .json)\n"
      "               trace_out=<path> write a JSONL event trace\n"
      "               trace_flush_every=<N> trace flush cadence (default "
      "256)\n"
      "       checkpoint: checkpoint=<file> checkpoint_at=<cycle>  save+exit\n"
      "                   resume=<file>  continue a saved snapshot\n"
      "  sweep: param=<cb|fi|latency|group|log|ser> values=v1,v2,...\n"
      "         + run args\n"
      "         [threads=<host workers, default all cores>]\n"
      "  campaign: [systems=baseline,unsync,reunion] [benches=n1,n2|all]\n"
      "            [insts= seed= ser= threads=<host workers>]\n"
      "            [csv=1 format=json metrics=<path> progress=1]\n"
      "            [checkpoint=<journal> resume=1]\n"
      "            [prefix_share=1 prefix_interval=<cycles>\n"
      "              prefix_cache_mb=<MiB>]  share each cell's fault-free\n"
      "              prefix via cached golden checkpoints; byte-identical\n"
      "              results (docs/CAMPAIGNS.md)\n"
      "  campaign-worker: dir=<campaign dir> worker=<i> workers=<N>\n"
      "            + the campaign grid args (systems/benches/insts/seed/\n"
      "              ser/...) — all participants must\n"
      "              pass identical grid args (the manifest CRC checks)\n"
      "            [threads= steal=0 collect_metrics=1]\n"
      "  campaign-coordinator: dir=<campaign dir> workers=<N> + grid args\n"
      "            [poll_ms= timeout=<seconds>] + campaign output args\n"
      "  campaign status: journal=<file>  print done/pending/corrupt counts\n"
      "            (exit 2 when the journal holds corrupt entries)\n"
      "  characterize: bench=|kernel=|program=|trace=  [insts= seed=]\n"
      "  asm: program=<file.s> [max_steps=]\n"
      "  record: bench=|kernel=|program=  out=<file.utrc> [insts= seed=]\n"
      "  hw: [fi= cb=]\n"
      "  avf-report: [systems=unsync] [benches=gzip] [insts= seed= threads=]\n"
      "            [protect= protect.<structure>=] [indent=2] [out=<path>]\n"
      "            run an avf=1 campaign and print the unsync.avf_report.v1\n"
      "            JSON (per-structure ACE exposure + protection coverage +\n"
      "            hwmodel area/power deltas); byte-identical for any\n"
      "            threads= value (docs/FAULTS.md)\n"
      "  version: print schema versions and build configuration\n"
      "  global: log=debug|info|warn|error   (diagnostic verbosity)\n"
      "          avf=1  ACE/AVF residency accounting for run/sweep/campaign\n"
      "            (observation-only: simulated results are bit-identical;\n"
      "            adds the fault.avf.* metric tree)\n"
      "          protect=<none|parity|secded>  uniform uncore protection\n"
      "            plan; protect.<bus_queue|mshr|write_buffer|cache_tag|\n"
      "            tlb|dram_queue>=<mech> overrides one structure\n"
      "key spelling: every option is key=value and every key is snake_case;\n"
      "  --key=value is accepted for any key, a bare --flag means flag=1,\n"
      "  and kebab-case GNU spellings map onto the snake_case key\n"
      "  (--prefix-interval=800 == prefix_interval=800). Unknown keys fail\n"
      "  (exit 2) with a did-you-mean suggestion. A value is parsed whole\n"
      "  and must fit its field: cb=12x, insts=-5 and threads=0 exit 2.\n"
      "exit codes: 0 success, 1 simulation error, 2 configuration error\n";
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::vector<std::string> split_csv(const std::string& values) {
  std::vector<std::string> out;
  std::string cur;
  for (const char c : values) {
    if (c == ',') {
      out.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  if (!cur.empty()) out.push_back(cur);
  return out;
}

/// Builds the workload stream selected by bench=/kernel=/program=/trace=.
std::unique_ptr<workload::InstStream> make_stream(const Config& cfg,
                                                  std::string* label) {
  const auto insts = cfg.get_unsigned<std::uint64_t>("insts", 50000);
  const auto seed = cfg.get_unsigned<std::uint64_t>("seed", 42);
  if (cfg.has("bench")) {
    const std::string name = cfg.get_string("bench", "");
    *label = name;
    return std::make_unique<workload::SyntheticStream>(
        workload::profile(name), seed, insts);
  }
  if (cfg.has("kernel")) {
    const std::string name = cfg.get_string("kernel", "");
    *label = name;
    for (const auto& k : workload::standard_kernel_suite()) {
      if (k.name == name) {
        return std::make_unique<workload::TraceStream>(
            workload::record_trace(workload::assemble(k), 3'000'000));
      }
    }
    throw ConfigError("unknown kernel: " + name + " (see `unsync_sim list`)");
  }
  if (cfg.has("program")) {
    const std::string path = cfg.get_string("program", "");
    *label = path;
    const auto prog = isa::Assembler::assemble(read_file(path));
    return std::make_unique<workload::TraceStream>(
        workload::record_trace(prog, insts));
  }
  if (cfg.has("trace")) {
    const std::string path = cfg.get_string("trace", "");
    *label = path;
    return std::make_unique<workload::TraceStream>(
        workload::load_trace(path));
  }
  throw ConfigError(
      "select a workload with bench=, kernel=, program= or trace=");
}

/// Every simulation knob shared by run/sweep/campaign, parsed in ONE place
/// so the subcommands cannot drift apart: the SystemParams block (the
/// architecture knobs) plus the run-environment pair seed / SER.
struct CommonKnobs {
  core::SystemParams params;
  double ser = 0.0;
  std::uint64_t seed = 42;
  /// avf=1: ACE/AVF residency accounting (observation-only; docs/FAULTS.md).
  bool avf = false;
  /// protect= / protect.<structure>= — the uncore protection plan joined
  /// with the measured AVF at report time.
  fault::UncorePlan protect;
};

/// Parses protect=<mech> (uniform) and the per-structure
/// protect.<structure>=<mech> overrides. Consults every per-structure key
/// even when absent so each participates in did-you-mean suggestions.
fault::UncorePlan protect_plan_from(const Config& cfg) {
  fault::UncorePlan plan;
  const auto parse = [](const std::string& key, const std::string& value) {
    fault::Mechanism m;
    if (!fault::parse_protect_mechanism(value, &m)) {
      throw ConfigError("unknown mechanism for " + key + ": " + value +
                        " (none|parity|secded)");
    }
    return m;
  };
  if (cfg.has("protect")) {
    plan = fault::uniform_uncore_plan(
        parse("protect", cfg.get_string("protect", "none")));
  }
  bool custom = false;
  for (std::size_t i = 0; i < fault::kUncoreStructureCount; ++i) {
    const auto s = static_cast<fault::UncoreStructure>(i);
    const std::string key = std::string("protect.") + fault::name_of(s);
    const std::string value = cfg.get_string(key, "");
    if (value.empty()) continue;
    plan.set(s, parse(key, value));
    custom = true;
  }
  if (custom) plan.name = "custom";
  return plan;
}

CommonKnobs knobs_from(const Config& cfg) {
  CommonKnobs k;
  auto& p = k.params;
  p.unsync.cb_entries = cfg.get_unsigned<std::size_t>("cb", 128);
  p.unsync.group_size = cfg.get_unsigned<unsigned>("group", 2);
  p.reunion.fingerprint_interval = cfg.get_unsigned<unsigned>("fi", 10);
  p.reunion.compare_latency = cfg.get_unsigned<Cycle>("latency", 10);
  p.checkpoint.checkpoint_interval =
      cfg.get_unsigned<std::uint64_t>("interval", 1000);
  p.checkpoint.checkpoint_cost = cfg.get_unsigned<Cycle>("capture", 120);
  p.hetero.log_entries = cfg.get_unsigned<std::size_t>("checker.log", 64);
  p.hetero.checker_width =
      cfg.get_unsigned<std::uint32_t>("checker.width", 2);
  p.hetero.rollback_penalty =
      cfg.get_unsigned<Cycle>("checker.rollback", 60);
  k.ser = cfg.get_double("ser", 0.0);
  k.seed = cfg.get_unsigned<std::uint64_t>("seed", 42);
  k.avf = cfg.get_bool("avf", false);
  k.protect = protect_plan_from(cfg);

  return k;
}

/// Rejects out-of-range parameters of `kind` as a configuration error
/// (exit 2): the check the system constructors make, run on every job
/// before any job runs.
void check_params(core::SystemKind kind, const core::SystemParams& params) {
  try {
    core::validate(kind, params);
  } catch (const std::invalid_argument& e) {
    throw ConfigError(e.what());
  }
}

/// Resolves the sweep/campaign workload into a SimJob template: a profile
/// name for synthetic benchmarks, or a shared recorded trace otherwise.
runtime::SimJob job_template(const Config& cfg, const CommonKnobs& knobs,
                             std::string* label) {
  runtime::SimJob job;
  job.insts = cfg.get_unsigned<std::uint64_t>("insts", 50000);
  job.params = knobs.params;
  job.ser_per_inst = knobs.ser;
  job.avf = knobs.avf;
  job.protect = knobs.protect;
  if (cfg.has("bench")) {
    job.profile = cfg.get_string("bench", "");
    *label = job.profile;
    (void)workload::profile(job.profile);  // validate the name up front
    return job;
  }
  // Kernel / program / trace workloads: record once, share across jobs.
  auto stream = make_stream(cfg, label);
  std::vector<workload::DynOp> ops;
  workload::DynOp op;
  while (stream->next(&op)) ops.push_back(op);
  job.trace =
      std::make_shared<const std::vector<workload::DynOp>>(std::move(ops));
  return job;
}

/// Writes a metrics snapshot to `path` — CSV when the extension is .csv,
/// pretty JSON otherwise.
void write_metrics_file(const obs::MetricsSnapshot& snap,
                        const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write metrics file " + path);
  const bool csv = path.size() >= 4 && path.rfind(".csv") == path.size() - 4;
  out << (csv ? snap.to_csv() : snap.to_json(2) + "\n");
  Log::info("wrote metrics (" + std::to_string(snap.counters.size()) +
            " counters, " + std::to_string(snap.gauges.size()) + " gauges, " +
            std::to_string(snap.histograms.size()) + " histograms) to " +
            path);
}

int cmd_run(const Config& cfg) {
  std::string label;
  const auto stream = make_stream(cfg, &label);
  const CommonKnobs knobs = knobs_from(cfg);

  core::SystemConfig sys_cfg;
  sys_cfg.num_threads = cfg.get_unsigned<unsigned>("threads", 1, 1);
  sys_cfg.ser_per_inst = knobs.ser;
  sys_cfg.seed = knobs.seed;
  sys_cfg.avf = knobs.avf;
  sys_cfg.uncore_protect = knobs.protect;

  const bool want_csv = cfg.get_bool("csv", false);
  const bool want_report = cfg.get_bool("report", false);
  const std::string format = cfg.get_string("format", "text");
  if (format != "text" && format != "json") {
    throw ConfigError("unknown format: " + format + " (text|json)");
  }
  const std::string metrics_path = cfg.get_string("metrics", "");
  const std::string trace_path = cfg.get_string("trace_out", "");

  const std::string system = cfg.get_string("system", "unsync");
  const auto kind = core::parse_system(system);
  if (!kind) throw ConfigError("unknown system: " + system);
  check_params(*kind, knobs.params);
  const auto sys = core::make_system(*kind, sys_cfg, *stream, knobs.params);

  obs::MetricsRegistry registry;
  std::unique_ptr<obs::JsonlTraceSink> trace_sink;
  if (!trace_path.empty()) {
    const auto flush_every =
        cfg.get_unsigned<std::uint64_t>("trace_flush_every", 256);
    trace_sink = std::make_unique<obs::JsonlTraceSink>(trace_path, flush_every);
  }
  if (!metrics_path.empty() || trace_sink) {
    sys->set_observability(metrics_path.empty() ? nullptr : &registry,
                           trace_sink.get());
  }

  // Checkpoint/restore (docs/CHECKPOINTS.md). resume= restores a snapshot
  // into the identically-configured system built above; checkpoint_at= runs
  // to that absolute cycle, saves, and exits — resuming the file later
  // yields the bit-exact result of the uninterrupted run.
  const std::string resume_path = cfg.get_string("resume", "");
  const std::string ckpt_path = cfg.get_string("checkpoint", "");
  const auto ckpt_at = cfg.get_unsigned<Cycle>("checkpoint_at", 0);
  if (!resume_path.empty()) sys->load_checkpoint_file(resume_path);
  if (ckpt_at > 0) {
    if (ckpt_path.empty()) {
      throw ConfigError("checkpoint_at= needs checkpoint=<file>");
    }
    sys->run(ckpt_at);
    sys->save_checkpoint_file(ckpt_path);
    std::cout << "checkpoint: " << system << " on " << label << " at cycle "
              << ckpt_at << " -> " << ckpt_path << "\n";
    return kExitOk;
  }

  const engine::RunResult result = sys->run();
  if (!ckpt_path.empty()) sys->save_checkpoint_file(ckpt_path);

  if (!metrics_path.empty()) {
    write_metrics_file(registry.snapshot(), metrics_path);
  }
  if (trace_sink) {
    trace_sink->flush();
    Log::info("wrote " + std::to_string(trace_sink->records_written()) +
              " trace records to " + trace_path);
  }

  if (format == "json") {
    std::cout << result.to_json() << "\n";
  } else if (want_csv) {
    std::cout << core::RunReport::csv_header()
              << core::RunReport(result).csv_rows();
  } else if (want_report) {
    core::RunReport(result, &sys->memory()).print(std::cout);
  } else {
    std::cout << system << " on " << label << ": " << result.cycles
              << " cycles, IPC " << TextTable::num(result.thread_ipc(), 4);
    if (result.errors_injected) {
      std::cout << ", errors " << result.errors_injected << ", recoveries "
                << result.recoveries << ", rollbacks " << result.rollbacks;
    }
    std::cout << "\n";
  }
  return kExitOk;
}

/// sweep param=<cb|fi|latency|group|ser> values=v1,v2,... plus the usual
/// run selectors — emits one CSV row per value. Points run concurrently
/// across threads= host workers; rows print in sweep order.
int cmd_sweep(const Config& cfg) {
  const std::string param = cfg.get_string("param", "");
  const std::string values = cfg.get_string("values", "");
  if (param.empty() || values.empty()) {
    throw ConfigError("sweep needs param= and values=v1,v2,...");
  }
  const std::vector<std::string> points = split_csv(values);

  const std::string system = cfg.get_string("system", "unsync");
  const auto kind = core::parse_system(system);
  if (!kind || (*kind != core::SystemKind::kUnSync &&
                *kind != core::SystemKind::kReunion &&
                *kind != core::SystemKind::kBaseline &&
                *kind != core::SystemKind::kHetero)) {
    throw ConfigError("sweep supports system=unsync|reunion|baseline|hetero");
  }

  const CommonKnobs knobs = knobs_from(cfg);
  std::string label;
  runtime::SimJob base = job_template(cfg, knobs, &label);
  base.system = *kind;
  base.app_threads = 1;
  // Sweeps keep the historical fixed-seed semantics: every point runs the
  // identical workload stream; only the swept parameter varies.
  base.seed = knobs.seed;

  std::vector<runtime::SimJob> jobs;
  jobs.reserve(points.size());
  for (const auto& point : points) {
    runtime::SimJob job = base;
    job.label = point;
    const std::string what = "sweep value of " + param;
    if (param == "cb") {
      job.params.unsync.cb_entries =
          Config::parse_unsigned<std::size_t>(what, point);
    } else if (param == "group") {
      job.params.unsync.group_size =
          Config::parse_unsigned<unsigned>(what, point);
    } else if (param == "fi") {
      job.params.reunion.fingerprint_interval =
          Config::parse_unsigned<unsigned>(what, point);
    } else if (param == "latency") {
      job.params.reunion.compare_latency =
          Config::parse_unsigned<Cycle>(what, point);
    } else if (param == "log") {
      job.params.hetero.log_entries =
          Config::parse_unsigned<std::size_t>(what, point);
    } else if (param == "ser") {
      job.ser_per_inst = Config::parse_double(what, point);
    } else {
      throw ConfigError("unknown sweep param: " + param +
                        " (cb|fi|latency|group|log|ser)");
    }
    check_params(job.system, job.params);
    jobs.push_back(std::move(job));
  }

  runtime::CampaignRunner::Options opts;
  opts.threads = cfg.get_unsigned<unsigned>("threads", 0);
  opts.campaign_seed = *base.seed;
  const auto out = runtime::CampaignRunner(opts).run(jobs);

  std::cout << param << ",system,cycles,ipc,errors,recoveries,rollbacks\n";
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const auto& r = out.results[i];
    std::cout << jobs[i].label << ',' << system << ',' << r.cycles << ','
              << TextTable::num(r.thread_ipc(), 4) << ','
              << r.errors_injected << ',' << r.recoveries << ','
              << r.rollbacks << '\n';
  }
  return kExitOk;
}

/// Prefix-sharing knobs shared by campaign / campaign-worker /
/// campaign-coordinator: prefix_share=1 turns the engine on,
/// prefix_interval= sets the golden checkpoint cadence (campaign identity
/// — all distributed participants must agree), prefix_cache_mb= the
/// per-process LRU budget (performance only, free to differ).
runtime::PrefixOptions prefix_from(const Config& cfg) {
  runtime::PrefixOptions p;
  p.enabled = cfg.get_bool("prefix_share", false);
  p.interval = cfg.get_unsigned<Cycle>("prefix_interval", 5000);
  p.cache_mb = cfg.get_unsigned<std::size_t>("prefix_cache_mb", 256);
  if (!p.enabled &&
      (cfg.has("prefix_interval") || cfg.has("prefix_cache_mb"))) {
    throw ConfigError(
        "prefix_interval=/prefix_cache_mb= need prefix_share=1");
  }
  if (p.enabled && p.interval == 0) {
    throw ConfigError("prefix_interval= must be >= 1");
  }
  return p;
}

/// The (benchmark x system) grid shared by campaign / campaign-worker /
/// campaign-coordinator. Every participant of a distributed campaign must
/// build the identical grid from identical args — the journal grid-CRC
/// rejects any divergence.
struct CampaignGrid {
  std::vector<core::SystemKind> systems;
  std::vector<std::string> benches;
  std::vector<runtime::SimJob> jobs;
  std::uint64_t insts = 0;
};

CampaignGrid build_campaign_grid(const Config& cfg, const CommonKnobs& knobs) {
  CampaignGrid grid;
  const auto systems_arg =
      split_csv(cfg.get_string("systems", "baseline,unsync,reunion"));
  for (const auto& s : systems_arg) {
    const auto kind = core::parse_system(s);
    if (!kind) throw ConfigError("unknown system: " + s);
    grid.systems.push_back(*kind);
  }

  const std::string benches_arg = cfg.get_string("benches", "all");
  if (benches_arg == "all") {
    for (const auto& p : workload::all_profiles()) {
      grid.benches.push_back(p.name);
    }
  } else {
    grid.benches = split_csv(benches_arg);
    for (const auto& b : grid.benches) (void)workload::profile(b);  // validate
  }

  runtime::SimJob base;
  base.insts = cfg.get_unsigned<std::uint64_t>("insts", 50000);
  base.app_threads = cfg.get_unsigned<unsigned>("app_threads", 1, 1);
  base.params = knobs.params;
  base.ser_per_inst = knobs.ser;
  base.avf = knobs.avf;
  base.protect = knobs.protect;
  grid.insts = base.insts;

  grid.jobs.reserve(grid.benches.size() * grid.systems.size());
  for (const auto& bench : grid.benches) {
    for (const auto kind : grid.systems) {
      runtime::SimJob job = base;
      job.label = bench;
      job.profile = bench;
      job.system = kind;
      check_params(job.system, job.params);
      grid.jobs.push_back(std::move(job));
    }
  }
  return grid;
}

/// Campaign output selection (table/CSV/JSON + metrics file), shared by the
/// single-process campaign and the distributed coordinator. The default
/// JSON surface is a pure function of the grid, so both paths emit
/// identical bytes for identical grids.
void emit_campaign_output(const Config& cfg, const CampaignGrid& grid,
                          const runtime::CampaignOutput& out,
                          const std::string& format,
                          const std::string& metrics_path) {
  if (!metrics_path.empty()) {
    // The file variant may carry wall-time (it is a measurement artifact,
    // not part of the deterministic result surface).
    obs::MetricsSnapshot snap = out.metrics;
    for (const auto s : out.job_wall_seconds) {
      snap.gauges["campaign.job_wall_seconds"].add(s);
    }
    snap.merge(out.scheduler_metrics);
    write_metrics_file(snap, metrics_path);
  }

  if (format == "json") {
    std::cout << out.to_json() << "\n";
  } else if (cfg.get_bool("csv", false)) {
    std::cout << "benchmark,system,cycles,ipc,errors,recoveries,rollbacks\n";
    for (std::size_t i = 0; i < grid.jobs.size(); ++i) {
      const auto& r = out.results[i];
      std::cout << grid.jobs[i].label << ',' << name_of(grid.jobs[i].system)
                << ',' << r.cycles << ',' << TextTable::num(r.thread_ipc(), 4)
                << ',' << r.errors_injected << ',' << r.recoveries << ','
                << r.rollbacks << '\n';
    }
  } else {
    TextTable t("Campaign: per-benchmark IPC (" + std::to_string(grid.insts) +
                " insts/run)");
    std::vector<std::string> header = {"benchmark"};
    for (const auto kind : grid.systems) header.emplace_back(name_of(kind));
    t.set_header(header);
    for (std::size_t b = 0; b < grid.benches.size(); ++b) {
      std::vector<std::string> row = {grid.benches[b]};
      for (std::size_t s = 0; s < grid.systems.size(); ++s) {
        row.push_back(TextTable::num(
            out.results[b * grid.systems.size() + s].thread_ipc(), 3));
      }
      t.add_row(row);
    }
    t.print(std::cout);
  }
}

/// Validates format= and rejects trace_out= for multi-job commands.
std::string campaign_format(const Config& cfg) {
  const std::string format = cfg.get_string("format", "text");
  if (format != "text" && format != "json") {
    throw ConfigError("unknown format: " + format + " (text|json)");
  }
  if (cfg.has("trace_out")) {
    throw ConfigError(
        "trace_out= is only supported by `run` (a multi-job event trace "
        "would interleave nondeterministically)");
  }
  return format;
}

/// campaign: a (benchmark x system) grid across the host thread pool.
/// Job seeds derive from (seed=, job index), so the table/CSV/JSON is
/// byte-identical for threads=1 and threads=N.
int cmd_campaign(const Config& cfg) {
  const std::string format = campaign_format(cfg);
  const std::string metrics_path = cfg.get_string("metrics", "");
  const CommonKnobs knobs = knobs_from(cfg);
  const CampaignGrid grid = build_campaign_grid(cfg, knobs);

  runtime::CampaignRunner::Options opts;
  opts.threads = cfg.get_unsigned<unsigned>("threads", 0);
  opts.campaign_seed = knobs.seed;
  opts.collect_metrics = !metrics_path.empty() || format == "json";
  opts.prefix = prefix_from(cfg);
  opts.journal = cfg.get_string("checkpoint", "");
  opts.resume = cfg.get_bool("resume", false);
  if (opts.resume && opts.journal.empty()) {
    throw ConfigError("resume=1 needs checkpoint=<journal file>");
  }
  if (cfg.get_bool("progress", false)) {
    opts.progress = [](std::size_t completed, std::size_t total) {
      Log::info("campaign progress " + std::to_string(completed) + "/" +
                std::to_string(total));
    };
  }
  const auto out = runtime::CampaignRunner(opts).run(grid.jobs);

  emit_campaign_output(cfg, grid, out, format, metrics_path);
  Log::info("[campaign] " + std::to_string(grid.jobs.size()) + " jobs, " +
            std::to_string(out.total_instructions()) +
            " simulated instructions in " +
            TextTable::num(out.wall_seconds, 2) + "s");
  return kExitOk;
}

/// Distributed-campaign knobs shared by worker and coordinator.
runtime::DistributedOptions distributed_from(const Config& cfg,
                                             const CommonKnobs& knobs) {
  runtime::DistributedOptions opts;
  opts.dir = cfg.get_string("dir", "");
  if (opts.dir.empty()) throw ConfigError("dir=<campaign dir> is required");
  opts.workers = cfg.get_unsigned<unsigned>("workers", 0);
  if (opts.workers == 0) throw ConfigError("workers=<N >= 1> is required");
  opts.campaign_seed = knobs.seed;
  opts.prefix = prefix_from(cfg);
  return opts;
}

/// campaign-worker: run shard worker= of a workers=-way distributed
/// campaign, journaling into dir=/shard_<worker>.jsonl. Safe to kill -9
/// and rerun: valid journal lines are restored, torn ones re-run.
int cmd_campaign_worker(const Config& cfg) {
  const CommonKnobs knobs = knobs_from(cfg);
  const CampaignGrid grid = build_campaign_grid(cfg, knobs);
  runtime::DistributedOptions opts = distributed_from(cfg, knobs);
  if (!cfg.has("worker")) throw ConfigError("worker=<shard index> is required");
  opts.shard = cfg.get_unsigned<unsigned>("worker", 0);
  if (opts.shard >= opts.workers) {
    throw ConfigError("worker= must be < workers=");
  }
  opts.threads = cfg.get_unsigned<unsigned>("threads", 1);
  opts.steal = cfg.get_bool("steal", true);
  opts.collect_metrics = cfg.get_bool("collect_metrics", false);
  if (cfg.get_bool("progress", false)) {
    const unsigned shard = opts.shard;
    opts.progress = [shard](std::size_t completed, std::size_t) {
      Log::info("worker " + std::to_string(shard) + " completed " +
                std::to_string(completed) + " jobs");
    };
  }
  const std::size_t ran = runtime::run_worker(grid.jobs, opts);
  std::cout << "worker " << opts.shard << "/" << opts.workers << ": ran "
            << ran << " of " << grid.jobs.size() << " jobs -> "
            << runtime::shard_journal_path(opts.dir, opts.shard) << "\n";
  return kExitOk;
}

/// campaign-coordinator: pin the campaign manifest, wait until the shard
/// journals cover every job, and emit output byte-identical to a serial
/// `campaign` run of the same grid.
int cmd_campaign_coordinator(const Config& cfg) {
  const std::string format = campaign_format(cfg);
  const std::string metrics_path = cfg.get_string("metrics", "");
  const CommonKnobs knobs = knobs_from(cfg);
  const CampaignGrid grid = build_campaign_grid(cfg, knobs);
  runtime::DistributedOptions opts = distributed_from(cfg, knobs);
  opts.collect_metrics = !metrics_path.empty() || format == "json";
  opts.poll_ms = cfg.get_unsigned<unsigned>("poll_ms", 100);
  opts.timeout_seconds = cfg.get_double("timeout", 600.0);
  const auto out = runtime::merge_shards(grid.jobs, opts);
  emit_campaign_output(cfg, grid, out, format, metrics_path);
  Log::info("[campaign-coordinator] merged " + std::to_string(opts.workers) +
            " shards, " + std::to_string(grid.jobs.size()) + " jobs, " +
            std::to_string(out.total_instructions()) +
            " simulated instructions");
  return kExitOk;
}

/// campaign status journal=<path>: journal health without running anything
/// (works on single-process journals and distributed shard journals alike).
int cmd_campaign_status(const Config& cfg) {
  const std::string path = cfg.get_string("journal", "");
  if (path.empty()) {
    throw ConfigError("campaign status needs journal=<file>");
  }
  const auto status = runtime::journal_status(path);
  std::cout << "journal:      " << path << "\n"
            << "schema:       " << ckpt::kCampaignJournalSchema << "\n"
            << "campaign_seed " << status.header.campaign_seed << "\n"
            << "jobs:         " << status.header.jobs << "\n"
            << "grid_crc:     " << status.header.grid_crc << "\n"
            << "metrics:      "
            << (status.header.collect_metrics ? "collected" : "off") << "\n";
  if (status.header.shard) {
    std::cout << "shard:        " << *status.header.shard << " of "
              << status.header.workers.value_or(0) << "\n";
  }
  std::cout << "done:         " << status.done << "\n"
            << "pending:      " << status.pending() << "\n"
            << "duplicates:   " << status.duplicates << "\n"
            << "corrupt:      " << status.corrupt << "\n";
  if (status.prefix) {
    const auto& p = *status.prefix;
    std::cout << "prefix cache: goldens=" << p.goldens_built
              << " hits=" << p.hits << " misses=" << p.misses
              << " evictions=" << p.evictions << " bytes=" << p.bytes << "\n"
              << "prefix jobs:  restored=" << p.jobs_restored
              << " spliced=" << p.jobs_spliced
              << " bypassed=" << p.jobs_bypassed
              << " cycles_skipped=" << p.cycles_skipped << "\n";
  }
  // Corrupt entries are an input problem the caller must know about —
  // exit 2 (configuration error), same as an unreadable/mismatched header,
  // so scripts can gate on the journal being healthy. The counts above
  // still print: "what is broken" beats a bare nonzero exit.
  return status.corrupt > 0 ? kExitConfigError : kExitOk;
}

int cmd_characterize(const Config& cfg) {
  std::string label;
  const auto stream = make_stream(cfg, &label);
  const auto stats = workload::characterize(*stream);
  std::cout << stats.summary(label);
  return kExitOk;
}

int cmd_asm(const Config& cfg) {
  const std::string path = cfg.get_string("program", "");
  if (path.empty()) throw ConfigError("asm needs program=<file.s>");
  const auto prog = isa::Assembler::assemble(read_file(path));
  std::cout << "assembled " << prog.code.size() << " instructions, "
            << prog.data.size() << " data bytes\n";
  isa::FunctionalSim sim(prog);
  sim.run(cfg.get_unsigned<std::uint64_t>("max_steps", 10'000'000));
  std::cout << "retired " << sim.retired() << " instructions; "
            << (sim.halted() ? "halted" : "STEP LIMIT REACHED") << "\n";
  for (std::size_t i = 0; i < sim.output().size(); ++i) {
    std::cout << "output[" << i << "] = " << sim.output()[i] << "\n";
  }
  return kExitOk;
}

int cmd_record(const Config& cfg) {
  const std::string out = cfg.get_string("out", "");
  if (out.empty()) throw ConfigError("record needs out=<file.utrc>");
  std::string label;
  const auto stream = make_stream(cfg, &label);
  std::vector<workload::DynOp> ops;
  workload::DynOp op;
  while (stream->next(&op)) ops.push_back(op);
  workload::save_trace(out, ops);
  std::cout << "wrote " << ops.size() << " ops (" << label << ") to " << out
            << "\n";
  return kExitOk;
}

int cmd_hw(const Config& cfg) {
  const int fi = cfg.get_unsigned<int>("fi", 10);
  const int cb = cfg.get_unsigned<int>("cb", 10);
  const auto mips = hwmodel::mips_baseline();
  TextTable t("Per-core hardware (65nm, 300MHz)");
  t.set_header({"config", "core um^2", "L1 um^2", "total um^2", "power W",
                "area ovh", "power ovh"});
  for (const auto& hw :
       {mips, hwmodel::reunion_core(fi), hwmodel::unsync_core(cb),
        hwmodel::unsync_hardened_core(cb)}) {
    t.add_row({hw.name, TextTable::num(hw.core_area_um2, 0),
               TextTable::num(hw.l1_area_um2, 0),
               TextTable::num(hw.total_area_um2(), 0),
               TextTable::num(hw.total_power_w(), 3),
               TextTable::pct(hw.area_overhead_vs(mips)),
               TextTable::pct(hw.power_overhead_vs(mips))});
  }
  t.print(std::cout);
  return kExitOk;
}

/// avf-report: run an avf=1 campaign (default: unsync on one benchmark) and
/// emit the "unsync.avf_report.v1" JSON — measured per-structure ACE
/// exposure joined with the protection plan's coverage and hwmodel costs.
/// The default unsync grid covers all six uncore structures (the CBs are
/// the write_buffer instances). Byte-identical for any threads= value: the
/// report is built from the worker-count-independent merged counters.
int cmd_avf_report(const Config& cfg) {
  const CommonKnobs knobs = knobs_from(cfg);
  if (cfg.has("avf") && !knobs.avf) {
    throw ConfigError("avf-report implies avf=1 (drop avf=0)");
  }

  const auto systems_arg = split_csv(cfg.get_string("systems", "unsync"));
  std::vector<core::SystemKind> systems;
  for (const auto& s : systems_arg) {
    const auto kind = core::parse_system(s);
    if (!kind) throw ConfigError("unknown system: " + s);
    systems.push_back(*kind);
  }
  const auto benches = split_csv(cfg.get_string("benches", "gzip"));
  for (const auto& b : benches) (void)workload::profile(b);  // validate

  runtime::SimJob base;
  base.insts = cfg.get_unsigned<std::uint64_t>("insts", 20000);
  base.app_threads = cfg.get_unsigned<unsigned>("app_threads", 1, 1);
  base.params = knobs.params;
  base.ser_per_inst = knobs.ser;
  base.avf = true;
  base.protect = knobs.protect;

  std::vector<runtime::SimJob> jobs;
  jobs.reserve(benches.size() * systems.size());
  for (const auto& bench : benches) {
    for (const auto kind : systems) {
      runtime::SimJob job = base;
      job.label = bench;
      job.profile = bench;
      job.system = kind;
      check_params(job.system, job.params);
      jobs.push_back(std::move(job));
    }
  }

  runtime::CampaignRunner::Options opts;
  opts.threads = cfg.get_unsigned<unsigned>("threads", 0);
  opts.campaign_seed = knobs.seed;
  opts.collect_metrics = true;
  const auto out = runtime::CampaignRunner(opts).run(jobs);

  fault::AvfReport report = fault::build_avf_report(out.metrics, knobs.protect);
  // hwmodel join: the published capacity_bits sum over jobs; every job
  // instruments the identical structures, so per-chip bits = sum / jobs.
  for (auto& s : report.structures) {
    const auto hw = hwmodel::uncore_protection_hardware(
        s.mechanism, s.capacity_bits / jobs.size());
    s.area_delta_um2 = hw.area_um2;
    s.power_delta_w = hw.power_w;
  }

  const auto indent = static_cast<int>(cfg.get_int("indent", 2));
  const std::string report_json = report.to_json(indent);
  const std::string out_path = cfg.get_string("out", "");
  if (!out_path.empty()) {
    std::ofstream f(out_path);
    if (!f) throw std::runtime_error("cannot write " + out_path);
    f << report_json << "\n";
    Log::info("wrote AVF report to " + out_path);
  } else {
    std::cout << report_json << "\n";
  }
  return kExitOk;
}

/// Prints every stable serialization schema this binary reads or writes,
/// plus the build configuration — the first thing to capture in a bug
/// report, and what scripts check before trusting archived artifacts.
int cmd_version() {
  std::cout << "unsync_sim — UnSync soft-error resilience simulator\n"
            << "schemas:\n"
            << "  run result        unsync.run_result.v2\n"
            << "  campaign          unsync.campaign.v2\n"
            << "  metrics           unsync.metrics.v1\n"
            << "  checkpoint        " << ckpt::kSchema << "\n"
            << "  campaign journal  unsync.campaign_journal.v1\n"
            << "  avf report        unsync.avf_report.v1\n"
            << "  system ckpt tags  BASE UNSY REUN LOCK DMRC HTRO\n"
            << "build:\n"
            << "  compiler          " <<
#if defined(__clang__)
      "clang " << __clang_major__ << "." << __clang_minor__
#elif defined(__GNUC__)
      "gcc " << __GNUC__ << "." << __GNUC_MINOR__
#else
      "unknown"
#endif
            << "\n  c++ standard      " << __cplusplus
            << "\n  assertions        " <<
#ifdef NDEBUG
      "off (NDEBUG)"
#else
      "on"
#endif
            << "\n  trace gate        " <<
#ifdef UNSYNC_TRACE_DISABLED
      "compiled out (UNSYNC_TRACE_DISABLED)"
#else
      "runtime (enabled when a sink is attached)"
#endif
            << "\n";
  return kExitOk;
}

int cmd_list() {
  std::cout << "benchmark profiles:\n";
  for (const auto& p : workload::all_profiles()) {
    std::cout << "  " << p.name << " (" << p.suite << ", serializing "
              << TextTable::pct(p.mix.serializing, 1) << ", stores "
              << TextTable::pct(p.mix.store, 0) << ")\n";
  }
  std::cout << "kernels:\n";
  for (const auto& k : workload::standard_kernel_suite()) {
    std::cout << "  " << k.name << "\n";
  }
  std::cout << "systems: baseline unsync reunion lockstep checkpoint hetero\n";
  return kExitOk;
}

/// Accepts GNU-style spellings: "--key=value" -> "key=value", a bare
/// "--flag" -> "flag=1", and kebab-case keys map onto the snake_case
/// vocabulary ("--prefix-interval=800" -> "prefix_interval=800"). Only the
/// key part is rewritten — values (file paths, benchmark lists) keep their
/// dashes. Returns the normalized argument strings.
std::vector<std::string> normalize_args(int argc, char** argv) {
  std::vector<std::string> out;
  out.reserve(static_cast<std::size_t>(argc));
  for (int i = 0; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0 && arg.size() > 2) {
      arg = arg.substr(2);
      auto eq = arg.find('=');
      if (eq == std::string::npos) {
        eq = arg.size();
        arg += "=1";
      }
      std::replace(arg.begin(), arg.begin() + static_cast<std::ptrdiff_t>(eq),
                   '-', '_');
    }
    out.push_back(std::move(arg));
  }
  return out;
}

bool is_help(const std::string& arg) {
  return arg == "help" || arg == "-h" || arg == "--help" || arg == "help=1";
}

LogLevel parse_log_level(const std::string& name) {
  if (name == "debug") return LogLevel::kDebug;
  if (name == "info") return LogLevel::kInfo;
  if (name == "warn") return LogLevel::kWarn;
  if (name == "error") return LogLevel::kError;
  if (name == "off") return LogLevel::kOff;
  throw ConfigError("unknown log level: " + name +
                    " (debug|info|warn|error|off)");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    print_usage(std::cerr);
    return kExitConfigError;
  }
  const std::vector<std::string> args = normalize_args(argc - 1, argv + 1);
  if (is_help(args.front())) {
    print_usage(std::cout);
    return kExitOk;
  }
  std::string command = args.front();
  std::size_t first_option = 1;
  // "campaign status" is a two-word subcommand (the second word would
  // otherwise be rejected as a stray positional argument).
  if (command == "campaign" && args.size() > 1 && args[1] == "status") {
    command = "campaign-status";
    first_option = 2;
  }

  std::vector<const char*> arg_ptrs;  // Config::from_args skips argv[0]
  arg_ptrs.push_back("unsync_sim");
  for (std::size_t i = first_option; i < args.size(); ++i) {
    if (is_help(args[i])) {
      print_usage(std::cout);
      return kExitOk;
    }
    arg_ptrs.push_back(args[i].c_str());
  }

  int rc = -1;
  try {
    std::vector<std::string> positional;
    const Config cfg = Config::from_args(static_cast<int>(arg_ptrs.size()),
                                         arg_ptrs.data(), &positional);
    Log::set_level(parse_log_level(cfg.get_string("log", "warn")));
    if (!positional.empty()) {
      throw ConfigError("unexpected argument '" + positional.front() +
                        "' (options are key=value)");
    }
    if (command == "run") rc = cmd_run(cfg);
    else if (command == "sweep") rc = cmd_sweep(cfg);
    else if (command == "campaign") rc = cmd_campaign(cfg);
    else if (command == "campaign-worker") rc = cmd_campaign_worker(cfg);
    else if (command == "campaign-coordinator") {
      rc = cmd_campaign_coordinator(cfg);
    }
    else if (command == "campaign-status") rc = cmd_campaign_status(cfg);
    else if (command == "characterize") rc = cmd_characterize(cfg);
    else if (command == "asm") rc = cmd_asm(cfg);
    else if (command == "record") rc = cmd_record(cfg);
    else if (command == "hw") rc = cmd_hw(cfg);
    else if (command == "avf-report") rc = cmd_avf_report(cfg);
    else if (command == "list") rc = cmd_list();
    // normalize_args rewrites a bare --version to "version=1".
    else if (command == "version" || command == "version=1") {
      rc = cmd_version();
    }
    if (rc == -1) {
      throw ConfigError("unknown subcommand '" + command + "'");
    }
    // A key nobody consulted is a misconfiguration (e.g. thread=8 instead
    // of threads=8): fail loudly rather than silently simulating defaults.
    if (rc == kExitOk && cfg.report_unused("unsync_sim")) {
      return kExitConfigError;
    }
    return rc;
  } catch (const ConfigError& e) {
    Log::error(e.what());
    print_usage(std::cerr);
    return kExitConfigError;
  } catch (const ckpt::CkptError& e) {
    // A malformed / corrupt / mismatched checkpoint or journal is an input
    // problem ("fix the file you pointed me at"), not a simulation failure.
    Log::error(std::string("checkpoint error: ") + e.what());
    return kExitConfigError;
  } catch (const isa::AsmError& e) {
    Log::error(std::string("assembly error: ") + e.what());
    return kExitSimError;
  } catch (const std::exception& e) {
    Log::error(e.what());
    return kExitSimError;
  }
}
