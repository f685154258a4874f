// Execution-driven campaign: records every kernel of the standard URISC
// suite from the golden model, optionally caches the traces on disk (the
// UTRC format), and replays them through all five architectures — the
// complete §II landscape on real programs rather than statistical streams.
//
// The (kernel x architecture) grid runs across host threads; each kernel's
// trace is recorded once and shared (immutable) by its five jobs.
//
//   ./build/examples/kernel_campaign [save_traces=0] [verbose=0]
//                                    [threads=<host workers>]
#include <filesystem>
#include <iostream>
#include <tuple>

#include "common/config.hpp"
#include "common/table.hpp"
#include "core/report.hpp"
#include "runtime/campaign.hpp"
#include "runtime/thread_pool.hpp"
#include "workload/kernels.hpp"
#include "workload/trace.hpp"

int main(int argc, char** argv) {
  using namespace unsync;
  const Config cfg = Config::from_args(argc, argv);
  const auto [save, verbose, threads] = knobs_or_exit([&] {
    return std::tuple{cfg.get_bool("save_traces", false),
                      cfg.get_bool("verbose", false),
                      cfg.get_unsigned<unsigned>("threads", 0)};
  });

  runtime::SimJob base;
  base.params.unsync.cb_entries = 128;
  base.seed = 42;  // traces carry their own determinism; systems see ser=0

  constexpr core::SystemKind kSystems[] = {
      core::SystemKind::kBaseline, core::SystemKind::kLockstep,
      core::SystemKind::kCheckpoint, core::SystemKind::kReunion,
      core::SystemKind::kUnSync};
  const auto suite = workload::standard_kernel_suite();

  // Record every kernel's trace concurrently (the golden-model runs are
  // independent), then share each trace across that kernel's five jobs.
  std::vector<std::shared_ptr<const std::vector<workload::DynOp>>> traces(
      suite.size());
  runtime::parallel_for(threads, suite.size(), [&](std::size_t i) {
    traces[i] = std::make_shared<const std::vector<workload::DynOp>>(
        workload::record_trace(workload::assemble(suite[i]), 3'000'000));
  });
  if (save) {
    for (std::size_t i = 0; i < suite.size(); ++i) {
      const auto path = std::filesystem::temp_directory_path() /
                        (suite[i].name + ".utrc");
      workload::save_trace(path.string(), *traces[i]);
      std::cout << "saved " << path.string() << " (" << traces[i]->size()
                << " ops)\n";
    }
  }

  std::vector<runtime::SimJob> jobs;
  jobs.reserve(suite.size() * 5);
  for (std::size_t i = 0; i < suite.size(); ++i) {
    for (const auto kind : kSystems) {
      runtime::SimJob job = base;
      job.label = suite[i].name;
      job.trace = traces[i];
      job.system = kind;
      jobs.push_back(std::move(job));
    }
  }

  runtime::CampaignRunner::Options opts;
  opts.threads = threads;
  opts.campaign_seed = 42;
  const auto out = runtime::CampaignRunner(opts).run(jobs);
  cfg.report_unused("kernel_campaign");

  TextTable t("URISC kernel suite across architectures (per-thread IPC)");
  t.set_header({"kernel", "insts", "baseline", "lockstep", "checkpoint",
                "reunion", "unsync"});
  for (std::size_t i = 0; i < suite.size(); ++i) {
    std::vector<std::string> row = {suite[i].name,
                                    std::to_string(traces[i]->size())};
    for (std::size_t s = 0; s < 5; ++s) {
      row.push_back(TextTable::num(out.results[i * 5 + s].thread_ipc(), 3));
    }
    t.add_row(row);
    if (verbose) {
      core::RunReport(out.results[i * 5 + 4]).print(std::cout);
      std::cout << "\n";
    }
  }
  t.print(std::cout);

  std::cout << "\nNote the membar_ping row: a barrier-bound loop is the "
               "worst case for Reunion's\nserializing synchronisation and "
               "leaves UnSync (which never synchronises) untouched.\n";
  std::cerr << "[campaign] " << jobs.size() << " jobs, "
            << out.total_instructions() << " simulated instructions in "
            << TextTable::num(out.wall_seconds, 2) << "s\n";
  return 0;
}
