// SPEC2000/MiBench-style campaign: run every built-in benchmark profile
// through all three architectures and print a publication-style summary —
// the workload the paper's evaluation section is built on.
//
// The (benchmark x architecture) grid fans out across host threads via
// runtime::CampaignRunner; rows aggregate in submission order, so the
// table is byte-identical whatever threads= says.
//
//   ./build/examples/spec_campaign [insts=50000] [seed=7] [fi=10] [cb=256]
//                                  [threads=<host workers, default cores>]
#include <iostream>

#include "common/config.hpp"
#include "common/table.hpp"
#include "runtime/campaign.hpp"
#include "workload/profile.hpp"

int main(int argc, char** argv) {
  using namespace unsync;
  const Config cfg = Config::from_args(argc, argv);
  struct Knobs {
    std::uint64_t insts, seed;
    std::size_t cb;
    unsigned fi, threads;
  };
  const Knobs knobs = knobs_or_exit([&] {
    return Knobs{cfg.get_unsigned<std::uint64_t>("insts", 50000),
                 cfg.get_unsigned<std::uint64_t>("seed", 7),
                 cfg.get_unsigned<std::size_t>("cb", 256),
                 cfg.get_unsigned<unsigned>("fi", 10),
                 cfg.get_unsigned<unsigned>("threads", 0)};
  });
  const std::uint64_t insts = knobs.insts;
  const std::uint64_t seed = knobs.seed;

  runtime::SimJob base;
  base.insts = insts;
  base.seed = seed;  // every profile/system cell runs the same-seed stream
  base.params.unsync.cb_entries = knobs.cb;
  base.params.reunion.fingerprint_interval = knobs.fi;

  constexpr core::SystemKind kSystems[] = {core::SystemKind::kBaseline,
                                              core::SystemKind::kUnSync,
                                              core::SystemKind::kReunion};
  const auto& profiles = workload::all_profiles();
  std::vector<runtime::SimJob> jobs;
  jobs.reserve(profiles.size() * 3);
  for (const auto& prof : profiles) {
    for (const auto kind : kSystems) {
      runtime::SimJob job = base;
      job.label = prof.name;
      job.profile = prof.name;
      job.system = kind;
      jobs.push_back(std::move(job));
    }
  }

  runtime::CampaignRunner::Options opts;
  opts.threads = knobs.threads;
  opts.campaign_seed = seed;
  const auto out = runtime::CampaignRunner(opts).run(jobs);
  cfg.report_unused("spec_campaign");  // warn on misspelled knobs

  TextTable t("Per-benchmark IPC across architectures (" +
              std::to_string(insts) + " insts)");
  t.set_header({"benchmark", "suite", "baseline", "unsync", "reunion",
                "unsync ovh%", "reunion ovh%", "unsync/reunion"});

  double gain_best = 0;
  std::string gain_bench;
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    const auto& prof = profiles[i];
    const double b = out.results[i * 3 + 0].thread_ipc();
    const double u = out.results[i * 3 + 1].thread_ipc();
    const double r = out.results[i * 3 + 2].thread_ipc();

    if (u / r > gain_best) {
      gain_best = u / r;
      gain_bench = prof.name;
    }
    t.add_row({prof.name, prof.suite, TextTable::num(b, 3),
               TextTable::num(u, 3), TextTable::num(r, 3),
               TextTable::num((b - u) / b * 100, 1),
               TextTable::num((b - r) / b * 100, 1),
               TextTable::num(u / r, 3)});
  }
  t.print(std::cout);
  std::cout << "\nLargest UnSync advantage: " << gain_bench << " ("
            << TextTable::num((gain_best - 1) * 100, 1)
            << "% faster than Reunion). The paper reports up to 20%.\n";
  std::cerr << "[campaign] " << jobs.size() << " jobs, "
            << out.total_instructions() << " simulated instructions in "
            << TextTable::num(out.wall_seconds, 2) << "s\n";
  return 0;
}
