// Checkpoint / resume walkthrough (docs/CHECKPOINTS.md in one file):
//
//   1. Run an UnSync system to completion — the ground truth.
//   2. Run an identical system partway, snapshot it to a file, and drop it
//      (simulating a crash or a preempted batch slot).
//   3. Construct a fresh system, restore the snapshot, finish the run, and
//      verify the result is bit-identical to the uninterrupted one.
//   4. Run a small campaign with a crash-safe job journal, "kill" it by
//      abandoning it halfway, then resume — again byte-identical output.
//
// Build & run:  ./build/examples/checkpoint_resume [insts=...] [ser=1e-5]
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "core/factory.hpp"
#include "core/system.hpp"
#include "runtime/campaign.hpp"
#include "workload/profile.hpp"
#include "workload/synthetic.hpp"

int main(int argc, char** argv) {
  using namespace unsync;
  const Config cfg = Config::from_args(argc, argv);
  const auto insts = cfg.get_unsigned<std::uint64_t>("insts", 20000);
  const double ser = cfg.get_double("ser", 1e-5);

  core::SystemConfig sys_cfg;
  sys_cfg.num_threads = 2;
  sys_cfg.ser_per_inst = ser;
  sys_cfg.seed = 42;
  const auto make = [&] {
    workload::SyntheticStream stream(workload::profile("gzip"), sys_cfg.seed,
                                     insts);
    return core::make_system(core::SystemKind::kUnSync, sys_cfg, stream);
  };

  // 1. Ground truth: one uninterrupted run.
  const engine::RunResult full = make()->run();
  std::cout << "uninterrupted run: " << full.cycles << " cycles, "
            << full.errors_injected << " errors injected\n";

  // 2. Interrupted twin: simulate to 50%, save, "crash".
  const std::string ckpt_path = "checkpoint_resume_example.ckpt";
  {
    auto sys = make();
    sys->run(full.cycles / 2);
    sys->save_checkpoint_file(ckpt_path);
    std::cout << "snapshotted at cycle " << full.cycles / 2 << " -> "
              << ckpt_path << "\n";
  }  // the half-finished system is destroyed here

  // 3. A fresh process would do exactly this: rebuild the identical system,
  //    restore, finish.
  auto resumed = make();
  resumed->load_checkpoint_file(ckpt_path);
  const engine::RunResult after = resumed->run();
  std::cout << "resumed run:       " << after.cycles << " cycles, "
            << after.errors_injected << " errors injected\n";
  std::cout << (after.to_json() == full.to_json()
                    ? "OK: resumed result is bit-identical\n"
                    : "MISMATCH: resumed result differs!\n");
  std::remove(ckpt_path.c_str());

  // 4. Crash-safe campaign: journal every job, abandon the first attempt
  //    after a partial journal, resume the rest.
  std::vector<runtime::SimJob> jobs;
  for (const char* bench : {"gzip", "mcf", "susan"}) {
    for (const auto kind :
         {core::SystemKind::kBaseline, core::SystemKind::kUnSync}) {
      runtime::SimJob job;
      job.label = bench;
      job.profile = bench;
      job.system = kind;
      job.insts = insts / 4;
      job.ser_per_inst = ser;
      jobs.push_back(std::move(job));
    }
  }
  const std::string journal = "checkpoint_resume_example.jsonl";
  runtime::CampaignRunner::Options opts;
  opts.threads = 2;
  opts.journal = journal;
  const auto reference = runtime::CampaignRunner(opts).run(jobs);

  // Truncate the journal to its first four lines — what a SIGKILL after
  // three completed jobs would leave behind (the header plus three entries).
  {
    std::string partial;
    std::size_t newlines = 0;
    std::ifstream in(journal);
    for (std::string line; std::getline(in, line) && newlines < 4;) {
      partial += line;
      partial += '\n';
      ++newlines;
    }
    std::ofstream out(journal, std::ios::trunc);
    out << partial;
  }

  runtime::CampaignRunner::Options resume_opts = opts;
  resume_opts.threads = 4;  // a different worker count on purpose
  resume_opts.resume = true;
  const auto resumed_out = runtime::CampaignRunner(resume_opts).run(jobs);
  std::cout << "campaign resumed from a 3-job journal: "
            << (resumed_out.to_json() == reference.to_json()
                    ? "OK: byte-identical output\n"
                    : "MISMATCH: campaign output differs!\n");
  std::remove(journal.c_str());

  return 0;
}
