#include "core/report.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "core/unsync_system.hpp"
#include "workload/profile.hpp"
#include "workload/synthetic.hpp"

namespace unsync::core {
namespace {

engine::RunResult sample_run(UnSyncSystem** out_sys = nullptr) {
  static workload::SyntheticStream stream(workload::profile("gzip"), 1, 8000);
  SystemConfig cfg;
  cfg.num_threads = 1;
  cfg.ser_per_inst = 1e-4;
  UnSyncParams p;
  p.cb_entries = 128;
  static UnSyncSystem sys(cfg, p, stream);
  if (out_sys) *out_sys = &sys;
  return sys.run();
}

TEST(RunReport, HeadlineFieldsPresent) {
  const engine::RunResult r = sample_run();
  const std::string text = RunReport(r).str();
  EXPECT_NE(text.find("unsync"), std::string::npos);
  EXPECT_NE(text.find("thread IPC"), std::string::npos);
  EXPECT_NE(text.find("forward recoveries"), std::string::npos);
  EXPECT_NE(text.find("Per-core pipeline"), std::string::npos);
}

TEST(RunReport, MemorySectionWhenHierarchyGiven) {
  UnSyncSystem* sys = nullptr;
  const engine::RunResult r = sample_run(&sys);
  ASSERT_NE(sys, nullptr);
  const std::string text = RunReport(r, &sys->memory()).str();
  EXPECT_NE(text.find("Memory system"), std::string::npos);
  EXPECT_NE(text.find("L2 shared"), std::string::npos);
  EXPECT_NE(text.find("L1D core 0"), std::string::npos);
  EXPECT_NE(text.find("L1I core 1"), std::string::npos);
}

TEST(RunReport, CsvRowsMatchCoreCount) {
  const engine::RunResult r = sample_run();
  const std::string rows = RunReport(r).csv_rows();
  EXPECT_EQ(std::count(rows.begin(), rows.end(), '\n'),
            static_cast<std::ptrdiff_t>(r.core_stats.size()));
  // Column count consistency between header and rows.
  const std::string header = RunReport::csv_header();
  const auto cols = [](const std::string& line) {
    return std::count(line.begin(), line.end(), ',');
  };
  const std::string first_row = rows.substr(0, rows.find('\n'));
  EXPECT_EQ(cols(header.substr(0, header.size() - 1)), cols(first_row));
}

TEST(RunReport, CsvContainsSystemName) {
  const engine::RunResult r = sample_run();
  EXPECT_EQ(RunReport(r).csv_rows().rfind("unsync,", 0), 0u);
}

}  // namespace
}  // namespace unsync::core
