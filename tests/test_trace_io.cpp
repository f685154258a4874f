#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "isa/assembler.hpp"
#include "workload/kernels.hpp"
#include "workload/profile.hpp"
#include "workload/synthetic.hpp"
#include "workload/trace.hpp"

namespace unsync::workload {
namespace {

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

std::vector<DynOp> sample_ops() {
  SyntheticStream s(profile("bzip2"), 11, 3000);
  std::vector<DynOp> ops;
  DynOp op;
  while (s.next(&op)) ops.push_back(op);
  return ops;
}

void expect_equal(const std::vector<DynOp>& a, const std::vector<DynOp>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].seq, b[i].seq) << i;
    EXPECT_EQ(a[i].cls, b[i].cls) << i;
    EXPECT_EQ(a[i].pc, b[i].pc) << i;
    EXPECT_EQ(a[i].mem_addr, b[i].mem_addr) << i;
    EXPECT_EQ(a[i].src[0], b[i].src[0]) << i;
    EXPECT_EQ(a[i].src[1], b[i].src[1]) << i;
    EXPECT_EQ(a[i].writes_reg, b[i].writes_reg) << i;
    EXPECT_EQ(a[i].taken, b[i].taken) << i;
    EXPECT_EQ(a[i].has_mispredict_hint, b[i].has_mispredict_hint) << i;
    EXPECT_EQ(a[i].mispredict_hint, b[i].mispredict_hint) << i;
  }
}

TEST(TraceIo, RoundTripSyntheticStream) {
  const auto ops = sample_ops();
  const std::string path = temp_path("unsync_trace_rt.utrc");
  save_trace(path, ops);
  const auto loaded = load_trace(path);
  expect_equal(ops, loaded);
  std::remove(path.c_str());
}

TEST(TraceIo, RoundTripRecordedKernel) {
  const auto k = make_bubble_sort(32, 4);
  const auto ops = record_trace(assemble(k), 1000000);
  const std::string path = temp_path("unsync_trace_kernel.utrc");
  save_trace(path, ops);
  expect_equal(ops, load_trace(path));
  std::remove(path.c_str());
}

TEST(TraceIo, EmptyTraceRoundTrips) {
  const std::string path = temp_path("unsync_trace_empty.utrc");
  save_trace(path, {});
  EXPECT_TRUE(load_trace(path).empty());
  std::remove(path.c_str());
}

TEST(TraceIo, MissingFileThrows) {
  EXPECT_THROW(load_trace(temp_path("does_not_exist.utrc")),
               std::runtime_error);
}

TEST(TraceIo, BadMagicThrows) {
  const std::string path = temp_path("unsync_trace_bad.utrc");
  std::ofstream(path) << "GARBAGE DATA LONG ENOUGH TO READ";
  EXPECT_THROW(load_trace(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(TraceIo, TruncatedFileThrows) {
  const auto ops = sample_ops();
  const std::string path = temp_path("unsync_trace_trunc.utrc");
  save_trace(path, ops);
  // Chop the file in half.
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size / 2);
  EXPECT_THROW(load_trace(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(TraceIo, SeqThatIsNotTheRecordIndexThrows) {
  auto ops = sample_ops();
  ops[100].seq = 101;
  const std::string path = temp_path("unsync_trace_seq.utrc");
  save_trace(path, ops);
  EXPECT_THROW(load_trace(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(TraceIo, SourceNotOlderThanItsRecordThrows) {
  for (const SeqNum src : {SeqNum{200}, SeqNum{201}}) {  // itself, younger
    auto ops = sample_ops();
    ops[200].src[1] = src;
    const std::string path = temp_path("unsync_trace_src.utrc");
    save_trace(path, ops);
    EXPECT_THROW(load_trace(path), std::runtime_error) << "src " << src;
    std::remove(path.c_str());
  }
}

TEST(TraceIo, LoadedTraceDrivesStream) {
  const auto ops = sample_ops();
  const std::string path = temp_path("unsync_trace_stream.utrc");
  save_trace(path, ops);
  TraceStream stream(load_trace(path));
  EXPECT_EQ(stream.length(), ops.size());
  DynOp op;
  std::uint64_t n = 0;
  while (stream.next(&op)) ++n;
  EXPECT_EQ(n, ops.size());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace unsync::workload
