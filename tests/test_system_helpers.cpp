// Tests for the shared system plumbing in core/system.hpp: thread-stream
// replication, multi-stream pre-warming, the RunResult helpers, and the
// parameter checks every system constructor makes.
#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/factory.hpp"
#include "core/system.hpp"
#include "workload/profile.hpp"
#include "workload/synthetic.hpp"

namespace unsync::core {
namespace {

TEST(SystemHelpers, ReplicateFansOutOnePointer) {
  workload::SyntheticStream s(workload::profile("gzip"), 1, 100);
  const auto v = engine::replicate(s, 3);
  ASSERT_EQ(v.size(), 3u);
  for (const auto* p : v) EXPECT_EQ(p, &s);
}

TEST(SystemHelpers, LengthsAndMax) {
  workload::SyntheticStream a(workload::profile("gzip"), 1, 100);
  workload::SyntheticStream b(workload::profile("mcf"), 1, 250);
  const auto lengths = engine::lengths_of({&a, &b});
  ASSERT_EQ(lengths.size(), 2u);
  EXPECT_EQ(lengths[0], 100u);
  EXPECT_EQ(lengths[1], 250u);
  EXPECT_EQ(engine::max_length(lengths), 250u);
  EXPECT_EQ(engine::max_length({}), 0u);
}

TEST(SystemHelpers, PrewarmDeduplicatesStreams) {
  // The same stream listed twice warms its regions once; two distinct
  // streams warm both regions. Verified through L2 line counts.
  workload::SyntheticStream a(workload::profile("gzip"), 1, 100);
  workload::SyntheticStream b(workload::profile("mcf"), 9, 100);

  mem::MemoryHierarchy dup(mem::MemConfig{}, 2);
  engine::prewarm_from(dup, {&a, &a});
  mem::MemoryHierarchy two(mem::MemConfig{}, 2);
  engine::prewarm_from(two, {&a, &b});
  // Distinct (profile, seed) pairs live in distinct address slots, so two
  // streams install roughly twice the data-warm lines.
  EXPECT_GT(two.l2().lines_valid(), dup.l2().lines_valid() * 3 / 2);
}

/// Forwards to a synthetic stream and records what a system asks of it:
/// the reader count of each share() call and the first stream handed out.
class SharingProbe final : public workload::InstStream {
 public:
  explicit SharingProbe(const workload::SyntheticStream& s) : s_(s) {}

  bool next(workload::DynOp*) override { return false; }
  std::unique_ptr<InstStream> clone() const override { return s_.clone(); }
  void reset() override {}
  std::uint64_t length() const override { return s_.length(); }
  std::optional<WarmRegion> warm_region() const override {
    return s_.warm_region();
  }
  std::optional<WarmRegion> code_region() const override {
    return s_.code_region();
  }
  std::vector<std::unique_ptr<InstStream>> share(
      std::size_t readers) const override {
    auto members = s_.share(readers);
    readers_.push_back(readers);
    if (!first_) first_ = members.front().get();
    return members;
  }

  mutable std::vector<std::size_t> readers_;
  mutable const InstStream* first_ = nullptr;

 private:
  const workload::SyntheticStream& s_;
};

// The scaffold builds one generator per redundancy group: every member,
// hetero's in-order checker included, reads one ring, and an error-free
// run draws each op exactly once for the whole group. The baseline's
// one-core groups keep plain clones.
TEST(SystemHelpers, EachGroupDrawsItsStreamOnce) {
  struct Case {
    SystemKind kind;
    unsigned group;  // UnSync group size
    std::size_t readers;
  };
  for (const Case& c : {Case{SystemKind::kBaseline, 2, 1},
                        Case{SystemKind::kUnSync, 2, 2},
                        Case{SystemKind::kUnSync, 3, 3},
                        Case{SystemKind::kReunion, 2, 2},
                        Case{SystemKind::kLockstep, 2, 2},
                        Case{SystemKind::kCheckpoint, 2, 2},
                        Case{SystemKind::kHetero, 2, 2}}) {
    const workload::SyntheticStream s(workload::profile("gzip"), 3, 3000);
    SharingProbe probe(s);
    SystemConfig cfg;
    cfg.num_threads = 1;
    SystemParams params;
    params.unsync.group_size = c.group;
    auto sys = make_system(c.kind, cfg, probe, params);
    const std::string label =
        std::string(name_of(c.kind)) + "/" + std::to_string(c.group);
    EXPECT_EQ(probe.readers_, std::vector<std::size_t>{c.readers}) << label;
    const engine::RunResult r = sys->run();
    EXPECT_EQ(r.instructions, 3000u) << label;
    const auto stats = workload::SyntheticStream::ring_stats(*probe.first_);
    if (c.readers == 1) {
      EXPECT_FALSE(stats.has_value()) << label;
    } else {
      ASSERT_TRUE(stats.has_value()) << label;
      EXPECT_EQ(stats->drawn, 3000u) << label;
    }
  }
}

TEST(SystemHelpers, ThreadIpcUsesLongestThread) {
  engine::RunResult r;
  r.cycles = 1000;
  r.instructions = 2000;
  EXPECT_DOUBLE_EQ(r.thread_ipc(), 2.0);
  r.cycles = 0;
  EXPECT_DOUBLE_EQ(r.thread_ipc(), 0.0);
}

TEST(SystemHelpers, ErrorEventDefaults) {
  const engine::ErrorEvent e{};
  EXPECT_EQ(e.cycle, 0u);
  EXPECT_FALSE(e.rollback);
}

// Out-of-range parameters throw std::invalid_argument from both
// constructor overloads in every build; without the check a one-core
// UnSync group crashes on its first error and the others never finish.
// Construction only: nothing runs.
TEST(SystemParamsValidation, EveryConstructorRejectsEachBadValue) {
  struct Case {
    const char* label;
    SystemKind kind;
    SystemParams params;
  };
  std::vector<Case> bad;
  const auto add = [&bad](const char* label, SystemKind kind, auto edit) {
    SystemParams p;
    edit(p);
    bad.push_back({label, kind, p});
  };
  add("group=0", SystemKind::kUnSync,
      [](SystemParams& p) { p.unsync.group_size = 0; });
  add("group=1", SystemKind::kUnSync,
      [](SystemParams& p) { p.unsync.group_size = 1; });
  add("cb=0", SystemKind::kUnSync,
      [](SystemParams& p) { p.unsync.cb_entries = 0; });
  add("interval=0", SystemKind::kCheckpoint,
      [](SystemParams& p) { p.checkpoint.checkpoint_interval = 0; });
  add("log=0", SystemKind::kHetero,
      [](SystemParams& p) { p.hetero.log_entries = 0; });
  add("width=0", SystemKind::kHetero,
      [](SystemParams& p) { p.hetero.checker_width = 0; });

  workload::SyntheticStream s(workload::profile("gzip"), 1, 100);
  SystemConfig cfg;
  cfg.ser_per_inst = 1e-3;
  const std::vector<const workload::InstStream*> streams(cfg.num_threads,
                                                         &s);
  for (const Case& c : bad) {
    EXPECT_THROW(validate(c.kind, c.params), std::invalid_argument)
        << c.label;
    EXPECT_THROW(make_system(c.kind, cfg, s, c.params), std::invalid_argument)
        << c.label;
    EXPECT_THROW(make_system(c.kind, cfg, streams, c.params),
                 std::invalid_argument)
        << c.label;
  }

  // A ser that is not a per-instruction probability: the arrival draw of
  // every system with an error process refuses it (NaN and infinity used
  // to make it allocate without end; the baseline draws no arrivals).
  for (const double ser : {-1.0, 1.5, std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()}) {
    SystemConfig bad_ser = cfg;
    bad_ser.ser_per_inst = ser;
    for (const SystemKind kind :
         {SystemKind::kUnSync, SystemKind::kReunion, SystemKind::kLockstep,
          SystemKind::kCheckpoint, SystemKind::kHetero}) {
      EXPECT_THROW(make_system(kind, bad_ser, s, SystemParams{}),
                   std::invalid_argument)
          << "ser=" << ser;
    }
  }

  // Zero application threads: a SystemConfig value that validate() does
  // not see, so only the constructors can reject it. Without the check a
  // run reports an empty simulation.
  SystemConfig zero = cfg;
  zero.num_threads = 0;
  const std::vector<const workload::InstStream*> no_streams;
  for (const SystemKind kind :
       {SystemKind::kBaseline, SystemKind::kUnSync, SystemKind::kReunion,
        SystemKind::kLockstep, SystemKind::kCheckpoint, SystemKind::kHetero}) {
    EXPECT_THROW(make_system(kind, zero, s, SystemParams{}),
                 std::invalid_argument)
        << "threads=0 " << name_of(kind);
    EXPECT_THROW(make_system(kind, zero, no_streams, SystemParams{}),
                 std::invalid_argument)
        << "threads=0 " << name_of(kind);
  }
}

TEST(SystemParamsValidation, SmallestValidValuesConstruct) {
  SystemParams p;
  p.unsync.group_size = 2;
  p.unsync.cb_entries = 1;
  p.checkpoint.checkpoint_interval = 1;
  p.hetero.log_entries = 1;
  p.hetero.checker_width = 1;
  workload::SyntheticStream s(workload::profile("gzip"), 1, 100);
  for (const SystemKind kind :
       {SystemKind::kBaseline, SystemKind::kUnSync, SystemKind::kReunion,
        SystemKind::kLockstep, SystemKind::kCheckpoint, SystemKind::kHetero}) {
    EXPECT_NO_THROW(validate(kind, p)) << name_of(kind);
    EXPECT_NO_THROW(make_system(kind, SystemConfig{}, s, p)) << name_of(kind);
  }
}

}  // namespace
}  // namespace unsync::core
