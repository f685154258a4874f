#include <gtest/gtest.h>

#include <random>
#include <tuple>
#include <vector>

#include "isa/assembler.hpp"
#include "workload/profile.hpp"
#include "workload/synthetic.hpp"
#include "workload/trace.hpp"

namespace unsync::workload {
namespace {

TEST(Profiles, AllBuiltinsValidate) {
  for (const auto& p : all_profiles()) {
    EXPECT_FALSE(p.validate().has_value()) << p.name;
  }
}

TEST(Profiles, ExpectedCatalogue) {
  const auto names = profile_names();
  EXPECT_EQ(names.size(), 14u);
  EXPECT_NO_THROW(profile("bzip2"));
  EXPECT_NO_THROW(profile("galgel"));
  EXPECT_NO_THROW(profile("susan"));
  EXPECT_THROW(profile("doom"), std::out_of_range);
}

TEST(Profiles, PaperSerializingFractions) {
  // Figure 4 quotes these directly.
  EXPECT_DOUBLE_EQ(profile("bzip2").mix.serializing, 0.02);
  EXPECT_DOUBLE_EQ(profile("ammp").mix.serializing, 0.017);
  EXPECT_DOUBLE_EQ(profile("galgel").mix.serializing, 0.01);
}

TEST(Profiles, GalgelIsRobSaturating) {
  // galgel needs the largest instruction window of the catalogue.
  const auto& g = profile("galgel");
  for (const auto& p : all_profiles()) {
    EXPECT_LE(p.mean_dep_distance, g.mean_dep_distance) << p.name;
  }
}

TEST(Profiles, SusanIsMostStoreIntensive) {
  const auto& s = profile("susan");
  for (const auto& p : all_profiles()) {
    EXPECT_LE(p.mix.store, s.mix.store) << p.name;
  }
}

TEST(Profiles, ValidationCatchesBadMix) {
  BenchmarkProfile p = profile("gzip");
  p.mix.load += 0.5;
  EXPECT_TRUE(p.validate().has_value());
}

TEST(Profiles, ValidationCatchesBadRates) {
  BenchmarkProfile p = profile("gzip");
  p.l1_miss_rate = 1.5;
  EXPECT_TRUE(p.validate().has_value());
  p = profile("gzip");
  p.mean_dep_distance = 0.5;
  EXPECT_TRUE(p.validate().has_value());
}

TEST(Synthetic, YieldsExactlyLengthOps) {
  SyntheticStream s(profile("gzip"), 1, 1000);
  DynOp op;
  std::uint64_t n = 0;
  while (s.next(&op)) ++n;
  EXPECT_EQ(n, 1000u);
  EXPECT_FALSE(s.next(&op));
}

TEST(Synthetic, SequenceNumbersAreDense) {
  SyntheticStream s(profile("gzip"), 1, 100);
  DynOp op;
  for (SeqNum i = 0; i < 100; ++i) {
    ASSERT_TRUE(s.next(&op));
    EXPECT_EQ(op.seq, i);
  }
}

TEST(Synthetic, CloneYieldsIdenticalStream) {
  SyntheticStream s(profile("ammp"), 99, 5000);
  auto c = s.clone();
  DynOp a, b;
  while (true) {
    const bool ga = s.next(&a);
    const bool gb = c->next(&b);
    ASSERT_EQ(ga, gb);
    if (!ga) break;
    EXPECT_EQ(a.seq, b.seq);
    EXPECT_EQ(a.cls, b.cls);
    EXPECT_EQ(a.mem_addr, b.mem_addr);
    EXPECT_EQ(a.src[0], b.src[0]);
    EXPECT_EQ(a.src[1], b.src[1]);
    EXPECT_EQ(a.mispredict_hint, b.mispredict_hint);
  }
}

TEST(Synthetic, ResetReplaysIdentically) {
  SyntheticStream s(profile("mcf"), 7, 200);
  std::vector<DynOp> first;
  DynOp op;
  while (s.next(&op)) first.push_back(op);
  s.reset();
  for (const auto& expect : first) {
    ASSERT_TRUE(s.next(&op));
    EXPECT_EQ(op.seq, expect.seq);
    EXPECT_EQ(op.cls, expect.cls);
    EXPECT_EQ(op.mem_addr, expect.mem_addr);
  }
}

TEST(Synthetic, DifferentSeedsDiffer) {
  SyntheticStream a(profile("gcc"), 1, 500);
  SyntheticStream b(profile("gcc"), 2, 500);
  DynOp oa, ob;
  int same_cls = 0;
  for (int i = 0; i < 500; ++i) {
    a.next(&oa);
    b.next(&ob);
    same_cls += oa.cls == ob.cls;
  }
  EXPECT_LT(same_cls, 400);  // streams are not identical
}

TEST(Synthetic, MixMatchesProfileStatistically) {
  const auto& prof = profile("bzip2");
  SyntheticStream s(prof, 42, 200000);
  DynOp op;
  std::uint64_t loads = 0, stores = 0, branches = 0, serial = 0;
  while (s.next(&op)) {
    loads += op.is_load();
    stores += op.is_store();
    branches += op.is_branch();
    serial += op.is_serializing();
  }
  const double n = 200000;
  EXPECT_NEAR(loads / n, prof.mix.load, 0.01);
  EXPECT_NEAR(stores / n, prof.mix.store, 0.01);
  EXPECT_NEAR(branches / n, prof.mix.branch, 0.01);
  EXPECT_NEAR(serial / n, prof.mix.serializing, 0.003);
}

TEST(Synthetic, MispredictHintRateMatchesProfile) {
  const auto& prof = profile("qsort");  // 10% mispredict
  SyntheticStream s(prof, 17, 200000);
  DynOp op;
  std::uint64_t branches = 0, wrong = 0;
  while (s.next(&op)) {
    if (op.is_branch()) {
      EXPECT_TRUE(op.has_mispredict_hint);
      ++branches;
      wrong += op.mispredict_hint;
    }
  }
  ASSERT_GT(branches, 1000u);
  EXPECT_NEAR(static_cast<double>(wrong) / branches,
              prof.branch_mispredict_rate, 0.01);
}

TEST(Synthetic, DependencyDistancesHaveProfileMean) {
  const auto& prof = profile("galgel");  // mean 24
  SyntheticStream s(prof, 5, 100000);
  DynOp op;
  double sum = 0;
  std::uint64_t n = 0;
  while (s.next(&op)) {
    for (const SeqNum src : op.src) {
      if (src == kNoSeq) continue;
      sum += static_cast<double>(op.seq - src);
      ++n;
    }
  }
  ASSERT_GT(n, 1000u);
  EXPECT_NEAR(sum / static_cast<double>(n), prof.mean_dep_distance,
              prof.mean_dep_distance * 0.1);
}

TEST(Synthetic, ProducersAlwaysOlder) {
  SyntheticStream s(profile("equake"), 3, 20000);
  DynOp op;
  while (s.next(&op)) {
    for (const SeqNum src : op.src) {
      if (src != kNoSeq) {
        EXPECT_LT(src, op.seq);
      }
    }
  }
}

TEST(Synthetic, MemOpsCarryAlignedAddresses) {
  SyntheticStream s(profile("susan"), 4, 20000);
  DynOp op;
  while (s.next(&op)) {
    if (op.is_load() || op.is_store()) {
      ASSERT_NE(op.mem_addr, kNoAddr);
      EXPECT_EQ(op.mem_addr % 8, 0u);
    } else {
      EXPECT_EQ(op.mem_addr, kNoAddr);
    }
  }
}

TEST(Trace, RecordsRetiredInstructions) {
  const auto prog = isa::Assembler::assemble(R"(
    addi r1, r0, 3
    addi r2, r0, 4
    add  r3, r1, r2
    halt
  )");
  const auto trace = record_trace(prog, 100);
  ASSERT_EQ(trace.size(), 3u);
  EXPECT_EQ(trace[0].cls, isa::InstClass::kIntAlu);
  EXPECT_TRUE(trace[0].writes_reg);
}

TEST(Trace, ProducerSeqsFollowRegisterDataflow) {
  const auto prog = isa::Assembler::assemble(R"(
    addi r1, r0, 3     # seq 0 writes r1
    addi r2, r0, 4     # seq 1 writes r2
    add  r3, r1, r2    # seq 2 reads r1(0), r2(1)
    add  r4, r3, r1    # seq 3 reads r3(2), r1(0)
    halt
  )");
  const auto trace = record_trace(prog, 100);
  ASSERT_EQ(trace.size(), 4u);
  EXPECT_EQ(trace[2].src[0], 0u);
  EXPECT_EQ(trace[2].src[1], 1u);
  EXPECT_EQ(trace[3].src[0], 2u);
  EXPECT_EQ(trace[3].src[1], 0u);
}

TEST(Trace, R0NeverAProducer) {
  const auto prog = isa::Assembler::assemble(R"(
    addi r0, r0, 7     # writes nothing
    add  r1, r0, r0
    halt
  )");
  const auto trace = record_trace(prog, 100);
  EXPECT_EQ(trace[1].src[0], kNoSeq);
  EXPECT_EQ(trace[1].src[1], kNoSeq);
}

TEST(Trace, StoreSourcesAreDataAndBase) {
  const auto prog = isa::Assembler::assemble(R"(
    la   r1, 0x200000  # seqs 0,1 write r1
    addi r2, r0, 9     # seq 2 writes r2
    st   r2, 0(r1)     # seq 3 reads r2(data) and r1(base)
    halt
  )");
  const auto trace = record_trace(prog, 100);
  ASSERT_EQ(trace.size(), 4u);
  EXPECT_EQ(trace[3].src[0], 2u);  // data register
  EXPECT_EQ(trace[3].src[1], 1u);  // base (ori of la)
  EXPECT_TRUE(trace[3].is_store());
  EXPECT_EQ(trace[3].mem_addr, 0x200000u);
}

TEST(Trace, FpDataflowTracked) {
  const auto prog = isa::Assembler::assemble(R"(
    addi r1, r0, 2     # seq 0
    fmovi f1, r1       # seq 1: fp producer
    fadd f2, f1, f1    # seq 2 reads f1(1)
    halt
  )");
  const auto trace = record_trace(prog, 100);
  EXPECT_EQ(trace[2].src[0], 1u);
  EXPECT_EQ(trace[2].src[1], 1u);
}

TEST(Trace, BranchOutcomeRecorded) {
  const auto prog = isa::Assembler::assemble(R"(
    addi r1, r0, 1
    bne  r1, r0, skip
    addi r9, r0, 1
  skip:
    halt
  )");
  const auto trace = record_trace(prog, 100);
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_TRUE(trace[1].is_branch());
  EXPECT_TRUE(trace[1].taken);
  EXPECT_FALSE(trace[1].has_mispredict_hint);  // core predicts for traces
}

TEST(Trace, StreamReplayAndClone) {
  const auto prog = isa::Assembler::assemble(R"(
    addi r1, r0, 5
  loop:
    addi r1, r1, -1
    bne  r1, r0, loop
    halt
  )");
  TraceStream s(record_trace(prog, 1000));
  EXPECT_EQ(s.length(), 11u);  // 1 + 5*2 iterations
  auto c = s.clone();
  DynOp a, b;
  std::uint64_t n = 0;
  while (s.next(&a)) {
    ASSERT_TRUE(c->next(&b));
    EXPECT_EQ(a.seq, b.seq);
    EXPECT_EQ(a.pc, b.pc);
    ++n;
  }
  EXPECT_EQ(n, 11u);
  s.reset();
  ASSERT_TRUE(s.next(&a));
  EXPECT_EQ(a.seq, 0u);
}

TEST(Trace, MaxInstsTruncates) {
  const auto prog = isa::Assembler::assemble(R"(
  spin:
    beq r0, r0, spin
    halt
  )");
  const auto trace = record_trace(prog, 50);
  EXPECT_EQ(trace.size(), 50u);
}

TEST(Trace, SeekIsRandomAccess) {
  std::vector<DynOp> ops(20);
  for (SeqNum i = 0; i < ops.size(); ++i) ops[i].seq = i;
  TraceStream s(ops);
  DynOp op;
  EXPECT_TRUE(s.seek(13));
  ASSERT_TRUE(s.next(&op));
  EXPECT_EQ(op.seq, 13u);
  EXPECT_TRUE(s.seek(20));
  EXPECT_FALSE(s.next(&op));
  EXPECT_FALSE(s.seek(21));  // fewer ops than asked for: at end
  EXPECT_FALSE(s.next(&op));
  EXPECT_TRUE(s.seek(2));
  ASSERT_TRUE(s.next(&op));
  EXPECT_EQ(op.seq, 2u);
}

// ---- One generator per redundancy group (SyntheticStream::share) ---------

auto fields(const DynOp& op) {
  return std::tuple(op.seq, op.cls, op.pc, op.src[0], op.src[1],
                    op.writes_reg, op.mem_addr, op.taken,
                    op.has_mispredict_hint, op.mispredict_hint);
}

/// Every op of a clone of `s`, in order.
std::vector<DynOp> reference(const SyntheticStream& s) {
  std::vector<DynOp> ops;
  auto c = s.clone();
  DynOp op;
  while (c->next(&op)) ops.push_back(op);
  return ops;
}

/// Reads the next op of `cursor` and checks it against the clone's op at
/// `*pos`, which it advances.
void expect_next(InstStream& cursor, const std::vector<DynOp>& ref,
                 SeqNum* pos) {
  DynOp op;
  op.seq = 12345;  // the cursor must overwrite every field
  op.src[1] = 7;
  ASSERT_TRUE(cursor.next(&op)) << "at " << *pos;
  ASSERT_EQ(fields(op), fields(ref.at(*pos))) << "at " << *pos;
  ++*pos;
}

TEST(SharedStream, OneReaderIsAClone) {
  SyntheticStream s(profile("gzip"), 3, 100);
  const auto one = s.share(1);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_FALSE(SyntheticStream::ring_stats(*one[0]).has_value());
  EXPECT_EQ(s.share(3).size(), 3u);
}

TEST(SharedStream, CursorsAtAnyLagReadTheCloneSequence) {
  SyntheticStream s(profile("mcf"), 17, 20000);
  const std::vector<DynOp> ref = reference(s);
  auto cursors = s.share(3);
  // Reader 0 runs up to 3000 ops ahead of reader 2 (the ring starts at
  // 512 slots, so it must grow); reader 1 stops at random points between.
  std::mt19937_64 pick(5);
  SeqNum pos[3] = {0, 0, 0};
  while (pos[2] < ref.size()) {
    const SeqNum lead = std::min<SeqNum>(pos[2] + 1 + pick() % 3000,
                                         ref.size());
    while (pos[0] < lead) expect_next(*cursors[0], ref, &pos[0]);
    const SeqNum mid = pos[1] + pick() % (pos[0] - pos[1] + 1);
    while (pos[1] < mid) expect_next(*cursors[1], ref, &pos[1]);
    const SeqNum tail = pos[2] + 1 + pick() % (pos[1] - pos[2] + 1);
    while (pos[2] < std::min(tail, pos[1])) {
      expect_next(*cursors[2], ref, &pos[2]);
    }
    if (pos[1] == pos[0] && pos[0] == ref.size()) {
      while (pos[2] < pos[1]) expect_next(*cursors[2], ref, &pos[2]);
    }
    if (::testing::Test::HasFatalFailure()) return;
  }
  DynOp op;
  for (auto& c : cursors) EXPECT_FALSE(c->next(&op));  // end of stream
  const auto stats = SyntheticStream::ring_stats(*cursors[0]);
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->drawn, ref.size());  // each op drawn once for all three
  EXPECT_GE(stats->slots, 4096u);       // grew past the 3000-op lag
}

TEST(SharedStream, RingTrimsBehindTheSlowestCursor) {
  SyntheticStream s(profile("gzip"), 2, 50000);
  const std::vector<DynOp> ref = reference(s);
  auto c = s.share(2);
  SeqNum pos[2] = {0, 0};
  // In step: the window stays at its starting size.
  while (pos[0] < 10000) {
    expect_next(*c[0], ref, &pos[0]);
    expect_next(*c[1], ref, &pos[1]);
    if (::testing::Test::HasFatalFailure()) return;
  }
  auto stats = *SyntheticStream::ring_stats(*c[0]);
  EXPECT_EQ(stats.slots, 512u);
  EXPECT_LE(stats.held, 512u);
  // A 1000-op lag grows it; once the laggard catches up, trims shrink
  // what is held again.
  while (pos[0] < 11000) expect_next(*c[0], ref, &pos[0]);
  stats = *SyntheticStream::ring_stats(*c[0]);
  EXPECT_GE(stats.held, 1000u);
  const std::uint64_t grown = stats.slots;
  EXPECT_GE(grown, 1024u);
  while (pos[1] < pos[0]) expect_next(*c[1], ref, &pos[1]);
  for (int i = 0; i < 20000; ++i) {
    expect_next(*c[0], ref, &pos[0]);
    expect_next(*c[1], ref, &pos[1]);
    if (::testing::Test::HasFatalFailure()) return;
  }
  // 20000 ops passed through the grown ring without growing it again:
  // every fill trimmed behind the slowest reader.
  stats = *SyntheticStream::ring_stats(*c[0]);
  EXPECT_EQ(stats.slots, grown);
  EXPECT_LE(stats.held, grown);
  EXPECT_EQ(stats.drawn, pos[0]);
}

TEST(SharedStream, SeekInsideTheWindowDrawsNothing) {
  SyntheticStream s(profile("gzip"), 4, 30000);
  const std::vector<DynOp> ref = reference(s);
  auto c = s.share(2);
  SeqNum pos[2] = {0, 0};
  for (int i = 0; i < 5000; ++i) {
    expect_next(*c[0], ref, &pos[0]);
    expect_next(*c[1], ref, &pos[1]);
  }
  const std::uint64_t drawn = SyntheticStream::ring_stats(*c[0])->drawn;
  // A flush back to a commit point ~100 ops behind the fetch position.
  pos[0] -= 100;
  EXPECT_TRUE(c[0]->seek(pos[0]));
  for (int i = 0; i < 100; ++i) expect_next(*c[0], ref, &pos[0]);
  EXPECT_EQ(SyntheticStream::ring_stats(*c[0])->drawn, drawn);
  // Forward past every reader (UnSync forwards the slower core).
  pos[1] += 700;
  EXPECT_TRUE(c[1]->seek(pos[1]));
  expect_next(*c[1], ref, &pos[1]);
  expect_next(*c[0], ref, &pos[0]);
}

TEST(SharedStream, SeekBehindTheWindowReplaysFromTheStart) {
  SyntheticStream s(profile("susan"), 6, 30000);
  const std::vector<DynOp> ref = reference(s);
  auto c = s.share(2);
  SeqNum pos[2] = {0, 0};
  for (int i = 0; i < 8000; ++i) {
    expect_next(*c[0], ref, &pos[0]);
    expect_next(*c[1], ref, &pos[1]);
  }
  const std::uint64_t drawn = SyntheticStream::ring_stats(*c[0])->drawn;
  // A DMR rollback to a boundary long gone from the window, by both.
  EXPECT_TRUE(c[0]->seek(1000));
  pos[0] = 1000;
  EXPECT_EQ(SyntheticStream::ring_stats(*c[0])->drawn, drawn + 8000);
  expect_next(*c[0], ref, &pos[0]);
  expect_next(*c[1], ref, &pos[1]);  // the other reader is undisturbed
  EXPECT_TRUE(c[1]->seek(1000));     // now inside the refilled window
  pos[1] = 1000;
  EXPECT_EQ(SyntheticStream::ring_stats(*c[0])->drawn, drawn + 8001);
  for (int i = 0; i < 3000; ++i) {
    expect_next(*c[0], ref, &pos[0]);
    expect_next(*c[1], ref, &pos[1]);
    if (::testing::Test::HasFatalFailure()) return;
  }
  c[1]->reset();
  pos[1] = 0;
  expect_next(*c[1], ref, &pos[1]);
}

TEST(SharedStream, SeekPastTheEndStopsAtTheEnd) {
  SyntheticStream s(profile("gzip"), 8, 1000);
  auto c = s.share(2);
  EXPECT_EQ(c[0]->length(), 1000u);
  DynOp op;
  EXPECT_TRUE(c[0]->seek(1000));
  EXPECT_FALSE(c[0]->next(&op));
  EXPECT_FALSE(c[1]->seek(1001));  // as a clone's replay would report
  EXPECT_FALSE(c[1]->next(&op));
  EXPECT_TRUE(c[1]->seek(999));
  ASSERT_TRUE(c[1]->next(&op));
  EXPECT_EQ(op.seq, 999u);
  EXPECT_FALSE(c[1]->next(&op));
  EXPECT_EQ(SyntheticStream::ring_stats(*c[0])->drawn, 1000u);
}

}  // namespace
}  // namespace unsync::workload
