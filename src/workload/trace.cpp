#include "workload/trace.hpp"

#include <array>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>

namespace unsync::workload {

namespace {

constexpr char kTraceMagic[4] = {'U', 'T', 'R', 'C'};
constexpr std::uint32_t kTraceVersion = 1;

/// On-disk record: fixed-width little-endian fields (host is assumed
/// little-endian, as asserted by the round-trip tests).
struct DiskOp {
  std::uint64_t seq;
  std::uint64_t pc;
  std::uint64_t mem_addr;
  std::uint64_t src0;
  std::uint64_t src1;
  std::uint8_t cls;
  std::uint8_t writes_reg;
  std::uint8_t taken;
  std::uint8_t has_hint;
  std::uint8_t hint;
  std::uint8_t pad[3];
};
static_assert(sizeof(DiskOp) == 48);

}  // namespace

void save_trace(const std::string& path, const std::vector<DynOp>& ops) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("cannot open trace file: " + path);
  out.write(kTraceMagic, 4);
  const std::uint32_t version = kTraceVersion;
  out.write(reinterpret_cast<const char*>(&version), sizeof version);
  const std::uint64_t count = ops.size();
  out.write(reinterpret_cast<const char*>(&count), sizeof count);
  for (const DynOp& op : ops) {
    DiskOp d{};
    d.seq = op.seq;
    d.pc = op.pc;
    d.mem_addr = op.mem_addr;
    d.src0 = op.src[0];
    d.src1 = op.src[1];
    d.cls = static_cast<std::uint8_t>(op.cls);
    d.writes_reg = op.writes_reg;
    d.taken = op.taken;
    d.has_hint = op.has_mispredict_hint;
    d.hint = op.mispredict_hint;
    out.write(reinterpret_cast<const char*>(&d), sizeof d);
  }
  if (!out) throw std::runtime_error("short write to trace file: " + path);
}

std::vector<DynOp> load_trace(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open trace file: " + path);
  char magic[4];
  in.read(magic, 4);
  if (!in || std::memcmp(magic, kTraceMagic, 4) != 0) {
    throw std::runtime_error("not a UTRC trace file: " + path);
  }
  std::uint32_t version = 0;
  in.read(reinterpret_cast<char*>(&version), sizeof version);
  if (!in || version != kTraceVersion) {
    throw std::runtime_error("unsupported trace version in " + path);
  }
  std::uint64_t count = 0;
  in.read(reinterpret_cast<char*>(&count), sizeof count);
  std::vector<DynOp> ops;
  ops.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    DiskOp d{};
    in.read(reinterpret_cast<char*>(&d), sizeof d);
    if (!in) throw std::runtime_error("truncated trace file: " + path);
    // The core model indexes its ROB by seq and reads each source's
    // producer there, so a record's seq is its index and its sources
    // precede it.
    if (d.seq != i) {
      throw std::runtime_error("trace record " + std::to_string(i) +
                               " has seq " + std::to_string(d.seq) +
                               " in " + path);
    }
    for (const std::uint64_t src : {d.src0, d.src1}) {
      if (src != kNoSeq && src >= d.seq) {
        throw std::runtime_error("trace record " + std::to_string(i) +
                                 " reads source " + std::to_string(src) +
                                 ", which is not older, in " + path);
      }
    }
    DynOp op;
    op.seq = d.seq;
    op.pc = d.pc;
    op.mem_addr = d.mem_addr;
    op.src[0] = d.src0;
    op.src[1] = d.src1;
    op.cls = static_cast<isa::InstClass>(d.cls);
    op.writes_reg = d.writes_reg != 0;
    op.taken = d.taken != 0;
    op.has_mispredict_hint = d.has_hint != 0;
    op.mispredict_hint = d.hint != 0;
    ops.push_back(op);
  }
  return ops;
}

std::vector<DynOp> record_trace(const isa::Program& program,
                                std::uint64_t max_insts) {
  isa::FunctionalSim sim(program);
  std::vector<DynOp> trace;
  trace.reserve(static_cast<std::size_t>(max_insts));

  // Last-writer tables: which dynamic instruction most recently wrote each
  // architectural register. r0 is hardwired zero and never a producer.
  std::array<SeqNum, 32> int_writer;
  std::array<SeqNum, 32> fp_writer;
  int_writer.fill(kNoSeq);
  fp_writer.fill(kNoSeq);

  auto is_fp_producer = [](isa::Opcode op) {
    using isa::Opcode;
    switch (op) {
      case Opcode::kFadd: case Opcode::kFsub: case Opcode::kFmul:
      case Opcode::kFdiv: case Opcode::kFld:  case Opcode::kFmovi:
        return true;
      default:
        return false;
    }
  };
  auto reads_fp_srcs = [](isa::Opcode op) {
    using isa::Opcode;
    switch (op) {
      case Opcode::kFadd: case Opcode::kFsub: case Opcode::kFmul:
      case Opcode::kFdiv: case Opcode::kFcmplt: case Opcode::kFst:
        return true;
      default:
        return false;
    }
  };

  while (trace.size() < max_insts && !sim.halted()) {
    const isa::StepResult step = sim.step();
    if (step.halted) break;
    const isa::Inst& inst = step.inst;

    DynOp op;
    op.seq = trace.size();
    op.cls = isa::class_of(inst.op);
    op.pc = step.pc;
    op.mem_addr = step.mem_addr;
    op.taken = step.taken;
    op.writes_reg = inst.writes_reg();

    // Source producers from the last-writer tables.
    const bool fp_srcs = reads_fp_srcs(inst.op);
    auto writer = [&](RegIndex reg, bool fp) -> SeqNum {
      if (!fp && reg == 0) return kNoSeq;
      return fp ? fp_writer[reg] : int_writer[reg];
    };
    switch (inst.num_srcs()) {
      case 2: {
        if (inst.is_store()) {
          // Data register lives in the rd slot; it is fp for fst, int for
          // st/sb. The address base register is always an int register.
          op.src[0] = writer(inst.store_data_reg(), fp_srcs);
          op.src[1] = writer(inst.rs1, /*fp=*/false);
        } else {
          op.src[0] = writer(inst.rs1, fp_srcs);
          op.src[1] = writer(inst.rs2, fp_srcs);
        }
        break;
      }
      case 1:
        op.src[0] = writer(inst.rs1, /*fp=*/false);
        break;
      default:
        break;
    }
    // fmovi reads an int source even though it is an fp-class op.
    if (inst.op == isa::Opcode::kFmovi) {
      op.src[0] = writer(inst.rs1, /*fp=*/false);
    }

    // Update last-writer tables.
    if (inst.writes_reg()) {
      if (is_fp_producer(inst.op)) {
        fp_writer[inst.rd] = op.seq;
      } else if (inst.rd != 0) {
        int_writer[inst.rd] = op.seq;
      }
    }

    trace.push_back(op);
  }
  return trace;
}

TraceStream::TraceStream(std::vector<DynOp> ops)
    : ops_(std::make_shared<const std::vector<DynOp>>(std::move(ops))) {}

TraceStream::TraceStream(std::shared_ptr<const std::vector<DynOp>> shared)
    : ops_(std::move(shared)) {}

bool TraceStream::next(DynOp* out) {
  if (cursor_ >= ops_->size()) return false;
  *out = (*ops_)[cursor_++];
  return true;
}

std::unique_ptr<InstStream> TraceStream::clone() const {
  return std::unique_ptr<InstStream>(new TraceStream(ops_));
}

std::optional<InstStream::WarmRegion> TraceStream::code_region() const {
  if (ops_->empty()) return std::nullopt;
  Addr lo = ops_->front().pc, hi = lo;
  for (const auto& op : *ops_) {
    lo = std::min(lo, op.pc);
    hi = std::max(hi, op.pc);
  }
  return WarmRegion{lo, hi - lo + 4};
}

}  // namespace unsync::workload
