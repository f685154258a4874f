// The dynamic-instruction record that drives the timing model.
//
// A DynOp is one retired-order instruction of a workload, annotated with
// everything the out-of-order core model needs: functional class, producer
// sequence numbers (register dataflow), memory effective address, and branch
// information. Both workload sources (the statistical generator and traces
// recorded from the functional simulator) emit this common record.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/types.hpp"
#include "isa/isa.hpp"

namespace unsync::ckpt {
class Archive;
}  // namespace unsync::ckpt

namespace unsync::workload {

struct DynOp {
  SeqNum seq = 0;
  isa::InstClass cls = isa::InstClass::kIntAlu;
  Addr pc = 0;

  /// Producer sequence numbers for up to two register sources; kNoSeq when
  /// the operand is absent or produced before the window of interest.
  SeqNum src[2] = {kNoSeq, kNoSeq};
  bool writes_reg = false;

  /// Effective address for loads/stores; kNoAddr otherwise.
  Addr mem_addr = kNoAddr;

  /// Branch fields. When `has_mispredict_hint` is set the core honours the
  /// hint (statistical workloads); otherwise the core's own branch predictor
  /// decides from (pc, taken) — used for recorded traces.
  bool is_branch() const { return cls == isa::InstClass::kBranch; }
  bool taken = false;
  bool has_mispredict_hint = false;
  bool mispredict_hint = false;

  bool is_load() const { return cls == isa::InstClass::kLoad; }
  bool is_store() const { return cls == isa::InstClass::kStore; }
  bool is_serializing() const { return cls == isa::InstClass::kSerializing; }

  /// Checkpoint walk over every field (ckpt/archive.hpp).
  void visit(ckpt::Archive& ar);
};

/// A forward iterator over a dynamic instruction stream.
///
/// Redundant-execution systems run the *same* stream on two or more cores:
/// clone() returns an independent cursor that yields an identical
/// sequence, and share() hands a whole redundancy group its cursors at
/// once, so a stream that is costly to produce is produced once per group.
class InstStream {
 public:
  virtual ~InstStream() = default;

  /// Produces the next op into `*out`, overwriting every field; returns
  /// false at end of stream.
  virtual bool next(DynOp* out) = 0;

  /// Independent cursor over the identical sequence, positioned at start.
  virtual std::unique_ptr<InstStream> clone() const = 0;

  /// `readers` cursors over the identical sequence, each positioned at
  /// start and each indistinguishable from a clone(): same ops, same seek
  /// results, same checkpoint bytes. The default is `readers` clones;
  /// the synthetic generator overrides it to draw each op once for all of
  /// them.
  virtual std::vector<std::unique_ptr<InstStream>> share(
      std::size_t readers) const;

  /// Rewinds this cursor to the start of the stream.
  virtual void reset() = 0;

  /// Positions this cursor so the next op it yields is `seq`: the state
  /// reset() followed by `seq` calls to next() leaves. Returns false, at
  /// end of stream, when the stream holds fewer than `seq` ops. The default
  /// replays exactly that; streams with random access override it.
  virtual bool seek(SeqNum seq);

  /// Total ops this stream will yield, if known (0 = unknown/unbounded).
  virtual std::uint64_t length() const { return 0; }

  /// An address region the workload treats as its L2-resident working set.
  /// Systems pre-warm the shared L2 with it before measurement — the
  /// standard cache-warmup methodology (the paper's M5 runs do the same);
  /// without it, short simulations would see a 100% local L2 miss rate.
  struct WarmRegion {
    Addr base = 0;
    std::uint64_t bytes = 0;
  };
  virtual std::optional<WarmRegion> warm_region() const {
    return std::nullopt;
  }

  /// The static code footprint (span of program counters). Systems pre-warm
  /// each core's I-cache with it, so measurements start past the cold pass.
  virtual std::optional<WarmRegion> code_region() const {
    return std::nullopt;
  }

  /// Checkpoint walk over the cursor state, so a restored stream yields the
  /// identical remaining sequence. The base implementation throws
  /// ckpt::CkptError — every stream type fed to a system that is
  /// checkpointed mid-run must override it.
  virtual void visit(ckpt::Archive& ar);
};

}  // namespace unsync::workload
