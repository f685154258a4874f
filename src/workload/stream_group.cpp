// One stream generator per redundancy group.
//
// SyntheticStream::share() gives every member of a group a Cursor over one
// Ring. The ring's generator draws each op once into a power-of-two slot
// array, and stores with it the generator state before the draw; each
// cursor reads the slots at its own position. A cursor is therefore
// indistinguishable from a clone at the same position: it yields the same
// ops, seeks to the same place, and its "SYNS" chunk holds the state the
// clone would hold.
//
// Window. The slots hold ops [base_, next_seq) of the generator. When they
// are full the ring trims to half its size behind the slowest cursor, so a
// flush back to a core's commit point stays a seek inside the window, or
// doubles when a trim would free less than a quarter. No bound on the lag
// between members is assumed. A seek behind the window replays the
// generator from the start, as a clone's seek would.
//
// Checkpoints. A loaded cursor detaches: it keeps its own state and draws
// privately, as a clone would. The next read or seek of a detached cursor
// re-attaches every detached cursor whose state the ring's generator
// reproduces, restarting the generator from the least-advanced one when no
// cursor is attached; any other stays private. So a load restarts the
// generator from the slowest member, and even a checkpoint whose members
// disagree restores exactly.
#include <algorithm>
#include <bit>
#include <memory>
#include <new>
#include <optional>
#include <type_traits>
#include <utility>

#include "ckpt/archive.hpp"
#include "workload/synthetic.hpp"

namespace unsync::workload {

std::vector<std::unique_ptr<InstStream>> InstStream::share(
    std::size_t readers) const {
  std::vector<std::unique_ptr<InstStream>> out;
  out.reserve(readers);
  for (std::size_t i = 0; i < readers; ++i) out.push_back(clone());
  return out;
}

bool InstStream::seek(SeqNum seq) {
  reset();
  DynOp skipped;
  for (SeqNum i = 0; i < seq; ++i) {
    if (!next(&skipped)) return false;
  }
  return true;
}

class SyntheticStream::Ring {
 public:
  Ring(const SyntheticStream& proto, std::size_t readers)
      : gen_(proto.profile_, proto.seed_, proto.length_),
        mask_(std::bit_ceil(std::clamp<std::uint64_t>(proto.length_, kMinSlots,
                                                      kStartSlots)) -
              1),
        slots_(allocate(slot_count())),
        readers_(readers) {}

  const SyntheticStream& generator() const { return gen_; }

  RingStats stats() const {
    return {drawn_, live() - base_, slot_count()};
  }

  bool read(std::size_t r, DynOp* out) {
    Reader& rd = readers_[r];
    if (rd.own) [[unlikely]] {
      if (merge_pending_) merge();
      if (rd.own) return draw(*rd.own, out);
    }
    if (rd.pos == live() && !produce()) return false;
    *out = slots_[rd.pos++ & mask_].op;
    return true;
  }

  bool seek(std::size_t r, SeqNum seq) {
    Reader& rd = readers_[r];
    if (rd.own) {
      if (merge_pending_) merge();
      if (rd.own) return replay(*rd.own, seq);
    }
    const SeqNum target = std::min<SeqNum>(seq, gen_.length_);
    if (target >= base_) {
      while (live() < target) produce();
      rd.pos = target;
    } else {
      // Behind the window: replay the generator from the start to
      // `target`, then refill the window up to the furthest reader. A
      // reader the replay does not reproduce (its state came from a
      // checkpoint the stream's start does not lead to) keeps its own.
      std::vector<std::pair<std::size_t, State>> others;
      SeqNum furthest = target;
      for (std::size_t o = 0; o < readers_.size(); ++o) {
        if (o == r || readers_[o].own) continue;
        others.emplace_back(o, at(readers_[o].pos));
        furthest = std::max(furthest, readers_[o].pos);
      }
      replay(gen_.state_, target);
      base_ = rd.pos = target;
      while (live() < furthest) produce();
      for (const auto& [o, state] : others) {
        if (!(at(readers_[o].pos) == state)) readers_[o].own = state;
      }
    }
    return seq <= gen_.length_;
  }

  /// Reader `r`'s generator state: what its clone would hold.
  State state_of(std::size_t r) const {
    const Reader& rd = readers_[r];
    return rd.own ? *rd.own : at(rd.pos);
  }

  /// Reader `r` was loaded with state `s`: it draws privately until the
  /// next merge re-attaches it.
  void detach(std::size_t r, const State& s) {
    readers_[r].own = s;
    merge_pending_ = true;
  }

 private:
  struct Slot {
    DynOp op;
    State before;  ///< generator state that drew `op`
  };
  /// Slots are allocated unconstructed: produce() writes each one before
  /// anything reads it, so no slot has its Rng seeded or its bytes zeroed.
  /// (Slot is an aggregate of trivially copyable members, for which
  /// operator new's storage holds objects ready to be assigned.)
  static_assert(std::is_trivially_copyable_v<Slot> &&
                std::is_trivially_destructible_v<Slot>);
  struct FreeSlots {
    void operator()(Slot* p) const { ::operator delete(p); }
  };
  using Slots = std::unique_ptr<Slot[], FreeSlots>;
  static Slots allocate(std::size_t n) {
    return Slots(static_cast<Slot*>(::operator new(n * sizeof(Slot))));
  }
  struct Reader {
    SeqNum pos = 0;            ///< next op to read, in [base_, live()]
    std::optional<State> own;  ///< set while detached
  };

  static constexpr std::uint64_t kMinSlots = 16;
  static constexpr std::uint64_t kStartSlots = 512;

  SeqNum live() const { return gen_.state_.next_seq; }
  std::size_t slot_count() const { return mask_ + 1; }

  /// The generator state before op `q`, for base_ <= q <= live().
  const State& at(SeqNum q) const {
    return q == live() ? gen_.state_ : slots_[q & mask_].before;
  }

  bool draw(State& s, DynOp* out) {
    ++drawn_;
    return gen_.generate(s, out);
  }

  /// What reset() and `seq` next() calls leave in `s`, drawing forward
  /// from `s` when it is not past `seq`.
  bool replay(State& s, SeqNum seq) {
    if (seq < s.next_seq) s = gen_.start();
    DynOp skipped;
    while (s.next_seq < seq) {
      if (!draw(s, &skipped)) return false;
    }
    return true;
  }

  /// Draws the next op into its slot; false at end of stream.
  bool produce() {
    State& s = gen_.state_;
    if (s.next_seq >= gen_.length_) return false;
    if (s.next_seq - base_ == slot_count()) make_room();
    Slot& slot = slots_[s.next_seq & mask_];
    slot.before = s;
    return draw(s, &slot.op);
  }

  void make_room() {
    SeqNum slowest = live();
    for (const Reader& rd : readers_) {
      if (!rd.own) slowest = std::min(slowest, rd.pos);
    }
    const SeqNum keep = slot_count() / 2;
    const SeqNum trim_to = slowest > keep ? slowest - keep : 0;
    if (trim_to >= base_ + slot_count() / 4) {
      base_ = trim_to;
      return;
    }
    Slots grown = allocate(slot_count() * 2);
    const SeqNum mask = slot_count() * 2 - 1;
    for (SeqNum q = base_; q < live(); ++q) grown[q & mask] = slots_[q & mask_];
    slots_ = std::move(grown);
    mask_ = mask;
  }

  /// Re-attaches, least advanced first, every detached reader whose state
  /// the generator reproduces at its position.
  void merge() {
    merge_pending_ = false;
    std::vector<std::size_t> detached;
    bool attached = false;
    for (std::size_t r = 0; r < readers_.size(); ++r) {
      if (readers_[r].own) {
        detached.push_back(r);
      } else {
        attached = true;
      }
    }
    std::stable_sort(detached.begin(), detached.end(),
                     [this](std::size_t a, std::size_t b) {
                       return readers_[a].own->next_seq <
                              readers_[b].own->next_seq;
                     });
    for (const std::size_t r : detached) {
      Reader& rd = readers_[r];
      const SeqNum q = rd.own->next_seq;
      if (!attached) {
        gen_.state_ = *rd.own;  // restart from the least-advanced reader
        base_ = q;
        attached = true;
      } else {
        if (q < base_ || q > gen_.length_) continue;
        while (live() < q) produce();
        if (!(at(q) == *rd.own)) continue;
      }
      rd.pos = q;
      rd.own.reset();
    }
  }

  SyntheticStream gen_;  ///< its state_ is the shared generator state
  SeqNum mask_;          ///< slot count - 1 (a power of two)
  Slots slots_;
  SeqNum base_ = 0;  ///< oldest op still held
  std::vector<Reader> readers_;
  bool merge_pending_ = false;
  std::uint64_t drawn_ = 0;
};

class SyntheticStream::Cursor final : public InstStream {
 public:
  Cursor(std::shared_ptr<Ring> ring, std::size_t reader)
      : ring_(std::move(ring)), reader_(reader) {}

  const Ring& ring() const { return *ring_; }

  bool next(DynOp* out) override { return ring_->read(reader_, out); }
  std::unique_ptr<InstStream> clone() const override {
    return ring_->generator().clone();
  }
  void reset() override { (void)seek(0); }
  bool seek(SeqNum seq) override { return ring_->seek(reader_, seq); }
  std::uint64_t length() const override {
    return ring_->generator().length();
  }
  std::optional<WarmRegion> warm_region() const override {
    return ring_->generator().warm_region();
  }
  std::optional<WarmRegion> code_region() const override {
    return ring_->generator().code_region();
  }

  void visit(ckpt::Archive& ar) override {
    State s = ring_->state_of(reader_);
    ring_->generator().visit_state(ar, s);
    if (ar.loading()) ring_->detach(reader_, s);
  }

 private:
  std::shared_ptr<Ring> ring_;
  std::size_t reader_;
};

std::vector<std::unique_ptr<InstStream>> SyntheticStream::share(
    std::size_t readers) const {
  if (readers < 2) return InstStream::share(readers);
  const auto ring = std::make_shared<Ring>(*this, readers);
  std::vector<std::unique_ptr<InstStream>> out;
  out.reserve(readers);
  for (std::size_t r = 0; r < readers; ++r) {
    out.push_back(std::make_unique<Cursor>(ring, r));
  }
  return out;
}

std::optional<SyntheticStream::RingStats> SyntheticStream::ring_stats(
    const InstStream& stream) {
  const auto* cursor = dynamic_cast<const Cursor*>(&stream);
  if (!cursor) return std::nullopt;
  return cursor->ring().stats();
}

}  // namespace unsync::workload
