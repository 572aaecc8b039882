// Physical frame table, stored structure-of-arrays.
//
// Each frame records which (address space, virtual page) it currently backs,
// whether its contents are dirty, and the software-simulated reference
// information that IRIX's paging daemon maintains in lieu of hardware
// reference bits (Section 4.3 of the paper). A freed frame keeps its identity
// until it is reallocated so that a process faulting on a too-early-freed page
// can *rescue* it from the free list without disk I/O.
//
// Layout: the boolean fields live in per-field bit planes (one uint64_t word
// per 64 frames) and the identity fields in dense parallel arrays. The paging
// daemon's clock hand and the releaser's batch re-checks are the simulator's
// hottest scans, and against the planes they run word-parallel: a single
// `mapped & ~io_busy` word classifies 64 frames, and ctz jumps straight to
// the next candidate. At the simulated machine sizes (hundreds to a few
// thousand frames) every plane fits in one or two L1 lines. Individual-field
// reads and writes stay O(1) single-bit operations, so the fault paths pay
// nothing for the scan-friendly layout.
//
// The all-zero table is the boot state: owner_ and vpage_ store the identity
// plus one in unsigned arithmetic, so 0 reads back as kNoAs/kNoVPage, and
// FreedBy::kNone and the cleared planes are 0 already. Every array is a
// ZeroedArray, so constructing a 10^7-frame table writes nothing per frame,
// and the host commits a page of metadata only when a frame in it is first
// written.

#ifndef TMH_SRC_VM_FRAME_TABLE_H_
#define TMH_SRC_VM_FRAME_TABLE_H_

#include <cassert>
#include <cstdint>
#include <type_traits>

#include "src/vm/types.h"
#include "src/vm/zeroed_array.h"

namespace tmh {

// Which reclaim path put a frame on the free list — distinguishes Figure 9's
// rescue categories.
enum class FreedBy : uint8_t { kNone = 0, kDaemon, kReleaser };

// Point-in-time snapshot of one frame's metadata, assembled from the planes.
// Checkers and tests consume these; the kernel's hot paths use the per-field
// accessors below and never materialize a snapshot.
struct Frame {
  AsId owner = kNoAs;    // address space whose data the frame holds (or last held)
  VPage vpage = kNoVPage;
  bool mapped = false;         // currently installed in the owner's page table
  bool dirty = false;          // contents differ from the swap copy
  bool referenced = false;     // software reference bit (set on touch/validate)
  bool contents_valid = false; // frame still holds (owner, vpage)'s data (rescue possible)
  bool io_busy = false;        // page-in or page-out in flight
  FreedBy freed_by = FreedBy::kNone;
};

class FrameTable {
 public:
  explicit FrameTable(int64_t num_frames)
      : size_(num_frames),
        owner_(static_cast<size_t>(num_frames)),
        vpage_(static_cast<size_t>(num_frames)),
        freed_by_(static_cast<size_t>(num_frames)),
        mapped_(NumWords(num_frames)),
        dirty_(NumWords(num_frames)),
        referenced_(NumWords(num_frames)),
        contents_valid_(NumWords(num_frames)),
        io_busy_(NumWords(num_frames)) {}

  [[nodiscard]] int64_t size() const { return size_; }

  // --- per-field accessors (hot paths) ---------------------------------------

  [[nodiscard]] AsId owner(FrameId id) const {
    return static_cast<AsId>(owner_[Index(id)] - 1);
  }
  [[nodiscard]] VPage vpage(FrameId id) const {
    return static_cast<VPage>(vpage_[Index(id)] - 1);
  }
  [[nodiscard]] bool mapped(FrameId id) const { return Test(mapped_, id); }
  [[nodiscard]] bool dirty(FrameId id) const { return Test(dirty_, id); }
  [[nodiscard]] bool referenced(FrameId id) const { return Test(referenced_, id); }
  [[nodiscard]] bool contents_valid(FrameId id) const { return Test(contents_valid_, id); }
  [[nodiscard]] bool io_busy(FrameId id) const { return Test(io_busy_, id); }
  [[nodiscard]] FreedBy freed_by(FrameId id) const { return freed_by_[Index(id)]; }

  void set_owner(FrameId id, AsId owner) { owner_[Index(id)] = EncodeOwner(owner); }
  void set_vpage(FrameId id, VPage vpage) { vpage_[Index(id)] = EncodeVPage(vpage); }
  void set_mapped(FrameId id, bool v) { Write(mapped_, id, v); }
  void set_dirty(FrameId id, bool v) { Write(dirty_, id, v); }
  void set_referenced(FrameId id, bool v) { Write(referenced_, id, v); }
  void set_contents_valid(FrameId id, bool v) { Write(contents_valid_, id, v); }
  void set_io_busy(FrameId id, bool v) { Write(io_busy_, id, v); }
  void set_freed_by(FrameId id, FreedBy v) { freed_by_[Index(id)] = v; }

  // True when the frame still carries (as, vpage)'s identity — the common
  // predicate of the collapse/rescue paths.
  [[nodiscard]] bool IsPage(FrameId id, AsId as, VPage vpage) const {
    return owner_[Index(id)] == EncodeOwner(as) && vpage_[Index(id)] == EncodeVPage(vpage);
  }

  // --- snapshot accessor (checkers, tests, reports) --------------------------

  [[nodiscard]] Frame at(FrameId id) const {
    Frame f;
    f.owner = owner(id);
    f.vpage = vpage(id);
    f.mapped = mapped(id);
    f.dirty = dirty(id);
    f.referenced = referenced(id);
    f.contents_valid = contents_valid(id);
    f.io_busy = io_busy(id);
    f.freed_by = freed_by(id);
    return f;
  }

  // Resets a frame to the unowned state (on reallocation to a new page).
  void ResetIdentity(FrameId id) {
    const size_t i = Index(id);
    owner_[i] = 0;
    vpage_[i] = 0;
    freed_by_[i] = FreedBy::kNone;
    const uint64_t clear = ~Mask(id);
    mapped_[Word(id)] &= clear;
    dirty_[Word(id)] &= clear;
    referenced_[Word(id)] &= clear;
    contents_valid_[Word(id)] &= clear;
    io_busy_[Word(id)] &= clear;
  }

  // --- word views (64 frames per word) for word-parallel scans ---------------
  // Bits at positions >= size() in the last word are always zero.

  [[nodiscard]] size_t num_words() const { return mapped_.size(); }
  [[nodiscard]] const uint64_t* mapped_words() const { return mapped_.data(); }
  [[nodiscard]] const uint64_t* dirty_words() const { return dirty_.data(); }
  [[nodiscard]] const uint64_t* referenced_words() const { return referenced_.data(); }
  [[nodiscard]] const uint64_t* io_busy_words() const { return io_busy_.data(); }

  // Host memory reserved for the table's per-frame structures; the host
  // commits only the pages that were written. The scale tests hold this to a
  // documented bound: sizeof(AsId)+sizeof(VPage)+1 dense bytes plus 5 plane
  // bits per frame (~13.6 B/frame at the default type widths).
  [[nodiscard]] int64_t MemoryFootprintBytes() const {
    return static_cast<int64_t>(owner_.bytes() + vpage_.bytes() + freed_by_.bytes() +
                                mapped_.bytes() + dirty_.bytes() + referenced_.bytes() +
                                contents_valid_.bytes() + io_busy_.bytes());
  }

 private:
  [[nodiscard]] size_t Index(FrameId id) const {
    assert(id >= 0 && id < size_);
    return static_cast<size_t>(id);
  }
  static size_t NumWords(int64_t frames) {
    return (static_cast<size_t>(frames) + 63) / 64;
  }
  static size_t Word(FrameId id) { return static_cast<size_t>(id) >> 6; }
  static uint64_t Mask(FrameId id) { return 1ULL << (static_cast<uint64_t>(id) & 63); }

  // Identity plus one, so the all-zero array reads as "no identity".
  using RawAs = std::make_unsigned_t<AsId>;
  using RawVPage = std::make_unsigned_t<VPage>;
  static RawAs EncodeOwner(AsId as) { return static_cast<RawAs>(as) + 1; }
  static RawVPage EncodeVPage(VPage vpage) { return static_cast<RawVPage>(vpage) + 1; }

  [[nodiscard]] bool Test(const ZeroedArray<uint64_t>& plane, FrameId id) const {
    assert(id >= 0 && id < size_);
    return (plane[Word(id)] & Mask(id)) != 0;
  }
  void Write(ZeroedArray<uint64_t>& plane, FrameId id, bool v) {
    assert(id >= 0 && id < size_);
    if (v) {
      plane[Word(id)] |= Mask(id);
    } else {
      plane[Word(id)] &= ~Mask(id);
    }
  }

  int64_t size_;
  ZeroedArray<RawAs> owner_;
  ZeroedArray<RawVPage> vpage_;
  ZeroedArray<FreedBy> freed_by_;
  // Bit planes, one bit per frame.
  ZeroedArray<uint64_t> mapped_;
  ZeroedArray<uint64_t> dirty_;
  ZeroedArray<uint64_t> referenced_;
  ZeroedArray<uint64_t> contents_valid_;
  ZeroedArray<uint64_t> io_busy_;
};

}  // namespace tmh

#endif  // TMH_SRC_VM_FRAME_TABLE_H_
