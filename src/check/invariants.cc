#include "src/check/invariants.h"

#include <algorithm>
#include <bit>
#include <deque>
#include <span>
#include <sstream>

#include "src/os/kernel.h"
#include "src/os/releaser.h"

namespace tmh {

InvariantChecker::InvariantChecker(Kernel& kernel, CheckOptions options)
    : kernel_(&kernel), options_(options) {
  if (options_.full_check_period == 0) {
    options_.full_check_period = 1;
  }
  oracle_.SeedFromKernel(kernel);
  kernel.AttachChecker(this);
}

InvariantChecker::~InvariantChecker() { kernel_->AttachChecker(nullptr); }

void InvariantChecker::OnVmEvent(const VmHookEvent& event) {
  if (!IsVmTransition(event.op)) {
    return;  // timing edges for the recorder: no state to replay or check
  }
  tail_[tail_next_] = event;
  tail_next_ = (tail_next_ + 1) % kTailEvents;
  tail_wrapped_ = tail_wrapped_ || tail_next_ == 0;
  ++events_seen_;
  ++mutations_since_check_;
  if (!failure_.empty()) {
    return;
  }
  oracle_.Apply(event);
  if (!oracle_.ok()) {
    Fail(event.when, "oracle", oracle_.failure());
  }
}

void InvariantChecker::OnQuiescent(Kernel& kernel) {
  if (!failure_.empty() || mutations_since_check_ < options_.full_check_period) {
    return;
  }
  mutations_since_check_ = 0;
  ++checks_run_;
  MaybeInject(kernel);
  Validate(kernel);
}

bool InvariantChecker::CheckNow(Kernel& kernel) {
  if (failure_.empty()) {
    mutations_since_check_ = 0;
    ++checks_run_;
    Validate(kernel);
  }
  return ok();
}

void InvariantChecker::MaybeInject(Kernel& kernel) {
  if (injected_ || options_.inject_bitmap_flip_after == 0 ||
      checks_run_ < options_.inject_bitmap_flip_after) {
    return;
  }
  // Flip the bit of the first materialized page of the first PagingDirected
  // address space. I-BM fully determines the bit for materialized pages, so
  // either flip direction is a detectable corruption.
  for (const auto& as : kernel.address_spaces()) {
    if (!as->HasPagingDirected()) {
      continue;
    }
    for (VPage v = 0; v < as->num_pages(); ++v) {
      if (!as->page_table().at(v).ever_materialized) {
        continue;
      }
      if (as->bitmap()->Test(v)) {
        as->bitmap()->Clear(v);
      } else {
        as->bitmap()->Set(v);
      }
      injected_ = true;
      return;
    }
  }
}

void InvariantChecker::Fail(SimTime now, const std::string& invariant,
                            const std::string& detail) {
  if (!failure_.empty()) {
    return;
  }
  std::ostringstream os;
  os << "invariant " << invariant << " violated at t=" << now << "ns: " << detail
     << "\n  after " << events_seen_ << " VM events, " << checks_run_
     << " full checks" << TailDump();
  failure_ = os.str();
}

std::string InvariantChecker::TailDump() const {
  if (!tail_wrapped_ && tail_next_ == 0) {
    return "";
  }
  std::ostringstream os;
  os << "\n  recent VM events (oldest first):";
  const size_t count = tail_wrapped_ ? kTailEvents : tail_next_;
  const size_t start = tail_wrapped_ ? tail_next_ : 0;
  for (size_t i = 0; i < count; ++i) {
    const VmHookEvent& e = tail_[(start + i) % kTailEvents];
    os << "\n    t=" << e.when << " " << VmHookOpName(e.op) << " as=" << e.as
       << " vpage=" << e.vpage << " frame=" << e.frame << " a=" << e.a << " b=" << e.b;
  }
  return os.str();
}

void InvariantChecker::BuildReleaseQueue(Kernel& kernel) {
  release_queue_.clear();
  for (const Kernel::ReleaseWorkItem& item : kernel.release_work()) {
    release_queue_.emplace_back(item.as, item.vpage);
  }
  if (kernel.has_daemons()) {
    const Releaser& releaser = kernel.releaser();
    if (const AddressSpace* batch_as = releaser.batch_as()) {
      for (const Releaser::BatchEntry& entry : releaser.UnresolvedBatch()) {
        release_queue_.emplace_back(batch_as->id(), entry.vpage);
      }
    }
  }
  std::sort(release_queue_.begin(), release_queue_.end());
}

// Three passes over state the kernel already keeps: the free-list links, the
// frame bit planes (64 frames per step), and each page table once. The first
// violation is reported in a fixed order (DetectionParityTest pins it): I-FL;
// I-FT/I-ONE by frame, then I-ONE at each node's high-water mark; per address
// space I-PT/I-RL/I-TIER/I-RQ by page, the resident recount, then I-BM; the
// tier planes; the oracle. The oracle comparisons ride along in the three
// passes and are held back until every structural check has passed. Messages
// are built only on failure, so a clean sweep allocates nothing.
void InvariantChecker::Validate(Kernel& kernel) {
  const SimTime now = kernel.Now();
  const FrameTable& frames = kernel.frames();
  const FramePool& pool = kernel.frame_pool();
  const int64_t num_frames = frames.size();
  const uint64_t* mapped = frames.mapped_words();
  const uint64_t* io_busy = frames.io_busy_words();
  const uint64_t* dirty = frames.dirty_words();
  const size_t num_words = frames.num_words();
  std::string oracle_free;      // first node whose order differs from the model
  std::string oracle_resident;  // first address space whose residency differs
  std::string oracle_dirty;     // first frame whose dirty bit differs

  // Pass 1 (I-FL): one walk of each node's links, marking on_free_. The walk
  // stops at the first repeated frame, so a link cycle is reported instead
  // of followed forever. Failures that need the whole walk (the size check,
  // a free frame in use, a frame outside its node's range, a node's count)
  // are held until it ends and then reported in that order.
  on_free_.assign(num_words, 0);
  const bool compare_free = oracle_.num_nodes() == pool.num_nodes();
  int64_t walked_total = 0;
  FrameId unclean = kNoFrame;  // first free frame, in list order, in use
  std::string node_failure;
  for (int node = 0; node < pool.num_nodes(); ++node) {
    const FrameId begin = pool.NodeBegin(node);
    const FrameId end = pool.NodeEnd(node);
    // The model's list for this node, stepped in lockstep with the walk.
    const std::deque<FrameId>* model = compare_free ? &oracle_.free_node(node) : nullptr;
    std::deque<FrameId>::const_iterator model_next;
    if (model != nullptr) {
      model_next = model->begin();
    }
    bool model_agrees = model != nullptr;
    int64_t walked = 0;
    for (FrameId f = pool.head(node); f != kNoFrame; f = pool.next(f)) {
      if (f < 0 || f >= num_frames) {
        Fail(now, "I-FL", "free list contains out-of-range frame " + std::to_string(f));
        return;
      }
      const size_t w = static_cast<size_t>(f) >> 6;
      const uint64_t bit = uint64_t{1} << (f & 63);
      if ((on_free_[w] & bit) != 0) {
        Fail(now, "I-FL", "free list contains frame " + std::to_string(f) + " twice");
        return;
      }
      on_free_[w] |= bit;
      ++walked;
      if (unclean == kNoFrame && ((mapped[w] | io_busy[w] | dirty[w]) & bit) != 0) {
        unclean = f;
      }
      if ((f < begin || f >= end) && node_failure.empty()) {
        node_failure = "node " + std::to_string(node) + " free list holds frame " +
                       std::to_string(f) + " owned by node " +
                       std::to_string(pool.NodeOf(f));
      }
      if (model_agrees) {
        model_agrees = model_next != model->end() && *model_next == f;
        ++model_next;
      }
    }
    walked_total += walked;
    if (node_failure.empty() && walked != pool.node_size(node)) {
      node_failure = "node " + std::to_string(node) + " link walk found " +
                     std::to_string(walked) + " frames but node_size() is " +
                     std::to_string(pool.node_size(node));
    }
    if (model != nullptr && oracle_free.empty() &&
        !(model_agrees && model_next == model->end())) {
      oracle_free = "node " + std::to_string(node) +
                    " free-list order differs from the reference model";
    }
  }
  if (walked_total != pool.size()) {
    Fail(now, "I-FL",
         "free-list link walk found " + std::to_string(walked_total) +
             " frames but size() is " + std::to_string(pool.size()));
    return;
  }
  if (unclean != kNoFrame) {
    Fail(now, "I-FL",
         "free frame " + std::to_string(unclean) + " is " +
             (frames.mapped(unclean) ? "mapped" : frames.io_busy(unclean) ? "io-busy" : "dirty"));
    return;
  }
  if (!node_failure.empty()) {
    Fail(now, "I-FL", node_failure);
    return;
  }

  // Pass 2 (I-FT, I-ONE; the model's dirty set): 64 frames per step. Owner
  // and vpage are read only for mapped frames; a frame that is neither
  // mapped, free-listed nor io-busy is in limbo. The dirty plane is XORed
  // with the model's dirty words one word at a time.
  const auto& address_spaces = kernel.address_spaces();
  const std::span<const uint64_t> model_dirty = oracle_.dirty_words();
  for (size_t w = 0; w < num_words; ++w) {
    const FrameId base = static_cast<FrameId>(w * 64);
    const int64_t in_word = std::min<int64_t>(64, num_frames - base);
    const uint64_t valid = in_word == 64 ? ~uint64_t{0} : (uint64_t{1} << in_word) - 1;
    const uint64_t limbo = ~(mapped[w] | on_free_[w] | io_busy[w]) & valid;
    for (uint64_t bits = mapped[w] | limbo; bits != 0; bits &= bits - 1) {
      const int b = std::countr_zero(bits);
      const FrameId f = base + b;
      if (((limbo >> b) & 1) != 0) {
        Fail(now, "I-ONE",
             "frame " + std::to_string(f) +
                 " is in limbo: not mapped, not free-listed, not io-busy");
        return;
      }
      const AsId owner = frames.owner(f);
      if (owner < 0 || static_cast<size_t>(owner) >= address_spaces.size()) {
        Fail(now, "I-FT",
             "mapped frame " + std::to_string(f) + " has invalid owner " +
                 std::to_string(owner));
        return;
      }
      const AddressSpace& as = *address_spaces[static_cast<size_t>(owner)];
      const VPage vpage = frames.vpage(f);
      if (vpage < 0 || vpage >= as.num_pages()) {
        Fail(now, "I-FT",
             "mapped frame " + std::to_string(f) + " has out-of-range vpage " +
                 std::to_string(vpage));
        return;
      }
      const Pte& pte = as.page_table().data()[vpage];
      if (!pte.resident || pte.frame != f) {
        Fail(now, "I-FT",
             "mapped frame " + std::to_string(f) + " (as=" + std::to_string(owner) +
                 " vpage=" + std::to_string(vpage) + ") not reflected in the PTE");
        return;
      }
      if (((io_busy[w] >> b) & 1) != 0) {
        Fail(now, "I-ONE", "frame " + std::to_string(f) + " is mapped while io-busy");
        return;
      }
    }
    if (oracle_dirty.empty()) {
      const uint64_t model_bits = w < model_dirty.size() ? model_dirty[w] : 0;
      const uint64_t differ = (dirty[w] ^ model_bits) & valid;
      if (differ != 0) {
        const int b = std::countr_zero(differ);
        const bool kernel_dirty = ((dirty[w] >> b) & 1) != 0;
        oracle_dirty = "frame " + std::to_string(base + b) + " dirty bit is " +
                       (kernel_dirty ? "set" : "clear") + " but the model has it " +
                       (kernel_dirty ? "clear" : "set");
      }
    }
  }
  // I-ONE at the high-water marks: a node's frames at or above its mark never
  // left its free list, so none is mapped or io-busy. The daemon's clock pass
  // does not load them, so a frame in use there would never be reclaimed.
  for (int node = 0; node < pool.num_nodes(); ++node) {
    const int64_t lo = pool.high_water(node);
    const int64_t hi = pool.NodeEnd(node);
    for (int64_t w = lo >> 6; lo < hi && w <= (hi - 1) >> 6; ++w) {
      uint64_t bits = mapped[w] | io_busy[w];
      if (w == lo >> 6) bits &= ~uint64_t{0} << (lo & 63);
      if (w == (hi - 1) >> 6) bits &= ~uint64_t{0} >> (63 - ((hi - 1) & 63));
      if (bits != 0) {
        const FrameId f = static_cast<FrameId>((w << 6) + std::countr_zero(bits));
        Fail(now, "I-ONE",
             "frame " + std::to_string(f) + " is " + (frames.mapped(f) ? "mapped" : "io-busy") +
                 " at or above node " + std::to_string(node) + "'s high-water mark " +
                 std::to_string(lo));
        return;
      }
    }
  }

  // Pass 3 (I-PT, I-RL, I-TIER, I-RQ, I-BM; the model's residency): one pass
  // per page table. I-BM compares the bitmap a word at a time against the
  // bits the page states require, over materialized pages only; it is
  // reported after the resident recount. Each page's kernel frame (kNoFrame
  // unless resident) is compared with the model's frame at the same vpage,
  // after the resident counts.
  const std::vector<Kernel::TierPlane>& planes = kernel.tier_planes();
  bool release_queue_built = false;
  std::string bm_failure;
  for (const auto& as_ptr : address_spaces) {
    const AddressSpace& as = *as_ptr;
    const AsId id = as.id();
    const PageTable& pt = as.page_table();
    const Pte* ptes = pt.data();
    const VPage num_pages = as.num_pages();
    const uint64_t* bitmap = as.HasPagingDirected() ? as.bitmap()->words() : nullptr;
    const std::span<const FrameId> model_frames = oracle_.PageFrames(id);
    bool compare_resident = oracle_resident.empty();
    if (compare_resident && oracle_.ResidentCount(id) != pt.resident_count()) {
      oracle_resident = "as=" + std::to_string(id) + " resident count " +
                        std::to_string(pt.resident_count()) + " differs from the model's " +
                        std::to_string(oracle_.ResidentCount(id));
      compare_resident = false;
    }
    int64_t resident = 0;
    uint64_t care = 0;    // materialized pages of the current bitmap word
    uint64_t expect = 0;  // ... whose page state requires the bit set
    for (VPage v = 0; v < num_pages; ++v) {
      const Pte& pte = ptes[v];
      bool bit_required = false;
      if (pte.resident) {
        ++resident;
        if (pte.frame < 0 || pte.frame >= num_frames) {
          Fail(now, "I-PT",
               "resident page as=" + std::to_string(id) + " vpage=" + std::to_string(v) +
                   " has invalid frame " + std::to_string(pte.frame));
          return;
        }
        if (!frames.mapped(pte.frame) || !frames.IsPage(pte.frame, id, v)) {
          Fail(now, "I-PT",
               "resident page as=" + std::to_string(id) + " vpage=" + std::to_string(v) +
                   " frame=" + std::to_string(pte.frame) +
                   " does not carry the page's identity");
          return;
        }
        if (!pte.ever_materialized) {
          Fail(now, "I-PT",
               "resident page as=" + std::to_string(id) + " vpage=" + std::to_string(v) +
                   " was never materialized");
          return;
        }
        if (pte.valid && pte.invalid_reason != InvalidReason::kNone) {
          Fail(now, "I-PT",
               "valid page as=" + std::to_string(id) + " vpage=" + std::to_string(v) +
                   " carries an invalid_reason");
          return;
        }
        bit_required = pte.invalid_reason != InvalidReason::kReleasePending;
      } else {
        if (pte.valid) {
          Fail(now, "I-PT",
               "non-resident page as=" + std::to_string(id) + " vpage=" +
                   std::to_string(v) + " is marked valid");
          return;
        }
        if (pte.frame != kNoFrame) {
          // I-RL: a dangling link must still name a frame with this identity
          // (AllocateFrame breaks the link before reassigning the frame).
          if (pte.frame < 0 || pte.frame >= num_frames) {
            Fail(now, "I-RL",
                 "rescue link as=" + std::to_string(id) + " vpage=" + std::to_string(v) +
                     " names invalid frame " + std::to_string(pte.frame));
            return;
          }
          if (!frames.IsPage(pte.frame, id, v)) {
            Fail(now, "I-RL",
                 "rescue link as=" + std::to_string(id) + " vpage=" + std::to_string(v) +
                     " frame=" + std::to_string(pte.frame) +
                     " points at a frame now owned by as=" +
                     std::to_string(frames.owner(pte.frame)) +
                     " vpage=" + std::to_string(frames.vpage(pte.frame)));
            return;
          }
          // A page-in in flight: the frame carries the page's identity, is
          // mid-I/O, and does not yet hold valid contents (a writeback in
          // flight has contents_valid set).
          bit_required = frames.io_busy(pte.frame) && !frames.mapped(pte.frame) &&
                         !frames.contents_valid(pte.frame);
        }
      }
      if (compare_resident) {
        const FrameId kernel_frame = pte.resident ? pte.frame : kNoFrame;
        const FrameId model_frame =
            static_cast<size_t>(v) < model_frames.size() ? model_frames[static_cast<size_t>(v)]
                                                         : kNoFrame;
        if (kernel_frame != model_frame) {
          oracle_resident = "as=" + std::to_string(id) + " vpage=" + std::to_string(v) +
                            " kernel frame " + std::to_string(kernel_frame) +
                            " != model frame " + std::to_string(model_frame);
          compare_resident = false;
        }
      }
      if (pte.tier != 0) {
        // I-TIER (page side): a tiered page is never resident, keeps no DRAM
        // rescue link, and its tier frame must carry the page's identity.
        if (static_cast<size_t>(pte.tier) > planes.size()) {
          Fail(now, "I-TIER",
               "as=" + std::to_string(id) + " vpage=" + std::to_string(v) +
                   " names slow tier " + std::to_string(pte.tier) +
                   " but the machine has " + std::to_string(planes.size()));
          return;
        }
        if (pte.resident) {
          Fail(now, "I-TIER",
               "as=" + std::to_string(id) + " vpage=" + std::to_string(v) +
                   " is resident while demoted to tier " + std::to_string(pte.tier));
          return;
        }
        if (pte.frame != kNoFrame) {
          Fail(now, "I-TIER",
               "as=" + std::to_string(id) + " vpage=" + std::to_string(v) +
                   " keeps DRAM rescue link " + std::to_string(pte.frame) +
                   " while demoted");
          return;
        }
        const Kernel::TierPlane& plane = planes[static_cast<size_t>(pte.tier - 1)];
        if (pte.tier_frame < 0 || pte.tier_frame >= plane.frames) {
          Fail(now, "I-TIER",
               "as=" + std::to_string(id) + " vpage=" + std::to_string(v) +
                   " names out-of-range tier frame " + std::to_string(pte.tier_frame));
          return;
        }
        const size_t ti = static_cast<size_t>(pte.tier_frame);
        if (plane.owner[ti] != id || plane.vpage[ti] != v) {
          Fail(now, "I-TIER",
               "as=" + std::to_string(id) + " vpage=" + std::to_string(v) +
                   " tier frame " + std::to_string(pte.tier_frame) +
                   " does not carry the page's identity");
          return;
        }
      }
      if (pte.invalid_reason == InvalidReason::kReleasePending) {
        if (!pte.resident) {
          Fail(now, "I-RQ",
               "release-pending page as=" + std::to_string(id) + " vpage=" +
                   std::to_string(v) + " is not resident");
          return;
        }
        if (!release_queue_built) {
          BuildReleaseQueue(kernel);
          release_queue_built = true;
        }
        if (!std::binary_search(release_queue_.begin(), release_queue_.end(),
                                std::pair<AsId, VPage>(id, v))) {
          Fail(now, "I-RQ",
               "release-pending page as=" + std::to_string(id) + " vpage=" +
                   std::to_string(v) +
                   " is neither queued nor in the releaser's unresolved batch");
          return;
        }
      }
      if (bitmap != nullptr) {
        // I-BM, for materialized pages only: never-touched pages keep
        // whatever AttachPagingDirected left (bits outside the attached range
        // are set). Assumes attachment precedes materialization, as the
        // runtime layer guarantees.
        const uint64_t bit = uint64_t{1} << (v & 63);
        if (pte.ever_materialized) {
          care |= bit;
          expect |= bit_required ? bit : 0;
        }
        if ((v & 63) == 63 || v + 1 == num_pages) {
          const uint64_t word = bitmap[static_cast<size_t>(v) >> 6];
          const uint64_t differ = (word ^ expect) & care;
          if (differ != 0 && bm_failure.empty()) {
            const int b = std::countr_zero(differ);
            const bool set = ((word >> b) & 1) != 0;
            bm_failure = "as=" + std::to_string(id) + " vpage=" +
                         std::to_string((v & ~VPage{63}) + b) + " bitmap bit is " +
                         (set ? "set" : "clear") + " but the page state requires " +
                         (set ? "clear" : "set");
          }
          care = 0;
          expect = 0;
        }
      }
    }
    if (resident != pt.resident_count()) {
      Fail(now, "I-PT",
           "as=" + std::to_string(id) + " resident_count() is " +
               std::to_string(pt.resident_count()) + " but recount found " +
               std::to_string(resident));
      return;
    }
    if (!bm_failure.empty()) {
      Fail(now, "I-BM", bm_failure);
      return;
    }
  }

  // I-TIER (plane side): each slow tier partitions its frames between the
  // free pool and occupied identity entries, with every occupied entry
  // mirrored by the owning page's PTE (pass 3 checked the other direction).
  auto tier_name = [](size_t pi) { return "tier " + std::to_string(pi + 1); };
  for (size_t pi = 0; pi < planes.size(); ++pi) {
    const Kernel::TierPlane& plane = planes[pi];
    int64_t occupied = 0;
    for (FrameId tf = 0; tf < plane.frames; ++tf) {
      const size_t i = static_cast<size_t>(tf);
      if (plane.owner[i] == kNoAs) {
        if (!plane.pool->Contains(tf)) {
          Fail(now, "I-TIER",
               tier_name(pi) + " frame " + std::to_string(tf) +
                   " is in limbo: unowned but not on the free pool");
          return;
        }
        continue;
      }
      ++occupied;
      if (plane.pool->Contains(tf)) {
        Fail(now, "I-TIER",
             tier_name(pi) + " frame " + std::to_string(tf) +
                 " is occupied yet on the free pool");
        return;
      }
      if (plane.owner[i] < 0 ||
          static_cast<size_t>(plane.owner[i]) >= address_spaces.size()) {
        Fail(now, "I-TIER",
             tier_name(pi) + " frame " + std::to_string(tf) + " has invalid owner " +
                 std::to_string(plane.owner[i]));
        return;
      }
      const AddressSpace& as = *address_spaces[static_cast<size_t>(plane.owner[i])];
      if (plane.vpage[i] < 0 || plane.vpage[i] >= as.num_pages()) {
        Fail(now, "I-TIER",
             tier_name(pi) + " frame " + std::to_string(tf) + " has out-of-range vpage " +
                 std::to_string(plane.vpage[i]));
        return;
      }
      const Pte& pte = as.page_table().data()[plane.vpage[i]];
      if (pte.tier != static_cast<uint8_t>(pi + 1) || pte.tier_frame != tf) {
        Fail(now, "I-TIER",
             tier_name(pi) + " frame " + std::to_string(tf) + " (as=" +
                 std::to_string(plane.owner[i]) + " vpage=" +
                 std::to_string(plane.vpage[i]) + ") not reflected in the PTE");
        return;
      }
    }
    if (occupied + plane.pool->size() != plane.frames) {
      Fail(now, "I-TIER",
           tier_name(pi) + " frames leak: " + std::to_string(occupied) + " occupied + " +
               std::to_string(plane.pool->size()) + " pooled != " +
               std::to_string(plane.frames));
      return;
    }
  }

  // Oracle cross-validation: the reference model must agree exactly, node by
  // node (byte-honest per node). Passes 1-3 found the first disagreement of
  // each part; report them in the model's order.
  if (oracle_.num_nodes() != pool.num_nodes()) {
    Fail(now, "oracle", "node count differs from the reference model");
    return;
  }
  for (const std::string* found : {&oracle_free, &oracle_resident, &oracle_dirty}) {
    if (!found->empty()) {
      Fail(now, "oracle", *found);
      return;
    }
  }
  // Tier cross-validation: per-tier free-list order, occupied page sets, and
  // carried dirty bits must match the model exactly.
  if (oracle_.num_slow_tiers() != static_cast<int>(planes.size())) {
    Fail(now, "oracle", "slow-tier count differs from the reference model");
    return;
  }
  for (size_t pi = 0; pi < planes.size(); ++pi) {
    const Kernel::TierPlane& plane = planes[pi];
    const VmOracle::TierModel& model = oracle_.tier(static_cast<int>(pi));
    // Walk the pool's links in step with the model's list, so the walk is
    // bounded by the model's length even if the links are corrupt.
    auto model_free = model.free.begin();
    FrameId tf = plane.pool->head(0);
    for (; tf != kNoFrame && model_free != model.free.end() && *model_free == tf;
         tf = plane.pool->next(tf)) {
      ++model_free;
    }
    if (tf != kNoFrame || model_free != model.free.end()) {
      Fail(now, "oracle",
           tier_name(pi) + " free-list order differs from the reference model");
      return;
    }
    int64_t occupied = 0;
    for (tf = 0; tf < plane.frames; ++tf) {
      const size_t i = static_cast<size_t>(tf);
      if (plane.owner[i] == kNoAs) {
        continue;
      }
      ++occupied;
      const auto it = model.pages.find({plane.owner[i], plane.vpage[i]});
      if (it == model.pages.end() || it->second.tf != tf) {
        Fail(now, "oracle",
             tier_name(pi) + " frame " + std::to_string(tf) + " (as=" +
                 std::to_string(plane.owner[i]) + " vpage=" +
                 std::to_string(plane.vpage[i]) +
                 ") is not where the reference model has it");
        return;
      }
      if (it->second.dirty != (plane.dirty[i] != 0)) {
        Fail(now, "oracle",
             tier_name(pi) + " frame " + std::to_string(tf) +
                 " carried dirty bit differs from the reference model");
        return;
      }
    }
    if (occupied != static_cast<int64_t>(model.pages.size())) {
      Fail(now, "oracle",
           tier_name(pi) + " occupancy " + std::to_string(occupied) +
               " differs from the model's " + std::to_string(model.pages.size()));
      return;
    }
  }
}

}  // namespace tmh
