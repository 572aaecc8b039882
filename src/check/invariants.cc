#include "src/check/invariants.h"

#include <algorithm>
#include <sstream>

#include "src/os/kernel.h"
#include "src/os/releaser.h"

namespace tmh {
namespace {

// True when a page-in is in flight for (as, vpage) on its linked frame: the
// frame carries the page's identity, is mid-I/O, and does not yet hold valid
// contents (a writeback in flight has contents_valid == true).
bool PageInInFlight(const Frame& fr, AsId as, VPage vpage) {
  return fr.owner == as && fr.vpage == vpage && fr.io_busy && !fr.mapped &&
         !fr.contents_valid;
}

}  // namespace

InvariantChecker::InvariantChecker(Kernel& kernel, CheckOptions options)
    : kernel_(&kernel), options_(options) {
  if (options_.tail > 0) {
    tail_.resize(options_.tail);
  }
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
  if (!tail_.empty()) {
    tail_[tail_next_] = event;
    tail_next_ = (tail_next_ + 1) % tail_.size();
    tail_wrapped_ = tail_wrapped_ || tail_next_ == 0;
  }
  ++events_seen_;
  ++mutations_since_check_;
  if (!failure_.empty() || !options_.with_oracle) {
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
  if (tail_.empty() || (!tail_wrapped_ && tail_next_ == 0)) {
    return "";
  }
  std::ostringstream os;
  os << "\n  recent VM events (oldest first):";
  const size_t count = tail_wrapped_ ? tail_.size() : tail_next_;
  const size_t start = tail_wrapped_ ? tail_next_ : 0;
  for (size_t i = 0; i < count; ++i) {
    const VmHookEvent& e = tail_[(start + i) % tail_.size()];
    os << "\n    t=" << e.when << " " << VmHookOpName(e.op) << " as=" << e.as
       << " vpage=" << e.vpage << " frame=" << e.frame << " a=" << e.a << " b=" << e.b;
  }
  return os.str();
}

void InvariantChecker::Validate(Kernel& kernel) {
  const SimTime now = kernel.Now();
  const FrameTable& frames = kernel.frames();
  const FramePool& free_list = kernel.free_list();
  const int64_t num_frames = frames.size();

  // I-FL: walk the intrusive links of every node's list into one snapshot
  // (node order) and check its structure, plus per-node range containment —
  // a shard must only ever hold frames from its own contiguous range.
  const std::vector<FrameId> free_vec = free_list.ToVector();
  if (static_cast<int64_t>(free_vec.size()) != free_list.size()) {
    Fail(now, "I-FL",
         "free-list link walk found " + std::to_string(free_vec.size()) +
             " frames but size() is " + std::to_string(free_list.size()));
    return;
  }
  std::vector<char> on_free(static_cast<size_t>(num_frames), 0);
  for (const FrameId f : free_vec) {
    if (f < 0 || f >= num_frames) {
      Fail(now, "I-FL", "free list contains out-of-range frame " + std::to_string(f));
      return;
    }
    if (on_free[static_cast<size_t>(f)] != 0) {
      Fail(now, "I-FL", "free list contains frame " + std::to_string(f) + " twice");
      return;
    }
    on_free[static_cast<size_t>(f)] = 1;
    const Frame& fr = frames.at(f);
    if (fr.mapped || fr.io_busy || fr.dirty) {
      Fail(now, "I-FL",
           "free frame " + std::to_string(f) + " is " +
               (fr.mapped ? "mapped" : fr.io_busy ? "io-busy" : "dirty"));
      return;
    }
  }
  for (int node = 0; node < free_list.num_nodes(); ++node) {
    int64_t walked = 0;
    for (const FrameId f : free_list.NodeToVector(node)) {
      ++walked;
      if (free_list.NodeOf(f) != node) {
        Fail(now, "I-FL",
             "node " + std::to_string(node) + " free list holds frame " +
                 std::to_string(f) + " owned by node " +
                 std::to_string(free_list.NodeOf(f)));
        return;
      }
    }
    if (walked != free_list.node_size(node)) {
      Fail(now, "I-FL",
           "node " + std::to_string(node) + " link walk found " +
               std::to_string(walked) + " frames but node_size() is " +
               std::to_string(free_list.node_size(node)));
      return;
    }
  }

  // I-FT + I-ONE over the frame table.
  const auto& address_spaces = kernel.address_spaces();
  for (FrameId f = 0; f < num_frames; ++f) {
    const Frame& fr = frames.at(f);
    if (fr.mapped) {
      if (fr.owner < 0 || static_cast<size_t>(fr.owner) >= address_spaces.size()) {
        Fail(now, "I-FT",
             "mapped frame " + std::to_string(f) + " has invalid owner " +
                 std::to_string(fr.owner));
        return;
      }
      const AddressSpace& as = *address_spaces[static_cast<size_t>(fr.owner)];
      if (fr.vpage < 0 || fr.vpage >= as.num_pages()) {
        Fail(now, "I-FT",
             "mapped frame " + std::to_string(f) + " has out-of-range vpage " +
                 std::to_string(fr.vpage));
        return;
      }
      const Pte& pte = as.page_table().at(fr.vpage);
      if (!pte.resident || pte.frame != f) {
        Fail(now, "I-FT",
             "mapped frame " + std::to_string(f) + " (as=" + std::to_string(fr.owner) +
                 " vpage=" + std::to_string(fr.vpage) + ") not reflected in the PTE");
        return;
      }
      if (fr.io_busy) {
        Fail(now, "I-ONE", "frame " + std::to_string(f) + " is mapped while io-busy");
        return;
      }
    } else if (on_free[static_cast<size_t>(f)] == 0 && !fr.io_busy) {
      Fail(now, "I-ONE",
           "frame " + std::to_string(f) +
               " is in limbo: not mapped, not free-listed, not io-busy");
      return;
    }
  }

  // I-PT, I-RL, I-RQ, I-BM over each address space.
  for (const auto& as_ptr : address_spaces) {
    const AddressSpace& as = *as_ptr;
    const PageTable& pt = as.page_table();
    int64_t resident = 0;
    for (VPage v = 0; v < as.num_pages(); ++v) {
      const Pte& pte = pt.at(v);
      if (pte.resident) {
        ++resident;
        if (pte.frame < 0 || pte.frame >= num_frames) {
          Fail(now, "I-PT",
               "resident page as=" + std::to_string(as.id()) + " vpage=" +
                   std::to_string(v) + " has invalid frame " + std::to_string(pte.frame));
          return;
        }
        const Frame& fr = frames.at(pte.frame);
        if (!fr.mapped || fr.owner != as.id() || fr.vpage != v) {
          Fail(now, "I-PT",
               "resident page as=" + std::to_string(as.id()) + " vpage=" +
                   std::to_string(v) + " frame=" + std::to_string(pte.frame) +
                   " does not carry the page's identity");
          return;
        }
        if (!pte.ever_materialized) {
          Fail(now, "I-PT",
               "resident page as=" + std::to_string(as.id()) + " vpage=" +
                   std::to_string(v) + " was never materialized");
          return;
        }
        if (pte.valid && pte.invalid_reason != InvalidReason::kNone) {
          Fail(now, "I-PT",
               "valid page as=" + std::to_string(as.id()) + " vpage=" +
                   std::to_string(v) + " carries an invalid_reason");
          return;
        }
      } else {
        if (pte.valid) {
          Fail(now, "I-PT",
               "non-resident page as=" + std::to_string(as.id()) + " vpage=" +
                   std::to_string(v) + " is marked valid");
          return;
        }
        if (pte.frame != kNoFrame) {
          // I-RL: a dangling link must still name a frame with this identity
          // (AllocateFrame breaks the link before reassigning the frame).
          if (pte.frame < 0 || pte.frame >= num_frames) {
            Fail(now, "I-RL",
                 "rescue link as=" + std::to_string(as.id()) + " vpage=" +
                     std::to_string(v) + " names invalid frame " +
                     std::to_string(pte.frame));
            return;
          }
          const Frame& fr = frames.at(pte.frame);
          if (fr.owner != as.id() || fr.vpage != v) {
            Fail(now, "I-RL",
                 "rescue link as=" + std::to_string(as.id()) + " vpage=" +
                     std::to_string(v) + " frame=" + std::to_string(pte.frame) +
                     " points at a frame now owned by as=" + std::to_string(fr.owner) +
                     " vpage=" + std::to_string(fr.vpage));
            return;
          }
        }
      }
      if (pte.tier != 0) {
        // I-TIER (page side): a tiered page is never resident, keeps no DRAM
        // rescue link, and its tier frame must carry the page's identity.
        const auto& planes = kernel.tier_planes();
        if (static_cast<size_t>(pte.tier) > planes.size()) {
          Fail(now, "I-TIER",
               "as=" + std::to_string(as.id()) + " vpage=" + std::to_string(v) +
                   " names slow tier " + std::to_string(pte.tier) +
                   " but the machine has " + std::to_string(planes.size()));
          return;
        }
        if (pte.resident) {
          Fail(now, "I-TIER",
               "as=" + std::to_string(as.id()) + " vpage=" + std::to_string(v) +
                   " is resident while demoted to tier " + std::to_string(pte.tier));
          return;
        }
        if (pte.frame != kNoFrame) {
          Fail(now, "I-TIER",
               "as=" + std::to_string(as.id()) + " vpage=" + std::to_string(v) +
                   " keeps DRAM rescue link " + std::to_string(pte.frame) +
                   " while demoted");
          return;
        }
        const Kernel::TierPlane& plane = planes[static_cast<size_t>(pte.tier - 1)];
        if (pte.tier_frame < 0 || pte.tier_frame >= plane.frames) {
          Fail(now, "I-TIER",
               "as=" + std::to_string(as.id()) + " vpage=" + std::to_string(v) +
                   " names out-of-range tier frame " + std::to_string(pte.tier_frame));
          return;
        }
        const size_t ti = static_cast<size_t>(pte.tier_frame);
        if (plane.owner[ti] != as.id() || plane.vpage[ti] != v) {
          Fail(now, "I-TIER",
               "as=" + std::to_string(as.id()) + " vpage=" + std::to_string(v) +
                   " tier frame " + std::to_string(pte.tier_frame) +
                   " does not carry the page's identity");
          return;
        }
      }
      if (pte.invalid_reason == InvalidReason::kReleasePending) {
        if (!pte.resident) {
          Fail(now, "I-RQ",
               "release-pending page as=" + std::to_string(as.id()) + " vpage=" +
                   std::to_string(v) + " is not resident");
          return;
        }
        bool queued = false;
        for (const Kernel::ReleaseWorkItem& item : kernel.release_work()) {
          if (item.as == &as && item.vpage == v) {
            queued = true;
            break;
          }
        }
        if (!queued && kernel.has_daemons() &&
            kernel.releaser().batch_as() == &as) {
          for (const VPage b : kernel.releaser().UnresolvedBatch()) {
            if (b == v) {
              queued = true;
              break;
            }
          }
        }
        if (!queued) {
          Fail(now, "I-RQ",
               "release-pending page as=" + std::to_string(as.id()) + " vpage=" +
                   std::to_string(v) +
                   " is neither queued nor in the releaser's unresolved batch");
          return;
        }
      }
    }
    if (resident != pt.resident_count()) {
      Fail(now, "I-PT",
           "as=" + std::to_string(as.id()) + " resident_count() is " +
               std::to_string(pt.resident_count()) + " but recount found " +
               std::to_string(resident));
      return;
    }

    if (as.HasPagingDirected()) {
      // I-BM, for materialized pages only: never-touched pages keep whatever
      // AttachPagingDirected left (bits outside the attached range are set).
      // Assumes attachment precedes materialization, as the runtime layer
      // guarantees.
      const ResidencyBitmap& bm = *as.bitmap();
      for (VPage v = 0; v < as.num_pages(); ++v) {
        const Pte& pte = pt.at(v);
        if (!pte.ever_materialized) {
          continue;
        }
        bool expect_set = false;
        if (pte.resident) {
          expect_set = pte.invalid_reason != InvalidReason::kReleasePending;
        } else if (pte.frame != kNoFrame) {
          expect_set = PageInInFlight(frames.at(pte.frame), as.id(), v);
        }
        if (bm.Test(v) != expect_set) {
          Fail(now, "I-BM",
               "as=" + std::to_string(as.id()) + " vpage=" + std::to_string(v) +
                   " bitmap bit is " + (bm.Test(v) ? "set" : "clear") +
                   " but the page state requires " + (expect_set ? "set" : "clear"));
          return;
        }
      }
    }
  }

  // I-TIER (plane side): each slow tier partitions its frames between the
  // free pool and occupied identity entries, with every occupied entry
  // mirrored by the owning page's PTE (the page-side pass above checked the
  // other direction).
  for (size_t pi = 0; pi < kernel.tier_planes().size(); ++pi) {
    const Kernel::TierPlane& plane = kernel.tier_planes()[pi];
    const std::string tname = "tier " + std::to_string(pi + 1);
    int64_t occupied = 0;
    for (FrameId tf = 0; tf < plane.frames; ++tf) {
      const size_t i = static_cast<size_t>(tf);
      if (plane.owner[i] == kNoAs) {
        if (!plane.pool->Contains(tf)) {
          Fail(now, "I-TIER",
               tname + " frame " + std::to_string(tf) +
                   " is in limbo: unowned but not on the free pool");
          return;
        }
        continue;
      }
      ++occupied;
      if (plane.pool->Contains(tf)) {
        Fail(now, "I-TIER",
             tname + " frame " + std::to_string(tf) +
                 " is occupied yet on the free pool");
        return;
      }
      if (plane.owner[i] < 0 ||
          static_cast<size_t>(plane.owner[i]) >= address_spaces.size()) {
        Fail(now, "I-TIER",
             tname + " frame " + std::to_string(tf) + " has invalid owner " +
                 std::to_string(plane.owner[i]));
        return;
      }
      const AddressSpace& as = *address_spaces[static_cast<size_t>(plane.owner[i])];
      if (plane.vpage[i] < 0 || plane.vpage[i] >= as.num_pages()) {
        Fail(now, "I-TIER",
             tname + " frame " + std::to_string(tf) + " has out-of-range vpage " +
                 std::to_string(plane.vpage[i]));
        return;
      }
      const Pte& pte = as.page_table().at(plane.vpage[i]);
      if (pte.tier != static_cast<uint8_t>(pi + 1) || pte.tier_frame != tf) {
        Fail(now, "I-TIER",
             tname + " frame " + std::to_string(tf) + " (as=" +
                 std::to_string(plane.owner[i]) + " vpage=" +
                 std::to_string(plane.vpage[i]) + ") not reflected in the PTE");
        return;
      }
    }
    if (occupied + plane.pool->size() != plane.frames) {
      Fail(now, "I-TIER",
           tname + " frames leak: " + std::to_string(occupied) + " occupied + " +
               std::to_string(plane.pool->size()) + " pooled != " +
               std::to_string(plane.frames));
      return;
    }
  }

  // Oracle cross-validation: the reference model must agree exactly,
  // node by node (byte-honest per node).
  if (options_.with_oracle) {
    if (oracle_.num_nodes() != free_list.num_nodes()) {
      Fail(now, "oracle", "node count differs from the reference model");
      return;
    }
    for (int node = 0; node < free_list.num_nodes(); ++node) {
      const std::deque<FrameId>& ofree = oracle_.free_node(node);
      const std::vector<FrameId> kfree = free_list.NodeToVector(node);
      if (ofree.size() != kfree.size() ||
          !std::equal(ofree.begin(), ofree.end(), kfree.begin())) {
        Fail(now, "oracle",
             "node " + std::to_string(node) +
                 " free-list order differs from the reference model");
        return;
      }
    }
    for (const auto& as_ptr : address_spaces) {
      const AddressSpace& as = *as_ptr;
      if (oracle_.ResidentCount(as.id()) != as.page_table().resident_count()) {
        Fail(now, "oracle",
             "as=" + std::to_string(as.id()) + " resident count " +
                 std::to_string(as.page_table().resident_count()) +
                 " differs from the model's " +
                 std::to_string(oracle_.ResidentCount(as.id())));
        return;
      }
      for (VPage v = 0; v < as.num_pages(); ++v) {
        const Pte& pte = as.page_table().at(v);
        const FrameId model = oracle_.FrameOf(as.id(), v);
        const FrameId actual = pte.resident ? pte.frame : kNoFrame;
        if (model != actual) {
          Fail(now, "oracle",
               "as=" + std::to_string(as.id()) + " vpage=" + std::to_string(v) +
                   " kernel frame " + std::to_string(actual) + " != model frame " +
                   std::to_string(model));
          return;
        }
      }
    }
    for (FrameId f = 0; f < num_frames; ++f) {
      const bool kernel_dirty = frames.at(f).dirty;
      const bool model_dirty = oracle_.dirty().count(f) != 0;
      if (kernel_dirty != model_dirty) {
        Fail(now, "oracle",
             "frame " + std::to_string(f) + " dirty bit is " +
                 (kernel_dirty ? "set" : "clear") + " but the model has it " +
                 (model_dirty ? "set" : "clear"));
        return;
      }
    }
    // Tier cross-validation: per-tier free-list order, occupied page sets,
    // and carried dirty bits must match the model exactly.
    if (oracle_.num_slow_tiers() !=
        static_cast<int>(kernel.tier_planes().size())) {
      Fail(now, "oracle", "slow-tier count differs from the reference model");
      return;
    }
    for (size_t pi = 0; pi < kernel.tier_planes().size(); ++pi) {
      const Kernel::TierPlane& plane = kernel.tier_planes()[pi];
      const VmOracle::TierModel& model = oracle_.tier(static_cast<int>(pi));
      const std::string tname = "tier " + std::to_string(pi + 1);
      const std::vector<FrameId> kfree = plane.pool->NodeToVector(0);
      if (model.free.size() != kfree.size() ||
          !std::equal(model.free.begin(), model.free.end(), kfree.begin())) {
        Fail(now, "oracle",
             tname + " free-list order differs from the reference model");
        return;
      }
      int64_t occupied = 0;
      for (FrameId tf = 0; tf < plane.frames; ++tf) {
        const size_t i = static_cast<size_t>(tf);
        if (plane.owner[i] == kNoAs) {
          continue;
        }
        ++occupied;
        const auto it = model.pages.find({plane.owner[i], plane.vpage[i]});
        if (it == model.pages.end() || it->second.tf != tf) {
          Fail(now, "oracle",
               tname + " frame " + std::to_string(tf) + " (as=" +
                   std::to_string(plane.owner[i]) + " vpage=" +
                   std::to_string(plane.vpage[i]) +
                   ") is not where the reference model has it");
          return;
        }
        if (it->second.dirty != (plane.dirty[i] != 0)) {
          Fail(now, "oracle",
               tname + " frame " + std::to_string(tf) +
                   " carried dirty bit differs from the reference model");
          return;
        }
      }
      if (occupied != static_cast<int64_t>(model.pages.size())) {
        Fail(now, "oracle",
             tname + " occupancy " + std::to_string(occupied) +
                 " differs from the model's " + std::to_string(model.pages.size()));
        return;
      }
    }
  }
}

}  // namespace tmh
