// Detection parity for the invariant checker: each test corrupts one field of
// a small, fully exercised kernel and pins the first line of the violation
// report, character for character. The expected lines were recorded on the
// checker's earlier, straightforward sweep (one lookup per page and frame),
// so a faster sweep that drops an invariant, reorders the report, or blames
// a different frame or page fails here.
//
// One case is deliberately new: a free-list link cycle. The earlier sweep
// copied the links into a vector and never stopped appending; the bounded
// walk must name the repeated frame instead.
//
// The four forged-hook cases pin the oracle's residency lines. They were
// recorded on the three-pass sweep while it still merge-walked the model's
// ordered resident map, before the model's state became dense arrays.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/check/fuzz_scenario.h"
#include "src/check/invariants.h"
#include "src/os/kernel.h"
#include "tests/testutil.h"

namespace tmh {
namespace {

// 16 frames under one 24-page paging-directed address space: 20 touches
// (every third a write), then one release of the last two touched pages,
// with the paging daemon and the releaser running. The final state holds
// resident and stolen pages, rescue links, dirty frames and a released pair.
// With slow tiers the release demotes instead of freeing.
class ParityRig {
 public:
  explicit ParityRig(int slow_tiers = 0) : kernel_(Machine(slow_tiers)), checker_(kernel_) {
    kernel_.StartDaemons();
    as_ = MakeSwapAs(kernel_, "as", 24);
    as_->AttachPagingDirected(0, 24);
    std::vector<Op> ops;
    for (VPage p = 0; p < 20; ++p) {
      ops.push_back(Op::Touch(p, p % 3 == 0, 100 * kUsec));
    }
    ops.push_back(Op::Release(18, 2, 0, 1));
    ops.push_back(Op::Sleep(50 * kMsec));
    program_ = std::make_unique<ScriptProgram>(ops);
    Thread* t = kernel_.Spawn("t", as_, program_.get());
    completed_ = kernel_.RunUntilThreadsDone({t});
    clean_ = checker_.CheckNow(kernel_);
  }

  // True when the run completed and the uncorrupted state checked clean.
  [[nodiscard]] bool ready() const { return completed_ && clean_; }
  [[nodiscard]] std::string failure() const { return checker_.failure(); }

  Kernel& kernel() { return kernel_; }
  InvariantChecker& checker() { return checker_; }
  AddressSpace& as() { return *as_; }
  Pte& pte(VPage v) { return as_->page_table().at(v); }
  FrameTable& frames() { return const_cast<FrameTable&>(kernel_.frames()); }
  FramePool& free_list() { return const_cast<FramePool&>(kernel_.frame_pool()); }
  Kernel::TierPlane& plane(size_t i) {
    return const_cast<Kernel::TierPlane&>(kernel_.tier_planes()[i]);
  }

  // First page matching `pred`, or kNoVPage.
  template <typename Pred>
  VPage FirstPage(Pred pred) {
    for (VPage v = 0; v < as_->num_pages(); ++v) {
      if (pred(pte(v))) {
        return v;
      }
    }
    return kNoVPage;
  }
  VPage FirstResident() {
    return FirstPage([](const Pte& p) {
      return p.resident && p.invalid_reason != InvalidReason::kReleasePending;
    });
  }
  VPage FirstLinked() {
    return FirstPage([](const Pte& p) { return !p.resident && p.frame != kNoFrame; });
  }
  VPage FirstTiered() {
    return FirstPage([](const Pte& p) { return p.tier != 0; });
  }

  // Runs one structural pass and returns the report's first line.
  std::string CheckFirstLine() {
    checker_.CheckNow(kernel_);
    const std::string& report = checker_.failure();
    return report.substr(0, report.find('\n'));
  }

 private:
  static MachineConfig Machine(int slow_tiers) {
    MachineConfig config = TestMachine(16);
    if (slow_tiers > 0) {
      config.tiers.push_back(TierSpec{});  // tiers[0] = DRAM
      for (int t = 0; t < slow_tiers; ++t) {
        TierSpec tier;
        tier.frames = 8;
        config.tiers.push_back(tier);
      }
    }
    return config;
  }

  Kernel kernel_;
  InvariantChecker checker_;
  AddressSpace* as_ = nullptr;
  std::unique_ptr<ScriptProgram> program_;
  bool completed_ = false;
  bool clean_ = false;
};

TEST(DetectionParityTest, BitmapBitClearedIsIBm) {
  ParityRig rig;
  ASSERT_TRUE(rig.ready()) << rig.failure();
  const VPage v = rig.FirstResident();
  ASSERT_NE(v, kNoVPage);
  rig.as().bitmap()->Clear(v);
  EXPECT_EQ(rig.CheckFirstLine(),
            "invariant I-BM violated at t=164145000ns: "
            "as=0 vpage=12 bitmap bit is clear but the page state requires set");
}

TEST(DetectionParityTest, ResidentPteSwitchedOffIsIFt) {
  ParityRig rig;
  ASSERT_TRUE(rig.ready()) << rig.failure();
  const VPage v = rig.FirstResident();
  ASSERT_NE(v, kNoVPage);
  rig.pte(v).resident = false;
  EXPECT_EQ(rig.CheckFirstLine(),
            "invariant I-FT violated at t=164145000ns: "
            "mapped frame 12 (as=0 vpage=12) not reflected in the PTE");
}

TEST(DetectionParityTest, NonResidentPteMarkedValidIsIPt) {
  ParityRig rig;
  ASSERT_TRUE(rig.ready()) << rig.failure();
  rig.pte(23).valid = true;  // never touched
  EXPECT_EQ(rig.CheckFirstLine(),
            "invariant I-PT violated at t=164145000ns: "
            "non-resident page as=0 vpage=23 is marked valid");
}

TEST(DetectionParityTest, UnqueuedReleasePendingPteIsIRq) {
  ParityRig rig;
  ASSERT_TRUE(rig.ready()) << rig.failure();
  const VPage v = rig.FirstResident();
  ASSERT_NE(v, kNoVPage);
  rig.pte(v).valid = false;
  rig.pte(v).invalid_reason = InvalidReason::kReleasePending;
  EXPECT_EQ(rig.CheckFirstLine(),
            "invariant I-RQ violated at t=164145000ns: "
            "release-pending page as=0 vpage=12 is neither queued nor in the "
            "releaser's unresolved batch");
}

TEST(DetectionParityTest, RescueLinkToAnotherPagesFrameIsIRl) {
  ParityRig rig;
  ASSERT_TRUE(rig.ready()) << rig.failure();
  const VPage linked = rig.FirstLinked();
  const VPage resident = rig.FirstResident();
  ASSERT_NE(linked, kNoVPage);
  ASSERT_NE(resident, kNoVPage);
  rig.pte(linked).frame = rig.pte(resident).frame;
  EXPECT_EQ(rig.CheckFirstLine(),
            "invariant I-RL violated at t=164145000ns: "
            "rescue link as=0 vpage=1 frame=12 points at a frame now owned by as=0 vpage=12");
}

TEST(DetectionParityTest, MappedBitClearedIsLimboIOne) {
  ParityRig rig;
  ASSERT_TRUE(rig.ready()) << rig.failure();
  const VPage v = rig.FirstResident();
  ASSERT_NE(v, kNoVPage);
  rig.frames().set_mapped(rig.pte(v).frame, false);
  EXPECT_EQ(rig.CheckFirstLine(),
            "invariant I-ONE violated at t=164145000ns: "
            "frame 12 is in limbo: not mapped, not free-listed, not io-busy");
}

TEST(DetectionParityTest, MappedFrameSetIoBusyIsIOne) {
  ParityRig rig;
  ASSERT_TRUE(rig.ready()) << rig.failure();
  const VPage v = rig.FirstResident();
  ASSERT_NE(v, kNoVPage);
  rig.frames().set_io_busy(rig.pte(v).frame, true);
  EXPECT_EQ(rig.CheckFirstLine(),
            "invariant I-ONE violated at t=164145000ns: "
            "frame 12 is mapped while io-busy");
}

TEST(DetectionParityTest, InvalidOwnerOnMappedFrameIsIFt) {
  ParityRig rig;
  ASSERT_TRUE(rig.ready()) << rig.failure();
  const VPage v = rig.FirstResident();
  ASSERT_NE(v, kNoVPage);
  rig.frames().set_owner(rig.pte(v).frame, 7);
  EXPECT_EQ(rig.CheckFirstLine(),
            "invariant I-FT violated at t=164145000ns: "
            "mapped frame 12 has invalid owner 7");
}

TEST(DetectionParityTest, DirtyFreeFrameIsIFl) {
  ParityRig rig;
  ASSERT_TRUE(rig.ready()) << rig.failure();
  const std::vector<FrameId> free_frames = rig.kernel().frame_pool().ToVector();
  ASSERT_FALSE(free_frames.empty());
  rig.frames().set_dirty(free_frames.front(), true);
  EXPECT_EQ(rig.CheckFirstLine(),
            "invariant I-FL violated at t=164145000ns: "
            "free frame 7 is dirty");
}

TEST(DetectionParityTest, ForgedDirtyHookDivergesFromTheModel) {
  ParityRig rig;
  ASSERT_TRUE(rig.ready()) << rig.failure();
  const VPage v = rig.FirstPage([&](const Pte& p) {
    return p.resident && !rig.kernel().frames().dirty(p.frame);
  });
  ASSERT_NE(v, kNoVPage);
  VmHookEvent forged;
  forged.when = rig.kernel().Now();
  forged.op = VmHookOp::kDirty;
  forged.as = rig.as().id();
  forged.vpage = v;
  forged.frame = rig.pte(v).frame;
  rig.checker().OnVmEvent(forged);
  EXPECT_EQ(rig.CheckFirstLine(),
            "invariant oracle violated at t=164145000ns: "
            "frame 11 dirty bit is clear but the model has it set");
}

TEST(DetectionParityTest, FreeHeadMovedToTheTailDivergesFromTheModel) {
  ParityRig rig;
  ASSERT_TRUE(rig.ready()) << rig.failure();
  ASSERT_GE(rig.kernel().frame_pool().size(), 2);
  rig.free_list().PushTail(rig.free_list().PopHeadFromNode(0));
  EXPECT_EQ(rig.CheckFirstLine(),
            "invariant oracle violated at t=164145000ns: "
            "node 0 free-list order differs from the reference model");
}

// The residency half of the oracle report. A forged hook moves the model's
// page table away from the kernel's while every structural check still
// passes, so the first line names the first page, or the address space's
// count, where the two differ.
VmHookEvent Forged(ParityRig& rig, VmHookOp op, VPage vpage, FrameId frame) {
  VmHookEvent forged;
  forged.when = rig.kernel().Now();
  forged.op = op;
  forged.as = rig.as().id();
  forged.vpage = vpage;
  forged.frame = frame;
  return forged;
}

TEST(DetectionParityTest, ForgedUnmapLeavesTheModelOneResidentPageShort) {
  ParityRig rig;
  ASSERT_TRUE(rig.ready()) << rig.failure();
  const VPage v = rig.FirstResident();
  ASSERT_NE(v, kNoVPage);
  rig.checker().OnVmEvent(Forged(rig, VmHookOp::kUnmap, v, rig.pte(v).frame));
  ASSERT_TRUE(rig.checker().ok()) << rig.failure();
  EXPECT_EQ(rig.CheckFirstLine(),
            "invariant oracle violated at t=164145000ns: "
            "as=0 resident count 6 differs from the model's 5");
}

TEST(DetectionParityTest, ForgedRemapToALaterPageIsReportedAtTheKernelsPage) {
  ParityRig rig;
  ASSERT_TRUE(rig.ready()) << rig.failure();
  const VPage v = rig.FirstResident();
  ASSERT_NE(v, kNoVPage);
  const FrameId f = rig.pte(v).frame;
  rig.checker().OnVmEvent(Forged(rig, VmHookOp::kUnmap, v, f));
  rig.checker().OnVmEvent(Forged(rig, VmHookOp::kMap, 23, f));  // never touched
  ASSERT_TRUE(rig.checker().ok()) << rig.failure();
  EXPECT_EQ(rig.CheckFirstLine(),
            "invariant oracle violated at t=164145000ns: "
            "as=0 vpage=12 kernel frame 12 != model frame -1");
}

TEST(DetectionParityTest, ForgedRemapToAnEarlierPageIsReportedAtTheModelsPage) {
  ParityRig rig;
  ASSERT_TRUE(rig.ready()) << rig.failure();
  const VPage v = rig.FirstResident();
  const VPage linked = rig.FirstLinked();
  ASSERT_NE(v, kNoVPage);
  ASSERT_LT(linked, v);
  const FrameId f = rig.pte(v).frame;
  rig.checker().OnVmEvent(Forged(rig, VmHookOp::kUnmap, v, f));
  rig.checker().OnVmEvent(Forged(rig, VmHookOp::kMap, linked, f));
  ASSERT_TRUE(rig.checker().ok()) << rig.failure();
  EXPECT_EQ(rig.CheckFirstLine(),
            "invariant oracle violated at t=164145000ns: "
            "as=0 vpage=1 kernel frame -1 != model frame 12");
}

TEST(DetectionParityTest, ForgedFrameSwapIsReportedAtTheFirstSwappedPage) {
  ParityRig rig;
  ASSERT_TRUE(rig.ready()) << rig.failure();
  const VPage first = rig.FirstResident();
  ASSERT_NE(first, kNoVPage);
  VPage second = first + 1;
  while (second < rig.as().num_pages() &&
         !(rig.pte(second).resident &&
           rig.pte(second).invalid_reason != InvalidReason::kReleasePending)) {
    ++second;
  }
  ASSERT_LT(second, rig.as().num_pages());
  const FrameId f1 = rig.pte(first).frame;
  const FrameId f2 = rig.pte(second).frame;
  rig.checker().OnVmEvent(Forged(rig, VmHookOp::kUnmap, first, f1));
  rig.checker().OnVmEvent(Forged(rig, VmHookOp::kUnmap, second, f2));
  rig.checker().OnVmEvent(Forged(rig, VmHookOp::kMap, first, f2));
  rig.checker().OnVmEvent(Forged(rig, VmHookOp::kMap, second, f1));
  ASSERT_TRUE(rig.checker().ok()) << rig.failure();
  EXPECT_EQ(rig.CheckFirstLine(),
            "invariant oracle violated at t=164145000ns: "
            "as=0 vpage=12 kernel frame 12 != model frame 11");
}

TEST(DetectionParityTest, TieredPageNamingAnotherTierFrameIsITier) {
  ParityRig rig(/*slow_tiers=*/2);
  ASSERT_TRUE(rig.ready()) << rig.failure();
  const VPage v = rig.FirstTiered();
  ASSERT_NE(v, kNoVPage);
  Pte& pte = rig.pte(v);
  const Kernel::TierPlane& plane = rig.plane(static_cast<size_t>(pte.tier - 1));
  pte.tier_frame = static_cast<FrameId>((pte.tier_frame + 1) % plane.frames);
  EXPECT_EQ(rig.CheckFirstLine(),
            "invariant I-TIER violated at t=164145000ns: "
            "as=0 vpage=18 tier frame 1 does not carry the page's identity");
}

TEST(DetectionParityTest, PooledTierFrameClaimingAPageIsITier) {
  ParityRig rig(/*slow_tiers=*/2);
  ASSERT_TRUE(rig.ready()) << rig.failure();
  Kernel::TierPlane& plane = rig.plane(0);
  FrameId pooled = kNoFrame;
  for (FrameId tf = 0; tf < plane.frames && pooled == kNoFrame; ++tf) {
    if (plane.owner[static_cast<size_t>(tf)] == kNoAs) {
      pooled = tf;
    }
  }
  ASSERT_NE(pooled, kNoFrame);
  plane.owner[static_cast<size_t>(pooled)] = rig.as().id();
  plane.vpage[static_cast<size_t>(pooled)] = 23;
  EXPECT_EQ(rig.CheckFirstLine(),
            "invariant I-TIER violated at t=164145000ns: "
            "tier 1 frame 0 is occupied yet on the free pool");
}

// The fuzz harness's self-test (tmh_fuzz --seed 1 --inject 2000): the flipped
// bitmap bit must be reported by I-BM at the same event and check count.
TEST(DetectionParityTest, InjectedBitmapFlipOnSeedOneIsCaughtAtTheSameEvent) {
  CheckOptions options;
  options.full_check_period = 16;
  options.inject_bitmap_flip_after = 2000;
  const ScenarioOutcome outcome = RunScenario(MakeScenario(1), options);
  ASSERT_FALSE(outcome.ok);
  const std::string& report = outcome.failure;
  const size_t first_end = report.find('\n');
  const size_t second_end = report.find('\n', first_end + 1);
  EXPECT_EQ(report.substr(0, first_end),
            "invariant I-BM violated at t=5203873200ns: "
            "as=0 vpage=0 bitmap bit is set but the page state requires clear");
  EXPECT_EQ(report.substr(first_end + 1, second_end - first_end - 1),
            "  after 56223 VM events, 2000 full checks");
}

// The one case that differs from the earlier sweep, which ran out of memory
// here: pushing a frame that is already listed closes a link cycle, and the
// bounded walk must stop at the repeated frame and report it.
TEST(DetectionParityTest, FreeListLinkCycleIsReportedNotWalkedForever) {
  ParityRig rig;
  ASSERT_TRUE(rig.ready()) << rig.failure();
  const std::vector<FrameId> free_frames = rig.kernel().frame_pool().ToVector();
  ASSERT_GE(free_frames.size(), 2u);
  rig.free_list().PushHead(free_frames.back());
  EXPECT_EQ(rig.CheckFirstLine(),
            "invariant I-FL violated at t=164145000ns: "
            "free list contains frame " + std::to_string(free_frames.back()) + " twice");
}

}  // namespace
}  // namespace tmh
