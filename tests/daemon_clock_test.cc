// Differential test of the paging daemon's clock pass (GatherClockBatch):
// the two-segment word loop that ships against the loop it replaced, which
// wrapped the hand with `%` at every step, on randomized frame tables. Both
// must gather the same batch with the same owner, leave the hand on the same
// frame and count the same frames passed, because all four feed the daemon's
// quotas and the rendered tables. The bounded pass, which stops loading at
// the node's high-water mark, must match the same unbounded reference.

#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "src/os/paging_daemon.h"
#include "src/sim/rng.h"
#include "src/vm/frame_pool.h"
#include "src/vm/frame_table.h"

namespace tmh {
namespace {

// The clock pass as PagingDaemon::GatherBatchFromNode ran it before
// GatherClockBatch, kept verbatim as the reference: it re-enters the word loop
// once per candidate and wraps the hand with `%`. The one edit: owners are the
// AsIds the daemon looked its AddressSpace pointers up from (ids index the
// kernel's spaces one to one, so the comparisons agree).
ClockPass ReferencePass(const FrameTable& frames, int64_t base, int64_t end, int64_t clock_hand,
                        AsId filter, int batch_limit, std::vector<FrameId>* batch) {
  const int64_t n = end - base;
  batch->clear();
  AsId owner = kNoAs;
  int64_t scanned_this_round = 0;
  const uint64_t* mapped = frames.mapped_words();
  const uint64_t* io_busy = frames.io_busy_words();
  int64_t steps = 0;  // frames consumed this call, skips included
  while (steps < n) {
    const int64_t hand = clock_hand;
    const int bit = static_cast<int>(hand & 63);
    // Frames examinable in this word: bounded by the word edge, the node end
    // (the hand wraps there), and the one-lap step budget.
    const int64_t max_here = std::min<int64_t>(64 - bit, std::min(end - hand, n - steps));
    uint64_t cand = (mapped[hand >> 6] & ~io_busy[hand >> 6]) >> bit;
    if (max_here < 64) {
      cand &= (1ULL << max_here) - 1;
    }
    if (cand == 0) {
      clock_hand = base + (hand - base + max_here) % n;
      steps += max_here;
      scanned_this_round += max_here;
      continue;
    }
    const int64_t skip = __builtin_ctzll(cand);
    const auto f = static_cast<FrameId>(hand + skip);
    clock_hand = base + (hand - base + skip + 1) % n;
    steps += skip + 1;
    scanned_this_round += skip + 1;
    const AsId as = frames.owner(f);
    if (filter != kNoAs && as != filter) {
      continue;
    }
    if (owner == kNoAs) {
      owner = as;
    } else if (as != owner) {
      // Stop the batch at the owner boundary; rewind so this frame is next.
      clock_hand = static_cast<int64_t>(f);
      --scanned_this_round;
      break;
    }
    batch->push_back(f);
    if (static_cast<int>(batch->size()) >= batch_limit) {
      break;
    }
  }
  return ClockPass{owner, clock_hand, scanned_this_round};
}

// How a word's 64 frames are drawn.
enum class WordKind { kEmpty, kSparse, kDense, kFull, kAllIoBusy };

// Fills `table` one word at a time, with a random WordKind per word. Every
// mapped frame gets one of `owners` owners, interleaved frame by frame or in
// runs of one owner.
void FillRandom(FrameTable& table, Rng& rng, int owners, bool runs) {
  AsId run_owner = 0;
  for (int64_t w = 0; w * 64 < table.size(); ++w) {
    const auto kind = static_cast<WordKind>(rng.NextBelow(5));
    for (int64_t f = w * 64; f < std::min(table.size(), (w + 1) * 64); ++f) {
      const auto id = static_cast<FrameId>(f);
      bool mapped = false;
      bool io_busy = false;
      switch (kind) {
        case WordKind::kEmpty:
          break;
        case WordKind::kSparse:
          mapped = rng.NextBelow(16) == 0;
          break;
        case WordKind::kDense:
          mapped = rng.NextBelow(16) != 0;
          io_busy = rng.NextBelow(16) == 0;
          break;
        case WordKind::kFull:
          mapped = true;
          break;
        case WordKind::kAllIoBusy:
          mapped = rng.NextBelow(2) == 0;
          io_busy = true;
          break;
      }
      table.set_mapped(id, mapped);
      table.set_io_busy(id, io_busy);
      if (mapped) {
        if (!runs) {
          table.set_owner(id, static_cast<AsId>(rng.NextBelow(static_cast<uint64_t>(owners))));
        } else {
          if (rng.NextBelow(16) == 0) {
            run_owner = static_cast<AsId>(rng.NextBelow(static_cast<uint64_t>(owners)));
          }
          table.set_owner(id, run_owner);
        }
      }
    }
  }
}

// A kernel_storms-shaped node: the low 4% of each node mapped by 12
// interleaved owners in short runs, ~6% of them io_busy, the rest empty.
void FillStormShaped(FrameTable& table, const FramePool& pool, Rng& rng) {
  for (int node = 0; node < pool.num_nodes(); ++node) {
    const int64_t begin = pool.NodeBegin(node);
    const int64_t low = begin + (pool.NodeEnd(node) - begin) / 25;
    AsId owner = 0;
    for (int64_t f = begin; f < low; ++f) {
      const auto id = static_cast<FrameId>(f);
      if (rng.NextBelow(3) == 0) {
        owner = static_cast<AsId>(rng.NextBelow(12));
      }
      table.set_mapped(id, true);
      table.set_owner(id, owner);
      table.set_io_busy(id, rng.NextBelow(16) == 0);
    }
  }
}

// Runs both passes from `hand`, the shipped one with scan bound `bound`; if
// they differ, reports every field of both.
::testing::AssertionResult SamePass(const FrameTable& frames, int64_t begin, int64_t end,
                                    int64_t hand, AsId filter, int limit, ClockPass* out,
                                    int64_t bound = INT64_MAX) {
  std::vector<FrameId> want_batch;
  std::vector<FrameId> got_batch;
  const ClockPass want = ReferencePass(frames, begin, end, hand, filter, limit, &want_batch);
  const ClockPass got =
      GatherClockBatch(frames, begin, end, hand, filter, limit, &got_batch, bound);
  *out = got;
  if (got_batch == want_batch && got.owner == want.owner && got.hand == want.hand &&
      got.passed == want.passed) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << "node [" << begin << ", " << end << ") bound " << bound << " hand " << hand
         << " filter " << filter << " limit " << limit << ": batch of " << got_batch.size()
         << " frames (want "
         << want_batch.size() << ", same: " << (got_batch == want_batch) << "), owner "
         << got.owner << " (want " << want.owner << "), hand ends at " << got.hand << " (want "
         << want.hand << "), passed " << got.passed << " (want " << want.passed << ")";
}

constexpr int kLimits[] = {1, 2, 96};

// Compares the passes from `hand` with the filter off and on (a random owner,
// sometimes one that owns nothing) at every batch limit, following each pass
// with `chained` more from the hand it left, as the daemon does.
::testing::AssertionResult SameFromHand(const FrameTable& frames, const FramePool& pool, int node,
                                        int64_t hand, int owners, Rng& rng, int chained,
                                        int64_t bound = INT64_MAX) {
  const int64_t begin = pool.NodeBegin(node);
  const int64_t end = pool.NodeEnd(node);
  const AsId filters[] = {kNoAs,
                          static_cast<AsId>(rng.NextBelow(static_cast<uint64_t>(owners) + 1))};
  for (const AsId filter : filters) {
    for (const int limit : kLimits) {
      int64_t h = hand;
      for (int i = 0; i <= chained; ++i) {
        ClockPass pass;
        ::testing::AssertionResult same =
            SamePass(frames, begin, end, h, filter, limit, &pass, bound);
        if (!same) {
          return same;
        }
        h = pass.hand;
      }
    }
  }
  return ::testing::AssertionSuccess();
}

// Random hand inside the node [begin, end); begin when the node is empty.
int64_t RandomHand(const FramePool& pool, int node, Rng& rng) {
  const int64_t begin = pool.NodeBegin(node);
  const int64_t n = pool.NodeEnd(node) - begin;
  return n <= 0 ? begin : begin + static_cast<int64_t>(rng.NextBelow(static_cast<uint64_t>(n)));
}

// One past the node's highest mapped frame (its begin if none is mapped):
// the lowest value the node's high-water mark can hold.
int64_t MappedTop(const FrameTable& frames, const FramePool& pool, int node) {
  for (int64_t f = pool.NodeEnd(node); f > pool.NodeBegin(node); --f) {
    if (frames.mapped(static_cast<FrameId>(f - 1))) {
      return f;
    }
  }
  return pool.NodeBegin(node);
}

// Scan bounds for `node`: its mapped top, a random one between that and the
// node's end, and the end itself.
std::vector<int64_t> Bounds(const FrameTable& frames, const FramePool& pool, int node, Rng& rng) {
  const int64_t top = MappedTop(frames, pool, node);
  const int64_t end = std::max<int64_t>(top, pool.NodeEnd(node));
  return {top, top + static_cast<int64_t>(rng.NextBelow(static_cast<uint64_t>(end - top) + 1)),
          end};
}

// Unmaps each node's frames from a random cut up, so its mapped top falls
// anywhere in the node, word edges and node edges included.
void EmptyAboveRandomCuts(FrameTable& table, const FramePool& pool, Rng& rng) {
  for (int node = 0; node < pool.num_nodes(); ++node) {
    const int64_t begin = pool.NodeBegin(node);
    const int64_t n = pool.NodeEnd(node) - begin;
    if (n <= 0) {
      continue;
    }
    for (int64_t f = begin + static_cast<int64_t>(rng.NextBelow(static_cast<uint64_t>(n) + 1));
         f < pool.NodeEnd(node); ++f) {
      table.set_mapped(static_cast<FrameId>(f), false);
      table.set_io_busy(static_cast<FrameId>(f), false);
    }
  }
}

TEST(DaemonClockTest, MatchesReferenceOnRandomTables) {
  // 10 frames over 8 nodes leaves nodes 5-7 without frames; 1000 over 3 and
  // 130 over 2 put node edges inside words; 640 over 1 ends on a word edge.
  const struct {
    int64_t frames;
    int nodes;
  } kShapes[] = {{10, 8}, {1000, 3}, {640, 1}, {130, 2}};
  Rng rng(20);
  for (int trial = 0; trial < 10'000; ++trial) {
    const auto& shape = kShapes[trial % 4];
    FrameTable table(shape.frames);
    FramePool pool(shape.frames, shape.nodes);
    const int owners = 1 + static_cast<int>(rng.NextBelow(12));
    FillRandom(table, rng, owners, /*runs=*/trial % 8 >= 4);
    for (int node = 0; node < pool.num_nodes(); ++node) {
      // The node's first frame, its last frame (where the hand wraps), or a
      // random one.
      int64_t hand = RandomHand(pool, node, rng);
      if (trial % 3 == 0) {
        hand = pool.NodeBegin(node);
      } else if (trial % 3 == 1) {
        hand = std::max<int64_t>(pool.NodeBegin(node), pool.NodeEnd(node) - 1);
      }
      ASSERT_TRUE(SameFromHand(table, pool, node, hand, owners, rng, /*chained=*/1))
          << "trial " << trial;
    }
  }
}

TEST(DaemonClockTest, MatchesReferenceFromEveryHand) {
  const struct {
    int64_t frames;
    int nodes;
  } kShapes[] = {{1000, 3}, {10, 8}};
  Rng rng(21);
  for (const auto& shape : kShapes) {
    for (int trial = 0; trial < 4; ++trial) {
      FrameTable table(shape.frames);
      FramePool pool(shape.frames, shape.nodes);
      const int owners = trial < 2 ? 3 : 12;
      FillRandom(table, rng, owners, /*runs=*/trial % 2 == 1);
      for (int node = 0; node < pool.num_nodes(); ++node) {
        for (int64_t hand = pool.NodeBegin(node); hand < pool.NodeEnd(node); ++hand) {
          ASSERT_TRUE(SameFromHand(table, pool, node, hand, owners, rng, /*chained=*/0))
              << shape.frames << " frames over " << shape.nodes << " nodes, trial " << trial;
        }
      }
    }
  }
}

TEST(DaemonClockTest, MatchesReferenceOnMillionFramesOverEightNodes) {
  constexpr int64_t kFrames = 1'000'000;  // 125,000 a node: inner node edges fall inside words
  FramePool pool(kFrames, 8);
  Rng rng(22);
  for (int trial = 0; trial < 2; ++trial) {
    FrameTable table(kFrames);
    if (trial == 0) {
      FillStormShaped(table, pool, rng);
    } else {
      FillRandom(table, rng, /*owners=*/12, /*runs=*/true);
    }
    for (int node = 0; node < pool.num_nodes(); ++node) {
      const int64_t begin = pool.NodeBegin(node);
      const int64_t end = pool.NodeEnd(node);
      std::vector<int64_t> hands = {begin, end - 1, (begin | 63), (end - 1) & ~int64_t{63}};
      for (int i = 0; i < 8; ++i) {
        hands.push_back(RandomHand(pool, node, rng));
      }
      for (const int64_t hand : hands) {
        ASSERT_TRUE(SameFromHand(table, pool, node, hand, 12, rng, /*chained=*/3))
            << "trial " << trial;
      }
    }
  }
}

TEST(DaemonClockTest, BoundedMatchesReferenceOnRandomTables) {
  const struct {
    int64_t frames;
    int nodes;
  } kShapes[] = {{10, 8}, {1000, 3}, {640, 1}, {130, 2}};
  Rng rng(23);
  for (int trial = 0; trial < 10'000; ++trial) {
    const auto& shape = kShapes[trial % 4];
    FrameTable table(shape.frames);
    FramePool pool(shape.frames, shape.nodes);
    const int owners = 1 + static_cast<int>(rng.NextBelow(12));
    FillRandom(table, rng, owners, /*runs=*/trial % 8 >= 4);
    EmptyAboveRandomCuts(table, pool, rng);
    for (int node = 0; node < pool.num_nodes(); ++node) {
      // The hand at the node's first frame, past its mapped top, or random.
      int64_t hand = RandomHand(pool, node, rng);
      if (trial % 3 == 0) {
        hand = pool.NodeBegin(node);
      } else if (trial % 3 == 1) {
        hand = std::max<int64_t>(
            pool.NodeBegin(node),
            std::min<int64_t>(MappedTop(table, pool, node), pool.NodeEnd(node) - 1));
      }
      for (const int64_t bound : Bounds(table, pool, node, rng)) {
        ASSERT_TRUE(SameFromHand(table, pool, node, hand, owners, rng, /*chained=*/1, bound))
            << "trial " << trial;
      }
    }
  }
}

TEST(DaemonClockTest, BoundedMatchesReferenceFromEveryHand) {
  const struct {
    int64_t frames;
    int nodes;
  } kShapes[] = {{1000, 3}, {10, 8}};
  Rng rng(24);
  for (const auto& shape : kShapes) {
    for (int trial = 0; trial < 4; ++trial) {
      FrameTable table(shape.frames);
      FramePool pool(shape.frames, shape.nodes);
      const int owners = trial < 2 ? 3 : 12;
      FillRandom(table, rng, owners, /*runs=*/trial % 2 == 1);
      EmptyAboveRandomCuts(table, pool, rng);
      for (int node = 0; node < pool.num_nodes(); ++node) {
        const std::vector<int64_t> bounds = Bounds(table, pool, node, rng);
        for (int64_t hand = pool.NodeBegin(node); hand < pool.NodeEnd(node); ++hand) {
          for (const int64_t bound : bounds) {
            ASSERT_TRUE(
                SameFromHand(table, pool, node, hand, owners, rng, /*chained=*/0, bound))
                << shape.frames << " frames over " << shape.nodes << " nodes, trial " << trial;
          }
        }
      }
    }
  }
}

// The kernel_storms shape, where the bound pays: each node mapped only in its
// low 4%, bounded at the mapped top.
TEST(DaemonClockTest, BoundedMatchesReferenceOnStormShapedNodes) {
  constexpr int64_t kFrames = 1'000'000;
  FramePool pool(kFrames, 8);
  FrameTable table(kFrames);
  Rng rng(25);
  FillStormShaped(table, pool, rng);
  for (int node = 0; node < pool.num_nodes(); ++node) {
    const int64_t begin = pool.NodeBegin(node);
    const int64_t top = MappedTop(table, pool, node);
    std::vector<int64_t> hands = {begin, top - 1, top, pool.NodeEnd(node) - 1};
    for (int i = 0; i < 8; ++i) {
      hands.push_back(RandomHand(pool, node, rng));
    }
    for (const int64_t hand : hands) {
      ASSERT_TRUE(SameFromHand(table, pool, node, hand, 12, rng, /*chained=*/3, top));
    }
  }
}

}  // namespace
}  // namespace tmh
