// HostBitset unit tests: membership, first() and both visit orders at the
// level-0 word boundaries (ids 63/64/65) and the level-1 summary-word
// boundaries (ids 4095/4096/4097), words that empty and refill, growth,
// early-stopping visits, and a randomized differential against std::set.
#include "sched/host_bitset.hpp"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "core/rng.hpp"

namespace slackvm::sched {
namespace {

std::vector<HostId> ascending(const HostBitset& bits) {
  std::vector<HostId> out;
  bits.for_each([&out](HostId id) { out.push_back(id); });
  return out;
}

std::vector<HostId> descending(const HostBitset& bits) {
  std::vector<HostId> out;
  bits.for_each_descending([&out](HostId id) { out.push_back(id); });
  return out;
}

TEST(HostBitset, EmptySetHasNoFirstAndVisitsNothing) {
  HostBitset bits;
  EXPECT_TRUE(bits.empty());
  EXPECT_EQ(bits.first(), std::nullopt);
  EXPECT_TRUE(ascending(bits).empty());
  EXPECT_TRUE(descending(bits).empty());
  bits.reset(12345);  // past the storage: a no-op, not a growth
  EXPECT_TRUE(bits.empty());
}

TEST(HostBitset, WordAndSummaryBoundaries) {
  const std::vector<HostId> edges = {63, 64, 65, 4095, 4096, 4097};
  HostBitset bits;
  for (auto it = edges.rbegin(); it != edges.rend(); ++it) {
    bits.set(*it);
    EXPECT_EQ(bits.first(), *it) << "after setting " << *it;
  }
  EXPECT_EQ(ascending(bits), edges);
  EXPECT_EQ(descending(bits), std::vector<HostId>(edges.rbegin(), edges.rend()));
  // Removing the lowest member moves first() across a word, then across a
  // summary word.
  for (std::size_t i = 0; i + 1 < edges.size(); ++i) {
    bits.reset(edges[i]);
    EXPECT_EQ(bits.first(), edges[i + 1]) << "after resetting " << edges[i];
  }
  bits.reset(edges.back());
  EXPECT_TRUE(bits.empty());
  EXPECT_EQ(bits.first(), std::nullopt);
}

TEST(HostBitset, EmptiedWordsRefill) {
  HostBitset bits;
  for (HostId id = 64; id < 128; ++id) {
    bits.set(id);
  }
  bits.set(4100);
  for (HostId id = 64; id < 128; ++id) {
    bits.reset(id);
  }
  // The emptied word's summary bit is cleared: first() skips straight to
  // the next summary word.
  EXPECT_EQ(bits.first(), 4100u);
  EXPECT_EQ(ascending(bits), std::vector<HostId>{4100});
  bits.set(127);
  bits.set(64);
  EXPECT_EQ(bits.first(), 64u);
  EXPECT_EQ(ascending(bits), (std::vector<HostId>{64, 127, 4100}));
  EXPECT_EQ(descending(bits), (std::vector<HostId>{4100, 127, 64}));
}

TEST(HostBitset, GrowsPastEveryBoundaryKeepingMembers) {
  HostBitset bits;
  std::vector<HostId> members = {1};
  bits.set(1);
  for (HostId id = 70; id < 300000; id = id * 3 + 1) {
    bits.set(id);
    members.push_back(id);
    EXPECT_EQ(bits.first(), 1u);
    EXPECT_EQ(descending(bits).front(), id);
  }
  EXPECT_EQ(ascending(bits), members);
}

TEST(HostBitset, VisitsStopWhenTheVisitorSaysSo) {
  HostBitset bits;
  for (const HostId id : {3u, 64u, 4096u, 9000u}) {
    bits.set(id);
  }
  std::vector<HostId> seen;
  EXPECT_FALSE(bits.for_each([&seen](HostId id) {
    seen.push_back(id);
    return id < 64;
  }));
  EXPECT_EQ(seen, (std::vector<HostId>{3, 64}));
  seen.clear();
  EXPECT_FALSE(bits.for_each_descending([&seen](HostId id) {
    seen.push_back(id);
    return id > 4096;
  }));
  EXPECT_EQ(seen, (std::vector<HostId>{9000, 4096}));
  EXPECT_TRUE(bits.for_each([](HostId) { return true; }));
}

TEST(HostBitset, RandomizedOpsMatchStdSet) {
  core::SplitMix64 rng(77);
  HostBitset bits;
  std::set<HostId> reference;
  for (int op = 0; op < 200000; ++op) {
    // Dense low ids plus a sparse tail past two summary words.
    const auto id = static_cast<HostId>(rng.below(4) == 0 ? rng.below(9000)
                                                           : rng.below(300));
    if (rng.below(2) == 0) {
      bits.set(id);
      reference.insert(id);
    } else {
      bits.reset(id);
      reference.erase(id);
    }
    ASSERT_EQ(bits.first(), reference.empty() ? std::nullopt
                                              : std::optional<HostId>(*reference.begin()))
        << "op " << op;
    if (op % 5000 == 0) {
      ASSERT_EQ(ascending(bits), std::vector<HostId>(reference.begin(), reference.end()));
      ASSERT_EQ(descending(bits),
                std::vector<HostId>(reference.rbegin(), reference.rend()));
      ASSERT_EQ(bits.empty(), reference.empty());
    }
  }
}

TEST(HostBitset, ClearEmptiesTheSetAndItRefills) {
  HostBitset bits;
  for (const HostId id : {HostId{3}, HostId{64}, HostId{4097}}) {
    bits.set(id);
  }
  bits.clear();
  EXPECT_TRUE(bits.empty());
  EXPECT_EQ(bits.first(), std::nullopt);
  EXPECT_TRUE(ascending(bits).empty());
  bits.set(4097);
  bits.set(5);
  EXPECT_EQ(bits.first(), 5u);
  EXPECT_EQ(ascending(bits), (std::vector<HostId>{5, 4097}));
}

}  // namespace
}  // namespace slackvm::sched
