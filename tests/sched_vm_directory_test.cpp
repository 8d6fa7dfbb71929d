#include "sched/vm_directory.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/error.hpp"
#include "core/rng.hpp"

namespace slackvm::sched {
namespace {

using core::VmId;

/// Every key the reference holds maps to the same host in the table, and
/// the sizes agree (so the table holds nothing else).
void expect_same(const VmDirectory& table,
                 const std::unordered_map<std::uint64_t, HostId>& reference) {
  ASSERT_EQ(table.size(), reference.size());
  for (const auto& [key, host] : reference) {
    const HostId* found = table.find(VmId{key});
    ASSERT_NE(found, nullptr) << key;
    EXPECT_EQ(*found, host) << key;
  }
}

/// The first `count` keys (scanning upward from `start`) whose home slot is
/// `slot` at the table's current capacity.
std::vector<std::uint64_t> keys_homed_at(const VmDirectory& table, std::size_t slot,
                                         std::size_t count, std::uint64_t start = 1) {
  std::vector<std::uint64_t> keys;
  for (std::uint64_t key = start; keys.size() < count; ++key) {
    if (table.home_slot(VmId{key}) == slot) {
      keys.push_back(key);
    }
  }
  return keys;
}

TEST(VmDirectoryTest, EmptyTableFindsNothing) {
  VmDirectory table;
  EXPECT_EQ(table.capacity(), 0U);
  EXPECT_FALSE(table.contains(VmId{1}));
  EXPECT_EQ(table.erase(VmId{1}), std::nullopt);
}

TEST(VmDirectoryTest, InsertFindEraseAndUpdateInPlace) {
  VmDirectory table;
  table.insert(VmId{7}, 3);
  table.insert(VmId{0}, 4);  // zero is an ordinary key
  ASSERT_NE(table.find(VmId{7}), nullptr);
  EXPECT_EQ(*table.find(VmId{7}), 3U);
  *table.find(VmId{7}) = 9;  // migrations rewrite the host in place
  EXPECT_EQ(*table.find(VmId{7}), 9U);
  EXPECT_EQ(table.erase(VmId{7}), std::optional<HostId>{9});
  EXPECT_EQ(table.erase(VmId{7}), std::nullopt);
  EXPECT_EQ(*table.find(VmId{0}), 4U);
  EXPECT_EQ(table.size(), 1U);
}

TEST(VmDirectoryTest, RejectsDuplicateAndReservedKeys) {
  VmDirectory table;
  table.insert(VmId{5}, 1);
  EXPECT_THROW(table.insert(VmId{5}, 2), core::SlackError);
  EXPECT_THROW(table.insert(VmId{~std::uint64_t{0}}, 2), core::SlackError);
  EXPECT_EQ(*table.find(VmId{5}), 1U);
}

TEST(VmDirectoryTest, OneProbeRunSurvivesEraseFromItsMiddle) {
  VmDirectory table;
  table.insert(VmId{1}, 0);  // allocate the minimum table
  ASSERT_TRUE(table.erase(VmId{1}).has_value());
  const std::size_t capacity = table.capacity();
  // Six keys forced into one run starting at slot 2 (below the 3/4 load).
  const std::vector<std::uint64_t> keys = keys_homed_at(table, 2, 6);
  std::unordered_map<std::uint64_t, HostId> reference;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    table.insert(VmId{keys[i]}, static_cast<HostId>(i));
    reference.emplace(keys[i], static_cast<HostId>(i));
  }
  ASSERT_EQ(table.capacity(), capacity);
  expect_same(table, reference);
  // Erase from the middle, then the head, then the tail of the run: the
  // backward shift must keep every survivor reachable from slot 2.
  for (const std::size_t victim : {3U, 0U, 5U}) {
    EXPECT_EQ(table.erase(VmId{keys[victim]}),
              std::optional<HostId>{static_cast<HostId>(victim)});
    reference.erase(keys[victim]);
    expect_same(table, reference);
    EXPECT_FALSE(table.contains(VmId{keys[victim]}));
  }
}

TEST(VmDirectoryTest, RunsWrapAroundTheEndOfTheTable) {
  VmDirectory table;
  table.insert(VmId{1}, 0);
  ASSERT_TRUE(table.erase(VmId{1}).has_value());
  const std::size_t last = table.capacity() - 1;
  // Four keys homed at the last slot spill over into slots 0..2, and a key
  // homed at slot 0 must probe past the wrapped entries.
  std::vector<std::uint64_t> keys = keys_homed_at(table, last, 4);
  const std::vector<std::uint64_t> at_zero = keys_homed_at(table, 0, 2);
  keys.insert(keys.end(), at_zero.begin(), at_zero.end());
  std::unordered_map<std::uint64_t, HostId> reference;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    table.insert(VmId{keys[i]}, static_cast<HostId>(100 + i));
    reference.emplace(keys[i], static_cast<HostId>(100 + i));
  }
  expect_same(table, reference);
  // Erasing the wrapped keys one by one shifts the slot-0 keys back home.
  for (std::size_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(table.erase(VmId{keys[i]}).has_value());
    reference.erase(keys[i]);
    expect_same(table, reference);
  }
}

TEST(VmDirectoryTest, GrowsWithLiveEntriesOnly) {
  VmDirectory table;
  std::unordered_map<std::uint64_t, HostId> reference;
  std::size_t growths = 0;
  std::size_t capacity = table.capacity();
  for (std::uint64_t key = 1; key <= 5000; ++key) {
    table.insert(VmId{key}, static_cast<HostId>(key % 97));
    reference.emplace(key, static_cast<HostId>(key % 97));
    if (table.capacity() != capacity) {
      ++growths;
      capacity = table.capacity();
      // Power of two, load factor at most 3/4, every entry rehashed.
      EXPECT_EQ(capacity & (capacity - 1), 0U);
      expect_same(table, reference);
    }
    EXPECT_LE(4 * table.size(), 3 * table.capacity());
  }
  EXPECT_GE(growths, 9U);  // 16 -> 8192 slots
  // Churn at a steady population never grows the table again.
  for (std::uint64_t key = 5001; key <= 50000; ++key) {
    ASSERT_TRUE(table.erase(VmId{key - 5000}).has_value());
    table.insert(VmId{key}, 1);
  }
  EXPECT_EQ(table.capacity(), capacity);
  EXPECT_EQ(table.size(), 5000U);
}

TEST(VmDirectoryTest, MatchesUnorderedMapUnderRandomChurn) {
  // Seeded random insert/erase/find mix, checked against
  // std::unordered_map after every operation and in full after each phase.
  // Each phase draws keys from a different universe: small ones make erases
  // hit often and probe runs collide densely, large ones grow the table
  // through several doublings.
  core::SplitMix64 rng(20240615);
  VmDirectory table;
  std::unordered_map<std::uint64_t, HostId> reference;
  std::size_t ops = 0;
  for (const std::uint64_t universe : {64U, 4096U, 300U, 20000U, 50U}) {
    for (int i = 0; i < 25000; ++i, ++ops) {
      const std::uint64_t key = rng.below(universe);
      const auto it = reference.find(key);
      switch (rng.below(3)) {
        case 0:  // insert (or check the duplicate is still there)
          if (it == reference.end()) {
            const auto host = static_cast<HostId>(rng.below(1000));
            table.insert(VmId{key}, host);
            reference.emplace(key, host);
          } else {
            ASSERT_NE(table.find(VmId{key}), nullptr);
          }
          break;
        case 1: {  // erase
          const std::optional<HostId> erased = table.erase(VmId{key});
          if (it == reference.end()) {
            ASSERT_EQ(erased, std::nullopt) << key;
          } else {
            ASSERT_EQ(erased, std::optional<HostId>{it->second}) << key;
            reference.erase(it);
          }
          break;
        }
        default: {  // find
          const HostId* found = table.find(VmId{key});
          if (it == reference.end()) {
            ASSERT_EQ(found, nullptr) << key;
          } else {
            ASSERT_NE(found, nullptr) << key;
            ASSERT_EQ(*found, it->second) << key;
          }
        }
      }
      ASSERT_EQ(table.size(), reference.size());
    }
    expect_same(table, reference);
  }
  EXPECT_GE(ops, 100000U);
}

TEST(VmDirectoryTest, TryInsertRefusesADuplicateAndChangesNothing) {
  VmDirectory table;
  HostId* entry = table.try_insert(VmId{7}, 3);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(*entry, 3U);
  *entry = 4;  // the returned entry is the stored one
  EXPECT_EQ(*table.find(VmId{7}), 4U);
  // Fill to just under the growth threshold: a duplicate must be refused
  // before the table would grow for it.
  for (std::uint64_t key = 100; 4 * (table.size() + 1) <= 3 * table.capacity(); ++key) {
    ASSERT_NE(table.try_insert(VmId{key}, 1), nullptr);
  }
  const std::size_t capacity = table.capacity();
  const std::size_t size = table.size();
  EXPECT_EQ(table.try_insert(VmId{7}, 9), nullptr);
  EXPECT_EQ(table.capacity(), capacity);
  EXPECT_EQ(table.size(), size);
  EXPECT_EQ(*table.find(VmId{7}), 4U);
  // A new key past the threshold grows the table and is still found.
  ASSERT_NE(table.try_insert(VmId{8}, 2), nullptr);
  EXPECT_GT(table.capacity(), capacity);
  EXPECT_EQ(*table.find(VmId{8}), 2U);
  EXPECT_EQ(*table.find(VmId{7}), 4U);
}

TEST(VmDirectoryTest, ResetEmptiesTheTableAndKeepsItsCapacity) {
  VmDirectory table;
  for (std::uint64_t key = 1; key <= 1000; ++key) {
    table.insert(VmId{key}, static_cast<HostId>(key % 7));
  }
  const std::size_t capacity = table.capacity();
  table.reset();
  EXPECT_EQ(table.size(), 0U);
  EXPECT_EQ(table.capacity(), capacity);
  for (std::uint64_t key = 1; key <= 1000; ++key) {
    ASSERT_EQ(table.find(VmId{key}), nullptr) << key;
  }
  std::unordered_map<std::uint64_t, HostId> reference;
  for (std::uint64_t key = 500; key <= 1400; ++key) {
    table.insert(VmId{key}, 2);
    reference.emplace(key, 2);
  }
  expect_same(table, reference);
  EXPECT_EQ(table.capacity(), capacity);
}

}  // namespace
}  // namespace slackvm::sched
