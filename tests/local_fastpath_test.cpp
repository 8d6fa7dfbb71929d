// Differential proof that the local pinning path (local/placement.hpp over
// distance frontiers, and the VNodeManager bookkeeping built on it) makes
// the decisions of the per-step-rescan reference (tests/reference/
// local_cpus.hpp): function by function on random sets, and resize by resize
// under randomized deploy/remove/retune churn on several builder
// topologies. Mirrors the naive-vs-indexed churn treatment of
// sched::PlacementIndex (tests/sched_placement_index_test.cpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "core/rng.hpp"
#include "local/placement.hpp"
#include "local/vnode_manager.hpp"
#include "reference/local_cpus.hpp"
#include "topology/builders.hpp"
#include "topology/distance.hpp"

namespace slackvm::local {
namespace {

using core::OversubLevel;
using core::VmId;
using core::VmSpec;

std::vector<std::pair<std::string, topo::CpuTopology>> builder_topologies() {
  topo::GenericSpec nps;
  nps.sockets = 2;
  nps.cores_per_socket = 16;
  nps.smt = 2;
  nps.cores_per_l3 = 4;
  nps.numa_per_socket = 2;
  nps.name = "generic_nps2";
  std::vector<std::pair<std::string, topo::CpuTopology>> topologies;
  topologies.emplace_back("dual_epyc_7662", topo::make_dual_epyc_7662());
  topologies.emplace_back("dual_xeon_6230", topo::make_dual_xeon_6230());
  topologies.emplace_back("generic_nps2", topo::make_generic(nps));
  topologies.emplace_back("flat_32", topo::make_flat(32, core::gib(128)));
  return topologies;
}

// ---------------------------------------------------------------------------
// Function-level differential: random pools/sets, every selection primitive.

TEST(FastpathFunctions, MatchNaiveOnRandomSets) {
  for (const auto& [name, machine] : builder_topologies()) {
    const auto dm = topo::DistanceMatrixCache::shared(machine);
    const auto n = machine.cpu_count();
    core::SplitMix64 rng(1234);
    PlacementScratch scratch;
    for (int round = 0; round < 300; ++round) {
      topo::CpuSet current(n);
      topo::CpuSet free_cpus(n);
      for (std::size_t cpu = 0; cpu < n; ++cpu) {
        const double u = rng.uniform();
        if (u < 0.25) {
          current.set(static_cast<topo::CpuId>(cpu));
        } else if (u < 0.65) {
          free_cpus.set(static_cast<topo::CpuId>(cpu));
        }
      }
      const std::size_t count = 1 + rng.below(8);

      const auto fast_ext =
          choose_extension_cpus(*dm, free_cpus, current, count, scratch);
      const auto naive_ext = reference::choose_extension_cpus(*dm, free_cpus, current, count);
      ASSERT_EQ(fast_ext.has_value(), naive_ext.has_value()) << name;
      if (fast_ext) {
        ASSERT_EQ(*fast_ext, *naive_ext) << name << " extension round " << round;
      }

      const auto fast_seed =
          choose_seed_cpus(*dm, free_cpus, current, count, scratch);
      const auto naive_seed = reference::choose_seed_cpus(*dm, free_cpus, current, count);
      ASSERT_EQ(fast_seed.has_value(), naive_seed.has_value()) << name;
      if (fast_seed) {
        ASSERT_EQ(*fast_seed, *naive_seed) << name << " seed round " << round;
      }

      if (!current.empty()) {
        const std::size_t release = 1 + rng.below(current.count());
        const auto fast_rel = choose_release_cpus(*dm, current, release, scratch);
        const auto naive_rel = reference::choose_release_cpus(*dm, current, release);
        ASSERT_EQ(fast_rel, naive_rel) << name << " release round " << round;
      }
    }
  }
}

TEST(FastpathFunctions, SeedWithEmptyOccupiedMatchesNaive) {
  for (const auto& [name, machine] : builder_topologies()) {
    const auto dm = topo::DistanceMatrixCache::shared(machine);
    const topo::CpuSet none(machine.cpu_count());
    PlacementScratch scratch;
    const auto fast = choose_seed_cpus(*dm, machine.all_cpus(), none, 4, scratch);
    const auto ref = reference::choose_seed_cpus(*dm, machine.all_cpus(), none, 4);
    ASSERT_TRUE(fast.has_value() && ref.has_value()) << name;
    EXPECT_EQ(*fast, *ref) << name;
  }
}

// ---------------------------------------------------------------------------
// Manager-level step oracle: each deploy, remove or retune changes at most
// one vNode's CPU set, and that change must be exactly what the reference
// selection makes from the state just before it — a new node its seed, a
// grown node its extension, a shrunk node its release. Checked at every
// event from the same start, this pins every pin decision of the manager to
// the reference's. The target choice (which vNode, pooled or not) is
// independent of CPU selection and is not re-derived here.

struct Snapshot {
  topo::CpuSet free_cpus;
  topo::CpuSet occupied;
  std::map<VNodeId, topo::CpuSet> nodes;
};

Snapshot snapshot(const VNodeManager& manager) {
  Snapshot s{manager.free_cpus(), manager.occupied_cpus(), {}};
  for (const auto& [id, node] : manager.vnodes()) {
    s.nodes.emplace(id, node.cpus());
  }
  return s;
}

void expect_step_matches_reference(const topo::DistanceMatrix& dm, const Snapshot& before,
                                   const VNodeManager& after, const std::string& context) {
  std::size_t changed = 0;
  for (const auto& [id, cpus] : before.nodes) {
    if (!after.vnodes().contains(id)) {
      ++changed;  // emptied and destroyed: all its CPUs go back
      ASSERT_EQ(after.free_cpus(), before.free_cpus | cpus) << context;
    }
  }
  for (const auto& [id, node] : after.vnodes()) {
    const topo::CpuSet& now = node.cpus();
    const auto was = before.nodes.find(id);
    if (was == before.nodes.end()) {
      ++changed;
      const auto seed =
          reference::choose_seed_cpus(dm, before.free_cpus, before.occupied, now.count());
      ASSERT_TRUE(seed.has_value()) << context;
      ASSERT_EQ(now, *seed) << context << " seed of vnode " << id;
    } else if (now != was->second) {
      ++changed;
      if (now.count() > was->second.count()) {
        const auto extension = reference::choose_extension_cpus(
            dm, before.free_cpus, was->second, now.count() - was->second.count());
        ASSERT_TRUE(extension.has_value()) << context;
        ASSERT_EQ(now, was->second | *extension) << context << " grow of vnode " << id;
      } else {
        const topo::CpuSet released = reference::choose_release_cpus(
            dm, was->second, was->second.count() - now.count());
        ASSERT_EQ(now, was->second - released) << context << " shrink of vnode " << id;
      }
    }
  }
  ASSERT_LE(changed, 1U) << context;
  if (changed == 0) {
    ASSERT_EQ(after.free_cpus(), before.free_cpus) << context;
  }
}

/// A resized node re-pins every VM it hosts, in VmId order, to its full set.
void expect_repins_of(const VNodeManager& manager, VNodeId id,
                      const std::vector<PinUpdate>& repins, const std::string& context) {
  const VNode& node = manager.vnodes().at(id);
  ASSERT_EQ(repins.size(), node.vm_ids().size()) << context;
  for (std::size_t i = 0; i < repins.size(); ++i) {
    ASSERT_EQ(repins[i].vm, node.vm_ids()[i]) << context;
    ASSERT_EQ(repins[i].cpus, node.cpus()) << context;
  }
}

class FastpathChurn
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, bool>> {};

// "Engines": the manager's CPU selection and the reference's.
TEST_P(FastpathChurn, BitIdenticalAcrossEngines) {
  const auto [seed, pooling] = GetParam();
  for (const auto& [name, machine] : builder_topologies()) {
    const PoolingPolicy policy =
        pooling ? PoolingPolicy::kUpgrade : PoolingPolicy::kNone;
    const auto dm = topo::DistanceMatrixCache::shared(machine);
    VNodeManager manager(machine, policy);
    core::SplitMix64 rng(seed);
    std::vector<VmId> alive;
    std::uint64_t next_id = 1;
    for (int event = 0; event < 3500; ++event) {
      const std::string context =
          name + " seed=" + std::to_string(seed) + " event=" + std::to_string(event);
      const Snapshot before = snapshot(manager);
      const double u = alive.empty() ? 0.0 : rng.uniform();
      if (u < 0.55) {
        VmSpec s;
        s.vcpus = static_cast<core::VcpuCount>(1 + rng.below(8));
        s.mem_mib = core::gib(static_cast<std::int64_t>(1 + rng.below(8)));
        s.level = OversubLevel{static_cast<std::uint8_t>(1 + rng.below(3))};
        const VmId id{next_id++};
        const bool predicted = manager.can_host(s);
        const auto result = manager.deploy(id, s);
        ASSERT_EQ(result.has_value(), predicted) << context;
        if (result) {
          ASSERT_NO_FATAL_FAILURE(
              expect_repins_of(manager, result->vnode, result->repins, context));
          alive.push_back(id);
        }
      } else if (u < 0.9) {
        const std::size_t pick = rng.below(alive.size());
        const VmId vm = alive[pick];
        const auto host = std::ranges::find_if(manager.vnodes(), [vm](const auto& entry) {
          return std::ranges::binary_search(entry.second.vm_ids(), vm);
        });
        ASSERT_NE(host, manager.vnodes().end()) << context;
        const VNodeId node = host->first;
        const auto repins = manager.remove(vm);
        if (manager.vnodes().contains(node)) {
          ASSERT_NO_FATAL_FAILURE(expect_repins_of(manager, node, repins, context));
        } else {
          ASSERT_TRUE(repins.empty()) << context;
        }
        alive.erase(alive.begin() + static_cast<std::ptrdiff_t>(pick));
      } else if (!manager.vnodes().empty()) {
        // Retune a random vNode to a random effective level within contract.
        const std::size_t pick = rng.below(manager.vnodes().size());
        auto it = manager.vnodes().begin();
        std::advance(it, static_cast<std::ptrdiff_t>(pick));
        const VNodeId node = it->first;
        const auto contract = it->second.level();
        const OversubLevel effective{
            static_cast<std::uint8_t>(1 + rng.below(contract.ratio()))};
        const auto repins = manager.retune(node, effective);
        if (repins) {
          ASSERT_NO_FATAL_FAILURE(expect_repins_of(manager, node, *repins, context));
        } else {
          ASSERT_EQ(manager.vnodes().at(node).cpus(), before.nodes.at(node)) << context;
        }
      }
      ASSERT_NO_FATAL_FAILURE(expect_step_matches_reference(*dm, before, manager, context));
      if (event % 100 == 0) {
        manager.check_invariants();
      }
    }
    manager.check_invariants();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FastpathChurn,
                         ::testing::Combine(::testing::Values(1, 7, 42),
                                            ::testing::Bool()));

}  // namespace
}  // namespace slackvm::local
