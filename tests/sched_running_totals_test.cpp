// Property tests for VCluster's running totals: randomized
// add/remove/fail/drain/repair/migrate churn, plus migration reservations
// (book, release, commit) and heat-bucket crossings, driven through
// VCluster must keep total_alloc, total_config and nonempty_hosts exactly
// equal to a fresh recomputation over the host vector, and sim::audit clean,
// after every event.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/rng.hpp"
#include "sched/policy.hpp"
#include "sched/vcluster.hpp"
#include "sim/audit.hpp"
#include "workload/catalog.hpp"
#include "workload/level_mix.hpp"

namespace slackvm::sched {
namespace {

using core::gib;
using core::VmId;
using core::VmSpec;

const core::Resources kWorker{32, gib(128)};

/// Catalog-shaped random spec (same scheme as the placement-index tests).
VmSpec random_spec(core::SplitMix64& rng) {
  const workload::LevelMix mix = workload::make_mix(34, 33, 33);
  VmSpec spec;
  spec.level = mix.sample(rng);
  const workload::Catalog& catalog =
      spec.level.oversubscribed()
          ? workload::azure_catalog().truncated(workload::kOversubMemCap)
          : workload::azure_catalog();
  const workload::Flavor& flavor = catalog.sample(rng);
  spec.vcpus = flavor.vcpus;
  spec.mem_mib = flavor.mem_mib;
  return spec;
}

/// The O(1) totals against an explicit recomputation over the host vector,
/// and the whole-cluster audit (which checks the same totals).
void expect_exact_totals(const VCluster& cluster, std::size_t event) {
  core::Resources alloc;
  core::Resources config;
  std::size_t nonempty = 0;
  for (const HostState& host : cluster.hosts()) {
    alloc += host.alloc();
    config += host.config();
    if (!host.empty()) {
      ++nonempty;
    }
  }
  EXPECT_EQ(cluster.total_alloc(), alloc) << "event " << event;
  EXPECT_EQ(cluster.total_config(), config) << "event " << event;
  EXPECT_EQ(cluster.nonempty_hosts(), nonempty) << "event " << event;
  const auto violations = sim::audit(cluster);
  ASSERT_TRUE(violations.empty()) << "event " << event << ": " << violations.front();
}

/// One in-flight migration: `vm` holds a reservation on `to`.
struct Flight {
  VmId vm;
  HostId to = 0;
};

void run_property(std::uint64_t seed, std::size_t events, bool use_index) {
  VCluster cluster("totals-prop", kWorker, make_progress_policy());
  cluster.set_index_enabled(use_index);
  core::SplitMix64 rng(seed);
  std::vector<VmId> live;
  std::vector<HostId> down;
  std::vector<Flight> flights;
  std::uint64_t next_id = 1;
  // Flights abort before their VM moves or a host leaves UP, as the
  // migration engine's do.
  const auto abort_flights = [&] {
    for (const Flight& f : flights) {
      cluster.release_reservation(f.to, f.vm);
    }
    flights.clear();
  };
  const auto in_flight = [&flights](VmId vm) {
    return std::ranges::any_of(flights, [vm](const Flight& f) { return f.vm == vm; });
  };

  for (std::size_t e = 0; e < events; ++e) {
    const std::uint64_t roll = rng.below(100);
    if (roll < 35 || live.empty()) {
      // Arrival (may open a host, may be rejected and roll the opening back).
      const VmId vm{next_id++};
      if (cluster.try_place(vm, random_spec(rng)).has_value()) {
        live.push_back(vm);
      }
    } else if (roll < 50) {
      // Departure.
      abort_flights();
      const std::size_t pick = rng.below(live.size());
      cluster.remove(live[pick]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    } else if (roll < 57) {
      // Targeted migration (accepted, or rejected after a remove and re-add).
      abort_flights();
      const VmId vm = live[rng.below(live.size())];
      const auto to = static_cast<HostId>(rng.below(cluster.opened_hosts()));
      (void)cluster.migrate(vm, to);
    } else if (roll < 62) {
      // Failure: evict and re-place each victim through the policy path.
      abort_flights();
      const auto host = static_cast<HostId>(rng.below(cluster.opened_hosts()));
      for (const auto& [vm, spec] : cluster.fail_host(host)) {
        if (!cluster.try_place(vm, spec).has_value()) {
          std::erase(live, vm);
        }
      }
      down.push_back(host);
    } else if (roll < 66) {
      // Graceful drain + migrate_off.
      abort_flights();
      const auto host = static_cast<HostId>(rng.below(cluster.opened_hosts()));
      if (cluster.host_phase(host) == HostPhase::kUp) {
        cluster.drain_host(host);
        (void)cluster.migrate_off(host);
        down.push_back(host);
      }
    } else if (roll < 72) {
      // Repair.
      if (!down.empty()) {
        cluster.repair_host(down.back());
        down.pop_back();
      }
    } else if (roll < 80) {
      // Book a reservation for a live VM on another host.
      const VmId vm = live[rng.below(live.size())];
      const HostId from = cluster.host_of(vm);
      const auto to = static_cast<HostId>(rng.below(cluster.opened_hosts()));
      if (to != from && !in_flight(vm) &&
          cluster.try_reserve(to, vm, cluster.hosts()[from].spec_of(vm))) {
        flights.push_back(Flight{vm, to});
      }
    } else if (roll < 88) {
      // Commit or roll back an in-flight migration.
      if (!flights.empty()) {
        const std::size_t pick = rng.below(flights.size());
        const Flight f = flights[pick];
        flights.erase(flights.begin() + static_cast<std::ptrdiff_t>(pick));
        if (roll < 85) {
          cluster.commit_migration(f.vm, f.to);
        } else {
          cluster.release_reservation(f.to, f.vm);
        }
      }
    } else {
      // Heat update: most land in another 0.25-wide bucket.
      const auto host = static_cast<HostId>(rng.below(cluster.opened_hosts()));
      cluster.set_host_heat(host, rng.uniform(0.0, 3.0), 0.25);
    }
    expect_exact_totals(cluster, e);
  }
  EXPECT_GT(cluster.opened_hosts(), 0U);
}

TEST(RunningTotalsProperty, NaiveClusterChurnKeepsTotalsExact) {
  run_property(/*seed=*/1, /*events=*/4000, /*use_index=*/false);
}

TEST(RunningTotalsProperty, IndexedClusterChurnKeepsTotalsExact) {
  run_property(/*seed=*/2, /*events=*/4000, /*use_index=*/true);
}

TEST(RunningTotalsProperty, ManySeedsShortSequences) {
  for (std::uint64_t seed = 10; seed < 18; ++seed) {
    run_property(seed, 600, seed % 2 == 0);
  }
}

}  // namespace
}  // namespace slackvm::sched
