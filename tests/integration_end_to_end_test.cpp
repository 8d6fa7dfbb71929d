// End-to-end integration: workload generation -> trace -> datacenter replay
// -> metrics, plus a full-fidelity replay where every shared host runs a
// real VNodeManager next to the fast accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>

#include "expect_identical.hpp"
#include "local/vnode_manager.hpp"
#include "sim/audit.hpp"
#include "sim/experiment.hpp"
#include "sim/replay.hpp"
#include "topology/builders.hpp"
#include "workload/generator.hpp"
#include "workload/trace_reader.hpp"

namespace slackvm {
namespace {

workload::GeneratorConfig gen_config(std::uint64_t seed) {
  workload::GeneratorConfig cfg;
  cfg.target_population = 120;
  cfg.horizon = 3.0 * 24 * 3600;
  cfg.mean_lifetime = 1.0 * 24 * 3600;
  cfg.seed = seed;
  return cfg;
}

TEST(EndToEnd, GeneratedTraceSurvivesCsvAndReplaysIdentically) {
  // Debug audit on: both replays re-validate every datacenter invariant
  // after every event (sim/audit.hpp) and throw on the first violation.
  sim::ScopedDebugAudit audit_every_event;
  const workload::Trace original =
      workload::Generator(workload::ovhcloud_catalog(), workload::distribution('F'),
                          gen_config(21))
          .generate();
  std::stringstream buffer;
  workload::write_csv_fast(original, buffer);
  const workload::Trace restored =
      workload::TraceReader::from_string(buffer.str()).read_all();
  ASSERT_EQ(original.size(), restored.size());

  sim::Datacenter dc_a =
      sim::Datacenter::shared({32, core::gib(128)}, sched::make_progress_policy);
  sim::Datacenter dc_b =
      sim::Datacenter::shared({32, core::gib(128)}, sched::make_progress_policy);
  const sim::RunResult a = sim::replay(dc_a, original);
  const sim::RunResult b = sim::replay(dc_b, restored);
  sim::expect_identical(a, b);
}

TEST(EndToEnd, SharedClusterPlacementsAreLocallyRealizable) {
  // Replay the shared-mode placement decisions against real per-host
  // VNodeManagers: every placement the global scheduler makes must be
  // executable by the local scheduler on that host.
  const workload::Trace trace =
      workload::Generator(workload::azure_catalog(), workload::distribution('E'),
                          gen_config(33))
          .generate();

  const core::Resources host_config{32, core::gib(128)};
  sched::VCluster cluster("shared", host_config, sched::make_progress_policy());
  const topo::CpuTopology worker = topo::make_sim_worker();
  std::map<sched::HostId, local::VNodeManager> locals;
  std::map<core::VmId, sched::HostId> placements;

  struct Ev {
    core::SimTime t;
    bool arrival;
    const core::VmInstance* vm;
  };
  std::vector<Ev> events;
  for (const core::VmInstance& vm : trace.vms()) {
    events.push_back({vm.arrival, true, &vm});
    events.push_back({vm.departure, false, &vm});
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const Ev& a, const Ev& b) { return a.t < b.t; });

  for (const Ev& ev : events) {
    if (ev.arrival) {
      const sched::HostId host = cluster.place(ev.vm->id, ev.vm->spec);
      auto [it, inserted] = locals.try_emplace(host, worker);
      ASSERT_TRUE(it->second.deploy(ev.vm->id, ev.vm->spec).has_value())
          << "global placement not realizable on host " << host;
      placements[ev.vm->id] = host;
    } else {
      cluster.remove(ev.vm->id);
      locals.at(placements.at(ev.vm->id)).remove(ev.vm->id);
    }
  }
  EXPECT_EQ(cluster.vm_count(), 0U);
  for (auto& [host, manager] : locals) {
    manager.check_invariants();
    EXPECT_EQ(manager.vm_count(), 0U);
  }
}

TEST(EndToEnd, ProgressPolicyNeverUsesMorePmsThanDedicatedOnF) {
  // The headline claim at small scale, across several seeds.
  for (std::uint64_t seed : {1ULL, 5ULL, 9ULL}) {
    sim::ExperimentConfig cfg;
    cfg.generator = gen_config(seed);
    const sim::PackingComparison cmp = sim::compare_packing(
        workload::ovhcloud_catalog(), workload::distribution('F'), cfg);
    EXPECT_LE(cmp.slackvm.opened_pms, cmp.baseline.opened_pms) << "seed " << seed;
  }
}

TEST(EndToEnd, SharedModeDominatesAcrossMixedDistributions) {
  // Pooling levels can only remove the per-cluster threshold waste; verify
  // SlackVM never *loses* PMs on mixed distributions at small scale.
  sim::ExperimentConfig cfg;
  cfg.generator = gen_config(77);
  cfg.generator.target_population = 80;
  for (char letter : {'C', 'E', 'H', 'I', 'M'}) {
    const sim::PackingComparison cmp = sim::compare_packing(
        workload::azure_catalog(), workload::distribution(letter), cfg);
    EXPECT_LE(cmp.slackvm.opened_pms, cmp.baseline.opened_pms + 1) << letter;
  }
}

}  // namespace
}  // namespace slackvm
