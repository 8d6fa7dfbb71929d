#include "sim/audit.hpp"

#include <array>
#include <atomic>
#include <sstream>

#include "core/error.hpp"
#include "core/units.hpp"

namespace slackvm::sim {

namespace {

std::atomic<bool> g_debug_audit{false};

void audit_host(const sched::HostState& host, const std::string& where,
                std::vector<std::string>& out) {
  const auto fail = [&](const std::string& message) {
    std::ostringstream os;
    os << where << " host " << host.id() << " (" << to_string(host.phase())
       << "): " << message;
    out.push_back(os.str());
  };

  if (host.phase() == sched::HostPhase::kFailed && !host.empty()) {
    fail("FAILED host still runs " + std::to_string(host.vm_count()) + " VMs");
  }

  // Migration flights abort before their destination leaves UP, so a booking
  // on a draining or failed host means the engine missed a notification.
  if (host.phase() != sched::HostPhase::kUp && host.reservation_count() > 0) {
    fail("non-UP host holds " + std::to_string(host.reservation_count()) +
         " migration reservations");
  }

  // Recompute the per-level commitments and the resource totals from the
  // per-VM lists — the structures the fast accounting is derived from. A
  // migration reservation double-books exactly like a hosted VM, so both
  // lists feed the recomputation.
  std::array<core::VcpuCount, core::OversubLevel::kMaxRatio + 1> vcpus{};
  core::MemMib mem = 0;
  const core::VmId* previous = nullptr;
  for (const auto& [vm, spec] : host.vms()) {
    // Every deterministic VM order (evacuation, victim ranking, demand
    // sums) is this vector's order, so it must ascend strictly.
    if (previous != nullptr && !(*previous < vm)) {
      fail("VM list not strictly ascending: " + std::to_string(previous->value) +
           " before " + std::to_string(vm.value));
    }
    previous = &vm;
    vcpus[spec.level.ratio()] += spec.vcpus;
    mem += spec.mem_mib;
  }
  for (const auto& [vm, spec] : host.reservations()) {
    if (host.hosts_vm(vm)) {
      fail("VM " + std::to_string(vm.value) + " both hosted and reserved");
    }
    vcpus[spec.level.ratio()] += spec.vcpus;
    mem += spec.mem_mib;
  }
  core::CoreCount cores = 0;
  for (std::uint8_t ratio = 1; ratio <= core::OversubLevel::kMaxRatio; ++ratio) {
    const core::OversubLevel level{ratio};
    if (host.committed_vcpus(level) != vcpus[ratio]) {
      fail("level " + core::to_string(level) + " commitment " +
           std::to_string(host.committed_vcpus(level)) + " != recomputed " +
           std::to_string(vcpus[ratio]));
    }
    if (vcpus[ratio] == 0) {
      continue;
    }
    // Per-level oversubscription bound: an n:1 level may expose at most n
    // vCPUs per physical core of the PM.
    if (vcpus[ratio] > static_cast<core::VcpuCount>(ratio) * host.config().cores) {
      fail("level " + core::to_string(level) + " oversubscription bound broken: " +
           std::to_string(vcpus[ratio]) + " vCPUs on " +
           std::to_string(host.config().cores) + " cores");
    }
    cores += core::ceil_div<core::CoreCount>(vcpus[ratio], ratio);
  }
  if (cores != host.alloc().cores) {
    fail("core accounting drift: cached " + std::to_string(host.alloc().cores) +
         " != recomputed " + std::to_string(cores));
  }
  if (cores > host.config().cores) {
    fail("core capacity exceeded: " + std::to_string(cores) + " > " +
         std::to_string(host.config().cores));
  }
  if (mem != host.alloc().mem_mib) {
    fail("memory accounting drift: cached " + std::to_string(host.alloc().mem_mib) +
         " != recomputed " + std::to_string(mem));
  }
  if (mem > host.load().mem_capacity) {
    fail("memory capacity exceeded: " + std::to_string(mem) + " > " +
         std::to_string(host.load().mem_capacity));
  }

  // Interference heat: the EWMA never goes negative (set_heat clamps), and
  // the quantized bucket the scorers read must be the bucket of the raw
  // value — a drifted bucket means an epoch bump was skipped and the
  // placement index may hold stale-but-"valid" entries.
  if (host.heat() < 0.0) {
    fail("negative heat " + std::to_string(host.heat()));
  }
  const std::uint32_t expected_bucket =
      sched::HostLoad::quantize(host.heat(), host.load().heat_bucket_width);
  if (host.heat_bucket() != expected_bucket) {
    fail("heat bucket " + std::to_string(host.heat_bucket()) +
         " != quantize(" + std::to_string(host.heat()) + ", " +
         std::to_string(host.load().heat_bucket_width) + ") = " +
         std::to_string(expected_bucket));
  }
}

}  // namespace

std::vector<std::string> audit(std::span<const sched::HostState> hosts) {
  std::vector<std::string> out;
  for (const sched::HostState& host : hosts) {
    audit_host(host, "", out);
  }
  return out;
}

std::vector<std::string> audit(const sched::VCluster& cluster) {
  std::vector<std::string> out;
  std::size_t hosted = 0;
  for (const sched::HostState& host : cluster.hosts()) {
    audit_host(host, cluster.name(), out);
    hosted += host.vm_count();
    for (const auto& [vm, spec] : host.vms()) {
      if (!cluster.contains(vm)) {
        out.push_back(cluster.name() + ": VM " + std::to_string(vm.value) +
                      " on host " + std::to_string(host.id()) +
                      " missing from the VM directory");
      } else if (cluster.host_of(vm) != host.id()) {
        out.push_back(cluster.name() + ": VM " + std::to_string(vm.value) +
                      " on host " + std::to_string(host.id()) +
                      " but the VM directory says host " +
                      std::to_string(cluster.host_of(vm)));
      }
    }
  }
  if (hosted != cluster.vm_count()) {
    out.push_back(cluster.name() + ": hosts run " + std::to_string(hosted) +
                  " VMs but the VM directory holds " +
                  std::to_string(cluster.vm_count()));
  }
  // The O(1) aggregates the simulator reads are running totals; they must
  // equal a recomputation over the hosts.
  core::Resources alloc;
  core::Resources config;
  std::size_t nonempty = 0;
  for (const sched::HostState& host : cluster.hosts()) {
    alloc += host.alloc();
    config += host.config();
    if (!host.empty()) {
      ++nonempty;
    }
  }
  if (alloc != cluster.total_alloc()) {
    out.push_back(cluster.name() + ": total_alloc " +
                  core::to_string(cluster.total_alloc()) + " != recomputed " +
                  core::to_string(alloc));
  }
  if (config != cluster.total_config()) {
    out.push_back(cluster.name() + ": total_config " +
                  core::to_string(cluster.total_config()) + " != recomputed " +
                  core::to_string(config));
  }
  if (nonempty != cluster.nonempty_hosts()) {
    out.push_back(cluster.name() + ": nonempty_hosts " +
                  std::to_string(cluster.nonempty_hosts()) + " != recomputed " +
                  std::to_string(nonempty));
  }
  return out;
}

std::vector<std::string> audit(const Datacenter& dc) {
  std::vector<std::string> out;
  std::size_t total = 0;
  for (const auto& cluster : dc.clusters()) {
    auto violations = audit(*cluster);
    out.insert(out.end(), violations.begin(), violations.end());
    total += cluster->vm_count();
  }
  if (total != dc.vm_count()) {
    out.push_back("datacenter: clusters run " + std::to_string(total) +
                  " VMs but the datacenter aggregate says " +
                  std::to_string(dc.vm_count()));
  }
  return out;
}

void set_debug_audit(bool enabled) noexcept {
  g_debug_audit.store(enabled, std::memory_order_relaxed);
}

bool debug_audit_enabled() noexcept {
  return g_debug_audit.load(std::memory_order_relaxed);
}

namespace {

[[noreturn]] void throw_violations(const std::vector<std::string>& violations) {
  std::string message = "sim::audit failed:";
  for (const std::string& v : violations) {
    message += "\n  " + v;
  }
  SLACKVM_THROW(message);
}

}  // namespace

void debug_audit_check(const Datacenter& dc) {
  if (!debug_audit_enabled()) {
    return;
  }
  const std::vector<std::string> violations = audit(dc);
  if (!violations.empty()) {
    throw_violations(violations);
  }
}

void debug_audit_check(const sched::VCluster& cluster) {
  if (!debug_audit_enabled()) {
    return;
  }
  const std::vector<std::string> violations = audit(cluster);
  if (!violations.empty()) {
    throw_violations(violations);
  }
}

ScopedDebugAudit::ScopedDebugAudit() noexcept : previous_(debug_audit_enabled()) {
  set_debug_audit(true);
}

ScopedDebugAudit::~ScopedDebugAudit() { set_debug_audit(previous_); }

}  // namespace slackvm::sim
