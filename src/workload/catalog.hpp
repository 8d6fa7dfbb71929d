// Provider VM-size catalogs (CloudFactory substitute).
//
// The paper's workload generator (CloudFactory, IC2E'23) samples VM sizes
// from the published Azure and OVHcloud distributions. We embed synthetic
// power-of-two catalogs calibrated so that:
//   * the full-catalog averages match Table I
//       Azure: 2.25 vCPU / 4.8 GB per VM; OVHcloud: 3.24 vCPU / 10.05 GB;
//   * the <= 8 GB truncation (the paper's oversubscribed-offer catalog cut,
//     §III-A) reproduces Table II's M/C ratios:
//       Azure 2.1 / 3.0 / 4.5 and OVH 3.1 / 3.9 / 5.8 GB/core at 1:1/2:1/3:1.
// Calibration is asserted by tests/workload_catalog_test.cpp.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/rng.hpp"
#include "core/units.hpp"
#include "core/vm.hpp"

namespace slackvm::workload {

/// One catalog entry (a VM size offer).
struct Flavor {
  std::string name;
  core::VcpuCount vcpus = 1;
  core::MemMib mem_mib = core::gib(1);
};

/// Average request sizes of a catalog (Table I row).
struct CatalogStats {
  double avg_vcpus = 0.0;
  double avg_mem_gib = 0.0;
  /// Requested memory per vCPU in GiB (the 1:1 M/C ratio).
  [[nodiscard]] double mem_per_vcpu() const { return avg_mem_gib / avg_vcpus; }
};

/// Memory cap of oversubscribed offers (paper §III-A: OVHcloud does not
/// offer oversubscribed VMs above 8 GB).
inline constexpr core::MemMib kOversubMemCap = core::gib(8);

/// Weighted set of flavors with deterministic sampling.
class Catalog {
 public:
  Catalog(std::string provider, std::vector<Flavor> flavors, std::vector<double> weights);

  [[nodiscard]] const std::string& provider() const noexcept { return provider_; }
  [[nodiscard]] const std::vector<Flavor>& flavors() const noexcept { return flavors_; }
  [[nodiscard]] double weight(std::size_t i) const { return weights_.at(i); }

  [[nodiscard]] const Flavor& sample(core::SplitMix64& rng) const;

  [[nodiscard]] CatalogStats stats() const;

  /// Catalog restricted to flavors with mem <= max_mem (the oversubscribed
  /// offer cut; the paper uses 8 GB). Weights are renormalized implicitly.
  [[nodiscard]] Catalog truncated(core::MemMib max_mem) const;

  /// truncated(kOversubMemCap), built once with the catalog: the offers
  /// oversubscribed VMs draw from. Every Generator samples it, so building
  /// one copies nothing. Throws when no flavor fits the cap.
  [[nodiscard]] const Catalog& oversub_offers() const;

  /// Expected M/C ratio (provisioned GiB per physical core) of VMs drawn
  /// from this catalog at oversubscription `level` — the Table II entries.
  [[nodiscard]] double expected_mc_ratio(core::OversubLevel level) const;

 private:
  std::string provider_;
  std::vector<Flavor> flavors_;
  std::vector<double> weights_;
  core::DiscreteSampler sampler_;
  /// oversub_offers() when some flavors exceed the cap but not all; null
  /// when the catalog is its own cut, or has none.
  std::shared_ptr<const Catalog> oversub_;
};

/// Calibrated Azure catalog (Table I row 1).
[[nodiscard]] const Catalog& azure_catalog();

/// Calibrated OVHcloud catalog (Table I row 2).
[[nodiscard]] const Catalog& ovhcloud_catalog();

/// Lookup by name ("azure" | "ovhcloud"); throws on anything else.
[[nodiscard]] const Catalog& catalog_by_name(const std::string& name);

}  // namespace slackvm::workload
