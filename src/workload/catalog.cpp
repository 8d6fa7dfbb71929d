#include "workload/catalog.hpp"

#include <algorithm>
#include <span>

#include "core/error.hpp"

namespace slackvm::workload {

namespace {

bool fits_oversub_cap(const Flavor& flavor) { return flavor.mem_mib <= kOversubMemCap; }

}  // namespace

Catalog::Catalog(std::string provider, std::vector<Flavor> flavors,
                 std::vector<double> weights)
    : provider_(std::move(provider)),
      flavors_(std::move(flavors)),
      weights_(std::move(weights)),
      sampler_(std::span<const double>(weights_)) {
  SLACKVM_ASSERT(!flavors_.empty());
  SLACKVM_ASSERT(flavors_.size() == weights_.size());
  for (const Flavor& f : flavors_) {
    SLACKVM_ASSERT(f.vcpus > 0 && f.mem_mib > 0);
  }
  if (std::ranges::any_of(flavors_, fits_oversub_cap) &&
      !std::ranges::all_of(flavors_, fits_oversub_cap)) {
    oversub_ = std::make_shared<const Catalog>(truncated(kOversubMemCap));
  }
}

const Catalog& Catalog::oversub_offers() const {
  if (oversub_ != nullptr) {
    return *oversub_;
  }
  if (std::ranges::all_of(flavors_, fits_oversub_cap)) {
    return *this;
  }
  SLACKVM_THROW("Catalog::truncated: no flavor fits the cap");
}

const Flavor& Catalog::sample(core::SplitMix64& rng) const {
  return flavors_[sampler_.sample(rng)];
}

CatalogStats Catalog::stats() const {
  double total_w = 0.0;
  double vcpus = 0.0;
  double mem = 0.0;
  for (std::size_t i = 0; i < flavors_.size(); ++i) {
    total_w += weights_[i];
    vcpus += weights_[i] * static_cast<double>(flavors_[i].vcpus);
    mem += weights_[i] * core::mib_to_gib(flavors_[i].mem_mib);
  }
  return CatalogStats{vcpus / total_w, mem / total_w};
}

Catalog Catalog::truncated(core::MemMib max_mem) const {
  std::vector<Flavor> flavors;
  std::vector<double> weights;
  for (std::size_t i = 0; i < flavors_.size(); ++i) {
    if (flavors_[i].mem_mib <= max_mem) {
      flavors.push_back(flavors_[i]);
      weights.push_back(weights_[i]);
    }
  }
  if (flavors.empty()) {
    SLACKVM_THROW("Catalog::truncated: no flavor fits the cap");
  }
  return Catalog(provider_, std::move(flavors), std::move(weights));
}

double Catalog::expected_mc_ratio(core::OversubLevel level) const {
  // Table II methodology (§III-A): non-oversubscribed VMs come from the full
  // catalog; oversubscribed offers are capped at 8 GB. At n:1 each vCPU
  // consumes 1/n physical core, so the provisioned GiB-per-core ratio is
  // n * (avg mem / avg vCPUs) over the applicable catalog.
  const CatalogStats s =
      level.oversubscribed() ? oversub_offers().stats() : stats();
  return static_cast<double>(level.ratio()) * s.mem_per_vcpu();
}

namespace {

Catalog make_azure() {
  // Shares calibrated against Table I / Table II (see file header and
  // DESIGN.md §5 "Calibration, not curve-fitting").
  std::vector<Flavor> flavors{
      {"A1 (1c/1G)", 1, core::gib(1)},    {"B1 (1c/2G)", 1, core::gib(2)},
      {"B1m (1c/4G)", 1, core::gib(4)},   {"F2 (2c/2G)", 2, core::gib(2)},
      {"D2 (2c/4G)", 2, core::gib(4)},    {"E2 (2c/8G)", 2, core::gib(8)},
      {"D4 (4c/8G)", 4, core::gib(8)},    {"E4 (4c/16G)", 4, core::gib(16)},
      {"E8 (8c/32G)", 8, core::gib(32)},  {"E16 (16c/64G)", 16, core::gib(64)},
  };
  std::vector<double> weights{0.1459, 0.2048, 0.0249, 0.3911, 0.1062,
                              0.0096, 0.0727, 0.0092, 0.0048, 0.0309};
  return Catalog("azure", std::move(flavors), std::move(weights));
}

Catalog make_ovhcloud() {
  std::vector<Flavor> flavors{
      {"c2-2 (2c/2G)", 2, core::gib(2)},     {"s1-2 (1c/2G)", 1, core::gib(2)},
      {"b2-4 (2c/4G)", 2, core::gib(4)},     {"r2-8 (2c/8G)", 2, core::gib(8)},
      {"b2-8 (4c/8G)", 4, core::gib(8)},     {"r2-16 (4c/16G)", 4, core::gib(16)},
      {"b2-16 (8c/16G)", 8, core::gib(16)},  {"r2-32 (8c/32G)", 8, core::gib(32)},
      {"r2-64 (16c/64G)", 16, core::gib(64)},{"r2-128 (32c/128G)", 32, core::gib(128)},
  };
  std::vector<double> weights{0.3331, 0.1312, 0.1512, 0.1456, 0.0009,
                              0.1583, 0.0023, 0.0338, 0.0295, 0.0141};
  return Catalog("ovhcloud", std::move(flavors), std::move(weights));
}

}  // namespace

const Catalog& azure_catalog() {
  static const Catalog catalog = make_azure();
  return catalog;
}

const Catalog& ovhcloud_catalog() {
  static const Catalog catalog = make_ovhcloud();
  return catalog;
}

const Catalog& catalog_by_name(const std::string& name) {
  if (name == "azure") {
    return azure_catalog();
  }
  if (name == "ovhcloud") {
    return ovhcloud_catalog();
  }
  SLACKVM_THROW("unknown catalog: " + name);
}

}  // namespace slackvm::workload
