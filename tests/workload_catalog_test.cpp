// Calibration tests: the embedded catalogs must reproduce Table I and
// Table II of the paper.
#include "workload/catalog.hpp"

#include <gtest/gtest.h>

#include "core/error.hpp"

namespace slackvm::workload {
namespace {

TEST(CatalogTableI, AzureAverages) {
  const CatalogStats stats = azure_catalog().stats();
  EXPECT_NEAR(stats.avg_vcpus, 2.25, 0.01);    // Table I: 2.25 vCPUs per VM
  EXPECT_NEAR(stats.avg_mem_gib, 4.8, 0.02);   // Table I: 4.8 GB per VM
}

TEST(CatalogTableI, OvhAverages) {
  const CatalogStats stats = ovhcloud_catalog().stats();
  EXPECT_NEAR(stats.avg_vcpus, 3.24, 0.01);     // Table I: 3.24 vCPUs per VM
  EXPECT_NEAR(stats.avg_mem_gib, 10.05, 0.05);  // Table I: 10.05 GB per VM
}

TEST(CatalogTableII, AzureMcRatios) {
  const Catalog& azure = azure_catalog();
  EXPECT_NEAR(azure.expected_mc_ratio(core::OversubLevel{1}), 2.1, 0.05);
  EXPECT_NEAR(azure.expected_mc_ratio(core::OversubLevel{2}), 3.0, 0.05);
  EXPECT_NEAR(azure.expected_mc_ratio(core::OversubLevel{3}), 4.5, 0.05);
}

TEST(CatalogTableII, OvhMcRatios) {
  const Catalog& ovh = ovhcloud_catalog();
  EXPECT_NEAR(ovh.expected_mc_ratio(core::OversubLevel{1}), 3.1, 0.05);
  EXPECT_NEAR(ovh.expected_mc_ratio(core::OversubLevel{2}), 3.9, 0.05);
  EXPECT_NEAR(ovh.expected_mc_ratio(core::OversubLevel{3}), 5.8, 0.05);
}

TEST(CatalogTest, PowerOfTwoSizes) {
  // §III-A: VM configurations follow power-of-2 conventions.
  for (const Catalog* catalog : {&azure_catalog(), &ovhcloud_catalog()}) {
    for (const Flavor& f : catalog->flavors()) {
      EXPECT_EQ(f.vcpus & (f.vcpus - 1), 0U) << f.name;
      const auto gib_value = f.mem_mib / core::kMibPerGib;
      EXPECT_EQ(gib_value & (gib_value - 1), 0) << f.name;
      EXPECT_EQ(f.mem_mib % core::kMibPerGib, 0) << f.name;
    }
  }
}

TEST(CatalogTest, TruncationDropsLargeFlavors) {
  const Catalog capped = ovhcloud_catalog().truncated(kOversubMemCap);
  EXPECT_LT(capped.flavors().size(), ovhcloud_catalog().flavors().size());
  for (const Flavor& f : capped.flavors()) {
    EXPECT_LE(f.mem_mib, kOversubMemCap);
  }
}

TEST(CatalogTest, OversubOffersSampleLikeTheTruncatedCatalog) {
  // Generators sample the cut built with the catalog; it must draw the
  // very flavors a truncated copy draws, or every generated trace moves.
  for (const Catalog* catalog : {&azure_catalog(), &ovhcloud_catalog()}) {
    const Catalog copy = catalog->truncated(kOversubMemCap);
    const Catalog& offers = catalog->oversub_offers();
    ASSERT_EQ(offers.flavors().size(), copy.flavors().size());
    core::SplitMix64 rng_a(11);
    core::SplitMix64 rng_b(11);
    for (int i = 0; i < 1000; ++i) {
      EXPECT_EQ(offers.sample(rng_a).name, copy.sample(rng_b).name);
    }
    // A catalog within the cap is its own cut.
    EXPECT_EQ(&offers.oversub_offers(), &offers);
  }
  const Catalog big("big", {{"L", 8, core::gib(64)}}, {1.0});
  EXPECT_THROW((void)big.oversub_offers(), core::SlackError);
}

TEST(CatalogTest, TruncationBelowSmallestThrows) {
  EXPECT_THROW((void)azure_catalog().truncated(core::gib(0)), core::SlackError);
}

TEST(CatalogTest, SamplingIsDeterministicAndWeighted) {
  const Catalog& azure = azure_catalog();
  core::SplitMix64 rng_a(5);
  core::SplitMix64 rng_b(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(azure.sample(rng_a).name, azure.sample(rng_b).name);
  }
}

TEST(CatalogTest, SampleAveragesConvergeToStats) {
  const Catalog& azure = azure_catalog();
  core::SplitMix64 rng(17);
  double vcpus = 0;
  double mem = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const Flavor& f = azure.sample(rng);
    vcpus += f.vcpus;
    mem += core::mib_to_gib(f.mem_mib);
  }
  EXPECT_NEAR(vcpus / n, 2.25, 0.05);
  EXPECT_NEAR(mem / n, 4.8, 0.15);
}

TEST(CatalogTest, LookupByName) {
  EXPECT_EQ(catalog_by_name("azure").provider(), "azure");
  EXPECT_EQ(catalog_by_name("ovhcloud").provider(), "ovhcloud");
  EXPECT_THROW((void)catalog_by_name("gcp"), core::SlackError);
}

TEST(CatalogTest, McRatioGrowsWithOversubscription) {
  // The core observation of §III: higher oversubscription -> higher
  // provisioned memory per physical core.
  for (const Catalog* catalog : {&azure_catalog(), &ovhcloud_catalog()}) {
    double previous = 0.0;
    for (std::uint8_t ratio : core::kPaperLevelRatios) {
      const double mc = catalog->expected_mc_ratio(core::OversubLevel{ratio});
      EXPECT_GT(mc, previous);
      previous = mc;
    }
  }
}

TEST(CatalogTest, BoundednessAroundTargetRatio) {
  // With the 4 GiB/core PM target: Azure 1:1 and 2:1 are CPU-bound
  // (< 4), 3:1 memory-bound (> 4); OVH 3:1 strongly memory-bound (§III-B).
  const double target = 4.0;
  EXPECT_LT(azure_catalog().expected_mc_ratio(core::OversubLevel{1}), target);
  EXPECT_LT(azure_catalog().expected_mc_ratio(core::OversubLevel{2}), target);
  EXPECT_GT(azure_catalog().expected_mc_ratio(core::OversubLevel{3}), target);
  EXPECT_LT(ovhcloud_catalog().expected_mc_ratio(core::OversubLevel{1}), target);
  EXPECT_GT(ovhcloud_catalog().expected_mc_ratio(core::OversubLevel{3}), target);
}

}  // namespace
}  // namespace slackvm::workload
