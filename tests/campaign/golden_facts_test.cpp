// Golden coverage facts. The numbers below were recorded with the
// per-element probe runtime (every probe call took the unit mutex and
// recorded into std::set), before the probes became loop-granular and
// lock-free. Recording fewer or cheaper probe calls must not gain or lose a
// single fact, so the campaign JSON of two configurations, one serve
// request's cover digest and the Figure 5 per-file rows stay byte-identical.
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "campaign/baseline.h"
#include "campaign/corpus_store.h"
#include "campaign/replay.h"
#include "campaign/runner.h"
#include "campaign/service.h"
#include "coverage/coverage.h"
#include "gtest/gtest.h"
#include "support/fnv.h"

namespace certkit::campaign {
namespace {

std::string CampaignDigest(const CampaignConfig& config) {
  return HexU64(support::FnvStr(CampaignJson(CampaignRunner(config).Run())));
}

TEST(GoldenFactsTest, FleetDeterminismCampaign) {
  // fleet_determinism_test's configuration.
  CampaignConfig config;
  config.seed = 77;
  config.jobs = 4;
  config.population = 4;
  config.generations = 2;
  config.ticks = 10;
  EXPECT_EQ(CampaignDigest(config), "d7c2dc9afd6719c1");
}

TEST(GoldenFactsTest, DeployedGenerationCampaign) {
  // The perf ledger's campaign_fleet generation: CampaignConfig defaults
  // (12 candidates of 25 ticks), one generation, seed 1.
  CampaignConfig config;
  config.seed = 1;
  config.jobs = 4;
  config.generations = 1;
  EXPECT_EQ(CampaignDigest(config), "b07512fe452c4ca2");
}

TEST(GoldenFactsTest, ServeRequestCoverDigest) {
  ServiceRequest request;
  request.id = "golden";
  request.kind = "campaign";
  request.campaign.seed = 9;
  request.campaign.population = 2;
  request.campaign.generations = 1;
  request.campaign.ticks = 4;
  CampaignService service(2);
  const std::vector<ServiceResponse> responses = service.Process({request});
  ASSERT_EQ(responses.size(), 1u);
  ASSERT_TRUE(responses[0].ok) << responses[0].error;
  EXPECT_EQ(responses[0].cover_facts, 85);
  EXPECT_EQ(HexU64(responses[0].cover_digest), "0c1bab63f4ac3995");
}

TEST(GoldenFactsTest, Figure5PerFileRows) {
  const cov::CoverSet baseline = CaptureFigure5Baseline();
  EXPECT_EQ(HexU64(CoverDigest(baseline)), "2e4e578a4d15f892");
  std::string rows;
  for (const auto& [name, cover] : baseline) {
    const cov::CoverageRow row =
        cov::CoverRow(cov::Registry::Instance().GetOrCreate(name), cover);
    char line[256];
    std::snprintf(line, sizeof(line), "%s %.17g %.17g %.17g\n",
                  row.unit.c_str(), row.statement, row.branch, row.mcdc);
    rows += line;
  }
  EXPECT_EQ(rows,
            "yolo/activation.cc 0.59999999999999998 0.83333333333333337 "
            "0.66666666666666663\n"
            "yolo/batchnorm.cc 1 1 0\n"
            "yolo/conv_layer.cc 0.83333333333333337 0.83333333333333337 "
            "0.66666666666666663\n"
            "yolo/detection.cc 0.80000000000000004 0.83333333333333337 0.75\n"
            "yolo/network.cc 0.66666666666666663 0.5 0\n"
            "yolo/nms.cc 1 1 0.75\n"
            "yolo/pooling.cc 0.66666666666666663 0.75 0.33333333333333331\n"
            "yolo/preprocess.cc 0.40000000000000002 0.5 0\n"
            "yolo/upsample.cc 0.5 0.5 0\n"
            "yolo/weights.cc 0.5 0.5 0\n");
}

}  // namespace
}  // namespace certkit::campaign
