// Golden-report exactness of the PHY fast path: a figure-bench sweep run
// with the gain cache + reachability culling enabled must produce a report
// that is BYTE-identical to the same sweep over the brute-force medium
// (per-receiver propagation queries, full fan-out). This is what licenses
// the optimization: it is a cache plus a cull of deliveries that were
// already below the delivery floor, not an approximation.
#include <gtest/gtest.h>

#include <string>

#include "scenario/sweep.h"
#include "stats/report.h"
#include "testbed/testbed.h"

namespace cmap::scenario {
namespace {

testbed::Testbed make_testbed(bool fast_path, double fading_sigma_db) {
  testbed::TestbedConfig cfg;
  if (!fast_path) cfg.medium.link_state = phy::LinkStateMode::kDenseReference;
  cfg.medium.fading_sigma_db = fading_sigma_db;
  // With fading enabled, identity holds unless a fade beats the guard
  // band; at the default 6 sigma that is ~1e-9 per culled delivery, which
  // over a whole sweep leaves a designed-in flake window. 8 sigma (~6e-16)
  // makes this test deterministic for all practical purposes while still
  // exercising the fading path; the fading-off case below pins the
  // unconditional guarantee.
  cfg.medium.cull_guard_sigmas = 8.0;
  return testbed::Testbed(cfg);
}

std::string sweep_json(const testbed::Testbed& tb, const char* scenario) {
  Sweep sweep;
  sweep.scenario = scenario;
  sweep.schemes = {testbed::Scheme::kCsma, testbed::Scheme::kCmap};
  sweep.topologies = 3;
  sweep.duration = sim::seconds(2);
  sweep.warmup = sim::milliseconds(500);
  const stats::SweepReport report = SweepRunner(1).run(sweep, tb);
  EXPECT_FALSE(report.empty()) << scenario;
  return report.to_json();
}

class FastPathGolden : public ::testing::TestWithParam<const char*> {};

TEST_P(FastPathGolden, FigureBenchReportIsByteIdenticalWithFading) {
  const testbed::Testbed fast = make_testbed(true, 2.0);
  const testbed::Testbed slow = make_testbed(false, 2.0);
  const std::string fast_json = sweep_json(fast, GetParam());
  const std::string slow_json = sweep_json(slow, GetParam());
  EXPECT_EQ(fast_json, slow_json);
}

TEST_P(FastPathGolden, FigureBenchReportIsByteIdenticalWithoutFading) {
  // fading_sigma_db == 0: culling is exact, identity is unconditional.
  const testbed::Testbed fast = make_testbed(true, 0.0);
  const testbed::Testbed slow = make_testbed(false, 0.0);
  const std::string fast_json = sweep_json(fast, GetParam());
  const std::string slow_json = sweep_json(slow, GetParam());
  EXPECT_EQ(fast_json, slow_json);
}

INSTANTIATE_TEST_SUITE_P(FigureBenches, FastPathGolden,
                         ::testing::Values("fig12_exposed", "fig15_hidden"));

}  // namespace
}  // namespace cmap::scenario
