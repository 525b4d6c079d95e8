// The metrics determinism contract (docs/metrics.md): the deterministic
// counter section is a pure function of (config, seed) — byte-identical
// across SweepRunner worker-thread counts. Counters are commutative sums
// and maxes over events the simulation itself fully determines, so the
// execution strategy must not leak into them; anything that legitimately
// depends on it lives in the snapshot's execution section, which this test
// deliberately does not compare. Exercised on a static scenario
// (fig12_exposed) and a mobility scenario (mobile_floor_25, whose dynamics
// ticks drive the kDynamics counters).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "metrics/metrics.h"
#include "scenario/registry.h"
#include "scenario/sweep.h"
#include "stats/report.h"
#include "testbed/testbed.h"

namespace cmap::metrics {
namespace {

// One metered sweep; returns the per-run counter sections in row order
// plus the aggregated metrics_json (both must be invariant).
struct CounterBytes {
  std::vector<std::string> per_run;
  std::string aggregated;
};

CounterBytes run_counters(const std::string& scenario_name,
                          int sweep_threads) {
  const scenario::Scenario& s =
      scenario::ScenarioRegistry::global().at(scenario_name);
  scenario::Sweep sweep;
  sweep.scenario = s.name;
  sweep.schemes = {testbed::Scheme::kCmap};
  sweep.topologies = 2;  // >1 cell so sweep threads genuinely interleave
  sweep.duration = s.defaults.dynamics.has_value() ? sim::milliseconds(1600)
                                                   : sim::milliseconds(400);
  sweep.warmup = *sweep.duration / 4;
  sweep.metrics = MetricsConfig{};  // in-memory only
  const testbed::TestbedConfig cfg =
      s.testbed ? *s.testbed : testbed::TestbedConfig{};
  const auto tb = testbed::TestbedCache::global().get(cfg);
  const auto report = scenario::SweepRunner(sweep_threads).run(sweep, *tb);

  CounterBytes out;
  for (const auto& row : report.rows()) {
    EXPECT_NE(row.profile, nullptr);
    if (row.profile) out.per_run.push_back(row.profile->counters_json());
  }
  out.aggregated = report.metrics_json();
  return out;
}

class MetricsGolden : public ::testing::TestWithParam<std::string> {};

TEST_P(MetricsGolden, CounterSectionIsByteIdenticalAcrossThreadCounts) {
  const CounterBytes one = run_counters(GetParam(), 1);
  ASSERT_FALSE(one.per_run.empty());
  for (const auto& json : one.per_run) {
    EXPECT_FALSE(json.empty());
    EXPECT_NE(json.find("phy.transmits"), std::string::npos);
  }
  const CounterBytes four = run_counters(GetParam(), 4);
  EXPECT_EQ(one.per_run, four.per_run);
  EXPECT_EQ(one.aggregated, four.aggregated);
}

INSTANTIATE_TEST_SUITE_P(Scenarios, MetricsGolden,
                         ::testing::Values("fig12_exposed", "mobile_floor_25"),
                         [](const ::testing::TestParamInfo<std::string>& i) {
                           return i.param;
                         });

}  // namespace
}  // namespace cmap::metrics
