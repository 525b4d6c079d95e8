// Golden-report exactness of the sparse medium: every builtin scenario
// swept on its prescribed building must produce a report BYTE-identical
// whether the Medium uses the dense O(n^2) gain cache
// (LinkStateMode::kDenseCached) or the sparse spatially-indexed link state
// (LinkStateMode::kSparse). This is what licenses the sparse
// representation: the spatial grid and the culled link rows are an
// *indexing* of the same pair state, not an approximation — any divergence
// in any gain or delivery would cascade into different timings and
// therefore different report bytes. Mirrors test_mac_decide_golden.cpp
// (the MAC decision fast path's equivalent guarantee). The Testbed's own
// pair store has one layout; test_sparse_store.cpp checks it pair by pair
// against a brute-force measurement.
//
// metro_10k is excluded by design: it exists precisely because no dense
// medium can be materialized at 10^8 directed pairs (bench_metro gates
// its sparse peak RSS instead). Every other scenario — including the
// mobility family, whose DynamicShadowing channel exercises the sparse
// medium's watch lists and epoch refresh — runs here.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "scenario/registry.h"
#include "scenario/sweep.h"
#include "stats/report.h"
#include "testbed/testbed.h"

namespace cmap::scenario {
namespace {

std::vector<std::string> golden_scenarios() {
  auto names = ScenarioRegistry::global().names();
  std::erase(names, "metro_10k");
  return names;
}

testbed::TestbedConfig sparse_variant(testbed::TestbedConfig cfg) {
  cfg.medium.link_state = phy::LinkStateMode::kSparse;
  return cfg;
}

std::string run_report(const Scenario& s,
                       const testbed::TestbedConfig& cfg) {
  Sweep sweep;
  sweep.scenario = s.name;
  sweep.schemes = {testbed::Scheme::kCmap};
  sweep.topologies = 1;
  // Short sweeps keep the full-registry pass affordable; the mobility
  // family gets a longer window so the 500 ms channel epochs actually
  // advance and the sparse medium's watch-list refresh path runs.
  sweep.duration = s.defaults.dynamics.has_value() ? sim::milliseconds(1600)
                                                   : sim::milliseconds(400);
  sweep.warmup = *sweep.duration / 4;
  const auto tb = testbed::TestbedCache::global().get(cfg);
  return SweepRunner(1).run(sweep, *tb).to_json();
}

class SparseGolden : public ::testing::TestWithParam<std::string> {};

TEST_P(SparseGolden, SweepReportIsByteIdenticalToDense) {
  const Scenario& s = ScenarioRegistry::global().at(GetParam());
  // Scenarios without a prescribed building (driver-supplied testbed) run
  // on the canonical 50-node one, same as the driver's default.
  const testbed::TestbedConfig dense_cfg =
      s.testbed ? *s.testbed : testbed::TestbedConfig{};
  const std::string dense = run_report(s, dense_cfg);
  const std::string sparse = run_report(s, sparse_variant(dense_cfg));
  EXPECT_FALSE(dense.empty());
  EXPECT_EQ(dense, sparse);
}

INSTANTIATE_TEST_SUITE_P(
    Registry, SparseGolden, ::testing::ValuesIn(golden_scenarios()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      std::replace_if(
          name.begin(), name.end(),
          [](char c) { return !std::isalnum(static_cast<unsigned char>(c)); },
          '_');
      return name;
    });

}  // namespace
}  // namespace cmap::scenario
