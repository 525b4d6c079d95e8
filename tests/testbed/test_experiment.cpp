#include "testbed/experiment.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "scenario/registry.h"
#include "testbed/topology_picker.h"

namespace cmap::testbed {
namespace {

const Testbed& shared_testbed() {
  static Testbed tb{TestbedConfig{}};
  return tb;
}

RunConfig quick(Scheme scheme) {
  RunConfig rc;
  rc.scheme = scheme;
  rc.duration = sim::seconds(3);
  rc.warmup = sim::seconds(1);
  return rc;
}

Flow first_potential_flow() {
  TopologyPicker picker(shared_testbed());
  const auto links = picker.potential_links();
  return Flow{links.front().first, links.front().second};
}

TEST(Experiment, SchemeNamesAreDistinct) {
  EXPECT_STRNE(scheme_name(Scheme::kCsma), scheme_name(Scheme::kCmap));
  EXPECT_STRNE(scheme_name(Scheme::kCsmaOffAcks),
               scheme_name(Scheme::kCsmaOffNoAcks));
  EXPECT_TRUE(scheme_is_cmap(Scheme::kCmapWin1));
  EXPECT_FALSE(scheme_is_cmap(Scheme::kCsma));
}

class SingleFlowAllSchemes : public ::testing::TestWithParam<int> {};

TEST_P(SingleFlowAllSchemes, DeliversOnCleanLink) {
  const auto scheme = static_cast<Scheme>(GetParam());
  const auto result =
      run_flows(shared_testbed(), {first_potential_flow()}, quick(scheme));
  ASSERT_EQ(result.flows.size(), 1u);
  EXPECT_GT(result.flows[0].mbps, 3.0) << scheme_name(scheme);
  EXPECT_LT(result.flows[0].mbps, 6.5) << scheme_name(scheme);
  EXPECT_GT(result.flows[0].unique_packets, 400u);
}

INSTANTIATE_TEST_SUITE_P(Schemes, SingleFlowAllSchemes,
                         ::testing::Range(0, 6));

TEST(Experiment, CmapCountersArePopulated) {
  const auto result = run_flows(shared_testbed(), {first_potential_flow()},
                                quick(Scheme::kCmap));
  EXPECT_GT(result.flows[0].vps_sent, 10u);
  EXPECT_GT(result.flows[0].rx_vps_delim, 10u);
  EXPECT_GE(result.flows[0].rx_vps_delim, result.flows[0].rx_vps_header);
}

TEST(Experiment, DcfCountersStayZeroForCmapFields) {
  const auto result = run_flows(shared_testbed(), {first_potential_flow()},
                                quick(Scheme::kCsma));
  EXPECT_EQ(result.flows[0].vps_sent, 0u);
  EXPECT_EQ(result.flows[0].rx_vps_delim, 0u);
}

TEST(Experiment, AggregateIsSumOfFlows) {
  TopologyPicker picker(shared_testbed());
  sim::Rng rng(9);
  const auto pairs = picker.in_range_pairs(1, rng);
  ASSERT_FALSE(pairs.empty());
  const std::vector<Flow> flows = {{pairs[0].s1, pairs[0].r1},
                                   {pairs[0].s2, pairs[0].r2}};
  const auto result = run_flows(shared_testbed(), flows, quick(Scheme::kCmap));
  EXPECT_NEAR(result.aggregate_mbps,
              result.flows[0].mbps + result.flows[1].mbps, 1e-9);
}

TEST(Experiment, MeasurementWindowExcludesWarmup) {
  // A run measured over its warmup-free window reports steady state; with
  // warmup == duration nothing is counted.
  RunConfig rc = quick(Scheme::kCmap);
  rc.warmup = rc.duration;
  const auto result = run_flows(shared_testbed(), {first_potential_flow()}, rc);
  EXPECT_DOUBLE_EQ(result.flows[0].mbps, 0.0);
}

TEST(Experiment, FluentBuilderConfiguresEveryGroupedKnob) {
  const RunConfig rc = RunConfig{}
                           .with_scheme(Scheme::kCsmaOffAcks)
                           .with_duration(sim::seconds(3))
                           .with_warmup(sim::seconds(1))
                           .with_seed(17)
                           .with_packet_bytes(500)
                           .with_per_dest_queues(true)
                           .with_decision_mode(core::DecisionMode::kReference)
                           .with_nvpkt(4)
                           .with_nwindow(2)
                           .with_defer_ttl(sim::seconds(6))
                           .with_ilist_period(sim::milliseconds(250));
  EXPECT_EQ(rc.scheme, Scheme::kCsmaOffAcks);
  EXPECT_EQ(rc.duration, sim::seconds(3));
  EXPECT_EQ(rc.warmup, sim::seconds(1));
  EXPECT_EQ(rc.seed, 17u);
  EXPECT_EQ(rc.packet_bytes, 500u);
  EXPECT_TRUE(rc.per_dest_queues);
  EXPECT_EQ(rc.cmap.decision_mode, core::DecisionMode::kReference);
  EXPECT_EQ(rc.cmap.nvpkt, 4);
  EXPECT_EQ(rc.cmap.nwindow, 2);
  EXPECT_EQ(rc.cmap.defer_ttl, sim::seconds(6));
  EXPECT_EQ(rc.cmap.ilist_period, sim::milliseconds(250));
  // Overrides reach the MAC through the grouped struct.
  World world(shared_testbed(),
              RunConfig{}.with_nvpkt(3).with_defer_ttl(sim::seconds(9)));
  const Flow f = first_potential_flow();
  world.add_node(f.src);
  ASSERT_NE(world.cmap(f.src), nullptr);
  EXPECT_EQ(world.cmap(f.src)->config().nvpkt, 3);
  EXPECT_EQ(world.cmap(f.src)->config().defer_entry_ttl, sim::seconds(9));
}

TEST(Experiment, WorldExposesComponentsForBespokeScenarios) {
  World world(shared_testbed(), quick(Scheme::kCmap));
  const Flow f = first_potential_flow();
  world.add_node(f.src);
  world.add_node(f.dst);
  EXPECT_NE(world.cmap(f.src), nullptr);
  EXPECT_EQ(world.dcf(f.src), nullptr);
  world.add_saturated_flow(f.src, f.dst);
  world.run(sim::seconds(1));
  EXPECT_GT(world.sink(f.dst).unique_packets(), 100u);
}

// ---- Chunked runs ----
// World::run may be driven in chunks, and a driver may step the queue
// itself through next_key/advance_to/run_one (perfbench's per-event-class
// timer does). Either way the run must execute exactly the events of one
// World::run(duration): same per-flow goodput, event count and counters.

enum class Drive { kWhole, kChunked, kStepped };

struct RunFacts {
  std::vector<std::uint64_t> unique_packets;
  std::vector<double> mbps;
  std::uint64_t events = 0;
  metrics::MetricsSnapshot snapshot;
};

constexpr sim::Time kChunk = sim::milliseconds(5);

void step_until(World& world, sim::Time until) {
  sim::EventQueue& queue = world.simulator().queue();
  while (queue.next_key().at <= until) queue.run_one();
  queue.advance_to(until);
}

RunFacts drive_scenario(const std::string& name, Scheme scheme, Drive drive) {
  const scenario::Scenario& s = scenario::ScenarioRegistry::global().at(name);
  const auto tb =
      TestbedCache::global().get(s.testbed ? *s.testbed : TestbedConfig{});
  sim::Rng topo_rng(3);
  const auto topologies = s.topology(*tb, 1, topo_rng);
  EXPECT_FALSE(topologies.empty());
  if (topologies.empty()) return {};
  const std::vector<Flow>& flows = topologies.front().flows;

  RunConfig rc = s.defaults;
  rc.scheme = scheme;
  rc.seed = 11;
  rc.duration = sim::milliseconds(1600);
  rc.warmup = sim::milliseconds(400);
  rc.metrics = metrics::MetricsConfig{};
  World world(*tb, rc);
  for (const Flow& f : flows) world.add_saturated_flow(f.src, f.dst);
  if (drive == Drive::kWhole) {
    world.run(rc.duration);
  } else {
    for (sim::Time until = 0; until < rc.duration;) {
      until = std::min(until + kChunk, rc.duration);
      if (drive == Drive::kChunked) {
        world.run(until);
      } else {
        step_until(world, until);
      }
    }
  }

  RunFacts facts;
  for (const Flow& f : flows) {
    facts.unique_packets.push_back(world.sink(f.dst).unique_packets());
    facts.mbps.push_back(world.sink(f.dst).meter().mbps());
  }
  facts.events = world.simulator().events_executed();
  facts.snapshot = world.metrics_snapshot();
  return facts;
}

class ChunkedRun : public ::testing::TestWithParam<std::string> {};

TEST_P(ChunkedRun, MatchesOneWholeRun) {
  for (const Scheme scheme : {Scheme::kCsma, Scheme::kCmap}) {
    SCOPED_TRACE(scheme_name(scheme));
    const RunFacts whole = drive_scenario(GetParam(), scheme, Drive::kWhole);
    ASSERT_GT(whole.events, 0u);
    ASSERT_FALSE(whole.unique_packets.empty());
    for (const Drive drive : {Drive::kChunked, Drive::kStepped}) {
      const RunFacts part = drive_scenario(GetParam(), scheme, drive);
      EXPECT_EQ(part.unique_packets, whole.unique_packets);
      EXPECT_EQ(part.mbps, whole.mbps);
      EXPECT_EQ(part.events, whole.events);
      EXPECT_EQ(part.snapshot.counters_json(), whole.snapshot.counters_json());
    }
  }
}

TEST(ChunkedRunSetup, MobileFloorRunsGlobalEvents) {
  // The mobile case only covers global-rank events if it has some.
  const RunFacts facts =
      drive_scenario("mobile_floor_25", Scheme::kCmap, Drive::kWhole);
  EXPECT_GT(facts.snapshot.counter(metrics::Counter::kDynChannelEpochs), 0u);
  EXPECT_GT(facts.snapshot.counter(metrics::Counter::kDynMoves), 0u);
}

INSTANTIATE_TEST_SUITE_P(Scenarios, ChunkedRun,
                         ::testing::Values("fig12_exposed", "mobile_floor_25"),
                         [](const ::testing::TestParamInfo<std::string>& i) {
                           return i.param;
                         });

}  // namespace
}  // namespace cmap::testbed
