// The Testbed's pair store (a CSR over connected pairs plus an exact lazy
// recompute for everything else) must answer every query exactly as a
// brute-force measurement would: LinkMeasurement::measure_one on every
// ordered pair, with the §5.1 statistics and predicates evaluated straight
// from their definitions. That covers per-pair PRR/signal (including pairs
// outside the CSR), percentiles, predicates, link statistics, the
// potential-link list and both neighbor views.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "phy/propagation.h"
#include "scenario/registry.h"
#include "testbed/measurement.h"
#include "testbed/testbed.h"

namespace cmap::testbed {
namespace {

// The measurement spec Testbed's constructor composes from its config.
LinkMeasurementSpec spec_of(const TestbedConfig& cfg) {
  LinkMeasurementSpec spec;
  spec.radio = cfg.radio;
  spec.fading_sigma_db = cfg.medium.fading_sigma_db;
  spec.delivery_floor_dbm = cfg.medium.delivery_floor_dbm;
  spec.probe_rate = cfg.probe_rate;
  spec.probe_bytes = cfg.probe_bytes;
  spec.fading_samples = cfg.prr_fading_samples;
  spec.seed = cfg.seed;
  spec.config = cfg.measurement;
  return spec;
}

// Every ordered pair of a built testbed measured one at a time, and the
// §5.1 quantities computed from those matrices by their definitions.
struct BruteForce {
  int n = 0;
  double floor = 0.0;
  std::vector<double> prr_m, signal_m;  // [a * n + b]
  std::vector<double> connected;        // sorted signals >= floor
  double p10 = 0.0, p90 = 0.0;

  double prr(phy::NodeId a, phy::NodeId b) const { return prr_m[a * n + b]; }
  double signal(phy::NodeId a, phy::NodeId b) const {
    return signal_m[a * n + b];
  }
  bool in_range(phy::NodeId a, phy::NodeId b) const {
    return prr(a, b) > 0.2 && prr(b, a) > 0.2 && signal(a, b) >= p10 &&
           signal(b, a) >= p10;
  }
  bool potential_link(phy::NodeId a, phy::NodeId b) const {
    return prr(a, b) > 0.9 && prr(b, a) > 0.9 && signal(a, b) >= p10 &&
           signal(b, a) >= p10;
  }
  bool strong_signal(phy::NodeId a, phy::NodeId b) const {
    return signal(a, b) >= p90;
  }
};

BruteForce brute_force(const Testbed& tb) {
  const LinkMeasurement m(spec_of(tb.config()), tb.propagation(),
                          tb.error_model());
  BruteForce bf;
  bf.n = tb.size();
  bf.floor = tb.config().medium.delivery_floor_dbm;
  const auto n = static_cast<std::size_t>(bf.n);
  bf.prr_m.assign(n * n, 0.0);
  bf.signal_m.assign(n * n, 0.0);
  for (phy::NodeId a = 0; a < n; ++a) {
    for (phy::NodeId b = 0; b < n; ++b) {
      if (a == b) continue;
      const auto [p, s] = m.measure_one(a, b, tb.position(a), tb.position(b));
      bf.prr_m[a * n + b] = p;
      bf.signal_m[a * n + b] = s;
      if (s >= bf.floor) bf.connected.push_back(s);
    }
  }
  std::sort(bf.connected.begin(), bf.connected.end());
  bf.p10 = percentile_of(bf.connected, 10.0);
  bf.p90 = percentile_of(bf.connected, 90.0);
  return bf;
}

struct Case {
  std::string name;
  std::unique_ptr<const Testbed> tb;
  BruteForce bf;
};

TestbedConfig with_mode(TestbedConfig cfg, MeasurementMode mode) {
  cfg.measurement.mode = mode;
  return cfg;
}

// The paper's 50-node office and flows_50's 100-node building, each in
// both estimator modes, plus the office under metro_10k's -94 dBm floor.
// That floor sits above the fast PRR table's zero cut-off, so pairs just
// below it have a small non-zero PRR that only the lazy recompute gives.
const std::vector<Case>& cases() {
  static const std::vector<Case> all = [] {
    TestbedConfig high_floor;
    high_floor.medium.delivery_floor_dbm = -94.0;
    const std::pair<std::string, TestbedConfig> buildings[] = {
        {"office", TestbedConfig{}},
        {"flows_50",
         *scenario::ScenarioRegistry::global().at("flows_50").testbed},
        {"office_floor_-94", high_floor}};
    std::vector<Case> out;
    for (const auto& [name, cfg] : buildings) {
      for (const MeasurementMode mode :
           {MeasurementMode::kFast, MeasurementMode::kReference}) {
        Case c;
        c.name = name + (mode == MeasurementMode::kFast ? "/fast" : "/ref");
        c.tb = std::make_unique<const Testbed>(with_mode(cfg, mode));
        c.bf = brute_force(*c.tb);
        out.push_back(std::move(c));
      }
    }
    return out;
  }();
  return all;
}

TEST(SparseStoreEquality, EveryDirectedPairAgreesExactly) {
  for (const Case& c : cases()) {
    SCOPED_TRACE(c.name);
    const auto n = static_cast<phy::NodeId>(c.bf.n);
    ASSERT_EQ(c.tb->size(), c.bf.n);
    std::vector<double> row;
    for (phy::NodeId a = 0; a < n; ++a) {
      c.tb->prr_row(a, &row);
      ASSERT_EQ(row.size(), static_cast<std::size_t>(n));
      EXPECT_EQ(row[a], 0.0);
      for (phy::NodeId b = 0; b < n; ++b) {
        if (a == b) continue;
        ASSERT_EQ(c.tb->prr(a, b), c.bf.prr(a, b)) << "prr " << a << "->" << b;
        ASSERT_EQ(row[b], c.bf.prr(a, b)) << "prr_row " << a << "->" << b;
        ASSERT_EQ(c.tb->signal_dbm(a, b), c.bf.signal(a, b))
            << "signal " << a << "->" << b;
      }
    }
  }
}

TEST(SparseStoreEquality, HighFloorLeavesNonZeroPrrOffTheCsr) {
  // The equality above only covers the lazy path where pairs miss the
  // floor; the -94 dBm case must also hold some with a non-zero PRR.
  bool nonzero_off_csr = false;
  for (const Case& c : cases()) {
    SCOPED_TRACE(c.name);
    const auto n = static_cast<std::size_t>(c.bf.n);
    EXPECT_LT(c.tb->stored_links(), n * (n - 1));
    for (std::size_t k = 0; k < n * n; ++k) {
      nonzero_off_csr |= c.bf.signal_m[k] < c.bf.floor && c.bf.prr_m[k] > 0.0;
    }
  }
  EXPECT_TRUE(nonzero_off_csr);
}

TEST(SparseStoreEquality, PercentilesAndPredicatesAgree) {
  for (const Case& c : cases()) {
    SCOPED_TRACE(c.name);
    for (const double p : {0.0, 10.0, 37.5, 50.0, 90.0, 100.0}) {
      EXPECT_EQ(c.tb->signal_percentile(p), percentile_of(c.bf.connected, p));
    }
    const auto n = static_cast<phy::NodeId>(c.bf.n);
    for (phy::NodeId a = 0; a < n; ++a) {
      for (phy::NodeId b = 0; b < n; ++b) {
        if (a == b) continue;
        ASSERT_EQ(c.tb->in_range(a, b), c.bf.in_range(a, b)) << a << "," << b;
        ASSERT_EQ(c.tb->potential_link(a, b), c.bf.potential_link(a, b))
            << a << "," << b;
        ASSERT_EQ(c.tb->strong_signal(a, b), c.bf.strong_signal(a, b))
            << a << "," << b;
      }
    }
  }
}

TEST(SparseStoreEquality, AggregateStatisticsAgree) {
  for (const Case& c : cases()) {
    SCOPED_TRACE(c.name);
    const auto n = static_cast<phy::NodeId>(c.bf.n);
    int connected = 0, dead = 0, mid = 0, perfect = 0;
    double degree_total = 0;
    std::vector<std::pair<phy::NodeId, phy::NodeId>> potential;
    for (phy::NodeId a = 0; a < n; ++a) {
      int degree = 0;
      for (phy::NodeId b = 0; b < n; ++b) {
        if (a == b) continue;
        if (c.bf.prr(a, b) > 0.1 || c.bf.prr(b, a) > 0.1) ++degree;
        if (c.bf.potential_link(a, b)) potential.emplace_back(a, b);
        if (c.bf.signal(a, b) < c.bf.floor) continue;
        ++connected;
        const double p = c.bf.prr(a, b);
        (p < 0.1 ? dead : p < 0.95 ? mid : perfect)++;
      }
      degree_total += degree;
    }
    const auto lc = c.tb->link_classes();
    EXPECT_EQ(lc.connected_pairs, connected);
    EXPECT_EQ(lc.frac_dead, dead / static_cast<double>(connected));
    EXPECT_EQ(lc.frac_mid, mid / static_cast<double>(connected));
    EXPECT_EQ(lc.frac_perfect, perfect / static_cast<double>(connected));
    EXPECT_EQ(c.tb->mean_degree(), degree_total / c.bf.n);
    EXPECT_EQ(c.tb->potential_links(), potential);
  }
}

TEST(SparseStoreEquality, NeighborViewsMatchTheMatrices) {
  for (const Case& c : cases()) {
    SCOPED_TRACE(c.name);
    const auto n = static_cast<phy::NodeId>(c.bf.n);
    for (phy::NodeId a = 0; a < n; ++a) {
      std::vector<phy::NodeId> conn, pot;
      for (phy::NodeId b = 0; b < n; ++b) {
        if (a == b) continue;
        if (c.bf.signal(a, b) >= c.bf.floor) conn.push_back(b);
        if (c.bf.potential_link(a, b)) pot.push_back(b);
      }
      const auto conn_view = c.tb->connected_neighbors(a);
      const auto pot_view = c.tb->potential_neighbors(a);
      ASSERT_TRUE(std::equal(conn.begin(), conn.end(), conn_view.begin(),
                             conn_view.end()));
      ASSERT_TRUE(std::equal(pot.begin(), pot.end(), pot_view.begin(),
                             pot_view.end()));
    }
  }
}

TEST(SparseStoreEquality, SparseStoreHoldsOnlyConnectedPairs) {
  for (const Case& c : cases()) {
    SCOPED_TRACE(c.name);
    EXPECT_EQ(c.tb->stored_links(), c.bf.connected.size());
    EXPECT_EQ(static_cast<int>(c.tb->stored_links()),
              c.tb->link_classes().connected_pairs);
  }
}

TEST(SparseStore, ReferenceModeAlsoAgrees) {
  // The lazy path must reproduce the per-pair Monte-Carlo substreams too,
  // on a building no other case shares (so nothing is memoized yet).
  TestbedConfig cfg;
  cfg.num_nodes = 24;
  cfg.seed = 5;
  cfg.measurement.mode = MeasurementMode::kReference;
  const Testbed tb(cfg);
  const BruteForce bf = brute_force(tb);
  std::vector<std::pair<phy::NodeId, phy::NodeId>> potential;
  for (phy::NodeId a = 0; a < 24; ++a) {
    for (phy::NodeId b = 0; b < 24; ++b) {
      if (a == b) continue;
      ASSERT_EQ(tb.prr(a, b), bf.prr(a, b)) << a << "->" << b;
      ASSERT_EQ(tb.signal_dbm(a, b), bf.signal(a, b)) << a << "->" << b;
      if (bf.potential_link(a, b)) potential.emplace_back(a, b);
    }
  }
  EXPECT_EQ(tb.potential_links(), potential);
}

TEST(SparseStore, ThreadedMeasurementIsIdentical) {
  TestbedConfig base;
  base.num_nodes = 30;
  base.seed = 3;
  Testbed one(base);
  TestbedConfig threaded = base;
  threaded.measurement.threads = 4;
  Testbed four(threaded);
  EXPECT_EQ(one.stored_links(), four.stored_links());
  for (phy::NodeId a = 0; a < 30; ++a) {
    for (phy::NodeId b = 0; b < 30; ++b) {
      if (a == b) continue;
      ASSERT_EQ(one.prr(a, b), four.prr(a, b));
      ASSERT_EQ(one.signal_dbm(a, b), four.signal_dbm(a, b));
    }
  }
}

// ---- Brute-force oracle for the metro-style pass ----
//
// metro_10k's 3-sigma guard drops pairs beyond the candidate radius, so
// this oracle applies the same radius: every pair within it by exact
// distance, kept when its exact rx_power_dbm clears the floor. The pass
// rejects most of those candidates on a cheap bound first; it must store
// exactly this set.

// metro_10k's building at a reduced node count and the same density.
TestbedConfig metro_like(int nodes) {
  TestbedConfig cfg =
      *scenario::ScenarioRegistry::global().at("metro_10k").testbed;
  const double scale = std::sqrt(static_cast<double>(nodes) / cfg.num_nodes);
  cfg.num_nodes = nodes;
  cfg.width_m *= scale;
  cfg.height_m *= scale;
  return cfg;
}

LinkMeasurementResult brute_force_sparse(
    const LinkMeasurement& m, const phy::PropagationModel& prop,
    const std::vector<phy::Position>& pos) {
  const LinkMeasurementSpec& spec = m.spec();
  const double floor = spec.delivery_floor_dbm;
  const double radius = phy::max_candidate_range_m(
      prop, spec.radio.tx_power_dbm, floor, spec.config.sparse_guard_sigmas);
  LinkMeasurementResult r;
  r.row_begin.push_back(0);
  for (std::size_t i = 0; i < pos.size(); ++i) {
    const auto a = static_cast<phy::NodeId>(i);
    for (std::size_t j = 0; j < pos.size(); ++j) {
      if (i == j || phy::distance(pos[i], pos[j]) > radius) continue;
      const auto b = static_cast<phy::NodeId>(j);
      const double s =
          prop.rx_power_dbm(spec.radio.tx_power_dbm, a, b, pos[i], pos[j]);
      if (s < floor) continue;
      r.dst.push_back(b);
      r.link_prr.push_back(m.measure_one(a, b, pos[i], pos[j]).first);
      r.link_signal.push_back(s);
    }
    r.row_begin.push_back(static_cast<std::uint32_t>(r.dst.size()));
  }
  r.connected_signals = r.link_signal;
  std::sort(r.connected_signals.begin(), r.connected_signals.end());
  r.p10 = percentile_of(r.connected_signals, 10.0);
  r.p90 = percentile_of(r.connected_signals, 90.0);
  return r;
}

class MetroOracle : public ::testing::TestWithParam<MeasurementMode> {};

TEST_P(MetroOracle, SparsePassStoresExactlyTheBruteForceSet) {
  TestbedConfig cfg = metro_like(2000);
  cfg.seed = 17;
  cfg.measurement.mode = GetParam();
  const Testbed tb(cfg);
  std::vector<phy::Position> pos;
  for (int i = 0; i < tb.size(); ++i) pos.push_back(tb.position(i));

  const LinkMeasurement oracle_m(spec_of(cfg), tb.propagation(),
                                 tb.error_model());
  const LinkMeasurementResult want =
      brute_force_sparse(oracle_m, *tb.propagation(), pos);
  ASSERT_GT(want.dst.size(), 10u * pos.size());  // a few dozen per node

  for (const int threads : {1, 4}) {
    SCOPED_TRACE(threads);
    TestbedConfig tcfg = cfg;
    tcfg.measurement.threads = threads;
    const LinkMeasurement m(spec_of(tcfg), tb.propagation(), tb.error_model());
    const LinkMeasurementResult got = m.measure(pos);
    EXPECT_EQ(got.row_begin, want.row_begin);
    EXPECT_EQ(got.dst, want.dst);
    EXPECT_EQ(got.link_prr, want.link_prr);
    EXPECT_EQ(got.link_signal, want.link_signal);
    EXPECT_EQ(got.connected_signals, want.connected_signals);
    EXPECT_EQ(got.p10, want.p10);
    EXPECT_EQ(got.p90, want.p90);
  }

  // The Testbed serves the same CSR through its public views.
  EXPECT_EQ(tb.stored_links(), want.dst.size());
  for (phy::NodeId a = 0; a < static_cast<phy::NodeId>(tb.size()); ++a) {
    const auto row = tb.connected_neighbors(a);
    ASSERT_EQ(row.size(), want.row_begin[a + 1] - want.row_begin[a]);
    for (std::size_t k = 0; k < row.size(); ++k) {
      const std::size_t w = want.row_begin[a] + k;
      ASSERT_EQ(row[k], want.dst[w]);
      ASSERT_EQ(tb.prr(a, row[k]), want.link_prr[w]);
      ASSERT_EQ(tb.signal_dbm(a, row[k]), want.link_signal[w]);
    }
  }
  EXPECT_EQ(tb.signal_percentile(10.0), want.p10);
  EXPECT_EQ(tb.signal_percentile(90.0), want.p90);
}

INSTANTIATE_TEST_SUITE_P(Modes, MetroOracle,
                         ::testing::Values(MeasurementMode::kFast,
                                           MeasurementMode::kReference),
                         [](const auto& info) {
                           return info.param == MeasurementMode::kFast
                                      ? "Fast"
                                      : "Reference";
                         });

// ---- Golden digest of the full metro_10k link table ----

class Fnv1a {
 public:
  void add(std::uint64_t v) {
    for (int k = 0; k < 8; ++k) {
      h_ = (h_ ^ ((v >> (8 * k)) & 0xff)) * 0x100000001b3ull;
    }
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

// Every stored link (row lengths, dst, PRR and signal bits), every
// potential link and the 10th/90th signal percentiles.
std::uint64_t metro_digest(std::uint64_t seed) {
  TestbedConfig cfg =
      *scenario::ScenarioRegistry::global().at("metro_10k").testbed;
  cfg.seed = seed;
  const Testbed tb(cfg);
  Fnv1a h;
  h.add(static_cast<std::uint64_t>(tb.size()));
  for (phy::NodeId a = 0; a < static_cast<phy::NodeId>(tb.size()); ++a) {
    const auto row = tb.connected_neighbors(a);
    h.add(static_cast<std::uint64_t>(row.size()));
    for (const phy::NodeId b : row) {
      h.add(static_cast<std::uint64_t>(b));
      h.add(tb.prr(a, b));
      h.add(tb.signal_dbm(a, b));
    }
  }
  h.add(static_cast<std::uint64_t>(tb.potential_links().size()));
  for (const auto& [a, b] : tb.potential_links()) {
    h.add(static_cast<std::uint64_t>(a) << 32 | b);
  }
  h.add(tb.signal_percentile(10.0));
  h.add(tb.signal_percentile(90.0));
  return h.value();
}

// Recorded with the measurement pass that computed every candidate's exact
// power and PRR, before the pass learned to reject candidates on a bound.
TEST(MetroGolden, Seed0LinkTableDigest) {
  EXPECT_EQ(metro_digest(0), 0xaa3defe58074a173ull);
}

TEST(MetroGolden, Seed1000LinkTableDigest) {
  EXPECT_EQ(metro_digest(1000), 0xbf82944ac29ca6caull);
}

}  // namespace
}  // namespace cmap::testbed
