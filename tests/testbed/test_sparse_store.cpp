// The sparse pair-state store (MeasurementStore::kSparse) must be an
// invisible representation change: every query a dense-store testbed can
// answer — per-pair PRR/signal, percentiles, predicates, link statistics,
// the potential-link list — comes back identical from the sparse store,
// including lazily-answered pairs outside the stored CSR.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <set>

#include <gtest/gtest.h>

#include "phy/propagation.h"
#include "scenario/registry.h"
#include "testbed/measurement.h"
#include "testbed/testbed.h"

namespace cmap::testbed {
namespace {

TestbedConfig sparse_config(TestbedConfig cfg = {}) {
  cfg.measurement.store = MeasurementStore::kSparse;
  return cfg;
}

class SparseStoreEquality : public ::testing::Test {
 protected:
  // One building, both representations, shared across the suite's tests.
  static const Testbed& dense() {
    static Testbed tb{TestbedConfig{}};
    return tb;
  }
  static const Testbed& sparse_tb() {
    static Testbed tb{sparse_config()};
    return tb;
  }
};

TEST_F(SparseStoreEquality, EveryDirectedPairAgreesExactly) {
  const int n = dense().size();
  ASSERT_EQ(sparse_tb().size(), n);
  for (phy::NodeId a = 0; a < static_cast<phy::NodeId>(n); ++a) {
    for (phy::NodeId b = 0; b < static_cast<phy::NodeId>(n); ++b) {
      if (a == b) continue;
      ASSERT_EQ(sparse_tb().prr(a, b), dense().prr(a, b))
          << "prr " << a << "->" << b;
      ASSERT_EQ(sparse_tb().signal_dbm(a, b), dense().signal_dbm(a, b))
          << "signal " << a << "->" << b;
    }
  }
}

TEST_F(SparseStoreEquality, PercentilesAndPredicatesAgree) {
  for (const double p : {0.0, 10.0, 37.5, 50.0, 90.0, 100.0}) {
    EXPECT_EQ(sparse_tb().signal_percentile(p), dense().signal_percentile(p));
  }
  const int n = dense().size();
  for (phy::NodeId a = 0; a < static_cast<phy::NodeId>(n); ++a) {
    for (phy::NodeId b = 0; b < static_cast<phy::NodeId>(n); ++b) {
      if (a == b) continue;
      ASSERT_EQ(sparse_tb().in_range(a, b), dense().in_range(a, b));
      ASSERT_EQ(sparse_tb().potential_link(a, b), dense().potential_link(a, b));
      ASSERT_EQ(sparse_tb().strong_signal(a, b), dense().strong_signal(a, b));
    }
  }
}

TEST_F(SparseStoreEquality, AggregateStatisticsAgree) {
  const auto d = dense().link_classes();
  const auto s = sparse_tb().link_classes();
  EXPECT_EQ(s.connected_pairs, d.connected_pairs);
  EXPECT_EQ(s.frac_dead, d.frac_dead);
  EXPECT_EQ(s.frac_mid, d.frac_mid);
  EXPECT_EQ(s.frac_perfect, d.frac_perfect);
  EXPECT_EQ(sparse_tb().mean_degree(), dense().mean_degree());
  EXPECT_EQ(sparse_tb().potential_links(), dense().potential_links());
}

TEST_F(SparseStoreEquality, NeighborViewsMatchTheMatrices) {
  const int n = dense().size();
  const double floor = dense().config().medium.delivery_floor_dbm;
  for (const Testbed* tb : {&dense(), &sparse_tb()}) {
    for (phy::NodeId a = 0; a < static_cast<phy::NodeId>(n); ++a) {
      std::vector<phy::NodeId> conn, pot;
      for (phy::NodeId b = 0; b < static_cast<phy::NodeId>(n); ++b) {
        if (a == b) continue;
        if (tb->signal_dbm(a, b) >= floor) conn.push_back(b);
        if (tb->potential_link(a, b)) pot.push_back(b);
      }
      const auto conn_view = tb->connected_neighbors(a);
      const auto pot_view = tb->potential_neighbors(a);
      ASSERT_TRUE(std::equal(conn.begin(), conn.end(), conn_view.begin(),
                             conn_view.end()));
      ASSERT_TRUE(std::equal(pot.begin(), pot.end(), pot_view.begin(),
                             pot_view.end()));
    }
  }
}

TEST_F(SparseStoreEquality, SparseStoreHoldsOnlyConnectedPairs) {
  EXPECT_TRUE(sparse_tb().sparse());
  EXPECT_FALSE(dense().sparse());
  const int n = dense().size();
  EXPECT_EQ(static_cast<int>(sparse_tb().stored_links()),
            dense().link_classes().connected_pairs);
  EXPECT_LT(sparse_tb().stored_links(),
            static_cast<std::size_t>(n) * static_cast<std::size_t>(n - 1));
}

TEST(SparseStore, ReferenceModeAlsoAgrees) {
  // The lazy path must reproduce the per-pair Monte-Carlo substreams too.
  TestbedConfig cfg;
  cfg.num_nodes = 24;
  cfg.seed = 5;
  cfg.measurement.mode = MeasurementMode::kReference;
  Testbed d(cfg);
  Testbed s(sparse_config(cfg));
  for (phy::NodeId a = 0; a < 24; ++a) {
    for (phy::NodeId b = 0; b < 24; ++b) {
      if (a == b) continue;
      ASSERT_EQ(s.prr(a, b), d.prr(a, b)) << a << "->" << b;
      ASSERT_EQ(s.signal_dbm(a, b), d.signal_dbm(a, b)) << a << "->" << b;
    }
  }
  EXPECT_EQ(s.potential_links(), d.potential_links());
}

TEST(SparseStore, ThreadedMeasurementIsIdentical) {
  TestbedConfig base = sparse_config();
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

// ---- Brute-force oracle for the metro-style sparse pass ----
//
// metro_10k's 3-sigma guard has no dense twin, so the oracle is built here:
// every pair within the candidate radius by exact distance, kept when its
// exact rx_power_dbm clears the floor. The sparse pass rejects most of
// those candidates on a cheap bound first; it must store exactly this set.

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
      r.sparse_prr.push_back(m.measure_one(a, b, pos[i], pos[j]).first);
      r.sparse_signal.push_back(s);
    }
    r.row_begin.push_back(static_cast<std::uint32_t>(r.dst.size()));
  }
  r.connected_signals = r.sparse_signal;
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
    EXPECT_EQ(got.sparse_prr, want.sparse_prr);
    EXPECT_EQ(got.sparse_signal, want.sparse_signal);
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
      ASSERT_EQ(tb.prr(a, row[k]), want.sparse_prr[w]);
      ASSERT_EQ(tb.signal_dbm(a, row[k]), want.sparse_signal[w]);
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
