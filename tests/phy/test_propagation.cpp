#include "phy/propagation.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "dynamics/channel.h"
#include "sim/random.h"

namespace cmap::phy {
namespace {

TEST(Friis, DecaysTwentyDbPerDecade) {
  FriisPropagation p;
  const double at10 = p.rx_power_dbm(0.0, 0, 1, {0, 0}, {10, 0});
  const double at100 = p.rx_power_dbm(0.0, 0, 1, {0, 0}, {100, 0});
  EXPECT_NEAR(at10 - at100, 20.0, 1e-9);
}

TEST(Friis, ReferenceLossAt5GhzIsPlausible) {
  // FSPL at 1 m, 5.18 GHz is ~46.7 dB.
  FriisPropagation p;
  const double at1 = p.rx_power_dbm(0.0, 0, 1, {0, 0}, {1, 0});
  EXPECT_NEAR(at1, -46.7, 0.3);
}

TEST(Friis, ClampsBelowOneMeter) {
  FriisPropagation p;
  EXPECT_DOUBLE_EQ(p.rx_power_dbm(0.0, 0, 1, {0, 0}, {0.1, 0}),
                   p.rx_power_dbm(0.0, 0, 1, {0, 0}, {1.0, 0}));
}

TEST(Friis, TxPowerShiftsLinearly) {
  FriisPropagation p;
  const double lo = p.rx_power_dbm(0.0, 0, 1, {0, 0}, {25, 0});
  const double hi = p.rx_power_dbm(17.0, 0, 1, {0, 0}, {25, 0});
  EXPECT_NEAR(hi - lo, 17.0, 1e-9);
}

TEST(LogDistance, ExponentControlsSlope) {
  LogDistanceConfig cfg;
  cfg.exponent = 4.0;
  cfg.shadow_sigma_db = 0.0;
  cfg.asym_sigma_db = 0.0;
  LogDistanceShadowing p(cfg);
  const double at10 = p.rx_power_dbm(0.0, 0, 1, {0, 0}, {10, 0});
  const double at100 = p.rx_power_dbm(0.0, 0, 1, {0, 0}, {100, 0});
  EXPECT_NEAR(at10 - at100, 40.0, 1e-9);
}

TEST(LogDistance, ShadowingIsDeterministicPerPair) {
  LogDistanceShadowing p;
  const double a = p.rx_power_dbm(0.0, 3, 9, {0, 0}, {20, 0});
  const double b = p.rx_power_dbm(0.0, 3, 9, {0, 0}, {20, 0});
  EXPECT_DOUBLE_EQ(a, b);
}

TEST(LogDistance, SymmetricWhenAsymSigmaZero) {
  LogDistanceConfig cfg;
  cfg.asym_sigma_db = 0.0;
  LogDistanceShadowing p(cfg);
  const double ab = p.rx_power_dbm(0.0, 3, 9, {0, 0}, {20, 0});
  const double ba = p.rx_power_dbm(0.0, 9, 3, {20, 0}, {0, 0});
  EXPECT_DOUBLE_EQ(ab, ba);
}

TEST(LogDistance, AsymmetryBoundedByDirectionalSigma) {
  LogDistanceConfig cfg;
  cfg.asym_sigma_db = 2.0;
  LogDistanceShadowing p(cfg);
  // Directional components are N(0, 2 dB); difference of two is N(0, ~2.8).
  // A 6-sigma bound across 100 pairs should never trip.
  for (NodeId i = 0; i < 10; ++i) {
    for (NodeId j = i + 1; j < 10; ++j) {
      const double ab = p.rx_power_dbm(0.0, i, j, {0, 0}, {20, 0});
      const double ba = p.rx_power_dbm(0.0, j, i, {20, 0}, {0, 0});
      EXPECT_LT(std::abs(ab - ba), 17.0);
    }
  }
}

TEST(LogDistance, DifferentSeedsDifferentBuildings) {
  LogDistanceConfig c1;
  c1.seed = 1;
  LogDistanceConfig c2;
  c2.seed = 2;
  LogDistanceShadowing p1(c1), p2(c2);
  int same = 0;
  for (NodeId i = 0; i < 20; ++i) {
    const double a = p1.rx_power_dbm(0.0, i, i + 1, {0, 0}, {20, 0});
    const double b = p2.rx_power_dbm(0.0, i, i + 1, {0, 0}, {20, 0});
    same += std::abs(a - b) < 1e-9;
  }
  EXPECT_LT(same, 3);
}

TEST(LogDistance, ShadowingHasRoughlyConfiguredSpread) {
  LogDistanceConfig cfg;
  cfg.shadow_sigma_db = 8.0;
  cfg.asym_sigma_db = 0.0;
  LogDistanceShadowing p(cfg);
  // Sample many pairs at equal distance; stddev of rx power ~ 8 dB.
  double sum = 0, sq = 0;
  int n = 0;
  for (NodeId i = 0; i < 60; ++i) {
    for (NodeId j = i + 1; j < 60; ++j) {
      const double v = p.rx_power_dbm(0.0, i, j, {0, 0}, {20, 0});
      sum += v;
      sq += v * v;
      ++n;
    }
  }
  const double mean = sum / n;
  const double sd = std::sqrt(sq / n - mean * mean);
  EXPECT_NEAR(sd, 8.0, 1.2);
}

// ---- pair_rx_power_bound_dbm: the per-pair reject-first bound ----

TEST(PairBound, LogDistanceBoundNeverBelowExactPower) {
  // Random ids, positions and shadowing configs. Every fourth pair is drawn
  // within 1 m per axis, mostly under the 1 m distance clamp.
  sim::Rng rng(41);
  for (const double shadow : {8.0, 0.0, 3.5}) {
    for (const double asym : {2.0, 0.0, 6.0}) {
      LogDistanceConfig cfg;
      cfg.shadow_sigma_db = shadow;
      cfg.asym_sigma_db = asym;
      cfg.seed = rng.next_u64();
      const LogDistanceShadowing p(cfg);
      for (int k = 0; k < 100000; ++k) {
        const auto from = static_cast<NodeId>(rng.uniform_int(0, 1 << 20));
        const auto to = static_cast<NodeId>(rng.uniform_int(0, 1 << 20));
        const Position a{rng.uniform(-500.0, 500.0),
                         rng.uniform(-500.0, 500.0)};
        const double reach = k % 4 == 0 ? 1.0 : 300.0;
        const Position b{a.x + rng.uniform(-reach, reach),
                         a.y + rng.uniform(-reach, reach)};
        const double tx = rng.uniform(-10.0, 25.0);
        ASSERT_GE(p.pair_rx_power_bound_dbm(tx, from, to, a, b),
                  p.rx_power_dbm(tx, from, to, a, b))
            << from << "->" << to << " shadow " << shadow << " asym " << asym;
      }
    }
  }
}

TEST(PairBound, LogDistanceBoundRejectsMostPairsBelowAHighFloor) {
  // Dominance alone would admit +infinity. Against a floor two shadowing
  // sigmas above the mean power at 30 m, which ~98% of pairs miss, the
  // bound must reject most of those pairs outright.
  const LogDistanceShadowing p;
  const double sigma =
      std::hypot(p.config().shadow_sigma_db, p.config().asym_sigma_db);
  const double floor = p.rx_power_bound_dbm(0.0, 30.0, 0.0) + 2.0 * sigma;
  int missed = 0, rejected = 0;
  for (NodeId j = 1; j <= 20000; ++j) {
    if (p.rx_power_dbm(0.0, 0, j, {0, 0}, {30, 0}) >= floor) continue;
    ++missed;
    rejected += p.pair_rx_power_bound_dbm(0.0, 0, j, {0, 0}, {30, 0}) < floor;
  }
  EXPECT_GT(rejected, missed * 7 / 10) << rejected << " of " << missed;
}

TEST(PairBound, NegativeSigmaFallsBackToTheExactPower) {
  LogDistanceConfig cfg;
  cfg.shadow_sigma_db = -8.0;
  const LogDistanceShadowing p(cfg);
  for (NodeId j = 1; j < 200; ++j) {
    EXPECT_EQ(p.pair_rx_power_bound_dbm(15.0, 0, j, {0, 0}, {25, 3}),
              p.rx_power_dbm(15.0, 0, j, {0, 0}, {25, 3}));
  }
}

TEST(PairBound, DefaultIsTheExactPowerForFriisAndDynamicShadowing) {
  const FriisPropagation friis;
  dynamics::DynamicShadowing dynamic(std::make_shared<LogDistanceShadowing>(),
                                     dynamics::ChannelConfig{});
  dynamic.advance_epoch();  // a non-zero AR(1) offset on every pair
  sim::Rng rng(43);
  for (int k = 0; k < 2000; ++k) {
    const auto from = static_cast<NodeId>(rng.uniform_int(0, 500));
    const auto to = static_cast<NodeId>(rng.uniform_int(0, 500));
    const Position a{rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)};
    const Position b{rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)};
    EXPECT_EQ(friis.pair_rx_power_bound_dbm(15.0, from, to, a, b),
              friis.rx_power_dbm(15.0, from, to, a, b));
    EXPECT_EQ(dynamic.pair_rx_power_bound_dbm(15.0, from, to, a, b),
              dynamic.rx_power_dbm(15.0, from, to, a, b));
  }
}

}  // namespace
}  // namespace cmap::phy
