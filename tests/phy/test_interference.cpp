#include "phy/interference.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "phy/units.h"
#include "sim/random.h"

namespace cmap::phy {
namespace {

std::shared_ptr<const Frame> make_frame(std::uint64_t id, std::size_t bytes) {
  Frame f;
  f.id = id;
  f.segments = {{SegmentKind::kWhole, bytes}};
  return std::make_shared<const Frame>(std::move(f));
}

Signal make_signal(std::uint64_t id, double power_dbm, sim::Time start,
                   sim::Time end, std::size_t bytes = 1400) {
  Signal s;
  s.frame = make_frame(id, bytes);
  s.power_mw = dbm_to_mw(power_dbm);
  s.start = start;
  s.end = end;
  return s;
}

constexpr double kNoiseDbm = -94.0;

// Brute-force oracles over the whole history: the summed and the strongest
// power of the signals on the air at `t`, for any `t`.
double total_power_mw(const InterferenceTracker& t, sim::Time at) {
  double total = 0.0;
  for (const auto& s : t.signals()) {
    if (s.start <= at && s.end > at) total += s.power_mw;
  }
  return total;
}

double max_power_mw(const InterferenceTracker& t, sim::Time at) {
  double best = 0.0;
  for (const auto& s : t.signals()) {
    if (s.start <= at && s.end > at) best = std::max(best, s.power_mw);
  }
  return best;
}

TEST(Interference, SinrAgainstNoiseOnly) {
  InterferenceTracker t(dbm_to_mw(kNoiseDbm));
  t.add(make_signal(1, -80.0, 0, 1000));
  // SINR = -80 - (-94) = 14 dB.
  EXPECT_NEAR(linear_to_db(t.min_sinr(1, 0, 1000)), 14.0, 0.01);
}

TEST(Interference, ConcurrentSignalDegradesSinr) {
  InterferenceTracker t(dbm_to_mw(kNoiseDbm));
  t.add(make_signal(1, -80.0, 0, 1000));
  t.add(make_signal(2, -80.0, 0, 1000));
  // Equal-power interferer dominates noise: SINR ~ 0 dB.
  EXPECT_NEAR(linear_to_db(t.min_sinr(1, 0, 1000)), 0.0, 0.2);
}

TEST(Interference, PartialOverlapOnlyAffectsOverlap) {
  InterferenceTracker t(dbm_to_mw(kNoiseDbm));
  t.add(make_signal(1, -80.0, 0, 1000));
  t.add(make_signal(2, -80.0, 500, 1500));
  // Worst chunk has the interferer; clean prefix has 14 dB.
  EXPECT_NEAR(linear_to_db(t.min_sinr(1, 0, 1000)), 0.0, 0.2);
  EXPECT_NEAR(linear_to_db(t.min_sinr(1, 0, 500)), 14.0, 0.01);
}

TEST(Interference, ChunkedSuccessWithThresholdModel) {
  InterferenceTracker t(dbm_to_mw(kNoiseDbm));
  ThresholdErrorModel model(3.0);
  t.add(make_signal(1, -80.0, 0, 1000));
  t.add(make_signal(2, -80.0, 500, 700));
  // Collided chunk is below threshold -> whole window fails.
  EXPECT_DOUBLE_EQ(
      t.evaluate(1, 0, 1000, 8000, WifiRate::k6Mbps, model, 1.0).success_prob,
      0.0);
  // Window that avoids the collision passes.
  EXPECT_DOUBLE_EQ(
      t.evaluate(1, 0, 500, 4000, WifiRate::k6Mbps, model, 1.0).success_prob,
      1.0);
  EXPECT_DOUBLE_EQ(
      t.evaluate(1, 700, 1000, 2400, WifiRate::k6Mbps, model, 1.0)
          .success_prob,
      1.0);
}

TEST(Interference, MultipleInterferersSumInLinearDomain) {
  InterferenceTracker t(dbm_to_mw(-200.0));  // negligible noise
  t.add(make_signal(1, -80.0, 0, 1000));
  t.add(make_signal(2, -83.0, 0, 1000));
  t.add(make_signal(3, -83.0, 0, 1000));
  // Two interferers at -83 dBm sum to -80 dBm -> SINR 0 dB.
  EXPECT_NEAR(linear_to_db(t.min_sinr(1, 0, 1000)), 0.0, 0.05);
}

TEST(Interference, SinrScaleActsAsImplementationLoss) {
  InterferenceTracker t(dbm_to_mw(kNoiseDbm));
  ThresholdErrorModel model(3.0);
  t.add(make_signal(1, -90.0, 0, 1000));  // SINR 4 dB
  EXPECT_DOUBLE_EQ(
      t.evaluate(1, 0, 1000, 100, WifiRate::k6Mbps, model, 1.0).success_prob,
      1.0);
  // With 2 dB implementation loss the effective SINR drops below threshold.
  EXPECT_DOUBLE_EQ(
      t.evaluate(1, 0, 1000, 100, WifiRate::k6Mbps, model, db_to_linear(2.0))
          .success_prob,
      0.0);
}

TEST(Interference, PruneIsLazyBelowTheCompactionThreshold) {
  InterferenceTracker t(dbm_to_mw(kNoiseDbm));
  t.add(make_signal(1, -80.0, 0, 100));
  t.add(make_signal(2, -80.0, 0, 5000));
  t.prune(1000);
  // Amortized contract: with only a handful of signals the expired one may
  // linger in signals()...
  EXPECT_EQ(t.signals().size(), 2u);
  // ...but every query is time-windowed, so it cannot affect results.
  EXPECT_NEAR(mw_to_dbm(total_power_mw(t, 2000)), -80.0, 0.01);
  EXPECT_NEAR(linear_to_db(t.min_sinr(2, 1000, 5000)), 14.0, 0.01);
}

TEST(Interference, PruneCompactsOnceGrownAndDropsOnlyExpiredSignals) {
  InterferenceTracker t(dbm_to_mw(kNoiseDbm));
  t.add(make_signal(1, -80.0, 0, 100));  // will expire
  t.add(make_signal(2, -80.0, 0, 5000));
  for (std::uint64_t i = 0; i < 18; ++i) {
    t.add(make_signal(3 + i, -80.0, 1500, 5000));
  }
  t.prune(1000);
  EXPECT_EQ(t.signals().size(), 19u);
  for (const auto& s : t.signals()) {
    EXPECT_NE(s.frame->id, 1u);
  }
}

TEST(Interference, FramelessSignalCountsAsInterference) {
  // Regression: evaluate() used to dereference s.frame->id without the
  // null guard that find() applies, crashing on raw-energy signals.
  InterferenceTracker t(dbm_to_mw(-200.0));  // negligible noise
  t.add(make_signal(1, -80.0, 0, 1000));
  Signal noise;
  noise.frame = nullptr;
  noise.power_mw = dbm_to_mw(-80.0);
  noise.start = 0;
  noise.end = 1000;
  t.add(noise);
  // Equal-power frameless interferer: SINR ~ 0 dB.
  EXPECT_NEAR(linear_to_db(t.min_sinr(1, 0, 1000)), 0.0, 0.05);
  NistErrorModel model;
  const auto swept = t.evaluate(1, 0, 1000, 8000, WifiRate::k6Mbps, model, 1.0);
  const auto brute = evaluate_reference(t, 1, 0, 1000, 8000, WifiRate::k6Mbps,
                                        model, 1.0);
  EXPECT_NEAR(swept.success_prob, brute.success_prob, 1e-12);
  EXPECT_NEAR(swept.min_sinr, brute.min_sinr, brute.min_sinr * 1e-12);
}

TEST(Interference, SweptEvaluatorMatchesBruteForceOnRandomSignalSets) {
  sim::Rng rng(123);
  NistErrorModel model;
  const sim::Time window_end = 1'000'000;
  for (int trial = 0; trial < 60; ++trial) {
    InterferenceTracker t(dbm_to_mw(kNoiseDbm));
    t.add(make_signal(1, -70.0, 0, window_end));
    const int n = 1 + trial % 40;
    for (int i = 0; i < n; ++i) {
      const sim::Time start = rng.uniform_int(-200'000, 950'000);
      const sim::Time len = rng.uniform_int(1, 500'000);
      t.add(make_signal(2 + static_cast<std::uint64_t>(i),
                        rng.uniform(-95.0, -72.0), start, start + len));
    }
    const auto swept =
        t.evaluate(1, 0, window_end, 11200, WifiRate::k6Mbps, model, 1.0);
    const auto brute = evaluate_reference(t, 1, 0, window_end, 11200,
                                          WifiRate::k6Mbps, model, 1.0);
    // The running interference sum accumulates in a different order than
    // the per-interval rescan, so allow ULP-scale slack.
    EXPECT_NEAR(swept.success_prob, brute.success_prob,
                1e-9 * (1.0 + brute.success_prob))
        << "trial " << trial;
    EXPECT_NEAR(swept.min_sinr, brute.min_sinr, 1e-9 * brute.min_sinr)
        << "trial " << trial;
  }
}

TEST(Interference, TotalAndMaxPowerTrackActiveSignals) {
  InterferenceTracker t(dbm_to_mw(kNoiseDbm));
  t.add(make_signal(1, -80.0, 0, 1000));
  t.add(make_signal(2, -77.0, 500, 1500));
  EXPECT_NEAR(mw_to_dbm(total_power_mw(t, 250)), -80.0, 0.01);
  EXPECT_NEAR(mw_to_dbm(max_power_mw(t, 750)), -77.0, 0.01);
  const double both = dbm_to_mw(-80.0) + dbm_to_mw(-77.0);
  EXPECT_NEAR(total_power_mw(t, 750), both, both * 1e-9);
  // A signal is inactive exactly at its end time.
  EXPECT_NEAR(mw_to_dbm(total_power_mw(t, 1000)), -77.0, 0.01);
}

TEST(Interference, CarrierPowerMatchesHistoryScanBitForBit) {
  // The active set must add the very same doubles in the very same order as
  // a scan of the history, or an energy-detect comparison could flip.
  sim::Rng rng(77);
  for (int trial = 0; trial < 20; ++trial) {
    InterferenceTracker t(dbm_to_mw(kNoiseDbm));
    sim::Time now = 0;
    std::uint64_t next_id = 1;
    for (int step = 0; step < 400; ++step) {
      now += rng.uniform_int(0, 40'000);
      // Deliveries arrive at their start time, as from the medium.
      const int arrivals = static_cast<int>(rng.uniform_int(0, 3));
      for (int i = 0; i < arrivals; ++i) {
        t.add(make_signal(next_id++, rng.uniform(-95.0, -60.0), now,
                          now + rng.uniform_int(1, 2'000'000)));
      }
      t.expire(now);
      const CarrierPower p = t.carrier_power(now);
      ASSERT_EQ(p.max_mw, max_power_mw(t, now)) << trial << "/" << step;
      ASSERT_EQ(p.total_mw, total_power_mw(t, now)) << trial << "/" << step;
    }
  }
}

TEST(Interference, CarrierPowerCountsOnlySignalsAlreadyStarted) {
  InterferenceTracker t(dbm_to_mw(kNoiseDbm));
  t.add(make_signal(1, -80.0, 0, 1000));
  t.add(make_signal(2, -77.0, 500, 1500));
  EXPECT_EQ(t.carrier_power(250).total_mw, dbm_to_mw(-80.0));
  EXPECT_EQ(t.carrier_power(750).max_mw, dbm_to_mw(-77.0));
  // A signal is inactive exactly at its end time.
  EXPECT_EQ(t.carrier_power(1000).total_mw, dbm_to_mw(-77.0));
  EXPECT_EQ(t.carrier_power(1500).max_mw, 0.0);
}

TEST(Interference, AirtimeBoundPruningLeavesEveryResultUnchanged) {
  // Two trackers fed the same radio-shaped signal stream: one expires its
  // history at the airtime bound before every add, the other keeps all of
  // it. Every window evaluated at or after the current time lies inside
  // its target signal, and both must agree on it exactly.
  sim::Rng rng(4242);
  NistErrorModel model;
  InterferenceTracker pruned(dbm_to_mw(kNoiseDbm));
  InterferenceTracker full(dbm_to_mw(kNoiseDbm));
  struct Live {
    std::uint64_t id;
    sim::Time start;
    sim::Time end;
  };
  std::vector<Live> live;
  sim::Time now = 0;
  std::uint64_t next_id = 1;
  int evaluated = 0;
  for (int step = 0; step < 3000; ++step) {
    now += rng.uniform_int(0, 60'000);
    std::erase_if(live, [now](const Live& l) { return l.end < now; });
    if (rng.uniform() < 0.6) {
      const sim::Time len = rng.uniform_int(20'000, 2'500'000);
      const Signal s = make_signal(next_id, rng.uniform(-92.0, -60.0), now,
                                   now + len);
      pruned.expire(now);
      pruned.add(s);
      full.add(s);
      live.push_back({next_id++, now, now + len});
    }
    for (const Live& l : live) {
      // A window inside the target that a radio could still evaluate: it
      // ends no earlier than now.
      const sim::Time begin = rng.uniform_int(l.start, l.end);
      const sim::Time end = rng.uniform_int(std::max(begin, now), l.end);
      const auto a = pruned.evaluate(l.id, begin, end, 8000,
                                     WifiRate::k6Mbps, model, 1.0);
      const auto b = full.evaluate(l.id, begin, end, 8000, WifiRate::k6Mbps,
                                   model, 1.0);
      ASSERT_EQ(a.success_prob, b.success_prob) << step;
      ASSERT_EQ(a.min_sinr, b.min_sinr) << step;
      ASSERT_EQ(pruned.min_sinr(l.id, l.start, l.end),
                full.min_sinr(l.id, l.start, l.end))
          << step;
      ++evaluated;
    }
  }
  EXPECT_GT(evaluated, 1000);
  // The bound did real work: the pruned history is a small fraction.
  EXPECT_LT(pruned.signals().size() * 10, full.signals().size());
}

TEST(Interference, EvaluateIsDeterministic) {
  InterferenceTracker t(dbm_to_mw(kNoiseDbm));
  NistErrorModel model;
  t.add(make_signal(1, -88.0, 0, 1000));
  t.add(make_signal(2, -90.0, 300, 800));
  const auto a =
      t.evaluate(1, 0, 1000, 8000, WifiRate::k6Mbps, model, 1.0);
  const auto b =
      t.evaluate(1, 0, 1000, 8000, WifiRate::k6Mbps, model, 1.0);
  EXPECT_DOUBLE_EQ(a.success_prob, b.success_prob);
  EXPECT_DOUBLE_EQ(a.min_sinr, b.min_sinr);
}

TEST(Interference, SuccessProbDropsWithOverlapFraction) {
  NistErrorModel model;
  double prev = 1.0;
  for (sim::Time overlap : {0, 200, 400, 600, 800, 1000}) {
    InterferenceTracker t(dbm_to_mw(kNoiseDbm));
    t.add(make_signal(1, -88.0, 0, 1000));
    if (overlap > 0) t.add(make_signal(2, -88.0, 0, overlap));
    const double s =
        t.evaluate(1, 0, 1000, 11200, WifiRate::k6Mbps, model, 1.0)
            .success_prob;
    EXPECT_LE(s, prev + 1e-12);
    prev = s;
  }
}

}  // namespace
}  // namespace cmap::phy
