#include "phy/medium.h"

#include <gtest/gtest.h>

#include <tuple>

#include "dynamics/channel.h"
#include "phy_test_util.h"
#include "sim/time.h"

namespace cmap::phy {
namespace {

using testing::World;

std::shared_ptr<const NistErrorModel> nist() {
  return std::make_shared<NistErrorModel>();
}

TEST(Medium, PropagationDelayMatchesDistance) {
  World w(nist());
  Radio& a = w.add_radio(1, {0, 0});
  w.add_radio(2, {300, 0});  // 300 m -> ~1 us
  sim::Time rx_start = -1;

  class StartListener : public testing::RecordingListener {
   public:
    explicit StartListener(sim::Simulator& s, sim::Time* t) : sim_(s), t_(t) {}
    void on_rx_start(const Frame& f, sim::Time end) override {
      RecordingListener::on_rx_start(f, end);
      *t_ = sim_.now();
    }
    sim::Simulator& sim_;
    sim::Time* t_;
  } listener(w.simulator(), &rx_start);
  w.radio(1).set_listener(&listener);

  w.simulator().at(0, [&] { a.transmit(World::whole_frame(100)); });
  w.simulator().run();
  // Lock decision happens at preamble end: delay + 20 us.
  const double expected_delay_ns = 300.0 / 2.99792458e8 * 1e9;
  ASSERT_GE(rx_start, 0);
  EXPECT_NEAR(static_cast<double>(rx_start),
              expected_delay_ns + 20e3, 30.0);
}

TEST(Medium, NoFadingIsDeterministicAcrossRuns) {
  auto run_once = [] {
    World w(nist());
    Radio& a = w.add_radio(1, {0, 0});
    w.add_radio(2, {320, 0});  // marginal link
    for (int i = 0; i < 50; ++i) {
      w.simulator().at(i * sim::milliseconds(2),
                       [&] { a.transmit(World::whole_frame(1400)); });
    }
    w.simulator().run();
    return w.radio(1).counters().rx_ok;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Medium, MeanRxPowerIsDirectional) {
  World w(nist());
  w.add_radio(1, {0, 0});
  w.add_radio(2, {50, 0});
  // Friis is symmetric; both directions match at equal tx power.
  EXPECT_DOUBLE_EQ(w.medium().mean_rx_power_dbm(1, 2),
                   w.medium().mean_rx_power_dbm(2, 1));
}

TEST(Medium, FrameIdsAreUniqueAndMonotone) {
  World w(nist());
  Radio& a = w.add_radio(1, {0, 0});
  w.add_radio(2, {50, 0});
  const sim::Time gap = frame_airtime(WifiRate::k6Mbps, 100) + 1000;
  for (int i = 0; i < 3; ++i) {
    w.simulator().at(i * gap, [&] { a.transmit(World::whole_frame(100)); });
  }
  w.simulator().run();
  const auto& ends = w.listener(1).rx_ends;
  ASSERT_EQ(ends.size(), 3u);
  EXPECT_LT(ends[0].frame.id, ends[1].frame.id);
  EXPECT_LT(ends[1].frame.id, ends[2].frame.id);
}

TEST(Medium, RadioLookupById) {
  World w(nist());
  w.add_radio(7, {0, 0});
  w.add_radio(9, {10, 0});
  EXPECT_EQ(w.medium().radio(7)->id(), 7u);
  EXPECT_EQ(w.medium().radio(9)->id(), 9u);
  EXPECT_EQ(w.medium().radio(42), nullptr);
}

TEST(Medium, GainCacheMatchesPropagationModel) {
  World w(nist());  // gain cache on by default
  Radio& a = w.add_radio(1, {0, 0});
  Radio& b = w.add_radio(2, {120, 35});
  const double direct = w.medium().propagation().rx_power_dbm(
      a.config().tx_power_dbm, 1, 2, a.position(), b.position());
  EXPECT_DOUBLE_EQ(w.medium().mean_rx_power_dbm(1, 2), direct);
}

TEST(Medium, GainCacheInvalidatedOnPositionChange) {
  World w(nist());
  Radio& a = w.add_radio(1, {0, 0});
  Radio& b = w.add_radio(2, {100, 0});
  const double before = w.medium().mean_rx_power_dbm(1, 2);
  b.set_position({10, 0});
  const double direct = w.medium().propagation().rx_power_dbm(
      a.config().tx_power_dbm, 1, 2, a.position(), b.position());
  EXPECT_DOUBLE_EQ(w.medium().mean_rx_power_dbm(1, 2), direct);
  EXPECT_GT(w.medium().mean_rx_power_dbm(1, 2), before);
}

TEST(Medium, CullingSkipsRadiosBelowTheDeliveryFloor) {
  // Fading off -> no guard band; culling is exact.
  World w(nist());
  Radio& a = w.add_radio(1, {0, 0});
  w.add_radio(2, {100, 0});      // well inside the floor
  w.add_radio(3, {500'000, 0});  // hopeless: far below the delivery floor
  EXPECT_EQ(w.medium().fanout_candidates(1), 1u);
  EXPECT_EQ(w.medium().fanout_candidates(3), 0u);
  w.simulator().at(0, [&] { a.transmit(World::whole_frame(100)); });
  w.simulator().run();
  EXPECT_EQ(w.listener(1).rx_starts.size(), 1u);  // radio 2 locked
  EXPECT_TRUE(w.listener(2).rx_starts.empty());   // radio 3 heard nothing
  EXPECT_TRUE(w.radio(2).interference().signals().empty());
}

TEST(Medium, ReachabilityFollowsPositionChanges) {
  World w(nist());
  w.add_radio(1, {0, 0});
  Radio& b = w.add_radio(2, {500'000, 0});
  EXPECT_EQ(w.medium().fanout_candidates(1), 0u);
  b.set_position({50, 0});
  EXPECT_EQ(w.medium().fanout_candidates(1), 1u);
  b.set_position({500'000, 0});
  EXPECT_EQ(w.medium().fanout_candidates(1), 0u);
}

TEST(Medium, FastAndReferencePathsProduceIdenticalOutcomes) {
  // With per-(frame, receiver) fading substreams, the cached/culled path
  // must reproduce the brute-force path delivery for delivery.
  auto run_once = [](bool fast_path) {
    MediumConfig mcfg;  // fading ON (default sigma 2 dB)
    if (!fast_path) mcfg.link_state = LinkStateMode::kDenseReference;
    World w(nist(), mcfg);
    Radio& a = w.add_radio(1, {0, 0});
    w.add_radio(2, {320, 0});      // marginal link, fading decides
    w.add_radio(3, {150, 40});     // solid link
    w.add_radio(4, {900'000, 0});  // culled under the fast path
    for (int i = 0; i < 80; ++i) {
      w.simulator().at(i * sim::milliseconds(2),
                       [&] { a.transmit(World::whole_frame(1400)); });
    }
    w.simulator().run();
    return std::tuple{w.radio(1).counters().locks, w.radio(1).counters().rx_ok,
                      w.radio(2).counters().locks, w.radio(2).counters().rx_ok,
                      w.listener(3).rx_starts.size()};
  };
  EXPECT_EQ(run_once(true), run_once(false));
}

// ---- Incremental cache invalidation (MediumConfig::incremental_invalidation)

// Counts propagation queries — the observable cost of a cache refresh.
class CountingPropagation final : public PropagationModel {
 public:
  double rx_power_dbm(double tx_power_dbm, NodeId from, NodeId to,
                      const Position& from_pos,
                      const Position& to_pos) const override {
    ++calls;
    return inner_.rx_power_dbm(tx_power_dbm, from, to, from_pos, to_pos);
  }
  mutable std::uint64_t calls = 0;

 private:
  FriisPropagation inner_;
};

// A bare medium over a counting model, radios placed on a line.
struct CountingWorld {
  explicit CountingWorld(int n, MediumConfig mcfg = World::NoFadingConfig())
      : propagation(std::make_shared<CountingPropagation>()),
        medium(sim, propagation, mcfg, sim::Rng(7)) {
    auto error = std::make_shared<NistErrorModel>();
    for (int i = 0; i < n; ++i) {
      radios.push_back(std::make_unique<Radio>(
          sim, medium, static_cast<NodeId>(i),
          Position{40.0 * i, 10.0 * (i % 3)}, RadioConfig{}, error,
          sim::Rng(500 + i)));
    }
  }

  sim::Simulator sim;
  std::shared_ptr<CountingPropagation> propagation;
  Medium medium;
  std::vector<std::unique_ptr<Radio>> radios;
};

TEST(MediumInvalidate, IncrementalMoveRecomputesOnlyTheMoversRowsAndColumns) {
  constexpr int kNodes = 9;
  CountingWorld w(kNodes);
  w.propagation->calls = 0;
  w.radios[4]->set_position({123, 17});
  // One outbound and one inbound link per other radio — nothing else.
  EXPECT_EQ(w.propagation->calls, 2u * (kNodes - 1));
}

TEST(MediumInvalidate, FullRebuildReferenceRecomputesEveryPair) {
  constexpr int kNodes = 9;
  MediumConfig mcfg = World::NoFadingConfig();
  mcfg.incremental_invalidation = false;
  CountingWorld w(kNodes, mcfg);
  w.propagation->calls = 0;
  w.radios[4]->set_position({123, 17});
  EXPECT_EQ(w.propagation->calls,
            static_cast<std::uint64_t>(kNodes) * (kNodes - 1));
}

TEST(MediumInvalidate, InterleavedMovesMatchTheFullRebuildReference) {
  // Same move sequence against an incremental medium and a full-rebuild
  // medium: every cached gain and every reachability set must stay
  // bit-identical after each move — the invariant the sweep-level golden
  // test relies on.
  constexpr int kNodes = 12;
  MediumConfig ref_cfg = World::NoFadingConfig();
  ref_cfg.incremental_invalidation = false;
  CountingWorld fast(kNodes);
  CountingWorld ref(kNodes, ref_cfg);
  sim::Rng moves(99);
  for (int m = 0; m < 40; ++m) {
    const auto who = static_cast<std::size_t>(moves.uniform_int(0, kNodes - 1));
    const Position p{moves.uniform(0.0, 400.0), moves.uniform(0.0, 50.0)};
    fast.radios[who]->set_position(p);
    ref.radios[who]->set_position(p);
    for (int a = 0; a < kNodes; ++a) {
      ASSERT_EQ(fast.medium.fanout_candidates(static_cast<NodeId>(a)),
                ref.medium.fanout_candidates(static_cast<NodeId>(a)))
          << "after move " << m << " source " << a;
      for (int b = 0; b < kNodes; ++b) {
        if (a == b) continue;
        ASSERT_EQ(fast.medium.mean_rx_power_dbm(static_cast<NodeId>(a),
                                                static_cast<NodeId>(b)),
                  ref.medium.mean_rx_power_dbm(static_cast<NodeId>(a),
                                               static_cast<NodeId>(b)))
            << "after move " << m << " link " << a << "->" << b;
      }
    }
  }
}

TEST(MediumInvalidate, MovedMediumMatchesAFreshBuildAtFinalPositions) {
  constexpr int kNodes = 10;
  CountingWorld moved(kNodes);
  sim::Rng moves(3);
  std::vector<Position> final_pos;
  for (int i = 0; i < kNodes; ++i) final_pos.push_back(moved.radios[i]->position());
  for (int m = 0; m < 25; ++m) {
    const auto who = static_cast<std::size_t>(moves.uniform_int(0, kNodes - 1));
    const Position p{moves.uniform(0.0, 500.0), moves.uniform(0.0, 60.0)};
    moved.radios[who]->set_position(p);
    final_pos[who] = p;
  }
  CountingWorld fresh(0);
  auto error = std::make_shared<NistErrorModel>();
  for (int i = 0; i < kNodes; ++i) {
    fresh.radios.push_back(std::make_unique<Radio>(
        fresh.sim, fresh.medium, static_cast<NodeId>(i), final_pos[i],
        RadioConfig{}, error, sim::Rng(500 + i)));
  }
  for (int a = 0; a < kNodes; ++a) {
    EXPECT_EQ(moved.medium.fanout_candidates(static_cast<NodeId>(a)),
              fresh.medium.fanout_candidates(static_cast<NodeId>(a)));
    for (int b = 0; b < kNodes; ++b) {
      if (a == b) continue;
      EXPECT_EQ(moved.medium.mean_rx_power_dbm(static_cast<NodeId>(a),
                                               static_cast<NodeId>(b)),
                fresh.medium.mean_rx_power_dbm(static_cast<NodeId>(a),
                                               static_cast<NodeId>(b)));
    }
  }
}

TEST(MediumInvalidate, RefreshAllReconcilesAChangedChannel) {
  // refresh_all() exists for channel-epoch steps: the model's answers
  // change underneath the cache, and one full refresh restores coherence.
  class Shiftable final : public PropagationModel {
   public:
    double rx_power_dbm(double tx_power_dbm, NodeId from, NodeId to,
                        const Position& from_pos,
                        const Position& to_pos) const override {
      return inner_.rx_power_dbm(tx_power_dbm, from, to, from_pos, to_pos) +
             shift_db;
    }
    double shift_db = 0.0;

   private:
    FriisPropagation inner_;
  };
  sim::Simulator sim;
  auto prop = std::make_shared<Shiftable>();
  Medium medium(sim, prop, World::NoFadingConfig(), sim::Rng(7));
  auto error = std::make_shared<NistErrorModel>();
  Radio a(sim, medium, 1, {0, 0}, RadioConfig{}, error, sim::Rng(1));
  Radio b(sim, medium, 2, {80, 0}, RadioConfig{}, error, sim::Rng(2));
  const double before = medium.mean_rx_power_dbm(1, 2);
  prop->shift_db = -7.0;
  EXPECT_DOUBLE_EQ(medium.mean_rx_power_dbm(1, 2), before);  // stale cache
  medium.refresh_all();
  EXPECT_DOUBLE_EQ(medium.mean_rx_power_dbm(1, 2), before - 7.0);
}

// ---- Sparse link state (LinkStateMode::kSparse) ----

MediumConfig SparseNoFadingConfig() {
  MediumConfig m = World::NoFadingConfig();
  m.link_state = LinkStateMode::kSparse;
  return m;
}

TEST(MediumSparse, SparseAndDenseAgreeAfterInterleavedMoves) {
  // Same build + move sequence against a sparse medium and the dense
  // cached reference: every fan-out count and every pair gain must match.
  // CountingPropagation has no range bound, so the sparse path runs its
  // degenerate all-candidates fallback — membership logic still applies.
  constexpr int kNodes = 12;
  CountingWorld sparse(kNodes, SparseNoFadingConfig());
  CountingWorld dense(kNodes);
  sim::Rng moves(17);
  for (int m = 0; m < 40; ++m) {
    const auto who = static_cast<std::size_t>(moves.uniform_int(0, kNodes - 1));
    const Position p{moves.uniform(0.0, 400.0), moves.uniform(0.0, 50.0)};
    sparse.radios[who]->set_position(p);
    dense.radios[who]->set_position(p);
    for (int a = 0; a < kNodes; ++a) {
      ASSERT_EQ(sparse.medium.fanout_candidates(static_cast<NodeId>(a)),
                dense.medium.fanout_candidates(static_cast<NodeId>(a)))
          << "after move " << m << " source " << a;
      for (int b = 0; b < kNodes; ++b) {
        if (a == b) continue;
        ASSERT_EQ(sparse.medium.mean_rx_power_dbm(static_cast<NodeId>(a),
                                                  static_cast<NodeId>(b)),
                  dense.medium.mean_rx_power_dbm(static_cast<NodeId>(a),
                                                 static_cast<NodeId>(b)))
            << "after move " << m << " link " << a << "->" << b;
      }
    }
  }
}

// Friis with a range bound AND call counting: lets tests assert the
// spatial index keeps far pairs from ever being computed.
class BoundedCountingPropagation final : public PropagationModel {
 public:
  double rx_power_dbm(double tx_power_dbm, NodeId from, NodeId to,
                      const Position& from_pos,
                      const Position& to_pos) const override {
    ++calls;
    return inner_.rx_power_dbm(tx_power_dbm, from, to, from_pos, to_pos);
  }
  double rx_power_bound_dbm(double tx_power_dbm, double distance_m,
                            double guard_sigmas) const override {
    return inner_.rx_power_bound_dbm(tx_power_dbm, distance_m, guard_sigmas);
  }
  mutable std::uint64_t calls = 0;

 private:
  FriisPropagation inner_;
};

TEST(MediumSparse, BoundedModelNeverComputesCrossClusterGains) {
  // Two 6-node clusters ~1e6 m apart: with a range-bounded model the
  // spatial index must keep every cross-cluster pair out of the candidate
  // sets, so attaching all 12 radios costs only within-cluster queries.
  sim::Simulator sim;
  auto prop = std::make_shared<BoundedCountingPropagation>();
  Medium medium(sim, prop, SparseNoFadingConfig(), sim::Rng(7));
  auto error = std::make_shared<NistErrorModel>();
  std::vector<std::unique_ptr<Radio>> radios;
  for (int i = 0; i < 12; ++i) {
    const double base_x = i < 6 ? 0.0 : 1.0e6;
    radios.push_back(std::make_unique<Radio>(
        sim, medium, static_cast<NodeId>(i),
        Position{base_x + 30.0 * (i % 6), 12.0 * (i % 3)}, RadioConfig{},
        error, sim::Rng(500 + i)));
  }
  EXPECT_TRUE(std::isfinite(medium.candidate_radius_m()));
  // 2 clusters x 6*5 directed within-cluster pairs; nothing else.
  EXPECT_EQ(prop->calls, 2u * 30u);
  for (int a = 0; a < 12; ++a) {
    EXPECT_EQ(medium.fanout_candidates(static_cast<NodeId>(a)), 5u) << a;
  }
  // Off-grid queries still answer (computed directly, not cached).
  EXPECT_LT(medium.mean_rx_power_dbm(0, 11), -150.0);
}

TEST(MediumSparse, MovedSparseMediumMatchesAFreshSparseBuild) {
  constexpr int kNodes = 10;
  sim::Simulator sim;
  auto prop = std::make_shared<BoundedCountingPropagation>();
  Medium moved(sim, prop, SparseNoFadingConfig(), sim::Rng(7));
  auto error = std::make_shared<NistErrorModel>();
  std::vector<std::unique_ptr<Radio>> radios;
  std::vector<Position> final_pos;
  for (int i = 0; i < kNodes; ++i) {
    final_pos.push_back({45.0 * i, 8.0 * (i % 4)});
    radios.push_back(std::make_unique<Radio>(sim, moved,
                                             static_cast<NodeId>(i),
                                             final_pos.back(), RadioConfig{},
                                             error, sim::Rng(500 + i)));
  }
  sim::Rng mv(3);
  for (int m = 0; m < 30; ++m) {
    const auto who = static_cast<std::size_t>(mv.uniform_int(0, kNodes - 1));
    final_pos[who] = {mv.uniform(0.0, 900.0), mv.uniform(0.0, 80.0)};
    radios[who]->set_position(final_pos[who]);
  }
  Medium fresh(sim, prop, SparseNoFadingConfig(), sim::Rng(7));
  std::vector<std::unique_ptr<Radio>> fresh_radios;
  for (int i = 0; i < kNodes; ++i) {
    fresh_radios.push_back(std::make_unique<Radio>(
        sim, fresh, static_cast<NodeId>(i), final_pos[i], RadioConfig{},
        error, sim::Rng(500 + i)));
  }
  for (int a = 0; a < kNodes; ++a) {
    EXPECT_EQ(moved.fanout_candidates(static_cast<NodeId>(a)),
              fresh.fanout_candidates(static_cast<NodeId>(a)));
    for (int b = 0; b < kNodes; ++b) {
      if (a == b) continue;
      EXPECT_EQ(moved.mean_rx_power_dbm(static_cast<NodeId>(a),
                                        static_cast<NodeId>(b)),
                fresh.mean_rx_power_dbm(static_cast<NodeId>(a),
                                        static_cast<NodeId>(b)));
    }
  }
}

TEST(MediumSparse, EpochRefreshTracksDynamicShadowingViaWatchLists) {
  // A time-varying channel: below-floor links sit on watch lists and are
  // only re-evaluated once the AR(1) epoch-delta bound says they could
  // have crossed the cull floor. Over many epochs the sparse medium must
  // stay in exact agreement with the dense cached reference, including
  // links that cross the floor in either direction.
  constexpr int kNodes = 14;
  dynamics::ChannelConfig cc;
  cc.sigma_db = 4.0;
  cc.correlation = 0.7;
  cc.seed = 42;
  auto make_world = [&](LinkStateMode mode) {
    auto base = std::make_shared<LogDistanceShadowing>();
    auto model = std::make_shared<dynamics::DynamicShadowing>(base, cc);
    MediumConfig mcfg = World::NoFadingConfig();
    mcfg.link_state = mode;
    auto w = std::make_unique<World>(nist(), mcfg, model);
    sim::Rng place(11);
    for (int i = 0; i < kNodes; ++i) {
      // Spread so plenty of pair gains straddle the delivery floor.
      w->add_radio(static_cast<NodeId>(i),
                   {place.uniform(0.0, 260.0), place.uniform(0.0, 260.0)});
    }
    return std::pair{std::move(w), std::move(model)};
  };
  auto [sparse_w, sparse_ch] = make_world(LinkStateMode::kSparse);
  auto [dense_w, dense_ch] = make_world(LinkStateMode::kDenseCached);
  bool saw_watch = false;
  for (int epoch = 0; epoch < 12; ++epoch) {
    sparse_ch->advance_epoch();
    dense_ch->advance_epoch();
    sparse_w->medium().refresh_all();
    dense_w->medium().refresh_all();
    saw_watch |= sparse_w->medium().watch_entries() > 0;
    for (int a = 0; a < kNodes; ++a) {
      ASSERT_EQ(sparse_w->medium().fanout_candidates(static_cast<NodeId>(a)),
                dense_w->medium().fanout_candidates(static_cast<NodeId>(a)))
          << "epoch " << epoch << " source " << a;
      for (int b = 0; b < kNodes; ++b) {
        if (a == b) continue;
        ASSERT_DOUBLE_EQ(
            sparse_w->medium().mean_rx_power_dbm(static_cast<NodeId>(a),
                                                 static_cast<NodeId>(b)),
            dense_w->medium().mean_rx_power_dbm(static_cast<NodeId>(a),
                                                static_cast<NodeId>(b)))
            << "epoch " << epoch << " link " << a << "->" << b;
      }
    }
  }
  // The scenario is only interesting if the watch machinery engaged.
  EXPECT_TRUE(saw_watch);
}

TEST(MediumSparse, StaticModelKeepsNoWatchLists) {
  // With a static propagation model nothing can ever cross the floor, so
  // below-floor candidates are discarded outright — the property that
  // keeps 10k-node static worlds at active-links-only memory.
  World w(nist(), SparseNoFadingConfig());
  w.add_radio(1, {0, 0});
  w.add_radio(2, {320, 0});
  w.add_radio(3, {3000, 0});
  EXPECT_EQ(w.medium().watch_entries(), 0u);
}

TEST(MediumSparse, SparseAndReferenceDeliveriesAreIdenticalWithFading) {
  // Full-stack check: the sparse fan-out must reproduce the brute-force
  // reference frame for frame (per-(frame, receiver) fading substreams
  // make culling invisible to every surviving delivery).
  auto run_once = [](LinkStateMode mode) {
    MediumConfig mcfg;  // fading ON (default sigma 2 dB)
    mcfg.link_state = mode;
    World w(nist(), mcfg);
    Radio& a = w.add_radio(1, {0, 0});
    w.add_radio(2, {320, 0});      // marginal link, fading decides
    w.add_radio(3, {150, 40});     // solid link
    w.add_radio(4, {900'000, 0});  // culled under the sparse path
    for (int i = 0; i < 80; ++i) {
      w.simulator().at(i * sim::milliseconds(2),
                       [&] { a.transmit(World::whole_frame(1400)); });
    }
    w.simulator().run();
    return std::tuple{w.radio(1).counters().locks, w.radio(1).counters().rx_ok,
                      w.radio(2).counters().locks, w.radio(2).counters().rx_ok,
                      w.listener(3).rx_starts.size()};
  };
  EXPECT_EQ(run_once(LinkStateMode::kSparse),
            run_once(LinkStateMode::kDenseReference));
}

class FadingSigmaSweep : public ::testing::TestWithParam<int> {};

TEST_P(FadingSigmaSweep, WiderFadingWidensOutcomeSpread) {
  // Property: on a marginal link, the spread between per-frame outcomes
  // grows (or at least does not vanish) as fading sigma increases.
  MediumConfig mcfg;
  mcfg.fading_sigma_db = static_cast<double>(GetParam());
  World w(nist(), mcfg);
  Radio& a = w.add_radio(1, {0, 0});
  w.add_radio(2, {330, 0});
  const int frames = 150;
  for (int i = 0; i < frames; ++i) {
    w.simulator().at(i * sim::milliseconds(2),
                     [&] { a.transmit(World::whole_frame(1400)); });
  }
  w.simulator().run();
  const auto& c = w.radio(1).counters();
  if (GetParam() == 0) {
    // Deterministic channel: all frames share one fate modulo the error
    // model's own randomness; just sanity-check accounting.
    EXPECT_EQ(c.locks, c.rx_ok + c.rx_corrupt);
  } else {
    EXPECT_GT(c.locks, 0u);
  }
  EXPECT_LE(c.rx_ok + c.rx_corrupt, static_cast<std::uint64_t>(frames));
}

INSTANTIATE_TEST_SUITE_P(Sigmas, FadingSigmaSweep, ::testing::Values(0, 3, 8));

}  // namespace
}  // namespace cmap::phy
