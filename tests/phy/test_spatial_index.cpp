// The uniform-grid spatial index must answer exactly the same neighbor
// sets a brute-force distance scan does — on random placements and on the
// adversarial ones (everything in one cell, one point per cell, points
// straddling cell boundaries), with membership tracking moves and
// removals. The sparse link-state paths build on these answers, so any
// discrepancy here becomes a silently-missing link there. Queries return
// grid order, not sorted order, so answers are compared as sorted copies.
#include "phy/spatial_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "sim/random.h"

namespace cmap::phy {
namespace {

std::vector<std::uint32_t> brute_force(const std::vector<Position>& pts,
                                       const std::vector<bool>& present,
                                       const Position& center, double radius) {
  std::vector<std::uint32_t> out;
  for (std::uint32_t i = 0; i < pts.size(); ++i) {
    if (present[i] && distance(pts[i], center) <= radius) out.push_back(i);
  }
  return out;  // ascending by construction
}

std::vector<std::uint32_t> sorted(std::vector<std::uint32_t> v) {
  std::sort(v.begin(), v.end());
  return v;
}

void expect_grid_matches_brute(const SpatialGrid& grid,
                               const std::vector<Position>& pts,
                               const std::vector<bool>& present,
                               const std::vector<double>& radii) {
  std::vector<std::uint32_t> got;
  for (std::uint32_t c = 0; c < pts.size(); ++c) {
    if (!present[c]) continue;
    for (const double r : radii) {
      grid.query(pts[c], r, &got);
      EXPECT_EQ(sorted(got), brute_force(pts, present, pts[c], r))
          << "center " << c << " radius " << r;
    }
  }
}

TEST(SpatialGrid, MatchesBruteForceOnRandomPlacements) {
  sim::Rng rng(7);
  std::vector<Position> pts;
  for (int i = 0; i < 200; ++i) {
    pts.push_back({rng.uniform(0.0, 100.0), rng.uniform(0.0, 60.0)});
  }
  const std::vector<bool> present(pts.size(), true);
  SpatialGrid grid(8.0);
  for (std::uint32_t i = 0; i < pts.size(); ++i) grid.insert(i, pts[i]);
  expect_grid_matches_brute(grid, pts, present, {0.0, 3.0, 8.0, 25.0, 500.0});
}

TEST(SpatialGrid, AllPointsInOneCell) {
  // Every point inside a single 100 m cell, including duplicates at the
  // exact same position (distance 0 must include co-located occupants).
  sim::Rng rng(11);
  std::vector<Position> pts;
  for (int i = 0; i < 40; ++i) {
    pts.push_back({rng.uniform(10.0, 12.0), rng.uniform(10.0, 12.0)});
  }
  pts.push_back(pts.front());
  const std::vector<bool> present(pts.size(), true);
  SpatialGrid grid(100.0);
  for (std::uint32_t i = 0; i < pts.size(); ++i) grid.insert(i, pts[i]);
  expect_grid_matches_brute(grid, pts, present, {0.0, 0.5, 1.0, 3.0});
}

TEST(SpatialGrid, OnePointPerCellIncludingNegativeCoordinates) {
  std::vector<Position> pts;
  for (int gx = -3; gx <= 3; ++gx) {
    for (int gy = -3; gy <= 3; ++gy) {
      pts.push_back({gx * 5.0 + 2.5, gy * 5.0 + 2.5});
    }
  }
  const std::vector<bool> present(pts.size(), true);
  SpatialGrid grid(5.0);
  for (std::uint32_t i = 0; i < pts.size(); ++i) grid.insert(i, pts[i]);
  expect_grid_matches_brute(grid, pts, present, {0.0, 5.0, 7.5, 12.0, 100.0});
}

TEST(SpatialGrid, BoundaryStraddlingPointsAndExactRadii) {
  // Points exactly on cell edges/corners, queried with radii exactly equal
  // to inter-point distances: the <= contract means ties are included.
  std::vector<Position> pts = {{0.0, 0.0}, {5.0, 0.0},  {0.0, 5.0},
                               {5.0, 5.0}, {10.0, 0.0}, {-5.0, 0.0},
                               {2.5, 2.5}, {5.0, 2.5}};
  const std::vector<bool> present(pts.size(), true);
  SpatialGrid grid(5.0);
  for (std::uint32_t i = 0; i < pts.size(); ++i) grid.insert(i, pts[i]);
  expect_grid_matches_brute(grid, pts, present,
                            {0.0, 2.5, 5.0, std::sqrt(50.0), 10.0});
  // Spot-check a tie: radius exactly 5 from the origin reaches (5,0),
  // (0,5), (-5,0) and the interior (2.5,2.5), but not (5,5).
  std::vector<std::uint32_t> got;
  grid.query({0.0, 0.0}, 5.0, &got);
  EXPECT_EQ(sorted(got), (std::vector<std::uint32_t>{0, 1, 2, 5, 6}));
}

TEST(SpatialGrid, InfiniteRadiusReturnsEveryone) {
  SpatialGrid grid(2.0);
  std::vector<Position> pts = {{0, 0}, {1e6, -1e6}, {-42.0, 7.0}};
  for (std::uint32_t i = 0; i < pts.size(); ++i) grid.insert(i, pts[i]);
  std::vector<std::uint32_t> got;
  grid.query({3.0, 3.0}, std::numeric_limits<double>::infinity(), &got);
  EXPECT_EQ(sorted(got), (std::vector<std::uint32_t>{0, 1, 2}));
}

TEST(SpatialGrid, MovesRebucketCorrectly) {
  sim::Rng rng(23);
  std::vector<Position> pts;
  for (int i = 0; i < 80; ++i) {
    pts.push_back({rng.uniform(0.0, 50.0), rng.uniform(0.0, 50.0)});
  }
  std::vector<bool> present(pts.size(), true);
  SpatialGrid grid(6.0);
  for (std::uint32_t i = 0; i < pts.size(); ++i) grid.insert(i, pts[i]);
  // Move half the points (some within their cell, some far away), checking
  // equivalence after every batch.
  for (int round = 0; round < 4; ++round) {
    for (std::uint32_t i = 0; i < pts.size(); i += 2) {
      const bool local = rng.bernoulli(0.5);
      pts[i] = local ? Position{pts[i].x + rng.uniform(-0.5, 0.5),
                                pts[i].y + rng.uniform(-0.5, 0.5)}
                     : Position{rng.uniform(-20.0, 70.0),
                                rng.uniform(-20.0, 70.0)};
      grid.move(i, pts[i]);
      EXPECT_DOUBLE_EQ(grid.position(i).x, pts[i].x);
      EXPECT_DOUBLE_EQ(grid.position(i).y, pts[i].y);
    }
    expect_grid_matches_brute(grid, pts, present, {4.0, 15.0});
  }
}

TEST(SpatialGrid, RemoveDropsMembership) {
  std::vector<Position> pts = {{0, 0}, {1, 1}, {2, 2}, {3, 3}};
  std::vector<bool> present(pts.size(), true);
  SpatialGrid grid(10.0);
  for (std::uint32_t i = 0; i < pts.size(); ++i) grid.insert(i, pts[i]);
  grid.remove(1);
  present[1] = false;
  EXPECT_EQ(grid.size(), 3u);
  EXPECT_FALSE(grid.contains(1));
  expect_grid_matches_brute(grid, pts, present, {10.0});
  // Re-inserting a removed index is allowed.
  grid.insert(1, {9.0, 9.0});
  pts[1] = {9.0, 9.0};
  present[1] = true;
  expect_grid_matches_brute(grid, pts, present, {2.0, 20.0});
}

}  // namespace
}  // namespace cmap::phy
