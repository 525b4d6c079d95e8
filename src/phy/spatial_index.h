// Uniform-grid spatial index over radio positions: the one source of
// candidate-neighbor queries for the sparse link-state paths (Medium's
// sparse rows and the testbed's sparse measurement pass). Grown out of the
// grid-hashed placement loop the Testbed constructor uses — same idea
// (a point's neighbors within r live in a bounded cell neighborhood), but
// over an unbounded plane with membership that changes as nodes move.
//
// Entries are dense uint32 indices (Medium attach indices or testbed node
// ids), not pointers: callers own the objects; the grid only maps index ->
// position -> cell. Queries are exact (candidate cells are distance-
// filtered) and return indices in grid order: cell by cell, each cell in
// its membership order. That order is deterministic but unsorted, so
// consumers whose output depends on order sort what they keep (the sparse
// Medium inserts into dst-sorted rows, the measurement pass sorts each
// stored row), and neither pays to sort candidates it throws away.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "phy/types.h"

namespace cmap::phy {

class SpatialGrid {
 public:
  /// `cell_m` is the grid pitch; queries scan ceil(r / cell_m) + 1 cells
  /// per axis, so pitch ~= the typical query radius keeps the scan at a
  /// 3x3 neighborhood. Any positive pitch is correct.
  explicit SpatialGrid(double cell_m);

  /// Register `idx` at `pos`. An index may be inserted once until removed.
  void insert(std::uint32_t idx, const Position& pos);

  /// Re-bucket `idx` at its new position (the grid remembers the old one,
  /// so movers need not carry it).
  void move(std::uint32_t idx, const Position& pos);

  void remove(std::uint32_t idx);

  bool contains(std::uint32_t idx) const;

  /// Last inserted/moved position of `idx` (asserts on unknown indices).
  const Position& position(std::uint32_t idx) const;

  std::size_t size() const { return count_; }
  double cell_m() const { return cell_m_; }

  /// Append every registered index whose distance to `center` is
  /// <= `radius_m` (including `center`'s own occupants at distance 0) to
  /// `out`, in grid order (deterministic, not sorted). `out` is cleared
  /// first. An infinite radius returns every registered index — the
  /// degenerate full-scan fallback for propagation models that cannot
  /// bound their range.
  void query(const Position& center, double radius_m,
             std::vector<std::uint32_t>* out) const;

 private:
  // Cell coordinates can go negative (positions are unconstrained), so the
  // key packs two int32s.
  static std::uint64_t key_of(std::int32_t cx, std::int32_t cy);
  std::int32_t coord(double v) const;

  struct Entry {
    Position pos;
    bool present = false;
  };

  double cell_m_;
  std::size_t count_ = 0;
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> cells_;
  std::vector<Entry> entries_;  // indexed by idx
};

}  // namespace cmap::phy
