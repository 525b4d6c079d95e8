#include "phy/spatial_index.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "sim/assert.h"

namespace cmap::phy {

SpatialGrid::SpatialGrid(double cell_m) : cell_m_(cell_m) {
  CMAP_ASSERT(cell_m > 0.0, "spatial grid pitch must be positive");
}

std::uint64_t SpatialGrid::key_of(std::int32_t cx, std::int32_t cy) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(cx)) << 32) |
         static_cast<std::uint32_t>(cy);
}

std::int32_t SpatialGrid::coord(double v) const {
  return static_cast<std::int32_t>(std::floor(v / cell_m_));
}

void SpatialGrid::insert(std::uint32_t idx, const Position& pos) {
  if (entries_.size() <= idx) entries_.resize(idx + 1);
  CMAP_ASSERT(!entries_[idx].present, "index already in the spatial grid");
  entries_[idx] = Entry{pos, true};
  cells_[key_of(coord(pos.x), coord(pos.y))].push_back(idx);
  ++count_;
}

void SpatialGrid::move(std::uint32_t idx, const Position& pos) {
  CMAP_ASSERT(contains(idx), "move of an index not in the spatial grid");
  const Position old = entries_[idx].pos;
  const std::uint64_t old_key = key_of(coord(old.x), coord(old.y));
  const std::uint64_t new_key = key_of(coord(pos.x), coord(pos.y));
  entries_[idx].pos = pos;
  if (old_key == new_key) return;
  auto& bucket = cells_[old_key];
  bucket.erase(std::find(bucket.begin(), bucket.end(), idx));
  if (bucket.empty()) cells_.erase(old_key);
  cells_[new_key].push_back(idx);
}

void SpatialGrid::remove(std::uint32_t idx) {
  CMAP_ASSERT(contains(idx), "remove of an index not in the spatial grid");
  const Position& pos = entries_[idx].pos;
  const std::uint64_t key = key_of(coord(pos.x), coord(pos.y));
  auto& bucket = cells_[key];
  bucket.erase(std::find(bucket.begin(), bucket.end(), idx));
  if (bucket.empty()) cells_.erase(key);
  entries_[idx].present = false;
  --count_;
}

bool SpatialGrid::contains(std::uint32_t idx) const {
  return idx < entries_.size() && entries_[idx].present;
}

const Position& SpatialGrid::position(std::uint32_t idx) const {
  CMAP_ASSERT(contains(idx), "position of an index not in the spatial grid");
  return entries_[idx].pos;
}

void SpatialGrid::query(const Position& center, double radius_m,
                        std::vector<std::uint32_t>* out) const {
  out->clear();
  if (radius_m < 0.0) return;
  if (!std::isfinite(radius_m)) {
    for (std::uint32_t i = 0; i < entries_.size(); ++i) {
      if (entries_[i].present) out->push_back(i);
    }
    return;
  }
  const std::int32_t cx_lo = coord(center.x - radius_m);
  const std::int32_t cx_hi = coord(center.x + radius_m);
  const std::int32_t cy_lo = coord(center.y - radius_m);
  const std::int32_t cy_hi = coord(center.y + radius_m);
  for (std::int32_t cx = cx_lo; cx <= cx_hi; ++cx) {
    for (std::int32_t cy = cy_lo; cy <= cy_hi; ++cy) {
      const auto it = cells_.find(key_of(cx, cy));
      if (it == cells_.end()) continue;
      for (const std::uint32_t idx : it->second) {
        if (distance(entries_[idx].pos, center) <= radius_m) {
          out->push_back(idx);
        }
      }
    }
  }
}

}  // namespace cmap::phy
