#include "phy/propagation.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "sim/random.h"

namespace cmap::phy {
namespace {

constexpr double kSpeedOfLight = 2.99792458e8;

double friis_ref_loss_db(double frequency_hz) {
  const double wavelength = kSpeedOfLight / frequency_hz;
  return 20.0 * std::log10(4.0 * M_PI / wavelength);  // loss at 1 m
}

}  // namespace

double max_candidate_range_m(const PropagationModel& model,
                             double tx_power_dbm, double min_rx_dbm,
                             double guard_sigmas) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // ~3x Earth's circumference: any model still clearing the floor out
  // here is effectively unbounded for our purposes.
  constexpr double kMaxRange = 1.0e8;
  const auto bound = [&](double d) {
    return model.rx_power_bound_dbm(tx_power_dbm, d, guard_sigmas);
  };
  if (bound(kMaxRange) >= min_rx_dbm) return kInf;  // also the default +inf
  if (bound(1.0) < min_rx_dbm) return 0.0;
  double lo = 1.0, hi = kMaxRange;  // bound(lo) >= floor > bound(hi)
  for (int it = 0; it < 200 && hi - lo > 1e-6 * hi; ++it) {
    const double mid = 0.5 * (lo + hi);
    (bound(mid) >= min_rx_dbm ? lo : hi) = mid;
  }
  // Conservative margin: a too-large radius only adds candidates.
  return hi * (1.0 + 1e-9) + 1e-6;
}

FriisPropagation::FriisPropagation(double frequency_hz)
    : ref_loss_db_(friis_ref_loss_db(frequency_hz)) {}

double FriisPropagation::rx_power_dbm(double tx_power_dbm, NodeId /*from*/,
                                      NodeId /*to*/, const Position& from_pos,
                                      const Position& to_pos) const {
  const double d = std::max(1.0, distance(from_pos, to_pos));
  return tx_power_dbm - ref_loss_db_ - 20.0 * std::log10(d);
}

double FriisPropagation::rx_power_bound_dbm(double tx_power_dbm,
                                            double distance_m,
                                            double /*guard_sigmas*/) const {
  const double d = std::max(1.0, distance_m);  // same clamp as rx_power_dbm
  return tx_power_dbm - ref_loss_db_ - 20.0 * std::log10(d);
}

LogDistanceShadowing::LogDistanceShadowing(LogDistanceConfig config)
    : config_(config), ref_loss_db_(friis_ref_loss_db(config.frequency_hz)) {}

double LogDistanceShadowing::path_loss_db(const Position& from_pos,
                                          const Position& to_pos) const {
  const double d = std::max(1.0, distance(from_pos, to_pos));
  return ref_loss_db_ + 10.0 * config_.exponent * std::log10(d);
}

std::uint64_t LogDistanceShadowing::pair_key(NodeId from, NodeId to) const {
  const NodeId lo = std::min(from, to);
  const NodeId hi = std::max(from, to);
  return config_.seed ^ (static_cast<std::uint64_t>(lo) << 32 | hi);
}

std::uint64_t LogDistanceShadowing::dir_key(NodeId from, NodeId to) const {
  return config_.seed ^ (static_cast<std::uint64_t>(from) << 32 | to) ^
         0x5bf03635u;
}

double LogDistanceShadowing::shadow_db(NodeId from, NodeId to) const {
  return config_.shadow_sigma_db * sim::hash_normal(pair_key(from, to)) +
         config_.asym_sigma_db * sim::hash_normal(dir_key(from, to));
}

double LogDistanceShadowing::rx_power_dbm(double tx_power_dbm, NodeId from,
                                          NodeId to, const Position& from_pos,
                                          const Position& to_pos) const {
  return tx_power_dbm - path_loss_db(from_pos, to_pos) + shadow_db(from, to);
}

double LogDistanceShadowing::pair_rx_power_bound_dbm(
    double tx_power_dbm, NodeId from, NodeId to, const Position& from_pos,
    const Position& to_pos) const {
  // A negative sigma flips a term's sign, and the bound only caps each
  // Gaussian from above.
  if (config_.shadow_sigma_db < 0.0 || config_.asym_sigma_db < 0.0) {
    return rx_power_dbm(tx_power_dbm, from, to, from_pos, to_pos);
  }
  // Rounding is monotone, so each term, their sum and the final sum stay
  // >= their exact-path twins. The margin absorbs any ulp-level difference
  // in how the compiler evaluates the two expressions.
  constexpr double kMarginDb = 1e-9;
  const double shadow_bound =
      config_.shadow_sigma_db * sim::hash_normal_bound(pair_key(from, to)) +
      config_.asym_sigma_db * sim::hash_normal_bound(dir_key(from, to));
  return tx_power_dbm - path_loss_db(from_pos, to_pos) + shadow_bound +
         kMarginDb;
}

double LogDistanceShadowing::rx_power_bound_dbm(double tx_power_dbm,
                                                double distance_m,
                                                double guard_sigmas) const {
  const double d = std::max(1.0, distance_m);  // same clamp as rx_power_dbm
  const double path_loss =
      ref_loss_db_ + 10.0 * config_.exponent * std::log10(d);
  return tx_power_dbm - path_loss +
         guard_sigmas * (config_.shadow_sigma_db + config_.asym_sigma_db);
}

}  // namespace cmap::phy
