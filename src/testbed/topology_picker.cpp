#include "testbed/topology_picker.h"

#include <algorithm>
#include <climits>

namespace cmap::testbed {
namespace {

/// Sample up to `count` elements uniformly without replacement. A
/// non-positive count yields an empty sample (casting a negative count to
/// size_t used to silently select the whole pool).
template <typename T>
std::vector<T> sample(std::vector<T> pool, int count, sim::Rng& rng) {
  if (count <= 0) return {};
  // Partial Fisher-Yates.
  const std::size_t want =
      std::min<std::size_t>(pool.size(), static_cast<std::size_t>(count));
  for (std::size_t i = 0; i < want; ++i) {
    const auto j = static_cast<std::size_t>(
        rng.uniform_int(static_cast<std::int64_t>(i),
                        static_cast<std::int64_t>(pool.size()) - 1));
    std::swap(pool[i], pool[j]);
  }
  pool.resize(want);
  return pool;
}

bool distinct4(phy::NodeId a, phy::NodeId b, phy::NodeId c, phy::NodeId d) {
  return a != b && a != c && a != d && b != c && b != d && c != d;
}

}  // namespace

std::vector<LinkPair> TopologyPicker::exposed_pairs(int count,
                                                    sim::Rng& rng) const {
  // Both flows need a strong link; filtering once keeps the pool order.
  std::vector<std::pair<phy::NodeId, phy::NodeId>> strong;
  for (const auto& [s, r] : potential_links()) {
    if (tb_.strong_signal(s, r)) strong.emplace_back(s, r);
  }
  std::vector<LinkPair> pool;
  for (const auto& [s1, r1] : strong) {
    for (const auto& [s2, r2] : strong) {
      if (!distinct4(s1, r1, s2, r2)) continue;
      if (s2 < s1) continue;  // unordered pair of links: avoid mirrors
      if (!tb_.in_range(s1, s2)) continue;
      // "Signal strength between all other pairs of nodes is somewhat
      // weak": both directions of every non-flow pair below the 90th
      // percentile.
      const phy::NodeId quad[4] = {s1, r1, s2, r2};
      bool weak = true;
      for (int i = 0; i < 4 && weak; ++i) {
        for (int j = 0; j < 4 && weak; ++j) {
          if (i == j) continue;
          const bool is_flow = (quad[i] == s1 && quad[j] == r1) ||
                               (quad[i] == s2 && quad[j] == r2);
          if (is_flow) continue;
          if (tb_.strong_signal(quad[i], quad[j])) weak = false;
        }
      }
      if (!weak) continue;
      pool.push_back(LinkPair{s1, r1, s2, r2});
    }
  }
  return sample(std::move(pool), count, rng);
}

std::vector<LinkPair> TopologyPicker::in_range_pairs(int count,
                                                     sim::Rng& rng) const {
  const auto& links = potential_links();
  std::vector<LinkPair> pool;
  for (const auto& [s1, r1] : links) {
    for (const auto& [s2, r2] : links) {
      if (!distinct4(s1, r1, s2, r2)) continue;
      if (s2 < s1) continue;
      if (!tb_.in_range(s1, s2)) continue;
      pool.push_back(LinkPair{s1, r1, s2, r2});
    }
  }
  return sample(std::move(pool), count, rng);
}

std::vector<LinkPair> TopologyPicker::hidden_pairs(int count,
                                                   sim::Rng& rng) const {
  const auto& links = potential_links();
  std::vector<LinkPair> pool;
  for (const auto& [s1, r1] : links) {
    for (const auto& [s2, r2] : links) {
      if (!distinct4(s1, r1, s2, r2)) continue;
      if (s2 < s1) continue;
      if (tb_.in_range(s1, s2)) continue;  // senders must NOT hear each other
      // Each receiver decodes both senders cleanly in isolation, so the
      // two transmissions almost always collide at the receivers.
      if (!tb_.potential_link(s2, r1) || !tb_.potential_link(s1, r2)) continue;
      pool.push_back(LinkPair{s1, r1, s2, r2});
    }
  }
  return sample(std::move(pool), count, rng);
}

std::optional<ApScenario> TopologyPicker::ap_scenario(int n_aps,
                                                      sim::Rng& rng) const {
  // Partition the floor into a 3x2 grid of regions (paper: six regions,
  // one AP each, APs mutually out of communication range).
  const double w = tb_.config().width_m / 3.0;
  const double h = tb_.config().height_m / 2.0;
  std::vector<std::vector<phy::NodeId>> regions(6);
  for (phy::NodeId id = 0; id < static_cast<phy::NodeId>(tb_.size()); ++id) {
    const auto& p = tb_.position(id);
    const int cx = std::min(2, static_cast<int>(p.x / w));
    const int cy = std::min(1, static_cast<int>(p.y / h));
    regions[cy * 3 + cx].push_back(id);
  }
  // Use adjacent regions when fewer than six APs (paper §5.6).
  static const int kAdjacentOrder[6] = {0, 1, 2, 3, 4, 5};
  std::vector<int> chosen_regions;
  for (int k = 0; k < n_aps && k < 6; ++k) {
    chosen_regions.push_back(kAdjacentOrder[k]);
  }

  // Randomized search for APs (pairwise out of range) with clients.
  for (int attempt = 0; attempt < 200; ++attempt) {
    ApScenario sc;
    bool ok = true;
    for (int region : chosen_regions) {
      const auto& nodes = regions[region];
      if (nodes.empty()) {
        ok = false;
        break;
      }
      // Try a few AP candidates in this region.
      phy::NodeId ap = 0;
      std::vector<phy::NodeId> clients;
      bool found = false;
      for (int t = 0; t < 10 && !found; ++t) {
        ap = nodes[rng.uniform_int(0, static_cast<std::int64_t>(nodes.size()) -
                                          1)];
        bool clear = true;
        for (const auto& cell : sc.cells) {
          if (tb_.in_range(ap, cell.ap)) {
            clear = false;
            break;
          }
        }
        if (!clear) continue;
        clients.clear();
        for (phy::NodeId c : nodes) {
          if (c != ap && tb_.potential_link(ap, c)) clients.push_back(c);
        }
        if (!clients.empty()) found = true;
      }
      if (!found) {
        ok = false;
        break;
      }
      ApScenario::Cell cell;
      cell.ap = ap;
      cell.client = clients[rng.uniform_int(
          0, static_cast<std::int64_t>(clients.size()) - 1)];
      cell.downlink = rng.bernoulli(0.5);
      sc.cells.push_back(cell);
    }
    if (ok && static_cast<int>(sc.cells.size()) == n_aps) return sc;
  }
  return std::nullopt;
}

std::optional<MeshScenario> TopologyPicker::mesh_scenario(
    int width, sim::Rng& rng) const {
  const auto n = static_cast<phy::NodeId>(tb_.size());
  for (int attempt = 0; attempt < 400; ++attempt) {
    MeshScenario sc;
    sc.s = static_cast<phy::NodeId>(rng.uniform_int(0, n - 1));
    // First-hop forwarders: potential links from S. The CSR row is exactly
    // the ids the old 0..n scan accepted, in the same ascending order, so
    // the sample() draws below see an identical stream.
    const auto s_neighbors = tb_.potential_neighbors(sc.s);
    std::vector<phy::NodeId> as(s_neighbors.begin(), s_neighbors.end());
    if (static_cast<int>(as.size()) < width) continue;
    as = sample(std::move(as), width, rng);
    bool ok = true;
    std::vector<phy::NodeId> used = {sc.s};
    used.insert(used.end(), as.begin(), as.end());
    for (phy::NodeId a : as) {
      // Dissemination pushes content *outward*: pick the forwarding target
      // whose SINR margin over the other participants is largest. On the
      // paper's floor this happened naturally ("frequently, one or more of
      // the Ais were exposed terminals", §5.7); our denser neighbourhoods
      // need the explicit preference.
      phy::NodeId best = n;  // invalid
      double best_margin = -1e9;
      // Ascending potential-neighbor walk == the old filtered 0..n scan:
      // the jitter draw happens for exactly the same candidates in the
      // same order, keeping scenario draws byte-identical.
      for (const phy::NodeId b : tb_.potential_neighbors(a)) {
        if (std::find(used.begin(), used.end(), b) != used.end()) continue;
        double worst_foreign = -200.0;
        for (phy::NodeId u : used) {
          if (u == a) continue;
          worst_foreign = std::max(worst_foreign, tb_.signal_dbm(u, b));
        }
        const double margin = tb_.signal_dbm(a, b) - worst_foreign;
        // Small deterministic jitter keeps scenarios diverse across draws.
        const double jitter = rng.uniform(0.0, 3.0);
        if (margin + jitter > best_margin) {
          best_margin = margin + jitter;
          best = b;
        }
      }
      if (best == n) {
        ok = false;
        break;
      }
      sc.a.push_back(a);
      sc.b.push_back(best);
      used.push_back(best);
    }
    if (ok) return sc;
  }
  return std::nullopt;
}

std::vector<Triple> TopologyPicker::interferer_triples(int count,
                                                       sim::Rng& rng) const {
  const auto& links = potential_links();
  if (links.empty() || count <= 0) return {};
  std::vector<Triple> out;
  const auto n = static_cast<phy::NodeId>(tb_.size());
  // Bounded rejection sampling: on a degenerate testbed (e.g. two nodes,
  // where every candidate interferer equals s or r) the unbounded loop
  // never terminated. Return what was found within the attempt budget.
  const int max_attempts = count * 100;
  for (int attempt = 0;
       attempt < max_attempts && static_cast<int>(out.size()) < count;
       ++attempt) {
    const auto& [s, r] =
        links[rng.uniform_int(0, static_cast<std::int64_t>(links.size()) - 1)];
    const auto i = static_cast<phy::NodeId>(rng.uniform_int(0, n - 1));
    if (i == s || i == r) continue;
    out.push_back(Triple{s, r, i});
  }
  return out;
}

}  // namespace cmap::testbed
