// Structured results of a scenario sweep: one row per executed run, plus
// group-by accessors (scheme x variant), percentile distributions, and
// deterministic emitters (aligned table, JSON). The report is plain data —
// it does not depend on the testbed or scenario layers, so any harness can
// assemble one.
#pragma once

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "metrics/metrics.h"
#include "stats/summary.h"

namespace cmap::stats {

/// Per-flow measurements of one run (mirrors testbed::FlowResult, but as
/// plain data so the stats layer stays at the bottom of the dependency
/// graph).
struct FlowRow {
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  double mbps = 0.0;
  std::uint64_t unique_packets = 0;
  std::uint64_t duplicates = 0;
  // CMAP-only observability (zero under DCF schemes).
  std::uint64_t vps_sent = 0;
  std::uint64_t rx_vps_delim = 0;
  std::uint64_t rx_vps_header = 0;
  std::uint64_t defer_events = 0;
  std::uint64_t retx_timeouts = 0;
};

/// One executed run of a sweep cell.
struct RunRow {
  std::string scenario;
  std::string scheme;   // display name of the MAC scheme
  std::string variant;  // config-variant label; "" when the sweep has none
  int scheme_index = 0;
  int variant_index = 0;
  int topology_index = 0;  // which topology draw
  int replicate = 0;       // which seed replicate
  std::string topology;    // human-readable topology label
  std::uint64_t seed = 0;  // the fully mixed per-run seed
  double aggregate_mbps = 0.0;
  std::vector<FlowRow> flows;
  /// Scenario-specific named scalars, in a stable order.
  std::vector<std::pair<std::string, double>> metrics;
  /// The run's full metrics snapshot, when the sweep enabled metrics
  /// (nullptr otherwise). Deliberately excluded from print_table() and
  /// to_json(), which stay byte-identical with metrics on or off; emit it
  /// with print_metrics() / metrics_json().
  std::shared_ptr<const metrics::MetricsSnapshot> profile;

  /// Value of a named metric, or `fallback` when absent.
  double metric(const std::string& name, double fallback = 0.0) const;
};

class SweepReport {
 public:
  void add_row(RunRow row) { rows_.push_back(std::move(row)); }
  const std::vector<RunRow>& rows() const { return rows_; }
  bool empty() const { return rows_.empty(); }

  /// One (scheme, variant) cell of the sweep's comparison axes, in
  /// first-appearance (i.e. axis) order.
  struct Group {
    std::string scheme;
    std::string variant;
    std::string label() const;
  };
  std::vector<Group> groups() const;

  /// Distribution of aggregate goodput across a group's runs.
  Distribution aggregate(const std::string& scheme,
                         const std::string& variant = "") const;

  /// Distribution of a named run metric across a group's runs.
  Distribution metric(const std::string& name, const std::string& scheme,
                      const std::string& variant = "") const;

  /// Distribution of per-flow goodput across a group's runs.
  Distribution per_flow_mbps(const std::string& scheme,
                             const std::string& variant = "") const;

  /// The row of one sweep cell, or nullptr if it was dropped/not run.
  const RunRow* find(const std::string& scheme, int topology_index,
                     const std::string& variant = "", int replicate = 0) const;

  /// Aggregate-goodput rows of one group, ordered by (topology, replicate).
  /// Rows line up across schemes for paired comparisons only when no run
  /// of the group was dropped (use find() otherwise).
  std::vector<double> aggregates_of(const std::string& scheme,
                                    const std::string& variant = "") const;

  /// One aligned percentile line per group (the bench house style).
  void print_table(std::FILE* out = stdout) const;

  /// Deterministic JSON: identical bytes for identical rows, regardless of
  /// how many threads produced them.
  std::string to_json() const;

  /// Sum/max-merge of the counter sections across every row with a
  /// profile (empty-domain snapshot when none have one).
  metrics::MetricsSnapshot aggregate_metrics() const;

  /// The per-sweep aggregated metrics table: one aligned counter line per
  /// (scheme, variant) group, then the sweep-wide aggregate. Counter rows
  /// only — deterministic across thread counts.
  void print_metrics(std::FILE* out = stdout) const;

  /// Deterministic JSON of the aggregated counter sections, keyed by group
  /// label plus a "total": {"CMAP":{...},...,"total":{...}}.
  std::string metrics_json() const;

 private:
  std::vector<RunRow> rows_;
};

/// Single-line percentile summary, e.g. for print_table-style output.
void print_distribution_line(std::FILE* out, const char* name,
                             const Distribution& d);

}  // namespace cmap::stats
