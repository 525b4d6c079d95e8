// Benchmark driver: runs one workload of the repository benchmark through
// the public scenario/testbed API and prints, as its last stdout line, one
// JSON object of raw measurements: set-up timings, per-round run timings,
// per-run result digests and deterministic per-layer counts. run.py builds
// this program, checks the digests against the recorded references and
// turns the raw numbers into the benchmark's metrics (see README.md).
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    [--spans PATH]
//   perfbench_driver --workload NAME --seed N --mode reference
//
// Every run executes serially on the calling thread, pinned to one CPU: no
// sweep thread pool and no PDES, which is the production default. Times are
// reported both as wall time and at a reference CPU speed (RefClock below).
// An untraced pass measures the end-to-end numbers. With --trace 1 a traced
// pass of the same rounds follows it. That pass replaces World::run with the
// loop below, which times each event by its EventRank class, and turns the
// run metrics registry on for the layer counters. Spans stay in memory and
// go to --spans when the program ends.
//
// --mode reference times nothing and does not pin. It runs one traced round
// and then the same sweep through SweepRunner::run, the production path
// (one World::run call per cell), and prints both rounds' digests and
// counters plus the round's event count: what run.py records as the
// reference for a seed and compares a run against.

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "metrics/metrics.h"
#include "scenario/registry.h"
#include "scenario/sweep.h"
#include "sim/event_queue.h"
#include "stats/report.h"
#include "testbed/experiment.h"
#include "testbed/testbed.h"

namespace {

using namespace cmap;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// CPU speed probe: a fixed floating-point loop (~0.5 ms) that calls no
// simulator code, so no change to the program can move it.
double probe_cpu_s() {
  const Clock::time_point t0 = Clock::now();
  double sink = 0.0;
  double x = 1.000001;
  for (int i = 0; i < 40'000; ++i) {
    sink += std::sqrt(std::exp(std::log(x) * 0.5));
    x += 1e-9;
  }
  volatile double guard = sink;
  (void)guard;
  return seconds_between(t0, Clock::now());
}

double median_probe_s(int samples) {
  std::vector<double> v;
  for (int k = 0; k < samples; ++k) v.push_back(probe_cpu_s());
  std::nth_element(v.begin(), v.begin() + samples / 2, v.end());
  return v[static_cast<std::size_t>(samples / 2)];
}

// The host's vCPUs are shared with other guests, and they are not equally
// fast: one whose physical core is busy runs the probe up to ~80% slower.
// Pin to the fastest allowed CPU by median probe time, so the scheduler
// cannot move the driver between fast and slow ones mid-run. Returns the
// CPU, or -1 when affinity cannot be set.
int pin_to_fastest_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return -1;
  int best = -1;
  double best_s = 0.0;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (sched_setaffinity(0, sizeof(one), &one) != 0) continue;
    const double s = median_probe_s(9);
    if (best < 0 || s < best_s) {
      best = cpu;
      best_s = s;
    }
  }
  cpu_set_t chosen = allowed;
  if (best >= 0) {
    CPU_ZERO(&chosen);
    CPU_SET(best, &chosen);
  }
  sched_setaffinity(0, sizeof(chosen), &chosen);
  return best;
}

// The probe's time at the reference CPU speed: its fast-state time on the
// 2.1 GHz Xeon vCPUs the benchmark was defined on.
constexpr double kProbeRefS = 0.0005;
// Even the pinned CPU flips between a fast and a ~40% slower state about
// once a second, and how much of the time it is slow drifts over minutes.
// So work is timed in short chunks and the CPU is probed whenever this
// much wall time has passed.
constexpr double kProbeEveryS = 0.05;

// Accumulates wall time of simulation work, and the same work's time at the
// reference CPU speed: each interval between two probes is scaled by
// kProbeRefS over the mean of those two probes. Probe time itself is in
// neither total.
class RefClock {
 public:
  RefClock() : probe_s_(probe_cpu_s()), last_(Clock::now()) {}

  // Account `s` seconds of work just done; probes when one is due.
  void add(double s) {
    pending_s_ += s;
    if (seconds_between(last_, Clock::now()) >= kProbeEveryS) close();
  }
  // Account `s` seconds of work and probe now, closing the interval.
  // Returns the interval's work time at reference speed.
  double close_with(double s) {
    pending_s_ += s;
    return close();
  }
  // Probe now, closing the open interval. Returns the interval's work time
  // at reference speed.
  double close() {
    const double p = probe_cpu_s();
    const double ref = pending_s_ * 2.0 * kProbeRefS / (probe_s_ + p);
    raw_s_ += pending_s_;
    ref_s_ += ref;
    pending_s_ = 0.0;
    probe_s_ = p;
    last_ = Clock::now();
    return ref;
  }
  double raw_s() const { return raw_s_; }
  double ref_s() const { return ref_s_; }

 private:
  double probe_s_;
  Clock::time_point last_;
  double pending_s_ = 0.0;
  double raw_s_ = 0.0;
  double ref_s_ = 0.0;
};

// One benchmark workload: a registry scenario plus the sweep axes one
// round of it runs. Why each was chosen is recorded in README.md.
struct Workload {
  const char* name;
  const char* scenario;
  std::vector<testbed::Scheme> schemes;
  int topologies;  // draws per round (fig12: at most this many of its pairs)
  double duration_s;
  double warmup_s;
  // True when the scenario prescribes no building: the driver supplies the
  // paper's 50-node office, seeded by the workload seed.
  bool driver_building;
};

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> kWorkloads = {
      {"paper_pairs", "fig12_exposed",
       {testbed::Scheme::kCsma, testbed::Scheme::kCmap}, 24, 10.0, 4.0, true},
      {"dense_flows", "flows_50",
       {testbed::Scheme::kCsma, testbed::Scheme::kCmap}, 2, 2.0, 0.8, false},
      {"mobile_floor", "mobile_floor_25",
       {testbed::Scheme::kCsma, testbed::Scheme::kCmap}, 10, 8.0, 3.0, false},
      {"metro", "metro_10k", {testbed::Scheme::kCmap}, 2, 2.0, 0.5, false},
  };
  return kWorkloads;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool reference = false;
  std::string spans_path;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_driver: %s\nusage: perfbench_driver --workload "
               "NAME --seed N [--seconds S --trace 0|1 [--spans PATH] | "
               "--mode reference]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      o.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value, &end, 10);
      if (end == value || *end != '\0') usage("--seed takes an integer");
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(value, &end);
      if (end == value || *end != '\0' || o.seconds < 0.0) {
        usage("--seconds takes a non-negative number");
      }
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        usage("--trace takes 0 or 1");
      }
      o.trace = value[0] == '1';
    } else if (flag == "--spans") {
      o.spans_path = value;
    } else if (flag == "--mode") {
      if (std::strcmp(value, "measure") != 0 &&
          std::strcmp(value, "reference") != 0) {
        usage("--mode takes measure or reference");
      }
      o.reference = value[0] == 'r';
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  return o;
}

// One cell of a round: its fully resolved config and drawn topology,
// resolved exactly as SweepRunner::run resolves a cell.
struct RunPlan {
  testbed::RunConfig config;
  const scenario::TopologyInstance* topology = nullptr;
};

std::vector<RunPlan> plan_round(
    const scenario::Sweep& sweep, const scenario::Scenario& sc,
    const std::vector<scenario::TopologyInstance>& topologies) {
  std::vector<RunPlan> plans;
  for (const scenario::RunSpec& spec : scenario::SweepRunner::expand(
           sweep, static_cast<int>(topologies.size()))) {
    RunPlan p;
    p.config = sc.defaults;
    p.config.scheme =
        sweep.schemes[static_cast<std::size_t>(spec.scheme_index)];
    p.config.duration = *sweep.duration;
    p.config.warmup = *sweep.warmup;
    p.config.seed = spec.seed;
    p.topology = &topologies[static_cast<std::size_t>(spec.topology_index)];
    plans.push_back(p);
  }
  return plans;
}

std::unique_ptr<testbed::World> build_world(const testbed::Testbed& tb,
                                            const RunPlan& plan) {
  auto world = std::make_unique<testbed::World>(tb, plan.config);
  for (const testbed::Flow& f : plan.topology->flows) {
    world->add_saturated_flow(f.src, f.dst);
  }
  return world;
}

// Event classes of the traced loop, by EventRank::cls (event_queue.h).
enum EventClass { kLocal = 0, kDelivery = 1, kGlobal = 2, kClassCount = 3 };
const char* const kClassNames[kClassCount] = {"local", "delivery", "global"};

EventClass class_of(std::uint8_t cls) {
  switch (cls) {
    case 0:
      return kGlobal;
    case 2:
      return kLocal;
    case 3:
      return kDelivery;
    default:
      std::fprintf(stderr, "perfbench_driver: unknown event rank class %u\n",
                   static_cast<unsigned>(cls));
      std::abort();
  }
}

struct ClassTotals {
  std::uint64_t events[kClassCount] = {};
  std::uint64_t ns[kClassCount] = {};
};

// World::run on the serial path is Simulator::run_until; this is the same
// loop with each dispatch timed and attributed to its event class.
void run_traced(testbed::World& world, sim::Time until, ClassTotals& totals) {
  sim::EventQueue& queue = world.simulator().queue();
  for (;;) {
    const sim::EventKey key = queue.next_key();
    if (key.at > until) {
      queue.advance_to(until);
      return;
    }
    const EventClass c = class_of(key.rank.cls);
    const Clock::time_point t0 = Clock::now();
    queue.run_one();
    const Clock::time_point t1 = Clock::now();
    ++totals.events[c];
    totals.ns[c] += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
  }
}

// FNV-1a over each flow's "src dst unique_packets duplicates mbps" line, in
// row order: the run's result digest, compared against the references.
class Digest {
 public:
  void add(std::uint32_t src, std::uint32_t dst, std::uint64_t unique,
           std::uint64_t duplicates, double mbps) {
    char line[128];
    const int n = std::snprintf(line, sizeof(line),
                                "%u %u %" PRIu64 " %" PRIu64 " %.17g\n", src,
                                dst, unique, duplicates, mbps);
    for (int i = 0; i < n; ++i) {
      h_ ^= static_cast<unsigned char>(line[i]);
      h_ *= 0x100000001b3ull;
    }
  }
  std::string hex() const {
    char out[17];
    std::snprintf(out, sizeof(out), "%016" PRIx64, h_);
    return out;
  }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

std::string digest_of(testbed::World& world,
                      const std::vector<testbed::Flow>& flows) {
  Digest d;
  for (const testbed::Flow& f : flows) {
    net::PacketSink& sink = world.sink(f.dst);
    d.add(f.src, f.dst, sink.unique_packets(), sink.duplicate_packets(),
          sink.meter().mbps());
  }
  return d.hex();
}

std::string digest_of(const stats::RunRow& row) {
  Digest d;
  for (const stats::FlowRow& f : row.flows) {
    d.add(f.src, f.dst, f.unique_packets, f.duplicates, f.mbps);
  }
  return d.hex();
}

struct Span {
  std::string name;
  int parent = -1;
  double start_s = 0.0;
  double dur_s = 0.0;
  std::uint64_t events = 0;
};

class SpanLog {
 public:
  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

  int add(const char* name, int parent, Clock::time_point begin,
          Clock::time_point end, std::uint64_t events = 0) {
    spans_.push_back(Span{name, parent, seconds_between(origin_, begin),
                          seconds_between(begin, end), events});
    return static_cast<int>(spans_.size()) - 1;
  }
  // Close a span opened with begin == end once its children are recorded.
  void finish(int id, Clock::time_point end) {
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.dur_s = seconds_between(origin_, end) - s.start_s;
  }
  // An aggregate child (per-class event time inside one run): not one
  // contiguous interval, so it carries its parent's start.
  void add_total(const std::string& name, int parent, double dur_s,
                 std::uint64_t events) {
    const double start = spans_[static_cast<std::size_t>(parent)].start_s;
    spans_.push_back(Span{name, parent, start, dur_s, events});
  }

  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fputs("[\n", f);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\":%zu,\"parent\":%d,\"name\":\"%s\",\"start_s\":%.9f,"
                   "\"dur_s\":%.9f,\"events\":%" PRIu64 "}%s\n",
                   i, s.parent, s.name.c_str(), s.start_s, s.dur_s, s.events,
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fputs("]\n", f);
    return std::fclose(f) == 0;
  }

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

struct SetupSample {
  double testbed_s = 0.0;
  double draw_s = 0.0;
  double world_s = 0.0;
  double scale = 1.0;  // reference-speed time over wall time
};

struct RoundRecord {
  bool traced = false;
  // Event loops, result read-out and World teardown: wall seconds, and the
  // same at reference CPU speed.
  double run_s = 0.0;
  double run_ref_s = 0.0;
  std::uint64_t events = 0;
  std::uint64_t queue_depth_hw = 0;
  std::vector<std::string> digests;
  std::string counters;  // traced rounds: aggregated counter section
  ClassTotals classes;
};

// Runs advance in chunks of this much simulated time, so the host CPU can be
// probed between them. Driving a World to `until` in steps executes the same
// events in the same order as one call (the digests check it).
constexpr sim::Time kChunk = sim::milliseconds(5);

RoundRecord run_round(const testbed::Testbed& tb,
                      const std::vector<RunPlan>& plans, bool traced,
                      SpanLog& spans) {
  RoundRecord rec;
  rec.traced = traced;
  std::vector<metrics::MetricsSnapshot> snaps;
  RefClock clock;
  const Clock::time_point round_begin = Clock::now();
  const int round_span = spans.add(traced ? "round.traced" : "round", -1,
                                   round_begin, round_begin);
  for (const RunPlan& plan : plans) {
    RunPlan p = plan;
    if (traced) p.config.metrics = metrics::MetricsConfig{};
    const Clock::time_point t0 = Clock::now();
    std::unique_ptr<testbed::World> world = build_world(tb, p);
    const Clock::time_point t1 = Clock::now();
    ClassTotals run_classes;
    double run_s = 0.0;
    for (sim::Time until = 0; until < p.config.duration;) {
      until = std::min(until + kChunk, p.config.duration);
      const Clock::time_point c0 = Clock::now();
      if (traced) {
        run_traced(*world, until, run_classes);
      } else {
        world->run(until);
      }
      const double chunk_s = seconds_between(c0, Clock::now());
      run_s += chunk_s;
      clock.add(chunk_s);
    }
    const Clock::time_point r0 = Clock::now();
    const std::uint64_t events = world->simulator().events_executed();
    rec.events += events;
    rec.queue_depth_hw = std::max<std::uint64_t>(
        rec.queue_depth_hw, world->simulator().queue().depth_high_water());
    rec.digests.push_back(digest_of(*world, p.topology->flows));
    if (traced) snaps.push_back(world->metrics_snapshot());
    world.reset();
    const Clock::time_point t2 = Clock::now();
    clock.add(seconds_between(r0, t2));

    const int run_span = spans.add("run", round_span, t0, t2, events);
    spans.add("world.build", run_span, t0, t1);
    spans.add_total("world.run", run_span, run_s, events);
    for (int c = 0; c < kClassCount; ++c) {
      rec.classes.events[c] += run_classes.events[c];
      rec.classes.ns[c] += run_classes.ns[c];
      if (traced) {
        spans.add_total(std::string("run.") + kClassNames[c], run_span,
                        static_cast<double>(run_classes.ns[c]) / 1e9,
                        run_classes.events[c]);
      }
    }
  }
  clock.close();
  rec.run_s = clock.raw_s();
  rec.run_ref_s = clock.ref_s();
  if (traced) {
    std::vector<const metrics::MetricsSnapshot*> ptrs;
    for (const auto& s : snaps) ptrs.push_back(&s);
    rec.counters = metrics::aggregate_counters(ptrs).counters_json();
  }
  spans.finish(round_span, Clock::now());
  return rec;
}

// This process's peak resident set, from VmHWM in /proc/self/status.
// getrusage's ru_maxrss is not used: Linux carries it across execve, so it
// would include the parent that spawned the driver. Returns -1 when the
// value cannot be read.
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return -1.0;
  char line[256];
  double kib = -1.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(f);
  return kib < 0.0 ? -1.0 : kib / 1024.0;
}

void print_doubles(const char* key, const std::vector<double>& v) {
  std::printf("\"%s\":[", key);
  for (std::size_t i = 0; i < v.size(); ++i) {
    std::printf("%s%.9g", i ? "," : "", v[i]);
  }
  std::printf("]");
}

void print_strings(const char* key, const std::vector<std::string>& v) {
  std::printf("\"%s\":[", key);
  for (std::size_t i = 0; i < v.size(); ++i) {
    std::printf("%s\"%s\"", i ? "," : "", v[i].c_str());
  }
  std::printf("]");
}

// --mode reference: one traced round of the benchmark's chunked loop, then
// the same sweep through SweepRunner::run with metrics on, on one thread.
int print_reference(const Workload& wl, const scenario::Sweep& sweep,
                    const scenario::Scenario& sc,
                    const testbed::TestbedConfig& tb_config) {
  const testbed::Testbed tb(tb_config);
  const std::vector<scenario::TopologyInstance> topologies =
      scenario::SweepRunner::draw_topologies(sweep, tb);
  const std::vector<RunPlan> plans = plan_round(sweep, sc, topologies);
  if (plans.empty()) {
    std::fprintf(stderr, "perfbench_driver: %s drew no topology\n", wl.name);
    return 1;
  }
  SpanLog spans(Clock::now());
  const RoundRecord round = run_round(tb, plans, true, spans);

  scenario::Sweep production = sweep;
  production.metrics = metrics::MetricsConfig{};
  const stats::SweepReport report =
      scenario::SweepRunner(1).run(production, tb);
  std::vector<std::string> digests;
  std::vector<const metrics::MetricsSnapshot*> snaps;
  for (const stats::RunRow& row : report.rows()) {
    if (!row.profile) {
      std::fprintf(stderr, "perfbench_driver: a sweep row has no metrics\n");
      return 1;
    }
    digests.push_back(digest_of(row));
    snaps.push_back(row.profile.get());
  }

  std::printf("{\"workload\":\"%s\",\"seed\":%" PRIu64
              ",\"events\":%" PRIu64 ",",
              wl.name, sweep.base_seed, round.events);
  print_strings("digests", round.digests);
  std::printf(",\"counters\":%s,", round.counters.c_str());
  print_strings("sweep_digests", digests);
  std::printf(",\"sweep_counters\":%s}\n",
              metrics::aggregate_counters(snaps).counters_json().c_str());
  return std::fflush(stdout) == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Clock::time_point origin = Clock::now();
  const Options opt = parse(argc, argv);
  const Workload* wl = nullptr;
  for (const Workload& w : workloads()) {
    if (opt.workload == w.name) wl = &w;
  }
  if (wl == nullptr) usage(("unknown workload " + opt.workload).c_str());

  const scenario::Scenario& sc =
      scenario::ScenarioRegistry::global().at(wl->scenario);
  // The runs below replicate run_saturated_flows; a custom executor would
  // make them measure something else.
  if (sc.run) {
    std::fprintf(stderr, "perfbench_driver: %s has a custom executor\n",
                 wl->scenario);
    return 1;
  }
  testbed::TestbedConfig tb_config;
  if (wl->driver_building) {
    tb_config.seed = opt.seed;
  } else {
    tb_config = *sc.testbed;
  }

  scenario::Sweep sweep;
  sweep.scenario = wl->scenario;
  sweep.schemes = wl->schemes;
  sweep.topologies = wl->topologies;
  sweep.base_seed = opt.seed;
  sweep.duration = sim::seconds(wl->duration_s);
  sweep.warmup = sim::seconds(wl->warmup_s);
  if (opt.reference) return print_reference(*wl, sweep, sc, tb_config);

  const int cpu = pin_to_fastest_cpu();
  SpanLog spans(origin);

  // Set-up, sampled several times so run.py can report a median: the
  // testbed measurement pass, the topology draws, and every World of one
  // round built (and torn down untimed). Cheap set-ups take more samples.
  std::vector<SetupSample> setup;
  std::unique_ptr<testbed::Testbed> tb;
  std::vector<scenario::TopologyInstance> topologies;
  std::vector<RunPlan> plans;
  double setup_spent = 0.0;
  RefClock setup_clock;
  while (setup.size() < 3 || (setup_spent < 1.0 && setup.size() < 41)) {
    tb.reset();
    SetupSample s;
    const Clock::time_point t0 = Clock::now();
    tb = std::make_unique<testbed::Testbed>(tb_config);
    const Clock::time_point t1 = Clock::now();
    topologies = scenario::SweepRunner::draw_topologies(sweep, *tb);
    const Clock::time_point t2 = Clock::now();
    plans = plan_round(sweep, sc, topologies);
    const int span = spans.add("setup", -1, t0, t0);
    spans.add("testbed.build", span, t0, t1);
    spans.add("scenario.draw", span, t1, t2);
    for (const RunPlan& p : plans) {
      const Clock::time_point w0 = Clock::now();
      std::unique_ptr<testbed::World> world = build_world(*tb, p);
      const Clock::time_point w1 = Clock::now();
      s.world_s += seconds_between(w0, w1);
      spans.add("world.build", span, w0, w1);
    }
    spans.finish(span, Clock::now());
    s.testbed_s = seconds_between(t0, t1);
    s.draw_s = seconds_between(t1, t2);
    const double total = s.testbed_s + s.draw_s + s.world_s;
    s.scale = setup_clock.close_with(total) / total;
    setup.push_back(s);
    setup_spent += total;
  }
  if (plans.empty()) {
    std::fprintf(stderr, "perfbench_driver: %s drew no topology for seed %"
                 PRIu64 "\n", wl->name, opt.seed);
    return 1;
  }

  // Untraced rounds while another one fits in the time (at least one). With
  // --trace 1 they get half of it, and the traced pass repeats as many.
  std::vector<RoundRecord> rounds;
  const double untraced_budget = opt.trace ? opt.seconds / 2 : opt.seconds;
  const Clock::time_point rounds_begin = Clock::now();
  double last_round_s = 0.0;
  do {
    const Clock::time_point t0 = Clock::now();
    rounds.push_back(run_round(*tb, plans, false, spans));
    last_round_s = seconds_between(t0, Clock::now());
  } while (seconds_between(rounds_begin, Clock::now()) + last_round_s <=
           untraced_budget);
  if (opt.trace) {
    const std::size_t n = rounds.size();
    for (std::size_t i = 0; i < n; ++i) {
      rounds.push_back(run_round(*tb, plans, true, spans));
    }
  }
  const double rss = peak_rss_mb();

  double sim_s = 0.0;
  for (const RunPlan& p : plans) sim_s += sim::to_seconds(p.config.duration);

  std::printf("{\"workload\":\"%s\",\"seed\":%" PRIu64
              ",\"cpu\":%d,\"runs_per_round\":%zu,\"sim_s_per_round\":%.9g,"
              "\"stored_links\":%zu,\"peak_rss_mb\":%.6f,",
              wl->name, opt.seed, cpu, plans.size(), sim_s, tb->stored_links(),
              rss);
  std::vector<double> testbed_s, draw_s, world_s, scale;
  for (const SetupSample& s : setup) {
    testbed_s.push_back(s.testbed_s);
    draw_s.push_back(s.draw_s);
    world_s.push_back(s.world_s);
    scale.push_back(s.scale);
  }
  std::printf("\"setup\":{");
  print_doubles("testbed_s", testbed_s);
  std::printf(",");
  print_doubles("draw_s", draw_s);
  std::printf(",");
  print_doubles("world_s", world_s);
  std::printf(",");
  print_doubles("scale", scale);
  std::printf("},\"rounds\":[");
  for (std::size_t r = 0; r < rounds.size(); ++r) {
    const RoundRecord& rec = rounds[r];
    std::printf("%s{\"traced\":%s,\"run_s\":%.9g,\"run_ref_s\":%.9g,"
                "\"events\":%" PRIu64 ",\"queue_depth_hw\":%" PRIu64
                ",\"digests\":[",
                r ? "," : "", rec.traced ? "true" : "false", rec.run_s,
                rec.run_ref_s, rec.events, rec.queue_depth_hw);
    for (std::size_t i = 0; i < rec.digests.size(); ++i) {
      std::printf("%s\"%s\"", i ? "," : "", rec.digests[i].c_str());
    }
    std::printf("]");
    if (rec.traced) {
      std::printf(",\"counters\":%s,\"classes\":{", rec.counters.c_str());
      for (int c = 0; c < kClassCount; ++c) {
        std::printf("%s\"%s\":{\"events\":%" PRIu64 ",\"s\":%.9g}",
                    c ? "," : "", kClassNames[c], rec.classes.events[c],
                    static_cast<double>(rec.classes.ns[c]) / 1e9);
      }
      std::printf("}");
    }
    std::printf("}");
  }
  std::printf("]}\n");
  std::fflush(stdout);

  if (!opt.spans_path.empty() && !spans.write(opt.spans_path)) {
    std::fprintf(stderr, "perfbench_driver: cannot write spans to %s\n",
                 opt.spans_path.c_str());
    return 1;
  }
  return 0;
}
