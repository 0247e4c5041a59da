// perfbench — the repository benchmark program.
//
// Runs one named workload against the drhw library for a wall-clock budget,
// times calls into each layer's public entry points from outside the
// library, checks the outputs, and prints one JSON object as its last line
// of standard output. perfbench/run.py builds this program and turns that
// object into the benchmark result; see perfbench/README.md.
//
//   perfbench <workload> [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//                        [--work-dir DIR]
//
// Workloads:
//   campaign_builtin  every ScenarioRegistry::builtin scenario through
//                     CampaignRunner at one thread per core, first on a cold
//                     WorkloadCache (design-time preparation included), then
//                     on the warm cache
//   online_overload   the online_deadline r140 regime: edf/llf/edf_hybrid
//                     plus the 12-tile edf + preempt case (deep backlog)
//
// --trace 0 measures the end-to-end metrics with tracing off, repeating the
// workload until --seconds have passed (at least twice, so the
// deterministic outputs of two repetitions of one seed can be compared).
// --trace 1 runs the workload once more with every layer timed separately
// and reports the per-layer metrics.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "policy/names.hpp"
#include "prefetch/bnb.hpp"
#include "prefetch/critical_subtasks.hpp"
#include "prefetch/list_prefetch.hpp"
#include "runner/campaign.hpp"
#include "runner/report.hpp"
#include "runner/scenario.hpp"
#include "schedule/list_scheduler.hpp"
#include "sim/event_sim.hpp"
#include "sim/system_sim.hpp"
#include "sim/workloads.hpp"
#include "trace/trace.hpp"
#include "wio/workload_build.hpp"
#include "wio/workload_format.hpp"

namespace fs = std::filesystem;
using namespace drhw;

namespace {

// --- workload sizes --------------------------------------------------------

/// The catalogue's own default seed. Graph generation for the synthetic
/// families stays on it, so every workload seed prepares the same design-time
/// work and only the simulated streams change with --seed.
constexpr std::uint64_t k_catalogue_seed = 2005;
constexpr int k_campaign_iterations = 200;
constexpr int k_overload_iterations = 200;
/// --smoke shrinks every stream by this factor.
constexpr int k_smoke_divisor = 50;
/// Set-ups timed per run where one set-up takes well under a second.
constexpr int k_setup_repeats = 21;
/// Cold-cache campaigns per timed campaign_builtin run (15-21 s each on a
/// 4-vCPU host). A run starts another one only while less than
/// k_campaign_setup_budget_s has gone to them, so that a slow host cannot
/// push a run past its time limit.
constexpr std::size_t k_campaign_setups = 2;
constexpr double k_campaign_setup_budget_s = 30.0;

/// The paper's published Table 1 percentages: on-demand ("Overhead") and
/// optimal-prefetch ("Prefetch") columns per task.
struct PublishedRow {
  const char* task;
  double on_demand_pct;
  double prefetch_pct;
};
constexpr PublishedRow k_table1[] = {
    {"pattern_rec", 17.0, 4.0},
    {"jpeg_dec", 20.0, 5.0},
    {"parallel_jpeg", 35.0, 7.0},
    {"mpeg_enc", 56.0, 18.0},
};

// --- small helpers ---------------------------------------------------------

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

template <typename F>
double timed(F&& f) {
  const auto t0 = Clock::now();
  f();
  return since(t0);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Host time of a workload made of named steps, each run once per
/// repetition: every step's fastest time over the run, summed. Interference
/// from other work on the host only ever slows a step down, so its fastest
/// time is the steadiest estimate of the code's own cost. A step lasts tens
/// to hundreds of milliseconds where a whole repetition lasts seconds; on a
/// host whose speed changes within a second, a step meets a fast stretch
/// far more often than a whole repetition does.
class StepTimes {
 public:
  template <typename F>
  double time(const std::string& step, F&& f) {
    const double seconds = timed(f);
    add(step, seconds);
    return seconds;
  }
  void add(const std::string& step, double seconds) {
    const auto [it, fresh] = fastest_.emplace(step, seconds);
    if (!fresh) it->second = std::min(it->second, seconds);
  }
  double total() const {
    double sum = 0.0;
    for (const auto& [step, seconds] : fastest_) sum += seconds;
    return sum;
  }

 private:
  std::map<std::string, double> fastest_;
};

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::uint64_t fnv1a(const std::string& text,
                    std::uint64_t h = 1469598103934665603ULL) {
  for (unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  fs::path work_dir = ".";
};

/// Everything one run reports: metrics with units, deterministic counts,
/// and the checked operations.
class Result {
 public:
  void metric(const std::string& name, double value, const std::string& unit) {
    metrics_[name] = {value, unit};
  }
  void count(const std::string& name, std::uint64_t value) {
    counts_[name] = value;
    metric(name, static_cast<double>(value), "count");
  }
  /// One checked operation (a scenario, a run, a verification).
  bool check(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      std::cerr << "perfbench: FAILED: " << what << "\n";
    }
    return ok;
  }
  /// Digest of one repetition's deterministic outputs. Every repetition of
  /// one seed must produce the same digest. The memory high-water is taken
  /// after the first repetition: later ones only add allocator
  /// fragmentation, which would tie the figure to the repetition count.
  void repetition(std::uint64_t digest) {
    ++repetitions_;
    if (repetitions_ == 1) {
      digest_ = digest;
      metric("peak_rss_mb", peak_rss_mb(), "MB");
    } else {
      check(digest == digest_,
            "deterministic outputs differ between repetitions of one seed");
    }
  }
  int repetitions() const { return repetitions_; }

  std::string to_json(const Options& options) const {
    std::ostringstream out;
    char digest[24];
    std::snprintf(digest, sizeof(digest), "%016llx",
                  static_cast<unsigned long long>(digest_));
    out << "{\"workload\": \"" << options.workload
        << "\", \"seed\": " << options.seed
        << ", \"trace\": " << (options.trace ? 1 : 0)
        << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
        << ", \"repetitions\": " << repetitions_ << ", \"digest\": \""
        << digest << "\", \"metrics\": {";
    const char* sep = "";
    for (const auto& [name, m] : metrics_) {
      out << sep << "\"" << name << "\": {\"value\": " << num(m.first)
          << ", \"unit\": \"" << m.second << "\"}";
      sep = ", ";
    }
    out << "}, \"counts\": {";
    sep = "";
    for (const auto& [name, v] : counts_) {
      out << sep << "\"" << name << "\": " << v;
      sep = ", ";
    }
    out << "}}";
    return out.str();
  }

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
  std::map<std::string, std::uint64_t> counts_;
  long attempted_ = 0;
  long failed_ = 0;
  int repetitions_ = 0;
  std::uint64_t digest_ = 0;
};

// --- digests of deterministic outputs --------------------------------------

std::string perf_counts_text(const PerfCounters& p) {
  std::string text = " events=" + std::to_string(p.events_total);
  for (std::uint64_t k : p.events_by_kind) text += "," + std::to_string(k);
  text += " pushes=" + std::to_string(p.queue_pushes) +
          " pops=" + std::to_string(p.queue_pops) +
          " depth=" + std::to_string(p.queue_depth_max) +
          " resizes=" + std::to_string(p.calendar_resizes) +
          " slots=" + std::to_string(p.arena_slots_peak) + "/" +
          std::to_string(p.arena_slots_created) +
          " allocs=" + std::to_string(p.allocations) + "/" +
          std::to_string(p.warmup_allocations);
  return text;
}

/// Every OnlineReport field except the wall-clock phase timers.
std::string online_text(const OnlineReport& report) {
  return online_report_to_json(report) + perf_counts_text(report.perf);
}

/// Every deterministic ScenarioResult field (wall_ms and the sched_cost
/// micro-timings are host time and stay out).
std::string results_text(const std::vector<ScenarioResult>& results) {
  std::string text;
  for (const ScenarioResult& r : results) {
    text += r.scenario.name + (r.ok ? " ok" : " failed");
    for (const auto& [key, value] : deterministic_metrics(r))
      text += " " + key + "=" + num(value);
    for (double u : r.port_utilisation_per_port_pct) text += " " + num(u);
    text += " n=" + std::to_string(r.report.instances) + "\n";
  }
  return text;
}

// --- scenario plumbing (mirrors runner/campaign.cpp) -----------------------

/// Same draw structure as the campaign engine's synthetic mix sampler.
IterationSampler synthetic_mix_sampler(const SyntheticWorkload& workload,
                                       double include_prob) {
  const SyntheticWorkload* w = &workload;
  return [w, include_prob](Rng& rng) {
    std::vector<std::size_t> order(w->prepared.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    rng.shuffle(order);
    std::vector<const PreparedScenario*> instances;
    for (std::size_t t : order)
      if (rng.next_bool(include_prob)) instances.push_back(&w->prepared[t]);
    if (instances.empty())
      instances.push_back(&w->prepared[rng.pick_index(w->prepared)]);
    return instances;
  };
}

struct Sampled {
  std::shared_ptr<const void> owner;
  IterationSampler sampler;
  /// Every preparation the workload holds (for the design-time ledger).
  std::vector<const PreparedScenario*> preps;
  const char* kind = "";
};

template <typename Nested>
void collect_preps(const Nested& prepared,
                   std::vector<const PreparedScenario*>& out) {
  for (const auto& task : prepared)
    for (const PreparedScenario& p : task) out.push_back(&p);
}

/// The scenario's prepared workload (built on first use) and its sampler.
Sampled sample(const Scenario& s, WorkloadCache& cache) {
  Sampled out;
  switch (s.workload) {
    case WorkloadKind::multimedia: {
      const auto w = cache.multimedia(s);
      out.sampler = s.exhaustive ? exhaustive_sampler(*w)
                                 : multimedia_sampler(*w, s.include_prob);
      collect_preps(w->prepared, out.preps);
      out.owner = w;
      out.kind = "multimedia";
      break;
    }
    case WorkloadKind::pocket_gl:
    case WorkloadKind::pocket_gl_frames: {
      const auto w = cache.pocket_gl(s);
      out.sampler = s.workload == WorkloadKind::pocket_gl
                        ? pocket_gl_task_sampler(*w)
                        : pocket_gl_frame_sampler(*w);
      collect_preps(w->prepared, out.preps);
      for (const PreparedScenario& p : w->prepared_frames)
        out.preps.push_back(&p);
      out.owner = w;
      out.kind = "pocket_gl";
      break;
    }
    case WorkloadKind::synthetic: {
      const auto w = cache.synthetic(s);
      out.sampler = synthetic_mix_sampler(*w, s.include_prob);
      for (const PreparedScenario& p : w->prepared) out.preps.push_back(&p);
      out.owner = w;
      out.kind = "synthetic";
      break;
    }
    case WorkloadKind::file: {
      const auto w = cache.file(s);
      out.sampler = file_workload_sampler(*w);
      collect_preps(w->prepared, out.preps);
      out.owner = w;
      out.kind = "file";
      break;
    }
  }
  return out;
}

OnlineSimOptions online_options(const Scenario& s) {
  OnlineSimOptions o;
  o.platform = s.sim.platform;
  o.policy = s.sim.policy;
  o.replacement = s.sim.replacement;
  o.arrivals = s.arrivals;
  o.port_discipline = s.port_discipline;
  o.pool = s.pool;
  o.scheduler_cost = s.scheduler_cost;
  o.shared_isps = s.shared_isps;
  o.isp_discipline = s.isp_discipline;
  o.intertask_lookahead = s.sim.intertask_lookahead;
  o.deadline_scale = s.deadline_scale;
  o.high_criticality_fraction = s.high_crit_fraction;
  o.preempt = s.preempt;
  o.queue_backend = s.queue_backend;
  o.record_spans = false;
  o.seed = s.sim.seed;
  o.iterations = s.sim.iterations;
  return o;
}

int thread_count() {
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

// --- layer probes (traced runs) --------------------------------------------

/// schedule / prefetch: the design-time flow, call by call, over every
/// preparation a workload holds. Re-runs each step on the prepared inputs
/// and checks it reproduces the stored result.
struct DesignLedger {
  double list_schedule_s = 0.0;
  double bnb_s = 0.0;
  double hybrid_s = 0.0;
  std::uint64_t bnb_nodes = 0;
  std::uint64_t bnb_searches = 0;
  std::uint64_t bnb_budget_hits = 0;
  std::uint64_t graphs = 0;

  void add(const PreparedScenario& p, const PlatformConfig& platform,
           const HybridDesignOptions& design, Result& out) {
    const SubtaskGraph& graph = *p.graph;
    ++graphs;
    Placement placement;
    list_schedule_s += timed([&] {
      if (design.comm_aware_placement)
        placement = list_schedule_icn(graph, platform);
      else
        placement = list_schedule(graph, platform.tiles, platform.isps);
    });
    out.check(placement.ideal_makespan == p.ideal,
              "list_schedule reproduces the prepared placement of " +
                  graph.name());

    std::vector<bool> needs(graph.size(), false);
    int loads = 0;
    for (std::size_t s = 0; s < graph.size(); ++s) {
      needs[s] = p.placement.on_drhw(static_cast<SubtaskId>(s));
      loads += needs[s];
    }
    // prepare_scenario runs the B&B only up to the load threshold; calling
    // it beyond would time searches production never runs.
    if (loads <= design.bnb_load_threshold) {
      BnbResult bnb;
      bnb_s += timed([&] {
        bnb = optimal_prefetch(graph, p.placement, platform, needs);
      });
      ++bnb_searches;
      bnb_nodes += bnb.nodes_explored;
      bnb_budget_hits += bnb.proven_optimal ? 0 : 1;
      out.check(bnb.order == p.design_order,
                "optimal_prefetch reproduces the design order of " +
                    graph.name());
    }

    HybridSchedule hybrid;
    hybrid_s += timed([&] {
      hybrid = compute_hybrid_schedule(graph, p.placement, platform, design);
    });
    out.check(hybrid.critical == p.hybrid.critical &&
                  hybrid.stored_order == p.hybrid.stored_order,
              "compute_hybrid_schedule reproduces the hybrid schedule of " +
                  graph.name());
  }

  void report(double prepare_s, Result& out) const {
    out.metric("schedule.list_schedule_s", list_schedule_s, "s");
    out.metric("prefetch.bnb_s", bnb_s, "s");
    out.count("prefetch.bnb_nodes", bnb_nodes);
    out.count("prefetch.bnb_searches", bnb_searches);
    out.count("prefetch.bnb_budget_hits", bnb_budget_hits);
    out.metric("prefetch.bnb_ns_per_node",
               bnb_nodes ? 1e9 * bnb_s / static_cast<double>(bnb_nodes) : 0.0,
               "ns");
    out.metric("prefetch.hybrid_schedule_s", hybrid_s, "s");
    out.metric("prefetch.prepare_s", prepare_s, "s");
    out.count("prefetch.graphs", graphs);
  }
};

/// Design ledger over the distinct prepared workloads of `scenarios`.
void design_probe(const std::vector<Scenario>& scenarios, WorkloadCache& cache,
                  double prepare_s, Result& out) {
  DesignLedger ledger;
  std::set<const void*> seen;
  for (const Scenario& s : scenarios) {
    const Sampled sampled = sample(s, cache);
    if (!seen.insert(sampled.owner.get()).second) continue;
    for (const PreparedScenario* p : sampled.preps)
      ledger.add(*p, s.sim.platform, s.design, out);
  }
  ledger.report(prepare_s, out);
}

/// sim: the online kernel's own counters over a set of runs.
struct KernelLedger {
  std::int64_t setup_ns = 0;
  std::int64_t loop_ns = 0;
  std::uint64_t events = 0;
  std::uint64_t arrivals = 0;
  std::uint64_t load_done = 0;
  std::uint64_t exec_done = 0;
  std::uint64_t depth_max = 0;
  std::uint64_t steady_allocs = 0;
  std::uint64_t queue_skips = 0;
  std::uint64_t preemptions = 0;

  void add(const OnlineReport& r) {
    setup_ns += r.perf.setup_ns;
    loop_ns += r.perf.loop_ns;
    events += r.perf.events_total;
    // Event kind indices of the online kernel (sim/event_sim.cpp):
    // load_done = 0, exec_done = 2, arrival = 3.
    load_done += r.perf.events_by_kind[0];
    exec_done += r.perf.events_by_kind[2];
    arrivals += r.perf.events_by_kind[3];
    depth_max = std::max(depth_max, r.perf.queue_depth_max);
    steady_allocs += r.perf.steady_allocations();
    queue_skips += static_cast<std::uint64_t>(r.queue_skips);
    preemptions += static_cast<std::uint64_t>(r.preemptions);
  }

  void report(double sequential_s, Result& out) const {
    const double loop_s = 1e-9 * static_cast<double>(loop_ns);
    out.metric("sim.loop_s", loop_s, "s");
    out.metric("sim.setup_s", 1e-9 * static_cast<double>(setup_ns), "s");
    out.metric("sim.ns_per_event",
               events ? 1e9 * loop_s / static_cast<double>(events) : 0.0,
               "ns");
    out.count("sim.events", events);
    out.count("sim.events.arrival", arrivals);
    out.count("sim.events.load_done", load_done);
    out.count("sim.events.exec_done", exec_done);
    out.count("sim.queue_depth_max", depth_max);
    out.count("sim.steady_allocs", steady_allocs);
    out.count("pool.queue_skips", queue_skips);
    out.count("sim.preemptions", preemptions);
    out.metric("sim.sequential_s", sequential_s, "s");
  }
};

/// runner: the scenarios through CampaignRunner on a warm cache, so every
/// ScenarioResult::wall_ms is simulate time, not cache waiting.
/// `build_s` maps a scenario index to its workload's preparation time.
std::vector<ScenarioResult> runner_probe(
    const std::vector<Scenario>& scenarios, WorkloadCache& cache,
    const std::vector<double>& build_s, int threads, Result& out) {
  CampaignOptions options;
  options.threads = threads;
  std::vector<ScenarioResult> results;
  const double wall = timed(
      [&] { results = CampaignRunner(options).run(scenarios, cache); });
  double cpu_s = 0.0;
  double critical_s = 0.0;
  std::uint64_t failed = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const double s = results[i].wall_ms / 1000.0;
    cpu_s += s;
    critical_s = std::max(critical_s, s + build_s[i]);
    failed += results[i].ok ? 0 : 1;
    out.check(results[i].ok, "runner scenario " + scenarios[i].name + ": " +
                                 results[i].error);
  }
  const int used = std::min<int>(threads, static_cast<int>(scenarios.size()));
  out.metric("runner.wall_s", wall, "s");
  out.metric("runner.cpu_s", cpu_s, "s");
  out.metric("runner.critical_path_s", critical_s, "s");
  out.metric("runner.parallel_efficiency",
             cpu_s / (std::max(used, 1) * wall), "ratio");
  out.count("runner.scenarios", results.size());
  out.count("runner.failed", failed);
  return results;
}

/// trace: one online run recorded in `format`, read back and
/// replay-verified against its live report.
struct TraceLeg {
  double record_s = 0.0;
  double read_s = 0.0;
  double verify_s = 0.0;
  std::uint64_t bytes = 0;
  std::uint64_t events = 0;
};

TraceLeg trace_leg(OnlineSimOptions options, const IterationSampler& sampler,
                   const fs::path& path, TraceFormat format,
                   const OnlineReport& untraced, Result& out,
                   TraceData* keep = nullptr) {
  TraceLeg leg;
  OnlineReport report;
  leg.record_s = timed([&] {
    TraceRecorder recorder(path.string(), format, options);
    options.trace = &recorder;
    report = run_online_simulation(options, sampler);
    recorder.finish(report);
  });
  out.check(online_report_to_json(report) == online_report_to_json(untraced),
            std::string("traced run (") + to_string(format) +
                ") reproduces the untraced report");
  leg.bytes = fs::file_size(path);
  TraceData data;
  leg.read_s = timed([&] { data = read_trace(path.string()); });
  leg.events = data.events.size();
  std::vector<std::string> mismatches;
  leg.verify_s = timed([&] { mismatches = verify_trace(data); });
  out.check(mismatches.empty(),
            std::string("verify_trace (") + to_string(format) + "): " +
                (mismatches.empty() ? "" : mismatches.front()));
  if (keep) *keep = std::move(data);
  fs::remove(path);
  return leg;
}

/// SVG render of the run's first tenth, checked non-empty; returns seconds.
double render_probe(const TraceData& data, time_us horizon, Result& out) {
  TraceRenderOptions window;
  window.width = 800;
  window.until = std::max<time_us>(1, horizon / 10);
  std::string svg;
  const double seconds = timed([&] { svg = render_trace_svg(data, window); });
  out.check(svg.find("<svg") != std::string::npos,
            "render_trace_svg produces an SVG document");
  return seconds;
}

double bytes_per_event(const TraceLeg& leg) {
  return static_cast<double>(leg.bytes) /
         static_cast<double>(std::max<std::uint64_t>(leg.events, 1));
}

/// trace_bytes_per_event on a workload that does not trace: one of its
/// online runs recorded in the binary encoding, read back and verified,
/// outside every timed section.
double binary_bytes_per_event(const OnlineSimOptions& options,
                              const IterationSampler& sampler,
                              const fs::path& work_dir, Result& out) {
  const OnlineReport untraced = run_online_simulation(options, sampler);
  return bytes_per_event(trace_leg(options, sampler, work_dir / "bytes.binary",
                                   TraceFormat::binary, untraced, out));
}

/// The per-encoding trace metrics of one leg.
void report_leg(const std::string& tag, const TraceLeg& leg,
                double untraced_s, Result& out) {
  out.metric("trace.record_s." + tag, leg.record_s, "s");
  out.metric("trace.overhead_x." + tag, leg.record_s / untraced_s, "x");
  out.metric("trace.bytes_per_event." + tag, bytes_per_event(leg), "B");
  out.count("trace.bytes." + tag, leg.bytes);
  out.count("trace.events." + tag, leg.events);
  out.metric("trace.read_s." + tag, leg.read_s, "s");
  out.metric("trace.verify_s." + tag, leg.verify_s, "s");
}

/// Both encodings plus an SVG window render of the binary trace.
void trace_probe(const OnlineSimOptions& options,
                 const IterationSampler& sampler, const fs::path& work_dir,
                 Result& out) {
  OnlineReport untraced;
  const double untraced_s =
      timed([&] { untraced = run_online_simulation(options, sampler); });
  for (TraceFormat format : {TraceFormat::binary, TraceFormat::jsonl}) {
    const std::string tag = to_string(format);
    TraceData data;
    const TraceLeg leg =
        trace_leg(options, sampler, work_dir / ("probe." + tag), format,
                  untraced, out, format == TraceFormat::binary ? &data : nullptr);
    report_leg(tag, leg, untraced_s, out);
    if (format == TraceFormat::binary)
      out.metric("trace.render_s", render_probe(data, untraced.horizon, out),
                 "s");
  }
}

/// wio: a workload written in the textual format, parsed and built.
void wio_probe(const std::string& text, const PlatformConfig& platform,
               Result& out) {
  WorkloadFile file;
  out.metric("wio.parse_s", timed([&] { file = parse_workload(text); }), "s");
  out.check(write_workload(file) == text,
            "write(parse(text)) reproduces the canonical workload text");
  std::unique_ptr<FileWorkload> built;
  out.metric("wio.build_s",
             timed([&] { built = build_file_workload(file, platform); }), "s");
  out.check(built && !built->prepared.empty(), "build_file_workload");
}

/// Sequential rig (run_simulation) over the same workload and seed.
double sequential_probe(const std::vector<Scenario>& scenarios,
                        WorkloadCache& cache, Result& out) {
  double total = 0.0;
  for (const Scenario& s : scenarios) {
    const Sampled sampled = sample(s, cache);
    SimReport report;
    total += timed([&] { report = run_simulation(s.sim, sampled.sampler); });
    out.check(report.instances > 0, "run_simulation on " + s.name);
  }
  return total;
}

// --- model accuracy --------------------------------------------------------

/// Largest |simulated - published| Table 1 percentage over the table1/*
/// results in `results`.
double table1_error(const std::vector<ScenarioResult>& results, Result& out) {
  double worst = 0.0;
  int rows = 0;
  for (const ScenarioResult& r : results) {
    if (r.scenario.family != "table1") continue;
    for (const PublishedRow& row : k_table1) {
      if (r.scenario.task_filter.size() != 1 ||
          r.scenario.task_filter.front() != row.task)
        continue;
      const bool on_demand = r.scenario.sim.policy.name ==
                             policy_names::no_prefetch;
      const double published =
          on_demand ? row.on_demand_pct : row.prefetch_pct;
      worst = std::max(worst, std::abs(r.report.overhead_pct - published));
      ++rows;
    }
  }
  out.check(rows == 8, "all eight Table 1 cells simulated");
  return worst;
}

std::vector<Scenario> catalogue(int iterations, std::uint64_t seed) {
  std::vector<Scenario> scenarios =
      ScenarioRegistry::builtin(iterations, k_catalogue_seed).scenarios();
  for (Scenario& s : scenarios) s.sim.seed = seed;
  return scenarios;
}

/// table1_err_pct from the catalogue's eight table1/* scenarios (a few
/// milliseconds; runs outside every timed section).
double table1_accuracy(Result& out) {
  std::vector<Scenario> table1;
  for (const Scenario& s : catalogue(1, k_catalogue_seed))
    if (s.family == "table1") table1.push_back(s);
  WorkloadCache cache;
  std::vector<ScenarioResult> results;
  for (const Scenario& s : table1)
    results.push_back(run_scenario(s, false, &cache));
  for (const ScenarioResult& r : results)
    out.check(r.ok, "table1 scenario " + r.scenario.name);
  return table1_error(results, out);
}

/// Simulated outcome over a set of runs: reconfiguration overhead as
/// 100 * (sum actual - sum ideal) / sum ideal, and the mean p95 response.
struct SimulatedOutcome {
  double actual = 0.0;
  double ideal = 0.0;
  double p95_sum = 0.0;
  int online_runs = 0;
  std::uint64_t deadline_jobs = 0;
  std::uint64_t deadline_misses = 0;

  void add(const SimReport& r) {
    actual += static_cast<double>(r.total_actual);
    ideal += static_cast<double>(r.total_ideal);
  }
  void add_online(const SimReport& r, double p95_ms, long jobs, long misses) {
    add(r);
    p95_sum += p95_ms;
    ++online_runs;
    deadline_jobs += static_cast<std::uint64_t>(jobs);
    deadline_misses += static_cast<std::uint64_t>(misses);
  }
  void report(Result& out) const {
    out.metric("reconfig_overhead_pct",
               ideal > 0 ? 100.0 * (actual - ideal) / ideal : 0.0, "%");
    out.metric("response_p95_ms",
               online_runs ? p95_sum / online_runs : 0.0, "ms");
    out.metric("deadline_miss_pct",
               deadline_jobs ? 100.0 * static_cast<double>(deadline_misses) /
                                   static_cast<double>(deadline_jobs)
                             : 0.0,
               "%");
  }
};

/// Separate set-ups before the timed repetitions, so set-up time is taken
/// over many builds even where a repetition sets up only once; setup_s is
/// the median of these and the repetitions' own set-ups.
template <typename F>
std::vector<double> setup_samples(const Options& options, F&& build) {
  std::vector<double> samples;
  for (int i = 0; i < (options.smoke ? 1 : k_setup_repeats); ++i)
    samples.push_back(timed(build));
  return samples;
}

/// Whether to run another repetition: one when traced; otherwise at least
/// two, then until --seconds have passed.
bool keep_going(Clock::time_point start, const Options& options,
                const Result& out) {
  if (options.trace) return out.repetitions() < 1;
  return out.repetitions() < 2 ||
         (!options.smoke && since(start) < options.seconds);
}

/// Design-time preparation of every distinct workload `scenarios` use,
/// built serially into `cache` (the traced runs' per-workload ledger).
struct Preparation {
  double total_s = 0.0;
  /// Per scenario: the build time of the workload it uses (shared
  /// workloads are charged to every scenario that uses them).
  std::vector<double> per_scenario;
  std::map<std::string, double> by_kind;
};

Preparation prepare_all(const std::vector<Scenario>& scenarios,
                        WorkloadCache& cache) {
  Preparation p;
  std::map<const void*, double> by_owner;
  const auto t0 = Clock::now();
  for (const Scenario& s : scenarios) {
    Sampled sampled;
    const double b = timed([&] { sampled = sample(s, cache); });
    const auto [it, fresh] = by_owner.emplace(sampled.owner.get(), b);
    if (fresh) p.by_kind[sampled.kind] += b;
    p.per_scenario.push_back(it->second);
  }
  p.total_s = since(t0);
  return p;
}

/// prefetch.prepare_s.<kind>: the preparation split by workload kind (0 for
/// a kind the workload does not use).
void report_prepare_by_kind(const Preparation& prep, Result& out) {
  std::map<std::string, double> by_kind = {
      {"multimedia", 0.0}, {"pocket_gl", 0.0}, {"synthetic", 0.0}};
  for (const auto& [kind, s] : prep.by_kind) by_kind[kind] += s;
  for (const auto& [kind, s] : by_kind)
    out.metric("prefetch.prepare_s." + kind, s, "s");
}

// --- workloads -------------------------------------------------------------

/// The campaign's trace probe: a two-port contiguous + defrag multiport
/// scenario (migrations included) on the multimedia workload.
const Scenario& multiport_probe(const std::vector<Scenario>& scenarios) {
  const auto probe = std::find_if(
      scenarios.begin(), scenarios.end(), [](const Scenario& s) {
        return s.family == "online_multiport" &&
               s.workload == WorkloadKind::multimedia &&
               s.sim.platform.reconfig_ports == 2 &&
               s.sim.policy.name == policy_names::hybrid;
      });
  if (probe == scenarios.end())
    throw std::logic_error("no two-port multimedia multiport scenario");
  return *probe;
}

/// campaign_builtin's traced run: the catalogue prepared serially into a
/// cold cache (the per-workload ledger), then every layer timed over it.
void campaign_layers(const Options& options,
                     const std::vector<Scenario>& scenarios, int threads,
                     Result& out) {
  WorkloadCache setup_cache;
  const Preparation prep = prepare_all(scenarios, setup_cache);
  report_prepare_by_kind(prep, out);
  design_probe(scenarios, setup_cache, prep.total_s, out);
  const std::vector<ScenarioResult> results = runner_probe(
      scenarios, setup_cache, prep.per_scenario, threads, out);
  out.repetition(fnv1a(results_text(results)));
  double sequential_s = 0.0;
  for (const ScenarioResult& r : results)
    if (r.scenario.mode == ScenarioMode::simulate)
      sequential_s += r.wall_ms / 1000.0;

  // The kernel's own phase timers for every online scenario, on the same
  // thread count as the runner.
  std::vector<std::size_t> online;
  for (std::size_t i = 0; i < scenarios.size(); ++i)
    if (scenarios[i].mode == ScenarioMode::online) online.push_back(i);
  std::vector<OnlineReport> reports(online.size());
  std::vector<std::string> errors(online.size());
  std::atomic<std::size_t> cursor{0};
  const auto worker = [&] {
    for (std::size_t at = cursor++; at < online.size(); at = cursor++) {
      try {
        const Scenario& s = scenarios[online[at]];
        const Sampled sampled = sample(s, setup_cache);
        reports[at] =
            run_online_simulation(online_options(s), sampled.sampler);
      } catch (const std::exception& e) {
        errors[at] = e.what();
      }
    }
  };
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();
  KernelLedger kernel;
  for (std::size_t at = 0; at < online.size(); ++at) {
    kernel.add(reports[at]);
    const ScenarioResult& r = results[online[at]];
    out.check(errors[at].empty() &&
                  r.perf_events_total == reports[at].perf.events_total &&
                  r.report.total_actual == reports[at].sim.total_actual,
              "direct kernel run matches the runner for " +
                  r.scenario.name + errors[at]);
  }
  kernel.report(sequential_s, out);

  // trace / wio on the campaign's own inputs: the multiport probe run; and
  // the multimedia workload the campaign prepared, exported to .dwl text.
  const Scenario& probe = multiport_probe(scenarios);
  trace_probe(online_options(probe), sample(probe, setup_cache).sampler,
              options.work_dir, out);
  const auto mm = setup_cache.multimedia(probe);
  wio_probe(write_workload(workload_file_from_multimedia(*mm)),
            probe.sim.platform, out);
}

void run_campaign_builtin(const Options& options, Result& out) {
  std::vector<Scenario> scenarios =
      catalogue(options.smoke ? 20 : k_campaign_iterations, options.seed);
  if (options.smoke) {
    const char* keep[] = {"table1/",
                          "fig6/tiles8/",
                          "fig7/tiles5/",
                          "synthetic/n14/",
                          "online_poisson/r20/",
                          "online_deadline/r140/",
                          "online_multiport/t12/l4000/p2/hybrid/",
                          "scalability/n14"};
    std::vector<Scenario> small;
    for (const Scenario& s : scenarios)
      for (const char* prefix : keep)
        if (s.name.rfind(prefix, 0) == 0) small.push_back(s);
    scenarios = std::move(small);
  }
  const int threads = thread_count();
  if (options.trace) {
    campaign_layers(options, scenarios, threads, out);
    return;
  }

  // Set-up: the whole campaign on a cold WorkloadCache at one thread per
  // core, so design-time preparation overlaps on the runner's thread pool
  // as in a real campaign; its wall time is the builds' critical path plus
  // the simulation (about 1% of it). Each pass builds a fresh cache, the
  // previous one freed first; setup_s is the median pass. The repetitions
  // then run the campaign over the last, now warm, cache: a cold campaign
  // takes too long to repeat within a run on a host whose speed drifts over
  // minutes.
  CampaignOptions campaign;
  campaign.threads = threads;
  std::unique_ptr<WorkloadCache> cache;
  std::vector<ScenarioResult> results;
  const auto check_results = [&] {
    for (const ScenarioResult& r : results)
      out.check(r.ok, "scenario " + r.scenario.name + ": " + r.error);
    out.repetition(fnv1a(results_text(results)));
  };
  std::vector<double> setups;
  const auto setup_start = Clock::now();
  do {
    cache.reset();
    cache = std::make_unique<WorkloadCache>();
    setups.push_back(timed(
        [&] { results = CampaignRunner(campaign).run(scenarios, *cache); }));
    check_results();
  } while (!options.smoke && setups.size() < k_campaign_setups &&
           since(setup_start) < k_campaign_setup_budget_s);
  out.metric("setup_s", median(setups), "s");

  // A warm repetition runs the catalogue family by family, each family one
  // CampaignRunner::run at one thread per core (a step of StepTimes), and
  // puts the results back in catalogue order.
  std::map<std::string, std::vector<std::size_t>> families;
  for (std::size_t i = 0; i < scenarios.size(); ++i)
    families[scenarios[i].family].push_back(i);
  StepTimes steps;
  const auto start = Clock::now();
  do {
    for (const auto& [family, members] : families) {
      std::vector<Scenario> batch;
      for (std::size_t i : members) batch.push_back(scenarios[i]);
      std::vector<ScenarioResult> batch_results;
      steps.time(family, [&] {
        batch_results = CampaignRunner(campaign).run(batch, *cache);
      });
      for (std::size_t k = 0; k < members.size(); ++k)
        results[members[k]] = std::move(batch_results[k]);
    }
    check_results();
  } while (keep_going(start, options, out));
  SimulatedOutcome outcome;
  std::uint64_t events = 0;
  for (const ScenarioResult& r : results) {
    if (!r.ok || r.scenario.mode == ScenarioMode::sched_cost) continue;
    if (r.scenario.mode == ScenarioMode::online) {
      outcome.add_online(r.report, r.response_p95_ms, r.deadline_jobs,
                         r.deadline_misses);
      events += r.perf_events_total;
    } else {
      outcome.add(r.report);
    }
  }
  const double wall_s = steps.total();
  out.metric("wall_s", wall_s, "s");
  out.metric("sim_events_per_s", static_cast<double>(events) / wall_s,
             "1/s");
  outcome.report(out);
  out.metric("table1_err_pct", table1_error(results, out), "%");
  const Scenario& probe = multiport_probe(scenarios);
  out.metric("trace_bytes_per_event",
             binary_bytes_per_event(online_options(probe),
                                    sample(probe, *cache).sampler,
                                    options.work_dir, out),
             "B");
  out.count("runner.scenarios", results.size());
}

/// An online workload given as scenario descriptors, each run directly on
/// the kernel so its phase timers are visible.
void run_online_workload(const Options& options,
                         const std::vector<Scenario>& scenarios,
                         const Scenario& trace_scenario, Result& out) {
  StepTimes steps;
  // Per scenario, the fastest kernel loop of the run.
  std::vector<std::int64_t> loop_ns(scenarios.size(),
                                    std::numeric_limits<std::int64_t>::max());
  std::vector<double> setups = setup_samples(options, [&] {
    WorkloadCache cache;
    for (const Scenario& s : scenarios) sample(s, cache);
  });
  std::vector<OnlineReport> reports(scenarios.size());
  const auto start = Clock::now();
  while (keep_going(start, options, out)) {
    WorkloadCache cache;
    std::vector<Sampled> sampled(scenarios.size());
    double setup = 0.0;
    for (std::size_t i = 0; i < scenarios.size(); ++i)
      setup += steps.time("build " + scenarios[i].name,
                          [&] { sampled[i] = sample(scenarios[i], cache); });
    std::string text;
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
      steps.time("run " + scenarios[i].name, [&] {
        reports[i] = run_online_simulation(online_options(scenarios[i]),
                                           sampled[i].sampler);
      });
      out.check(reports[i].sim.instances > 0,
                "online run " + scenarios[i].name);
      text += online_text(reports[i]);
      loop_ns[i] = std::min(loop_ns[i], reports[i].perf.loop_ns);
    }
    out.repetition(fnv1a(text));
    setups.push_back(setup);
  }

  out.metric("setup_s", median(setups), "s");
  WorkloadCache cache;
  const OnlineSimOptions probe = online_options(trace_scenario);
  if (!options.trace) {
    std::uint64_t events = 0;
    std::int64_t fastest_loop_ns = 0;
    for (std::size_t i = 0; i < reports.size(); ++i) {
      events += reports[i].perf.events_total;
      fastest_loop_ns += loop_ns[i];
    }
    out.metric("wall_s", steps.total(), "s");
    out.metric("sim_events_per_s",
               static_cast<double>(events) /
                   (1e-9 * static_cast<double>(
                               std::max<std::int64_t>(fastest_loop_ns, 1))),
               "1/s");
    SimulatedOutcome outcome;
    for (const OnlineReport& r : reports)
      outcome.add_online(r.sim, r.response_p95_ms, r.deadline_jobs,
                         r.deadline_misses);
    outcome.report(out);
    out.metric("table1_err_pct", table1_accuracy(out), "%");
    out.metric("trace_bytes_per_event",
               binary_bytes_per_event(probe,
                                      sample(trace_scenario, cache).sampler,
                                      options.work_dir, out),
               "B");
    return;
  }

  KernelLedger kernel;
  for (const OnlineReport& r : reports) kernel.add(r);
  const Preparation prep = prepare_all(scenarios, cache);
  report_prepare_by_kind(prep, out);
  design_probe(scenarios, cache, prep.total_s, out);
  runner_probe(scenarios, cache, prep.per_scenario, thread_count(),
               out);
  kernel.report(sequential_probe(scenarios, cache, out), out);
  trace_probe(probe, sample(trace_scenario, cache).sampler, options.work_dir,
              out);
  const auto mm = cache.multimedia(scenarios.front());
  wio_probe(write_workload(workload_file_from_multimedia(*mm)),
            scenarios.front().sim.platform, out);
}

void run_online_overload(const Options& options, Result& out) {
  const int iterations =
      k_overload_iterations / (options.smoke ? k_smoke_divisor / 5 : 1);
  // The catalogue's online_deadline/r140 regime.
  std::vector<Scenario> scenarios;
  for (const Scenario& s : catalogue(iterations, options.seed)) {
    if (s.name == "online_deadline/r140/c35/edf" ||
        s.name == "online_deadline/r140/c35/llf" ||
        s.name == "online_deadline/r140/c35/edf_hybrid" ||
        s.name == "online_deadline/r140/preempt_on")
      scenarios.push_back(s);
  }
  if (scenarios.size() != 4)
    throw std::logic_error("online_deadline/r140 scenarios not found");
  run_online_workload(options, scenarios, scenarios.back(), out);
}

Options parse_args(int argc, char** argv) {
  if (argc < 2) throw std::invalid_argument("missing workload name");
  Options o;
  o.workload = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
      return argv[++i];
    };
    if (flag == "--seed")
      o.seed = std::stoull(value());
    else if (flag == "--seconds")
      o.seconds = std::stod(value());
    else if (flag == "--trace")
      o.trace = value() != "0";
    else if (flag == "--smoke")
      o.smoke = true;
    else if (flag == "--work-dir")
      o.work_dir = value();
    else
      throw std::invalid_argument("unknown flag " + flag);
  }
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  try {
    options = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what()
              << "\nusage: perfbench campaign_builtin|online_overload "
                 "[--seed N] [--seconds S] [--trace 0|1] [--smoke] "
                 "[--work-dir DIR]\n";
    return 2;
  }
  Result out;
  try {
    fs::create_directories(options.work_dir);
    if (options.workload == "campaign_builtin")
      run_campaign_builtin(options, out);
    else if (options.workload == "online_overload")
      run_online_overload(options, out);
    else
      throw std::invalid_argument("unknown workload " + options.workload);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
  std::cout << out.to_json(options) << std::endl;
  return 0;
}
