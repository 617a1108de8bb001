// grbench — the repository's end-to-end benchmark.
//
//   grbench --workload analytics-oom|traversal|serving --seed N
//           --seconds T --trace 0|1 [--threads N] [--spans-out FILE]
//
// A run sets the workload up three times (set-up time is the median
// round), then repeats the timed phase, at least three times, until about
// T seconds of it have been measured. Wall time sums each unit's (job's
// or serving phase's) median over the passes, so a burst of load on the
// host spoils one sample rather than the result. Every result is checked
// against the serial references; a job that throws or disagrees makes
// the run incorrect without stopping it. The last line of standard
// output is one JSON object: {"correct", "attempted", "failed",
// "metrics"}; --trace 0 emits the end-to-end metrics, --trace 1 the
// per-layer ones (METRICS.md).
//
// A traced run alternates untraced and traced passes: per-layer times
// come from the traced ones, and the difference of the two medians is
// the tracing overhead. Simulated-clock values are identical either way.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <map>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "core/algorithms/registry.hpp"
#include "util/cli.hpp"
#include "util/common.hpp"
#include "util/log.hpp"
#include "util/stats.hpp"
#include "workloads.hpp"

namespace grbench {
namespace {

struct Metric {
  const char* name;
  const char* unit;
};

constexpr Metric kEndToEnd[] = {
    {"sim_s", "s"},         {"wall_s", "s"},  {"setup_s", "s"},
    {"peak_rss_mb", "MiB"}, {"success_frac", "ratio"},
    {"p95_ms", "ms"},       {"qps", "1/s"},
};

constexpr Metric kPerLayer[] = {
    {"graph.generate_s", "s"},
    {"graph.self_s", "s"},
    {"partition.build_s", "s"},
    {"partition.builds", "count"},
    {"partition.self_s", "s"},
    {"engine.plan_s", "s"},
    {"engine.begin_s", "s"},
    {"engine.step_s", "s"},
    {"engine.step_max_ms", "ms"},
    {"engine.finish_s", "s"},
    {"engine.iterations", "count"},
    {"engine.self_s", "s"},
    {"vgpu.h2d_busy_s", "s"},
    {"vgpu.d2h_busy_s", "s"},
    {"vgpu.smx_busy_s", "s"},
    {"vgpu.copy_exposed_s", "s"},
    {"vgpu.h2d_bytes", "bytes"},
    {"vgpu.d2h_bytes", "bytes"},
    {"vgpu.kernels", "count"},
    {"vgpu.memcpy_ops", "count"},
    {"shard_cache.hit_rate", "ratio"},
    {"shard_cache.hits", "count"},
    {"shard_cache.evictions", "count"},
    {"shard_cache.writebacks", "count"},
    {"shard_cache.bytes_saved", "bytes"},
    {"transfer.explicit_shards", "count"},
    {"transfer.explicit_bytes", "bytes"},
    {"transfer.compressed_shards", "count"},
    {"transfer.compressed_bytes", "bytes"},
    {"transfer.pinned_shards", "count"},
    {"transfer.pinned_bytes", "bytes"},
    {"transfer.managed_shards", "count"},
    {"transfer.managed_bytes", "bytes"},
    {"transfer.skipped_shards", "count"},
    {"transfer.skipped_bytes", "bytes"},
    {"frontier.shards_skipped_frac", "ratio"},
    {"frontier.active_vertices", "count"},
    {"frontier.pull_iters", "count"},
    {"sched.queue_p95_ms", "ms"},
    {"sched.rewidens", "count"},
    {"sched.shared_hits", "count"},
    {"sched.shared_bytes", "bytes"},
    {"sched.fused_lanes", "count"},
    {"sched.steps", "count"},
    {"sched.max_concurrent_seen", "count"},
    {"sched.submit_s", "s"},
    {"sched.drain_s", "s"},
    {"sched.self_s", "s"},
    {"sched.p50_ms.low", "ms"},
    {"sched.p95_ms.low", "ms"},
    {"sched.p50_ms.mid", "ms"},
    {"sched.p95_ms.mid", "ms"},
    {"sched.p50_ms.high", "ms"},
    {"sched.p95_ms.high", "ms"},
    {"sched.goodput_qps.high", "1/s"},
    {"sched.batch_qps", "1/s"},
    {"reference.check_s", "s"},
    {"reference.self_s", "s"},
    {"trace.overhead_s", "s"},
};

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Span totals and self times over spans [from, to) of the log, one
/// segment (a set-up round or a traced pass).
std::map<std::string, double> segment_times(const SpanLog& log,
                                            std::size_t from,
                                            std::size_t to) {
  std::map<std::string, double> t;
  const std::vector<Span>& spans = log.spans();
  std::vector<double> covered(spans.size(), 0.0);
  for (std::size_t i = from; i < to; ++i) {
    const Span& s = spans[i];
    t[s.name + "_s"] += s.duration();
    t[s.name + "_n"] += 1.0;
    if (s.name == "engine.step")
      t["engine.step_max_ms"] =
          std::max(t["engine.step_max_ms"], s.duration() * 1e3);
    // Children run strictly inside their parent and one at a time (the
    // benchmark is single-threaded), so their durations add up to the
    // covered part of the parent's interval.
    if (s.parent >= 0) covered[s.parent] += s.duration();
  }
  for (std::size_t i = from; i < to; ++i)
    t[spans[i].layer() + ".self_s"] += spans[i].duration() - covered[i];
  return t;
}

std::map<std::string, double> median_of(
    const std::vector<std::map<std::string, double>>& segments) {
  std::map<std::string, std::vector<double>> all;
  for (const auto& seg : segments)
    for (const auto& [k, v] : seg) all[k];
  for (const auto& seg : segments)
    for (auto& [k, values] : all) {
      const auto it = seg.find(k);
      values.push_back(it == seg.end() ? 0.0 : it->second);
    }
  std::map<std::string, double> out;
  for (const auto& [k, values] : all) out[k] = gr::util::percentile(values, 50);
  return out;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

void print_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                const std::vector<std::pair<Metric, double>>& metrics) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].second) ? metrics[i].second : 0.0;
    char num[40];
    std::snprintf(num, sizeof num, "%.17g", v);
    json += (i ? ", \"" : "\"") + std::string(metrics[i].first.name) +
            "\": {\"value\": " + num + ", \"unit\": \"" +
            metrics[i].first.unit + "\"}";
  }
  std::cout << json << "}}" << std::endl;
}

int run(int argc, char** argv) {
  std::string workload_name;
  std::int64_t seed = 1;
  double seconds = 25.0;
  std::uint32_t trace = 0;
  std::uint32_t threads = 1;
  std::string spans_out;
  gr::util::Cli cli("grbench",
                    "end-to-end benchmark: analytics-oom, traversal, serving");
  cli.flag("workload", &workload_name,
           "analytics-oom | traversal | serving")
      .flag("seed", &seed,
            "input seed: sources, arrivals, query mix, vertex rotation")
      .flag("seconds", &seconds,
            "measure passes until about this many seconds of timed phase "
            "(at least three passes)")
      .flag("trace", &trace, "0 = end-to-end metrics, 1 = per-layer metrics")
      .flag("threads", &threads,
            "host threads of the functional backend (simulated results are "
            "identical for any value)")
      .flag("spans-out", &spans_out,
            "write the traced run's spans here, one JSON object per line");
  if (!cli.parse(argc, argv)) return 0;
  GR_CHECK_MSG(trace <= 1, "--trace must be 0 or 1");
  GR_CHECK_MSG(threads >= 1, "--threads must be at least 1");
  gr::util::set_log_level(gr::util::LogLevel::kWarn);
  gr::algo::register_builtin_programs();

  SpanLog log;
  Context ctx;
  ctx.threads = threads;
  ctx.seed = static_cast<std::uint64_t>(seed);
  ctx.spans = trace ? &log : nullptr;
  const std::unique_ptr<Workload> workload = make_workload(workload_name, ctx);

  std::vector<double> setup_s;
  std::vector<std::map<std::string, double>> setup_segments;
  constexpr int kSetupRounds = 3;
  for (int r = 0; r < kSetupRounds; ++r) {
    const std::size_t from = log.spans().size();
    setup_s.push_back(workload->setup());
    setup_segments.push_back(segment_times(log, from, log.spans().size()));
    setup_segments.back()["partition.builds"] =
        setup_segments.back()["partition.build_n"];
  }

  std::vector<PassResult> passes;
  std::vector<double> plain_wall, traced_wall;
  std::vector<std::vector<double>> plain_units;
  std::vector<std::map<std::string, double>> pass_segments;
  // Start another pass while the measured time stays within the budget
  // (judged by the previous pass), after the minimum three.
  constexpr std::size_t kMinPasses = 3;
  double measured_s = 0.0, last_pass_s = 0.0;
  while (passes.size() < kMinPasses || measured_s + last_pass_s <= seconds) {
    const bool traced = trace && passes.size() % 2 == 1;
    ctx.spans = traced ? &log : nullptr;
    const std::size_t from = log.spans().size();
    passes.push_back(workload->pass());
    const std::vector<double>& units = passes.back().unit_wall_s;
    last_pass_s = std::accumulate(units.begin(), units.end(), 0.0);
    measured_s += last_pass_s;
    (traced ? traced_wall : plain_wall).push_back(last_pass_s);
    if (traced)
      pass_segments.push_back(segment_times(log, from, log.spans().size()));
    else
      plain_units.push_back(units);
  }

  // Every pass must reproduce the first one's simulated clock exactly.
  const PassResult& first = passes.front();
  bool deterministic = true;
  std::uint64_t attempted = 0, failed = 0, mismatched = 0;
  for (const PassResult& p : passes) {
    deterministic = deterministic && p.sim == first.sim &&
                    p.sim_s == first.sim_s &&
                    p.p95_sample == first.p95_sample &&
                    p.unit_wall_s.size() == first.unit_wall_s.size();
    attempted += p.attempted;
    failed += p.failed + p.mismatched;
    mismatched += p.mismatched;
  }
  const bool correct = deterministic && failed == 0;

  std::cout << "grbench " << workload_name << " seed=" << seed
            << " threads=" << threads << " setup_rounds=" << kSetupRounds
            << " passes=" << passes.size() << "\n";
  std::cout << "pass wall seconds:";
  for (double w : plain_wall) std::cout << " " << w;
  if (!traced_wall.empty()) {
    std::cout << "; traced:";
    for (double w : traced_wall) std::cout << " " << w;
  }
  std::cout << "\n";
  for (const std::string& note : first.notes) std::cout << note << "\n";
  std::cout << "failed_frac " << ratio(double(failed), double(attempted))
            << " (" << failed << " of " << attempted << " queries; "
            << mismatched << " disagreed with the reference)\n";
  if (!deterministic)
    std::cout << "ERROR: simulated results differ between passes\n";

  std::vector<std::pair<Metric, double>> metrics;
  if (!trace) {
    double wall_s = 0.0;
    for (std::size_t u = 0; u < first.unit_wall_s.size(); ++u) {
      std::vector<double> samples;
      for (const std::vector<double>& units : plain_units)
        samples.push_back(units[u]);
      wall_s += gr::util::percentile(samples, 50);
    }
    const std::map<std::string, double> v = {
        {"sim_s", first.sim_s},
        {"wall_s", wall_s},
        {"setup_s", gr::util::percentile(setup_s, 50)},
        {"peak_rss_mb", peak_rss_mib()},
        {"success_frac", 1.0 - ratio(double(failed), double(attempted))},
        {"p95_ms", gr::util::percentile(first.p95_sample, 95) * 1e3},
        {"qps", first.qps},
    };
    for (const Metric& m : kEndToEnd) metrics.push_back({m, v.at(m.name)});
    std::cout << "p95_ms over " << first.p95_sample.size() << " queries\n";
  } else {
    std::map<std::string, double> v = first.sim;
    const auto setup = median_of(setup_segments);
    const auto timed = median_of(pass_segments);
    const auto get = [](const std::map<std::string, double>& m,
                        const std::string& k) {
      const auto it = m.find(k);
      return it == m.end() ? 0.0 : it->second;
    };
    v["graph.generate_s"] = get(setup, "graph.generate_s");
    v["partition.build_s"] = get(setup, "partition.build_s");
    // Builds in set-up, plus those serving's schedulers do in each pass.
    v["partition.builds"] =
        get(setup, "partition.builds") + get(first.sim, "partition.builds");
    v["engine.plan_s"] =
        get(timed, "engine.make_job_s") - get(timed, "partition.build_s");
    for (const char* k : {"engine.begin_s", "engine.step_s",
                          "engine.step_max_ms", "engine.finish_s",
                          "sched.submit_s", "sched.drain_s",
                          "reference.check_s"})
      v[k] = get(timed, k);
    // Set-up layers self-time over a set-up round, the rest over a pass.
    for (const char* layer : {"graph", "partition"})
      v[std::string(layer) + ".self_s"] =
          get(setup, std::string(layer) + ".self_s") +
          get(timed, std::string(layer) + ".self_s");
    for (const char* layer : {"engine", "sched", "reference"})
      v[std::string(layer) + ".self_s"] =
          get(timed, std::string(layer) + ".self_s");
    v["vgpu.copy_exposed_s"] = first.sim_s - get(v, "vgpu.smx_busy_s");
    v["shard_cache.hit_rate"] =
        ratio(get(v, "shard_cache.hits"),
              get(v, "shard_cache.hits") + get(v, "shard_cache.misses"));
    v["frontier.shards_skipped_frac"] =
        ratio(get(v, "frontier.shards_skipped"),
              get(v, "frontier.shards_skipped") +
                  get(v, "frontier.shards_processed"));
    v["trace.overhead_s"] = gr::util::percentile(traced_wall, 50) -
                            gr::util::percentile(plain_wall, 50);
    for (const Metric& m : kPerLayer) metrics.push_back({m, get(v, m.name)});
    std::cout << "shard_cache.hit_rate base: "
              << get(v, "shard_cache.hits") + get(v, "shard_cache.misses")
              << " group loads; frontier.shards_skipped_frac base: "
              << get(v, "frontier.shards_skipped") +
                     get(v, "frontier.shards_processed")
              << " shard visits; traced passes: " << traced_wall.size()
              << ", untraced: " << plain_wall.size() << "\n";
    if (!spans_out.empty()) log.write(spans_out);
  }
  for (const auto& [m, value] : metrics)
    std::printf("  %-30s %.9g %s\n", m.name, value, m.unit);
  std::fflush(stdout);
  print_json(correct, attempted, failed, metrics);
  return 0;
}

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        Context& ctx) {
  if (name == "analytics-oom") return make_analytics_oom(ctx);
  if (name == "traversal") return make_traversal(ctx);
  if (name == "serving") return make_serving(ctx);
  GR_CHECK_MSG(false, "unknown workload '"
                          << name
                          << "' (analytics-oom | traversal | serving)");
  __builtin_unreachable();
}

}  // namespace grbench

int main(int argc, char** argv) {
  try {
    return grbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "grbench: " << e.what() << "\n";
    return 2;
  }
}
