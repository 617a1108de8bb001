// serving: single-source queries through the JobScheduler on one shared
// simulated device. An open-loop phase per offered rate (seeded Poisson
// arrivals, 80% BFS / 20% SSSP), then closed batches of fused BFS.
// Every phase gets its own scheduler, so a throw costs only that
// phase's queries.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/engine/scheduler.hpp"
#include "graph/datasets.hpp"
#include "util/stats.hpp"
#include "workloads.hpp"

namespace grbench {
namespace {

constexpr const char* kDataset = "kron_g500-logn20";
/// Device capacity as a share of the graph's footprint: out of memory.
constexpr double kMemoryFactor = 0.5;
constexpr std::uint32_t kMaxConcurrent = 4;
/// Fixed offered rates (queries per simulated second) at about 1/3, 2/3
/// and 4/3 of the mix's sequential capacity, and the p95 latency limit.
struct Rate {
  const char* name;
  double qps;
};
constexpr Rate kRates[] = {{"low", 40.0}, {"mid", 80.0}, {"high", 160.0}};
constexpr double kSloSeconds = 0.100;
/// Queries per open-loop phase: p95 keeps ten samples beyond it.
constexpr std::size_t kQueriesPerRate = 300;
constexpr std::size_t kSsspPercent = 20;
constexpr std::size_t kBatchSizes[] = {16, 32, 16, 32, 16, 32, 16, 32};

struct Query {
  std::string program;
  VertexId source = 0;
  double arrival = 0.0;  // scheduled, simulated seconds
};

struct Phase {
  std::string name;
  std::vector<Query> queries;
  bool batch = false;
};

/// What one phase's queries did, in query order; latency < 0 = failed.
struct PhaseResult {
  std::vector<double> latency;
  std::vector<double> queue;
  double makespan = 0.0;
  double last_finish = 0.0;
};

class Serving : public Workload {
 public:
  explicit Serving(Context& ctx) : ctx_(ctx) {}

  double setup() override {
    phases_.clear();
    references_ = ReferenceCache();
    const auto start = Clock::now();
    edges_ = generate_dataset(kDataset, ctx_);
    Rng source_rng = make_rng(ctx_.seed, "sources");

    Rng mix = make_rng(ctx_.seed, "mix");
    Rng arrivals = make_rng(ctx_.seed, "arrivals");
    for (const Rate& rate : kRates) {
      // A Poisson process conditioned on its count: n arrivals spread
      // uniformly over the window n / rate, sorted.
      Phase phase{rate.name, {}, false};
      const double window = static_cast<double>(kQueriesPerRate) / rate.qps;
      std::vector<double> times(kQueriesPerRate);
      for (double& t : times) t = arrivals.uniform() * window;
      std::sort(times.begin(), times.end());
      // Exactly kSsspPercent% of the queries are SSSP, at seeded positions.
      std::vector<char> sssp(kQueriesPerRate, 0);
      std::fill_n(sssp.begin(), kQueriesPerRate * kSsspPercent / 100, 1);
      for (std::size_t i = sssp.size(); i > 1; --i)
        std::swap(sssp[i - 1], sssp[mix.below(i)]);
      const std::vector<VertexId> sources =
          pick_sources(edges_, kQueriesPerRate, source_rng);
      for (std::size_t i = 0; i < kQueriesPerRate; ++i)
        phase.queries.push_back(
            {sssp[i] ? "sssp" : "bfs", sources[i], times[i]});
      phases_.push_back(std::move(phase));
    }
    for (std::size_t size : kBatchSizes) {
      Phase phase{"batch" + std::to_string(size), {}, true};
      for (VertexId source : pick_sources(edges_, size, source_rng))
        phase.queries.push_back({"bfs", source, 0.0});
      phases_.push_back(std::move(phase));
    }

    options_ = base_options(ctx_);
    options_.device.global_memory_bytes = static_cast<std::uint64_t>(
        static_cast<double>(gr::graph::footprint_bytes(
            edges_.num_vertices(), edges_.num_edges())) *
        kMemoryFactor);
    options_.sched_max_concurrent = kMaxConcurrent;
    // bench_serving's shard count: a 1/W slice still affords two cache
    // lanes next to the streaming ring.
    options_.partitions = static_cast<std::uint32_t>(
        std::ceil(1.3 * 4.0 * kMaxConcurrent / (0.95 * kMemoryFactor)));
    return seconds_since(start);
  }

  PassResult pass() override {
    PassResult out;
    std::vector<double> queue;
    double batch_sim = 0.0;
    std::size_t batch_done = 0;
    for (const Phase& phase : phases_) {
      const PhaseResult r = run_phase(phase, out);
      out.sim_s += r.makespan;
      std::vector<double> done;
      for (std::size_t i = 0; i < r.latency.size(); ++i)
        if (r.latency[i] >= 0.0) done.push_back(r.latency[i]);
      if (phase.batch) {
        batch_sim += r.makespan;
        batch_done += done.size();
        continue;
      }
      if (phase.name == "high") out.p95_sample = done;
      queue.insert(queue.end(), r.queue.begin(), r.queue.end());
      report_rate(phase, r, done, out);
    }
    out.qps = batch_sim > 0.0 ? static_cast<double>(batch_done) / batch_sim
                              : 0.0;
    out.sim["sched.queue_p95_ms"] = gr::util::percentile(queue, 95) * 1e3;
    out.sim["sched.batch_qps"] = out.qps;
    char line[160];
    std::snprintf(line, sizeof line,
                  "serving batch: %zu fused BFS queries in %.6f s simulated "
                  "= %.3f queries/s",
                  batch_done, batch_sim, out.qps);
    out.notes.push_back(line);
    return out;
  }

 private:
  PhaseResult run_phase(const Phase& phase, PassResult& out) {
    PhaseResult r;
    r.latency.assign(phase.queries.size(), -1.0);
    out.attempted += phase.queries.size();
    std::vector<gr::core::JobRequest> requests;
    for (const Query& q : phase.queries) {
      gr::core::JobRequest request;
      request.program = q.program;
      request.spec.source = q.source;
      request.arrival_seconds = q.arrival;
      requests.push_back(std::move(request));
    }
    const std::uint64_t id = ++next_id_;
    gr::core::JobScheduler sched(edges_, options_);
    std::vector<gr::core::JobId> ids;
    const auto start = Clock::now();
    try {
      if (phase.batch) {
        Scope span(ctx_.spans, "sched.submit", id);
        ids = sched.submit_batch(std::move(requests));
      } else {
        for (gr::core::JobRequest& request : requests) {
          Scope span(ctx_.spans, "sched.submit", id);
          ids.push_back(sched.submit(std::move(request)));
        }
      }
      {
        Scope span(ctx_.spans, "sched.drain", id);
        sched.drain();
        sched.verify_attribution();
      }
      out.unit_wall_s.push_back(seconds_since(start));
    } catch (const std::exception&) {
      // No per-tenant catch in the scheduler: one throw unwinds the whole
      // drain, so every query of the phase counts as failed.
      out.unit_wall_s.push_back(seconds_since(start));
      out.failed += phase.queries.size();
      return r;
    }

    std::map<std::string, double> counts;
    // The scheduler memoizes one partition plan per partition count and
    // builds it inside drain(), out of the benchmark's reach: count the
    // distinct counts its runs report. Their time is in wall_s.
    std::set<std::uint32_t> plans;
    {
      Scope span(ctx_.spans, "reference.check", id);
      for (std::size_t i = 0; i < ids.size(); ++i) {
        const gr::core::JobResult& res = sched.result(ids[i]);
        const Query& q = phase.queries[i];
        if (res.lane == 0) plans.insert(res.run.report.partitions);
        if (!references_.matches(edges_, q.program, q.source,
                                 res.run.values)) {
          ++out.mismatched;
          continue;
        }
        r.latency[i] = res.finish_seconds - q.arrival;
        r.queue.push_back(res.admit_seconds - q.arrival);
        r.last_finish = std::max(r.last_finish, res.finish_seconds);
        // A fused run reports once, on its first lane.
        if (res.lane == 0) add_report_counts(res.run.report, counts);
      }
    }
    r.makespan = sched.device().now();
    out.sim["partition.builds"] += static_cast<double>(plans.size());

    // Device-side counts come from the device itself: with tenants
    // overlapping, per-run reports would double-count shared time.
    for (const auto& [key, value] : counts)
      if (key.rfind("vgpu.", 0) != 0) out.sim[key] += value;
    const gr::vgpu::DeviceStats d = sched.device_totals();
    out.sim["vgpu.h2d_busy_s"] += d.h2d_busy_seconds;
    out.sim["vgpu.d2h_busy_s"] += d.d2h_busy_seconds;
    out.sim["vgpu.smx_busy_s"] += d.kernel_busy_seconds;
    out.sim["vgpu.h2d_bytes"] += static_cast<double>(d.bytes_h2d);
    out.sim["vgpu.d2h_bytes"] += static_cast<double>(d.bytes_d2h);
    out.sim["vgpu.kernels"] += static_cast<double>(d.kernels_launched);
    out.sim["vgpu.memcpy_ops"] += static_cast<double>(d.h2d_ops + d.d2h_ops);
    const gr::core::SchedulerStats& s = sched.stats();
    out.sim["sched.rewidens"] += static_cast<double>(s.rewidens);
    out.sim["sched.fused_lanes"] += static_cast<double>(s.fused_lanes);
    out.sim["sched.steps"] += static_cast<double>(s.steps);
    out.sim["sched.shared_hits"] +=
        static_cast<double>(sched.shared_cache_stats().hits);
    double& widest = out.sim["sched.max_concurrent_seen"];
    widest = std::max(widest, static_cast<double>(s.max_concurrent_seen));
    return r;
  }

  /// Per-rate latency figures, with their sample counts.
  void report_rate(const Phase& phase, const PhaseResult& r,
                   const std::vector<double>& done, PassResult& out) {
    const double p50 = gr::util::percentile(done, 50) * 1e3;
    const double p95 = gr::util::percentile(done, 95) * 1e3;
    out.sim["sched.p50_ms." + phase.name] = p50;
    out.sim["sched.p95_ms." + phase.name] = p95;
    const double last_arrival = phase.queries.back().arrival;
    const bool backlog = r.last_finish - last_arrival > kSloSeconds;
    const bool meets = done.size() == phase.queries.size() &&
                       p95 <= kSloSeconds * 1e3 && !backlog;
    std::size_t good = 0;
    for (double l : done) good += l <= kSloSeconds ? 1 : 0;
    const double goodput = r.makespan > 0.0 ? good / r.makespan : 0.0;
    if (phase.name == "high") out.sim["sched.goodput_qps.high"] = goodput;
    double mean = 0.0;
    for (double l : done) mean += l * 1e3 / static_cast<double>(done.size());
    char line[200];
    std::snprintf(line, sizeof line,
                  "serving %-4s rate: p50 %.3f ms, p95 %.3f ms, mean %.3f ms "
                  "(n=%zu of %zu), goodput %.3f q/s, SLO %s",
                  phase.name.c_str(), p50, p95, mean, done.size(),
                  phase.queries.size(), goodput, meets ? "met" : "missed");
    out.notes.push_back(line);
  }

  Context& ctx_;
  EdgeList edges_;
  std::vector<Phase> phases_;
  gr::core::EngineOptions options_;
  ReferenceCache references_;
  std::uint64_t next_id_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_serving(Context& ctx) {
  return std::make_unique<Serving>(ctx);
}

}  // namespace grbench
