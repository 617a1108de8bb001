// Shared pieces of grbench: run context, per-pass results,
// seeded input generation and the reference checks.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/options.hpp"
#include "core/partition.hpp"
#include "graph/edge_list.hpp"
#include "spans.hpp"
#include "util/rng.hpp"

namespace grbench {

using gr::graph::EdgeList;
using gr::graph::VertexId;
using gr::util::Rng;

/// Independent stream for one purpose ("sources", "arrivals", ...).
Rng make_rng(std::uint64_t seed, const std::string& purpose);

/// Everything one run shares: the span log (null when untraced) and the
/// host thread count every engine option set uses.
struct Context {
  SpanLog* spans = nullptr;
  std::uint32_t threads = 1;
  std::uint64_t seed = 1;
};

/// One pass over the workload's timed phase.
struct PassResult {
  /// Host time of the timed calls (make_job/begin/step/finish or
  /// submit/drain) per unit of work (a job, or a serving phase), partition
  /// builds and reference checks left out. Units keep their order from
  /// pass to pass.
  std::vector<double> unit_wall_s;
  double sim_s = 0.0;
  /// Simulated latencies (seconds) of the completed queries p95_ms is
  /// taken over: every query of a solo workload, the high-rate phase of
  /// serving.
  std::vector<double> p95_sample;
  /// Closed-loop throughput in queries per simulated second.
  double qps = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;      // threw
  std::uint64_t mismatched = 0;  // disagreed with the serial reference
  /// Simulated-clock counts and times per layer ("vgpu.h2d_bytes", ...).
  /// Deterministic: every pass of a run must produce the same map.
  std::map<std::string, double> sim;
  /// Lines of the human-readable report (serving per-rate figures).
  std::vector<std::string> notes;
};

/// Memoizing, timed partition provider: the EngineEnv seam through
/// which the benchmark observes partition builds.
class PlanCache {
 public:
  explicit PlanCache(const Context& ctx) : ctx_(ctx) {}
  std::shared_ptr<const gr::core::PartitionedGraph> get(
      const EdgeList& edges, std::uint32_t partitions);

  double build_seconds() const { return build_s_; }
  std::uint64_t builds() const { return builds_; }

 private:
  const Context& ctx_;
  std::map<std::pair<const EdgeList*, std::uint32_t>,
           std::shared_ptr<const gr::core::PartitionedGraph>>
      plans_;
  double build_s_ = 0.0;
  std::uint64_t builds_ = 0;
};

/// Generates a dataset analog with SSSP weights drawn from the seed.
EdgeList generate_dataset(const std::string& name, const Context& ctx);

/// Renumbers vertices by a seeded cyclic shift, which moves the shard
/// boundaries without changing the graph. This is the benchmark's own
/// input variation, so it is neither set-up time nor a span.
EdgeList rotate_vertices(const EdgeList& edges, const std::string& name,
                         const Context& ctx);

/// `count` sources drawn in proportion to out-degree (a random edge's
/// tail), so traversals start inside the graph's bulk. The draw is
/// stratified over the edge list's order, which on the grid analogs
/// spreads sources across the grid and steadies their eccentricity mix.
std::vector<VertexId> pick_sources(const EdgeList& edges, std::size_t count,
                                   Rng& rng);

/// Checks results against the serial references, which run once per
/// (graph, program, source) however many passes check them: exactly for
/// traversal and CC (kept as a hash, so the cache stays small next to the
/// program's own memory), and for PageRank within the absolute tolerance
/// the repository's cross-framework tests use.
class ReferenceCache {
 public:
  bool matches(const EdgeList& edges, const std::string& program,
               VertexId source, const std::vector<double>& got);

 private:
  struct Expected {
    std::size_t size = 0;
    std::uint64_t hash = 0;
    std::vector<double> values;  // PageRank only
  };
  std::map<std::tuple<const EdgeList*, std::string, VertexId>, Expected>
      expected_;
};

/// Adds the simulated-side counters of one engine run to `sim`.
void add_report_counts(const gr::core::RunReport& report,
                       std::map<std::string, double>& sim);

/// Engine options shared by every workload: the scaled K20c the
/// repository's benches use, and the run's host thread count.
gr::core::EngineOptions base_options(const Context& ctx);

}  // namespace grbench
