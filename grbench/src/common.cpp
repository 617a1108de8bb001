#include "common.hpp"

#include <algorithm>
#include <cmath>

#include "baselines/reference/serial.hpp"
#include "core/engine/program_registry.hpp"
#include "graph/datasets.hpp"
#include "graph/transforms.hpp"
#include "util/common.hpp"
#include "vgpu/config.hpp"

namespace grbench {

namespace ref = gr::baselines::reference;

Rng make_rng(std::uint64_t seed, const std::string& purpose) {
  std::uint64_t state =
      seed ^ gr::core::fnv1a_bytes(purpose.data(), purpose.size());
  return Rng(gr::util::splitmix64(state));
}

std::shared_ptr<const gr::core::PartitionedGraph> PlanCache::get(
    const EdgeList& edges, std::uint32_t partitions) {
  auto& plan = plans_[{&edges, partitions}];
  if (!plan) {
    Scope span(ctx_.spans, "partition.build");
    const auto start = Clock::now();
    plan = std::make_shared<const gr::core::PartitionedGraph>(
        gr::core::PartitionedGraph::build(edges, partitions));
    build_s_ += seconds_since(start);
    ++builds_;
  }
  return plan;
}

EdgeList generate_dataset(const std::string& name, const Context& ctx) {
  Scope span(ctx.spans, "graph.generate");
  EdgeList edges = gr::graph::make_dataset(name, 1.0);
  edges.randomize_weights(1.0f, 64.0f, make_rng(ctx.seed, "weights/" + name)());
  return edges;
}

EdgeList rotate_vertices(const EdgeList& edges, const std::string& name,
                         const Context& ctx) {
  const VertexId n = edges.num_vertices();
  Rng rng = make_rng(ctx.seed, "rotate/" + name);
  const auto shift = static_cast<VertexId>(rng.below(n));
  std::vector<VertexId> renumber(n);
  for (VertexId v = 0; v < n; ++v)
    renumber[v] =
        static_cast<VertexId>((static_cast<std::uint64_t>(v) + shift) % n);
  return gr::graph::permute_vertices(edges, renumber);
}

std::vector<VertexId> pick_sources(const EdgeList& edges, std::size_t count,
                                   Rng& rng) {
  // One random edge from each of `count` equal slices of the edge list.
  const std::uint64_t m = edges.num_edges();
  std::vector<VertexId> sources(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t lo = m * i / count, hi = m * (i + 1) / count;
    const std::uint64_t pick =
        lo + rng.below(std::max<std::uint64_t>(hi - lo, 1));
    sources[i] = edges.edge(pick).src;
  }
  return sources;
}

namespace {

template <typename T>
std::vector<double> as_doubles(const std::vector<T>& values) {
  return std::vector<double>(values.begin(), values.end());
}

/// Serial reference values as doubles, the projection ProgramRunResult
/// uses.
std::vector<double> reference_values(const EdgeList& edges,
                                     const std::string& program,
                                     VertexId source) {
  if (program == "bfs" || program == "dobfs")
    return as_doubles(ref::bfs_depths(edges, source));
  if (program == "sssp") return as_doubles(ref::sssp_distances(edges, source));
  if (program == "pagerank") return as_doubles(ref::pagerank(edges, 50));
  if (program == "cc") return as_doubles(ref::min_label_fixpoint(edges));
  GR_CHECK_MSG(false, "no reference for program '" << program << "'");
  __builtin_unreachable();
}

std::uint64_t hash_values(const std::vector<double>& values) {
  return gr::core::fnv1a_bytes(values.data(), values.size() * sizeof(double));
}

}  // namespace

bool ReferenceCache::matches(const EdgeList& edges,
                             const std::string& program, VertexId source,
                             const std::vector<double>& got) {
  const bool pagerank = program == "pagerank";
  // PageRank and CC ignore the source; key them on one entry.
  if (pagerank || program == "cc") source = 0;
  auto [it, fresh] = expected_.try_emplace({&edges, program, source});
  Expected& want = it->second;
  if (fresh) {
    std::vector<double> values = reference_values(edges, program, source);
    want.size = values.size();
    want.hash = hash_values(values);
    if (pagerank) want.values = std::move(values);
  }
  if (got.size() != want.size) return false;
  if (!pagerank) return hash_values(got) == want.hash;
  for (std::size_t v = 0; v < got.size(); ++v)
    if (!(std::abs(got[v] - want.values[v]) < 0.02)) return false;
  return true;
}

void add_report_counts(const gr::core::RunReport& r,
                       std::map<std::string, double>& sim) {
  const auto add = [&sim](const std::string& key, double v) { sim[key] += v; };
  add("engine.iterations", r.iterations);
  add("vgpu.h2d_busy_s", r.h2d_busy_seconds);
  add("vgpu.d2h_busy_s", r.d2h_busy_seconds);
  add("vgpu.smx_busy_s", r.kernel_seconds);
  add("vgpu.h2d_bytes", static_cast<double>(r.bytes_h2d));
  add("vgpu.d2h_bytes", static_cast<double>(r.bytes_d2h));
  add("vgpu.kernels", static_cast<double>(r.kernels_launched));
  add("vgpu.memcpy_ops", static_cast<double>(r.memcpy_ops));
  add("shard_cache.hits", static_cast<double>(r.cache_hits));
  add("shard_cache.misses", static_cast<double>(r.cache_misses));
  add("shard_cache.evictions", static_cast<double>(r.cache_evictions));
  add("shard_cache.writebacks", static_cast<double>(r.cache_writebacks));
  add("shard_cache.bytes_saved", static_cast<double>(r.bytes_h2d_saved));
  const gr::core::TransferStats& t = r.transfer;
  add("transfer.explicit_shards", static_cast<double>(t.explicit_shards));
  add("transfer.explicit_bytes", static_cast<double>(t.explicit_bytes));
  add("transfer.compressed_shards", static_cast<double>(t.compressed_shards));
  add("transfer.compressed_bytes", static_cast<double>(t.compressed_bytes));
  add("transfer.pinned_shards", static_cast<double>(t.pinned_shards));
  add("transfer.pinned_bytes", static_cast<double>(t.pinned_bytes));
  add("transfer.managed_shards", static_cast<double>(t.managed_shards));
  add("transfer.managed_bytes", static_cast<double>(t.managed_bytes));
  add("transfer.skipped_shards", static_cast<double>(t.skipped_shards));
  add("transfer.skipped_bytes", static_cast<double>(t.skipped_bytes));
  add("sched.shared_bytes", static_cast<double>(r.cache_shared_bytes));
  for (const gr::core::IterationStats& it : r.history) {
    add("frontier.shards_processed", it.shards_processed);
    add("frontier.shards_skipped", it.shards_skipped);
    add("frontier.active_vertices", static_cast<double>(it.active_vertices));
    add("frontier.pull_iters", it.pull ? 1.0 : 0.0);
  }
}

gr::core::EngineOptions base_options(const Context& ctx) {
  gr::core::EngineOptions options;
  options.device = gr::vgpu::DeviceConfig::bench_default();
  options.threads = ctx.threads;
  return options;
}

}  // namespace grbench
