// analytics-oom and traversal: jobs run one at a time, each on its own
// simulated device, through the staged job API
// (make_job / begin / step... / finish / result).
#include <exception>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/engine/job.hpp"
#include "core/engine/program_registry.hpp"
#include "workloads.hpp"

namespace grbench {
namespace {

/// One line of a workload's job table: `sources` seeded traversal
/// sources (0 = a source-free program, run once).
struct JobTemplate {
  std::size_t graph = 0;
  std::string program;
  std::size_t sources = 0;
  std::string transfer_policy = "explicit";
  std::string direction = "push";
};

struct Job {
  std::size_t graph = 0;
  std::string program;
  VertexId source = 0;
  gr::core::EngineOptions options;
};

class SoloWorkload : public Workload {
 public:
  SoloWorkload(Context& ctx, std::vector<std::string> graphs, bool rotate,
               std::vector<JobTemplate> templates)
      : ctx_(ctx),
        names_(std::move(graphs)),
        rotate_(rotate),
        templates_(std::move(templates)) {}

  double setup() override {
    // Drop the previous round's inputs so every round starts cold.
    jobs_.clear();
    references_ = ReferenceCache();
    plans_ = std::make_unique<PlanCache>(ctx_);
    graphs_.clear();

    double setup_s = 0.0;
    for (const std::string& name : names_) {
      const auto start = Clock::now();
      EdgeList edges = generate_dataset(name, ctx_);
      setup_s += seconds_since(start);
      if (rotate_) edges = rotate_vertices(edges, name, ctx_);
      graphs_.push_back(std::move(edges));
    }
    const auto start = Clock::now();
    Rng rng = make_rng(ctx_.seed, "sources");
    std::vector<std::size_t> first_jobs;  // one job per template
    for (const JobTemplate& t : templates_) {
      first_jobs.push_back(jobs_.size());
      Job job;
      job.graph = t.graph;
      job.program = t.program;
      job.options = base_options(ctx_);
      job.options.transfer_policy = t.transfer_policy;
      job.options.direction = t.direction;
      if (t.sources == 0) {
        jobs_.push_back(job);
        continue;
      }
      for (VertexId s : pick_sources(graphs_[t.graph], t.sources, rng)) {
        job.source = s;
        jobs_.push_back(job);
      }
    }
    setup_s += seconds_since(start);

    // Every partition plan the passes will ask for: the engine picks P
    // from the program's footprint, so plan one job per template and
    // keep only the provider's (timed) builds.
    for (std::size_t i : first_jobs) {
      try {
        make(jobs_[i]);
      } catch (const std::exception&) {
        // The pass reports it as a failed job.
      }
    }
    return setup_s + plans_->build_seconds();
  }

  PassResult pass() override {
    PassResult out;
    for (const Job& job : jobs_) {
      ++out.attempted;
      const std::uint64_t id = ++next_id_;
      const EdgeList& edges = graphs_[job.graph];
      gr::core::ProgramRunResult result;
      const double builds_before = plans_->build_seconds();
      const auto start = Clock::now();
      const auto unit_wall = [&] {
        return seconds_since(start) -
               (plans_->build_seconds() - builds_before);
      };
      try {
        std::unique_ptr<gr::core::EngineJob> engine_job;
        {
          Scope span(ctx_.spans, "engine.make_job", id);
          engine_job = make(job);
        }
        {
          Scope span(ctx_.spans, "engine.begin", id);
          engine_job->begin();
        }
        for (bool more = true; more;) {
          Scope span(ctx_.spans, "engine.step", id);
          more = engine_job->step();
        }
        {
          Scope span(ctx_.spans, "engine.finish", id);
          engine_job->finish();
          result = engine_job->result(0);
        }
        out.unit_wall_s.push_back(unit_wall());
      } catch (const std::exception&) {
        // util::CheckError and vgpu::DeviceOutOfMemory among others: the
        // job counts as failed and the pass goes on.
        out.unit_wall_s.push_back(unit_wall());
        ++out.failed;
        continue;
      }
      {
        Scope span(ctx_.spans, "reference.check", id);
        if (!references_.matches(edges, job.program, job.source,
                                 result.values))
          ++out.mismatched;
      }
      const gr::core::RunReport& report = result.report;
      out.sim_s += report.total_seconds;
      out.p95_sample.push_back(report.total_seconds);
      add_report_counts(report, out.sim);
    }
    out.qps = out.sim_s > 0.0
                  ? static_cast<double>(out.p95_sample.size()) / out.sim_s
                  : 0.0;
    return out;
  }

 private:
  std::unique_ptr<gr::core::EngineJob> make(const Job& job) {
    gr::core::ProgramSpec spec;
    spec.source = job.source;
    gr::core::EngineEnv env;
    env.partition_provider = [this](const EdgeList& edges,
                                    std::uint32_t partitions) {
      return plans_->get(edges, partitions);
    };
    return gr::core::ProgramRegistry::global()
        .at(job.program)
        .make_job(graphs_[job.graph], spec, job.options, env);
  }

  Context& ctx_;
  std::vector<std::string> names_;
  bool rotate_;
  std::vector<JobTemplate> templates_;

  std::vector<EdgeList> graphs_;
  std::vector<Job> jobs_;
  std::unique_ptr<PlanCache> plans_;
  ReferenceCache references_;
  std::uint64_t next_id_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_analytics_oom(Context& ctx) {
  // Full-frontier sweeps over graphs larger than device memory, with
  // the hybrid transfer chooser on. The seed rotates vertex ids.
  std::vector<JobTemplate> jobs;
  for (const std::string program : {"pagerank", "cc"})
    for (std::size_t g : {0, 1})
      jobs.push_back({g, program, 0, "auto", "push"});
  jobs.push_back({2, "pagerank", 0, "auto", "push"});
  return std::make_unique<SoloWorkload>(
      ctx, std::vector<std::string>{"uk-2002", "orkut", "kron_g500-logn21"},
      /*rotate=*/true, std::move(jobs));
}

std::unique_ptr<Workload> make_traversal(Context& ctx) {
  // Sparse, shifting frontiers from seeded sources: push BFS/SSSP on the
  // high-diameter out-of-memory grids, direction-optimizing BFS on three
  // graph families.
  // SSSP's iteration count varies most from source to source, so it
  // gets the most sources.
  constexpr std::size_t kBfsSources = 8;
  constexpr std::size_t kSsspSources = 16;
  constexpr std::size_t kDobfsSources = 6;
  std::vector<JobTemplate> jobs;
  for (std::size_t g : {0, 1}) {
    jobs.push_back({g, "bfs", kBfsSources, "explicit", "push"});
    jobs.push_back({g, "sssp", kSsspSources, "explicit", "push"});
  }
  for (std::size_t g : {2, 3, 4})
    jobs.push_back({g, "dobfs", kDobfsSources, "explicit", "auto"});
  return std::make_unique<SoloWorkload>(
      ctx,
      std::vector<std::string>{"nlpkkt160", "cage15", "kron_g500-logn21",
                               "uk-2002", "coAuthorsDBLP"},
      /*rotate=*/false, std::move(jobs));
}

}  // namespace grbench
