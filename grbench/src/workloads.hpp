// The benchmark's three workloads, behind one interface the run loop in
// main.cpp drives: repeated set-up rounds, then timed passes.
#pragma once

#include <memory>
#include <string>

#include "common.hpp"

namespace grbench {

class Workload {
 public:
  virtual ~Workload() = default;
  /// One cold set-up round: generate the inputs and build every
  /// partition plan the timed phase needs. Returns the round's set-up
  /// seconds (generation, weights, source picks and partition builds).
  virtual double setup() = 0;
  /// One pass over the timed phase, checked against the references.
  virtual PassResult pass() = 0;
};

/// "analytics-oom", "traversal" or "serving"; throws CheckError for any
/// other name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        Context& ctx);

// Factories (solo.cpp, serving.cpp).
std::unique_ptr<Workload> make_analytics_oom(Context& ctx);
std::unique_ptr<Workload> make_traversal(Context& ctx);
std::unique_ptr<Workload> make_serving(Context& ctx);

}  // namespace grbench
