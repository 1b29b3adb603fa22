// Per-layer probes that time public library calls from outside: planning
// (core), the NX baseline, the schedule simulator (sim), static analysis
// (ir), the reduce fold (runtime/reduce), and the reading of the library's
// own trace spans (obs).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common.hpp"
#include "intercom/intercom.hpp"

namespace perfbench {

/// One planning request as the communicator makes it.
struct PlanRequest {
  intercom::Collective collective;
  std::size_t elems = 0;
  std::size_t elem_size = 0;
  int root = 0;
  std::string label;         ///< row label for the printed table
  double measured_us = 0.0;  ///< measured p50 of this shape (0 = not run)
};

/// Plans every request with `planner` and the NX baseline, analyzes and
/// simulates the planner's schedule, prints the model-term table, and adds
/// core.planner.plan_ms, baseline.nx.plan_ms, sim.engine.* and
/// ir.analysis.* (requests weighted equally, as the workloads draw them).
void probe_model_layers(const intercom::Planner& planner,
                        const intercom::Mesh2D& mesh,
                        const std::vector<PlanRequest>& requests,
                        Result& result);

/// Times sum_op<double>() folding vectors of the given byte sizes and adds
/// runtime.reduce.fold_ns_per_byte.
void probe_fold(const std::vector<std::size_t>& sizes_bytes, Result& result);

/// Self and wait times read from a machine's armed Tracer (kCollective /
/// kStep / kSend / kRecv spans).  Per-op sums are matched by context id.
struct LibraryLayerTimes {
  std::size_t collectives = 0, steps = 0, sends = 0, recvs = 0;
  double collective_self_us = 0.0;  ///< per collective: span minus its steps
  double step_self_us = 0.0;        ///< per step: span minus its wire ops
  double send_us = 0.0;             ///< per send span
  double recv_us = 0.0;             ///< per recv span (includes park/wake)
};
LibraryLayerTimes read_library_spans(const intercom::Tracer& tracer);

/// Writes `tracer` as chrome-trace JSON (the library's exporter) to
/// `dir/name`; prints where it went.
void write_chrome_trace(const intercom::Tracer& tracer, const std::string& dir,
                        const std::string& name);

}  // namespace perfbench
