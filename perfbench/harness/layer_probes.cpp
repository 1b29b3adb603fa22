#include "layer_probes.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <unordered_map>

namespace perfbench {

using namespace intercom;

namespace {

constexpr int kProbeReps = 5;

/// Median wall time of `reps` calls of `fn`, in milliseconds.
template <typename Fn>
double median_ms(int reps, Fn&& fn) {
  std::vector<double> ms;
  for (int i = 0; i < reps; ++i) {
    const std::uint64_t t0 = now_ns();
    fn();
    ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
  }
  return median(std::move(ms));
}

}  // namespace

void probe_model_layers(const Planner& planner, const Mesh2D& mesh,
                        const std::vector<PlanRequest>& requests,
                        Result& result) {
  SimParams params;
  params.machine = planner.params();
  const WormholeSimulator sim(mesh, params);
  const Group group = Group::contiguous(mesh.node_count());

  std::vector<double> plan_ms, nx_ms, sim_ms;
  double msgs = 0.0, wire = 0.0, fold = 0.0, virtual_s = 0.0;
  std::size_t transfers = 0;
  int peak = 0;
  std::printf("\n-- model terms per shape (analyze() of the planner's schedule;"
              " model and sim on the Paragon preset) --\n");
  std::printf("  %-26s %-28s %5s %9s %9s %5s %10s %10s %10s\n", "shape",
              "algorithm", "msgs", "wire_B", "fold_B", "alpha", "model_us",
              "sim_us", "meas_p50");
  for (const PlanRequest& req : requests) {
    Schedule schedule;
    plan_ms.push_back(median_ms(kProbeReps, [&] {
      schedule = planner.plan(req.collective, group, req.elems, req.elem_size,
                              req.root);
    }));
    nx_ms.push_back(median_ms(kProbeReps, [&] {
      const Schedule nx_schedule =
          nx::plan(req.collective, group, req.elems, req.elem_size, req.root);
      (void)nx_schedule;
    }));
    SimResult sim_result;
    sim_ms.push_back(
        median_ms(kProbeReps, [&] { sim_result = sim.run(schedule); }));
    const ScheduleStats stats = analyze(schedule, params.machine);
    msgs += static_cast<double>(stats.transfers);
    wire += static_cast<double>(stats.bytes_moved);
    fold += static_cast<double>(stats.combine_bytes);
    transfers += sim_result.transfers;
    peak = std::max(peak, sim_result.peak_link_load);
    virtual_s += sim_result.seconds;
    std::printf("  %-26s %-28s %5zu %9zu %9zu %5d %10.2f %10.2f %10.2f\n",
                req.label.c_str(), schedule.algorithm().c_str(),
                stats.transfers, stats.bytes_moved, stats.combine_bytes,
                stats.alpha_depth, stats.critical_seconds * 1e6,
                sim_result.seconds * 1e6, req.measured_us);
  }
  const double n =
      static_cast<double>(std::max<std::size_t>(1, requests.size()));
  result.add("core.planner.plan_ms", mean(plan_ms), "ms");
  result.add("baseline.nx.plan_ms", mean(nx_ms), "ms");
  result.add("sim.engine.run_ms", mean(sim_ms), "ms");
  result.add("sim.engine.transfers", static_cast<double>(transfers), "count");
  result.add("sim.engine.peak_link_load", peak, "count");
  result.add("sim.engine.virtual_s", virtual_s, "s");
  result.add("ir.analysis.msgs_per_op", msgs / n, "count");
  result.add("ir.analysis.wire_bytes_per_op", wire / n, "B");
  result.add("ir.analysis.fold_bytes_per_op", fold / n, "B");
}

void probe_fold(const std::vector<std::size_t>& sizes_bytes, Result& result) {
  const ReduceOp op = sum_op<double>();
  // Enough repetitions per size that the clock's resolution and the call
  // overhead do not dominate small sizes; bounded so the probe stays short.
  constexpr double kTargetNsPerSize = 20e6;
  double total_ns = 0.0, total_bytes = 0.0;
  for (std::size_t bytes : sizes_bytes) {
    std::vector<double> dst(bytes / sizeof(double), 1.0);
    std::vector<double> src(bytes / sizeof(double), 2.0);
    auto* d = reinterpret_cast<std::byte*>(dst.data());
    const auto* s = reinterpret_cast<const std::byte*>(src.data());
    op.fn(d, s, bytes);  // first touch outside the timing
    std::uint64_t reps = 0, ns = 0;
    while (ns < kTargetNsPerSize || reps < 3) {
      const std::uint64_t t0 = now_ns();
      op.fn(d, s, bytes);
      ns += now_ns() - t0;
      ++reps;
    }
    total_ns += static_cast<double>(ns);
    total_bytes += static_cast<double>(reps * bytes);
  }
  result.add("runtime.reduce.fold_ns_per_byte",
             total_bytes > 0 ? total_ns / total_bytes : 0.0, "ns/B");
}

LibraryLayerTimes read_library_spans(const Tracer& tracer) {
  struct Children {
    std::uint64_t step_ns = 0, wire_ns = 0;
  };
  LibraryLayerTimes out;
  double collective_self_ns = 0, step_self_ns = 0, send_ns = 0, recv_ns = 0;
  for (int node = 0; node < tracer.node_count(); ++node) {
    const NodeTraceBuffer* buffer = tracer.buffer(node);
    if (buffer == nullptr) continue;
    const std::vector<TraceEvent> events = buffer->events();
    // Spans are recorded when they end, so children precede their
    // collective.  The ring may have overwritten the children of the oldest
    // retained collective: attribute only collectives whose predecessor on
    // this node is retained too, so every counted child set is complete.
    std::unordered_map<std::uint64_t, Children> by_ctx;
    bool seen_collective = false;
    for (const TraceEvent& e : events) {
      const std::uint64_t dur = e.end_ns - e.start_ns;
      switch (e.kind) {
        case EventKind::kStep:
          by_ctx[e.ctx].step_ns += dur;
          if (seen_collective) {
            ++out.steps;
            step_self_ns += static_cast<double>(dur);
          }
          break;
        case EventKind::kSend:
        case EventKind::kRecv:
          by_ctx[e.ctx].wire_ns += dur;
          if (seen_collective) {
            if (e.kind == EventKind::kSend) {
              ++out.sends;
              send_ns += static_cast<double>(dur);
            } else {
              ++out.recvs;
              recv_ns += static_cast<double>(dur);
            }
            step_self_ns -= static_cast<double>(dur);
          }
          break;
        case EventKind::kCollective: {
          if (seen_collective) {
            const Children& c = by_ctx[e.ctx];
            ++out.collectives;
            collective_self_ns +=
                static_cast<double>(dur) - static_cast<double>(c.step_ns);
          }
          by_ctx.erase(e.ctx);
          seen_collective = true;
          break;
        }
        default:
          break;
      }
    }
  }
  auto per = [](double ns, std::size_t n) {
    return n == 0 ? 0.0 : ns / 1e3 / static_cast<double>(n);
  };
  out.collective_self_us = per(collective_self_ns, out.collectives);
  out.step_self_us = per(step_self_ns, out.steps);
  out.send_us = per(send_ns, out.sends);
  out.recv_us = per(recv_ns, out.recvs);
  return out;
}

void write_chrome_trace(const Tracer& tracer, const std::string& dir,
                        const std::string& name) {
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/" + name;
  std::ofstream os(path);
  export_chrome_trace(tracer, os);
  std::cout << "trace written: " << path << "\n";
}

}  // namespace perfbench
