// paragon512: the paper's own experiment at its own scale.  One thread plans
// and simulates each Table 3 cell and each Fig. 4 (left) collect length on
// the 16x32 Paragon mesh, with the iCC Planner and with the NX baseline.
// No runtime is involved.  The schedule simulator runs with its default
// engine (the workload never names one).
#include <cstdio>
#include <cstring>
#include <iostream>
#include <memory>

#include "alloc_counter.hpp"
#include "common.hpp"
#include "intercom/intercom.hpp"
#include "layer_probes.hpp"

namespace perfbench {

using namespace intercom;

namespace {

constexpr int kSetupReps = 3;

struct Case {
  Collective collective;
  std::size_t bytes;
  const char* cell;    ///< Table 3 cell name, or nullptr for Fig. 4 rows
  double paper_ratio;  ///< NX / iCC time in the paper's Table 3
};

/// Table 3 (broadcast, collect, global combine at 8 B, 64 KiB, 1 MiB) plus
/// the Fig. 4 (left) collect lengths not already in Table 3.
std::vector<Case> paragon_cases() {
  std::vector<Case> cases = {
      {Collective::kBroadcast, 8, "broadcast_8B", 0.92},
      {Collective::kBroadcast, 64 << 10, "broadcast_64KiB", 24.6},
      {Collective::kBroadcast, 1 << 20, "broadcast_1MiB", 12.5},
      {Collective::kCollect, 8, "collect_8B", 77.1},
      {Collective::kCollect, 64 << 10, "collect_64KiB", 24.6},
      {Collective::kCollect, 1 << 20, "collect_1MiB", 5.10},
      {Collective::kCombineToAll, 8, "global_sum_8B", 0.88},
      {Collective::kCombineToAll, 64 << 10, "global_sum_64KiB", 7.10},
      {Collective::kCombineToAll, 1 << 20, "global_sum_1MiB", 16.0},
  };
  for (std::size_t bytes : {32, 128, 512, 2048, 8192, 32768, 131072, 524288}) {
    cases.push_back({Collective::kCollect, bytes, nullptr, 0.0});
  }
  return cases;
}

struct Priced {
  Schedule icc, nx;
  SimResult icc_sim, nx_sim;
};

bool same_result(const SimResult& a, const SimResult& b) {
  return std::memcmp(&a.seconds, &b.seconds, sizeof a.seconds) == 0 &&
         a.transfers == b.transfers && a.bytes_moved == b.bytes_moved &&
         a.peak_link_load == b.peak_link_load;
}

/// The machine under study: planner and simulator for the 16x32 mesh.
struct Pricer {
  Mesh2D mesh{16, 32};
  Group whole = whole_mesh_group(mesh);
  Planner planner{MachineParams::paragon(), mesh};
  WormholeSimulator sim{mesh, [] {
                          SimParams params;
                          params.machine = MachineParams::paragon();
                          return params;
                        }()};
};

/// Per-layer accumulators of the traced phase.
struct LayerSums {
  std::vector<double> icc_plan_ms, nx_plan_ms, sim_ms;
};

/// Prices one case: iCC plan, NX plan, and both simulations.  With `spans`
/// set, each public call is wrapped in a benchmark span (all four share the
/// op id `op`) and timed into `sums`.
Priced price(const Pricer& m, const Case& c, Tracer* spans,
             std::uint64_t op, LayerSums* sums) {
  Priced out;
  auto timed = [&](const char* label, std::vector<double>* into, auto&& fn) {
    if (spans == nullptr) {
      fn();
      return;
    }
    TraceEvent e;
    e.kind = EventKind::kStep;
    e.label = spans->intern(label);
    e.a0 = op;
    e.bytes = c.bytes;
    e.start_ns = spans->now_ns();
    fn();
    e.end_ns = spans->now_ns();
    spans->record(0, e);
    into->push_back(static_cast<double>(e.end_ns - e.start_ns) / 1e6);
  };
  timed("plan.icc", sums ? &sums->icc_plan_ms : nullptr,
        [&] {
          out.icc = m.planner.plan(c.collective, m.whole, c.bytes, 1, 0);
        });
  timed("plan.nx", sums ? &sums->nx_plan_ms : nullptr,
        [&] { out.nx = nx::plan(c.collective, m.whole, c.bytes, 1, 0); });
  timed("sim.icc", sums ? &sums->sim_ms : nullptr,
        [&] { out.icc_sim = m.sim.run(out.icc); });
  timed("sim.nx", sums ? &sums->sim_ms : nullptr,
        [&] { out.nx_sim = m.sim.run(out.nx); });
  return out;
}

/// What one timed phase observed.
struct Phase {
  std::vector<double> op_us;
  std::vector<std::size_t> case_idx;  ///< per op: which case it priced
  std::uint64_t allocs = 0;
  std::uint64_t failed = 0;
};

Phase run_phase(const Pricer& m, const std::vector<Case>& cases,
                const std::vector<Priced>& reference, Rng& rng,
                double seconds, Tracer* spans, LayerSums* sums) {
  Phase phase;
  const std::uint64_t deadline =
      now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
  std::vector<std::size_t> order(cases.size());
  std::uint64_t op = 0;
  while (now_ns() < deadline) {
    // Every pass prices every case once, in a seeded order.
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    shuffle(order, rng);
    for (std::size_t idx : order) {
      if (now_ns() >= deadline) break;
      TraceEvent span;
      if (spans != nullptr) {
        span.kind = EventKind::kStep;
        span.label = spans->intern("bench.price");
        span.a0 = op;
        span.bytes = cases[idx].bytes;
        span.start_ns = spans->now_ns();
      }
      const std::uint64_t a0 = thread_allocs();
      const std::uint64_t t0 = now_ns();
      Priced priced;
      bool threw = false;
      try {
        priced = price(m, cases[idx], spans, op, sums);
      } catch (const std::exception& e) {
        std::cout << "error: " << e.what() << "\n";
        threw = true;
      }
      const std::uint64_t t1 = now_ns();
      phase.allocs += thread_allocs() - a0;
      if (spans != nullptr) {
        span.end_ns = spans->now_ns();
        spans->record(0, span);
      }
      phase.op_us.push_back(static_cast<double>(t1 - t0) / 1e3);
      phase.case_idx.push_back(idx);
      // Pricing is a pure function of the case: a second pricing must give
      // bit-identical results.
      if (threw || !same_result(priced.icc_sim, reference[idx].icc_sim) ||
          !same_result(priced.nx_sim, reference[idx].nx_sim)) {
        ++phase.failed;
      }
      ++op;
    }
  }
  return phase;
}

/// validate() passes and the simulator's transfer and byte counts equal
/// analyze()'s, for one schedule.
bool schedule_checks(const Schedule& schedule, const SimResult& sim,
                     const MachineParams& machine, ScheduleStats* stats) {
  if (!validate(schedule).ok) return false;
  *stats = analyze(schedule, machine);
  return stats->transfers == sim.transfers &&
         stats->bytes_moved == sim.bytes_moved;
}

}  // namespace

Result run_paragon512(const Options& options) {
  const std::vector<Case> cases = paragon_cases();
  print_metadata(options, 512, "none (schedule simulator, default engine)",
                 "Table 3: 8B,64KiB,1MiB; Fig. 4 collect: 8B..1MiB");
  Result result;

  // Set-up: planner and simulator construction plus one pricing pass over
  // every case, repeated; the last pass is the reference.
  std::vector<double> setup_s;
  std::unique_ptr<Pricer> pricer;
  std::vector<Priced> reference;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    pricer.reset();
    reference.clear();
    const std::uint64_t t0 = now_ns();
    pricer = std::make_unique<Pricer>();
    for (const Case& c : cases) {
      reference.push_back(price(*pricer, c, nullptr, 0, nullptr));
    }
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  result.attempted += cases.size();

  Rng rng(options.seed);
  const double phase_s = options.trace ? options.seconds / 2 : options.seconds;
  const double cpu0 = process_cpu_s();
  const Phase timed =
      run_phase(*pricer, cases, reference, rng, phase_s, nullptr, nullptr);
  const double cpu_share = (process_cpu_s() - cpu0) / phase_s;
  const double rss_mb = peak_rss_mb();  // before the checks below allocate
  result.attempted += timed.op_us.size();
  result.failed += timed.failed;
  std::printf("\ncases priced  %zu in %.1f s (untraced)\n", timed.op_us.size(),
              phase_s);
  std::printf("cpu share     %.1f%% of wall (the rest was lost to the host)\n",
              cpu_share * 100);

  // Output checks on the reference pass (outside every timed region).
  const MachineParams machine = MachineParams::paragon();
  double msgs = 0, wire = 0, fold = 0, virtual_s = 0;
  std::size_t transfers = 0;
  int peak = 0;
  std::printf("\n-- Table 3 / Fig. 4 on the simulated 16x32 Paragon --\n");
  std::printf("  %-12s %9s %12s %12s %10s %10s  %s\n", "op", "bytes", "NX_s",
              "iCC_s", "NX/iCC", "paper", "icc algorithm");
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const Case& c = cases[i];
    const Priced& p = reference[i];
    ScheduleStats icc_stats, nx_stats;
    const bool ok = schedule_checks(p.icc, p.icc_sim, machine, &icc_stats) &&
                    schedule_checks(p.nx, p.nx_sim, machine, &nx_stats);
    if (!ok) ++result.failed;
    msgs += static_cast<double>(icc_stats.transfers);
    wire += static_cast<double>(icc_stats.bytes_moved);
    fold += static_cast<double>(icc_stats.combine_bytes);
    transfers += p.icc_sim.transfers + p.nx_sim.transfers;
    peak = std::max({peak, p.icc_sim.peak_link_load, p.nx_sim.peak_link_load});
    virtual_s += p.icc_sim.seconds;
    const double ratio = p.nx_sim.seconds / p.icc_sim.seconds;
    char paper[16] = "-";
    if (c.cell != nullptr) {
      std::snprintf(paper, sizeof paper, "%.2f", c.paper_ratio);
    }
    std::printf("  %-12s %9zu %12.6f %12.6f %10.2f %10s  %s%s\n",
                to_string(c.collective).c_str(), c.bytes, p.nx_sim.seconds,
                p.icc_sim.seconds, ratio, paper, p.icc.algorithm().c_str(),
                ok ? "" : "  CHECK FAILED");
    if (options.trace && c.cell != nullptr) {
      result.add(std::string("sim.nx_over_icc.") + c.cell, ratio, "ratio");
    }
  }

  if (!options.trace) {
    std::vector<double> op_bytes;
    for (std::size_t idx : timed.case_idx) {
      op_bytes.push_back(static_cast<double>(cases[idx].bytes));
    }
    result.add("setup_s", median(setup_s), "s");
    add_loop_metrics(timed.op_us, op_bytes, timed.case_idx, cases.size(),
                     result);
    result.add("peak_rss_mb", rss_mb, "MiB");
    return result;
  }

  // ---- traced run: spans around every public call ----
  Tracer spans(1, 1 << 14);
  LayerSums sums;
  spans.arm();
  const Phase traced =
      run_phase(*pricer, cases, reference, rng, phase_s, &spans, &sums);
  spans.disarm();
  result.attempted += traced.op_us.size();
  result.failed += traced.failed;
  std::printf("cases traced  %zu in %.1f s\n", traced.op_us.size(), phase_s);

  const double n = static_cast<double>(cases.size());
  const double p50 = quantile(timed.op_us, 0.5);
  const double traced_p50 = quantile(traced.op_us, 0.5);
  std::printf("\n-- traced layers (means over %zu cases) --\n",
              traced.op_us.size());
  std::printf("  core planner plan     %9.3f ms\n", mean(sums.icc_plan_ms));
  std::printf("  baseline nx plan      %9.3f ms\n", mean(sums.nx_plan_ms));
  std::printf("  sim engine run        %9.3f ms\n", mean(sums.sim_ms));
  std::printf("  case p50 untraced %.3f us, traced %.3f us\n", p50, traced_p50);
  result.add("core.planner.plan_ms", mean(sums.icc_plan_ms), "ms");
  result.add("baseline.nx.plan_ms", mean(sums.nx_plan_ms), "ms");
  result.add("sim.engine.run_ms", mean(sums.sim_ms), "ms");
  result.add("sim.engine.transfers", static_cast<double>(transfers), "count");
  result.add("sim.engine.peak_link_load", peak, "count");
  result.add("sim.engine.virtual_s", virtual_s, "s");
  result.add("ir.analysis.msgs_per_op", msgs / n, "count");
  result.add("ir.analysis.wire_bytes_per_op", wire / n, "B");
  result.add("ir.analysis.fold_bytes_per_op", fold / n, "B");
  result.add("runtime.allocs_per_op",
             static_cast<double>(timed.allocs) /
                 static_cast<double>(
                     std::max<std::size_t>(1, timed.op_us.size())),
             "count");
  result.add("obs.trace_overhead_pct",
             p50 > 0 ? (traced_p50 / p50 - 1.0) * 100.0 : 0.0, "%");
  write_chrome_trace(spans, options.out_dir,
                     options.workload + "-seed" + std::to_string(options.seed) +
                         ".bench.json");
  probe_fold({8, 64 << 10, 1 << 20}, result);
  return result;
}

}  // namespace perfbench
