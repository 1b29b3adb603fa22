// The three runtime workloads: short and bulk on the in-process fabric, and
// sim_reliable on the simulated fabric with reliable delivery.  Each runs p
// ranks (one thread each) in a closed loop: every rank starts its next
// collective only after its previous one returned.
#include <cstdio>
#include <iostream>
#include <memory>
#include <thread>

#include "alloc_counter.hpp"
#include "common.hpp"
#include "intercom/intercom.hpp"
#include "layer_probes.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define PERFBENCH_PAUSE() _mm_pause()
#else
#define PERFBENCH_PAUSE() ((void)0)
#endif

namespace perfbench {

using namespace intercom;

namespace {

constexpr int kRanks = 4;
constexpr int kSetupReps = 5;
/// Length of the seeded op sequence; the timed loop cycles through it.
constexpr std::size_t kSequenceLength = 4096;
/// Ops one timed phase can log: about 6 times what the fastest workload runs
/// in one 5 s process on 4 cores today.  A phase that fills it ends early.
constexpr std::size_t kLogCapacity = std::size_t{1} << 21;

enum class OpKind {
  kBroadcast,
  kScatter,
  kGather,
  kCollect,
  kReduce,
  kAllReduce,
  kReduceScatter,
  kBarrier,
};
constexpr int kKinds = 8;

const char* kind_name(OpKind kind) {
  switch (kind) {
    case OpKind::kBroadcast: return "broadcast";
    case OpKind::kScatter: return "scatter";
    case OpKind::kGather: return "gather";
    case OpKind::kCollect: return "collect";
    case OpKind::kReduce: return "reduce";
    case OpKind::kAllReduce: return "all_reduce";
    case OpKind::kReduceScatter: return "reduce_scatter";
    case OpKind::kBarrier: return "barrier";
  }
  return "?";
}

Collective collective_of(OpKind kind) {
  switch (kind) {
    case OpKind::kBroadcast: return Collective::kBroadcast;
    case OpKind::kScatter: return Collective::kScatter;
    case OpKind::kGather: return Collective::kGather;
    case OpKind::kCollect: return Collective::kCollect;
    case OpKind::kReduce: return Collective::kCombineToOne;
    case OpKind::kAllReduce:
    case OpKind::kBarrier: return Collective::kCombineToAll;
    case OpKind::kReduceScatter: return Collective::kDistributedCombine;
  }
  return Collective::kBroadcast;
}

bool rooted(OpKind kind) {
  return kind == OpKind::kBroadcast || kind == OpKind::kScatter ||
         kind == OpKind::kGather || kind == OpKind::kReduce;
}

/// One request shape: kind, vector length in doubles, root.
struct Shape {
  OpKind kind;
  std::size_t elems;
  int root;
};

struct WorkloadSpec {
  FabricSpec fabric;
  bool reliable = false;
  std::vector<OpKind> kinds;
  std::vector<std::size_t> sizes_bytes;
};

/// Every (kind, size, root) the workload draws from; roots are {0, p-1}.
/// The barrier is one shape (an 8-byte combine inside the library).
std::vector<Shape> make_shapes(const WorkloadSpec& spec) {
  std::vector<Shape> shapes;
  for (OpKind kind : spec.kinds) {
    if (kind == OpKind::kBarrier) {
      shapes.push_back({kind, 0, 0});
      continue;
    }
    for (std::size_t bytes : spec.sizes_bytes) {
      if (rooted(kind)) {
        shapes.push_back({kind, bytes / sizeof(double), 0});
        shapes.push_back({kind, bytes / sizeof(double), kRanks - 1});
      } else {
        shapes.push_back({kind, bytes / sizeof(double), 0});
      }
    }
  }
  return shapes;
}

std::string shape_label(const Shape& s) {
  std::string label = kind_name(s.kind);
  if (s.kind != OpKind::kBarrier) {
    label += " " + std::to_string(s.elems * sizeof(double)) + "B";
  }
  if (rooted(s.kind)) label += " r" + std::to_string(s.root);
  return label;
}

// ---- inputs and their closed-form outputs --------------------------------
//
// Values are small integers held in doubles, so every sum is exact.  `k` is
// the op ordinal (identical on all ranks), so a stale buffer left by an
// earlier op never passes the check.

inline double val(std::size_t i, std::uint64_t k) {
  return static_cast<double>((i * 7 + k * 13) & 0xFFFF);
}
inline double tag(int owner, std::size_t i, std::uint64_t k) {
  return val(i, k) + 65536.0 * (owner + 1);
}
constexpr double kGarbage = -1.0;

void fill(const Shape& s, const Communicator& comm, std::uint64_t k,
          double* buf) {
  const int r = comm.rank();
  const std::size_t n = s.elems;
  switch (s.kind) {
    case OpKind::kBroadcast:
    case OpKind::kScatter:
      for (std::size_t i = 0; i < n; ++i) {
        buf[i] = r == s.root ? val(i, k) : kGarbage;
      }
      break;
    case OpKind::kGather:
    case OpKind::kCollect: {
      const ElemRange mine = comm.piece_of(n, r);
      for (std::size_t i = 0; i < n; ++i) {
        buf[i] = i >= mine.lo && i < mine.hi ? tag(r, i, k) : kGarbage;
      }
      break;
    }
    case OpKind::kReduce:
    case OpKind::kAllReduce:
    case OpKind::kReduceScatter:
      for (std::size_t i = 0; i < n; ++i) buf[i] = val(i, k) + r;
      break;
    case OpKind::kBarrier:
      break;
  }
}

/// Sum over ranks of val + rank.
inline double reduced(std::size_t i, std::uint64_t k, int p) {
  return p * val(i, k) + p * (p - 1) / 2;
}

bool check(const Shape& s, const Communicator& comm, std::uint64_t k,
           const double* buf) {
  const int r = comm.rank();
  const int p = comm.size();
  const std::size_t n = s.elems;
  bool ok = true;
  switch (s.kind) {
    case OpKind::kBroadcast:
      for (std::size_t i = 0; i < n; ++i) ok &= buf[i] == val(i, k);
      break;
    case OpKind::kScatter: {
      const ElemRange mine = comm.piece_of(n, r);
      for (std::size_t i = mine.lo; i < mine.hi; ++i) ok &= buf[i] == val(i, k);
      break;
    }
    case OpKind::kGather:
    case OpKind::kCollect:
      if (s.kind == OpKind::kGather && r != s.root) break;
      for (int q = 0; q < p; ++q) {
        const ElemRange piece = comm.piece_of(n, q);
        for (std::size_t i = piece.lo; i < piece.hi; ++i) {
          ok &= buf[i] == tag(q, i, k);
        }
      }
      break;
    case OpKind::kReduce:
      if (r != s.root) break;
      [[fallthrough]];
    case OpKind::kAllReduce:
      for (std::size_t i = 0; i < n; ++i) ok &= buf[i] == reduced(i, k, p);
      break;
    case OpKind::kReduceScatter: {
      const ElemRange mine = comm.piece_of(n, r);
      for (std::size_t i = mine.lo; i < mine.hi; ++i) {
        ok &= buf[i] == reduced(i, k, p);
      }
      break;
    }
    case OpKind::kBarrier:
      break;
  }
  return ok;
}

void call(const Shape& s, Communicator& comm, double* buf) {
  std::span<double> data(buf, s.elems);
  switch (s.kind) {
    case OpKind::kBroadcast: comm.broadcast(data, s.root); break;
    case OpKind::kScatter: comm.scatter(data, s.root); break;
    case OpKind::kGather: comm.gather(data, s.root); break;
    case OpKind::kCollect: comm.collect(data); break;
    case OpKind::kReduce: comm.reduce_sum(data, s.root); break;
    case OpKind::kAllReduce: comm.all_reduce_sum(data); break;
    case OpKind::kReduceScatter: comm.reduce_scatter_sum(data); break;
    case OpKind::kBarrier: comm.barrier(); break;
  }
}

// ---- loop control ---------------------------------------------------------

/// Sense-reversing spin barrier for the rank threads.  The benchmark aligns
/// the ranks before every op with it, so the slowest rank's call time
/// measures the collective rather than the harness's fill and check skew.
/// It is outside every timed region and never enters the library.
class SpinBarrier {
 public:
  explicit SpinBarrier(int n) : n_(n) {}
  SpinBarrier(const SpinBarrier&) = delete;
  SpinBarrier& operator=(const SpinBarrier&) = delete;

  /// Returns false, without waiting for the others, once `abandoned` is
  /// set: a rank whose call threw never arrives.
  bool wait(const std::atomic<bool>& abandoned) {
    const unsigned gen = gen_.load(std::memory_order_acquire);
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) == n_ - 1) {
      arrived_.store(0, std::memory_order_relaxed);
      gen_.fetch_add(1, std::memory_order_release);
      return true;
    }
    for (unsigned spins = 0; gen_.load(std::memory_order_acquire) == gen;
         ++spins) {
      if (abandoned.load(std::memory_order_relaxed)) return false;
      if (spins < 1u << 14) {
        PERFBENCH_PAUSE();
      } else {
        std::this_thread::yield();
      }
    }
    return true;
  }

 private:
  const int n_;
  std::atomic<int> arrived_{0};
  std::atomic<unsigned> gen_{0};
};

/// One machine with its persistent per-rank communicators and buffers.
/// Communicators outlive run_spmd calls, so plan caches stay warm across
/// phases (member order: the machine is destroyed last).
struct Rig {
  std::unique_ptr<Multicomputer> mc;
  std::vector<Communicator> comms;
  std::vector<std::vector<double>> bufs;
};

std::unique_ptr<Rig> build_rig(const WorkloadSpec& spec,
                               std::size_t max_elems) {
  auto rig = std::make_unique<Rig>();
  rig->mc = std::make_unique<Multicomputer>(
      Mesh2D(1, kRanks), MachineParams::paragon(), spec.fabric);
  rig->mc->set_reliable(spec.reliable);
  rig->comms.reserve(kRanks);
  for (int id = 0; id < kRanks; ++id) {
    Node node(*rig->mc, id);
    rig->comms.push_back(node.world());
  }
  rig->bufs.assign(kRanks,
                   std::vector<double>(std::max<std::size_t>(1, max_elems)));
  return rig;
}

/// Per-op log of a phase: the slowest rank's call time and the shape.  It
/// is allocated and touched once, before set-up, so its resident size is a
/// constant that peak_rss_mb subtracts, whatever the op rate.
struct OpLog {
  explicit OpLog(std::size_t capacity) : ns(capacity, 0), shape(capacity, 0) {}
  std::size_t bytes() const {
    return ns.size() * (sizeof(std::uint32_t) + sizeof(std::uint16_t));
  }
  /// The first n entries in microseconds.
  std::vector<double> us() const {
    std::vector<double> out(n);
    for (std::size_t j = 0; j < n; ++j) out[j] = ns[j] / 1e3;
    return out;
  }
  std::vector<std::uint32_t> ns;
  std::vector<std::uint16_t> shape;
  std::size_t n = 0;
};

/// What one phase (warm-up or timed loop) observed besides its log.
struct PhaseOutcome {
  std::uint64_t allocs = 0;           ///< operator-new calls inside calls
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string error;                  ///< first exception, if any
};

/// Labels for the benchmark's own spans (interned once per tracer).
struct SpanLabels {
  std::uint32_t kind[kKinds] = {};
};

/// Runs ops `seq[0], seq[1], ...` (cycling) on every rank until `max_ops`
/// ops ran, the log is full, or `deadline_ns` passed.  With `bench_tracer`
/// armed each rank records one span per op, carrying the op ordinal and the
/// library's context id for the call, so it joins the library's own spans.
PhaseOutcome run_phase(Rig& rig, const std::vector<Shape>& shapes,
                       const std::vector<std::uint16_t>& seq,
                       std::uint64_t k_base, std::size_t max_ops,
                       std::uint64_t deadline_ns, OpLog& log,
                       Tracer* bench_tracer, const SpanLabels* labels) {
  PhaseOutcome out;
  SpinBarrier barrier(kRanks);
  // Rank 0's decision to stop before op i lives in stop[i & 1], for the
  // same reason as the per-op results below: rank 0 may already decide for
  // op i + 1 (its part of op i can finish before a slow rank has even left
  // the barrier) but not for op i + 2.
  std::atomic<bool> stop[2] = {false, false};
  std::atomic<bool> abandoned{false};
  log.n = 0;
  max_ops = std::min(max_ops, log.ns.size());
  // Per-op results of op i live in slot i & 1: ranks write them before the
  // barrier that opens op i + 1, and rank 0 reads them after that barrier
  // and before it arrives at the next one, so no rank can overwrite them
  // while they are read.
  std::uint64_t slot[2][kRanks] = {};
  bool bad[2][kRanks] = {};
  std::uint64_t rank_allocs[kRanks] = {};

  auto record = [&](std::size_t i) {
    std::uint64_t worst = 0;
    bool failed = false;
    for (int r = 0; r < kRanks; ++r) {
      worst = std::max(worst, slot[i & 1][r]);
      failed |= bad[i & 1][r];
    }
    out.failed += failed ? 1 : 0;
    const std::uint16_t idx = seq[i % seq.size()];
    log.ns[log.n] = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(worst, UINT32_MAX));
    log.shape[log.n] = idx;
    ++log.n;
  };

  try {
    rig.mc->run_spmd([&](Node& node) {
      const int r = node.id();
      Communicator& comm = rig.comms[static_cast<std::size_t>(r)];
      double* buf = rig.bufs[static_cast<std::size_t>(r)].data();
      std::size_t i = 0;
      for (;; ++i) {
        const Shape& s = shapes[seq[i % seq.size()]];
        const std::uint64_t k = k_base + i;
        fill(s, comm, k, buf);
        if (r == 0) {
          stop[i & 1].store(
              i >= max_ops || (deadline_ns != 0 && now_ns() >= deadline_ns),
              std::memory_order_relaxed);
        }
        if (!barrier.wait(abandoned) ||
            stop[i & 1].load(std::memory_order_relaxed)) {
          break;
        }
        TraceEvent span;
        if (bench_tracer != nullptr) {
          span.kind = EventKind::kStep;
          span.label = labels->kind[static_cast<int>(s.kind)];
          span.ctx =
              collective_context(comm.context_base(), comm.next_sequence());
          span.bytes = s.elems * sizeof(double);
          span.a0 = i;
          span.start_ns = bench_tracer->now_ns();
        }
        const std::uint64_t a0 = thread_allocs();
        const std::uint64_t t0 = now_ns();
        try {
          call(s, comm, buf);
        } catch (...) {
          // Release the ranks spinning in the barrier; run_spmd's fail-fast
          // unwinds the ones blocked in the library.
          abandoned.store(true, std::memory_order_relaxed);
          throw;
        }
        const std::uint64_t t1 = now_ns();
        rank_allocs[r] += thread_allocs() - a0;
        if (bench_tracer != nullptr) {
          span.end_ns = bench_tracer->now_ns();
          bench_tracer->record(r, span);
        }
        slot[i & 1][r] = t1 - t0;
        if (r == 0 && i > 0) record(i - 1);
        bad[i & 1][r] = !check(s, comm, k, buf);
      }
      // Every rank finished op i-1 before the barrier that stopped the loop.
      if (r == 0 && i > 0 && !abandoned.load(std::memory_order_relaxed)) {
        record(i - 1);
      }
    });
  } catch (const std::exception& e) {
    // A call threw: fail-fast unwound every rank.  The op in flight counts
    // as attempted and failed; the phase ends here.
    out.error = e.what();
    out.attempted += 1;
    out.failed += 1;
  }
  out.attempted += log.n;
  for (std::uint64_t allocs : rank_allocs) out.allocs += allocs;
  return out;
}

std::vector<std::uint16_t> canonical_order(std::size_t n) {
  std::vector<std::uint16_t> seq(n);
  for (std::size_t i = 0; i < n; ++i) seq[i] = static_cast<std::uint16_t>(i);
  return seq;
}

/// The seeded op sequence: rounds that each hold every shape once, in a
/// seeded order.  Seeds change the order but not the mix, and a loop that
/// stops anywhere has run every shape equally often, to within one round.
std::vector<std::uint16_t> seeded_sequence(std::size_t shapes,
                                           std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint16_t> seq;
  std::vector<std::uint16_t> round(shapes);
  while (seq.size() + shapes <= kSequenceLength) {
    for (std::size_t s = 0; s < shapes; ++s) {
      round[s] = static_cast<std::uint16_t>(s);
    }
    shuffle(round, rng);
    seq.insert(seq.end(), round.begin(), round.end());
  }
  return seq;
}

std::string sizes_text(const std::vector<std::size_t>& sizes) {
  std::string out;
  for (std::size_t b : sizes) {
    if (!out.empty()) out += ",";
    out += b >= (1u << 20)   ? std::to_string(b >> 20) + "MiB"
           : b >= (1u << 10) ? std::to_string(b >> 10) + "KiB"
                             : std::to_string(b) + "B";
  }
  return out;
}

Result run_runtime_workload(const Options& options, const WorkloadSpec& spec) {
  const std::vector<Shape> shapes = make_shapes(spec);
  std::size_t max_elems = 1;
  for (const Shape& s : shapes) max_elems = std::max(max_elems, s.elems);
  print_metadata(options, kRanks, spec.fabric.name +
                                      (spec.reliable ? " (reliable)" : ""),
                 sizes_text(spec.sizes_bytes));
  std::printf("shapes        %zu (plan cache capacity 64)\n", shapes.size());

  Result result;
  auto account = [&](const PhaseOutcome& phase) {
    result.attempted += phase.attempted;
    result.failed += phase.failed;
    if (!phase.error.empty()) {
      std::cout << "error: " << phase.error << "\n";
    }
  };

  OpLog log(kLogCapacity);

  // Set-up: machine, communicators and one warm-up pass over every shape,
  // repeated; the last rig is the one measured.
  std::vector<double> setup_s;
  std::unique_ptr<Rig> rig;
  const std::vector<std::uint16_t> warm = canonical_order(shapes.size());
  std::uint64_t k_base = 0;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    rig.reset();
    const std::uint64_t t0 = now_ns();
    rig = build_rig(spec, max_elems);
    account(run_phase(*rig, shapes, warm, k_base, warm.size(), 0, log,
                      nullptr, nullptr));
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    k_base += warm.size();
  }

  const std::vector<std::uint16_t> seq =
      seeded_sequence(shapes.size(), options.seed);
  const double phase_s = options.trace ? options.seconds / 2 : options.seconds;
  const auto phase_ns = static_cast<std::uint64_t>(phase_s * 1e9);

  SimFabric* sim_fabric =
      spec.fabric.name == "sim"
          ? dynamic_cast<SimFabric*>(&rig->mc->transport().fabric())
          : nullptr;
  const SimFabric::Stats sim_before =
      sim_fabric != nullptr ? sim_fabric->stats() : SimFabric::Stats{};

  // Untraced timed loop: every end-to-end number comes from here.
  const double cpu0 = process_cpu_s();
  const PhaseOutcome timed = run_phase(*rig, shapes, seq, k_base, SIZE_MAX,
                                       now_ns() + phase_ns, log, nullptr,
                                       nullptr);
  const double cpu_share = (process_cpu_s() - cpu0) / (phase_s * kRanks);
  // Read before any analysis allocates: the peak of the program itself.
  const double rss_mb =
      peak_rss_mb() - static_cast<double>(log.bytes()) / (1 << 20);
  account(timed);
  k_base += log.n + 1;
  const std::size_t ops = log.n;
  const std::vector<double> op_us = log.us();
  const double p50 = quantile(op_us, 0.5);
  std::printf("\nops timed     %zu in %.1f s (untraced)%s\n", ops, phase_s,
              ops == log.ns.size() ? ", op log full" : "");
  std::printf("cpu share     %.1f%% of %d threads x wall (ranks spin between"
              " ops; the rest parked in the library or lost to the host)\n",
              cpu_share * 100, kRanks);

  if (!options.trace) {
    std::vector<double> op_bytes(ops);
    std::vector<std::size_t> op_shape(ops);
    for (std::size_t j = 0; j < ops; ++j) {
      op_shape[j] = log.shape[j];
      op_bytes[j] =
          static_cast<double>(shapes[log.shape[j]].elems * sizeof(double));
    }
    result.add("setup_s", median(setup_s), "s");
    add_loop_metrics(op_us, op_bytes, op_shape, shapes.size(), result);
    result.add("peak_rss_mb", rss_mb, "MiB");
    return result;
  }

  // ---- traced run: per-layer numbers ----
  const std::size_t n_ops = std::max<std::size_t>(1, ops);
  std::vector<double> per_shape_p50(shapes.size(), 0.0);
  {
    std::vector<std::vector<double>> by_kind(kKinds), by_shape(shapes.size());
    for (std::size_t j = 0; j < ops; ++j) {
      by_kind[static_cast<int>(shapes[log.shape[j]].kind)].push_back(op_us[j]);
      by_shape[log.shape[j]].push_back(op_us[j]);
    }
    for (int kind = 0; kind < kKinds; ++kind) {
      if (by_kind[kind].empty()) continue;
      result.add(std::string("runtime.communicator.op_us.") +
                     kind_name(static_cast<OpKind>(kind)),
                 quantile(by_kind[kind], 0.5), "us");
    }
    for (std::size_t s = 0; s < shapes.size(); ++s) {
      per_shape_p50[s] = quantile(by_shape[s], 0.5);
    }
  }
  result.add("runtime.allocs_per_op",
             static_cast<double>(timed.allocs) / static_cast<double>(n_ops),
             "count");
  if (sim_fabric != nullptr) {
    const SimFabric::Stats after = sim_fabric->stats();
    const auto transfers =
        static_cast<double>(after.transfers - sim_before.transfers);
    result.add("runtime.sim_fabric.transfers_per_op",
               transfers / static_cast<double>(n_ops), "count");
    const auto conflicted = static_cast<double>(
        after.conflicted_transfers - sim_before.conflicted_transfers);
    result.add("runtime.sim_fabric.conflict_ratio",
               transfers > 0 ? conflicted / transfers : 0.0, "ratio");
    result.add("runtime.sim_fabric.virtual_s",
               (after.virtual_clock_s - sim_before.virtual_clock_s) /
                   static_cast<double>(n_ops),
               "s/op");
  }

  // Traced timed loop: the library's tracer plus the benchmark's own spans.
  Multicomputer& mc = *rig->mc;
  Tracer bench_tracer(kRanks, 1 << 14);
  SpanLabels labels;
  for (int kind = 0; kind < kKinds; ++kind) {
    labels.kind[kind] = bench_tracer.intern(
        std::string("bench.") + kind_name(static_cast<OpKind>(kind)));
  }
  mc.set_tracing(true);  // also zeroes the metrics registry
  bench_tracer.arm();
  const PhaseOutcome traced = run_phase(*rig, shapes, seq, k_base, SIZE_MAX,
                                        now_ns() + phase_ns, log,
                                        &bench_tracer, &labels);
  bench_tracer.disarm();
  mc.set_tracing(false);
  account(traced);
  const double traced_ops =
      static_cast<double>(std::max<std::size_t>(1, log.n));
  std::printf("ops traced    %zu in %.1f s\n", log.n, phase_s);

  const LibraryLayerTimes layers = read_library_spans(mc.tracer());
  const MetricsRegistry::Snapshot snap = mc.metrics().snapshot();
  auto counter = [&](const char* name) {
    for (const auto& c : snap.counters) {
      if (c.name == name) return static_cast<double>(c.value);
    }
    return 0.0;
  };
  // Per-op layer breakdown from the benchmark's spans and the library's.
  std::vector<double> bench_span_us;
  for (int r = 0; r < kRanks; ++r) {
    for (const TraceEvent& e : bench_tracer.buffer(r)->events()) {
      bench_span_us.push_back(static_cast<double>(e.end_ns - e.start_ns) / 1e3);
    }
  }
  std::printf("\n-- traced layers (library spans, %zu collectives, %zu steps,"
              " %zu sends, %zu recvs retained) --\n",
              layers.collectives, layers.steps, layers.sends, layers.recvs);
  std::printf("  bench call span (per rank)      mean %9.3f us\n",
              mean(bench_span_us));
  std::printf("  communicator self (per op)      mean %9.3f us\n",
              layers.collective_self_us);
  std::printf("  executor step self (per step)   mean %9.3f us\n",
              layers.step_self_us);
  std::printf("  transport send (per send)       mean %9.3f us\n",
              layers.send_us);
  std::printf("  transport recv wait (per recv)  mean %9.3f us\n",
              layers.recv_us);

  const PlanCache& cache = rig->comms[0].plan_cache();
  const double lookups = static_cast<double>(cache.hits() + cache.misses());
  result.add("core.plan_cache.hit_ratio",
             lookups > 0 ? static_cast<double>(cache.hits()) / lookups : 0.0,
             "ratio");
  result.add("runtime.communicator.self_us", layers.collective_self_us, "us");
  result.add("runtime.executor.step_us", layers.step_self_us, "us");
  result.add("runtime.transport.send_us", layers.send_us, "us");
  result.add("runtime.transport.recv_wait_us", layers.recv_us, "us");
  result.add("runtime.transport.sends_per_op",
             counter("transport.sends") / traced_ops, "count");
  result.add("runtime.transport.retransmits_per_op",
             counter("transport.retransmits") / traced_ops, "count");
  const double traced_p50 = quantile(log.us(), 0.5);
  result.add("obs.trace_overhead_pct",
             p50 > 0 ? (traced_p50 / p50 - 1.0) * 100.0 : 0.0, "%");
  std::printf("  op p50 untraced %.3f us, traced %.3f us\n", p50, traced_p50);

  const std::string stem =
      options.workload + "-seed" + std::to_string(options.seed);
  write_chrome_trace(mc.tracer(), options.out_dir, stem + ".library.json");
  write_chrome_trace(bench_tracer, options.out_dir, stem + ".bench.json");

  std::vector<PlanRequest> requests;
  for (std::size_t s = 0; s < shapes.size(); ++s) {
    const Shape& shape = shapes[s];
    PlanRequest req{collective_of(shape.kind), shape.elems, sizeof(double),
                    shape.root, shape_label(shape), per_shape_p50[s]};
    if (shape.kind == OpKind::kBarrier) {
      req.elems = 1;
      req.elem_size = sizeof(std::uint64_t);
    }
    requests.push_back(std::move(req));
  }
  probe_model_layers(mc.planner(), mc.mesh(), requests, result);
  std::vector<std::size_t> fold_sizes;
  for (std::size_t bytes : spec.sizes_bytes) fold_sizes.push_back(bytes);
  probe_fold(fold_sizes, result);
  return result;
}

}  // namespace

Result run_short(const Options& options) {
  WorkloadSpec spec;
  spec.kinds = {OpKind::kBroadcast, OpKind::kScatter,   OpKind::kGather,
                OpKind::kCollect,   OpKind::kReduce,    OpKind::kAllReduce,
                OpKind::kReduceScatter, OpKind::kBarrier};
  spec.sizes_bytes = {8, 64, 512, 4096};
  return run_runtime_workload(options, spec);
}

Result run_bulk(const Options& options) {
  WorkloadSpec spec;
  spec.kinds = {OpKind::kBroadcast, OpKind::kAllReduce, OpKind::kCollect,
                OpKind::kReduceScatter};
  spec.sizes_bytes = {256 << 10, 1 << 20, 4 << 20};
  return run_runtime_workload(options, spec);
}

Result run_sim_reliable(const Options& options) {
  WorkloadSpec spec;
  spec.fabric.name = "sim";
  spec.fabric.sim.time_scale = 0.0;  // account, never sleep
  spec.reliable = true;
  spec.kinds = {OpKind::kBroadcast, OpKind::kScatter,   OpKind::kGather,
                OpKind::kCollect,   OpKind::kReduce,    OpKind::kAllReduce,
                OpKind::kReduceScatter, OpKind::kBarrier};
  spec.sizes_bytes = {8, 128, 2048, 32 << 10, 256 << 10};
  return run_runtime_workload(options, spec);
}

}  // namespace perfbench
