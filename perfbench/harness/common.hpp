// Shared pieces of the benchmark harness: options, the seeded input
// generator, timing, the metric report, and small statistics helpers.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Command-line options shared by every workload.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";  ///< where traced runs write their trace files
};

/// splitmix64: the benchmark's own generator, so the inputs a seed produces
/// do not depend on the library's RNG or on the standard library's
/// distribution implementations.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n) (n > 0; the modulo bias is irrelevant at these n).
  std::size_t below(std::size_t n) {
    return static_cast<std::size_t>(next() % n);
  }

 private:
  std::uint64_t state_;
};

/// Fisher-Yates shuffle driven by Rng.
template <typename T>
void shuffle(std::vector<T>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.below(i)]);
  }
}

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// q-quantile (0..1) of `v` by the nearest-rank rule (q = 0 gives the
/// minimum); 0 for an empty input.  Sorts a copy.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}
/// Arithmetic mean; 0 for an empty input.
double mean(const std::vector<double>& v);

/// Peak resident set size of this process, in MiB (getrusage).
double peak_rss_mb();

/// User plus system CPU seconds this process has used (getrusage).  Set
/// against wall time it shows how much of a timed loop the threads really
/// ran: time a virtual machine's host takes away is missing from it.
double process_cpu_s();

/// Last-level cache size in bytes as the C library reports it (0 if
/// unknown).
long llc_bytes();

/// One named metric with its unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload run reports back to main().
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

/// Adds the end-to-end op metrics of a timed loop.  `op_us` is each op's
/// time, `op_bytes` the user vector bytes it moved, and `op_class` its shape
/// (or case), below `classes`.
///   op_us_p50     median op time.
///   op_us_p99     the lowest p99 of up to kMaxTailChunks consecutive chunks
///                 of equal op count.  Time taken away by the host only ever
///                 slows a chunk down, so the least disturbed chunk gives the
///                 program's own tail.
///   goodput_GBps  one op of every class: their user bytes over the sum of
///                 their classes' median times.  Medians keep a stall from
///                 outside the program out of it.
void add_loop_metrics(const std::vector<double>& op_us,
                      const std::vector<double>& op_bytes,
                      const std::vector<std::size_t>& op_class,
                      std::size_t classes, Result& result);
constexpr std::size_t kMaxTailChunks = 10;

/// Prints the metrics as an aligned "name value unit" table.
void print_metrics(const Result& result);

/// Prints the final machine-readable line: {"correct", "attempted",
/// "failed", "metrics"}.
void print_json_line(const Result& result);

/// Run metadata every workload prints before its results.
void print_metadata(const Options& options, int p, const std::string& fabric,
                    const std::string& vector_sizes);

/// Workload entry points (one per named workload).
Result run_short(const Options& options);
Result run_bulk(const Options& options);
Result run_sim_reliable(const Options& options);
Result run_paragon512(const Options& options);

}  // namespace perfbench
