#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <iostream>
#include <thread>

#include "common.hpp"

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t idx =
      rank < 1.0 ? 0
                 : std::min(v.size() - 1, static_cast<std::size_t>(rank) - 1);
  return v[idx];
}

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

void add_loop_metrics(const std::vector<double>& op_us,
                      const std::vector<double>& op_bytes,
                      const std::vector<std::size_t>& op_class,
                      std::size_t classes, Result& result) {
  const std::size_t n = op_us.size();
  // Every chunk holds at least two rounds of every class, so each one sees
  // the slowest class.
  const std::size_t chunks =
      std::clamp<std::size_t>(n / (2 * classes), 1, kMaxTailChunks);
  std::vector<double> chunk_p99;
  for (std::size_t c = 0; c < chunks; ++c) {
    const auto lo = static_cast<std::ptrdiff_t>(n * c / chunks);
    const auto hi = static_cast<std::ptrdiff_t>(n * (c + 1) / chunks);
    if (hi > lo) {
      chunk_p99.push_back(
          quantile({op_us.begin() + lo, op_us.begin() + hi}, 0.99));
    }
  }
  std::vector<std::vector<double>> us_of(classes);
  std::vector<double> bytes_of(classes, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    us_of[op_class[i]].push_back(op_us[i]);
    bytes_of[op_class[i]] = op_bytes[i];
  }
  double bytes = 0.0, us = 0.0;
  for (std::size_t c = 0; c < classes; ++c) {
    if (us_of[c].empty()) continue;
    bytes += bytes_of[c];
    us += median(std::move(us_of[c]));
  }
  result.add("op_us_p50", quantile(op_us, 0.5), "us");
  result.add("op_us_p99", quantile(chunk_p99, 0.0), "us");
  // bytes per microsecond / 1e3 = GB/s
  result.add("goodput_GBps", us > 0 ? bytes / (us * 1e3) : 0.0, "GB/s");
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

long llc_bytes() {
  const long l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (l3 > 0) return l3;
  const long l2 = sysconf(_SC_LEVEL2_CACHE_SIZE);
  return l2 > 0 ? l2 : 0;
}

void print_metrics(const Result& result) {
  std::cout << "\n-- metrics --\n";
  for (const Metric& m : result.metrics) {
    std::printf("  %-44s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  const double fail_ratio =
      result.attempted == 0 ? 0.0
                            : static_cast<double>(result.failed) /
                                  static_cast<double>(result.attempted);
  std::printf("  %-44s %16.6f ratio  (%llu failed of %llu attempted)\n",
              "fail_ratio", fail_ratio,
              static_cast<unsigned long long>(result.failed),
              static_cast<unsigned long long>(result.attempted));
  std::fflush(stdout);
}

void print_json_line(const Result& result) {
  std::string out = "{\"correct\": ";
  out += result.failed == 0 && result.attempted > 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(result.attempted);
  out += ", \"failed\": " + std::to_string(result.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : result.metrics) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    if (!first) out += ", ";
    first = false;
    out += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  std::cout << out << std::endl;
}

void print_metadata(const Options& options, int p, const std::string& fabric,
                    const std::string& vector_sizes) {
  std::cout << "workload      " << options.workload << "\n"
            << "seed          " << options.seed << "\n"
            << "seconds       " << options.seconds << "\n"
            << "trace         " << (options.trace ? 1 : 0) << "\n"
            << "nproc         " << std::thread::hardware_concurrency() << "\n"
            << "build_type    " << PERFBENCH_BUILD_TYPE << "\n"
            << "llc_bytes     " << llc_bytes() << "\n"
            << "p             " << p << "\n"
            << "fabric        " << fabric << "\n"
            << "vector_sizes  " << vector_sizes << "\n";
}

}  // namespace perfbench
