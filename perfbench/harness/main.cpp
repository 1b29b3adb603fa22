// The repository benchmark harness.
//
//   perfbench_harness --workload <short|bulk|paragon512|sim_reliable>
//                    --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//
// Runs one workload for the given seconds, checks every output, prints the
// run metadata and every metric by name with its unit, and ends with one
// JSON line: {"correct", "attempted", "failed", "metrics"}.  With --trace 0
// the metrics are the end-to-end ones; with --trace 1 the per-layer ones of
// the layers the workload runs (the run then splits its time between an
// untraced and a traced loop).
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "common.hpp"

namespace {

int usage(const char* why) {
  std::cerr << "perfbench_harness: " << why
            << "\nusage: perfbench_harness --workload "
               "<short|bulk|paragon512|sim_reliable> --seed <n> --seconds <s> "
               "--trace <0|1> [--out-dir <dir>]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return usage("--seed takes an integer");
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(options.seconds > 0)) {
        return usage("--seconds takes a positive number");
      }
    } else if (arg == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return usage("--trace takes 0 or 1");
      }
      options.trace = value[0] == '1';
    } else if (arg == "--out-dir") {
      options.out_dir = value;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }

  perfbench::Result result;
  try {
    if (options.workload == "short") {
      result = perfbench::run_short(options);
    } else if (options.workload == "bulk") {
      result = perfbench::run_bulk(options);
    } else if (options.workload == "sim_reliable") {
      result = perfbench::run_sim_reliable(options);
    } else if (options.workload == "paragon512") {
      result = perfbench::run_paragon512(options);
    } else {
      return usage("unknown workload");
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench_harness: workload aborted: " << e.what() << "\n";
    return 1;
  }
  perfbench::print_metrics(result);
  perfbench::print_json_line(result);
  return 0;
}
