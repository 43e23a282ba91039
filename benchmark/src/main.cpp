/// \file main.cpp
/// \brief cacqr_bench: runs one workload and prints its measurements.
///
/// Usage: cacqr_bench --workload factorize|grid3d|serve --seed N
///                    --seconds S --trace 0|1 [--size full|tiny]
///
/// The last line of standard output is one JSON object: the verdict
/// ("correct", "attempted", "failed"), the measured "values" by metric
/// name and free-form "details".  run.py turns it into the benchmark's
/// result line, taking names and units from BENCHMARK.json.  Exit code 0
/// only when every checked output passed.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "cacqr_bench: %s\nusage: cacqr_bench --workload "
               "factorize|grid3d|serve --seed N --seconds S --trace 0|1 "
               "[--size full|tiny]\n",
               why);
  std::exit(2);
}

bench::RunArgs parse(int argc, char** argv) {
  bench::RunArgs args;
  bool seen_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') usage("--seed takes an integer");
      seen_seed = true;
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(args.seconds > 0.0)) {
        usage("--seconds takes a positive number");
      }
    } else if (key == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      args.trace = value == "1";
    } else if (key == "--size") {
      if (value != "full" && value != "tiny") usage("--size: full or tiny");
      args.tiny = value == "tiny";
    } else {
      usage(("unknown argument " + key).c_str());
    }
  }
  if (args.workload != "serve" && !bench::is_factorize_workload(args.workload)) {
    usage("--workload must be factorize, grid3d or serve");
  }
  if (!seen_seed) usage("--seed is required");
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::RunArgs args = parse(argc, argv);
  bench::Outcome out;
  try {
    out = bench::is_factorize_workload(args.workload)
              ? bench::run_factorize_workload(args)
              : bench::run_serve_workload(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cacqr_bench: %s failed: %s\n",
                 args.workload.c_str(), e.what());
    return 1;
  }

  std::string line = std::string("{\"correct\": ") +
                     (out.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(out.attempted) +
                     ", \"failed\": " + std::to_string(out.failed) +
                     ", \"values\": {";
  bool first = true;
  for (const auto& [name, value] : out.values) {
    line += (first ? "" : ", ") + bench::json_string(name) + ": " +
            bench::json_number(value);
    first = false;
  }
  line += "}, \"details\": {";
  first = true;
  for (const auto& [key, json] : out.details) {
    line += (first ? "" : ", ") + bench::json_string(key) + ": " + json;
    first = false;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return out.correct ? 0 : 1;
}
