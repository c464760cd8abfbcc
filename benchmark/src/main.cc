// chimera_bench — the repository benchmark driver.
//
//   chimera_bench --workload train|serve|decode --seed N --seconds S
//                 --trace 0|1
//
// Runs one workload through the engines' public APIs for S seconds, checks
// its outputs against independent references, and prints one JSON object as
// the last line of stdout: the end-to-end metrics with --trace 0, the
// per-layer metrics of a traced run with --trace 1 (only the layers the
// workload exercises; run.py fills in the rest as 0). Progress and every
// check's verdict go to stderr. README.md in this directory documents the
// workloads, the metrics and the tolerances.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "common.h"
#include "tensor/compute_pool.h"
#include "tensor/kernels.h"

using namespace chimera::benchmark;

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "chimera_bench: %s\nusage: chimera_bench --workload "
               "train|serve|decode --seed N --seconds S --trace 0|1\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end) usage("--seed takes an unsigned integer");
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end || !(a.seconds > 0.0 && a.seconds <= 120.0))
        usage("--seconds takes a number in (0, 120]");
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      a.trace = v == "1";
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  try {
    Report rep;
    if (args.workload == "train") rep = run_train(args);
    else if (args.workload == "serve") rep = run_serve(args);
    else if (args.workload == "decode") rep = run_decode(args);
    else usage("unknown workload");
    std::fprintf(stderr, "host: %u hardware threads, kernel tier %s, %d "
                 "intra-op helpers\n", std::thread::hardware_concurrency(),
                 chimera::kernel_tier_name(chimera::active_kernel_tier()),
                 chimera::ComputePool::instance().helpers());
    std::fflush(stderr);
    std::printf("%s\n", rep.json().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "chimera_bench: %s\n", e.what());
    return 1;
  }
}
