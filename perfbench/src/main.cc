// dyncq_perfbench: runs one benchmark workload and prints its metrics.
//
//   dyncq_perfbench --workload <name> --seed <n> --seconds <s>
//                   --trace <0|1> [--trace-out <file.tsv>]
//   dyncq_perfbench --selftest
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Exit code 0 iff every oracle
// check passed. perfbench/run.py builds this binary and wraps it.
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "bench.h"

namespace {

int Usage() {
  std::cerr << "usage: dyncq_perfbench --workload "
               "<session_churn|snapshot_readers|registry_fanout> --seed N "
               "--seconds S --trace 0|1 [--trace-out FILE] | --selftest\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--selftest") return perfbench::RunSelfTest();
    if (i + 1 >= argc) return Usage();
    const std::string v = argv[++i];
    if (a == "--workload") {
      cfg.workload = v;
    } else if (a == "--seed") {
      cfg.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      cfg.seconds = std::strtod(v.c_str(), nullptr);
    } else if (a == "--trace") {
      cfg.trace = v == "1";
    } else if (a == "--trace-out") {
      cfg.trace_out = v;
    } else {
      return Usage();
    }
  }
  if (cfg.seconds <= 0) return Usage();
  perfbench::Report report;
  report.Note(std::string("build: ") + DYNCQ_BENCH_BUILD_TYPE + ", " +
              DYNCQ_BENCH_COMPILER);
  try {
    if (cfg.workload == "session_churn") {
      perfbench::RunSessionChurn(cfg, &report);
    } else if (cfg.workload == "snapshot_readers") {
      perfbench::RunSnapshotReaders(cfg, &report);
    } else if (cfg.workload == "registry_fanout") {
      perfbench::RunRegistryFanout(cfg, &report);
    } else {
      return Usage();
    }
  } catch (const std::exception& e) {
    // A CHECK failure inside the engine: the run is not a measurement.
    std::cerr << "dyncq_perfbench: " << e.what() << "\n";
    return 3;
  }
  report.Print(std::cout);
  return report.correct() && report.failed() == 0 ? 0 : 1;
}
