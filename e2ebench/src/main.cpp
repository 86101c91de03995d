// sieve_e2ebench: the end-to-end benchmark of the SiEVE library.
//
//   sieve_e2ebench --workload <camera_encode|fleet_ingest|restart_query>
//                  --seed <n> --seconds <s> --trace <0|1> --work-dir <dir>
//                  [--store-hours <h>]
//
// Prints a `detail {...}` line and, last, one JSON result line. Exits 0
// when the run completed (its checks are reported in `correct`), 2 on bad
// arguments.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "bench.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: sieve_e2ebench --workload "
               "<camera_encode|fleet_ingest|restart_query> --seed <n> "
               "--seconds <s> --trace <0|1> --work-dir <dir> "
               "[--store-hours <h>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  e2e::Options options;
  options.process_start = e2e::Clock::now();
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      options.workload = value;
    } else if (key == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      options.trace = value == "1";
    } else if (key == "--work-dir") {
      options.work_dir = value;
    } else if (key == "--store-hours") {
      options.store_hours = std::strtod(value.c_str(), nullptr);
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || options.work_dir.empty() || !(options.seconds > 0)) {
    return Usage();
  }
  e2e::Result (*run)(const e2e::Options&) = nullptr;
  if (options.workload == "camera_encode") run = e2e::RunCameraEncode;
  if (options.workload == "fleet_ingest") run = e2e::RunFleetIngest;
  if (options.workload == "restart_query") run = e2e::RunRestartQuery;
  if (run == nullptr) return Usage();

  std::error_code ec;
  std::filesystem::remove_all(options.work_dir, ec);
  std::filesystem::create_directories(options.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s\n", options.work_dir.c_str());
    return 2;
  }
  const e2e::Result result = run(options);
  std::filesystem::remove_all(options.work_dir, ec);
  e2e::PrintResult(result, options.trace);
  return 0;
}
