// swst_perfbench: end-to-end benchmark of the durable SWST stack.
//
// Usage: swst_perfbench --workload ingest|mixed|cold --seed N --seconds S
//                       --trace 0|1 --dir SCRATCH_DIR
//
// Prints one JSON object as the last line of stdout:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Diagnostics go to stderr. Exits non-zero, printing no
// result, when the run itself cannot be carried out.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "common.h"

namespace {

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "swst_perfbench: %s\nusage: swst_perfbench --workload "
               "ingest|mixed|cold --seed N --seconds S --trace 0|1 --dir "
               "DIR\n",
               why);
  std::exit(2);
}

void PrintJsonString(const std::string& s) {
  std::putchar('"');
  for (char c : s) {
    if (c == '"' || c == '\\') std::putchar('\\');
    std::putchar(c);
  }
  std::putchar('"');
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig cfg;
  std::string workload;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") {
      workload = val;
    } else if (key == "--seed") {
      cfg.seed = std::strtoull(val, nullptr, 10);
    } else if (key == "--seconds") {
      cfg.seconds = std::atof(val);
    } else if (key == "--trace") {
      cfg.trace = std::strcmp(val, "0") != 0;
    } else if (key == "--dir") {
      cfg.dir = val;
    } else {
      Usage(("unknown flag " + key).c_str());
    }
  }
  if (cfg.dir.empty()) Usage("--dir is required");
  if (!(cfg.seconds > 0)) Usage("--seconds must be positive");

  perfbench::Outcome out;
  if (workload == "ingest") {
    out = perfbench::RunIngest(cfg);
  } else if (workload == "mixed") {
    out = perfbench::RunMixed(cfg);
  } else if (workload == "cold") {
    out = perfbench::RunCold(cfg);
  } else {
    Usage("unknown workload");
  }
  std::error_code ec;
  std::filesystem::remove_all(cfg.dir, ec);

  for (const std::string& e : out.errors) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", e.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              out.correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  for (size_t i = 0; i < out.metrics.size(); ++i) {
    const auto& m = out.metrics[i];
    if (i > 0) std::printf(", ");
    PrintJsonString(m.name);
    std::printf(": {\"value\": %.17g, \"unit\": ",
                std::isfinite(m.value) ? m.value : 0.0);
    PrintJsonString(m.unit);
    std::printf("}");
  }
  std::printf("}}\n");
  return 0;
}
