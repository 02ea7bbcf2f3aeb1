// Benchmark program: runs one named workload per process.
//
//   iflow_perfbench --workload churn|stream|recover|scale --seed N
//                   --seconds S --trace 0|1 [--quick]
//
// Human-readable lines go first; the last line of standard output is one
// JSON object {"correct", "attempted", "failed", "metrics"} holding the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1). A
// traced run also prints its own end-to-end figures on an `e2e-json:` line
// so perfbench/run.py can report the tracing overhead.
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>

#include "bench.h"

namespace {

using namespace perfbench;

std::string json_metrics(const std::vector<Metric>& ms) {
  std::ostringstream os;
  os << std::setprecision(12) << '{';
  for (std::size_t i = 0; i < ms.size(); ++i) {
    os << (i ? ", " : "") << '"' << ms[i].name << "\": {\"value\": "
       << ms[i].value << ", \"unit\": \"" << ms[i].unit << "\"}";
  }
  os << '}';
  return os.str();
}

void print_lines(const char* tag, const std::vector<Metric>& ms) {
  for (const Metric& m : ms) {
    std::cout << tag << ' ' << m.name << ' ' << std::setprecision(12)
              << m.value << ' ' << m.unit << '\n';
  }
}

int usage() {
  std::cerr << "usage: iflow_perfbench --workload churn|stream|recover|scale"
               " --seed N --seconds S --trace 0|1 [--quick]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      o.quick = true;
      continue;
    }
    if (i + 1 >= argc) return usage();
    const std::string v = argv[++i];
    if (arg == "--workload") {
      o.workload = v;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(v.c_str(), nullptr);
    } else if (arg == "--trace") {
      o.trace = v == "1";
    } else {
      return usage();
    }
  }

  Report rep;
  try {
    if (o.workload == "churn") {
      run_churn(o, rep);
    } else if (o.workload == "stream") {
      run_stream(o, rep);
    } else if (o.workload == "recover") {
      run_recover(o, rep);
    } else if (o.workload == "scale") {
      run_scale(o, rep);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::cerr << "workload " << o.workload << " aborted: " << e.what() << '\n';
    return 1;
  }
  rep.add_e2e("peak_rss_mb", peak_rss_mb(), "MB");

  std::cout << "workload " << o.workload << " seed " << o.seed << " rounds "
            << rep.rounds << (o.trace ? " (traced)" : "") << '\n';
  print_lines("metric", rep.e2e);
  print_lines("figure", rep.detail);
  if (o.trace) {
    print_lines("layer", rep.layers);
    std::cout << "e2e-json: " << json_metrics(rep.e2e) << '\n';
  }
  for (const std::string& p : rep.problems) {
    std::cerr << "check failed: " << p << '\n';
  }
  std::cout << "{\"correct\": " << (rep.correct ? "true" : "false")
            << ", \"attempted\": " << rep.attempted
            << ", \"failed\": " << rep.failed << ", \"metrics\": "
            << json_metrics(o.trace ? rep.layers : rep.e2e) << "}"
            << std::endl;
  return 0;
}
