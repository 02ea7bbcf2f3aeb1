// Shared pieces of the iflow benchmark program: options, timing, sample
// statistics, the report every workload fills, and the world constructors the
// workloads share. See perfbench/README.md for what each workload measures.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "engine/middleware.h"
#include "engine/simulation.h"
#include "net/gtitm.h"
#include "net/network.h"
#include "query/catalog.h"
#include "query/query.h"
#include "workload/generator.h"

namespace perfbench {

using namespace iflow;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  /// Measured time; 0 runs the fewest rounds a workload allows.
  double seconds = 0.0;
  bool trace = false;
  /// Self-check size: every workload shrunk to a few seconds in total, all
  /// output checks on, percentile sample rules relaxed.
  bool quick = false;
};

using Clock = std::chrono::steady_clock;

inline double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Wall time of one call in milliseconds.
template <typename F>
double time_ms(F&& f) {
  const Clock::time_point t0 = Clock::now();
  f();
  return ms_since(t0);
}

/// A bag of wall-time (or other) samples with order statistics.
class Samples {
 public:
  void add(double v) { v_.push_back(v); }
  std::size_t size() const { return v_.size(); }
  bool empty() const { return v_.empty(); }
  /// Linear-interpolated quantile, p in [0, 1].
  double quantile(double p) const;
  double median() const { return quantile(0.5); }
  /// True when at least ten samples lie beyond the p-quantile (twenty
  /// samples for the median), the rule for printing any percentile.
  bool supports(double p) const;

 private:
  std::vector<double> v_;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run measured and checked.
struct Report {
  bool correct = true;
  std::vector<std::string> problems;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  int rounds = 0;
  /// The benchmark's end-to-end metrics (BENCHMARK.json `end_to_end`).
  std::vector<Metric> e2e;
  /// The workload's own named figures (register_ms_p99, restore_ms_p50, ...):
  /// printed by name and unit, not gated.
  std::vector<Metric> detail;
  /// Per-layer metrics (BENCHMARK.json `per_layer`), traced runs only.
  std::vector<Metric> layers;

  /// Records a failed output check; the run reports correct = false.
  void check(bool ok, const std::string& what);
  void add_e2e(const std::string& name, double v, const std::string& unit) {
    e2e.push_back({name, v, unit});
  }
  void add_detail(const std::string& name, double v, const std::string& unit) {
    detail.push_back({name, v, unit});
  }
  void add_layer(const std::string& name, double v, const std::string& unit) {
    layers.push_back({name, v, unit});
  }
  /// The p-quantile; a quantile the samples do not support fails the
  /// run's output check (quick mode reports it anyway and says so on
  /// stderr).
  void add_percentile(std::vector<Metric>& into, const std::string& name,
                      const Samples& s, double p, const std::string& unit,
                      bool quick);
};

/// Peak resident set (VmHWM) of this process in MB.
double peak_rss_mb();

/// Runs `round(r)` for r = 0, 1, ... while one more round, as long as the
/// last, would still end within `seconds`, and at least `min_rounds`
/// rounds. Returns the number of rounds.
template <typename F>
int run_rounds(double seconds, int min_rounds, F&& round) {
  const Clock::time_point t0 = Clock::now();
  double last_ms = 0.0;
  int r = 0;
  while (r < min_rounds || ms_since(t0) + last_ms <= seconds * 1000.0) {
    const Clock::time_point start = Clock::now();
    round(r++);
    last_ms = ms_since(start);
  }
  return r;
}

// ---------------------------------------------------------------- worlds

/// Topology seed of the dense (~1000-node) worlds. The network is the
/// fixed system under test.
inline constexpr std::uint64_t kDenseTopologySeed = 990;
/// Topology seed of the ~5000-node sparse world.
inline constexpr std::uint64_t kScaleTopologySeed = 5016;
/// Seed of every workload's catalog and query pool. Like the network, the
/// pool is fixed; --seed draws what happens to it (arrival order, fault
/// scripts, engine randomness), so a metric summed over the pool does not
/// swing with which queries happened to be drawn.
inline constexpr std::uint64_t kPoolSeed = 2007;

/// Node budget far above any pool's load: admission prices every plan and
/// refuses none.
inline constexpr double kAmpleCapacity = 1e15;

/// GT-ITM transit-stub network of about `nodes` nodes.
net::Network make_network(int nodes, std::uint64_t topology_seed);

/// Catalog + queries over `net` with 2..3-source or paper-shaped queries,
/// drawn from `seed`; queries are assigned to `tenants` tenants round-robin.
workload::Workload make_queries(const net::Network& net,
                                const workload::WorkloadParams& wp,
                                int num_queries, std::uint64_t seed,
                                int tenants);

/// The ~1000-node world of churn, stream and recover: the network, the
/// fixed query pool and a Top-Down middleware planning on one thread.
struct DenseWorld {
  net::Network net;
  workload::Workload wl;
  std::unique_ptr<engine::Middleware> mw;
};

/// Fills `w` with a network of about `nodes` nodes (kDenseTopologySeed),
/// `pool` queries drawn from `wp` (kPoolSeed, `tenants` tenants) with every
/// stream's tuple rate multiplied by `rate_scale`, and the middleware
/// (clustering seed `seed`). Registers nothing.
void build_dense_world(DenseWorld& w, int nodes,
                       const workload::WorkloadParams& wp, int pool,
                       int tenants, double rate_scale, int max_cs,
                       std::uint64_t seed);

/// 2-3-source queries over chatty streams (10-30 tuples/s, selectivities
/// 0.1-0.3), so joins emit enough results for the data plane to work.
workload::WorkloadParams chatty_params(int streams);

/// Reference checks of every active deployment (coverage, live and
/// non-excluded hosts, reachable edges) and of total_current_cost()
/// against the reference re-pricing; `when` labels failures.
void check_actives(const engine::Middleware& mw, Report& rep,
                   const std::string& when);

/// Instantiates every active deployment in a simulation, providers before
/// the reuse consumers that bind to them.
void deploy_all(engine::Simulation& sim, const engine::Middleware& mw);

// ---------------------------------------------------------------- workloads

void run_churn(const Options& o, Report& rep);
void run_stream(const Options& o, Report& rep);
void run_recover(const Options& o, Report& rep);
void run_scale(const Options& o, Report& rep);

}  // namespace perfbench
