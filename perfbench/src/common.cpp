#include <algorithm>
#include <fstream>
#include <iostream>
#include <string>

#include "bench.h"
#include "reference.h"

namespace perfbench {

double Samples::quantile(double p) const {
  IFLOW_CHECK(!v_.empty());
  std::vector<double> s = v_;
  std::sort(s.begin(), s.end());
  const double rank = p * static_cast<double>(s.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, s.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return s[lo] * (1.0 - frac) + s[hi] * frac;
}

bool Samples::supports(double p) const {
  return static_cast<double>(v_.size()) * (1.0 - p) >= 10.0 - 1e-9;
}

void Report::check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  if (problems.size() < 20) problems.push_back(what);
}

void Report::add_percentile(std::vector<Metric>& into, const std::string& name,
                            const Samples& s, double p,
                            const std::string& unit, bool quick) {
  if (s.empty()) {
    into.push_back({name, 0.0, unit});
    return;
  }
  if (!s.supports(p)) {
    if (!quick) {
      check(false, name + ": only " + std::to_string(s.size()) +
                       " samples, fewer than ten beyond the percentile");
    } else {
      std::cerr << "quick: " << name << " from " << s.size()
                << " samples (too few for this percentile)\n";
    }
  }
  into.push_back({name, s.quantile(p), unit});
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

net::Network make_network(int nodes, std::uint64_t topology_seed) {
  Prng prng(topology_seed);
  return net::make_transit_stub(net::scale_to(nodes), prng);
}

workload::Workload make_queries(const net::Network& net,
                                const workload::WorkloadParams& wp,
                                int num_queries, std::uint64_t seed,
                                int tenants) {
  Prng prng(seed);
  workload::Workload wl =
      workload::make_workload(net, wp, num_queries, prng);
  for (std::size_t i = 0; i < wl.queries.size(); ++i) {
    wl.queries[i].tenant = static_cast<std::uint32_t>(i % tenants);
  }
  return wl;
}

void build_dense_world(DenseWorld& w, int nodes,
                       const workload::WorkloadParams& wp, int pool,
                       int tenants, double rate_scale, int max_cs,
                       std::uint64_t seed) {
  w.net = make_network(nodes, kDenseTopologySeed);
  w.wl = make_queries(w.net, wp, pool, kPoolSeed, tenants);
  for (query::StreamId s = 0; s < w.wl.catalog.stream_count(); ++s) {
    w.wl.catalog.set_tuple_rate(
        s, w.wl.catalog.stream(s).tuple_rate * rate_scale);
  }
  w.mw = std::make_unique<engine::Middleware>(
      w.net, w.wl.catalog, max_cs, engine::Algorithm::kTopDown, seed);
  w.mw->workspace().set_threads(1);
}

void deploy_all(engine::Simulation& sim, const engine::Middleware& mw) {
  const std::vector<engine::Middleware::ActiveView> views = mw.active_views();
  std::vector<bool> done(views.size(), false);
  std::size_t remaining = views.size();
  bool progress = true;
  while (remaining > 0 && progress) {
    progress = false;
    for (std::size_t i = 0; i < views.size(); ++i) {
      if (done[i]) continue;
      try {
        sim.deploy(*views[i].deployment,
                   query::RateModel(mw.catalog(), *views[i].query));
        done[i] = true;
        --remaining;
        progress = true;
      } catch (const CheckError&) {
        // Provider not deployed yet; retry on the next sweep.
      }
    }
  }
  IFLOW_CHECK_MSG(remaining == 0, "reuse chain failed to deploy");
}

void check_actives(const engine::Middleware& mw, Report& rep,
                   const std::string& when) {
  const std::vector<net::NodeId> excluded = mw.excluded_hosts();
  ref::PathCosts paths(mw.network());
  double repriced = 0.0;
  for (const engine::Middleware::ActiveView& v : mw.active_views()) {
    const std::string why = ref::check_deployment(
        *v.deployment, *v.query, mw.catalog(), mw.network(), excluded);
    rep.check(why.empty(),
              when + ": query " + std::to_string(v.query->id) + ": " + why);
    repriced += ref::reprice(*v.deployment, *v.query, mw.catalog(), paths);
  }
  rep.check(ref::close(repriced, mw.total_current_cost(), 1e-9),
            when + ": reference re-pricing differs from total_current_cost()");
}

workload::WorkloadParams chatty_params(int streams) {
  workload::WorkloadParams wp;
  wp.num_streams = streams;
  wp.min_joins = 1;
  wp.max_joins = 2;
  wp.tuple_rate_min = 10.0;
  wp.tuple_rate_max = 30.0;
  wp.selectivity_min = 0.1;
  wp.selectivity_max = 0.3;
  return wp;
}

}  // namespace perfbench
