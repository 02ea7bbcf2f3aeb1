// scale: the sparse scale path at ~5000 nodes. Routing runs in kSparse
// mode, the hierarchy comes from Hierarchy::build_partitioned over the
// GT-ITM stub domains, and a SparseOracle prices Top-Down plans for two
// dozen 4-source queries, each planned on its own (no reuse), in pool order.
// The order decides how the routing tier's row cache fills, and a shuffled
// order moves the plan times of whole queries by an order of magnitude, so
// it is fixed: --seed draws only the reference check's sample of point
// costs.
#include <memory>

#include "advert/registry.h"
#include "bench.h"
#include "cluster/hierarchy.h"
#include "layers.h"
#include "opt/search/sparse_oracle.h"
#include "opt/search/workspace.h"
#include "opt/top_down.h"
#include "reference.h"

namespace perfbench {

namespace {

struct Params {
  int nodes = 5000;
  int streams = 24;
  int queries = 24;
  int max_cs = 32;
};

std::vector<std::vector<net::NodeId>> domain_partitions(
    const net::TransitStubParams& p) {
  std::vector<std::vector<net::NodeId>> parts(1);
  for (int t = 0; t < p.transit_count; ++t) {
    parts[0].push_back(static_cast<net::NodeId>(t));
  }
  for (int d = 0; d < net::stub_domain_count(p); ++d) {
    parts.push_back(net::stub_domain_members(p, d));
  }
  return parts;
}

net::RoutingOptions sparse_options() {
  net::RoutingOptions ro;
  ro.mode = net::RoutingMode::kSparse;
  return ro;
}

struct World {
  net::TransitStubParams params;
  net::Network net;
  net::RoutingTables rt;
  std::unique_ptr<cluster::Hierarchy> hierarchy;
  std::unique_ptr<opt::SparseOracle> oracle;
  workload::Workload wl;
  opt::PlanWorkspace ws{1};
  std::vector<opt::OptimizeResult> plans;  // parallel to wl.queries
  advert::Registry registry;  // the plans' advertisements, for the probes
};

std::unique_ptr<World> build(const Params& P) {
  auto w = std::make_unique<World>();
  w->params = net::scale_to(P.nodes);
  w->net = make_network(P.nodes, kScaleTopologySeed);
  w->rt = net::RoutingTables::build(w->net, sparse_options());
  Prng hp(kScaleTopologySeed);
  w->hierarchy = std::make_unique<cluster::Hierarchy>(
      cluster::Hierarchy::build_partitioned(
          w->net, w->rt, domain_partitions(w->params), P.max_cs, hp));
  w->oracle =
      std::make_unique<opt::SparseOracle>(w->net, w->rt, *w->hierarchy);
  workload::WorkloadParams wp;
  wp.num_streams = P.streams;
  wp.min_joins = 3;
  wp.max_joins = 3;  // 4-source queries, the paper's scalability shape
  w->wl = make_queries(w->net, wp, P.queries, kPoolSeed, 1);
  return w;
}

opt::OptimizerEnv planning_env(World& w) {
  opt::OptimizerEnv env;
  env.catalog = &w.wl.catalog;
  env.network = &w.net;
  env.routing = &w.rt;
  env.hierarchy = w.hierarchy.get();
  env.workspace = &w.ws;
  env.sparse = w.oracle.get();
  env.reuse = false;
  return env;
}

/// Reference checks: every plan covers its query, prices to its reported
/// actual cost under the reference Dijkstra, and a fixed sample of sparse
/// point costs equals the reference distances.
void check_plans(const World& w, std::uint64_t seed, Report& rep) {
  ref::PathCosts paths(w.net);
  for (std::size_t i = 0; i < w.plans.size(); ++i) {
    const query::Query& q = w.wl.queries[i];
    const opt::OptimizeResult& r = w.plans[i];
    const std::string why =
        ref::check_deployment(r.deployment, q, w.wl.catalog, w.net, {});
    rep.check(why.empty(), "scale query " + std::to_string(q.id) + ": " + why);
    rep.check(ref::close(ref::reprice(r.deployment, q, w.wl.catalog, paths),
                         r.actual_cost, 1e-9),
              "scale query " + std::to_string(q.id) +
                  ": actual_cost differs from the reference re-pricing");
  }
  for (const auto& [a, b] : lookup_sample(w.net, seed, 8, 32)) {
    rep.check(ref::close(w.rt.cost(a, b), paths.cost(a, b), 1e-9),
              "sparse cost() differs from the reference Dijkstra");
  }
}

}  // namespace

void run_scale(const Options& o, Report& rep) {
  Params P;
  if (o.quick) {
    P.nodes = 1000;
    P.queries = 6;
  }
  Samples setup_s, plan_ms;
  double busy_ms = 0.0;
  std::vector<double> costs_round0;
  double plan_cost = 0.0;
  Layers L;

  std::unique_ptr<World> w;
  rep.rounds = run_rounds(o.seconds, 2, [&](int round) {
    w.reset();
    const Clock::time_point t0 = Clock::now();
    w = build(P);
    setup_s.add(ms_since(t0) / 1000.0);

    const opt::OptimizerEnv env = planning_env(*w);
    opt::TopDownOptimizer td(env);
    std::vector<double> costs;
    for (const query::Query& q : w->wl.queries) {
      opt::OptimizeResult r;
      const double ms = time_ms([&] { r = td.optimize(q); });
      plan_ms.add(ms);
      busy_ms += ms;
      ++rep.attempted;
      if (!r.feasible) ++rep.failed;
      costs.push_back(r.actual_cost);
      w->plans.push_back(std::move(r));
    }
    if (round == 0) {
      check_plans(*w, o.seed, rep);
      costs_round0 = costs;
      for (const double c : costs) plan_cost += c;
    } else {
      rep.check(costs == costs_round0,
                "rounds of one seed planned different costs");
    }
  });

  rep.add_e2e("setup_s", setup_s.median(), "s");
  rep.add_percentile(rep.e2e, "latency_ms", plan_ms, 0.5, "ms", o.quick);
  const double plans_per_s =
      static_cast<double>(plan_ms.size()) / (busy_ms / 1000.0);
  rep.add_e2e("throughput_per_s", plans_per_s, "1/s");
  rep.add_e2e("plan_cost", plan_cost, "cost/s");

  rep.add_percentile(rep.detail, "plan_ms_p50", plan_ms, 0.5, "ms", o.quick);
  rep.add_detail("plans_per_s", plans_per_s, "1/s");
  rep.add_detail("nodes", static_cast<double>(w->net.node_count()), "count");

  if (!o.trace) return;
  const std::uint64_t probe_seed = o.seed ^ 0x7ACEULL;
  probe_net(L, w->net, sparse_options(),
            fault_script(w->net, probe_seed, kSyncSamples / 2),
            lookup_sample(w->net, probe_seed, 64, 64), &w->rt);
  probe_cluster(
      L, w->rt,
      [&] {
        Prng hp(kScaleTopologySeed);
        return cluster::Hierarchy::build_partitioned(
            w->net, w->rt, domain_partitions(w->params), P.max_cs, hp);
      },
      stub_nodes(w->net, probe_seed, 4 * kClusterSamples));
  const std::vector<query::Query>& queries = w->wl.queries;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    advert::advertise_deployment(w->registry, w->plans[i].deployment,
                                 query::RateModel(w->wl.catalog, queries[i]));
  }
  const std::size_t n = o.quick ? 50 : 1000;
  probe_optimize(L, planning_env(*w), queries, n);
  probe_reusable(L, w->registry, queries, n);
  engine::ResourceLedger ledger;
  ledger.reset(w->net.node_count(), w->net.link_count());
  std::vector<std::pair<const query::Query*, const query::Deployment*>> deps;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    deps.emplace_back(&queries[i], &w->plans[i].deployment);
  }
  probe_admission(L, deps, w->wl.catalog, w->rt, w->net, ample_controller(),
                  ledger, n);
  for (const opt::OptimizeResult& r : w->plans) L.count_registration(r);
  engine::EngineConfig ec;
  ec.reliability.enabled = true;
  probe_sim_deploy(L, [&] {
    engine::Simulation sim(w->net, w->rt, w->wl.catalog, ec, o.seed);
    for (const auto& [q, d] : deps) {
      sim.deploy(*d, query::RateModel(w->wl.catalog, *q));
    }
  });
  L.emit(rep, o.quick);
}

}  // namespace perfbench
