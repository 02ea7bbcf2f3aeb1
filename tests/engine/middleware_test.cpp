#include "engine/middleware.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <string>

#include "net/gtitm.h"
#include "workload/generator.h"

namespace iflow::engine {
namespace {

struct World {
  net::Network net;
  workload::Workload wl;

  explicit World(std::uint64_t seed, int queries = 4, int stub_size = 4) {
    Prng prng(seed);
    net::TransitStubParams p;
    p.transit_count = 2;
    p.stub_domains_per_transit = 2;
    p.stub_domain_size = stub_size;
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

/// excluded_hosts() and the planning candidate set split the nodes in two;
/// with nothing excluded the candidate set is empty (every node may host).
void expect_hosts_partitioned(Middleware& mw) {
  const std::vector<net::NodeId> excluded = mw.excluded_hosts();
  const std::vector<net::NodeId> hosts = mw.planning_env().processing_nodes;
  if (excluded.empty()) {
    EXPECT_TRUE(hosts.empty());
    return;
  }
  std::vector<net::NodeId> both = excluded;
  both.insert(both.end(), hosts.begin(), hosts.end());
  std::sort(both.begin(), both.end());
  std::vector<net::NodeId> all(mw.network().node_count());
  std::iota(all.begin(), all.end(), net::NodeId{0});
  EXPECT_EQ(both, all);
}

/// Checks the migration feed one call left against the redeployments it
/// returned: one entry per kMigrated/kResumed record, in the same order,
/// warm exactly for migrations (a resumed query restarts cold). Clears the
/// feed and returns its length.
std::size_t check_feed(Middleware& mw, const std::vector<Redeployment>& reds,
                       const std::string& site) {
  std::vector<const Redeployment*> replanned;
  for (const Redeployment& r : reds) {
    if (r.outcome == Outcome::kMigrated || r.outcome == Outcome::kResumed) {
      replanned.push_back(&r);
    }
  }
  const std::vector<StateMigration> feed = mw.state_migrations();
  mw.clear_state_migrations();
  EXPECT_EQ(feed.size(), replanned.size()) << site;
  for (std::size_t i = 0; i < feed.size() && i < replanned.size(); ++i) {
    EXPECT_EQ(feed[i].query, replanned[i]->query) << site;
    EXPECT_EQ(feed[i].warm, replanned[i]->outcome == Outcome::kMigrated)
        << site;
  }
  expect_hosts_partitioned(mw);
  return feed.size();
}

/// The node hosting the most operators among nodes that are no stream
/// source and no sink (kInvalidNode when there is none).
net::NodeId relay_host(const Middleware& mw, const World& w) {
  std::vector<int> ops_at(w.net.node_count(), 0);
  for (const query::Deployment* d : mw.deployments()) {
    for (const query::DeployedOp& op : d->ops) ops_at[op.node]++;
  }
  for (query::StreamId s = 0; s < w.wl.catalog.stream_count(); ++s) {
    ops_at[w.wl.catalog.stream(s).source] = -1;
  }
  for (const query::Query& q : w.wl.queries) ops_at[q.sink] = -1;
  const auto it = std::max_element(ops_at.begin(), ops_at.end());
  return *it > 0 ? static_cast<net::NodeId>(it - ops_at.begin())
                 : net::kInvalidNode;
}

// Every adoption site feeds the state-migration stream (check_feed). Each
// site must feed at least one entry across the runs, so none of them is
// checked vacuously.
TEST(MiddlewareTest, EveryAdoptionSiteFeedsTheMigrationStream) {
  std::map<std::string, std::size_t> fed;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    World w(seed, /*queries=*/6, /*stub_size=*/10);
    Middleware mw(w.net, w.wl.catalog, 4, Algorithm::kTopDown, 99,
                  /*drift_threshold=*/1.05);
    for (const query::Query& q : w.wl.queries) mw.deploy(q);
    EXPECT_TRUE(mw.state_migrations().empty()) << "deploy records none";
    const auto step = [&](const std::string& site,
                          const std::vector<Redeployment>& reds) {
      fed[site] += check_feed(mw, reds, site + " seed " +
                                            std::to_string(seed));
    };

    const net::NodeId relay = relay_host(mw, w);
    if (relay == net::kInvalidNode) continue;  // every op on an endpoint
    step("fail_node", mw.fail_node(relay));
    step("restore_node", mw.restore_node(relay));
    // A failed stream source suspends its queries; the restore resumes them.
    const net::NodeId source = w.wl.catalog.stream(0).source;
    step("fail_node", mw.fail_node(source));
    step("restore_node", mw.restore_node(source));
    step("quarantine_node", mw.quarantine_node(relay));
    step("release_quarantine", mw.release_quarantine(relay));

    mw.set_stream_rate(1, w.wl.catalog.stream(1).tuple_rate * 8.0);
    step("settle", mw.settle());
    mw.set_stream_rate(2, w.wl.catalog.stream(2).tuple_rate * 8.0);
    step("adapt", mw.adapt());
    step("reoptimize", mw.reoptimize());

    const std::vector<double> loads = mw.node_loads();
    AdmissionConfig cfg;
    cfg.node_capacity = *std::max_element(loads.begin(), loads.end()) * 0.5;
    mw.set_admission_config(cfg);
    step("rebalance_load", mw.rebalance_load());
  }

  // Two nodes, one query anchored on both: quarantining the node its join
  // runs on migrates it to the other; quarantining that one too leaves no
  // host, so it is suspended; releasing either resumes it cold.
  net::Network net;
  net.add_node();
  net.add_node();
  net.add_link(0, 1, 1.0, 1.0, 1e6);
  query::Catalog catalog;
  const query::StreamId a = catalog.add_stream("A", 0, 50.0, 100.0);
  const query::StreamId b = catalog.add_stream("B", 1, 80.0, 100.0);
  catalog.set_selectivity(a, b, 0.01);
  query::Query q;
  q.id = 1;
  q.sources = {a, b};
  q.sink = 0;
  Middleware mw(net, catalog, 4, Algorithm::kTopDown, 99);
  ASSERT_TRUE(mw.deploy(q).feasible);
  const net::NodeId first = mw.deployments()[0]->ops[0].node;
  const net::NodeId second = 1 - first;
  fed["quarantine_node"] += check_feed(mw, mw.quarantine_node(first), "q1");
  ASSERT_EQ(mw.active_queries(), 1u);
  EXPECT_EQ(mw.deployments()[0]->ops[0].node, second);
  EXPECT_EQ(check_feed(mw, mw.quarantine_node(second), "q2"), 0u);
  EXPECT_EQ(mw.suspended_queries(), 1u);
  const std::size_t resumed =
      check_feed(mw, mw.release_quarantine(first), "release");
  EXPECT_EQ(resumed, 1u);
  fed["release_quarantine"] += resumed;

  for (const char* site :
       {"fail_node", "restore_node", "quarantine_node", "release_quarantine",
        "settle", "adapt", "reoptimize", "rebalance_load"}) {
    EXPECT_GT(fed[site], 0u) << site;
  }
}

}  // namespace
}  // namespace iflow::engine
