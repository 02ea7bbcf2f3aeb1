// recover: faults in both planes. A settled pool on the ~1000-node world
// takes a seeded script of crash_node/restore_node and fail_link/
// restore_link pairs aimed at operator hosts and data-path links; then a
// reliable simulation of the settled deployment runs with 1% link loss and
// checkpoints on, through a mid-run crash with rollback recovery and the
// planner's recorded state migrations replayed as kMigrateOps faults.
#include <algorithm>
#include <memory>

#include "bench.h"
#include "layers.h"
#include "reference.h"

namespace perfbench {

namespace {

struct Params {
  int nodes = 1000;
  int streams = 16;
  int pool = 40;
  int fault_pairs = 7;  // three rounds give 21 failovers and 21 restores
  int max_cs = 32;
  double emission_s = 20.0;
  double drain_s = 10.0;
  double loss = 0.01;
  double checkpoint_interval_s = 2.0;
  double crash_at_s = 6.0;
  double crash_len_s = 3.0;
  double migrate_at_s = 12.0;
};

struct World : DenseWorld {
  // The data-plane phase: the settled network with link loss, its routing,
  // and the faulted simulation over them (declared last, destroyed first).
  net::Network lossy;
  std::unique_ptr<net::RoutingTables> lossy_rt;
  std::unique_ptr<engine::Simulation> faulted;
};

std::unique_ptr<World> build(const Params& P, std::uint64_t seed,
                             Report& rep, Layers& L) {
  auto w = std::make_unique<World>();
  build_dense_world(*w, P.nodes, chatty_params(P.streams), P.pool, 3, 1.0,
                    P.max_cs, seed);
  for (const query::Query& q : w->wl.queries) {
    const opt::OptimizeResult r = w->mw->deploy(q);
    rep.check(r.feasible, "recover pool query refused");
    L.count_registration(r);
  }
  w->mw->settle();
  return w;
}

/// Nodes hosting an operator that are neither a source nor a sink of any
/// query: crashing one exercises migration and, in the simulation,
/// rollback recovery, without pausing a source.
std::vector<net::NodeId> operator_hosts(const World& w) {
  std::vector<char> endpoint(w.net.node_count(), 0);
  for (const query::Query& q : w.wl.queries) {
    endpoint[q.sink] = 1;
    for (const query::StreamId s : q.sources) {
      endpoint[w.wl.catalog.stream(s).source] = 1;
    }
  }
  std::vector<net::NodeId> out;
  for (const engine::Middleware::ActiveView& v : w.mw->active_views()) {
    for (const query::DeployedOp& op : v.deployment->ops) {
      if (endpoint[op.node] == 0) out.push_back(op.node);
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

/// A link on the current cost-optimal route of some data edge.
bool data_path_link(const World& w, Prng& prng, net::NodeId* a,
                    net::NodeId* b) {
  const auto views = w.mw->active_views();
  for (int attempt = 0; attempt < 64; ++attempt) {
    const query::Deployment& d = *views[prng.index(views.size())].deployment;
    if (d.ops.empty()) continue;
    const query::DeployedOp& op = d.ops[prng.index(d.ops.size())];
    const int child = prng.chance(0.5) ? op.left : op.right;
    const std::vector<net::NodeId> path =
        w.mw->routing().cost_path(query::child_location(d, child), op.node);
    if (path.size() < 2) continue;
    const std::size_t i = prng.index(path.size() - 1);
    *a = path[i];
    *b = path[i + 1];
    return true;
  }
  return false;
}

engine::EngineConfig engine_config(const Params& P, bool checkpoints) {
  engine::EngineConfig ec;
  ec.duration_s = P.emission_s + P.drain_s;
  ec.reliability.enabled = true;
  ec.reliability.ack_timeout_s = 0.05;
  ec.reliability.max_backoff_s = 2.0;
  ec.reliability.window = 1024;
  ec.reliability.lateness_s = ec.duration_s;
  ec.reliability.drain_s = P.drain_s;
  ec.checkpoint.enabled = checkpoints;
  ec.checkpoint.volatile_state = true;
  ec.checkpoint.interval_s = P.checkpoint_interval_s;
  return ec;
}

}  // namespace

void run_recover(const Options& o, Report& rep) {
  Params P;
  if (o.quick) {
    P.nodes = 128;
    P.pool = 12;
    P.fault_pairs = 2;
    P.emission_s = 8.0;
    P.drain_s = 8.0;
  }
  const double span_s = P.emission_s;
  Samples setup_s, failover_ms, restore_ms;
  double arrivals = 0.0, sim_ms = 0.0;  // over every round's two runs
  std::uint64_t delivered_round0 = 0;
  double plan_cost = 0.0, expected = 0.0;
  std::vector<query::QueryId> ids;
  std::vector<Fault> script;
  Layers L;

  std::unique_ptr<World> w;
  rep.rounds = run_rounds(o.seconds, 3, [&](int round) {
    w.reset();
    L.begin_round();
    const Clock::time_point t0 = Clock::now();
    w = build(P, o.seed, rep, L);
    setup_s.add(ms_since(t0) / 1000.0);
    engine::Middleware& mw = *w->mw;
    mw.clear_state_migrations();

    // Control plane: fault/heal pairs, node crashes and link failures
    // alternating.
    Prng prng(o.seed ^ 0x2EC0ULL);
    script.clear();
    for (int i = 0; i < P.fault_pairs; ++i) {
      std::vector<engine::Redeployment> reds;
      Fault down, up;
      const std::vector<net::NodeId> hosts = operator_hosts(*w);
      if (i % 2 == 0 && !hosts.empty()) {
        const net::NodeId n = hosts[prng.index(hosts.size())];
        down = {Fault::Kind::kCrashNode, n, net::kInvalidNode};
        up = {Fault::Kind::kRestoreNode, n, net::kInvalidNode};
        failover_ms.add(time_ms([&] { reds = mw.crash_node(n); }));
      } else {
        net::NodeId a = 0, b = 0;
        IFLOW_CHECK(data_path_link(*w, prng, &a, &b));
        down = {Fault::Kind::kFailLink, a, b};
        up = {Fault::Kind::kRestoreLink, a, b};
        failover_ms.add(time_ms([&] { reds = mw.fail_link(a, b); }));
      }
      L.count_outcomes(reds);
      check_actives(*w->mw, rep, "after a fault");
      if (up.kind == Fault::Kind::kRestoreNode) {
        restore_ms.add(time_ms([&] { reds = mw.restore_node(up.a); }));
      } else {
        restore_ms.add(time_ms([&] { reds = mw.restore_link(up.a, up.b); }));
      }
      L.count_outcomes(reds);
      check_actives(*w->mw, rep, "after a restore");
      script.push_back(down);
      script.push_back(up);
      rep.attempted += 2;
    }
    rep.check(mw.active_queries() == w->wl.queries.size() &&
                  mw.suspended_queries() == 0,
              "a query stayed inactive after the last restore");
    mw.settle();
    check_actives(*w->mw, rep, "after the script");

    // Data plane: the checkpointed lossy faulted run must deliver exactly
    // what a clean fault-free run of the same engine seed delivers.
    std::vector<std::pair<net::NodeId, net::NodeId>> moves;
    for (const engine::StateMigration& m : mw.state_migrations()) {
      if (!m.warm) continue;
      for (const engine::StateMigration::OpMove& mv : m.moves) {
        const auto p = std::make_pair(mv.from, mv.to);
        if (std::find(moves.begin(), moves.end(), p) == moves.end()) {
          moves.push_back(p);
        }
      }
    }
    if (moves.size() > 4) moves.resize(4);
    const std::vector<net::NodeId> hosts = operator_hosts(*w);
    IFLOW_CHECK(!hosts.empty());
    const net::NodeId crash = hosts[prng.index(hosts.size())];

    w->lossy = mw.network();
    for (const net::Link& l : mw.network().links()) {
      w->lossy.set_link_loss(l.a, l.b, P.loss);
    }
    w->lossy_rt = std::make_unique<net::RoutingTables>(
        net::RoutingTables::build(w->lossy));
    const std::uint64_t sim_seed = o.seed ^ 0x5EEDULL;
    w->faulted = std::make_unique<engine::Simulation>(
        w->lossy, *w->lossy_rt, mw.catalog(), engine_config(P, true),
        sim_seed);
    deploy_all(*w->faulted, mw);
    engine::Simulation& faulted = *w->faulted;
    using K = engine::SimFault::Kind;
    faulted.schedule_fault({P.crash_at_s, K::kCrashNode, crash,
                             net::kInvalidNode, 0.0});
    faulted.schedule_fault({P.crash_at_s + P.crash_len_s, K::kRestoreNode,
                             crash, net::kInvalidNode, 0.0});
    double t = P.migrate_at_s;
    for (const auto& [from, to] : moves) {
      faulted.schedule_fault({t, K::kMigrateOps, from, to, 0.0});
      t += 0.5;
    }
    engine::Simulation twin(mw.network(), mw.routing(), mw.catalog(),
                            engine_config(P, true), sim_seed);
    deploy_all(twin, mw);
    // Both runs count toward throughput: twice the measured work per round
    // and a share that does not depend on the seed's crash target.
    for (engine::Simulation* sim : {&faulted, &twin}) {
      sim_ms += time_ms([&] { sim->run(); });
      for (const engine::OperatorStats& st : sim->operator_stats()) {
        arrivals += static_cast<double>(st.tuples_in);
      }
    }

    std::uint64_t delivered = 0;
    expected = 0.0;
    ids.clear();
    for (const query::Query& q : w->wl.queries) {
      ids.push_back(q.id);
      const std::uint64_t got = faulted.tuples_delivered(q.id);
      rep.check(got == twin.tuples_delivered(q.id),
                "recover query " + std::to_string(q.id) +
                    ": faulted run differs from its fault-free twin");
      rep.check(faulted.delivery_stats(q.id).lost == 0,
                "recover query lost tuples after retries");
      delivered += got;
      expected += ref::expected_results(mw.catalog(), q, span_s);
    }
    ++rep.attempted;
    rep.check(delivered > 0, "recover delivered no results");
    if (round == 0) {
      delivered_round0 = delivered;
      plan_cost = mw.total_current_cost();
    } else {
      rep.check(delivered == delivered_round0 &&
                    mw.total_current_cost() == plan_cost,
                "rounds of one seed ended in different states");
    }
  });

  rep.add_e2e("setup_s", setup_s.median(), "s");
  rep.add_percentile(rep.e2e, "latency_ms", failover_ms, 0.5, "ms", o.quick);
  const double tuples_per_s = arrivals / (sim_ms / 1000.0);
  rep.add_e2e("throughput_per_s", tuples_per_s, "1/s");
  rep.add_e2e("plan_cost", plan_cost, "cost/s");

  rep.add_percentile(rep.detail, "failover_ms_p50", failover_ms, 0.5, "ms",
                     o.quick);
  rep.add_percentile(rep.detail, "restore_ms_p50", restore_ms, 0.5, "ms",
                     o.quick);
  rep.add_detail("sim_tuples_per_s", tuples_per_s, "1/s");
  rep.add_detail("results_delivered", static_cast<double>(delivered_round0),
                 "count");

  if (!o.trace) return;
  engine::Middleware& mw = *w->mw;
  probe_dense_world(L, mw, script, w->wl.queries, o.quick ? 50 : 1000,
                    P.max_cs, o.seed ^ 0x7ACEULL);
  probe_sim_deploy(L, [&] {
    engine::Simulation sim(w->lossy, *w->lossy_rt, mw.catalog(),
                           engine_config(P, true), o.seed);
    deploy_all(sim, mw);
  });
  L.read_simulation(*w->faulted, ids, expected);
  L.emit(rep, o.quick);
}

}  // namespace perfbench
