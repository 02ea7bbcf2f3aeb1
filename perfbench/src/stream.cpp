// stream: the data plane where it is the bottleneck. A few 2-3-source
// queries on the ~1000-node world at ten times the catalog rates, run by a
// reliable-mode simulation on a loss-free network with no checkpoints.
// Sources are open-loop in simulated time, so a backlog shows up as result
// latency.
#include <cmath>
#include <memory>

#include "bench.h"
#include "layers.h"
#include "reference.h"

namespace perfbench {

namespace {

struct Params {
  int nodes = 1000;
  int streams = 12;
  int queries = 4;
  double rate_scale = 10.0;
  double duration_s = 15.0;  // simulated horizon, drain included
  int max_cs = 32;
};

struct World : DenseWorld {
  std::unique_ptr<engine::Simulation> sim;
};

engine::EngineConfig engine_config(const Params& P) {
  engine::EngineConfig ec;
  ec.duration_s = P.duration_s;
  ec.reliability.enabled = true;
  // GT-ITM round trips reach hundreds of ms; a timeout sized to the
  // topology keeps a loss-free run free of spurious retransmissions.
  ec.reliability.ack_timeout_s = 1.0;
  ec.reliability.max_backoff_s = 4.0;
  return ec;
}

std::unique_ptr<World> build(const Params& P, std::uint64_t seed,
                             Report& rep, Layers& L) {
  auto w = std::make_unique<World>();
  build_dense_world(*w, P.nodes, chatty_params(P.streams), P.queries, 1,
                    P.rate_scale, P.max_cs, seed);
  for (const query::Query& q : w->wl.queries) {
    const opt::OptimizeResult r = w->mw->deploy(q);
    rep.check(r.feasible, "stream query refused");
    L.count_registration(r);
  }
  w->mw->settle();
  w->sim = std::make_unique<engine::Simulation>(
      w->mw->network(), w->mw->routing(), w->mw->catalog(), engine_config(P),
      seed);
  deploy_all(*w->sim, *w->mw);
  return w;
}

}  // namespace

void run_stream(const Options& o, Report& rep) {
  Params P;
  if (o.quick) {
    P.nodes = 128;
    P.duration_s = 7.0;
  }
  const engine::EngineConfig ec = engine_config(P);
  const double span_s = ec.duration_s - ec.reliability.drain_s;
  Samples setup_s;
  double arrivals = 0.0, sim_ms = 0.0;  // over every round's run
  std::uint64_t delivered_round0 = 0;
  double latency_ms = 0.0, plan_cost = 0.0, expected = 0.0;
  std::vector<query::QueryId> ids;
  Layers L;

  std::unique_ptr<World> w;
  rep.rounds = run_rounds(o.seconds, 2, [&](int round) {
    w.reset();
    L.begin_round();
    const Clock::time_point t0 = Clock::now();
    w = build(P, o.seed, rep, L);
    setup_s.add(ms_since(t0) / 1000.0);

    engine::Simulation& sim = *w->sim;
    sim_ms += time_ms([&] { sim.run(); });
    rep.attempted += w->wl.queries.size();
    for (const engine::OperatorStats& st : sim.operator_stats()) {
      arrivals += static_cast<double>(st.tuples_in);
    }

    // Output checks: nothing lost on a loss-free network, and no query
    // delivers more than the analytic count for the emission span allows
    // (10% plus six standard deviations of a Poisson count).
    std::uint64_t delivered = 0;
    double latency_sum = 0.0;
    expected = 0.0;
    ids.clear();
    for (const query::Query& q : w->wl.queries) {
      ids.push_back(q.id);
      const engine::DeliveryStats ds = sim.delivery_stats(q.id);
      const std::uint64_t got = sim.tuples_delivered(q.id);
      const double want = ref::expected_results(w->wl.catalog, q, span_s);
      rep.check(ds.lost == 0, "stream query lost tuples on a loss-free run");
      rep.check(static_cast<double>(got) <=
                    1.1 * want + 6.0 * std::sqrt(want) + 10.0,
                "stream query " + std::to_string(q.id) +
                    " delivered more than the analytic bound");
      delivered += got;
      latency_sum += sim.mean_latency_ms(q.id) * static_cast<double>(got);
      expected += want;
    }
    rep.check(delivered > 0, "stream delivered no results");
    if (round == 0) {
      delivered_round0 = delivered;
      latency_ms = latency_sum / static_cast<double>(delivered);
      plan_cost = w->mw->total_current_cost();
    } else {
      rep.check(delivered == delivered_round0,
                "rounds of one seed delivered different counts");
    }
  });

  const double tuples_per_s = arrivals / (sim_ms / 1000.0);
  rep.add_e2e("setup_s", setup_s.median(), "s");
  rep.add_e2e("latency_ms", latency_ms, "ms");
  rep.add_e2e("throughput_per_s", tuples_per_s, "1/s");
  rep.add_e2e("plan_cost", plan_cost, "cost/s");

  rep.add_detail("sim_tuples_per_s", tuples_per_s, "1/s");
  rep.add_detail("results_delivered", static_cast<double>(delivered_round0),
                 "count");
  rep.add_detail("result_latency_ms", latency_ms, "ms");
  rep.add_detail("expected_results", expected, "count");

  if (!o.trace) return;
  engine::Middleware& mw = *w->mw;
  const std::uint64_t probe_seed = o.seed ^ 0x7ACEULL;
  probe_dense_world(L, mw, fault_script(mw.network(), probe_seed, 12),
                    w->wl.queries, o.quick ? 50 : 1000, P.max_cs, probe_seed);
  probe_sim_deploy(L, [&] {
    engine::Simulation sim(mw.network(), mw.routing(), mw.catalog(),
                           engine_config(P), o.seed);
    deploy_all(sim, mw);
  });
  L.read_simulation(*w->sim, ids, expected);
  L.emit(rep, o.quick);
}

}  // namespace perfbench
