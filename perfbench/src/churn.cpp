// churn: the control plane under registration churn, as a closed loop with
// one client. A ~1000-node GT-ITM world on the dense routing tier, a pool
// of paper-shaped queries (2-5 joins over 40 streams, 3 tenants), admission
// control pricing every plan with capacity to spare, and a seeded
// register/unregister loop with a settle() every few events.
#include <memory>

#include "bench.h"
#include "layers.h"

namespace perfbench {

namespace {

struct Params {
  int nodes = 1000;
  int streams = 40;
  int pool = 240;
  int preregistered = 160;
  int events = 1600;
  int settle_every = 16;
  int max_cs = 32;
};

struct World : DenseWorld {
  std::vector<char> in_system;
};

/// Builds the world and pre-registers part of the pool (the timed set-up).
std::unique_ptr<World> build(const Params& P, std::uint64_t seed,
                             Report& rep) {
  auto w = std::make_unique<World>();
  workload::WorkloadParams wp;
  wp.num_streams = P.streams;
  wp.min_joins = 2;
  wp.max_joins = 5;
  build_dense_world(*w, P.nodes, wp, P.pool, 3, 1.0, P.max_cs, seed);
  engine::AdmissionConfig ac;
  ac.node_capacity = kAmpleCapacity;
  w->mw->set_admission_config(ac);
  w->in_system.assign(w->wl.queries.size(), 0);
  for (int i = 0; i < P.preregistered; ++i) {
    const bool ok = w->mw->deploy(w->wl.queries[i]).feasible;
    rep.check(ok, "pre-registration refused");
    w->in_system[static_cast<std::size_t>(i)] = ok ? 1 : 0;
  }
  w->mw->settle();
  return w;
}

}  // namespace

void run_churn(const Options& o, Report& rep) {
  Params P;
  if (o.quick) {
    P.nodes = 128;
    P.streams = 16;
    P.pool = 30;
    P.preregistered = 20;
    P.events = 120;
  }
  Samples setup_s, register_ms, unregister_ms;
  double busy_ms = 0.0;  // inside the program's calls
  double plan_cost = 0.0;
  std::size_t actives = 0;
  Layers L;
  const engine::AdmissionController controller = ample_controller();

  std::unique_ptr<World> w;
  rep.rounds = run_rounds(o.seconds, 2, [&](int round) {
    w.reset();
    L.begin_round();
    const Clock::time_point t0 = Clock::now();
    w = build(P, o.seed, rep);
    setup_s.add(ms_since(t0) / 1000.0);
    engine::Middleware& mw = *w->mw;
    // Events alternate: unregister a random active query, register a
    // random inactive one. A final pass registers every query still
    // outside, so each round ends with the whole pool active.
    Prng prng(o.seed ^ 0xC4A22ULL);
    const auto register_one = [&](std::size_t pick) {
      const query::Query& q = w->wl.queries[pick];
      if (o.trace) {
        probe_optimize(L, mw.planning_env(), {q}, 1);
        probe_reusable(L, mw.registry(), {q}, 1);
      }
      opt::OptimizeResult res;
      const double ms = time_ms([&] { res = mw.deploy(q); });
      register_ms.add(ms);
      busy_ms += ms;
      ++rep.attempted;
      if (!res.feasible) {
        ++rep.failed;
        return;
      }
      w->in_system[pick] = 1;
      L.count_registration(res);
      if (mw.last_admission().decision ==
          engine::AdmissionDecision::kAdmitDegraded) {
        L.admit_degraded += 1.0;
      }
      if (o.trace) {
        probe_admission(L, {{&q, &res.deployment}}, mw.catalog(),
                        mw.routing(), mw.network(), controller, mw.ledger(),
                        1);
      }
    };
    const auto unregister_one = [&](std::size_t pick) {
      std::vector<engine::Redeployment> repairs;
      bool ok = false;
      const double ms = time_ms(
          [&] { ok = mw.undeploy(w->wl.queries[pick].id, &repairs); });
      unregister_ms.add(ms);
      busy_ms += ms;
      ++rep.attempted;
      if (!ok) ++rep.failed;
      w->in_system[pick] = 0;
      L.count_outcomes(repairs);
    };
    const auto settle = [&] {
      std::vector<engine::Redeployment> moved;
      const double ms = time_ms([&] { moved = mw.settle(); });
      busy_ms += ms;
      L.settle_ms.add(ms);
      L.settle_replans += static_cast<double>(mw.last_settle_stats().replanned);
      L.settle_moved += static_cast<double>(mw.last_settle_stats().moved);
      L.count_outcomes(moved);
    };
    const auto members = [&](char state) {
      std::vector<std::size_t> out;
      for (std::size_t i = 0; i < w->in_system.size(); ++i) {
        if (w->in_system[i] == state) out.push_back(i);
      }
      return out;
    };
    for (int e = 0; e < P.events; ++e) {
      const std::vector<std::size_t> pool = members(e % 2 == 0 ? 1 : 0);
      const std::size_t pick = pool[prng.index(pool.size())];
      if (e % 2 == 0) {
        unregister_one(pick);
      } else {
        register_one(pick);
      }
      if ((e + 1) % P.settle_every == 0) settle();
    }
    for (const std::size_t pick : members(0)) register_one(pick);
    settle();

    check_actives(mw, rep, "after the churn loop");
    if (round == 0) {
      plan_cost = mw.total_current_cost();
      actives = mw.active_queries();
    } else {
      rep.check(mw.total_current_cost() == plan_cost &&
                    mw.active_queries() == actives,
                "rounds of one seed ended in different states");
    }
    rep.check(mw.active_queries() == w->wl.queries.size(),
              "churn round ended with part of the pool inactive");
  });

  const double events_per_s =
      static_cast<double>(rep.attempted) / (busy_ms / 1000.0);
  rep.add_e2e("setup_s", setup_s.median(), "s");
  rep.add_percentile(rep.e2e, "latency_ms", register_ms, 0.5, "ms", o.quick);
  rep.add_e2e("throughput_per_s", events_per_s, "1/s");
  rep.add_e2e("plan_cost", plan_cost, "cost/s");

  rep.add_percentile(rep.detail, "register_ms_p50", register_ms, 0.5, "ms",
                     o.quick);
  rep.add_percentile(rep.detail, "register_ms_p99", register_ms, 0.99, "ms",
                     o.quick);
  rep.add_percentile(rep.detail, "unregister_ms_p50", unregister_ms, 0.5,
                     "ms", o.quick);
  rep.add_detail("churn_events_per_s", events_per_s, "1/s");
  rep.add_detail("register_samples", static_cast<double>(register_ms.size()),
                 "count");

  if (!o.trace) return;
  engine::Middleware& mw = *w->mw;
  const std::uint64_t probe_seed = o.seed ^ 0x7ACEULL;
  probe_dense_world(L, mw, fault_script(mw.network(), probe_seed, 12), {}, 0,
                    P.max_cs, probe_seed);
  engine::EngineConfig ec;
  ec.reliability.enabled = true;
  probe_sim_deploy(L, [&] {
    engine::Simulation sim(mw.network(), mw.routing(), mw.catalog(), ec,
                           o.seed);
    deploy_all(sim, mw);
  });
  L.emit(rep, o.quick);
}

}  // namespace perfbench
