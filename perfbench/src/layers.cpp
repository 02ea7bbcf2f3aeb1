#include "layers.h"

#include <algorithm>
#include <optional>

#include "opt/top_down.h"

namespace perfbench {

namespace {

constexpr double kMB = 1024.0 * 1024.0;

/// Median wall time of `once` (in ms), repeated until at least three
/// samples and a second of work are in.
double median_over_a_second(const std::function<void()>& once) {
  Samples s;
  double total_ms = 0.0;
  while (s.size() < 3 || total_ms < 1000.0) {
    const double ms = time_ms(once);
    s.add(ms);
    total_ms += ms;
  }
  return s.median();
}

}  // namespace

void Layers::emit(Report& rep, bool quick) const {
  auto& out = rep.layers;
  rep.add_layer("net.routing_build_ms", routing_build_ms, "ms");
  rep.add_percentile(out, "net.routing_sync_ms_p50", routing_sync_ms, 0.5,
                     "ms", quick);
  rep.add_layer("net.cost_lookup_us", cost_lookup_us, "us");
  rep.add_layer("net.sparse_peak_mb", sparse_peak_mb, "MB");
  rep.add_layer("cluster.hierarchy_build_ms", hierarchy_build_ms, "ms");
  rep.add_percentile(out, "cluster.refresh_ms_p50", refresh_ms, 0.5, "ms",
                     quick);
  rep.add_percentile(out, "cluster.remove_node_ms_p50", remove_node_ms, 0.5,
                     "ms", quick);
  rep.add_percentile(out, "opt.optimize_ms_p50", optimize_ms, 0.5, "ms",
                     quick);
  rep.add_percentile(out, "opt.optimize_ms_p99", optimize_ms, 0.99, "ms",
                     quick);
  rep.add_layer("opt.plans_considered", plans_considered, "count");
  rep.add_layer("opt.reuse_hit_rate",
                admitted > 0.0 ? reuse_hits / admitted : 0.0, "ratio");
  rep.add_percentile(out, "advert.reusable_us_p50", reusable_us, 0.5, "us",
                     quick);
  rep.add_layer("advert.entries", entries, "count");
  rep.add_percentile(out, "engine.footprint_us_p50", footprint_us, 0.5, "us",
                     quick);
  rep.add_percentile(out, "engine.price_us_p50", price_us, 0.5, "us", quick);
  rep.add_layer("engine.admit_degraded", admit_degraded, "count");
  rep.add_percentile(out, "engine.settle_ms_p50", settle_ms, 0.5, "ms", quick);
  rep.add_layer("engine.settle_replans", settle_replans, "count");
  rep.add_layer("engine.settle_moved", settle_moved, "count");
  rep.add_layer("engine.migrated", migrated, "count");
  rep.add_layer("engine.suspended", suspended, "count");
  rep.add_layer("engine.resumed", resumed, "count");
  rep.add_percentile(out, "engine.sim_deploy_ms", sim_deploy_ms, 0.5, "ms",
                     quick);
  rep.add_layer("engine.source_tuples", source_tuples, "count");
  rep.add_layer("engine.join_arrivals", join_arrivals, "count");
  rep.add_layer("engine.sink_arrivals", sink_arrivals, "count");
  rep.add_layer("engine.transmissions", transmissions, "count");
  rep.add_layer("engine.retransmits", retransmits, "count");
  rep.add_layer("engine.acks", acks, "count");
  rep.add_layer("engine.delivery_ratio", delivery_ratio, "ratio");
  rep.add_layer("engine.max_queue_depth", max_queue_depth, "count");
  rep.add_layer("engine.ckpt_epochs", ckpt_epochs, "count");
  rep.add_layer("engine.ckpt_snapshot_mb", ckpt_snapshot_mb, "MB");
  rep.add_layer("engine.ckpt_replayed", ckpt_replayed, "count");
  rep.add_layer("engine.ckpt_retained_high_water", ckpt_retained_high_water,
                "count");
}

void Layers::begin_round() {
  plans_considered = 0.0;
  reuse_hits = admitted = admit_degraded = 0.0;
  settle_replans = settle_moved = 0.0;
  migrated = suspended = resumed = 0.0;
}

void Layers::count_registration(const opt::OptimizeResult& r) {
  if (!r.feasible) return;
  admitted += 1.0;
  for (const query::LeafUnit& u : r.deployment.units) {
    if (u.derived) {
      reuse_hits += 1.0;
      return;
    }
  }
}

void Layers::count_outcomes(const std::vector<engine::Redeployment>& reds) {
  for (const engine::Redeployment& r : reds) {
    switch (r.outcome) {
      case engine::Outcome::kMigrated: migrated += 1.0; break;
      case engine::Outcome::kSuspended: suspended += 1.0; break;
      case engine::Outcome::kResumed: resumed += 1.0; break;
      default: break;
    }
  }
}

void Layers::read_simulation(const engine::Simulation& sim,
                             const std::vector<query::QueryId>& queries,
                             double expected) {
  source_tuples = static_cast<double>(sim.tuples_emitted());
  join_arrivals = 0.0;
  sink_arrivals = 0.0;
  for (const engine::OperatorStats& st : sim.operator_stats()) {
    if (st.kind == "join") join_arrivals += static_cast<double>(st.tuples_in);
    if (st.kind == "sink") sink_arrivals += static_cast<double>(st.tuples_in);
  }
  transmissions = retransmits = acks = max_queue_depth = 0.0;
  for (const engine::ChannelTelemetry& ch : sim.channel_telemetry()) {
    transmissions += static_cast<double>(ch.sent);
    retransmits += static_cast<double>(ch.retransmits);
    acks += static_cast<double>(ch.rtt_samples);
    max_queue_depth =
        std::max(max_queue_depth, static_cast<double>(ch.max_queue_depth));
  }
  double delivered = 0.0;
  for (const query::QueryId q : queries) {
    delivered += static_cast<double>(sim.tuples_delivered(q));
  }
  delivery_ratio = expected > 0.0 ? delivered / expected : 0.0;
  const engine::SnapshotStats ss = sim.snapshot_stats();
  ckpt_epochs = static_cast<double>(ss.epochs_committed);
  ckpt_snapshot_mb = ss.bytes_total / kMB;
  ckpt_replayed = static_cast<double>(ss.replayed_tuples);
  ckpt_retained_high_water = static_cast<double>(ss.retained_high_water);
}

void apply(net::Network& net, const Fault& f) {
  switch (f.kind) {
    case Fault::Kind::kFailLink: net.fail_link(f.a, f.b); break;
    case Fault::Kind::kRestoreLink: net.restore_link(f.a, f.b); break;
    case Fault::Kind::kCrashNode: net.crash_node(f.a); break;
    case Fault::Kind::kRestoreNode: net.restore_node(f.a); break;
  }
}

std::vector<Fault> fault_script(const net::Network& net, std::uint64_t seed,
                                int pairs) {
  Prng prng(seed ^ 0xFA017ULL);
  std::vector<Fault> script;
  for (int i = 0; i < pairs; ++i) {
    if (i % 2 == 0) {
      const net::Link& l = net.links()[prng.index(net.link_count())];
      script.push_back({Fault::Kind::kFailLink, l.a, l.b});
      script.push_back({Fault::Kind::kRestoreLink, l.a, l.b});
    } else {
      net::NodeId n = 0;
      do {
        n = static_cast<net::NodeId>(prng.index(net.node_count()));
      } while (net.kind(n) != net::NodeKind::kStub);
      script.push_back({Fault::Kind::kCrashNode, n, net::kInvalidNode});
      script.push_back({Fault::Kind::kRestoreNode, n, net::kInvalidNode});
    }
  }
  return script;
}

std::vector<net::NodeId> stub_nodes(const net::Network& net,
                                    std::uint64_t seed, int count) {
  Prng prng(seed ^ 0x5708ULL);
  std::vector<net::NodeId> out;
  while (static_cast<int>(out.size()) < count) {
    const auto n = static_cast<net::NodeId>(prng.index(net.node_count()));
    if (net.kind(n) == net::NodeKind::kStub &&
        std::find(out.begin(), out.end(), n) == out.end()) {
      out.push_back(n);
    }
  }
  return out;
}

std::vector<std::pair<net::NodeId, net::NodeId>> lookup_sample(
    const net::Network& net, std::uint64_t seed, int sources, int per_source) {
  Prng prng(seed ^ 0x10C4ULL);
  std::vector<std::pair<net::NodeId, net::NodeId>> out;
  for (int s = 0; s < sources; ++s) {
    const auto a = static_cast<net::NodeId>(prng.index(net.node_count()));
    for (int t = 0; t < per_source; ++t) {
      out.emplace_back(a,
                       static_cast<net::NodeId>(prng.index(net.node_count())));
    }
  }
  return out;
}

void probe_net(Layers& L, const net::Network& net,
               const net::RoutingOptions& ropts,
               const std::vector<Fault>& script,
               const std::vector<std::pair<net::NodeId, net::NodeId>>& lookups,
               const net::RoutingTables* sparse) {
  L.routing_build_ms = median_over_a_second(
      [&] { (void)net::RoutingTables::build(net, ropts); });

  net::Network copy = net;
  net::RoutingTables rt = net::RoutingTables::build(copy, ropts);
  for (const Fault& f : script) {
    apply(copy, f);
    L.routing_sync_ms.add(time_ms([&] { rt.sync(copy); }));
  }

  const net::RoutingTables lookup_rt = net::RoutingTables::build(net, ropts);
  double sink = 0.0;
  L.cost_lookup_us =
      1000.0 * median_over_a_second([&] {
        for (const auto& [a, b] : lookups) sink += lookup_rt.cost(a, b);
      }) /
      static_cast<double>(lookups.size());
  IFLOW_CHECK(sink >= 0.0);

  if (sparse != nullptr) {
    L.sparse_peak_mb = static_cast<double>(sparse->peak_memory_bytes()) / kMB;
  } else {
    net::RoutingOptions so = ropts;
    so.mode = net::RoutingMode::kSparse;
    const net::RoutingTables srt = net::RoutingTables::build(net, so);
    for (const auto& [a, b] : lookups) sink += srt.cost(a, b);
    L.sparse_peak_mb = static_cast<double>(srt.peak_memory_bytes()) / kMB;
  }
}

void probe_cluster(Layers& L, const net::RoutingTables& rt,
                   const std::function<cluster::Hierarchy()>& build,
                   const std::vector<net::NodeId>& candidates) {
  std::optional<cluster::Hierarchy> h;
  L.hierarchy_build_ms = median_over_a_second([&] { h.emplace(build()); });
  for (const net::NodeId n : candidates) {
    if (L.remove_node_ms.size() == kClusterSamples) break;
    if (!h->contains(n)) continue;
    L.refresh_ms.add(time_ms([&] { h->refresh(rt); }));
    L.remove_node_ms.add(time_ms([&] { h->remove_node(n, rt); }));
  }
}

void probe_optimize(Layers& L, const opt::OptimizerEnv& env,
                    const std::vector<query::Query>& queries,
                    std::size_t samples) {
  for (std::size_t i = 0; i < samples; ++i) {
    const query::Query& q = queries[i % queries.size()];
    // Plan as just before the query's registration: against the live
    // advertisements minus the query's own.
    advert::Registry others;
    if (env.registry != nullptr) others = *env.registry;
    others.remove_origin(q.id);
    opt::OptimizerEnv e = env;
    if (env.registry != nullptr) e.registry = &others;
    opt::TopDownOptimizer td(e);
    opt::OptimizeResult r;
    L.optimize_ms.add(time_ms([&] { r = td.optimize(q); }));
    L.plans_considered += r.plans_considered;
  }
}

void probe_reusable(Layers& L, const advert::Registry& registry,
                    const std::vector<query::Query>& queries,
                    std::size_t samples) {
  for (std::size_t i = 0; i < samples; ++i) {
    const query::Query& q = queries[i % queries.size()];
    L.reusable_us.add(
        1000.0 * time_ms([&] { (void)registry.reusable(q, nullptr); }));
  }
  L.entries = static_cast<double>(registry.size());
}

void probe_admission(
    Layers& L,
    const std::vector<std::pair<const query::Query*, const query::Deployment*>>&
        deployments,
    const query::Catalog& catalog, const net::RoutingTables& rt,
    const net::Network& net, const engine::AdmissionController& controller,
    const engine::ResourceLedger& ledger, std::size_t samples) {
  if (deployments.empty()) return;
  for (std::size_t i = 0; i < samples; ++i) {
    const auto& [q, d] = deployments[i % deployments.size()];
    const query::RateModel rates(catalog, *q);
    engine::DeploymentFootprint fp;
    L.footprint_us.add(1000.0 * time_ms([&] {
                         fp = engine::footprint(*d, rates, rt, net);
                       }));
    L.price_us.add(1000.0 * time_ms([&] {
                     (void)controller.price(fp, q->tenant, ledger, net, false);
                   }));
  }
}

void probe_sim_deploy(Layers& L, const std::function<void()>& deploy) {
  for (std::size_t i = 0; i < kSimDeploySamples; ++i) {
    L.sim_deploy_ms.add(time_ms(deploy));
  }
}

engine::AdmissionController ample_controller() {
  engine::AdmissionConfig ac;
  ac.node_capacity = kAmpleCapacity;
  engine::AdmissionController controller;
  controller.set_config(ac);
  return controller;
}

void probe_dense_world(Layers& L, engine::Middleware& mw,
                       const std::vector<Fault>& script,
                       const std::vector<query::Query>& queries,
                       std::size_t samples, int max_cs, std::uint64_t seed) {
  const net::Network& net = mw.network();
  std::vector<Fault> faults = script;
  const std::vector<Fault> extra = fault_script(net, seed, kSyncSamples / 2);
  for (std::size_t i = 0; faults.size() < kSyncSamples; i += 2) {
    faults.push_back(extra[i]);
    faults.push_back(extra[i + 1]);
  }
  probe_net(L, net, {}, faults, lookup_sample(net, seed, 64, 64), nullptr);
  std::vector<net::NodeId> removals;
  for (const Fault& f : faults) {
    if (f.kind == Fault::Kind::kCrashNode) removals.push_back(f.a);
  }
  for (const net::NodeId n : stub_nodes(net, seed, 4 * kClusterSamples)) {
    removals.push_back(n);
  }
  probe_cluster(
      L, mw.routing(),
      [&] {
        Prng hp(seed);
        return cluster::Hierarchy::build(net, mw.routing(), max_cs, hp);
      },
      removals);
  L.entries = static_cast<double>(mw.registry().size());
  if (samples == 0) return;
  probe_optimize(L, mw.planning_env(), queries, samples);
  probe_reusable(L, mw.registry(), queries, samples);
  std::vector<std::pair<const query::Query*, const query::Deployment*>> deps;
  for (const auto& v : mw.active_views()) {
    deps.emplace_back(v.query, v.deployment);
  }
  probe_admission(L, deps, mw.catalog(), mw.routing(), net,
                  ample_controller(), mw.ledger(), samples);
}

}  // namespace perfbench
