// Per-layer metrics of a traced run. Every workload prints the full set in
// one fixed order; a layer a workload does not exercise reads zero work.
// The probes here are extra direct calls into one layer each, made on the
// workload's own world after its timed rounds, so they never touch an
// end-to-end figure.
#pragma once

#include <functional>
#include <utility>
#include <vector>

#include "advert/registry.h"
#include "bench.h"
#include "cluster/hierarchy.h"
#include "engine/admission.h"
#include "net/routing.h"
#include "opt/optimizer.h"

namespace perfbench {

struct Layers {
  // net
  double routing_build_ms = 0.0;
  Samples routing_sync_ms;
  double cost_lookup_us = 0.0;
  double sparse_peak_mb = 0.0;
  // cluster
  double hierarchy_build_ms = 0.0;
  Samples refresh_ms;
  Samples remove_node_ms;
  // opt
  Samples optimize_ms;
  double plans_considered = 0.0;
  double reuse_hits = 0.0;  // admitted deployments binding a derived unit
  double admitted = 0.0;
  // advert
  Samples reusable_us;
  double entries = 0.0;
  // engine: admission and middleware
  Samples footprint_us;
  Samples price_us;
  double admit_degraded = 0.0;
  Samples settle_ms;
  double settle_replans = 0.0;
  double settle_moved = 0.0;
  double migrated = 0.0;
  double suspended = 0.0;
  double resumed = 0.0;
  // engine: simulation
  Samples sim_deploy_ms;
  double source_tuples = 0.0;
  double join_arrivals = 0.0;
  double sink_arrivals = 0.0;
  double transmissions = 0.0;
  double retransmits = 0.0;
  double acks = 0.0;
  double delivery_ratio = 0.0;
  double max_queue_depth = 0.0;
  // engine: checkpoint
  double ckpt_epochs = 0.0;
  double ckpt_snapshot_mb = 0.0;
  double ckpt_replayed = 0.0;
  double ckpt_retained_high_water = 0.0;

  /// Zeroes the counts a workload's timed rounds add to (plans considered,
  /// registrations and reuse, degraded admissions, settle and redeployment
  /// outcomes). Called at the start of each round, so the counts are those
  /// of one round, which every round of a seed repeats exactly, and do not
  /// grow with the number of rounds a run fits in.
  void begin_round();

  /// Appends every per-layer metric, in BENCHMARK.json order, to the report.
  void emit(Report& rep, bool quick) const;

  /// Tallies one admitted registration and whether it binds a derived unit.
  void count_registration(const opt::OptimizeResult& r);

  /// Tallies a batch of middleware redeployment outcomes.
  void count_outcomes(const std::vector<engine::Redeployment>& reds);

  /// Reads the simulation counters of a finished run; `expected` is the
  /// reference analytic result count for the run's emission span.
  void read_simulation(const engine::Simulation& sim,
                       const std::vector<query::QueryId>& queries,
                       double expected);
};

/// Network-state change replayed on copies of a world by the probes.
struct Fault {
  enum class Kind { kFailLink, kRestoreLink, kCrashNode, kRestoreNode };
  Kind kind = Kind::kFailLink;
  net::NodeId a = net::kInvalidNode;
  net::NodeId b = net::kInvalidNode;
};

void apply(net::Network& net, const Fault& f);

/// A seeded script of fail/restore pairs (links and stub nodes) on `net`.
std::vector<Fault> fault_script(const net::Network& net, std::uint64_t seed,
                                int pairs);

/// `count` distinct stub nodes drawn from `seed`.
std::vector<net::NodeId> stub_nodes(const net::Network& net,
                                    std::uint64_t seed, int count);

/// Samples each median of the sync, cluster and simulation-deploy probes
/// rests on: ten beyond the median.
inline constexpr std::size_t kSyncSamples = 20;
inline constexpr std::size_t kClusterSamples = 20;
inline constexpr std::size_t kSimDeploySamples = 20;

/// Seeded (source, destination) pairs for point cost() lookups.
std::vector<std::pair<net::NodeId, net::NodeId>> lookup_sample(
    const net::Network& net, std::uint64_t seed, int sources, int per_source);

/// net layer: table build, sync() after each scripted
/// fault on a copy, point cost() lookups, and the sparse tier's peak
/// footprint after the lookup sample (`sparse` = the workload's own sparse
/// tables when it has them, else a fresh sparse tier is built).
void probe_net(Layers& L, const net::Network& net,
               const net::RoutingOptions& ropts,
               const std::vector<Fault>& script,
               const std::vector<std::pair<net::NodeId, net::NodeId>>& lookups,
               const net::RoutingTables* sparse);

/// cluster layer: build, then on the last build
/// refresh() and remove_node() of the first kClusterSamples `candidates`
/// the hierarchy still holds.
void probe_cluster(Layers& L, const net::RoutingTables& rt,
                   const std::function<cluster::Hierarchy()>& build,
                   const std::vector<net::NodeId>& candidates);

/// opt layer: Top-Down optimisations of `queries` (cycled) against `env`,
/// each without its own advertisements, until `samples` wall times are
/// collected.
void probe_optimize(Layers& L, const opt::OptimizerEnv& env,
                    const std::vector<query::Query>& queries,
                    std::size_t samples);

/// advert layer: Registry::reusable of `queries` (cycled) on `registry`.
void probe_reusable(Layers& L, const advert::Registry& registry,
                    const std::vector<query::Query>& queries,
                    std::size_t samples);

/// engine admission: footprint() and AdmissionController::price of each
/// deployment against `ledger`.
void probe_admission(
    Layers& L,
    const std::vector<std::pair<const query::Query*, const query::Deployment*>>&
        deployments,
    const query::Catalog& catalog, const net::RoutingTables& rt,
    const net::Network& net, const engine::AdmissionController& controller,
    const engine::ResourceLedger& ledger, std::size_t samples);

/// engine simulation: wall time of `deploy`, a Simulation built and every
/// deployment instantiated in it, kSimDeploySamples times.
void probe_sim_deploy(Layers& L, const std::function<void()>& deploy);

/// An admission controller with kAmpleCapacity node budgets, so price()
/// does its full work and refuses nothing.
engine::AdmissionController ample_controller();

/// The probes of the dense-world workloads (churn, stream, recover): net
/// and cluster layers on the middleware's network, sync timed after each
/// fault of `script`, topped up with seeded fault pairs to kSyncSamples,
/// and hierarchy removals at its crashed nodes, then at seeded stub nodes;
/// with
/// `samples` > 0 also Top-Down, registry and admission probes over
/// `queries` and the active deployments.
void probe_dense_world(Layers& L, engine::Middleware& mw,
                       const std::vector<Fault>& script,
                       const std::vector<query::Query>& queries,
                       std::size_t samples, int max_cs, std::uint64_t seed);

}  // namespace perfbench
