// Pieces the contract harnesses share (chaos.cpp: run_churn, run_scripted,
// run_registration_*, run_recovery; health.cpp: run_gray). Internal to
// src/engine. Deploying the actives into a Simulation is
// Middleware::deploy_actives.
#pragma once

#include <cstddef>
#include <functional>
#include <ostream>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "engine/middleware.h"

namespace iflow::engine::harness {

/// The middleware a contract run starts from: built over `net` and
/// `catalog` (both must outlive it), its planner pinned to `threads`
/// workers, and `queries` deployed in order. The summed modeled deploy time
/// is added to `*deploy_time_ms` when that is non-null.
Middleware deploy_world(net::Network& net, query::Catalog& catalog,
                        int max_cs, Algorithm algorithm, std::uint64_t seed,
                        double drift_threshold, int threads,
                        const std::vector<query::Query>& queries,
                        double* deploy_time_ms = nullptr);

/// Ends a contract transcript line with the state every harness digests:
/// " cost <hexfloat> active N suspended N viol V\n".
void digest_tail(std::ostream& os, const Middleware& mw, double total_cost,
                 std::size_t violations);

/// Validates every active deployment against the live planning environment
/// (health penalty and excluded hosts included). Freshly re-planned queries
/// (the ids in `replanned`) get the full semantic + cost pass; untouched
/// ones get the structural + placement pass only (their recorded unit rates
/// may legitimately predate a rate spike). The first violation found is
/// described into `*first_detail` when that is non-null and still empty.
std::size_t validate_actives(Middleware& mw,
                             const std::unordered_set<query::QueryId>& replanned,
                             std::string* first_detail);

/// Queries a fault/adapt cycle migrated or resumed onto a new plan.
std::unordered_set<query::QueryId> replanned_ids(
    const std::vector<Redeployment>& reds);

/// Operator-hosting nodes that are no query's source or sink, ascending.
/// Faulting one exercises the data plane without silencing an endpoint.
/// Throws when there is none (the world needs a relay-shaped topology).
std::vector<net::NodeId> relay_hosts(const Middleware& mw,
                                     const std::vector<query::Query>& queries);

/// Restores every down link pair, then every down node, then runs adapt()
/// until a round redeploys nothing (at most 5 rounds). `after` sees the
/// redeployments of every call, in order.
void restore_and_quiesce(
    Middleware& mw,
    const std::vector<std::pair<net::NodeId, net::NodeId>>& down_links,
    const std::vector<net::NodeId>& down_nodes,
    const std::function<void(const std::vector<Redeployment>&)>& after);

}  // namespace iflow::engine::harness
