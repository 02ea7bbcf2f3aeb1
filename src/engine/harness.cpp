#include "engine/harness.h"

#include <sstream>

#include "verify/validator.h"

namespace iflow::engine::harness {

Middleware deploy_world(net::Network& net, query::Catalog& catalog,
                        int max_cs, Algorithm algorithm, std::uint64_t seed,
                        double drift_threshold, int threads,
                        const std::vector<query::Query>& queries,
                        double* deploy_time_ms) {
  Middleware mw(net, catalog, max_cs, algorithm, seed, drift_threshold);
  mw.workspace().set_threads(threads);
  double total_ms = 0.0;
  for (const query::Query& q : queries) {
    total_ms += mw.deploy(q).deploy_time_ms;
  }
  if (deploy_time_ms != nullptr) *deploy_time_ms += total_ms;
  return mw;
}

void digest_tail(std::ostream& os, const Middleware& mw, double total_cost,
                 std::size_t violations) {
  os << " cost " << std::hexfloat << total_cost << std::defaultfloat
     << " active " << mw.active_queries() << " suspended "
     << mw.suspended_queries() << " viol " << violations << '\n';
}

std::size_t validate_actives(Middleware& mw,
                             const std::unordered_set<query::QueryId>& replanned,
                             std::string* first_detail) {
  opt::OptimizerEnv env = mw.planning_env();
  const std::vector<net::NodeId> excluded = mw.excluded_hosts();
  std::size_t violations = 0;
  for (const Middleware::ActiveView& v : mw.active_views()) {
    verify::ValidateOptions vopts;
    // No active deployment may keep an operator or derived unit on a
    // failed, crashed, load-shed or quarantined host (kExcludedHost).
    vopts.excluded_hosts = &excluded;
    if (replanned.count(v.query->id) > 0) {
      vopts.query = v.query;
      vopts.planned_cost = v.planned_cost;
    }
    const std::vector<verify::Violation> found =
        verify::validate(*v.deployment, env, vopts);
    if (!found.empty() && first_detail != nullptr && first_detail->empty()) {
      std::ostringstream os;
      os << "query " << v.query->id << ": " << verify::describe(found);
      *first_detail = os.str();
    }
    violations += found.size();
  }
  return violations;
}

std::unordered_set<query::QueryId> replanned_ids(
    const std::vector<Redeployment>& reds) {
  std::unordered_set<query::QueryId> out;
  for (const Redeployment& r : reds) {
    if (r.outcome == Outcome::kMigrated || r.outcome == Outcome::kResumed) {
      out.insert(r.query);
    }
  }
  return out;
}

std::vector<net::NodeId> relay_hosts(const Middleware& mw,
                                     const std::vector<query::Query>& queries) {
  const std::size_t n_nodes = mw.network().node_count();
  std::vector<char> endpoint(n_nodes, 0);
  for (const query::Query& q : queries) {
    endpoint[q.sink] = 1;
    for (const query::StreamId s : q.sources) {
      endpoint[mw.catalog().stream(s).source] = 1;
    }
  }
  std::vector<char> hosting(n_nodes, 0);
  for (const Middleware::ActiveView& v : mw.active_views()) {
    for (const query::DeployedOp& op : v.deployment->ops) {
      hosting[op.node] = 1;
    }
  }
  std::vector<net::NodeId> out;
  for (net::NodeId n = 0; n < n_nodes; ++n) {
    if (hosting[n] != 0 && endpoint[n] == 0) out.push_back(n);
  }
  IFLOW_CHECK_MSG(!out.empty(),
                  "harness needs an operator host that is not a query "
                  "endpoint (use a relay-shaped topology)");
  return out;
}

void restore_and_quiesce(
    Middleware& mw,
    const std::vector<std::pair<net::NodeId, net::NodeId>>& down_links,
    const std::vector<net::NodeId>& down_nodes,
    const std::function<void(const std::vector<Redeployment>&)>& after) {
  for (const auto& [a, b] : down_links) after(mw.restore_link(a, b));
  for (const net::NodeId n : down_nodes) after(mw.restore_node(n));
  for (int round = 0; round < 5; ++round) {
    const std::vector<Redeployment> r = mw.adapt();
    after(r);
    if (r.empty()) break;
  }
}

}  // namespace iflow::engine::harness
