// Independent reference checker. Nothing here calls the program's
// RoutingTables, RateModel, deployment_cost or validator: path costs come
// from this file's own Dijkstra over Network::links(), byte rates from the
// catalog's raw rates, selectivities and widths.
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "net/network.h"
#include "query/catalog.h"
#include "query/plan.h"
#include "query/query.h"

namespace perfbench::ref {

using namespace iflow;

/// A link carries traffic when it is administratively up and both of its
/// endpoints are alive.
bool link_usable(const net::Network& net, const net::Link& l);

/// Cost-metric shortest-path distances from `src` over usable links;
/// +inf for unreachable nodes, 0 at `src` itself.
std::vector<double> dijkstra(const net::Network& net, net::NodeId src);

/// Breadth-first liveness walk: true when b can be reached from a over
/// usable links (a == b counts).
bool reachable(const net::Network& net, net::NodeId a, net::NodeId b);

/// Memoised reference distances against one network state.
class PathCosts {
 public:
  explicit PathCosts(const net::Network& net) : net_(&net) {}
  double cost(net::NodeId a, net::NodeId b);

 private:
  const net::Network* net_;
  std::unordered_map<net::NodeId, std::vector<double>> rows_;
};

/// Analytic tuple rate of the join of the query-local sources in `mask`:
/// product of their catalog rates (times query filters) and of every
/// in-set pairwise selectivity.
double tuple_rate(const query::Catalog& c, const query::Query& q,
                  query::Mask mask);
/// Analytic bytes per second of that join (widths summed, no projection).
double bytes_rate(const query::Catalog& c, const query::Query& q,
                  query::Mask mask);

/// Σ over the deployment's data edges of analytic byte rate × reference
/// path cost, the root→sink edge included.
double reprice(const query::Deployment& d, const query::Query& q,
               const query::Catalog& c, PathCosts& paths);

/// Structural and liveness check of one deployment: it covers exactly the
/// query's sources and sink, no operator or derived unit sits on a dead or
/// excluded host, and every data edge is reachable. Returns "" when sound,
/// else the first problem found.
std::string check_deployment(const query::Deployment& d,
                             const query::Query& q, const query::Catalog& c,
                             const net::Network& net,
                             const std::vector<net::NodeId>& excluded);

/// Analytic result count of a join query over an emission span: the full
/// join's tuple rate times the span (2 × 0.5 s join windows make the
/// expected pair-match rate equal to the rate product).
double expected_results(const query::Catalog& c, const query::Query& q,
                        double span_s);

/// True when |a − b| <= rel × max(|a|, |b|).
bool close(double a, double b, double rel);

}  // namespace perfbench::ref
