#include "reference.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <functional>
#include <limits>
#include <queue>
#include <sstream>

namespace perfbench::ref {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Per-node list of (neighbor, link index), built from Network::links()
/// alone.
std::vector<std::vector<std::pair<net::NodeId, std::size_t>>> adjacency(
    const net::Network& net) {
  std::vector<std::vector<std::pair<net::NodeId, std::size_t>>> adj(
      net.node_count());
  const std::vector<net::Link>& links = net.links();
  for (std::size_t i = 0; i < links.size(); ++i) {
    if (!link_usable(net, links[i])) continue;
    adj[links[i].a].emplace_back(links[i].b, i);
    adj[links[i].b].emplace_back(links[i].a, i);
  }
  return adj;
}

}  // namespace

bool link_usable(const net::Network& net, const net::Link& l) {
  return l.up && net.node_alive(l.a) && net.node_alive(l.b);
}

std::vector<double> dijkstra(const net::Network& net, net::NodeId src) {
  const auto adj = adjacency(net);
  std::vector<double> dist(net.node_count(), kInf);
  using Item = std::pair<double, net::NodeId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
  dist[src] = 0.0;
  pq.emplace(0.0, src);
  while (!pq.empty()) {
    const auto [d, u] = pq.top();
    pq.pop();
    if (d > dist[u]) continue;
    for (const auto& [v, li] : adj[u]) {
      const double nd = d + net.links()[li].cost_per_byte;
      if (nd < dist[v]) {
        dist[v] = nd;
        pq.emplace(nd, v);
      }
    }
  }
  return dist;
}

bool reachable(const net::Network& net, net::NodeId a, net::NodeId b) {
  if (a == b) return true;
  if (!net.node_alive(a) || !net.node_alive(b)) return false;
  const auto adj = adjacency(net);
  std::vector<char> seen(net.node_count(), 0);
  std::deque<net::NodeId> frontier{a};
  seen[a] = 1;
  while (!frontier.empty()) {
    const net::NodeId u = frontier.front();
    frontier.pop_front();
    for (const auto& [v, li] : adj[u]) {
      (void)li;
      if (seen[v] != 0) continue;
      if (v == b) return true;
      seen[v] = 1;
      frontier.push_back(v);
    }
  }
  return false;
}

double PathCosts::cost(net::NodeId a, net::NodeId b) {
  if (a == b) return 0.0;
  auto it = rows_.find(a);
  if (it == rows_.end()) it = rows_.emplace(a, dijkstra(*net_, a)).first;
  return it->second[b];
}

double tuple_rate(const query::Catalog& c, const query::Query& q,
                  query::Mask mask) {
  double rate = 1.0;
  for (int i = 0; i < q.k(); ++i) {
    if ((mask >> i & 1) == 0) continue;
    const query::StreamId si = q.sources[static_cast<std::size_t>(i)];
    rate *= c.stream(si).tuple_rate * q.filter(i);
    for (int j = i + 1; j < q.k(); ++j) {
      if ((mask >> j & 1) == 0) continue;
      rate *= c.selectivity(si, q.sources[static_cast<std::size_t>(j)]);
    }
  }
  return rate;
}

double bytes_rate(const query::Catalog& c, const query::Query& q,
                  query::Mask mask) {
  double width = 0.0;
  for (int i = 0; i < q.k(); ++i) {
    if ((mask >> i & 1) != 0) {
      width += c.stream(q.sources[static_cast<std::size_t>(i)]).tuple_width;
    }
  }
  return tuple_rate(c, q, mask) * width;
}

double reprice(const query::Deployment& d, const query::Query& q,
               const query::Catalog& c, PathCosts& paths) {
  double total = 0.0;
  for (const query::DeployedOp& op : d.ops) {
    for (const int child : {op.left, op.right}) {
      total += bytes_rate(c, q, query::child_mask(d, child)) *
               paths.cost(query::child_location(d, child), op.node);
    }
  }
  const query::Mask root =
      d.ops.empty() ? d.units.front().mask : d.ops.back().mask;
  total += bytes_rate(c, q, root) * paths.cost(d.root_node(), d.sink);
  return total;
}

std::string check_deployment(const query::Deployment& d,
                             const query::Query& q, const query::Catalog& c,
                             const net::Network& net,
                             const std::vector<net::NodeId>& excluded) {
  std::ostringstream why;
  const auto bad_host = [&](net::NodeId n) {
    return n >= net.node_count() || !net.node_alive(n) ||
           std::find(excluded.begin(), excluded.end(), n) != excluded.end();
  };
  if (d.query != q.id) return "deployment carries another query id";
  if (d.sink != q.sink) return "deployment delivers to the wrong sink";
  if (d.units.empty()) return "deployment has no leaf units";
  const query::Mask full = (query::Mask{1} << q.k()) - 1;
  query::Mask covered = 0;
  for (const query::LeafUnit& u : d.units) {
    if (u.mask == 0 || (u.mask & covered) != 0 || (u.mask & ~full) != 0) {
      return "leaf units overlap or fall outside the query";
    }
    covered |= u.mask;
    if (u.derived) {
      if (bad_host(u.location)) {
        why << "derived unit on dead or excluded host " << u.location;
        return why.str();
      }
    } else {
      // A base unit is exactly one source at its catalog node.
      if ((u.mask & (u.mask - 1)) != 0) return "base unit covers >1 source";
      int i = 0;
      while ((u.mask >> i & 1) == 0) ++i;
      const net::NodeId src =
          c.stream(q.sources[static_cast<std::size_t>(i)]).source;
      if (u.location != src) return "base unit away from its source node";
    }
  }
  if (covered != full) return "leaf units do not cover every source";
  const query::Mask root =
      d.ops.empty() ? d.units.front().mask : d.ops.back().mask;
  if (root != full) return "root does not cover every source";
  for (std::size_t i = 0; i < d.ops.size(); ++i) {
    const query::DeployedOp& op = d.ops[i];
    if (bad_host(op.node)) {
      why << "operator on dead or excluded host " << op.node;
      return why.str();
    }
    for (const int child : {op.left, op.right}) {
      if (!query::child_is_unit(child) &&
          static_cast<std::size_t>(child) >= i) {
        return "operator consumes a later operator";
      }
      const net::NodeId from = query::child_location(d, child);
      if (!reachable(net, from, op.node)) {
        why << "data edge " << from << "->" << op.node << " unreachable";
        return why.str();
      }
    }
    if ((query::child_mask(d, op.left) | query::child_mask(d, op.right)) !=
        op.mask) {
      return "operator mask is not the union of its inputs";
    }
  }
  if (!reachable(net, d.root_node(), d.sink)) return "sink unreachable";
  return "";
}

double expected_results(const query::Catalog& c, const query::Query& q,
                        double span_s) {
  return tuple_rate(c, q, (query::Mask{1} << q.k()) - 1) * span_s;
}

bool close(double a, double b, double rel) {
  if (a == b) return true;
  if (!std::isfinite(a) || !std::isfinite(b)) return false;
  return std::fabs(a - b) <= rel * std::max(std::fabs(a), std::fabs(b));
}

}  // namespace perfbench::ref
