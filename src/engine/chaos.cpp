#include "engine/chaos.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <unordered_set>

#include "engine/harness.h"

namespace iflow::engine {

namespace {

constexpr double kEps = 1e-9;

using LinkPair = std::pair<net::NodeId, net::NodeId>;

LinkPair link_pair(net::NodeId a, net::NodeId b) {
  return {std::min(a, b), std::max(a, b)};
}

/// Distinct endpoint pairs: Network::fail_link downs every parallel (a, b)
/// link at once, so injectors model link state per pair.
std::vector<LinkPair> distinct_link_pairs(const net::Network& net) {
  std::vector<LinkPair> out;
  std::unordered_set<std::uint64_t> seen;
  for (const net::Link& l : net.links()) {
    const LinkPair p = link_pair(l.a, l.b);
    if (seen.insert((static_cast<std::uint64_t>(p.first) << 32) | p.second)
            .second) {
      out.push_back(p);
    }
  }
  return out;
}

/// Script applicability: a fault or degradation must hit an element not
/// yet in `set`, a restore or clear one that is. A malformed script is a
/// harness bug, not a system-under-test failure.
template <typename T>
void track_add(std::vector<T>& set, const T& x, const char* what) {
  IFLOW_CHECK_MSG(std::find(set.begin(), set.end(), x) == set.end(), what);
  set.push_back(x);
}

template <typename T>
void track_remove(std::vector<T>& set, const T& x, const char* what) {
  const auto it = std::find(set.begin(), set.end(), x);
  IFLOW_CHECK_MSG(it != set.end(), what);
  set.erase(it);
}

}  // namespace

const char* to_string(ChaosEventKind k) {
  switch (k) {
    case ChaosEventKind::kCrashNode: return "crash-node";
    case ChaosEventKind::kFailNode: return "fail-node";
    case ChaosEventKind::kRestoreNode: return "restore-node";
    case ChaosEventKind::kFailLink: return "fail-link";
    case ChaosEventKind::kRestoreLink: return "restore-link";
    case ChaosEventKind::kRateSpike: return "rate-spike";
    case ChaosEventKind::kSetLinkLoss: return "set-link-loss";
    case ChaosEventKind::kSetLinkJitter: return "set-link-jitter";
    case ChaosEventKind::kQueuePressure: return "queue-pressure";
    case ChaosEventKind::kDegradeNode: return "degrade-node";
    case ChaosEventKind::kDegradeLink: return "degrade-link";
    case ChaosEventKind::kClearNode: return "clear-node";
    case ChaosEventKind::kClearLink: return "clear-link";
  }
  return "?";
}

FaultInjector::FaultInjector(const net::Network& net,
                             const query::Catalog& catalog,
                             const ChaosConfig& cfg, std::uint64_t seed)
    : cfg_(cfg),
      prng_(seed),
      node_count_(net.node_count()),
      link_pairs_(distinct_link_pairs(net)) {
  IFLOW_CHECK(node_count_ >= 2);
  for (query::StreamId s = 0;
       s < static_cast<query::StreamId>(catalog.stream_count()); ++s) {
    streams_.push_back(s);
    base_rates_.push_back(catalog.stream(s).tuple_rate);
  }
}

ChaosEvent FaultInjector::next() {
  ChaosEvent e;
  const bool anything_down = !down_nodes_.empty() || !down_links_.empty();

  if (!streams_.empty() && prng_.chance(cfg_.spike_probability)) {
    e.kind = ChaosEventKind::kRateSpike;
    const std::size_t i = prng_.index(streams_.size());
    e.stream = streams_[i];
    e.rate = base_rates_[i] * prng_.uniform(0.25, 4.0);
    return e;
  }

  // Delivery-layer events: none of these change what is down, so they sit
  // outside the budget/restore bookkeeping. Re-drawing loss or jitter on a
  // pair that already has some simply overwrites it.
  if (!link_pairs_.empty() && prng_.chance(cfg_.loss_probability)) {
    e.kind = ChaosEventKind::kSetLinkLoss;
    const auto& p = prng_.pick(link_pairs_);
    e.a = p.first;
    e.b = p.second;
    e.rate = prng_.uniform(0.0, cfg_.max_link_loss);
    return e;
  }
  if (!link_pairs_.empty() && prng_.chance(cfg_.jitter_probability)) {
    e.kind = ChaosEventKind::kSetLinkJitter;
    const auto& p = prng_.pick(link_pairs_);
    e.a = p.first;
    e.b = p.second;
    e.rate = prng_.uniform(0.0, cfg_.max_jitter_ms);
    return e;
  }
  if (prng_.chance(cfg_.queue_probability)) {
    e.kind = ChaosEventKind::kQueuePressure;
    // Per-tuple service time; the top of the range keeps operator
    // utilization under ~0.4 at the generator's spiked stream rates, so
    // backpressure queues stay shallow and event-time results unaffected.
    e.rate = prng_.uniform(0.0001, 0.0005);
    return e;
  }
  if (prng_.chance(cfg_.gray_probability)) {
    // Gray failures live outside the down-budget bookkeeping: a degraded
    // element stays administratively up. The injector still budgets how
    // many are sick at once and heals restore-biased, like real faults.
    const std::size_t degraded =
        degraded_nodes_.size() + degraded_links_.size();
    const bool budget =
        degraded < static_cast<std::size_t>(std::max(cfg_.max_degraded, 0));
    if (degraded > 0 && (!budget || prng_.chance(cfg_.restore_bias))) {
      const std::size_t pick = prng_.index(degraded);
      if (pick < degraded_nodes_.size()) {
        e.kind = ChaosEventKind::kClearNode;
        e.a = degraded_nodes_[pick];
        degraded_nodes_.erase(degraded_nodes_.begin() +
                              static_cast<std::ptrdiff_t>(pick));
      } else {
        const std::size_t li = pick - degraded_nodes_.size();
        e.kind = ChaosEventKind::kClearLink;
        e.a = degraded_links_[li].first;
        e.b = degraded_links_[li].second;
        degraded_links_.erase(degraded_links_.begin() +
                              static_cast<std::ptrdiff_t>(li));
      }
      return e;
    }
    if (budget) {
      // Three gray families: slow element, lossy element, flapper (slow
      // AND lossy, gated by an on/off wave).
      const std::size_t family = prng_.index(3);
      if (family == 0 || family == 2) {
        e.slowdown = prng_.uniform(1.5, std::max(1.5, cfg_.max_gray_slowdown));
      }
      if (family == 1 || family == 2) {
        e.rate = prng_.uniform(0.05, std::max(0.05, cfg_.max_gray_loss));
      }
      if (family == 2) {
        e.flap_hz = prng_.uniform(0.05, std::max(0.05, cfg_.max_gray_flap_hz));
      }
      std::vector<net::NodeId> well_nodes;
      for (net::NodeId n = 0; n < static_cast<net::NodeId>(node_count_);
           ++n) {
        if (std::find(degraded_nodes_.begin(), degraded_nodes_.end(), n) ==
            degraded_nodes_.end()) {
          well_nodes.push_back(n);
        }
      }
      std::vector<std::pair<net::NodeId, net::NodeId>> well_links;
      for (const auto& p : link_pairs_) {
        if (std::find(degraded_links_.begin(), degraded_links_.end(), p) ==
            degraded_links_.end()) {
          well_links.push_back(p);
        }
      }
      const bool pick_node =
          !well_nodes.empty() && (well_links.empty() || prng_.chance(0.5));
      if (pick_node) {
        e.kind = ChaosEventKind::kDegradeNode;
        e.a = prng_.pick(well_nodes);
        degraded_nodes_.push_back(e.a);
        return e;
      }
      if (!well_links.empty()) {
        const auto& p = prng_.pick(well_links);
        e.kind = ChaosEventKind::kDegradeLink;
        e.a = p.first;
        e.b = p.second;
        degraded_links_.push_back(p);
        return e;
      }
      e = ChaosEvent{};  // everything already degraded; fall through
    }
  }

  // Never take down more than half the nodes: the hierarchy keeps a
  // working quorum and planners always have somewhere to place operators.
  const bool node_budget =
      down_nodes_.size() <
          static_cast<std::size_t>(std::max(cfg_.max_down_nodes, 0)) &&
      (down_nodes_.size() + 1) * 2 <= node_count_;
  const bool link_budget =
      down_links_.size() <
          static_cast<std::size_t>(std::max(cfg_.max_down_links, 0)) &&
      down_links_.size() < link_pairs_.size();
  const bool can_fault = node_budget || link_budget;

  if (anything_down && (prng_.chance(cfg_.restore_bias) || !can_fault)) {
    const std::size_t pool = down_nodes_.size() + down_links_.size();
    const std::size_t pick = prng_.index(pool);
    if (pick < down_nodes_.size()) {
      e.kind = ChaosEventKind::kRestoreNode;
      e.a = down_nodes_[pick];
      down_nodes_.erase(down_nodes_.begin() +
                        static_cast<std::ptrdiff_t>(pick));
    } else {
      const std::size_t li = pick - down_nodes_.size();
      e.kind = ChaosEventKind::kRestoreLink;
      e.a = down_links_[li].first;
      e.b = down_links_[li].second;
      down_links_.erase(down_links_.begin() +
                        static_cast<std::ptrdiff_t>(li));
    }
    return e;
  }

  if (can_fault) {
    const bool pick_node =
        node_budget && (!link_budget || prng_.chance(0.5));
    if (pick_node) {
      std::vector<net::NodeId> up;
      for (net::NodeId n = 0; n < static_cast<net::NodeId>(node_count_);
           ++n) {
        if (std::find(down_nodes_.begin(), down_nodes_.end(), n) ==
            down_nodes_.end()) {
          up.push_back(n);
        }
      }
      e.kind = prng_.chance(0.5) ? ChaosEventKind::kCrashNode
                                 : ChaosEventKind::kFailNode;
      e.a = prng_.pick(up);
      down_nodes_.push_back(e.a);
      return e;
    }
    std::vector<std::pair<net::NodeId, net::NodeId>> up;
    for (const auto& p : link_pairs_) {
      if (std::find(down_links_.begin(), down_links_.end(), p) ==
          down_links_.end()) {
        up.push_back(p);
      }
    }
    const auto& p = prng_.pick(up);
    e.kind = ChaosEventKind::kFailLink;
    e.a = p.first;
    e.b = p.second;
    down_links_.push_back(p);
    return e;
  }

  // Caps reached with nothing down can only happen with zero budgets;
  // degrade to a spike (or a no-op restore-less spike with rate kept).
  IFLOW_CHECK_MSG(!streams_.empty(),
                  "chaos config leaves no applicable event");
  e.kind = ChaosEventKind::kRateSpike;
  const std::size_t i = prng_.index(streams_.size());
  e.stream = streams_[i];
  e.rate = base_rates_[i] * prng_.uniform(0.25, 4.0);
  return e;
}

namespace {

void digest_line(std::ostringstream& os, std::size_t step,
                 const ChaosEvent& e, const Middleware& mw,
                 double total_cost, std::size_t violations) {
  os << "step " << step << ' ' << to_string(e.kind) << ' ';
  if (e.kind == ChaosEventKind::kRateSpike) {
    os << 's' << e.stream << ' ' << std::hexfloat << e.rate
       << std::defaultfloat;
  } else if (e.kind == ChaosEventKind::kSetLinkLoss ||
             e.kind == ChaosEventKind::kSetLinkJitter) {
    os << e.a << '-' << e.b << ' ' << std::hexfloat << e.rate
       << std::defaultfloat;
  } else if (e.kind == ChaosEventKind::kQueuePressure) {
    os << std::hexfloat << e.rate << std::defaultfloat;
  } else if (e.kind == ChaosEventKind::kDegradeNode ||
             e.kind == ChaosEventKind::kDegradeLink) {
    os << e.a;
    if (e.b != net::kInvalidNode) os << '-' << e.b;
    os << ' ' << std::hexfloat << e.slowdown << ' ' << e.rate << ' '
       << e.flap_hz << std::defaultfloat;
  } else {
    os << e.a;
    if (e.b != net::kInvalidNode) os << '-' << e.b;
  }
  os << " cost " << std::hexfloat << total_cost << std::defaultfloat
     << " active " << mw.active_queries() << " suspended "
     << mw.suspended_queries() << " viol " << violations << '\n';
}

/// Replays a script verbatim, checking applicability as it goes and
/// tracking what is down or degraded so the restoration sweep knows what to
/// bring back. Scripts come from the scenario generator or are drawn from
/// the FaultInjector; both only fault up targets and restore down ones.
class ScriptSource {
 public:
  explicit ScriptSource(const std::vector<ChaosEvent>& script)
      : script_(script) {}
  const ChaosEvent& next() {
    IFLOW_CHECK(i_ < script_.size());
    const ChaosEvent& e = script_[i_++];
    switch (e.kind) {
      case ChaosEventKind::kCrashNode:
      case ChaosEventKind::kFailNode:
        track_add(down_nodes_, e.a, "script double-faults a node");
        break;
      case ChaosEventKind::kRestoreNode:
        track_remove(down_nodes_, e.a, "script restores an up node");
        break;
      case ChaosEventKind::kFailLink:
        track_add(down_links_, link_pair(e.a, e.b),
                  "script double-fails a link pair");
        break;
      case ChaosEventKind::kRestoreLink:
        track_remove(down_links_, link_pair(e.a, e.b),
                     "script restores an up link pair");
        break;
      case ChaosEventKind::kDegradeNode:
        track_add(degraded_nodes_, e.a, "script double-degrades a node");
        break;
      case ChaosEventKind::kClearNode:
        track_remove(degraded_nodes_, e.a, "script clears an undegraded node");
        break;
      case ChaosEventKind::kDegradeLink:
        track_add(degraded_links_, link_pair(e.a, e.b),
                  "script double-degrades a link pair");
        break;
      case ChaosEventKind::kClearLink:
        track_remove(degraded_links_, link_pair(e.a, e.b),
                     "script clears an undegraded link pair");
        break;
      default:
        break;  // rate/loss/jitter/queue events change nothing that is down
    }
    return e;
  }
  const std::vector<net::NodeId>& down_nodes() const { return down_nodes_; }
  const std::vector<LinkPair>& down_links() const { return down_links_; }
  const std::vector<net::NodeId>& degraded_nodes() const {
    return degraded_nodes_;
  }
  const std::vector<LinkPair>& degraded_links() const {
    return degraded_links_;
  }

 private:
  const std::vector<ChaosEvent>& script_;
  std::size_t i_ = 0;
  std::vector<net::NodeId> down_nodes_;
  std::vector<LinkPair> down_links_;
  std::vector<net::NodeId> degraded_nodes_;
  std::vector<LinkPair> degraded_links_;
};

ChaosReport run_impl(net::Network net, query::Catalog catalog,
                     const std::vector<query::Query>& queries, int max_cs,
                     Algorithm algorithm, std::uint64_t seed,
                     const ChaosConfig& cfg,
                     const std::vector<ChaosEvent>& script) {
  ChaosReport report;
  std::ostringstream digest;

  Middleware mw(net, catalog, max_cs, algorithm, seed, cfg.drift_threshold);
  mw.workspace().set_threads(cfg.threads);
  for (const query::Query& q : queries) {
    report.deploy_time_ms += mw.deploy(q).deploy_time_ms;
  }

  // Queue pressure applies to the post-churn delivery check; the last drawn
  // event wins.
  double queue_service_s = 0.0;

  ScriptSource src(script);
  for (std::size_t i = 0; i < script.size(); ++i) {
    ChaosStep step;
    step.event = src.next();
    const ChaosEvent& e = step.event;
    switch (e.kind) {
      case ChaosEventKind::kCrashNode:
        step.redeployments = mw.crash_node(e.a);
        break;
      case ChaosEventKind::kFailNode:
        step.redeployments = mw.fail_node(e.a);
        break;
      case ChaosEventKind::kRestoreNode:
        step.redeployments = mw.restore_node(e.a);
        break;
      case ChaosEventKind::kFailLink:
        step.redeployments = mw.fail_link(e.a, e.b);
        break;
      case ChaosEventKind::kRestoreLink:
        step.redeployments = mw.restore_link(e.a, e.b);
        break;
      case ChaosEventKind::kRateSpike:
        mw.set_stream_rate(e.stream, e.rate);
        step.redeployments = mw.adapt();
        break;
      case ChaosEventKind::kSetLinkLoss:
        mw.set_link_loss(e.a, e.b, e.rate);
        break;
      case ChaosEventKind::kSetLinkJitter:
        mw.set_link_jitter(e.a, e.b, e.rate);
        break;
      case ChaosEventKind::kQueuePressure:
        queue_service_s = e.rate;
        break;
      case ChaosEventKind::kDegradeNode:
        mw.degrade_node(e.a, net::Degradation{e.slowdown, e.rate, e.flap_hz});
        break;
      case ChaosEventKind::kDegradeLink:
        mw.degrade_link(e.a, e.b,
                        net::Degradation{e.slowdown, e.rate, e.flap_hz});
        break;
      case ChaosEventKind::kClearNode:
        mw.degrade_node(e.a, net::Degradation{});
        break;
      case ChaosEventKind::kClearLink:
        mw.degrade_link(e.a, e.b, net::Degradation{});
        break;
    }
    step.violations = harness::validate_actives(
        mw, harness::replanned_ids(step.redeployments),
        &step.violation_detail);
    if (!step.violation_detail.empty() && report.violation_detail.empty()) {
      report.violation_detail = step.violation_detail;
    }
    step.active = mw.active_queries();
    step.suspended = mw.suspended_queries();
    step.total_cost = mw.total_current_cost();
    report.violations += step.violations;
    digest_line(digest, i, e, mw, step.total_cost, step.violations);
    report.steps.push_back(std::move(step));
  }

  // Full restoration: heal every gray degradation, bring every link pair
  // and node back, then adapt until quiescent so the suspended queue drains
  // and drifted deployments settle. Degradations are quality-only, so
  // healing them replans nothing — but the delivery twins compare lossy vs
  // loss-free counts EXACTLY, and a still-degraded hop would push residual
  // loss past the retry budget. Validation runs after every call — a
  // planned cost is only checkable against the routing tables it was
  // computed under, and each restore rebuilds them.
  const auto validate_after = [&](const std::vector<Redeployment>& reds) {
    report.violations += harness::validate_actives(
        mw, harness::replanned_ids(reds), &report.violation_detail);
  };
  for (const net::NodeId n : src.degraded_nodes()) {
    mw.degrade_node(n, net::Degradation{});
  }
  for (const auto& [a, b] : src.degraded_links()) {
    mw.degrade_link(a, b, net::Degradation{});
  }
  harness::restore_and_quiesce(mw, src.down_links(), src.down_nodes(),
                               validate_after);
  // Staggered resumes leave reuse on the table (each query planned against
  // whatever advertisements existed at its resume); the convergence pass
  // recovers it.
  validate_after(mw.reoptimize());

  report.all_resumed = mw.suspended_queries() == 0 &&
                       mw.active_queries() == queries.size();
  report.final_cost = mw.total_current_cost();

  // Fresh baseline: a brand-new middleware over copies of the end state
  // (all nodes alive, all links up, spiked rates retained) optimizing the
  // same workload in the same order.
  net::Network fresh_net = mw.network();
  query::Catalog fresh_catalog = mw.catalog();
  Middleware fresh(fresh_net, fresh_catalog, max_cs, algorithm, seed,
                   cfg.drift_threshold);
  fresh.workspace().set_threads(cfg.threads);
  for (const query::Query& q : queries) fresh.deploy(q);
  report.fresh_cost = fresh.total_current_cost();

  // One-sided: the churned system must not end up much WORSE than a fresh
  // optimization of the same end state. It may well end up cheaper — the
  // repeated adapt() cycles amount to iterated re-optimization with reuse,
  // which a single greedy deploy pass does not get.
  const double f = cfg.convergence_factor;
  report.converged =
      report.all_resumed && std::isfinite(report.final_cost) &&
      std::isfinite(report.fresh_cost) &&
      report.final_cost <= f * report.fresh_cost + kEps;

  digest << "final cost " << std::hexfloat << report.final_cost
         << " fresh " << report.fresh_cost << std::defaultfloat
         << " resumed " << (report.all_resumed ? 1 : 0) << " viol "
         << report.violations << '\n';

  // Post-churn delivery contract: deploy the surviving actives into two
  // reliable-mode simulations — one over the churned network with its
  // accumulated loss/jitter, one over a loss-free copy — driven by the same
  // engine seed (sources draw only from the main engine Prng, so both runs
  // emit identical tuples). With per-link loss under the retry budget's
  // tolerance, ack-based retransmission plus receiver dedup must make the
  // lossy run deliver exactly the loss-free counts, with zero tuples lost
  // after retries.
  if (cfg.delivery_check) {
    EngineConfig ec;
    // delivery_duration_s is the emission window; the extra 30 s is a
    // settle window during which sources are quiet but the full retry
    // chain (~23 s at 12 retries capped at 2 s) completes.
    ec.duration_s = cfg.delivery_duration_s + 30.0;
    ec.reliability.enabled = true;
    // The count-equality contract needs parameters sized to the topology,
    // not to wall-clock goodput. GT-ITM paths run to ~1 s round trip, so
    // the backoff cap must exceed the worst RTT or every in-flight ack
    // loses the race and the channel retransmits forever; the window must
    // exceed the bandwidth-delay product of a spiked stream (4 × 100 t/s
    // × 1 s RTT) or backpressure stalls delay tuples without bound; and
    // join partners are retained for the whole run so a retransmit-delayed
    // tuple still meets everything it would have met loss-free.
    ec.reliability.max_backoff_s = 2.0;
    ec.reliability.window = 1024;
    ec.reliability.lateness_s = ec.duration_s;
    ec.reliability.drain_s = 30.0;
    // Scenario rate curves shape emission in BOTH twins identically, so the
    // count-equality contract is unaffected.
    ec.rate_factor = cfg.rate_modulation;
    if (queue_service_s > 0.0) {
      ec.reliability.service_s = queue_service_s;
      ec.reliability.queue_capacity = 96;
      ec.reliability.overflow = OverflowPolicy::kBackpressure;
    }
    const std::uint64_t sim_seed = seed ^ 0x0DE11FE12ULL;
    const std::vector<Middleware::ActiveView> views = mw.active_views();

    const net::Network& lossy_net = mw.network();
    net::Network clean_net = lossy_net;
    for (const net::Link& l : lossy_net.links()) {
      clean_net.set_link_loss(l.a, l.b, 0.0);
      clean_net.set_link_jitter(l.a, l.b, 0.0);
    }
    const net::RoutingTables lossy_rt = net::RoutingTables::build(lossy_net);
    const net::RoutingTables clean_rt = net::RoutingTables::build(clean_net);

    Simulation lossy(lossy_net, lossy_rt, mw.catalog(), ec, sim_seed);
    Simulation clean(clean_net, clean_rt, mw.catalog(), ec, sim_seed);
    // A missing provider (the middleware's stranded-reuse repair should
    // prevent one) leaves the check not runnable.
    if (mw.deploy_actives(lossy) && mw.deploy_actives(clean)) {
      lossy.run();
      clean.run();
      report.delivery_checked = true;
      bool ok = true;
      for (const Middleware::ActiveView& v : views) {
        const query::QueryId q = v.query->id;
        if (lossy.tuples_delivered(q) != clean.tuples_delivered(q)) {
          ok = false;
        }
        const DeliveryStats ds = lossy.delivery_stats(q);
        if (ds.lost != 0) ok = false;
        report.delivered_total += ds.delivered;
        report.retransmits_total += ds.retransmits;
        report.duplicates_total += ds.duplicates;
        report.mean_availability += lossy.availability(q);
      }
      if (!views.empty()) {
        report.mean_availability /= static_cast<double>(views.size());
      }
      report.goodput_tps = static_cast<double>(report.delivered_total) /
                           cfg.delivery_duration_s;
      report.delivery_ok = ok;
    }
    digest << "delivery checked " << (report.delivery_checked ? 1 : 0)
           << " ok " << (report.delivery_ok ? 1 : 0) << " delivered "
           << report.delivered_total << " retrans "
           << report.retransmits_total << " dup " << report.duplicates_total
           << " avail " << std::hexfloat << report.mean_availability
           << " goodput " << report.goodput_tps << std::defaultfloat << '\n';
  }

  report.digest = digest.str();
  return report;
}

}  // namespace

ChaosReport run_churn(net::Network net, query::Catalog catalog,
                      const std::vector<query::Query>& queries, int max_cs,
                      Algorithm algorithm, std::uint64_t seed,
                      const ChaosConfig& cfg) {
  FaultInjector injector(net, catalog, cfg, seed ^ 0xC4A05E7A11DEADULL);
  std::vector<ChaosEvent> script;
  for (int i = 0; i < cfg.events; ++i) script.push_back(injector.next());
  return run_impl(std::move(net), std::move(catalog), queries, max_cs,
                  algorithm, seed, cfg, script);
}

ChaosReport run_scripted(net::Network net, query::Catalog catalog,
                         const std::vector<query::Query>& queries, int max_cs,
                         Algorithm algorithm, std::uint64_t seed,
                         const std::vector<ChaosEvent>& script,
                         const ChaosConfig& cfg) {
  return run_impl(std::move(net), std::move(catalog), queries, max_cs,
                  algorithm, seed, cfg, script);
}

// ---------------------------------------------------------------------------
// Registration churn (multi-tenant churn plane).
// ---------------------------------------------------------------------------

const char* to_string(RegistrationEventKind k) {
  switch (k) {
    case RegistrationEventKind::kRegister: return "register";
    case RegistrationEventKind::kUnregister: return "unregister";
    case RegistrationEventKind::kSetQuota: return "set-quota";
    case RegistrationEventKind::kFailNode: return "fail-node";
    case RegistrationEventKind::kRestoreNode: return "restore-node";
    case RegistrationEventKind::kFailLink: return "fail-link";
    case RegistrationEventKind::kRestoreLink: return "restore-link";
    case RegistrationEventKind::kRateSpike: return "rate-spike";
  }
  return "?";
}

namespace {

/// Event supply for the registration runner: the seeded injector or a fixed
/// script. next() sees the runner's in-system view because register /
/// unregister eligibility depends on admission outcomes the injector cannot
/// predict.
class RegistrationSource {
 public:
  virtual ~RegistrationSource() = default;
  virtual int count() const = 0;
  virtual RegistrationEvent next(const std::vector<char>& in_system) = 0;
  virtual const std::vector<net::NodeId>& down_nodes() const = 0;
  virtual const std::vector<std::pair<net::NodeId, net::NodeId>>& down_links()
      const = 0;
};

class RegistrationInjector final : public RegistrationSource {
 public:
  RegistrationInjector(const net::Network& net, const query::Catalog& catalog,
                       const std::vector<query::Query>& pool,
                       const RegistrationChurnConfig& cfg, std::uint64_t seed)
      : cfg_(cfg),
        prng_(seed),
        node_count_(net.node_count()),
        pool_size_(pool.size()),
        link_pairs_(distinct_link_pairs(net)) {
    for (query::StreamId s = 0;
         s < static_cast<query::StreamId>(catalog.stream_count()); ++s) {
      streams_.push_back(s);
      base_rates_.push_back(catalog.stream(s).tuple_rate);
    }
    for (const query::Query& q : pool) tenants_.push_back(q.tenant);
    std::sort(tenants_.begin(), tenants_.end());
    tenants_.erase(std::unique(tenants_.begin(), tenants_.end()),
                   tenants_.end());
  }

  int count() const override { return cfg_.events; }

  RegistrationEvent next(const std::vector<char>& in_system) override {
    RegistrationEvent e;
    if (prng_.chance(cfg_.fault_probability)) {
      const bool anything_down = !down_nodes_.empty() || !down_links_.empty();
      const bool node_budget =
          down_nodes_.size() <
              static_cast<std::size_t>(std::max(cfg_.max_down_nodes, 0)) &&
          (down_nodes_.size() + 1) * 2 <= node_count_;
      const bool link_budget =
          down_links_.size() <
              static_cast<std::size_t>(std::max(cfg_.max_down_links, 0)) &&
          down_links_.size() < link_pairs_.size();
      if (anything_down &&
          (prng_.chance(cfg_.restore_bias) || (!node_budget && !link_budget))) {
        const std::size_t pool = down_nodes_.size() + down_links_.size();
        const std::size_t pick = prng_.index(pool);
        if (pick < down_nodes_.size()) {
          e.kind = RegistrationEventKind::kRestoreNode;
          e.a = down_nodes_[pick];
          down_nodes_.erase(down_nodes_.begin() +
                            static_cast<std::ptrdiff_t>(pick));
        } else {
          const std::size_t li = pick - down_nodes_.size();
          e.kind = RegistrationEventKind::kRestoreLink;
          e.a = down_links_[li].first;
          e.b = down_links_[li].second;
          down_links_.erase(down_links_.begin() +
                            static_cast<std::ptrdiff_t>(li));
        }
        return e;
      }
      if (node_budget || link_budget) {
        const bool pick_node =
            node_budget && (!link_budget || prng_.chance(0.5));
        if (pick_node) {
          std::vector<net::NodeId> up;
          for (net::NodeId n = 0; n < static_cast<net::NodeId>(node_count_);
               ++n) {
            if (std::find(down_nodes_.begin(), down_nodes_.end(), n) ==
                down_nodes_.end()) {
              up.push_back(n);
            }
          }
          e.kind = RegistrationEventKind::kFailNode;
          e.a = prng_.pick(up);
          down_nodes_.push_back(e.a);
          return e;
        }
        std::vector<std::pair<net::NodeId, net::NodeId>> up;
        for (const auto& p : link_pairs_) {
          if (std::find(down_links_.begin(), down_links_.end(), p) ==
              down_links_.end()) {
            up.push_back(p);
          }
        }
        const auto& p = prng_.pick(up);
        e.kind = RegistrationEventKind::kFailLink;
        e.a = p.first;
        e.b = p.second;
        down_links_.push_back(p);
        return e;
      }
      // No fault budget and nothing to restore: fall through to churn.
    }
    if (!streams_.empty() && prng_.chance(cfg_.spike_probability)) {
      e.kind = RegistrationEventKind::kRateSpike;
      const std::size_t i = prng_.index(streams_.size());
      e.stream = streams_[i];
      e.rate = base_rates_[i] * prng_.uniform(0.25, 4.0);
      return e;
    }
    if (!tenants_.empty() && prng_.chance(cfg_.quota_probability)) {
      e.kind = RegistrationEventKind::kSetQuota;
      e.tenant = prng_.pick(tenants_);
      e.quota.weight = prng_.uniform(0.5, 2.0);
      e.quota.max_queries = 1 + prng_.index(pool_size_);
      return e;
    }
    std::vector<std::size_t> in, out;
    for (std::size_t i = 0; i < in_system.size(); ++i) {
      (in_system[i] != 0 ? in : out).push_back(i);
    }
    const bool unregister =
        !in.empty() && (out.empty() || prng_.chance(cfg_.unregister_bias));
    if (unregister) {
      e.kind = RegistrationEventKind::kUnregister;
      e.query = in[prng_.index(in.size())];
    } else {
      IFLOW_CHECK_MSG(!out.empty(),
                      "registration churn over an empty query pool");
      e.kind = RegistrationEventKind::kRegister;
      e.query = out[prng_.index(out.size())];
    }
    return e;
  }

  const std::vector<net::NodeId>& down_nodes() const override {
    return down_nodes_;
  }
  const std::vector<std::pair<net::NodeId, net::NodeId>>& down_links()
      const override {
    return down_links_;
  }

 private:
  RegistrationChurnConfig cfg_;
  Prng prng_;
  std::size_t node_count_;
  std::size_t pool_size_;
  std::vector<std::pair<net::NodeId, net::NodeId>> link_pairs_;
  std::vector<query::StreamId> streams_;
  std::vector<double> base_rates_;
  std::vector<std::uint32_t> tenants_;
  std::vector<net::NodeId> down_nodes_;
  std::vector<std::pair<net::NodeId, net::NodeId>> down_links_;
};

/// Replays a fixed registration script. Fault events must be applicable in
/// order (same contract as ScriptSource); register/unregister events pass
/// through — the runner skips the ones an admission rejection made moot.
class RegistrationScriptSource final : public RegistrationSource {
 public:
  explicit RegistrationScriptSource(
      const std::vector<RegistrationEvent>& script)
      : script_(script) {}

  int count() const override { return static_cast<int>(script_.size()); }

  RegistrationEvent next(const std::vector<char>&) override {
    IFLOW_CHECK(i_ < script_.size());
    const RegistrationEvent e = script_[i_++];
    switch (e.kind) {
      case RegistrationEventKind::kFailNode:
        track_add(down_nodes_, e.a, "registration script double-faults a node");
        break;
      case RegistrationEventKind::kRestoreNode:
        track_remove(down_nodes_, e.a,
                     "registration script restores an up node");
        break;
      case RegistrationEventKind::kFailLink:
        track_add(down_links_, link_pair(e.a, e.b),
                  "registration script double-fails a link pair");
        break;
      case RegistrationEventKind::kRestoreLink:
        track_remove(down_links_, link_pair(e.a, e.b),
                     "registration script restores an up link pair");
        break;
      default:
        break;
    }
    return e;
  }

  const std::vector<net::NodeId>& down_nodes() const override {
    return down_nodes_;
  }
  const std::vector<std::pair<net::NodeId, net::NodeId>>& down_links()
      const override {
    return down_links_;
  }

 private:
  std::vector<RegistrationEvent> script_;
  std::size_t i_ = 0;
  std::vector<net::NodeId> down_nodes_;
  std::vector<std::pair<net::NodeId, net::NodeId>> down_links_;
};

/// Nodes over node_capacity plus links over their bandwidth headroom, per
/// the incremental ledger. Rate spikes may legitimately push EXISTING
/// actives over budget (admission gates arrivals; drift is rebalance
/// territory) — the harness invariant is that an admitted registration
/// never raises this count.
std::size_t capacity_breaches(const Middleware& mw,
                              const RegistrationChurnConfig& cfg) {
  std::size_t n = 0;
  if (cfg.node_capacity > 0.0) {
    for (const double load : mw.ledger().node_load()) {
      if (load > cfg.node_capacity + 1e-6) ++n;
    }
  }
  if (cfg.link_utilization_cap > 0.0) {
    const auto& links = mw.network().links();
    const std::vector<double>& loads = mw.ledger().link_load();
    for (std::size_t i = 0; i < loads.size() && i < links.size(); ++i) {
      const double bw = links[i].bandwidth_bps;
      if (bw <= 0.0) continue;
      if (loads[i] > bw / 8.0 * cfg.link_utilization_cap + 1e-6) ++n;
    }
  }
  return n;
}

void reg_digest_line(std::ostringstream& os, std::size_t step,
                     const RegistrationEvent& e, const char* note,
                     const Middleware& mw, double total_cost,
                     std::size_t violations) {
  os << "step " << step << ' ' << to_string(e.kind) << ' ';
  switch (e.kind) {
    case RegistrationEventKind::kRegister:
    case RegistrationEventKind::kUnregister:
      os << 'q' << e.query << ' ' << note;
      break;
    case RegistrationEventKind::kSetQuota:
      os << 't' << e.tenant << " w " << std::hexfloat << e.quota.weight
         << std::defaultfloat << " maxq " << e.quota.max_queries;
      break;
    case RegistrationEventKind::kRateSpike:
      os << 's' << e.stream << ' ' << std::hexfloat << e.rate
         << std::defaultfloat;
      break;
    default:
      os << e.a;
      if (e.b != net::kInvalidNode) os << '-' << e.b;
      break;
  }
  os << " cost " << std::hexfloat << total_cost << std::defaultfloat
     << " active " << mw.active_queries() << " suspended "
     << mw.suspended_queries() << " viol " << violations << '\n';
}

RegistrationChurnReport run_registration_impl(
    net::Network net, query::Catalog catalog,
    const std::vector<query::Query>& pool, int max_cs, Algorithm algorithm,
    std::uint64_t seed, const RegistrationChurnConfig& cfg,
    RegistrationSource& src) {
  RegistrationChurnReport report;
  std::ostringstream digest;

  Middleware mw(net, catalog, max_cs, algorithm, seed, cfg.drift_threshold);
  mw.workspace().set_threads(cfg.threads);
  AdmissionConfig ac;
  ac.node_capacity = cfg.node_capacity;
  ac.link_utilization_cap = cfg.link_utilization_cap;
  mw.set_admission_config(ac);
  for (const auto& [tenant, quota] : cfg.quotas) {
    mw.set_tenant_quota(tenant, quota);
  }

  std::vector<char> in_system(pool.size(), 0);
  std::size_t restores = 0;  // attempt-budget resets, for the backoff bound

  const auto validate_after =
      [&](const std::unordered_set<query::QueryId>& fresh) -> std::size_t {
    std::string detail;
    const std::size_t v = harness::validate_actives(mw, fresh, &detail);
    if (!detail.empty() && report.violation_detail.empty()) {
      report.violation_detail = detail;
    }
    report.violations += v;
    return v;
  };

  const auto settle_pass = [&](std::size_t step_no) {
    const std::vector<Redeployment> reds = mw.settle();
    ++report.settles;
    const Middleware::SettleStats& st = mw.last_settle_stats();
    report.settle_replans += st.replanned;
    report.settle_moves += st.moved;
    report.settle_actives += mw.active_queries();
    const std::size_t v = validate_after(harness::replanned_ids(reds));
    digest << "settle " << step_no << " replanned " << st.replanned
           << " moved " << st.moved << " cost " << std::hexfloat
           << mw.total_current_cost() << std::defaultfloat << " viol " << v
           << '\n';
  };

  for (int i = 0; i < src.count(); ++i) {
    const RegistrationEvent e = src.next(in_system);
    std::vector<Redeployment> reds;
    std::unordered_set<query::QueryId> fresh;
    const char* note = "";
    switch (e.kind) {
      case RegistrationEventKind::kRegister: {
        IFLOW_CHECK(e.query < pool.size());
        if (in_system[e.query] != 0) {
          note = "noop";  // scripted replay of a register already in effect
          break;
        }
        const query::Query& q = pool[e.query];
        const std::size_t breaches_before = capacity_breaches(mw, cfg);
        const opt::OptimizeResult res = mw.deploy(q);
        if (res.feasible) {
          in_system[e.query] = 1;
          ++report.registrations;
          report.deploy_time_ms += res.deploy_time_ms;
          if (mw.last_admission().decision ==
              AdmissionDecision::kAdmitDegraded) {
            ++report.degraded;
            note = "degraded";
          } else {
            ++report.admitted;
            note = "admit";
          }
          for (const query::LeafUnit& u : res.deployment.units) {
            if (u.derived) {
              ++report.reuse_deployments;
              break;
            }
          }
          fresh.insert(q.id);
          const std::size_t breaches_after = capacity_breaches(mw, cfg);
          if (breaches_after > breaches_before) {
            report.capacity_violations += breaches_after - breaches_before;
          }
        } else if (mw.last_admission().decision == AdmissionDecision::kReject) {
          ++report.rejections;
          note = "rejected";
          if (report.first_rejection.empty()) {
            report.first_rejection = mw.last_admission().reason;
          }
        } else {
          // Endpoints down or momentarily unplannable: parked suspended,
          // holding its tenant slot; the resume passes retry it.
          in_system[e.query] = 1;
          ++report.registrations;
          ++report.parked;
          note = "parked";
        }
        break;
      }
      case RegistrationEventKind::kUnregister: {
        IFLOW_CHECK(e.query < pool.size());
        if (mw.undeploy(pool[e.query].id, &reds)) {
          in_system[e.query] = 0;
          ++report.unregistrations;
          note = "ok";
        } else {
          note = "noop";  // scripted unregister of a rejected registration
        }
        break;
      }
      case RegistrationEventKind::kSetQuota:
        mw.set_tenant_quota(e.tenant, e.quota);
        break;
      case RegistrationEventKind::kFailNode:
        reds = mw.fail_node(e.a);
        break;
      case RegistrationEventKind::kRestoreNode:
        reds = mw.restore_node(e.a);
        ++restores;
        break;
      case RegistrationEventKind::kFailLink:
        reds = mw.fail_link(e.a, e.b);
        break;
      case RegistrationEventKind::kRestoreLink:
        reds = mw.restore_link(e.a, e.b);
        ++restores;
        break;
      case RegistrationEventKind::kRateSpike:
        mw.set_stream_rate(e.stream, e.rate);
        reds = mw.adapt();
        break;
    }
    std::unordered_set<query::QueryId> ids = harness::replanned_ids(reds);
    ids.insert(fresh.begin(), fresh.end());
    const std::size_t v = validate_after(ids);
    reg_digest_line(digest, static_cast<std::size_t>(i), e, note, mw,
                    mw.total_current_cost(), v);
    if (cfg.settle_every > 0 && (i + 1) % cfg.settle_every == 0) {
      settle_pass(static_cast<std::size_t>(i));
    }
  }

  // Restore whatever the schedule left down, drain the suspended queue,
  // then settle the remaining dirty region. Each restore resets the resume
  // attempt budgets (and with them the exponential backoff skips).
  restores += src.down_links().size() + src.down_nodes().size();
  harness::restore_and_quiesce(
      mw, src.down_links(), src.down_nodes(),
      [&](const std::vector<Redeployment>& reds) {
        validate_after(harness::replanned_ids(reds));
      });
  settle_pass(static_cast<std::size_t>(src.count()));
  report.final_cost = mw.total_current_cost();

  // Settle parity: the incremental dirty-region path must leave at most
  // parity_slack of the total cost on the table versus a full re-cluster.
  validate_after(harness::replanned_ids(mw.reoptimize()));
  report.reopt_cost = mw.total_current_cost();
  report.parity_ok = std::isfinite(report.final_cost) &&
                     std::isfinite(report.reopt_cost) &&
                     report.reopt_cost >=
                         report.final_cost * (1.0 - cfg.parity_slack) - kEps;

  // Bounded retries: each suspended query fails at most max_resume_attempts
  // times between attempt-budget resets, and only restores reset budgets.
  report.resume_failures = mw.resume_failures_total();
  const std::uint64_t bound =
      (static_cast<std::uint64_t>(restores) + 1) *
      static_cast<std::uint64_t>(mw.max_resume_attempts()) * pool.size();
  report.backoff_bounded = report.resume_failures <= bound;

  report.ok = report.violations == 0 && report.capacity_violations == 0 &&
              report.parity_ok && report.backoff_bounded;

  digest << "final cost " << std::hexfloat << report.final_cost << " reopt "
         << report.reopt_cost << std::defaultfloat << " reg "
         << report.registrations << " rej " << report.rejections << " viol "
         << report.violations << '\n';
  report.digest = digest.str();
  return report;
}

}  // namespace

RegistrationChurnReport run_registration_churn(
    net::Network net, query::Catalog catalog,
    const std::vector<query::Query>& pool, int max_cs, Algorithm algorithm,
    std::uint64_t seed, const RegistrationChurnConfig& cfg) {
  RegistrationInjector src(net, catalog, pool, cfg,
                           seed ^ 0x9E61577E4A71ULL);
  return run_registration_impl(std::move(net), std::move(catalog), pool,
                               max_cs, algorithm, seed, cfg, src);
}

RegistrationChurnReport run_registration_script(
    net::Network net, query::Catalog catalog,
    const std::vector<query::Query>& pool, int max_cs, Algorithm algorithm,
    std::uint64_t seed, const std::vector<RegistrationEvent>& script,
    const RegistrationChurnConfig& cfg) {
  RegistrationScriptSource src(script);
  return run_registration_impl(std::move(net), std::move(catalog), pool,
                               max_cs, algorithm, seed, cfg, src);
}

// ---------------------------------------------------------------------------
// Checkpoint/recovery contract.
// ---------------------------------------------------------------------------

RecoveryReport run_recovery(net::Network net, query::Catalog catalog,
                            const std::vector<query::Query>& queries,
                            int max_cs, Algorithm algorithm,
                            std::uint64_t seed, const RecoveryConfig& cfg) {
  RecoveryReport report;
  std::ostringstream digest;

  Middleware mw(net, catalog, max_cs, algorithm, seed);
  mw.workspace().set_threads(cfg.threads);
  for (const query::Query& q : queries) mw.deploy(q);

  const auto validate_after = [&](const std::vector<Redeployment>& reds) {
    report.violations += harness::validate_actives(
        mw, harness::replanned_ids(reds), &report.violation_detail);
  };

  // Control-plane churn: alternate fault (crash or quarantine of a
  // deterministically drawn operator host) and heal, so every event either
  // migrates operators off a node or settles them back — each adoption is
  // recorded as a state migration the data-plane phase replays as a warm
  // kMigrateOps handoff. Targets are relay hosts: a dead source node skips
  // emissions drawn from the main engine Prng, so its faulted run and the
  // fault-free twin would diverge in what was EMITTED, not in what was
  // preserved — exactly the confusion the contract must exclude.
  const std::vector<net::NodeId> targets = harness::relay_hosts(mw, queries);
  Prng ev_prng(seed ^ 0x2ECC0DE5EEDULL);
  net::NodeId down = net::kInvalidNode;
  net::NodeId held = net::kInvalidNode;  // quarantined
  for (int i = 0; i < cfg.events; ++i) {
    const char* what = nullptr;
    net::NodeId n = net::kInvalidNode;
    if (down != net::kInvalidNode) {
      n = down;
      what = "restore-node";
      validate_after(mw.restore_node(n));
      down = net::kInvalidNode;
    } else if (held != net::kInvalidNode) {
      n = held;
      what = "release-quarantine";
      validate_after(mw.release_quarantine(n));
      held = net::kInvalidNode;
    } else if (ev_prng.chance(0.5)) {
      n = targets[ev_prng.index(targets.size())];
      what = "crash-node";
      validate_after(mw.crash_node(n));
      down = n;
    } else {
      n = targets[ev_prng.index(targets.size())];
      what = "quarantine-node";
      validate_after(mw.quarantine_node(n));
      held = n;
    }
    ++report.events;
    digest << "recovery step " << i << ' ' << what << ' ' << n << " cost "
           << std::hexfloat << mw.total_current_cost() << std::defaultfloat
           << " active " << mw.active_queries() << " suspended "
           << mw.suspended_queries() << " viol " << report.violations << '\n';
  }
  if (down != net::kInvalidNode) validate_after(mw.restore_node(down));
  if (held != net::kInvalidNode) validate_after(mw.release_quarantine(held));
  validate_after(mw.reoptimize());

  // Warm handoffs the planner performed; deduped (from, to) pairs become
  // forced kMigrateOps faults in the data-plane phase. Cold resumes (empty
  // before-deployment) record no moves and inject nothing.
  std::vector<std::pair<net::NodeId, net::NodeId>> moves;
  for (const StateMigration& m : mw.state_migrations()) {
    if (!m.warm || m.moves.empty()) continue;
    ++report.migrations;
    for (const StateMigration::OpMove& mv : m.moves) {
      const auto p = std::make_pair(mv.from, mv.to);
      if (std::find(moves.begin(), moves.end(), p) == moves.end()) {
        moves.push_back(p);
      }
    }
  }
  // The crash target must come from the *settled* placement: churn plus the
  // final replan may have moved every operator off the pre-churn hosts, and
  // crashing a now-stateless node would exercise nothing (the volatile arm
  // would lose no results and the contract's teeth check would be vacuous).
  const std::vector<net::NodeId> after = harness::relay_hosts(mw, queries);
  const net::NodeId crash_target = after[ev_prng.index(after.size())];
  // The data-plane phase needs at least one forced migration even when the
  // churn phase happened to replan without moving anything: hand the crash
  // target's ops to another live host mid-window.
  if (moves.empty()) {
    for (const net::NodeId n : after) {
      if (n != crash_target) {
        moves.emplace_back(n, crash_target);
        break;
      }
    }
    if (moves.empty()) moves.emplace_back(crash_target, targets.front());
  }
  if (moves.size() > 4) moves.resize(4);

  // Data-plane phase: three reliable-mode simulations of the settled
  // deployment under one engine seed. Sources draw only from the main
  // engine Prng, so all three emit identical tuples; the checkpoint plane
  // must make the faulted run indistinguishable from the twin at the sinks.
  EngineConfig ec;
  ec.duration_s = cfg.duration_s + cfg.drain_s;
  ec.reliability.enabled = true;
  ec.reliability.ack_timeout_s = cfg.ack_timeout_s;
  ec.reliability.max_backoff_s = cfg.max_backoff_s;
  ec.reliability.window = 1024;
  ec.reliability.lateness_s = ec.duration_s;
  ec.reliability.drain_s = cfg.drain_s;

  EngineConfig ec_ckpt = ec;
  ec_ckpt.checkpoint.enabled = true;
  ec_ckpt.checkpoint.volatile_state = true;
  ec_ckpt.checkpoint.interval_s = cfg.checkpoint_interval_s;
  ec_ckpt.checkpoint.replicas = cfg.replicas;

  EngineConfig ec_vol = ec;
  ec_vol.checkpoint.enabled = false;
  ec_vol.checkpoint.volatile_state = true;

  const std::uint64_t sim_seed = seed ^ 0x2ECC0DE5ULL;
  const net::Network& final_net = mw.network();
  const net::RoutingTables final_rt = net::RoutingTables::build(final_net);
  const std::vector<Middleware::ActiveView> views = mw.active_views();
  const auto schedule_faults = [&](Simulation& sim) {
    sim.schedule_fault(SimFault{cfg.crash_at_s, SimFault::Kind::kCrashNode,
                                crash_target, net::kInvalidNode, 0.0});
    sim.schedule_fault(SimFault{cfg.crash_at_s + cfg.crash_len_s,
                                SimFault::Kind::kRestoreNode, crash_target,
                                net::kInvalidNode, 0.0});
    double t = cfg.migrate_at_s;
    for (const auto& [from, to] : moves) {
      sim.schedule_fault(
          SimFault{t, SimFault::Kind::kMigrateOps, from, to, 0.0});
      t += 0.5;
    }
  };

  // Fault-free twin. Checkpoints stay ON so the barrier/alignment schedule
  // is identical to the faulted run — the only difference is the faults.
  Simulation twin(final_net, final_rt, mw.catalog(), ec_ckpt, sim_seed);
  IFLOW_CHECK(mw.deploy_actives(twin));
  twin.run();

  // Faulted run: crash + rollback recovery + warm migrations, snapshots on.
  Simulation faulted(final_net, final_rt, mw.catalog(), ec_ckpt, sim_seed);
  IFLOW_CHECK(mw.deploy_actives(faulted));
  schedule_faults(faulted);
  faulted.run();

  // Teeth: same faults, snapshots off, volatile operator state. Crashes
  // wipe windows with nothing to roll back to and migrations start cold,
  // so results MUST go missing — otherwise the contract is vacuous.
  Simulation volatile_arm(final_net, final_rt, mw.catalog(), ec_vol,
                          sim_seed);
  IFLOW_CHECK(mw.deploy_actives(volatile_arm));
  schedule_faults(volatile_arm);
  volatile_arm.run();

  bool counts_match = true;
  for (const Middleware::ActiveView& v : views) {
    const query::QueryId q = v.query->id;
    const std::uint64_t tw = twin.tuples_delivered(q);
    const std::uint64_t fa = faulted.tuples_delivered(q);
    const std::uint64_t vo = volatile_arm.tuples_delivered(q);
    if (tw != fa) counts_match = false;
    report.twin_delivered += tw;
    report.faulted_delivered += fa;
    report.volatile_delivered += vo;
    const DeliveryStats ds = faulted.delivery_stats(q);
    report.faulted_lost += ds.lost;
    report.seen_high_water = std::max(report.seen_high_water,
                                      ds.seen_high_water);
    digest << "query " << q << " twin " << tw << " faulted " << fa
           << " volatile " << vo << " lost " << ds.lost << " snapbytes "
           << std::hexfloat << ds.snapshot_bytes << std::defaultfloat
           << '\n';
  }
  report.counts_match = counts_match;
  report.loss_without_snapshots =
      report.volatile_delivered < report.twin_delivered;

  const SnapshotStats ss = faulted.snapshot_stats();
  report.epochs_committed = ss.epochs_committed;
  report.snapshot_bytes_total = ss.bytes_total;
  report.snapshot_bytes_max = ss.bytes_max;
  report.barrier_latency_max_s = ss.barrier_latency_max_s;
  if (ss.epochs_committed > 0) {
    report.barrier_latency_mean_s =
        ss.barrier_latency_sum_s / static_cast<double>(ss.epochs_committed);
  }
  report.retained_high_water = ss.retained_high_water;
  report.recovery_latency_s = ss.recovery_latency_max_s;

  report.contract_ok = report.counts_match && report.faulted_lost == 0 &&
                       report.loss_without_snapshots &&
                       report.violations == 0 && report.epochs_committed >= 1;

  digest << "recovery summary match " << (report.counts_match ? 1 : 0)
         << " teeth " << (report.loss_without_snapshots ? 1 : 0)
         << " epochs " << report.epochs_committed << " recoveries "
         << ss.recoveries << " replayed " << ss.replayed_tuples << " bytes "
         << std::hexfloat << report.snapshot_bytes_total << " barrier "
         << report.barrier_latency_max_s << " rollback "
         << report.recovery_latency_s << std::defaultfloat << " migrations "
         << moves.size() << " viol " << report.violations << '\n';
  report.digest = digest.str();
  return report;
}

}  // namespace iflow::engine
