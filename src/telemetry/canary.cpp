#include "telemetry/canary.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"

namespace rush::telemetry {

namespace {
constexpr double kMessageMb = 100.0;
constexpr int kRingIterations = 10;
constexpr int kAllreduceIterations = 5;
constexpr double kProbeGbps = 0.8;  // transient per-node injection during the probe
constexpr double kJitter = 0.08;    // relative per-node noise
}  // namespace

MpiCanary::MpiCanary(const cluster::NetworkModel& net, Rng rng) : net_(net), rng_(rng) {}

// rush: noalloc
CanaryResult MpiCanary::run(const cluster::NodeSet& nodes) {
  RUSH_EXPECTS(!nodes.empty());
  const std::size_t n = nodes.size();
  CanaryResult out{};
  if (n < 2) return out;

  const double message_gb = kMessageMb / 1000.0;
  const double link_gbps = net_.tree().config().node_link_gbps;

  // Ring: the token crosses every node once per iteration; each node's
  // send blocks for (message / effective bandwidth) per iteration.
  const double ring_slow = net_.probe_slowdown(nodes, kProbeGbps, cluster::TrafficPattern::Ring);
  const double ring_hop_s = message_gb / (link_gbps / ring_slow);

  // AllReduce (ring algorithm): each node moves ~2*(n-1)/n message sizes.
  const double ar_slow = net_.probe_slowdown(nodes, kProbeGbps, cluster::TrafficPattern::AllToAll);
  const double ar_volume_gb = 2.0 * message_gb * static_cast<double>(n - 1) /
                              static_cast<double>(n);
  const double ar_iter_s = ar_volume_gb / (link_gbps / ar_slow);

  // Each benchmark's per-node waits fold into [min, max, sum] in node
  // order, as stats::min, stats::max and stats::mean fold a vector.
  for (std::size_t b = 0; b < out.size(); b += 3) {
    out[b] = std::numeric_limits<double>::infinity();
    out[b + 1] = -std::numeric_limits<double>::infinity();
  }
  const auto fold = [&out](std::size_t b, double wait_s) {
    out[b] = std::min(out[b], wait_s);
    out[b + 1] = std::max(out[b + 1], wait_s);
    out[b + 2] += wait_s;
  };
  for (std::size_t i = 0; i < n; ++i) {
    const double j_send = std::max(0.1, 1.0 + kJitter * rng_.normal());
    const double j_recv = std::max(0.1, 1.0 + kJitter * rng_.normal());
    const double j_ar = std::max(0.1, 1.0 + kJitter * rng_.normal());
    fold(0, kRingIterations * ring_hop_s * j_send);
    // A ring receive waits for the whole upstream chain on the first
    // iteration, so receive waits run slightly longer than sends.
    fold(3, kRingIterations * ring_hop_s * 1.15 * j_recv);
    fold(6, kAllreduceIterations * ar_iter_s * j_ar);
  }
  for (std::size_t b = 2; b < out.size(); b += 3) out[b] /= static_cast<double>(n);
  return out;
}

}  // namespace rush::telemetry
