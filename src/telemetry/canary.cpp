#include "telemetry/canary.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/stats.hpp"

namespace rush::telemetry {

namespace {
constexpr double kMessageMb = 100.0;
constexpr int kRingIterations = 10;
constexpr int kAllreduceIterations = 5;
constexpr double kProbeGbps = 0.8;  // transient per-node injection during the probe
constexpr double kJitter = 0.08;    // relative per-node noise
}  // namespace

MpiCanary::MpiCanary(const cluster::NetworkModel& net, Rng rng) : net_(net), rng_(rng) {}

std::array<double, 9> CanaryResult::features() const {
  auto agg = [](const std::vector<double>& v, std::array<double, 9>& out, std::size_t base) {
    out[base + 0] = stats::min(v);
    out[base + 1] = stats::max(v);
    out[base + 2] = stats::mean(v);
  };
  std::array<double, 9> out{};
  agg(send_wait_s, out, 0);
  agg(recv_wait_s, out, 3);
  agg(allreduce_wait_s, out, 6);
  return out;
}

CanaryResult MpiCanary::run(const cluster::NodeSet& nodes) {
  CanaryResult result;
  run_into(nodes, result);
  return result;
}

// rush: noalloc
void MpiCanary::run_into(const cluster::NodeSet& nodes, CanaryResult& result) {
  RUSH_EXPECTS(!nodes.empty());
  const std::size_t n = nodes.size();
  result.send_wait_s.assign(n, 0.0);
  result.recv_wait_s.assign(n, 0.0);
  result.allreduce_wait_s.assign(n, 0.0);
  if (n < 2) return;

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

  for (std::size_t i = 0; i < n; ++i) {
    const double j_send = std::max(0.1, 1.0 + kJitter * rng_.normal());
    const double j_recv = std::max(0.1, 1.0 + kJitter * rng_.normal());
    const double j_ar = std::max(0.1, 1.0 + kJitter * rng_.normal());
    result.send_wait_s[i] = kRingIterations * ring_hop_s * j_send;
    // A ring receive waits for the whole upstream chain on the first
    // iteration, so receive waits run slightly longer than sends.
    result.recv_wait_s[i] = kRingIterations * ring_hop_s * 1.15 * j_recv;
    result.allreduce_wait_s[i] = kAllreduceIterations * ar_iter_s * j_ar;
  }
}

}  // namespace rush::telemetry
