#include "cluster/lustre.hpp"

#include <algorithm>

#include "cluster/congestion.hpp"
#include "common/error.hpp"

namespace rush::cluster {

LustreModel::LustreModel(double aggregate_gbps) : capacity_(aggregate_gbps) {
  RUSH_EXPECTS(aggregate_gbps > 0.0);
}

void LustreModel::add_client(SourceId id, NodeSet nodes, double per_node_gbps,
                             double read_fraction) {
  RUSH_EXPECTS(!nodes.empty() && *std::min_element(nodes.begin(), nodes.end()) >= 0);
  RUSH_EXPECTS(per_node_gbps >= 0.0);
  RUSH_EXPECTS(read_fraction >= 0.0 && read_fraction <= 1.0);
  RUSH_EXPECTS(!clients_.contains(id));
  clients_.emplace(id, Client{std::move(nodes), per_node_gbps, read_fraction});
  bump_generation(true);
}

void LustreModel::set_rate(SourceId id, double per_node_gbps) {
  RUSH_EXPECTS(per_node_gbps >= 0.0);
  auto it = clients_.find(id);
  RUSH_EXPECTS(it != clients_.end());
  if (it->second.per_node_gbps == per_node_gbps) return;
  it->second.per_node_gbps = per_node_gbps;
  bump_generation(true);
}

void LustreModel::remove_client(SourceId id) {
  const auto erased = clients_.erase(id);
  RUSH_EXPECTS(erased == 1);
  bump_generation(true);
}

bool LustreModel::has_client(SourceId id) const noexcept { return clients_.contains(id); }

void LustreModel::set_ambient_demand(double gbps) {
  RUSH_EXPECTS(gbps >= 0.0);
  if (ambient_ == gbps) return;
  ambient_ = gbps;
  bump_generation(false);
}

double LustreModel::total_demand_gbps() const noexcept {
  double total = ambient_;
  for (const auto& [id, c] : clients_)
    total += c.per_node_gbps * static_cast<double>(c.nodes.size());
  return total;
}

void LustreModel::bump_generation(bool clients_changed) {
  ++generation_;
  slowdown_ = congestion_slowdown(total_demand_gbps() / capacity_);
  if (clients_changed) node_demand_stale_ = true;
}

void LustreModel::rebuild_node_demand() const {
  std::size_t size = 0;
  for (const auto& [id, c] : clients_)
    for (NodeId n : c.nodes) size = std::max(size, static_cast<std::size_t>(n) + 1);
  node_read_.assign(size, 0.0);
  node_write_.assign(size, 0.0);
  for (const auto& [id, c] : clients_) {
    for (NodeId n : c.nodes) {
      node_read_[static_cast<std::size_t>(n)] += c.per_node_gbps * c.read_fraction;
      node_write_[static_cast<std::size_t>(n)] += c.per_node_gbps * (1.0 - c.read_fraction);
    }
  }
  node_demand_stale_ = false;
}

double LustreModel::achieved(const std::vector<double>& demand, NodeId node) const noexcept {
  const auto i = static_cast<std::size_t>(node);
  if (i >= demand.size()) return 0.0;
  // Achieved rate: demanded rate divided by the oversubscription factor.
  return demand[i] / slowdown_;
}

double LustreModel::node_read_gbps(NodeId node) const {
  if (node_demand_stale_) rebuild_node_demand();
  return achieved(node_read_, node);
}

double LustreModel::node_write_gbps(NodeId node) const {
  if (node_demand_stale_) rebuild_node_demand();
  return achieved(node_write_, node);
}

}  // namespace rush::cluster
