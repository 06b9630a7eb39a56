#include "cluster/topology.hpp"

#include "common/error.hpp"

namespace rush::cluster {

FatTree::FatTree(FatTreeConfig config) : config_(config) {
  RUSH_EXPECTS(config_.pods > 0);
  RUSH_EXPECTS(config_.edges_per_pod > 0);
  RUSH_EXPECTS(config_.nodes_per_edge > 0);
  RUSH_EXPECTS(config_.node_link_gbps > 0.0);
  RUSH_EXPECTS(config_.edge_uplink_gbps > 0.0);
  RUSH_EXPECTS(config_.pod_uplink_gbps > 0.0);
}

int FatTree::edge_of(NodeId node) const {
  RUSH_EXPECTS(node >= 0 && node < num_nodes());
  return node / config_.nodes_per_edge;
}

int FatTree::pod_of(NodeId node) const {
  RUSH_EXPECTS(node >= 0 && node < num_nodes());
  return node / (config_.nodes_per_edge * config_.edges_per_pod);
}

NodeSet FatTree::nodes_in_pod(int pod) const {
  RUSH_EXPECTS(pod >= 0 && pod < num_pods());
  const int per_pod = config_.nodes_per_edge * config_.edges_per_pod;
  NodeSet out;
  out.reserve(static_cast<std::size_t>(per_pod));
  for (int i = 0; i < per_pod; ++i) out.push_back(static_cast<NodeId>(pod * per_pod + i));
  return out;
}

LinkId FatTree::node_link(NodeId node) const {
  RUSH_EXPECTS(node >= 0 && node < num_nodes());
  return node;
}

LinkId FatTree::edge_uplink(int edge) const {
  RUSH_EXPECTS(edge >= 0 && edge < num_edges());
  return num_nodes() + edge;
}

LinkId FatTree::pod_uplink(int pod) const {
  RUSH_EXPECTS(pod >= 0 && pod < num_pods());
  return num_nodes() + num_edges() + pod;
}

LinkKind FatTree::link_kind(LinkId link) const {
  RUSH_EXPECTS(link >= 0 && link < num_links());
  if (link < num_nodes()) return LinkKind::NodeLink;
  if (link < num_nodes() + num_edges()) return LinkKind::EdgeUplink;
  return LinkKind::PodUplink;
}

double FatTree::link_capacity_gbps(LinkId link) const {
  switch (link_kind(link)) {
    case LinkKind::NodeLink:
      return config_.node_link_gbps;
    case LinkKind::EdgeUplink:
      return config_.edge_uplink_gbps;
    case LinkKind::PodUplink:
      return config_.pod_uplink_gbps;
  }
  return 0.0;  // unreachable
}

bool valid_node_set(const FatTree& tree, const NodeSet& nodes) noexcept {
  if (nodes.empty()) return false;
  NodeId prev = -1;
  for (NodeId n : nodes) {
    if (n <= prev || n >= tree.num_nodes()) return false;
    prev = n;
  }
  return true;
}

}  // namespace rush::cluster
