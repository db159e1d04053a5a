// Node addressing: a node is identified by its site (participant /
// datacenter) and its index within that site's Blockplane unit.
#ifndef BLOCKPLANE_NET_NODE_ID_H_
#define BLOCKPLANE_NET_NODE_ID_H_

#include <cstdint>
#include <functional>
#include <string>

#include "common/codec.h"

namespace blockplane::net {

/// Index of a participant (datacenter / site).
using SiteId = int32_t;

struct NodeId {
  SiteId site = -1;
  int32_t index = -1;

  BP_WIRE(NodeId, site, index)

  bool valid() const { return site >= 0 && index >= 0; }

  friend bool operator==(const NodeId& a, const NodeId& b) {
    return a.site == b.site && a.index == b.index;
  }
  friend bool operator!=(const NodeId& a, const NodeId& b) {
    return !(a == b);
  }
  friend bool operator<(const NodeId& a, const NodeId& b) {
    if (a.site != b.site) return a.site < b.site;
    return a.index < b.index;
  }

  std::string ToString() const {
    return std::to_string(site) + "-" + std::to_string(index);
  }
};

struct NodeIdHash {
  size_t operator()(const NodeId& id) const {
    return std::hash<int64_t>()((static_cast<int64_t>(id.site) << 32) |
                                static_cast<uint32_t>(id.index));
  }
};

}  // namespace blockplane::net

#endif  // BLOCKPLANE_NET_NODE_ID_H_
