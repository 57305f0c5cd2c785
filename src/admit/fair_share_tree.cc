#include "admit/fair_share_tree.h"

#include <algorithm>
#include <cmath>

#include "admit/admit.h"

namespace scalewall::admit {

namespace {
constexpr double kEps = 1e-9;
}  // namespace

std::vector<std::string> ParsePoolPath(std::string_view path) {
  std::vector<std::string> segments;
  size_t begin = 0;
  while (begin <= path.size() &&
         segments.size() < static_cast<size_t>(kMaxPoolDepth)) {
    size_t end = path.find('/', begin);
    if (end == std::string_view::npos) end = path.size();
    if (end > begin) segments.emplace_back(path.substr(begin, end - begin));
    begin = end + 1;
  }
  return segments;
}

std::string NormalizePoolPath(std::string_view path) {
  std::vector<std::string> segments = ParsePoolPath(path);
  if (segments.empty()) return std::string(kDefaultPool);
  std::string out = segments.front();
  for (size_t i = 1; i < segments.size(); ++i) {
    out += '/';
    out += segments[i];
  }
  return out;
}

FairShareTree::FairShareTree(double default_weight)
    : default_weight_(default_weight > 0.0 ? default_weight : 1.0) {
  Node root;
  root.config.weight = 1.0;
  nodes_.push_back(std::move(root));
}

FairShareTree::PoolId FairShareTree::ResolveLocked(std::string_view path,
                                                   double weight_hint,
                                                   bool capped) {
  std::vector<std::string> segments = ParsePoolPath(path);
  if (segments.empty()) segments.emplace_back(kDefaultPool);
  PoolId current = 0;
  for (const std::string& segment : segments) {
    auto it = nodes_[current].children.find(segment);
    if (it != nodes_[current].children.end()) {
      current = it->second;
      continue;
    }
    // nodes_ holds the root too; the default pool is always materialized.
    if (capped && nodes_.size() > kMaxPools &&
        !(current == 0 && segment == kDefaultPool)) {
      return ResolveLocked(kDefaultPool, 0.0);
    }
    Node node;
    node.name = segment;
    node.path = nodes_[current].path.empty()
                    ? segment
                    : nodes_[current].path + "/" + segment;
    node.depth = nodes_[current].depth + 1;
    node.parent = current;
    node.config.weight = weight_hint > 0.0 ? weight_hint : default_weight_;
    const PoolId id = static_cast<PoolId>(nodes_.size());
    nodes_[current].children.emplace(segment, id);
    nodes_.push_back(std::move(node));
    current = id;
  }
  return current;
}

void FairShareTree::ConfigurePool(std::string_view path,
                                  const PoolConfig& config) {
  std::lock_guard<std::mutex> lock(mu_);
  Node& node = nodes_[ResolveLocked(path, 0.0, /*capped=*/false)];
  node.config = config;
  if (node.config.weight <= 0.0) node.config.weight = default_weight_;
  node.config.min_share = std::clamp(node.config.min_share, 0.0, 1.0);
  node.config.max_share = std::clamp(node.config.max_share, 0.0, 1.0);
  node.configured = true;
}

FairShareTree::PoolId FairShareTree::Resolve(std::string_view path,
                                             double weight_hint) {
  std::lock_guard<std::mutex> lock(mu_);
  return ResolveLocked(path, weight_hint);
}

std::string FairShareTree::PoolPath(PoolId pool) const {
  std::lock_guard<std::mutex> lock(mu_);
  return pool < nodes_.size() ? nodes_[pool].path : std::string();
}

PoolConfig FairShareTree::Config(PoolId pool) const {
  std::lock_guard<std::mutex> lock(mu_);
  return pool < nodes_.size() ? nodes_[pool].config : PoolConfig{};
}

bool FairShareTree::HasGuarantee(PoolId pool) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (pool >= nodes_.size()) return false;
  for (PoolId id = pool; id != 0; id = nodes_[id].parent) {
    if (nodes_[id].config.min_share > 0.0) return true;
  }
  return false;
}

void FairShareTree::OnAdmit(PoolId pool, size_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  if (pool >= nodes_.size()) return;
  Node& node = nodes_[pool];
  ++node.running;
  node.inflight_bytes += bytes;
  ++node.admitted;
}

void FairShareTree::OnReject(PoolId pool) {
  std::lock_guard<std::mutex> lock(mu_);
  if (pool < nodes_.size()) ++nodes_[pool].rejected;
}

void FairShareTree::OnRelease(PoolId pool, size_t bytes, bool preempted) {
  std::lock_guard<std::mutex> lock(mu_);
  if (pool >= nodes_.size()) return;
  Node& node = nodes_[pool];
  node.running = std::max(0, node.running - 1);
  node.inflight_bytes -= std::min(node.inflight_bytes, bytes);
  if (preempted) {
    ++node.preempted;
    ++preemptions_;
  }
}

void FairShareTree::ChargeService(PoolId pool, SimDuration service) {
  std::lock_guard<std::mutex> lock(mu_);
  if (pool >= nodes_.size()) return;
  Node& node = nodes_[pool];
  ++node.completed;
  node.service_micros += std::max<SimDuration>(service, 0) / kMicrosecond;
}

void FairShareTree::ChargeScanMicros(PoolId pool, int64_t micros) {
  std::lock_guard<std::mutex> lock(mu_);
  if (pool < nodes_.size()) nodes_[pool].scan_micros += micros;
}

void FairShareTree::ChargeScanMicros(std::string_view path, int64_t micros) {
  std::lock_guard<std::mutex> lock(mu_);
  nodes_[ResolveLocked(path, 0.0)].scan_micros += micros;
}

int FairShareTree::running(PoolId pool) const {
  std::lock_guard<std::mutex> lock(mu_);
  return pool < nodes_.size() ? nodes_[pool].running : 0;
}

size_t FairShareTree::inflight_bytes(PoolId pool) const {
  std::lock_guard<std::mutex> lock(mu_);
  return pool < nodes_.size() ? nodes_[pool].inflight_bytes : 0;
}

void FairShareTree::DistributeLocked(PoolId id, double capacity) {
  Node& node = nodes_[id];
  const double avail = node.subtree_share;
  if (node.children.empty()) {
    node.fair_share = std::min(avail, node.subtree_demand);
    return;
  }
  // The node's own direct demand competes with its children as an
  // implicit sibling at the default weight (rare: queries landing on a
  // pool that also has subpools).
  struct Entry {
    PoolId child = 0;  // 0 = the implicit self entry
    double weight = 1.0;
    double demand = 0.0;
    double guarantee = 0.0;
    double share = 0.0;
  };
  std::vector<Entry> entries;
  entries.reserve(node.children.size() + 1);
  if (node.demand > 0.0) {
    entries.push_back({0, default_weight_, node.demand, 0.0, 0.0});
  }
  for (const auto& [name, child_id] : node.children) {
    const Node& child = nodes_[child_id];
    if (child.subtree_demand <= 0.0 && child.config.min_share <= 0.0) {
      continue;
    }
    Entry entry;
    entry.child = child_id;
    entry.weight = child.config.weight;
    entry.demand = child.subtree_demand;
    // Guarantees are fractions of the ROOT capacity (not of this node's
    // allocation): a tenant's 20% means 20% of the cluster wherever it
    // sits in the tree. A guarantee never exceeds demand — an idle
    // guaranteed pool frees its slots.
    entry.guarantee =
        std::min(child.config.min_share * capacity, entry.demand);
    entries.push_back(entry);
  }
  if (entries.empty()) {
    node.fair_share = 0.0;
    return;
  }
  // Fund the guarantees first; scale down proportionally when the
  // node's own allocation cannot cover them all.
  double guaranteed = 0.0;
  for (const Entry& entry : entries) guaranteed += entry.guarantee;
  double scale = 1.0;
  if (guaranteed > avail + kEps && guaranteed > 0.0) {
    scale = avail / guaranteed;
  }
  double remaining = avail;
  for (Entry& entry : entries) {
    entry.share = entry.guarantee * scale;
    remaining -= entry.share;
  }
  remaining = std::max(remaining, 0.0);
  // Weighted max-min water-filling over the residual demand.
  std::vector<ShareRequest> requests;
  requests.reserve(entries.size());
  for (const Entry& entry : entries) {
    requests.push_back(
        {entry.weight, std::max(entry.demand - entry.share, 0.0)});
  }
  std::vector<double> alloc = WeightedFairShares(remaining, requests);
  for (size_t i = 0; i < entries.size(); ++i) {
    entries[i].share += alloc[i];
  }
  node.fair_share = 0.0;
  for (const Entry& entry : entries) {
    if (entry.child == 0) {
      node.fair_share = entry.share;
      continue;
    }
    nodes_[entry.child].subtree_share = entry.share;
    DistributeLocked(entry.child, capacity);
  }
}

void FairShareTree::Recompute(double capacity,
                              const std::vector<PoolDemand>& demands) {
  std::lock_guard<std::mutex> lock(mu_);
  last_capacity_ = capacity;
  for (Node& node : nodes_) {
    node.demand = 0.0;
    node.subtree_demand = 0.0;
    node.fair_share = 0.0;
    node.subtree_share = 0.0;
  }
  for (const PoolDemand& demand : demands) {
    if (demand.pool < nodes_.size() && demand.demand > 0.0) {
      nodes_[demand.pool].demand += demand.demand;
    }
  }
  // Bottom-up demand aggregation (parents precede children in nodes_,
  // so the reverse order visits every child first), with max-share caps
  // applied per subtree: capped demand never pulls capacity past the
  // cap during the pour.
  for (size_t i = nodes_.size(); i-- > 0;) {
    Node& node = nodes_[i];
    node.subtree_demand += node.demand;
    node.subtree_demand =
        std::min(node.subtree_demand, node.config.max_share * capacity);
    if (i > 0) nodes_[node.parent].subtree_demand += node.subtree_demand;
  }
  nodes_[0].subtree_share = std::min(capacity, nodes_[0].subtree_demand);
  DistributeLocked(0, capacity);
}

double FairShareTree::FairShare(PoolId pool) const {
  std::lock_guard<std::mutex> lock(mu_);
  return pool < nodes_.size() ? nodes_[pool].fair_share : 0.0;
}

double FairShareTree::MinShareSlots(PoolId pool, double capacity) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (pool >= nodes_.size()) return 0.0;
  return nodes_[pool].config.min_share * capacity;
}

bool FairShareTree::Starved(PoolId pool, double capacity) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (pool >= nodes_.size()) return false;
  const Node& node = nodes_[pool];
  if (node.config.min_share <= 0.0) return false;
  return static_cast<double>(node.running) <
         node.config.min_share * capacity - kEps;
}

bool FairShareTree::ActiveLocked(PoolId id, PoolId requester) const {
  const Node& node = nodes_[id];
  if (node.running > 0 || id == requester) return true;
  for (const auto& [name, child] : node.children) {
    if (ActiveLocked(child, requester)) return true;
  }
  return false;
}

double FairShareTree::QueueSlice(PoolId pool, double capacity) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (pool >= nodes_.size() || capacity <= 0.0) return capacity;
  // Root-to-leaf path.
  std::vector<PoolId> path;
  for (PoolId id = pool; id != 0; id = nodes_[id].parent) path.push_back(id);
  std::reverse(path.begin(), path.end());
  // Multiplicative strict share: at every level the branch's weight over
  // the sum of *active* siblings' weights (the requester's own branch
  // always counts as active, so a first arrival gets a real slice).
  double share = capacity;
  double max_cap = capacity;
  for (PoolId id : path) {
    const Node& parent = nodes_[nodes_[id].parent];
    double total_weight = 0.0;
    for (const auto& [name, sibling] : parent.children) {
      if (sibling == id || ActiveLocked(sibling, pool)) {
        total_weight += nodes_[sibling].config.weight;
      }
    }
    // Direct demand on the parent competes like the flat design's
    // anonymous tenant.
    if (parent.running > 0) total_weight += default_weight_;
    if (total_weight > 0.0) {
      share *= nodes_[id].config.weight / total_weight;
    }
    max_cap = std::min(max_cap, nodes_[id].config.max_share * capacity);
  }
  // A guarantee floors the slice (a starved guaranteed pool must always
  // be able to queue up to its entitlement); max-share caps along the
  // whole ancestry bound it.
  share = std::max(share, nodes_[pool].config.min_share * capacity);
  return std::min(share, max_cap);
}

FairShareTree::PoolSnapshot FairShareTree::SnapshotLocked(PoolId id) const {
  const Node& node = nodes_[id];
  PoolSnapshot snapshot;
  snapshot.path = node.path;
  snapshot.depth = node.depth;
  snapshot.is_leaf = node.children.empty();
  snapshot.weight = node.config.weight;
  snapshot.min_share = node.config.min_share;
  snapshot.max_share = node.config.max_share;
  snapshot.demand = node.demand;
  snapshot.fair_share = node.fair_share;
  snapshot.running = node.running;
  snapshot.inflight_bytes = node.inflight_bytes;
  snapshot.admitted = node.admitted;
  snapshot.rejected = node.rejected;
  snapshot.completed = node.completed;
  snapshot.preempted = node.preempted;
  snapshot.service_micros = node.service_micros;
  snapshot.scan_micros = node.scan_micros;
  return snapshot;
}

FairShareTree::PoolSnapshot FairShareTree::Snapshot(PoolId pool) const {
  std::lock_guard<std::mutex> lock(mu_);
  return pool < nodes_.size() ? SnapshotLocked(pool) : PoolSnapshot{};
}

std::vector<FairShareTree::PoolSnapshot> FairShareTree::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<PoolSnapshot> out;
  out.reserve(nodes_.size());
  // Deterministic pre-order: recursion over the name-ordered child maps.
  std::vector<PoolId> stack = {0};
  while (!stack.empty()) {
    const PoolId id = stack.back();
    stack.pop_back();
    out.push_back(SnapshotLocked(id));
    // Push children reversed so the name-ordered first child pops first.
    const Node& node = nodes_[id];
    for (auto it = node.children.rbegin(); it != node.children.rend(); ++it) {
      stack.push_back(it->second);
    }
  }
  return out;
}

size_t FairShareTree::num_pools() const {
  std::lock_guard<std::mutex> lock(mu_);
  return nodes_.size();
}

int64_t FairShareTree::preemptions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return preemptions_;
}

}  // namespace scalewall::admit
