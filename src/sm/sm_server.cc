#include "sm/sm_server.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace scalewall::sm {

std::string_view MigrationReasonName(MigrationReason reason) {
  switch (reason) {
    case MigrationReason::kLoadBalancing:
      return "LOAD_BALANCING";
    case MigrationReason::kDrain:
      return "DRAIN";
    case MigrationReason::kFailover:
      return "FAILOVER";
    case MigrationReason::kManual:
      return "MANUAL";
  }
  return "?";
}

SmServer::Stats::Stats(obs::MetricsRegistry* registry,
                       const obs::MetricLabels& labels) {
  if (registry == nullptr) return;
  placements = registry->GetCounter("scalewall_sm_placements_total", labels);
  placement_rejections =
      registry->GetCounter("scalewall_sm_placement_rejections_total", labels);
  live_migrations =
      registry->GetCounter("scalewall_sm_live_migrations_total", labels);
  failovers = registry->GetCounter("scalewall_sm_failovers_total", labels);
  lb_runs = registry->GetCounter("scalewall_sm_lb_runs_total", labels);
  lb_migrations =
      registry->GetCounter("scalewall_sm_lb_migrations_total", labels);
  drain_migrations =
      registry->GetCounter("scalewall_sm_drain_migrations_total", labels);
  aborted_migrations =
      registry->GetCounter("scalewall_sm_aborted_migrations_total", labels);
}

SmServer::SmServer(sim::Simulation* simulation, cluster::Cluster* cluster,
                   discovery::Datastore* datastore,
                   discovery::ServiceDiscovery* service_discovery,
                   ServiceConfig config, SmServerOptions options)
    : simulation_(simulation),
      cluster_(cluster),
      datastore_(datastore),
      service_discovery_(service_discovery),
      config_(std::move(config)),
      options_(options),
      rng_(simulation->rng().Fork(HashString(config_.name))),
      stats_(options_.metrics, options_.metric_labels) {
  // Failure detection: the datastore notifies us when an application
  // server's heartbeat session expires.
  datastore_->Watch("", [this](const discovery::WatchEvent& event) {
    if (event.type != discovery::WatchEvent::Type::kSessionExpired) return;
    for (auto& [server, host] : hosts_) {
      if (host.session == event.session) {
        OnSessionExpired(server);
        return;
      }
    }
  });
  // Automation integration: draining servers have their shards migrated
  // away without waiting for heartbeats to stop.
  cluster_->AddHealthListener([this](cluster::ServerId server,
                                     cluster::ServerHealth /*old_health*/,
                                     cluster::ServerHealth new_health) {
    if (new_health == cluster::ServerHealth::kDraining &&
        hosts_.count(server) > 0) {
      DrainServer(server);
    }
  });
}

Status SmServer::RegisterAppServer(AppServer* app) {
  cluster::ServerId server = app->server_id();
  if (hosts_.count(server) > 0) {
    return Status::AlreadyExists("app server already registered on host " +
                                 std::to_string(server));
  }
  if (!cluster_->Contains(server)) {
    return Status::NotFound("unknown cluster server " +
                            std::to_string(server));
  }
  HostState host;
  host.app = app;
  host.session = datastore_->CreateSession(config_.name + "/host/" +
                                           std::to_string(server));
  // The SM library linked into the application heartbeats while the host
  // is serving; when the host dies, heartbeats stop and the session
  // expires, which is how SM detects the failure.
  host.heartbeat_task = simulation_->SchedulePeriodic(
      config_.heartbeat_interval, config_.heartbeat_interval,
      [this, server] {
        auto it = hosts_.find(server);
        if (it == hosts_.end()) return;
        if (cluster_->Contains(server) &&
            cluster_->Get(server).IsServing()) {
          datastore_->Heartbeat(it->second.session);
        }
      });
  hosts_.emplace(server, std::move(host));
  return Status::Ok();
}

void SmServer::UnregisterAppServer(cluster::ServerId server) {
  auto it = hosts_.find(server);
  if (it == hosts_.end()) return;
  simulation_->Cancel(it->second.heartbeat_task);
  datastore_->CloseSession(it->second.session);
  hosts_.erase(it);
}

void SmServer::Start() {
  if (started_) return;
  started_ = true;
  if (!config_.lazy_placement) {
    // Eager mode: place the entire flat key space up front (the
    // production regime; new tables then inherit existing placements —
    // including any co-locations, Section IV-A "collisions at table
    // creation time"). Only sensible for modest key spaces.
    for (ShardId shard = 0; shard < config_.max_shards; ++shard) {
      EnsureShard(shard);
    }
  }
  simulation_->SchedulePeriodic(config_.load_balancing.interval,
                                config_.load_balancing.interval,
                                [this] { RunLoadBalancer(); });
}

double SmServer::ServerLoad(cluster::ServerId server) const {
  auto it = hosts_.find(server);
  if (it == hosts_.end()) return 0;
  double load = 0;
  for (ShardId shard : it->second.shards) {
    load += it->second.app->ShardLoad(shard, config_.load_balancing.metric);
  }
  return load;
}

double SmServer::ServerCapacity(cluster::ServerId server) const {
  auto it = hosts_.find(server);
  if (it == hosts_.end()) return 0;
  return it->second.app->Capacity(config_.load_balancing.metric);
}

std::map<cluster::ServerId, double> SmServer::Utilization() const {
  std::map<cluster::ServerId, double> out;
  for (const auto& [server, host] : hosts_) {
    if (!cluster_->Contains(server) || !cluster_->Get(server).IsServing()) {
      continue;
    }
    double cap = ServerCapacity(server);
    out[server] = cap > 0 ? ServerLoad(server) / cap : 0.0;
  }
  return out;
}

bool SmServer::SpreadAllows(const ShardAssignment& assignment,
                            cluster::ServerId server) const {
  const cluster::ServerInfo& candidate = cluster_->Get(server);
  for (const Replica& replica : assignment.replicas) {
    if (!cluster_->Contains(replica.server)) continue;
    const cluster::ServerInfo& existing = cluster_->Get(replica.server);
    switch (config_.spread) {
      case SpreadDomain::kServer:
        if (existing.id == candidate.id) return false;
        break;
      case SpreadDomain::kRack:
        if (existing.rack == candidate.rack) return false;
        break;
      case SpreadDomain::kRegion:
        if (existing.region == candidate.region) return false;
        break;
    }
  }
  return true;
}

std::vector<cluster::ServerId> SmServer::RankedCandidates(
    ShardId shard, const std::unordered_set<cluster::ServerId>& exclude,
    double shard_load) const {
  const ShardAssignment* assignment = GetAssignment(shard);
  std::vector<std::pair<double, cluster::ServerId>> scored;
  for (const auto& [server, host] : hosts_) {
    if (exclude.count(server) > 0) continue;
    if (!cluster_->Contains(server)) continue;
    if (!cluster_->Get(server).IsPlaceable()) continue;
    if (assignment != nullptr && assignment->HostedOn(server)) continue;
    if (assignment != nullptr && !SpreadAllows(*assignment, server)) continue;
    double cap = ServerCapacity(server);
    if (cap <= 0) continue;
    double projected = (ServerLoad(server) + shard_load) / cap;
    if (projected > config_.load_balancing.max_utilization) continue;
    scored.emplace_back(projected, server);
  }
  // Least-utilized first; ties broken by a per-shard hash so equally
  // empty servers don't all queue up in id order (which would make
  // collision rejections walk the same prefix for every shard).
  std::sort(scored.begin(), scored.end(),
            [shard](const std::pair<double, cluster::ServerId>& a,
                    const std::pair<double, cluster::ServerId>& b) {
              if (a.first != b.first) return a.first < b.first;
              return HashCombine(HashInt(shard), HashInt(a.second)) <
                     HashCombine(HashInt(shard), HashInt(b.second));
            });
  std::vector<cluster::ServerId> out;
  out.reserve(scored.size());
  for (const auto& [score, server] : scored) out.push_back(server);
  return out;
}

void SmServer::AttachReplica(ShardId shard, cluster::ServerId server,
                             ShardRole role) {
  ShardAssignment& assignment = assignments_[shard];
  assignment.shard = shard;
  assignment.replicas.push_back(Replica{server, role});
  auto it = hosts_.find(server);
  if (it != hosts_.end()) it->second.shards.insert(shard);
}

void SmServer::DetachReplica(ShardId shard, cluster::ServerId server) {
  auto ait = assignments_.find(shard);
  if (ait != assignments_.end()) {
    auto& replicas = ait->second.replicas;
    replicas.erase(std::remove_if(replicas.begin(), replicas.end(),
                                  [server](const Replica& r) {
                                    return r.server == server;
                                  }),
                   replicas.end());
  }
  auto hit = hosts_.find(server);
  if (hit != hosts_.end()) hit->second.shards.erase(shard);
}

Result<cluster::ServerId> SmServer::PlaceReplica(
    ShardId shard, ShardRole role,
    const std::unordered_set<cluster::ServerId>& exclude) {
  double shard_load = 0;
  auto lit = shard_load_cache_.find(shard);
  if (lit != shard_load_cache_.end()) shard_load = lit->second;

  std::vector<cluster::ServerId> candidates =
      RankedCandidates(shard, exclude, shard_load);
  int transient_failures = 0;
  for (cluster::ServerId server : candidates) {
    Status st = hosts_.at(server).app->AddShard(shard, role);
    if (st.ok()) {
      AttachReplica(shard, server, role);
      ++stats_.placements;
      return server;
    }
    if (st.code() == StatusCode::kNonRetryable) {
      // E.g. a shard collision on this host (Section IV-A): SM must try
      // migrating/placing it somewhere else. Rejections do not consume
      // the attempt budget — on a fleet dense with partitions of one
      // table, most candidates may legitimately refuse.
      ++stats_.placement_rejections;
      continue;
    }
    // Transient refusal; budget these so a flapping fleet cannot spin.
    if (++transient_failures >= options_.max_placement_attempts) break;
  }
  return Status::ResourceExhausted("no eligible server for shard " +
                                   std::to_string(shard));
}

Status SmServer::EnsureShard(ShardId shard) {
  if (shard >= config_.max_shards) {
    return Status::InvalidArgument("shard id out of key space");
  }
  auto it = assignments_.find(shard);
  if (it != assignments_.end() && !it->second.replicas.empty()) {
    return Status::Ok();
  }
  std::vector<ShardRole> roles;
  switch (config_.replication) {
    case ReplicationModel::kPrimaryOnly:
      roles.push_back(ShardRole::kPrimary);
      break;
    case ReplicationModel::kPrimarySecondary:
      roles.push_back(ShardRole::kPrimary);
      for (int i = 0; i < config_.replication_factor; ++i) {
        roles.push_back(ShardRole::kSecondary);
      }
      break;
    case ReplicationModel::kSecondaryOnly:
      for (int i = 0; i < config_.replication_factor + 1; ++i) {
        roles.push_back(ShardRole::kSecondary);
      }
      break;
  }
  std::vector<cluster::ServerId> placed;
  for (ShardRole role : roles) {
    auto result = PlaceReplica(shard, role, /*exclude=*/{});
    if (!result.ok()) {
      // Roll back partial placements so a retry starts clean.
      for (cluster::ServerId server : placed) {
        auto hit = hosts_.find(server);
        if (hit != hosts_.end()) hit->second.app->DropShard(shard);
        DetachReplica(shard, server);
      }
      assignments_.erase(shard);
      return result.status();
    }
    placed.push_back(*result);
  }
  PublishAssignment(shard);
  return Status::Ok();
}

const ShardAssignment* SmServer::GetAssignment(ShardId shard) const {
  auto it = assignments_.find(shard);
  return it == assignments_.end() ? nullptr : &it->second;
}

std::vector<ShardId> SmServer::ShardsOnServer(cluster::ServerId server) const {
  auto it = hosts_.find(server);
  if (it == hosts_.end()) return {};
  return {it->second.shards.begin(), it->second.shards.end()};
}

void SmServer::PublishAssignment(ShardId shard) {
  const ShardAssignment* assignment = GetAssignment(shard);
  std::string key =
      config_.name + "/assignments/" + std::to_string(shard);
  if (assignment == nullptr || assignment->replicas.empty()) {
    service_discovery_->Unpublish(config_.name, shard);
    datastore_->Delete(key);
    return;
  }
  const Replica* primary = assignment->PrimaryReplica();
  cluster::ServerId server =
      primary != nullptr ? primary->server : assignment->replicas[0].server;
  service_discovery_->Publish(config_.name, shard, server);
  // Persist the full replica set: "server:role;server:role;...".
  std::string value;
  for (const Replica& replica : assignment->replicas) {
    if (!value.empty()) value += ';';
    value += std::to_string(replica.server) + ':' +
             (replica.role == ShardRole::kPrimary ? 'P' : 'S');
  }
  datastore_->Put(key, value);
}

Result<ShardAssignment> SmServer::LoadPersistedAssignment(
    ShardId shard) const {
  auto value = datastore_->Get(config_.name + "/assignments/" +
                               std::to_string(shard));
  SCALEWALL_RETURN_IF_ERROR(value.status());
  ShardAssignment assignment;
  assignment.shard = shard;
  size_t pos = 0;
  const std::string& text = *value;
  while (pos < text.size()) {
    size_t colon = text.find(':', pos);
    if (colon == std::string::npos) {
      return Status::Internal("corrupt persisted assignment: " + text);
    }
    Replica replica;
    replica.server = static_cast<cluster::ServerId>(
        std::stoul(text.substr(pos, colon - pos)));
    replica.role =
        text[colon + 1] == 'P' ? ShardRole::kPrimary : ShardRole::kSecondary;
    assignment.replicas.push_back(replica);
    pos = colon + 2;
    if (pos < text.size() && text[pos] == ';') ++pos;
  }
  return assignment;
}

void SmServer::RecordMigrationStart(MigrationReason reason) {
  int64_t day = simulation_->now() / kDay;
  stats_.migrations_per_day[day]++;
  switch (reason) {
    case MigrationReason::kLoadBalancing:
      ++stats_.lb_migrations;
      ++stats_.live_migrations;
      break;
    case MigrationReason::kDrain:
      ++stats_.drain_migrations;
      ++stats_.live_migrations;
      break;
    case MigrationReason::kManual:
      ++stats_.live_migrations;
      break;
    case MigrationReason::kFailover:
      ++stats_.failovers;
      break;
  }
}

Status SmServer::RequestMigration(ShardId shard, cluster::ServerId from,
                                  MigrationReason reason) {
  const ShardAssignment* assignment = GetAssignment(shard);
  if (assignment == nullptr || !assignment->HostedOn(from)) {
    return Status::NotFound("shard " + std::to_string(shard) +
                            " not hosted on server " + std::to_string(from));
  }
  if (active_migrations_.count(shard) > 0) {
    return Status::FailedPrecondition("shard already migrating");
  }
  ShardRole role = ShardRole::kPrimary;
  for (const Replica& r : assignment->replicas) {
    if (r.server == from) role = r.role;
  }
  double load = 0;
  auto hit = hosts_.find(from);
  if (hit != hosts_.end()) {
    load = hit->second.app->ShardLoad(shard, config_.load_balancing.metric);
    shard_load_cache_[shard] = load;
  }
  std::unordered_set<cluster::ServerId> exclude{from};
  std::vector<cluster::ServerId> candidates =
      RankedCandidates(shard, exclude, load);
  if (candidates.empty()) {
    return Status::ResourceExhausted("no migration target for shard " +
                                     std::to_string(shard));
  }
  StartGracefulMigration(
      Migration{shard, from, candidates[0], role, reason, {}});
  return Status::Ok();
}

void SmServer::StartGracefulMigration(const Migration& migration) {
  if (active_migrations_.count(migration.shard) > 0) return;
  active_migrations_.emplace(migration.shard, migration);
  RecordMigrationStart(migration.reason);
  SCALEWALL_LOG(kInfo) << config_.name << ": graceful migration of shard "
                       << migration.shard << " " << migration.from << " -> "
                       << migration.to << " ("
                       << MigrationReasonName(migration.reason) << ")";

  ShardId shard = migration.shard;
  // Step 1 (after one control round trip): prepareAddShard on the target.
  simulation_->ScheduleAfter(options_.control_latency,
                             [this, shard] { MigrationPrepareStep(shard); });
}

void SmServer::MigrationPrepareStep(ShardId shard) {
  auto mit = active_migrations_.find(shard);
  if (mit == active_migrations_.end()) return;  // cancelled
  Migration m = mit->second;
  auto from_it = hosts_.find(m.from);
  auto to_it = hosts_.find(m.to);
  if (from_it == hosts_.end() || to_it == hosts_.end() ||
      !cluster_->Contains(m.to) || !cluster_->Get(m.to).IsPlaceable()) {
    AbortMigration(shard);
    return;
  }
  Status st = to_it->second.app->PrepareAddShard(shard, m.from);
  if (st.code() == StatusCode::kNonRetryable) {
    // Shard collision on the target ("it should try migrating it
    // somewhere else", Section IV-A): restart the workflow — including
    // the prepare step — against the best candidate not yet tried.
    ++stats_.placement_rejections;
    Migration retry = m;
    retry.rejected.push_back(m.to);
    std::unordered_set<cluster::ServerId> exclude{m.from};
    for (cluster::ServerId r : retry.rejected) exclude.insert(r);
    double load =
        shard_load_cache_.count(shard) ? shard_load_cache_[shard] : 0.0;
    std::vector<cluster::ServerId> candidates =
        RankedCandidates(shard, exclude, load);
    active_migrations_.erase(shard);
    if (candidates.empty()) {
      ++stats_.aborted_migrations;
      return;
    }
    retry.to = candidates[0];
    // Not double-counted in migration stats: same logical migration.
    active_migrations_.emplace(shard, retry);
    simulation_->ScheduleAfter(options_.control_latency,
                               [this, shard] { MigrationPrepareStep(shard); });
    return;
  }
  if (!st.ok()) {
    AbortMigration(shard);
    return;
  }
  ContinueMigrationCopy(shard);
}

void SmServer::ContinueMigrationCopy(ShardId shard) {
  auto mit = active_migrations_.find(shard);
  if (mit == active_migrations_.end()) return;
  // Data copy duration scales with the shard's last known weight.
  double load = 0;
  auto lit = shard_load_cache_.find(shard);
  if (lit != shard_load_cache_.end()) load = lit->second;
  SimDuration copy = static_cast<SimDuration>(
      load / options_.copy_bandwidth_per_sec * static_cast<double>(kSecond));
  if (copy < options_.control_latency) copy = options_.control_latency;

  simulation_->ScheduleAfter(copy, [this, shard] {
    auto mit = active_migrations_.find(shard);
    if (mit == active_migrations_.end()) return;
    Migration m = mit->second;
    auto from_it = hosts_.find(m.from);
    auto to_it = hosts_.find(m.to);
    if (from_it == hosts_.end() || to_it == hosts_.end()) {
      AbortMigration(shard);
      return;
    }
    // Step 2: old server starts forwarding requests to the new one.
    from_it->second.app->PrepareDropShard(shard, m.to);
    // Step 3: new server takes effective ownership.
    simulation_->ScheduleAfter(options_.control_latency, [this, shard] {
      auto mit = active_migrations_.find(shard);
      if (mit == active_migrations_.end()) return;
      Migration m = mit->second;
      auto to_it = hosts_.find(m.to);
      if (to_it == hosts_.end()) {
        AbortMigration(shard);
        return;
      }
      Status st = to_it->second.app->AddShard(shard, m.role);
      if (!st.ok()) {
        AbortMigration(shard);
        return;
      }
      // Authoritative assignment flips; SMC learns the new mapping and
      // propagates it to clients over the next seconds.
      DetachReplica(shard, m.from);
      // Keep the old server's data until dropShard: re-list it in the
      // host set so its load still counts, but not in the assignment.
      auto from_it = hosts_.find(m.from);
      if (from_it != hosts_.end()) from_it->second.shards.insert(shard);
      AttachReplica(shard, m.to, m.role);
      PublishAssignment(shard);
      // Step 4: after the propagation grace period, the old copy is
      // deleted (Section IV-E: "Cubrick waits for a pre-defined number of
      // seconds (SMC's usual propagation delay)").
      simulation_->ScheduleAfter(options_.drop_delay, [this, shard] {
        auto mit = active_migrations_.find(shard);
        if (mit == active_migrations_.end()) return;
        Migration m = mit->second;
        auto from_it = hosts_.find(m.from);
        if (from_it != hosts_.end()) {
          from_it->second.app->DropShard(shard);
          from_it->second.shards.erase(shard);
        }
        active_migrations_.erase(shard);
      });
    });
  });
}

void SmServer::AbortMigration(ShardId shard) {
  auto mit = active_migrations_.find(shard);
  if (mit == active_migrations_.end()) return;
  Migration m = mit->second;
  const ShardAssignment* assignment = GetAssignment(shard);
  // Best effort cleanup of a partially prepared target.
  auto to_it = hosts_.find(m.to);
  bool to_owns = assignment != nullptr && assignment->HostedOn(m.to);
  if (to_it != hosts_.end() && !to_owns) {
    to_it->second.app->DropShard(shard);
    to_it->second.shards.erase(shard);
  }
  // And of the source's leftover pre-drop copy once ownership has moved
  // on (the scheduled dropShard step dies with the migration record).
  auto from_it = hosts_.find(m.from);
  bool from_owns = assignment != nullptr && assignment->HostedOn(m.from);
  if (from_it != hosts_.end() && !from_owns) {
    from_it->second.app->DropShard(shard);
    from_it->second.shards.erase(shard);
  }
  ++stats_.aborted_migrations;
  active_migrations_.erase(shard);
}

void SmServer::OnSessionExpired(cluster::ServerId server) {
  SCALEWALL_LOG(kInfo) << config_.name << ": heartbeat session expired for "
                       << server << "; failing over its shards";
  FailoverShardsOn(server);
  auto it = hosts_.find(server);
  if (it != hosts_.end()) {
    simulation_->Cancel(it->second.heartbeat_task);
    hosts_.erase(it);
  }
}

void SmServer::FailoverShardsOn(cluster::ServerId dead) {
  auto it = hosts_.find(dead);
  if (it == hosts_.end()) return;
  std::vector<ShardId> shards(it->second.shards.begin(),
                              it->second.shards.end());
  for (ShardId shard : shards) {
    // Cancel any in-flight migration touching the dead server, cleaning
    // up the counterpart's partial copies (a leaked staged copy would
    // non-retryably block this shard's table from that server forever).
    if (active_migrations_.count(shard) > 0) {
      AbortMigration(shard);
    }
    ShardRole role = ShardRole::kPrimary;
    const ShardAssignment* assignment = GetAssignment(shard);
    bool assigned_here = false;
    if (assignment != nullptr) {
      for (const Replica& r : assignment->replicas) {
        if (r.server == dead) {
          role = r.role;
          assigned_here = true;
        }
      }
    }
    DetachReplica(shard, dead);
    if (!assigned_here) continue;  // was only a stale pre-drop copy
    FailoverReplica(shard, role, dead);
  }
}

void SmServer::FailoverReplica(ShardId shard, ShardRole role,
                               cluster::ServerId dead) {
  RecordMigrationStart(MigrationReason::kFailover);
  const ShardAssignment* assignment = GetAssignment(shard);
  // Primary-secondary: elect a surviving secondary as the new primary
  // first, then backfill a new secondary (Section III-A2).
  if (config_.replication == ReplicationModel::kPrimarySecondary &&
      role == ShardRole::kPrimary && assignment != nullptr &&
      !assignment->replicas.empty()) {
    auto ait = assignments_.find(shard);
    Replica& promoted = ait->second.replicas.front();
    promoted.role = ShardRole::kPrimary;
    auto hit = hosts_.find(promoted.server);
    if (hit != hosts_.end()) {
      hit->second.app->AddShard(shard, ShardRole::kPrimary);  // promote
    }
    PublishAssignment(shard);
    role = ShardRole::kSecondary;  // backfill a secondary below
  }
  // Failovers are a single addShard on the new server; the application
  // recovers data itself (Cubrick: from a healthy region). Model the
  // recovery time from the last known shard weight.
  double load = 0;
  auto lit = shard_load_cache_.find(shard);
  if (lit != shard_load_cache_.end()) load = lit->second;
  SimDuration recovery = static_cast<SimDuration>(
      load / options_.copy_bandwidth_per_sec * static_cast<double>(kSecond));
  if (recovery < options_.control_latency) recovery = options_.control_latency;

  simulation_->ScheduleAfter(recovery, [this, shard, role, dead] {
    const ShardAssignment* assignment = GetAssignment(shard);
    if (assignment != nullptr && assignment->HostedOn(dead)) return;
    // Another path (a concurrent EnsureShard from a write, or an earlier
    // failover retry) may have already restored the replica set; placing
    // again would create a second owner with its own data copy.
    if (assignment != nullptr &&
        assignment->replicas.size() >= RequiredReplicas()) {
      return;
    }
    auto result = PlaceReplica(shard, role, /*exclude=*/{dead});
    if (result.ok()) {
      PublishAssignment(shard);
    } else {
      // No capacity right now; retry after a minute.
      simulation_->ScheduleAfter(1 * kMinute, [this, shard, role, dead] {
        const ShardAssignment* a = GetAssignment(shard);
        if (a != nullptr && a->replicas.size() >= RequiredReplicas()) {
          return;
        }
        FailoverReplica(shard, role, dead);
      });
    }
  });
}

void SmServer::DrainServer(cluster::ServerId server) {
  auto it = hosts_.find(server);
  if (it == hosts_.end()) return;
  std::vector<ShardId> shards(it->second.shards.begin(),
                              it->second.shards.end());
  for (ShardId shard : shards) {
    if (active_migrations_.count(shard) > 0) continue;
    const ShardAssignment* assignment = GetAssignment(shard);
    if (assignment == nullptr || !assignment->HostedOn(server)) continue;
    ShardRole role = ShardRole::kPrimary;
    for (const Replica& r : assignment->replicas) {
      if (r.server == server) role = r.role;
    }
    double load =
        it->second.app->ShardLoad(shard, config_.load_balancing.metric);
    shard_load_cache_[shard] = load;
    std::unordered_set<cluster::ServerId> exclude{server};
    std::vector<cluster::ServerId> candidates =
        RankedCandidates(shard, exclude, load);
    if (candidates.empty()) continue;  // retried on the next LB pass
    StartGracefulMigration(
        Migration{shard, server, candidates[0], role,
                  MigrationReason::kDrain, {}});
  }
}

int SmServer::RunLoadBalancer() {
  ++stats_.lb_runs;
  // Metrics collection: refresh per-shard weights and per-host loads and
  // capacities from the application servers.
  struct HostLoad {
    cluster::ServerId server;
    double load;
    double capacity;
  };
  std::vector<HostLoad> hosts;
  for (auto& [server, host] : hosts_) {
    if (!cluster_->Contains(server)) continue;
    const cluster::ServerInfo& info = cluster_->Get(server);
    if (info.health == cluster::ServerHealth::kDraining) {
      // Keep draining: shards may have had no target on the last pass.
      DrainServer(server);
      continue;
    }
    if (!info.IsPlaceable()) continue;
    double load = 0;
    for (ShardId shard : host.shards) {
      double w = host.app->ShardLoad(shard, config_.load_balancing.metric);
      shard_load_cache_[shard] = w;
      load += w;
    }
    double cap = host.app->Capacity(config_.load_balancing.metric);
    if (cap <= 0) continue;
    hosts.push_back(HostLoad{server, load, cap});
  }
  if (hosts.size() < 2) return 0;

  int migrations = 0;
  while (migrations < config_.load_balancing.max_migrations_per_run) {
    auto [min_it, max_it] = std::minmax_element(
        hosts.begin(), hosts.end(), [](const HostLoad& a, const HostLoad& b) {
          return a.load / a.capacity < b.load / b.capacity;
        });
    double util_max = max_it->load / max_it->capacity;
    double util_min = min_it->load / min_it->capacity;
    if (util_max - util_min <= config_.load_balancing.imbalance_threshold) {
      break;
    }
    // Pick the largest shard on the hottest host whose move narrows the
    // gap without overshooting or overfilling the target.
    auto host_it = hosts_.find(max_it->server);
    if (host_it == hosts_.end()) break;
    ShardId best = kInvalidShard;
    double best_load = -1;
    for (ShardId shard : host_it->second.shards) {
      if (active_migrations_.count(shard) > 0) continue;
      const ShardAssignment* assignment = GetAssignment(shard);
      if (assignment == nullptr || !assignment->HostedOn(max_it->server)) {
        continue;  // stale pre-drop copy
      }
      if (!SpreadAllowsMove(*assignment, max_it->server, min_it->server)) {
        continue;
      }
      double w = shard_load_cache_.count(shard) ? shard_load_cache_[shard] : 0;
      if (w <= 0) continue;
      double target_util = (min_it->load + w) / min_it->capacity;
      if (target_util > config_.load_balancing.max_utilization) continue;
      if (target_util > util_max) continue;  // would just swap the hotspot
      if (w > best_load) {
        best_load = w;
        best = shard;
      }
    }
    if (best == kInvalidShard) break;
    ShardRole role = ShardRole::kPrimary;
    const ShardAssignment* assignment = GetAssignment(best);
    for (const Replica& r : assignment->replicas) {
      if (r.server == max_it->server) role = r.role;
    }
    StartGracefulMigration(Migration{best, max_it->server, min_it->server,
                                     role, MigrationReason::kLoadBalancing,
                                     {}});
    max_it->load -= best_load;
    min_it->load += best_load;
    ++migrations;
  }
  return migrations;
}

bool SmServer::SpreadAllowsMove(const ShardAssignment& assignment,
                                cluster::ServerId from,
                                cluster::ServerId to) const {
  // Check spread as if the `from` replica were already removed.
  ShardAssignment hypothetical = assignment;
  auto& replicas = hypothetical.replicas;
  replicas.erase(std::remove_if(replicas.begin(), replicas.end(),
                                [from](const Replica& r) {
                                  return r.server == from;
                                }),
                 replicas.end());
  if (hypothetical.HostedOn(to)) return false;
  return SpreadAllows(hypothetical, to);
}

}  // namespace scalewall::sm
