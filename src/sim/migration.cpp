#include "sim/migration.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "core/error.hpp"

namespace slackvm::sim {

MigrationEngine::MigrationEngine(Datacenter& dc, EventQueue& queue,
                                 const MigrationConfig& config, RunResult& result,
                                 std::function<void(core::SimTime)> observe,
                                 ShardScope scope)
    : dc_(dc),
      queue_(queue),
      config_(config),
      scope_(scope),
      result_(result),
      observe_(std::move(observe)),
      scorer_(std::make_unique<sched::ProgressScorer>()),
      lanes_(dc.clusters().size()) {
  SLACKVM_ASSERT(config_.bandwidth_mibps > 0.0);
  SLACKVM_ASSERT(config_.max_concurrent_per_host > 0);
  SLACKVM_ASSERT(config_.max_in_flight > 0);
  SLACKVM_ASSERT(observe_ != nullptr);
}

bool MigrationEngine::request(std::size_t cluster, const sched::Migration& migration,
                              core::SimTime now) {
  if (!scope_.owns(cluster)) {
    return false;
  }
  const core::VmId vm = migration.vm;
  if (parked_.contains(vm) || intents_.contains(vm)) {
    return false;
  }
  sched::VCluster& cl = dc_.cluster(cluster);
  if (!cl.contains(vm) || cl.host_of(vm) == migration.to) {
    return false;
  }
  ++result_.mig_planned;
  Intent intent;
  intent.cluster = cluster;
  intent.hint = migration.to;
  intents_.emplace(vm, intent);
  lanes_[cluster].waiting.push_back(vm);
  pump(cluster, now);
  return true;
}

void MigrationEngine::pump(std::size_t cluster, core::SimTime now) {
  Lane& lane = lanes_[cluster];
  bool moved = false;
  while (lane.in_flight < config_.max_in_flight && !lane.waiting.empty()) {
    if (!launch_head(cluster, now)) {
      break;  // head blocked on its saturated source; a completion re-pumps
    }
    moved = true;
  }
  if (moved) {
    // Reservations double-book the running totals, so launches (and parked /
    // cancelled heads) change what the metrics see.
    observe_(now);
  }
}

bool MigrationEngine::launch_head(std::size_t cluster, core::SimTime now) {
  Lane& lane = lanes_[cluster];
  const core::VmId vm = lane.waiting.front();
  const auto it = intents_.find(vm);
  SLACKVM_ASSERT(it != intents_.end() && it->second.phase == Phase::kWaiting);
  sched::VCluster& cl = dc_.cluster(cluster);
  if (!cl.contains(vm)) {
    // Belt and braces: departures/failures cancel eagerly, so a vanished VM
    // here means a missed notification — still terminal, still counted.
    lane.waiting.pop_front();
    ++result_.mig_cancelled;
    intents_.erase(it);
    return true;
  }
  const sched::HostId source = cl.host_of(vm);
  if (src_slot(cluster, source) >= config_.max_concurrent_per_host) {
    // Head-of-line block keeps the FIFO strict (no overtaking, so the launch
    // order cannot depend on queue-scan details). Progress is safe: a
    // saturated source implies flights in the air whose completion pumps.
    return false;
  }
  const core::VmSpec spec = cl.hosts()[source].spec_of(vm);
  Intent& intent = it->second;
  const auto dest = pick_dest(cl, lane, source, intent.hint, spec);
  lane.waiting.pop_front();
  if (!dest) {
    retry_or_degrade(vm, intent, now);
    return true;
  }
  const bool reserved = cl.try_reserve(*dest, vm, spec);
  SLACKVM_ASSERT(reserved);  // pick_dest checked can_host inside this event
  intent.phase = Phase::kInFlight;
  intent.source = source;
  intent.dest = *dest;
  intent.spec = spec;
  intent.ticket = ++next_ticket_;
  ++lane.in_flight;
  ++src_slot(cluster, source);
  ++dst_slot(cluster, *dest);
  in_flight_total_.fetch_add(1, std::memory_order_relaxed);
  const core::SimTime duration =
      static_cast<core::SimTime>(spec.mem_mib) / config_.bandwidth_mibps;
  const std::uint64_t ticket = intent.ticket;
  // Completion first, timeout second: at an exact tie the insertion-order
  // tie-break lets the flight land. A timeout >= duration can never fire
  // meaningfully, so it is not scheduled at all.
  queue_.schedule(now + duration,
                  [this, vm, ticket](core::SimTime at) { complete(vm, ticket, at); });
  if (config_.timeout > 0 && config_.timeout < duration) {
    queue_.schedule(now + config_.timeout, [this, vm, ticket](core::SimTime at) {
      flight_timeout(vm, ticket, at);
    });
  }
  return true;
}

std::optional<sched::HostId> MigrationEngine::pick_dest(const sched::VCluster& cl,
                                                        const Lane& lane,
                                                        sched::HostId source,
                                                        sched::HostId hint,
                                                        const core::VmSpec& spec) const {
  const auto sink_free = [&](sched::HostId host) {
    return host >= lane.dst_busy.size() ||
           lane.dst_busy[host] < config_.max_concurrent_per_host;
  };
  const std::vector<sched::HostState>& hosts = cl.hosts();
  const auto viable = [&](sched::HostId host) {
    return host != source && sink_free(host) && hosts[host].can_host(spec);
  };
  // The planner's choice stands whenever it is still viable — the plan was
  // computed against reservation-aware state, so this is the common case.
  if (hint < hosts.size() && viable(hint)) {
    return hint;
  }
  // Re-pick: best scorer value among viable hosts, ties to the lowest
  // HostId (ascending scan + strict improvement).
  std::optional<sched::HostId> best;
  double best_score = 0.0;
  for (const sched::HostState& host : hosts) {
    if (!viable(host.id())) {
      continue;
    }
    const double score = scorer_->score(host.load(), spec);
    if (!best || score > best_score) {
      best = host.id();
      best_score = score;
    }
  }
  return best;
}

void MigrationEngine::complete(core::VmId vm, std::uint64_t ticket, core::SimTime now) {
  const auto it = intents_.find(vm);
  if (it == intents_.end() || it->second.phase != Phase::kInFlight ||
      it->second.ticket != ticket) {
    return;  // stale: the flight was aborted after this event was scheduled
  }
  Intent& intent = it->second;
  const std::size_t cluster = intent.cluster;
  dc_.cluster(cluster).commit_migration(vm, intent.dest);
  Lane& lane = lanes_[cluster];
  --lane.in_flight;
  --src_slot(cluster, intent.source);
  --dst_slot(cluster, intent.dest);
  in_flight_total_.fetch_sub(1, std::memory_order_relaxed);
  ++result_.mig_committed;
  ++result_.migrations;
  intents_.erase(it);
  observe_(now);
  pump(cluster, now);
}

void MigrationEngine::flight_timeout(core::VmId vm, std::uint64_t ticket,
                                     core::SimTime now) {
  const auto it = intents_.find(vm);
  if (it == intents_.end() || it->second.phase != Phase::kInFlight ||
      it->second.ticket != ticket) {
    return;  // stale
  }
  Intent& intent = it->second;
  const std::size_t cluster = intent.cluster;
  abort_flight(vm, intent);
  // Terminal, not retried: durations are deterministic functions of the
  // spec, so the retry would hit the same timeout.
  ++result_.mig_timed_out;
  parked_.insert(vm);
  intents_.erase(it);
  observe_(now);
  pump(cluster, now);
}

void MigrationEngine::retry(core::VmId vm, std::uint64_t ticket, core::SimTime now) {
  const auto it = intents_.find(vm);
  if (it == intents_.end() || it->second.phase != Phase::kBackoff ||
      it->second.ticket != ticket) {
    return;  // stale: cancelled (departure / source failure) while backing off
  }
  it->second.phase = Phase::kWaiting;
  lanes_[it->second.cluster].waiting.push_back(vm);
  pump(it->second.cluster, now);
}

void MigrationEngine::abort_flight(core::VmId vm, Intent& intent) {
  SLACKVM_ASSERT(intent.phase == Phase::kInFlight);
  dc_.cluster(intent.cluster).release_reservation(intent.dest, vm);
  Lane& lane = lanes_[intent.cluster];
  --lane.in_flight;
  --src_slot(intent.cluster, intent.source);
  --dst_slot(intent.cluster, intent.dest);
  in_flight_total_.fetch_sub(1, std::memory_order_relaxed);
}

namespace {

core::SimTime backoff_delay(core::SimTime base, std::size_t attempts) {
  // attempts >= 1; cap the shift so the doubling cannot overflow.
  const std::size_t shift = std::min<std::size_t>(attempts - 1, 62);
  return base * static_cast<core::SimTime>(std::uint64_t{1} << shift);
}

}  // namespace

void MigrationEngine::retry_or_roll_back(core::VmId vm, Intent& intent,
                                         core::SimTime now) {
  ++intent.attempts;
  if (intent.attempts > config_.max_retries) {
    ++result_.mig_rolled_back;
    parked_.insert(vm);
    intents_.erase(vm);
    return;
  }
  ++result_.mig_retries;
  intent.phase = Phase::kBackoff;
  intent.ticket = ++next_ticket_;
  const std::uint64_t ticket = intent.ticket;
  queue_.schedule(now + backoff_delay(config_.backoff_base, intent.attempts),
                  [this, vm, ticket](core::SimTime at) { retry(vm, ticket, at); });
}

void MigrationEngine::retry_or_degrade(core::VmId vm, Intent& intent,
                                       core::SimTime now) {
  ++intent.attempts;
  if (intent.attempts > config_.max_retries) {
    ++result_.mig_degraded;
    parked_.insert(vm);
    intents_.erase(vm);
    return;
  }
  ++result_.mig_retries;
  intent.phase = Phase::kBackoff;
  intent.ticket = ++next_ticket_;
  const std::uint64_t ticket = intent.ticket;
  queue_.schedule(now + backoff_delay(config_.backoff_base, intent.attempts),
                  [this, vm, ticket](core::SimTime at) { retry(vm, ticket, at); });
}

void MigrationEngine::on_host_failing(std::size_t cluster, sched::HostId host,
                                      core::SimTime now) {
  on_host_draining(cluster, host, now);
}

void MigrationEngine::on_host_draining(std::size_t cluster, sched::HostId host,
                                       core::SimTime now) {
  if (!scope_.owns(cluster)) {
    return;
  }
  sched::VCluster& cl = dc_.cluster(cluster);
  // Classify first, mutate second: intents_ is ordered by VmId, so this scan
  // (and therefore the retry/cancel event order) is deterministic.
  enum class Action : std::uint8_t { kCancel, kReroute };
  std::vector<std::pair<core::VmId, Action>> touched;
  for (const auto& [vm, intent] : intents_) {
    if (intent.cluster != cluster) {
      continue;
    }
    const sched::HostId source =
        intent.phase == Phase::kInFlight ? intent.source : cl.host_of(vm);
    if (source == host) {
      // The source is going away: a failure evicts the VM into the PR 3
      // evacuation path, a drain hands it to migrate_off. Either way this
      // intent no longer owns the VM.
      touched.emplace_back(vm, Action::kCancel);
    } else if (intent.phase == Phase::kInFlight && intent.dest == host) {
      touched.emplace_back(vm, Action::kReroute);
    }
  }
  bool lane_dirty = false;
  for (const auto& [vm, action] : touched) {
    Intent& intent = intents_.at(vm);
    if (action == Action::kCancel) {
      switch (intent.phase) {
        case Phase::kInFlight:
          abort_flight(vm, intent);
          lane_dirty = true;
          break;
        case Phase::kWaiting:
          erase_waiting(cluster, vm);
          break;
        case Phase::kBackoff:
          break;  // the pending retry event goes stale with the intent
      }
      ++result_.mig_cancelled;
      intents_.erase(vm);
    } else {
      abort_flight(vm, intent);
      lane_dirty = true;
      retry_or_roll_back(vm, intent, now);
    }
  }
  if (lane_dirty && !lanes_[cluster].waiting.empty()) {
    // Refill the freed slots *after* the caller's phase transition lands —
    // pumping now could reserve on the very host that is about to leave UP.
    queue_.schedule(now,
                    [this, cluster](core::SimTime at) { pump(cluster, at); });
  }
}

void MigrationEngine::on_departure(core::VmId id, core::SimTime now) {
  parked_.erase(id);
  const auto it = intents_.find(id);
  if (it == intents_.end()) {
    return;
  }
  Intent& intent = it->second;
  const std::size_t cluster = intent.cluster;
  bool freed_slot = false;
  switch (intent.phase) {
    case Phase::kInFlight:
      abort_flight(id, intent);
      freed_slot = true;
      break;
    case Phase::kWaiting:
      erase_waiting(cluster, id);
      break;
    case Phase::kBackoff:
      break;  // the pending retry event goes stale with the intent
  }
  ++result_.mig_cancelled;
  intents_.erase(it);
  if (freed_slot && !lanes_[cluster].waiting.empty()) {
    // Deferred for the same reason as the fault hooks: let the departure
    // itself land before the freed slot is refilled.
    queue_.schedule(now,
                    [this, cluster](core::SimTime at) { pump(cluster, at); });
  }
}

void MigrationEngine::erase_waiting(std::size_t cluster, core::VmId vm) {
  auto& waiting = lanes_[cluster].waiting;
  const auto pos = std::find(waiting.begin(), waiting.end(), vm);
  SLACKVM_ASSERT(pos != waiting.end());
  waiting.erase(pos);
}

std::size_t& MigrationEngine::src_slot(std::size_t cluster, sched::HostId host) {
  auto& busy = lanes_[cluster].src_busy;
  if (host >= busy.size()) {
    busy.resize(host + 1, 0);
  }
  return busy[host];
}

std::size_t& MigrationEngine::dst_slot(std::size_t cluster, sched::HostId host) {
  auto& busy = lanes_[cluster].dst_busy;
  if (host >= busy.size()) {
    busy.resize(host + 1, 0);
  }
  return busy[host];
}

std::vector<std::string> MigrationEngine::audit() const {
  std::vector<std::string> out;
  const auto fail = [&](const std::string& message) {
    out.push_back("migration: " + message);
  };

  // Counter identity, with the still-active intents as the balancing term;
  // once the queue drains intents_ is empty and the identity is exact.
  const std::size_t terminal = result_.mig_committed + result_.mig_cancelled +
                               result_.mig_rolled_back + result_.mig_timed_out +
                               result_.mig_degraded;
  if (result_.mig_planned != terminal + intents_.size()) {
    std::ostringstream os;
    os << "counter identity broken: planned " << result_.mig_planned
       << " != committed " << result_.mig_committed << " + cancelled "
       << result_.mig_cancelled << " + rolled_back " << result_.mig_rolled_back
       << " + timed_out " << result_.mig_timed_out << " + degraded "
       << result_.mig_degraded << " + active " << intents_.size();
    fail(os.str());
  }

  // Flight <-> reservation bijection and per-lane bookkeeping.
  std::vector<std::size_t> flights_per_cluster(lanes_.size(), 0);
  for (const auto& [vm, intent] : intents_) {
    if (intent.phase != Phase::kInFlight) {
      continue;
    }
    ++flights_per_cluster[intent.cluster];
    const sched::VCluster& cl = dc_.cluster(intent.cluster);
    if (intent.dest >= cl.hosts().size() ||
        !cl.hosts()[intent.dest].has_reservation(vm)) {
      fail("VM " + std::to_string(vm.value) + " in flight but host " +
           std::to_string(intent.dest) + " holds no reservation");
    }
  }
  std::size_t total_flights = 0;
  for (std::size_t c = 0; c < lanes_.size(); ++c) {
    if (!scope_.owns(c)) {
      continue;
    }
    const Lane& lane = lanes_[c];
    total_flights += lane.in_flight;
    if (lane.in_flight != flights_per_cluster[c]) {
      fail("cluster " + std::to_string(c) + " lane counts " +
           std::to_string(lane.in_flight) + " flights but " +
           std::to_string(flights_per_cluster[c]) + " intents are in flight");
    }
    std::size_t reserved = 0;
    for (const sched::HostState& h : dc_.cluster(c).hosts()) {
      reserved += h.reservation_count();
    }
    if (reserved != flights_per_cluster[c]) {
      fail("cluster " + std::to_string(c) + " hosts hold " +
           std::to_string(reserved) + " reservations but " +
           std::to_string(flights_per_cluster[c]) + " flights are in the air");
    }
    const auto sum = [](const std::vector<std::size_t>& v) {
      std::size_t s = 0;
      for (const std::size_t x : v) {
        s += x;
      }
      return s;
    };
    if (sum(lane.src_busy) != lane.in_flight || sum(lane.dst_busy) != lane.in_flight) {
      fail("cluster " + std::to_string(c) + " per-host busy counts diverge from " +
           std::to_string(lane.in_flight) + " flights");
    }
  }
  if (total_flights != in_flight()) {
    fail("atomic in-flight total " + std::to_string(in_flight()) +
         " != lane sum " + std::to_string(total_flights));
  }
  return out;
}

}  // namespace slackvm::sim
