#include "sched/rebalancer.hpp"

#include <algorithm>
#include <bit>
#include <optional>

#include "core/error.hpp"
#include "perf/contention.hpp"
#include "workload/usage.hpp"

namespace slackvm::sched {

void InterferenceOptions::validate() const {
  if (!enabled) {
    return;
  }
  SLACKVM_ASSERT(heat_interval > 0.0);
  SLACKVM_ASSERT(heat_alpha > 0.0 && heat_alpha <= 1.0);
  SLACKVM_ASSERT(heat_bucket > 0.0);
  SLACKVM_ASSERT(heat_weight >= 0.0);
  SLACKVM_ASSERT(threshold >= 1.0);
  SLACKVM_ASSERT(evictions_per_pass > 0);
}

// --- PlanScratch: planning state --------------------------------------------

void Rebalancer::PlanScratch::load(std::span<const HostState> hosts) {
  // Vectors grow geometrically: the fleet opens hosts between passes, and an
  // assign past capacity would allocate the exact size every time.
  const std::size_t n = hosts.size();
  const auto reserve = [n](auto& dst) {
    if (dst.capacity() < n) {
      dst.reserve(std::max(n, 2 * dst.capacity()));
    }
  };
  reserve(loads);
  reserve(vm_count);
  loads.clear();
  vm_count.clear();
  for (const HostState& host : hosts) {
    loads.push_back(host.load());
    vm_count.push_back(static_cast<std::uint32_t>(host.vm_count()));
  }
  reserve(attempted);
  attempted.assign(n, 0);
  reserve(emptied);
  emptied.assign(n, 0);
  // Reset only what the previous pass touched; everything else is already
  // clear, so a warm pass does no O(fleet) flag sweeps beyond the assigns.
  for (const HostId h : shifted_list) {
    if (h < shifted.size()) {
      shifted[h] = 0;
    }
  }
  shifted_list.clear();
  shifted.resize(n, 0);
  reserve(last_gain);
  last_gain.assign(n, kNoMove);
  source_vms.clear();
  undo.clear();
  count_heap.clear();
  classes.clear();
  dirty.clear();
  tree_width = std::bit_ceil(std::max<std::size_t>(n, 1));
  drain_source = kNoHost;
}

void Rebalancer::PlanScratch::shift(const core::VmSpec& spec, HostId from,
                                    HostId to) noexcept {
  loads[from].unbook(spec);
  --vm_count[from];
  loads[to].book(spec);
  ++vm_count[to];
}

void Rebalancer::PlanScratch::move_vm(core::VmId vm, const core::VmSpec& spec,
                                      HostId from, HostId to) {
  shift(spec, from, to);
  undo.push_back(Undo{vm, spec, from, to, last_gain[to]});
  last_gain[to] = undo.size() - 1;
}

void Rebalancer::PlanScratch::roll_back_to(std::size_t mark) {
  while (undo.size() > mark) {
    const Undo& last = undo.back();
    shift(last.spec, last.to, last.from);
    last_gain[last.to] = last.prev_gain;
    undo.pop_back();
  }
}

void Rebalancer::PlanScratch::collect_source_vms(const HostState& source) {
  // Both inputs ascend by VmId once the gains (newest first) are sorted.
  gained_sorted.clear();
  for (std::size_t i = last_gain[source.id()]; i != kNoMove; i = undo[i].prev_gain) {
    gained_sorted.emplace_back(undo[i].vm, undo[i].spec);
  }
  std::ranges::sort(gained_sorted, {}, &HostedVm::first);
  source_vms.resize(source.vm_count() + gained_sorted.size());
  std::ranges::merge(source.vms(), gained_sorted, source_vms.begin(), {},
                     &HostedVm::first, &HostedVm::first);
}

void Rebalancer::PlanScratch::mark_shifted(HostId host) {
  if (!shifted[host]) {
    shifted[host] = 1;
    shifted_list.push_back(host);
  }
}

void Rebalancer::PlanScratch::begin_drain(HostId source) {
  if (drain_source != kNoHost) {
    dirty.push_back(drain_source);
  }
  dirty.push_back(source);
  drain_source = source;
}

Rebalancer::PlanScratch::Winner Rebalancer::PlanScratch::leaf(
    HostId host, const core::VmSpec& spec, const Scorer& scorer) const {
  if (host == drain_source || emptied[host] || !loads[host].can_host(spec)) {
    return Winner{};
  }
  return Winner{scorer.score(loads[host], spec), host};
}

std::optional<HostId> Rebalancer::PlanScratch::best_target(const core::VmSpec& spec,
                                                           const Scorer& scorer) {
  const std::size_t span = 2 * tree_width;
  const auto found = std::ranges::find_if(classes, [&spec](const SpecClass& c) {
    return c.spec.vcpus == spec.vcpus && c.spec.mem_mib == spec.mem_mib &&
           c.spec.level == spec.level;
  });
  const auto slot = static_cast<std::size_t>(found - classes.begin());
  if (found == classes.end()) {
    // First use this pass: seed every leaf from the loads as they stand,
    // so the log so far is already reflected.
    classes.push_back(SpecClass{spec, dirty.size()});
    const std::size_t needed = classes.size() * span;
    if (winners.size() < needed) {
      winners.resize(std::max(needed, 2 * winners.size()));
    }
    Winner* tree = &winners[slot * span];
    const std::size_t n = size();
    for (HostId h = 0; h < n; ++h) {
      tree[tree_width + h] = leaf(h, spec, scorer);
    }
    std::fill(tree + tree_width + n, tree + span, Winner{});
    for (std::size_t i = tree_width; --i > 0;) {
      tree[i] = better(tree[2 * i], tree[2 * i + 1]);
    }
  } else {
    // Replay the log past the cursor: each entry re-derives one leaf from
    // the current state and re-plays its path until a node comes out
    // unchanged (its ancestors then cannot change either).
    Winner* tree = &winners[slot * span];
    for (std::size_t& cursor = found->synced; cursor < dirty.size(); ++cursor) {
      const HostId h = dirty[cursor];
      Winner next = leaf(h, spec, scorer);
      for (std::size_t i = tree_width + h; i > 0; i /= 2) {
        if (i < tree_width) {
          next = better(tree[2 * i], tree[2 * i + 1]);
        }
        if (next.host == tree[i].host && next.score == tree[i].score) {
          break;
        }
        tree[i] = next;
      }
    }
  }
  const Winner& root = winners[slot * span + 1];
  return root.host == kNoHost ? std::nullopt : std::optional<HostId>{root.host};
}

// --- planner passes ---------------------------------------------------------

MigrationPlan Rebalancer::plan(const VCluster& cluster,
                               std::size_t max_migrations) const {
  MigrationPlan plan;
  PlanScratch& s = scratch_;
  const std::vector<HostState>& live = cluster.hosts();
  s.load(live);
  const std::size_t n = s.size();

  // Seed the lazy candidate min-heap with every non-empty host.
  for (HostId h = 0; h < n; ++h) {
    if (s.vm_count[h] > 0) {
      s.count_heap.push_back(PlanScratch::CountEntry{s.vm_count[h], h});
    }
  }
  std::ranges::make_heap(s.count_heap, PlanScratch::count_entry_after);

  // Committed drains are never undone, so the undo log's first `planned`
  // entries are the plan's moves in order; it is copied out once at the end.
  std::size_t planned = 0;
  while (planned < max_migrations) {
    // Lazy-deletion pop: entries whose count moved on (or whose host was
    // already tried) are dropped as they surface. Committed drains only ever
    // *grow* a host's count — failed ones roll back to a count whose entry
    // is still heaped — so every untried non-empty host keeps a live entry
    // and the first valid top is exactly the naive scan's fewest-VMs
    // candidate, ties to the lowest id.
    std::optional<HostId> candidate;
    while (!s.count_heap.empty()) {
      const PlanScratch::CountEntry top = s.count_heap.front();
      std::ranges::pop_heap(s.count_heap, PlanScratch::count_entry_after);
      s.count_heap.pop_back();
      if (s.attempted[top.host] || s.emptied[top.host] ||
          s.vm_count[top.host] != top.count) {
        continue;
      }
      candidate = top.host;
      break;
    }
    if (!candidate) {
      break;  // nothing left to try
    }
    const HostId source = *candidate;
    s.attempted[source] = 1;
    if (s.vm_count[source] > max_migrations - planned) {
      break;  // even the cheapest drain exceeds the budget
    }
    s.begin_drain(source);

    // A host drains as a source at most once and planning is the only
    // writer, so its membership is the live map plus whatever this pass
    // already moved in.
    s.collect_source_vms(live[source]);
    const std::size_t undo_mark = s.undo.size();
    bool drained = true;
    for (const auto& [vm, spec] : s.source_vms) {
      const std::optional<HostId> best = s.best_target(spec, scorer());
      if (!best) {
        drained = false;
        break;
      }
      s.move_vm(vm, spec, source, *best);
      s.dirty.push_back(*best);
      s.count_heap.push_back(PlanScratch::CountEntry{s.vm_count[*best], *best});
      std::ranges::push_heap(s.count_heap, PlanScratch::count_entry_after);
    }
    if (!drained) {
      // Undo the partial drain and try the next host; the targets' leaves
      // go stale again as their loads revert.
      for (std::size_t i = undo_mark; i < s.undo.size(); ++i) {
        s.dirty.push_back(s.undo[i].to);
      }
      s.roll_back_to(undo_mark);
      continue;
    }
    s.emptied[source] = 1;
    planned = s.undo.size();
    ++plan.hosts_emptied;
  }
  plan.migrations.reserve(planned);
  for (const PlanScratch::Undo& move : s.undo) {
    plan.migrations.push_back(Migration{move.vm, move.from, move.to});
  }
  return plan;
}

MigrationPlan Rebalancer::plan_interference(const VCluster& cluster,
                                            const perf::ContentionModel& model,
                                            const InterferenceOptions& options) const {
  MigrationPlan plan;
  if (!options.enabled) {
    return plan;
  }
  const HeatIndex& index = cluster.synced_heat_index();
  PlanScratch& s = scratch_;
  const std::vector<HostState>& live = cluster.hosts();
  s.load(live);

  while (plan.migrations.size() < options.evictions_per_pass) {
    // Hottest untried UP host with >= 2 VMs. The few hosts this pass
    // already mutated (`shifted`) are overlaid from the scratch loads;
    // everyone else is streamed from the index, hottest bucket first. A
    // cluster quantizes with one width w (VCluster::set_host_heat), so raw
    // heats in bucket b span [b*w, (b+1)*w) — the last, folded one
    // [(kMaxBuckets-1)*w, inf) — and equal heats share a bucket: once some
    // bucket yields an eligible unshifted host, no cooler bucket can beat
    // the running best, and the scan stops there. The
    // comparators reproduce the naive ascending strict-> scan: higher heat
    // wins, ties to the lower id.
    std::optional<HostId> source;
    const auto heat = [&s](HostId h) { return s.loads[h].heat; };
    const auto eligible_source = [&s](HostId h) {
      return !s.attempted[h] && s.loads[h].phase == HostPhase::kUp &&
             s.vm_count[h] >= 2;
    };
    const auto hotter = [&heat](HostId h, HostId best) {
      return heat(h) != heat(best) ? heat(h) > heat(best) : h < best;
    };
    for (const HostId h : s.shifted_list) {
      if (eligible_source(h) && (!source || hotter(h, *source))) {
        source = h;
      }
    }
    index.visit(HeatIndex::Order::kHottestFirst,
                [&](HeatIndex::Bucket, const HostBitset& ids) {
                  bool bucket_hit = false;
                  ids.for_each([&](HostId h) {
                    if (s.shifted[h] || !eligible_source(h)) {
                      return;
                    }
                    bucket_hit = true;
                    if (!source || hotter(h, *source)) {
                      source = h;
                    }
                  });
                  return !bucket_hit;
                });
    if (!source) {
      break;
    }
    // Hottest-first: once the hottest candidate sits below the threshold
    // every other host does too.
    if (model.contention_inflation(heat(*source)) <= options.threshold) {
      break;
    }
    const HostId src = *source;
    s.attempted[src] = 1;
    ++plan.hot_hosts;

    // Heaviest contributor: max vcpus x mean usage, ascending-VmId ranking
    // keeps ties on the lowest id (collect_source_vms lists by VmId).
    s.collect_source_vms(live[src]);
    std::optional<std::size_t> victim;
    double victim_demand = 0.0;
    for (std::size_t i = 0; i < s.source_vms.size(); ++i) {
      const auto& [vm, spec] = s.source_vms[i];
      const double demand = static_cast<double>(spec.vcpus) *
                            workload::UsageSignal(vm, spec.usage).mean();
      if (!victim || demand > victim_demand) {
        victim = i;
        victim_demand = demand;
      }
    }
    const core::VmId victim_vm = s.source_vms[*victim].first;
    const core::VmSpec victim_spec = s.source_vms[*victim].second;

    // Coolest strictly-cooler UP host that fits the victim: same overlay,
    // coolest bucket first, ties to the lowest id via the symmetric
    // comparator; the stop rule mirrors the source scan (no hotter bucket
    // can undercut a hit).
    const double src_heat = heat(src);
    std::optional<HostId> target;
    const auto eligible_target = [&](HostId h) {
      return h != src && heat(h) < src_heat && s.loads[h].can_host(victim_spec);
    };
    const auto cooler = [&heat](HostId h, HostId best) {
      return heat(h) != heat(best) ? heat(h) < heat(best) : h < best;
    };
    for (const HostId h : s.shifted_list) {
      if (eligible_target(h) && (!target || cooler(h, *target))) {
        target = h;
      }
    }
    index.visit(HeatIndex::Order::kCoolestFirst,
                [&](HeatIndex::Bucket, const HostBitset& ids) {
                  bool bucket_hit = false;
                  ids.for_each([&](HostId h) {
                    if (s.shifted[h] || !eligible_target(h)) {
                      return;
                    }
                    bucket_hit = true;
                    if (!target || cooler(h, *target)) {
                      target = h;
                    }
                  });
                  return !bucket_hit;
                });
    if (!target) {
      continue;  // hottest host is stuck; try the next-hottest
    }

    // Move the victim in the scratch loads and shift its expected demand
    // share between the two heats (same clamp as HostLoad::set_heat;
    // scratch buckets are not maintained — nothing in this pass reads them).
    s.move_vm(victim_vm, victim_spec, src, *target);
    HostLoad& src_load = s.loads[src];
    HostLoad& dst_load = s.loads[*target];
    src_load.heat = std::max(
        src_load.heat - victim_demand / static_cast<double>(src_load.config.cores), 0.0);
    dst_load.heat = std::max(
        dst_load.heat + victim_demand / static_cast<double>(dst_load.config.cores), 0.0);
    s.mark_shifted(src);
    s.mark_shifted(*target);
    plan.migrations.push_back(Migration{victim_vm, src, *target});
  }
  return plan;
}

std::size_t Rebalancer::apply_plan(VCluster& cluster, const MigrationPlan& plan) {
  std::size_t applied = 0;
  for (const Migration& m : plan.migrations) {
    if (cluster.migrate(m.vm, m.to)) {
      ++applied;
    }
  }
  return applied;
}

}  // namespace slackvm::sched
