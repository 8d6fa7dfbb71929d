#include "sched/placement_index.hpp"

#include <algorithm>

#include "core/error.hpp"

namespace slackvm::sched {

std::size_t PlacementIndex::KeyHash::operator()(const Key& k) const noexcept {
  std::uint64_t h = k.vcpus;
  h = h * 1000003ULL ^ static_cast<std::uint64_t>(k.mem_mib);
  h = h * 1000003ULL ^ static_cast<std::uint64_t>(k.ratio);
  return std::hash<std::uint64_t>{}(h);
}

PlacementIndex::PlacementIndex(Mode mode, const Scorer* scorer)
    : mode_(mode), scorer_(scorer) {
  SLACKVM_ASSERT(mode_ != Mode::kScore || scorer_ != nullptr);
}

void PlacementIndex::touch(HostId host) { dirty_log_.push_back(host); }

std::optional<HostId> PlacementIndex::select(std::span<const HostState> hosts,
                                             const core::VmSpec& spec) {
  compact_log(hosts);
  PerClass& pc = class_for(hosts, spec);
  sync(pc, hosts);

  if (mode_ == Mode::kFirstFit) {
    // The set is exact after sync(): lowest feasible id == First-Fit.
    const std::optional<HostId> chosen = pc.feasible.first();
    SLACKVM_ASSERT(!chosen || *chosen < hosts.size());
    return chosen;
  }

  // kScore: pop stale entries (the host changed since the push; sync()
  // already pushed a fresh entry if it is still feasible). A fresh top is
  // feasible by construction — only feasible hosts are ever pushed.
  while (!pc.heap.empty()) {
    const Entry top = pc.heap.front();
    if (top.host < hosts.size() && hosts[top.host].epoch() == top.epoch) {
      return top.host;
    }
    std::pop_heap(pc.heap.begin(), pc.heap.end(), entry_less);
    pc.heap.pop_back();
  }
  return std::nullopt;
}

void PlacementIndex::sync_all(std::span<const HostState> hosts) {
  for (PerClass& pc : classes_) {
    if (pc.live) {
      sync(pc, hosts);
    }
    pc.cursor = 0;
  }
  dirty_log_.clear();
}

void PlacementIndex::reset() noexcept {
  for (PerClass& pc : classes_) {
    pc.live = false;
    pc.cursor = 0;
    pc.feasible.clear();
    pc.heap.clear();
    pc.pushed.clear();  // update_host regrows it with kNeverPushed
  }
  dirty_log_.clear();
}

PlacementIndex::PerClass& PlacementIndex::class_for(std::span<const HostState> hosts,
                                                    const core::VmSpec& spec) {
  const Key key{spec.vcpus, spec.mem_mib, spec.level.ratio()};
  const auto [it, inserted] =
      ids_.try_emplace(key, static_cast<SpecClassId>(classes_.size()));
  if (inserted) {
    classes_.emplace_back();
    classes_.back().spec = spec;
  }
  PerClass& pc = classes_[it->second];
  if (!pc.live) {
    // New or dormant shape: one full scan seeds its structure; afterwards
    // only dirty hosts are ever revisited (cursor starts at the log's
    // current end).
    pc.live = true;
    pc.cursor = dirty_log_.size();
    for (const HostState& host : hosts) {
      update_host(pc, host);
    }
  }
  return pc;
}

void PlacementIndex::sync(PerClass& pc, std::span<const HostState> hosts) {
  while (pc.cursor < dirty_log_.size()) {
    const HostId host = dirty_log_[pc.cursor++];
    // Ids at or past the live range belong to rolled-back host openings
    // (VCluster::try_place); if the id is ever reopened a fresh log entry
    // re-evaluates it from its live state.
    if (host < hosts.size()) {
      update_host(pc, hosts[host]);
    }
  }
  if (mode_ == Mode::kScore) {
    compact_heap(pc, hosts);
  }
}

void PlacementIndex::update_host(PerClass& pc, const HostState& host) {
  const HostId id = host.id();
  const HostLoad& load = host.load();
  if (mode_ == Mode::kScore) {
    if (id >= pc.pushed.size()) {
      pc.pushed.resize(std::size_t{id} + 1, kNeverPushed);
    }
    if (pc.pushed[id] == load.epoch) {
      return;  // an entry for this exact state is already in the heap
    }
  }
  const bool feasible = load.can_host(pc.spec);
  if (mode_ == Mode::kFirstFit) {
    if (feasible) {
      pc.feasible.set(id);
    } else {
      pc.feasible.reset(id);
    }
    return;
  }
  if (!feasible) {
    // No push: any older entries are stale (their epoch no longer matches)
    // and get dropped when they surface at the heap top.
    return;
  }
  pc.pushed[id] = load.epoch;
  pc.heap.push_back(Entry{scorer_->score(load, pc.spec), id, load.epoch});
  std::push_heap(pc.heap.begin(), pc.heap.end(), entry_less);
}

void PlacementIndex::compact_log(std::span<const HostState> hosts) {
  // Mutations append forever; once the log dwarfs the fleet, bring every
  // class up to date and drop it. Amortized O(classes) per mutation.
  if (dirty_log_.size() < 1024 || dirty_log_.size() < 8 * hosts.size()) {
    return;
  }
  sync_all(hosts);
}

void PlacementIndex::compact_heap(PerClass& pc, std::span<const HostState> hosts) {
  // Lazy deletion only removes stale entries that reach the top; bound the
  // bottom garbage by rebuilding once stale entries dominate.
  if (pc.heap.size() <= 64 || pc.heap.size() <= 4 * hosts.size()) {
    return;
  }
  std::erase_if(pc.heap, [&hosts](const Entry& e) {
    return e.host >= hosts.size() || hosts[e.host].epoch() != e.epoch;
  });
  std::make_heap(pc.heap.begin(), pc.heap.end(), entry_less);
}

}  // namespace slackvm::sched
