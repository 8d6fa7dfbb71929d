#include "sched/heat_index.hpp"

namespace slackvm::sched {

void HeatIndex::touch(HostId host) { dirty_.push_back(host); }

void HeatIndex::sync(std::span<const HostState> hosts) {
  for (const HostId id : dirty_) {
    if (id >= hosts.size()) {
      // Rolled-back opening: the touch outlived the host.
      erase(id);
      continue;
    }
    update(hosts[id]);
  }
  dirty_.clear();
}

void HeatIndex::rebuild(std::span<const HostState> hosts) {
  reset();
  for (const HostState& host : hosts) {
    update(host);
  }
}

void HeatIndex::reset() noexcept {
  cached_.clear();
  for (HostBitset& bucket : buckets_) {
    bucket.clear();
  }
  occupied_.clear();
  dirty_.clear();
  indexed_ = 0;
}

void HeatIndex::update(const HostState& host) {
  const HostId id = host.id();
  if (id >= cached_.size()) {
    cached_.resize(std::size_t{id} + 1);
  }
  Cached& cached = cached_[id];
  if (cached.present && cached.epoch == host.epoch()) {
    return;  // the bucket cannot have moved without an epoch bump
  }
  const Bucket bucket = host.heat_bucket();
  if (cached.present && cached.bucket == bucket) {
    cached.epoch = host.epoch();  // epoch moved, bucket did not: refile-free
    return;
  }
  if (cached.present) {
    unfile(id, cached.bucket);
  } else {
    ++indexed_;
  }
  file(id, bucket);
  cached = Cached{host.epoch(), bucket, true};
}

void HeatIndex::file(HostId host, Bucket bucket) {
  const Bucket s = slot(bucket);
  if (s >= buckets_.size()) {
    buckets_.resize(std::size_t{s} + 1);
  }
  buckets_[s].set(host);
  occupied_.set(s);
}

void HeatIndex::unfile(HostId host, Bucket bucket) {
  const Bucket s = slot(bucket);
  buckets_[s].reset(host);
  if (buckets_[s].empty()) {
    occupied_.reset(s);
  }
}

void HeatIndex::erase(HostId host) {
  if (host >= cached_.size() || !cached_[host].present) {
    return;
  }
  unfile(host, cached_[host].bucket);
  cached_[host].present = false;
  --indexed_;
}

std::vector<std::string> HeatIndex::check(std::span<const HostState> hosts) const {
  std::vector<std::string> out;
  if (indexed_ != hosts.size()) {
    out.push_back("heat index files " + std::to_string(indexed_) +
                  " hosts but cluster has " + std::to_string(hosts.size()));
  }
  std::size_t filed = 0;
  visit(Order::kCoolestFirst, [&](Bucket bucket, const HostBitset& ids) {
    ids.for_each([&](HostId id) {
      ++filed;
      if (id >= hosts.size()) {
        out.push_back("heat index bucket " + std::to_string(bucket) +
                      " files unknown host " + std::to_string(id));
        return;
      }
      if (slot(hosts[id].heat_bucket()) != bucket) {
        out.push_back("heat index host " + std::to_string(id) + ": bucket " +
                      std::to_string(bucket) + " != " +
                      std::to_string(hosts[id].heat_bucket()));
      }
    });
  });
  if (filed != indexed_) {
    out.push_back("heat index size " + std::to_string(indexed_) +
                  " != filed entries " + std::to_string(filed));
  }
  return out;
}

}  // namespace slackvm::sched
