// Two-level 64-ary bitset over HostId: the node-free set behind the
// First-Fit placement index and the heat-bucket index.
//
// Level 0 keeps one bit per id (word w covers ids [64w, 64w + 64)); level 1
// keeps one summary bit per level-0 word, set while that word is non-zero.
// So set() and reset() are O(1), and first() skips empty summary words and
// then takes two count-trailing-zeros: O(1 + ids / 4096). The visits walk
// only non-zero words, in ascending or descending id order.
//
// Storage grows geometrically (the word count doubles) with the highest id
// ever set and is never given back, and there is no node per member: once a
// set has seen its working id range it allocates nothing more, whatever it
// holds.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "sched/host_state.hpp"

namespace slackvm::sched {

/// Call a visitor that may return void or bool; false means "stop".
template <class F, class... Args>
bool visit_continues(F& f, Args&&... args) {
  if constexpr (std::is_void_v<std::invoke_result_t<F&, Args...>>) {
    f(std::forward<Args>(args)...);
    return true;
  } else {
    return static_cast<bool>(f(std::forward<Args>(args)...));
  }
}

class HostBitset {
 public:
  void set(HostId id) {
    const std::size_t w = id / 64;
    if (w >= words_.size()) {
      grow(w);
    }
    words_[w] |= bit(id);
    summary_[w / 64] |= bit(w);
  }

  void reset(HostId id) noexcept {
    const std::size_t w = id / 64;
    if (w >= words_.size()) {
      return;
    }
    words_[w] &= ~bit(id);
    if (words_[w] == 0) {
      summary_[w / 64] &= ~bit(w);
    }
  }

  /// Drop every member and keep the storage.
  void clear() noexcept {
    std::fill(words_.begin(), words_.end(), 0);
    std::fill(summary_.begin(), summary_.end(), 0);
  }

  [[nodiscard]] bool empty() const noexcept {
    for (const std::uint64_t s : summary_) {
      if (s != 0) {
        return false;
      }
    }
    return true;
  }

  /// The lowest id in the set, or nullopt when it is empty.
  [[nodiscard]] std::optional<HostId> first() const noexcept {
    for (std::size_t s = 0; s < summary_.size(); ++s) {
      if (summary_[s] != 0) {
        const std::size_t w = s * 64 + static_cast<std::size_t>(std::countr_zero(summary_[s]));
        return static_cast<HostId>(w * 64 +
                                   static_cast<std::size_t>(std::countr_zero(words_[w])));
      }
    }
    return std::nullopt;
  }

  /// Call f(id) for every id in the set, lowest first. f may return bool:
  /// false stops the visit, and then for_each returns false. f must not
  /// modify this set.
  template <class F>
  bool for_each(F&& f) const {
    for (std::size_t s = 0; s < summary_.size(); ++s) {
      for (std::uint64_t live = summary_[s]; live != 0; live &= live - 1) {
        const std::size_t w = s * 64 + static_cast<std::size_t>(std::countr_zero(live));
        for (std::uint64_t word = words_[w]; word != 0; word &= word - 1) {
          const auto id = static_cast<HostId>(
              w * 64 + static_cast<std::size_t>(std::countr_zero(word)));
          if (!visit_continues(f, id)) {
            return false;
          }
        }
      }
    }
    return true;
  }

  /// for_each, highest id first.
  template <class F>
  bool for_each_descending(F&& f) const {
    for (std::size_t s = summary_.size(); s-- > 0;) {
      for (std::uint64_t live = summary_[s]; live != 0;) {
        const std::size_t top = 63 - static_cast<std::size_t>(std::countl_zero(live));
        live &= ~bit(top);
        const std::size_t w = s * 64 + top;
        for (std::uint64_t word = words_[w]; word != 0;) {
          const std::size_t high = 63 - static_cast<std::size_t>(std::countl_zero(word));
          word &= ~bit(high);
          if (!visit_continues(f, static_cast<HostId>(w * 64 + high))) {
            return false;
          }
        }
      }
    }
    return true;
  }

 private:
  static constexpr std::uint64_t bit(std::size_t i) noexcept {
    return std::uint64_t{1} << (i % 64);
  }

  /// Make word `w` addressable: the word count doubles (to a power of two
  /// covering `w`), the summary follows it.
  void grow(std::size_t w) {
    const std::size_t words = std::bit_ceil(w + 1);
    words_.resize(words, 0);
    summary_.resize((words + 63) / 64, 0);
  }

  std::vector<std::uint64_t> words_;
  std::vector<std::uint64_t> summary_;
};

}  // namespace slackvm::sched
