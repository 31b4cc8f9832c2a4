#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>
#include <mutex>
#include <vector>

namespace dpn::dist {

/// Thread-safe list of weak references.
///
/// A NodeContext keeps one per kind of object it must reach later without
/// keeping it alive: remote streams to abort and consumer segments to
/// grant bonus credits to, filled with add() and walked with live().
///
/// Pruning policy: expired entries are erased only when an insert brings
/// the entry count up to the prune threshold, which is then reset to
/// twice the number of entries that survived (never below kMinPrune).  A
/// sweep over P entries is therefore preceded by at least P/2 inserts
/// since the last one, so an insert costs O(1) amortized, and the
/// registry never stores more than max(kMinPrune, 2 * L) entries, where L
/// is the number that were live at the last sweep.
template <typename T>
class WeakRegistry {
 public:
  static constexpr std::size_t kMinPrune = 16;

  void add(const std::shared_ptr<T>& value) {
    std::scoped_lock lock{mutex_};
    entries_.push_back(value);
    if (entries_.size() < prune_at_) return;
    std::erase_if(entries_,
                  [](const std::weak_ptr<T>& entry) { return entry.expired(); });
    prune_at_ = std::max(kMinPrune, 2 * entries_.size());
  }

  /// Strong references to every live entry, so the caller can act on
  /// them without holding the registry's lock.
  std::vector<std::shared_ptr<T>> live() const {
    std::vector<std::shared_ptr<T>> out;
    std::scoped_lock lock{mutex_};
    out.reserve(entries_.size());
    for (const auto& entry : entries_) {
      if (auto value = entry.lock()) out.push_back(std::move(value));
    }
    return out;
  }

  /// Entries currently stored, expired ones included.
  std::size_t stored() const {
    std::scoped_lock lock{mutex_};
    return entries_.size();
  }

 private:
  mutable std::mutex mutex_;
  std::vector<std::weak_ptr<T>> entries_;
  std::size_t prune_at_ = kMinPrune;
};

}  // namespace dpn::dist
