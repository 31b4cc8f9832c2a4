#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

namespace dpn::dist {

/// Thread-safe collection of weak references.
///
/// A NodeContext keeps one per kind of object it must reach later without
/// keeping it alive: remote streams to abort and consumer segments to
/// grant bonus credits to (plain lists, filled with add() and walked with
/// live()), and producer segments a CLOSE names by token (Keyed = true,
/// filled with insert() and emptied with take()).
///
/// Pruning policy: expired entries are erased only when an insert brings
/// the entry count up to the prune threshold, which is then reset to
/// twice the number of entries that survived (never below kMinPrune).  A
/// sweep over P entries is therefore preceded by at least P/2 inserts
/// since the last one, so an insert costs O(1) amortized, and the
/// registry never stores more than max(kMinPrune, 2 * L) entries, where L
/// is the number that were live at the last sweep.
template <typename T, bool Keyed = false>
class WeakRegistry {
 public:
  static constexpr std::size_t kMinPrune = 16;

  /// Registers `value`.  Unkeyed registries only.
  void add(const std::shared_ptr<T>& value) {
    static_assert(!Keyed, "a keyed WeakRegistry is filled with insert()");
    std::scoped_lock lock{mutex_};
    entries_.push_back(value);
    prune_if_due_locked();
  }

  /// Registers `value` under `key`, replacing any earlier entry.  Keyed
  /// registries only.
  void insert(std::uint64_t key, const std::shared_ptr<T>& value) {
    static_assert(Keyed, "an unkeyed WeakRegistry is filled with add()");
    std::scoped_lock lock{mutex_};
    entries_.insert_or_assign(key, value);
    prune_if_due_locked();
  }

  /// Removes the entry for `key`; returns its object if it is still alive.
  std::shared_ptr<T> take(std::uint64_t key) {
    static_assert(Keyed, "an unkeyed WeakRegistry has no keys");
    std::scoped_lock lock{mutex_};
    const auto it = entries_.find(key);
    if (it == entries_.end()) return nullptr;
    std::shared_ptr<T> value = it->second.lock();
    entries_.erase(it);
    return value;
  }

  /// Strong references to every live entry, so the caller can act on
  /// them without holding the registry's lock.
  std::vector<std::shared_ptr<T>> live() const {
    std::vector<std::shared_ptr<T>> out;
    std::scoped_lock lock{mutex_};
    out.reserve(entries_.size());
    for (const auto& entry : entries_) {
      if (auto value = weak(entry).lock()) out.push_back(std::move(value));
    }
    return out;
  }

  /// Entries currently stored, expired ones included.
  std::size_t stored() const {
    std::scoped_lock lock{mutex_};
    return entries_.size();
  }

 private:
  using Weak = std::weak_ptr<T>;
  using Entries = std::conditional_t<Keyed,
                                     std::unordered_map<std::uint64_t, Weak>,
                                     std::vector<Weak>>;

  static const Weak& weak(const Weak& entry) { return entry; }
  static const Weak& weak(const std::pair<const std::uint64_t, Weak>& entry) {
    return entry.second;
  }

  void prune_if_due_locked() {
    if (entries_.size() < prune_at_) return;
    std::erase_if(entries_,
                  [](const auto& entry) { return weak(entry).expired(); });
    prune_at_ = std::max(kMinPrune, 2 * entries_.size());
  }

  mutable std::mutex mutex_;
  Entries entries_;
  std::size_t prune_at_ = kMinPrune;
};

}  // namespace dpn::dist
