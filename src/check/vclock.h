#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace stencil::check {

/// Logical thread id inside the checker's happens-before graph. Host actors,
/// streams, MPI requests, and barrier generations each get their own id.
using Tid = std::uint32_t;

/// A sparse vector clock over checker Tids. Components default to 0;
/// entries are kept sorted by tid, so get/set are binary searches and
/// join/leq are linear merges. A clock names only the threads its holder
/// descends from, which is why sparse beats a dense vector indexed by every
/// stream and request ever created.
class VClock {
 public:
  std::uint64_t get(Tid t) const {
    auto it = lower_bound(t);
    return it != c_.end() && it->first == t ? it->second : 0;
  }

  /// `v` must be nonzero: only nonzero components are stored, and leq() relies on it.
  void set(Tid t, std::uint64_t v) {
    auto it = lower_bound(t);
    if (it != c_.end() && it->first == t) {
      it->second = v;
    } else {
      c_.insert(it, {t, v});
    }
  }

  /// Advance this thread's own component and return the new epoch.
  std::uint64_t bump(Tid t) {
    auto it = lower_bound(t);
    if (it != c_.end() && it->first == t) return ++it->second;
    c_.insert(it, {t, 1});
    return 1;
  }

  /// Pointwise maximum: *this |= other.
  void join(const VClock& other) {
    if (other.c_.empty()) return;
    Entries merged;
    merged.reserve(c_.size() + other.c_.size());
    auto a = c_.begin();
    auto b = other.c_.begin();
    while (a != c_.end() && b != other.c_.end()) {
      if (a->first < b->first) {
        merged.push_back(*a++);
      } else if (b->first < a->first) {
        merged.push_back(*b++);
      } else {
        merged.push_back({a->first, std::max(a->second, b->second)});
        ++a;
        ++b;
      }
    }
    merged.insert(merged.end(), a, c_.end());
    merged.insert(merged.end(), b, other.c_.end());
    c_ = std::move(merged);
  }

  /// True when *this <= other pointwise (this clock's knowledge is contained
  /// in other's: everything ordered before *this is ordered before other).
  bool leq(const VClock& other) const {
    auto b = other.c_.begin();
    for (const auto& [tid, v] : c_) {
      while (b != other.c_.end() && b->first < tid) ++b;
      if (b == other.c_.end() || b->first != tid || b->second < v) return false;
    }
    return true;
  }

  bool empty() const { return c_.empty(); }

  std::string str() const {
    std::string s = "{";
    for (std::size_t i = 0; i < c_.size(); ++i) {
      if (i != 0) s += ", ";
      s += std::to_string(c_[i].first) + ":" + std::to_string(c_[i].second);
    }
    return s + "}";
  }

 private:
  using Entries = std::vector<std::pair<Tid, std::uint64_t>>;

  static bool tid_less(const std::pair<Tid, std::uint64_t>& e, Tid t) { return e.first < t; }
  Entries::iterator lower_bound(Tid t) {
    return std::lower_bound(c_.begin(), c_.end(), t, tid_less);
  }
  Entries::const_iterator lower_bound(Tid t) const {
    return std::lower_bound(c_.begin(), c_.end(), t, tid_less);
  }

  Entries c_;
};

/// One recorded access for the FastTrack-style ordering test: the access was
/// performed "at" epoch `epoch` of thread `tid`. A later access B
/// happens-after access A iff B's clock contains A's epoch:
/// A.epoch <= B.clock[A.tid]. A's own clock is never needed.
struct Epoch {
  Tid tid = 0;
  std::uint64_t epoch = 0;

  bool ordered_before(const VClock& later) const { return epoch <= later.get(tid); }
};

}  // namespace stencil::check
