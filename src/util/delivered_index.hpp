/// \file delivered_index.hpp
/// Delivered-dedup index for one sender's seq stream, compressed to a
/// watermark: every seq below \c floor is delivered, and out-of-order
/// deliveries wait in \c beyond until the gap fills and the prefix
/// collapses into the floor. In-order traffic is allocation-net-zero: the
/// set node inserted per delivery is freed by the very next collapse.
///
/// The index shrinks only as local delivery fills gaps. Pruning it by
/// stability instead is unsafe for an ordering layer, because a message
/// received everywhere may still appear in a later decision.
#pragma once

#include <cstddef>
#include <cstdint>
#include <set>

namespace gcs {

struct DeliveredIndex {
  std::uint64_t floor = 0;
  std::set<std::uint64_t> beyond;

  bool contains(std::uint64_t seq) const { return seq < floor || beyond.count(seq) != 0; }

  /// Record \p seq as delivered; false if it already was.
  bool insert(std::uint64_t seq) {
    if (seq < floor) return false;
    if (seq > floor) return beyond.insert(seq).second;
    ++floor;
    collapse();
    return true;
  }

  /// Record every seq below \p to as delivered (a watermark learned from
  /// elsewhere, e.g. a stability floor or a donor's snapshot).
  void advance_floor(std::uint64_t to) {
    if (to <= floor) return;
    floor = to;
    beyond.erase(beyond.begin(), beyond.lower_bound(floor));
    collapse();
  }

  std::size_t size() const { return beyond.size(); }

 private:
  // Fold the contiguous run waiting just above the floor into it.
  void collapse() {
    auto it = beyond.begin();
    while (it != beyond.end() && *it == floor) {
      it = beyond.erase(it);
      ++floor;
    }
  }
};

}  // namespace gcs
