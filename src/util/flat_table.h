// Open-addressing (linear probing) map from a 64-bit key to a V, with the
// values stored densely in insertion order, so a value's position is a
// stable small integer for as long as the fill lasts.
//
// Built to be reused: clear() is O(1) (slots from earlier fills go stale by
// epoch), and the slot array only grows, at load <= 1/2, to fit the most
// keys one fill has held. There is no erase; a caller that drops keys
// rebuilds the table (clear, then re-insert the survivors).
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace blameit::util {

template <typename V>
class FlatTable {
 public:
  static constexpr std::uint32_t kAbsent = ~std::uint32_t{0};

  /// Forgets every key in O(1); the slot array keeps its size.
  void clear() {
    values_.clear();
    if (++epoch_ == 0) {  // wrapped: old stamps could read as live
      for (auto& slot : slots_) slot.epoch = 0;
      epoch_ = 1;
    }
  }

  /// Makes room for `n` keys, so the next `n` inserts allocate nothing: at
  /// most one slot-array and one value-array allocation.
  void reserve(std::size_t n) {
    values_.reserve(n);
    if (2 * n > slots_.size()) rehash(std::bit_ceil(2 * n));
  }

  /// Position of `key`'s value; a new key gets a default value (and true).
  std::pair<std::uint32_t, bool> insert(std::uint64_t key) {
    if (2 * (values_.size() + 1) > slots_.size()) grow();
    Slot& slot = slots_[probe(key)];
    if (slot.epoch == epoch_) return {slot.pos, false};
    slot = Slot{key, static_cast<std::uint32_t>(values_.size()), epoch_};
    values_.emplace_back();
    return {slot.pos, true};
  }

  /// Position of `key`'s value, or kAbsent.
  [[nodiscard]] std::uint32_t find(std::uint64_t key) const {
    if (slots_.empty()) return kAbsent;
    const Slot& slot = slots_[probe(key)];
    return slot.epoch == epoch_ ? slot.pos : kAbsent;
  }

  V& operator[](std::uint32_t pos) { return values_[pos]; }
  const V& operator[](std::uint32_t pos) const { return values_[pos]; }

  [[nodiscard]] std::size_t size() const noexcept { return values_.size(); }

  /// Heap bytes held: the slot array and the value array's capacity.
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return slots_.capacity() * sizeof(Slot) + values_.capacity() * sizeof(V);
  }

  /// Every value, by position (= insertion order).
  [[nodiscard]] std::span<V> values() noexcept { return values_; }
  [[nodiscard]] std::span<const V> values() const noexcept { return values_; }

 private:
  struct Slot {
    std::uint64_t key = 0;
    std::uint32_t pos = 0;
    std::uint32_t epoch = 0;  ///< live iff equal to the table's epoch_
  };

  /// Index of the live slot holding `key`, else of the free slot where it
  /// belongs. Fibonacci hashing (the top bits of key * 2^64/φ), then linear
  /// probing.
  [[nodiscard]] std::size_t probe(std::uint64_t key) const {
    auto i = static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ULL) >> shift_);
    while (slots_[i].epoch == epoch_ && slots_[i].key != key) {
      i = (i + 1) & (slots_.size() - 1);
    }
    return i;
  }

  void grow() { rehash(slots_.empty() ? 64 : 2 * slots_.size()); }

  void rehash(std::size_t n_slots) {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(n_slots, Slot{});
    shift_ = 64 - std::countr_zero(slots_.size());
    for (const Slot& slot : old) {
      if (slot.epoch == epoch_) slots_[probe(slot.key)] = slot;
    }
  }

  std::vector<Slot> slots_;  ///< power-of-two size
  std::vector<V> values_;
  std::uint32_t epoch_ = 1;
  int shift_ = 64;

  friend struct FlatTableTestPeer;  ///< starts a test near the epoch wrap
};

}  // namespace blameit::util
