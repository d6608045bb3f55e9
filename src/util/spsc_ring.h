// Fixed-capacity single-producer/single-consumer ring buffer — the lock-free
// record handoff under the ingest engine (one ring per producer→shard pair).
//
// Layout and ordering:
//  - Power-of-two capacity; `tail_` (producer-owned) and `head_`
//    (consumer-owned) are monotonically increasing item sequence numbers on
//    their own cache lines, so the two sides never false-share. Each side
//    keeps a cached copy of the other's index and refreshes it only when the
//    cached view says "full"/"empty" — the common-case push/pop touches no
//    foreign cache line at all.
//  - Publication is a release store of `tail_` (producer) / `head_`
//    (consumer) after the slots are written/consumed; the other side pairs
//    it with an acquire load. Bulk push/pop moves a whole span per index
//    store, which is what makes batched record blocks cheap.
//
// Backpressure is spin-then-park: a full push (or empty blocking pop) spins
// with a pause ladder, then parks on a mutex/condvar. The park wait is
// bounded (it re-checks every few milliseconds), so a lost wakeup in the
// flag/notify race costs one interval, never a deadlock — correctness does
// not depend on the doorbell. Parks are counted on both sides; they are the
// ring's backpressure signal.
//
// close() is the shutdown valve: it stops admission (push_all drops the
// remainder and counts it), wakes both sides, and lets the consumer keep
// draining what was already published. wake() is a spurious consumer wakeup
// used by side channels ("a control message is waiting"): pop_wait returns 0
// so the caller can poll its other sources.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

namespace blameit::util {

/// What happened to a push_all(): completed without stalling, completed but
/// parked at least once (backpressure), or hit a closed ring (the remainder
/// was dropped and counted).
enum class RingPush : std::uint8_t { Ok, OkAfterParking, Closed };

namespace detail {
inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#else
  std::this_thread::yield();
#endif
}
}  // namespace detail

template <typename T>
class SpscRing {
 public:
  /// Capacity is rounded up to a power of two (minimum 2). `spin_limit` is
  /// the number of pause iterations before a stalled side parks.
  explicit SpscRing(std::size_t min_capacity, std::size_t spin_limit = 256)
      : spin_limit_(spin_limit) {
    std::size_t cap = 2;
    while (cap < min_capacity) cap <<= 1;
    mask_ = cap - 1;
    slots_ = std::make_unique<T[]>(cap);
  }

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  [[nodiscard]] std::size_t capacity() const noexcept { return mask_ + 1; }

  // ---- producer side (one thread) ----

  /// Moves as many of items[0..n) into the ring as fit right now; returns
  /// how many. Never blocks. Admits nothing once closed.
  std::size_t try_push(T* items, std::size_t n) {
    if (n == 0 || closed_.load(std::memory_order_acquire)) return 0;
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    std::size_t free = capacity() - static_cast<std::size_t>(tail - head_cache_);
    if (free < n) {
      head_cache_ = head_.load(std::memory_order_acquire);
      free = capacity() - static_cast<std::size_t>(tail - head_cache_);
      if (free == 0) return 0;
    }
    const std::size_t count = n < free ? n : free;
    for (std::size_t i = 0; i < count; ++i) {
      slots_[static_cast<std::size_t>(tail + i) & mask_] = std::move(items[i]);
    }
    tail_.store(tail + count, std::memory_order_release);
    const auto size = static_cast<std::size_t>(tail + count - head_cache_);
    if (size > high_water_.load(std::memory_order_relaxed)) {
      high_water_.store(size, std::memory_order_relaxed);
    }
    if (consumer_parked_.load(std::memory_order_relaxed)) notify();
    return count;
  }

  /// Pushes ALL n items, spinning then parking while the ring is full. If
  /// the ring is closed (before or during the wait) the not-yet-pushed
  /// remainder is dropped and counted in dropped_after_close().
  RingPush push_all(T* items, std::size_t n) {
    std::size_t done = 0;
    std::size_t spins = 0;
    bool parked = false;
    while (done < n) {
      if (closed_.load(std::memory_order_acquire)) {
        dropped_after_close_.fetch_add(n - done, std::memory_order_relaxed);
        return RingPush::Closed;
      }
      const std::size_t k = try_push(items + done, n - done);
      done += k;
      if (k > 0) {
        spins = 0;
      } else if (++spins <= spin_limit_) {
        detail::cpu_relax();
      } else {
        park_producer();
        parked = true;
        spins = 0;
      }
    }
    return parked ? RingPush::OkAfterParking : RingPush::Ok;
  }

  // ---- consumer side (one thread) ----

  /// Moves up to `max` items into out[]; returns how many (0 = empty).
  std::size_t try_pop(T* out, std::size_t max) {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    std::size_t avail = static_cast<std::size_t>(tail_cache_ - head);
    if (avail == 0) {
      tail_cache_ = tail_.load(std::memory_order_acquire);
      avail = static_cast<std::size_t>(tail_cache_ - head);
      if (avail == 0) return 0;
    }
    const std::size_t count = max < avail ? max : avail;
    for (std::size_t i = 0; i < count; ++i) {
      out[i] = std::move(slots_[static_cast<std::size_t>(head + i) & mask_]);
    }
    head_.store(head + count, std::memory_order_release);
    if (producer_parked_.load(std::memory_order_relaxed)) notify();
    return count;
  }

  /// Blocks (spin, then park) until items arrive, wake() is rung, or the
  /// ring is closed and drained. Returns the number popped; 0 means "no
  /// data" — check closed() / your side channel and call again.
  std::size_t pop_wait(T* out, std::size_t max) {
    std::size_t spins = 0;
    for (;;) {
      const std::size_t n = try_pop(out, max);
      if (n > 0) return n;
      if (wake_pending_.exchange(false, std::memory_order_acq_rel)) return 0;
      if (closed_.load(std::memory_order_acquire)) {
        // Closed: one more drain attempt covers a push that raced close.
        return try_pop(out, max);
      }
      if (++spins <= spin_limit_) {
        detail::cpu_relax();
      } else {
        park_consumer();
        spins = 0;
      }
    }
  }

  // ---- either side ----

  /// Spurious consumer wakeup: the next (or current) pop_wait returns 0
  /// once, so the caller can service a side channel.
  void wake() {
    wake_pending_.store(true, std::memory_order_release);
    if (consumer_parked_.load(std::memory_order_relaxed)) notify();
  }

  /// Stops admission and wakes both sides; already-published items remain
  /// poppable. Idempotent.
  void close() {
    closed_.store(true, std::memory_order_release);
    notify();
  }

  [[nodiscard]] bool closed() const noexcept {
    return closed_.load(std::memory_order_acquire);
  }
  /// Items ever published / consumed (monotone sequence numbers).
  [[nodiscard]] std::uint64_t pushed() const noexcept {
    return tail_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t popped() const noexcept {
    return head_.load(std::memory_order_relaxed);
  }
  /// Instantaneous occupancy; approximate while both sides run.
  [[nodiscard]] std::size_t size() const noexcept {
    return static_cast<std::size_t>(tail_.load(std::memory_order_acquire) -
                                    head_.load(std::memory_order_acquire));
  }
  [[nodiscard]] std::size_t high_water() const noexcept {
    return high_water_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t producer_parks() const noexcept {
    return producer_parks_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t consumer_parks() const noexcept {
    return consumer_parks_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t dropped_after_close() const noexcept {
    return dropped_after_close_.load(std::memory_order_relaxed);
  }

 private:
  /// Bounded park interval: a lost doorbell wakeup self-heals within one
  /// interval, so no flag/notify interleaving can deadlock the ring.
  static constexpr auto kParkInterval = std::chrono::milliseconds(2);

  void park_producer() {
    producer_parks_.fetch_add(1, std::memory_order_relaxed);
    std::unique_lock lock{mutex_};
    producer_parked_.store(true, std::memory_order_relaxed);
    cv_.wait_for(lock, kParkInterval, [&] {
      return closed_.load(std::memory_order_relaxed) ||
             static_cast<std::size_t>(tail_.load(std::memory_order_relaxed) -
                                      head_.load(std::memory_order_acquire)) <
                 capacity();
    });
    producer_parked_.store(false, std::memory_order_relaxed);
  }

  void park_consumer() {
    consumer_parks_.fetch_add(1, std::memory_order_relaxed);
    std::unique_lock lock{mutex_};
    consumer_parked_.store(true, std::memory_order_relaxed);
    cv_.wait_for(lock, kParkInterval, [&] {
      return closed_.load(std::memory_order_relaxed) ||
             wake_pending_.load(std::memory_order_relaxed) ||
             tail_.load(std::memory_order_acquire) !=
                 head_.load(std::memory_order_relaxed);
    });
    consumer_parked_.store(false, std::memory_order_relaxed);
  }

  void notify() {
    std::lock_guard lock{mutex_};
    cv_.notify_all();
  }

  std::size_t mask_ = 0;
  std::size_t spin_limit_;
  std::unique_ptr<T[]> slots_;

  // Producer-owned line: tail plus the producer's cached view of head.
  alignas(64) std::atomic<std::uint64_t> tail_{0};
  std::uint64_t head_cache_ = 0;

  // Consumer-owned line.
  alignas(64) std::atomic<std::uint64_t> head_{0};
  std::uint64_t tail_cache_ = 0;

  // Shared, rarely-touched state (parking, shutdown, stats).
  alignas(64) std::atomic<bool> closed_{false};
  std::atomic<bool> wake_pending_{false};
  std::atomic<bool> producer_parked_{false};
  std::atomic<bool> consumer_parked_{false};
  std::atomic<std::size_t> high_water_{0};
  std::atomic<std::uint64_t> producer_parks_{0};
  std::atomic<std::uint64_t> consumer_parks_{0};
  std::atomic<std::uint64_t> dropped_after_close_{0};
  std::mutex mutex_;
  std::condition_variable cv_;
};

}  // namespace blameit::util
