// The online verdict store: the bridge between the batch pipeline and the
// query service. After every pipeline step the step report is *published*
// into the store; HTTP handler threads then answer lookups against immutable
// snapshots without ever blocking the publisher (or being blocked by it).
//
// Concurrency design (epoch/RCU-style):
//  - Verdicts are sharded by client /24. Each shard is one immutable
//    util::FlatTable behind a SnapshotSlot (below). publish() builds a
//    replacement table only for the shards the step touched (a blame landed
//    there, or its oldest verdict aged out) and swaps the pointer. Readers
//    load the pointer once and query a frozen table — nothing is held
//    across the lookup, no torn reads, and a reader keeps its snapshot
//    alive for as long as it holds the pointer.
//  - Incident timelines, recent diagnoses, and health live in one
//    atomically-swapped Timeline snapshot, same scheme. Closed incidents
//    and diagnoses sit in append-only chunk logs (ChunkLog below), so a
//    publish shares every earlier item by pointer instead of copying it.
//  - publish() must be called from ONE thread at a time (the pipeline step
//    loop); every read API is safe from any number of threads concurrently
//    with publish(). The epoch counter increments once per publish, after
//    all shards are swapped, so `epoch` answers "has anything changed?"
//
// Verdict semantics: the store keeps the most recent blame per
// ⟨client /24, cloud location⟩, aged out after `verdict_retention_buckets`
// (a verdict is a statement about recent buckets, not history — history is
// the incident timeline's job). Confidence mapping: passive Cloud/Client
// verdicts are definite (High, §4.2's hierarchical elimination); Middle
// verdicts start Low (AS unknown) and adopt the active diagnosis's
// confidence and culprit when one lands; Ambiguous/Insufficient stay Low.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/active.h"
#include "core/pipeline.h"
#include "net/ipv4.h"
#include "obs/registry.h"
#include "store/snapshot.h"
#include "util/flat_table.h"
#include "util/time.h"

namespace blameit::svc {

/// An atomically-swappable shared_ptr slot. libstdc++'s
/// std::atomic<std::shared_ptr> guards its raw pointer with a lock bit
/// whose reader-side unlock is relaxed — a formal data race (and a
/// ThreadSanitizer report) even though it is benign on real hardware. This
/// slot does the same spin-lock dance with acquire/release on both sides,
/// so the happens-before edge TSan checks for actually exists. The lock is
/// held only to copy or swap one pointer (a refcount bump), so readers and
/// the publisher exclude each other for nanoseconds, never across a scan
/// of the snapshot itself.
template <typename T>
class SnapshotSlot {
 public:
  [[nodiscard]] std::shared_ptr<T> load() const {
    lock();
    std::shared_ptr<T> copy = ptr_;
    unlock();
    return copy;
  }

  void store(std::shared_ptr<T> next) {
    lock();
    ptr_.swap(next);
    unlock();
    // `next` now holds the displaced snapshot; it releases (and possibly
    // destroys the old map) outside the critical section.
  }

 private:
  void lock() const {
    while (flag_.test_and_set(std::memory_order_acquire)) {
      while (flag_.test(std::memory_order_relaxed)) {
      }
    }
  }
  void unlock() const { flag_.clear(std::memory_order_release); }

  mutable std::atomic_flag flag_;  // value-initialized clear since C++20
  std::shared_ptr<T> ptr_;
};

/// An append-only log of fixed-size chunks that readers share by pointer.
/// The single writer fills the tail chunk past the length of every View it
/// has handed out, so the items a View covers are never written again and
/// no item is ever copied to publish it. A ring bound advances a start
/// offset; a head chunk wholly behind it is dropped from the chunk list
/// (readers still holding it keep it alive). The chunk list itself is
/// replaced, never edited, once per kChunk appends or drops.
template <typename T>
class ChunkLog {
 public:
  static constexpr std::size_t kChunk = 64;

 private:
  struct Chunk {
    std::array<T, kChunk> items;
  };
  using ChunkList = std::vector<std::shared_ptr<Chunk>>;

 public:
  /// An immutable window of the log as of one publish, oldest item first.
  class View {
   public:
    [[nodiscard]] std::size_t size() const noexcept { return size_; }
    template <typename F>
    void for_each(F&& f) const {
      for (std::size_t i = start_; i < start_ + size_; ++i) {
        f(static_cast<const T&>((*chunks_)[i / kChunk]->items[i % kChunk]));
      }
    }

   private:
    friend class ChunkLog;
    std::shared_ptr<const ChunkList> chunks_;
    std::size_t start_ = 0;
    std::size_t size_ = 0;
  };

  void push_back(T item) {
    const std::size_t end = start_ + size_;
    if (end == chunks_->size() * kChunk) {  // tail full, or no chunk yet
      auto next = std::make_shared<ChunkList>(*chunks_);
      next->push_back(std::make_shared<Chunk>());
      chunks_ = std::move(next);
    }
    (*chunks_)[end / kChunk]->items[end % kChunk] = std::move(item);
    ++size_;
  }

  /// Drops the oldest items until at most `max` remain.
  void trim(std::size_t max) {
    if (size_ <= max) return;
    start_ += size_ - max;
    size_ = max;
    if (const std::size_t drop = start_ / kChunk; drop > 0) {
      chunks_ = std::make_shared<const ChunkList>(
          chunks_->begin() + static_cast<std::ptrdiff_t>(drop), chunks_->end());
      start_ -= drop * kChunk;
    }
  }

  [[nodiscard]] View view() const {
    View v;
    v.chunks_ = chunks_;
    v.start_ = start_;
    v.size_ = size_;
    return v;
  }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

 private:
  std::shared_ptr<const ChunkList> chunks_ =
      std::make_shared<const ChunkList>();
  std::size_t start_ = 0;  ///< first live item's index into the chunk list
  std::size_t size_ = 0;
};

/// One current blame verdict for a ⟨client /24, cloud location⟩ pair.
struct Verdict {
  net::Slash24 block;
  net::CloudLocationId location;
  net::MiddleSegmentId middle;
  net::AsId client_as;
  core::Blame blame{};
  /// Faulty AS when known: passive (cloud/client AS) or active (culprit).
  std::optional<net::AsId> faulty_as;
  core::DiagnosisConfidence confidence = core::DiagnosisConfidence::Low;
  /// The faulty AS came from an on-demand traceroute diagnosis.
  bool from_active = false;
  bool baseline_predates_issue = false;
  /// §13 degradation grade of the expectation this verdict compared
  /// against: fresh learned history, a churn-transferred baseline, or a
  /// cold-path probe measurement.
  core::BaselineGrade grade = core::BaselineGrade::Fresh;
  util::TimeBucket bucket;  ///< bucket the verdict was computed from
  double mean_rtt_ms = 0.0;
  int sample_count = 0;
};

/// One incident run on the timeline: consecutive buckets over which the
/// same aggregate (cloud location / ⟨location, BGP path⟩ / client AS) kept
/// drawing blame.
struct Incident {
  core::Blame category{};  ///< Cloud, Middle, or Client
  net::CloudLocationId location;
  std::optional<net::MiddleSegmentId> middle;  ///< Middle incidents only
  std::optional<net::AsId> faulty_as;
  util::MinuteTime first_seen;
  util::MinuteTime last_seen;
  int buckets = 0;  ///< bad buckets observed in the run
  bool open = true;
  /// Most-degraded §13 baseline grade any of the run's blames carried
  /// (Fresh < Transferred < ProbedCold): consumers see at a glance whether
  /// the incident's evidence leaned on inherited or probe-seeded baselines.
  core::BaselineGrade grade = core::BaselineGrade::Fresh;
};

/// An active-phase diagnosis with the step time it landed at.
struct DiagnosisRecord {
  util::MinuteTime at;
  core::ActiveDiagnosis diagnosis;
};

class VerdictStore {
 public:
  struct Config {
    /// Verdicts older than this many buckets (vs the newest published
    /// bucket) age out of lookup results. Default: one hour of buckets.
    int verdict_retention_buckets = 12;
    /// Closed incidents kept on the published timeline (newest win).
    std::size_t max_closed_incidents = 1024;
    /// Recent diagnoses kept for /v1/diagnoses (newest win).
    std::size_t max_diagnoses = 256;
    obs::Registry* registry = nullptr;
  };

  struct Health {
    std::uint64_t epoch = 0;  ///< 0 = nothing published yet
    util::MinuteTime last_step{0};
    std::uint64_t steps = 0;
    std::uint64_t degraded_steps = 0;
    /// The latest published step ran passive-only (probing outage).
    bool degraded = false;
  };

  VerdictStore() : VerdictStore(Config{}) {}
  explicit VerdictStore(Config config);

  /// Folds one step report into the store and swaps fresh snapshots in.
  /// Single-publisher: call from the pipeline step thread only.
  void publish(const core::StepReport& report);

  // ---- Read side: safe from any thread, wait-free vs the publisher. ----

  /// Current verdict for one ⟨/24, location⟩, if any is live.
  [[nodiscard]] std::optional<Verdict> lookup(
      net::Slash24 block, net::CloudLocationId location) const;

  /// All live verdicts for one /24 (any location), location-ordered.
  [[nodiscard]] std::vector<Verdict> lookup(net::Slash24 block) const;

  /// All live verdicts whose /24 falls inside `prefix` (full scan; meant
  /// for coarse operator queries, not the hot path). Ordered by block then
  /// location.
  [[nodiscard]] std::vector<Verdict> lookup(net::Prefix prefix) const;

  /// Incidents (open and closed) with last_seen >= since, in one total
  /// order: first_seen, then category, location, middle, faulty AS,
  /// last_seen (and the remaining fields), so equal stores answer equally.
  [[nodiscard]] std::vector<Incident> incidents_since(
      util::MinuteTime since) const;

  /// Most recent active-phase diagnoses, oldest first.
  [[nodiscard]] std::vector<DiagnosisRecord> recent_diagnoses() const;

  [[nodiscard]] Health health() const;
  [[nodiscard]] std::uint64_t epoch() const noexcept {
    return epoch_.load(std::memory_order_acquire);
  }
  [[nodiscard]] const Config& config() const noexcept { return config_; }

  /// Heap bytes of the published verdict tables: every shard's slot array
  /// and value array at their allocated capacity (excludes the incident and
  /// diagnosis logs and the publisher's per-step scratch). Publisher-thread
  /// only.
  [[nodiscard]] std::size_t verdict_state_bytes() const;

  /// Writes the full store state as snapshot section "verdicts" (verdict
  /// rows in a key-sorted column-major normal form, plus incident runs,
  /// diagnosis ring, and health counters). Publisher-thread only.
  void save_state(store::SnapshotWriter& writer) const;
  /// Replaces the store state from a snapshot and republishes reader
  /// snapshots. Publisher-thread only; concurrent readers see either the old
  /// or the fully-restored state per shard.
  void restore_state(const store::SnapshotReader& reader);

 private:
  using Key = std::uint64_t;  // block << 16 | location
  static constexpr std::size_t kShards = 8;
  using ShardTable = util::FlatTable<Verdict>;
  using ShardPtr = std::shared_ptr<const ShardTable>;
  static constexpr std::int64_t kNoBucket =
      std::numeric_limits<std::int64_t>::max();

  /// Everything non-sharded, swapped as one snapshot.
  struct Timeline {
    ChunkLog<Incident>::View closed;  ///< oldest first
    std::vector<Incident> open;       ///< the open runs
    ChunkLog<DiagnosisRecord>::View diagnoses;
    Health health;
  };

  /// Where this step's diagnoses of one ⟨location, middle⟩ sit in the
  /// report (-1 = none).
  struct DiagnosisIndex {
    std::int32_t last = -1;
    std::int32_t last_with_culprit = -1;
    bool probed_cold = false;
  };

  /// One ⟨bucket, incident run⟩ of this step, deduped as blames are read.
  struct RunEntry {
    std::int64_t bucket = 0;
    std::uint64_t key = 0;
    Incident proto;  ///< template used when the run opens
    std::uint32_t next = 0;  ///< same run key's previous entry, or kNone
    bool matched = false;    ///< extended an open run
  };

  [[nodiscard]] static constexpr Key key_of(
      net::Slash24 block, net::CloudLocationId location) noexcept {
    return (static_cast<Key>(block.block) << 16) | location.value;
  }
  [[nodiscard]] std::size_t shard_of(net::Slash24 block) const noexcept {
    // Blocks are allocated densely; splitmix-style scramble spreads them.
    std::uint64_t x = block.block;
    x ^= x >> 16;
    x *= 0x45d9f3b;
    return static_cast<std::size_t>(x) % kShards;
  }

  void index_diagnoses(const core::StepReport& report);
  [[nodiscard]] Verdict make_verdict(const core::StepReport& report,
                                     const core::BlameResult& b) const;
  void fold_blames(const core::StepReport& report);
  /// Publishes shard `s` rebuilt as its old table's survivors (newer than
  /// `horizon`, not overwritten this step) plus this step's upserts.
  void rebuild_shard(std::size_t s, const core::StepReport& report,
                     std::int64_t horizon);
  void fold_incidents(const core::StepReport& report);
  /// Swaps in a Timeline of the current incident runs and diagnoses.
  void publish_timeline(const Health& health);
  void install_shard(std::size_t s, ShardPtr table);

  Config config_;

  // Publisher-private state (only the publish thread touches it).
  std::array<ShardPtr, kShards> published_{};  ///< what each slot holds
  std::array<std::int64_t, kShards> oldest_{};  ///< per shard, or kNoBucket
  util::TimeBucket newest_bucket_{0};

  struct OpenRun {
    Incident incident;
    util::TimeBucket last_bucket{0};
  };
  // Iteration order decides the order runs close in (and so the serialized
  // closed log), which is why this stays a std::unordered_map fed in the
  // same order as ever.
  std::unordered_map<Key, OpenRun> open_runs_;  // keyed by packed run key
  ChunkLog<Incident> closed_;                   // bounded history
  ChunkLog<DiagnosisRecord> diagnoses_;         // bounded ring
  std::uint64_t steps_ = 0;
  std::uint64_t degraded_steps_ = 0;

  // Per-step scratch, reused across publishes.
  util::FlatTable<DiagnosisIndex> diag_index_;  ///< by middle run key
  std::array<std::vector<std::uint32_t>, kShards> upserts_{};  ///< blame idx
  util::FlatTable<std::uint32_t> shard_step_;  ///< one shard's key -> blame
  std::vector<std::uint32_t> survivors_;       ///< old-table positions
  util::FlatTable<std::uint32_t> run_heads_;   ///< run key -> newest entry
  std::vector<RunEntry> runs_;
  std::vector<std::uint32_t> run_order_;       ///< runs_ by ⟨bucket, key⟩

  // Shared state (publisher swaps, readers load).
  std::array<SnapshotSlot<const ShardTable>, kShards> shards_;
  SnapshotSlot<const Timeline> timeline_;
  std::atomic<std::uint64_t> epoch_{0};

  // Instruments (null without a registry).
  obs::Counter* publishes_c_ = nullptr;
  obs::Gauge* verdicts_g_ = nullptr;
  obs::Gauge* open_incidents_g_ = nullptr;
  obs::Histogram* publish_ms_h_ = nullptr;
  obs::Counter* lookups_c_ = nullptr;
};

}  // namespace blameit::svc
