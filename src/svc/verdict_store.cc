#include "svc/verdict_store.h"

#include <algorithm>
#include <stdexcept>
#include <tuple>

namespace blameit::svc {

namespace {

// Packed identity of an incident run. Top 2 bits select the category so
// cloud/middle/client runs never collide.
constexpr std::uint64_t cloud_run_key(net::CloudLocationId loc) noexcept {
  return (std::uint64_t{1} << 62) | loc.value;
}
constexpr std::uint64_t middle_run_key(net::CloudLocationId loc,
                                       net::MiddleSegmentId mid) noexcept {
  return (std::uint64_t{2} << 62) | (std::uint64_t{loc.value} << 32) |
         mid.value;
}
constexpr std::uint64_t client_run_key(net::AsId as) noexcept {
  return (std::uint64_t{3} << 62) | as.value;
}

constexpr std::uint32_t kNone = ~std::uint32_t{0};

// Smallest encodings, for bounding declared counts by the bytes left: a
// verdict row is 17 bytes (nine 1-byte fields and one f64 across the
// columns), an open run 17 (u64 key, eight 1-byte incident fields, bucket),
// a closed incident 8, a diagnosis 29 (thirteen 1-byte fields, hop count
// included, and two f64s).
constexpr std::size_t kMinRowBytes = 17;
constexpr std::size_t kMinOpenRunBytes = 17;
constexpr std::size_t kMinIncidentBytes = 8;
constexpr std::size_t kMinDiagnosisBytes = 29;

/// The total order incidents are answered in (see incidents_since).
auto incident_rank(const Incident& inc) {
  return std::make_tuple(inc.first_seen, inc.category, inc.location,
                         inc.middle, inc.faulty_as, inc.last_seen,
                         inc.buckets, inc.grade, inc.open);
}

void put_incident(std::string& out, const Incident& inc) {
  store::put_varint(out, static_cast<std::uint64_t>(inc.category));
  store::put_varint(out, inc.location.value);
  store::put_varint(out, inc.middle ? inc.middle->value + std::uint64_t{1} : 0);
  store::put_varint(out,
                    inc.faulty_as ? inc.faulty_as->value + std::uint64_t{1} : 0);
  store::put_svarint(out, inc.first_seen.minutes);
  store::put_svarint(out, inc.last_seen.minutes);
  store::put_svarint(out, inc.buckets);
  store::put_varint(out, inc.open ? 1 : 0);
  store::put_varint(out, static_cast<std::uint64_t>(inc.grade));
}

/// `format` is the enclosing verdicts payload format: the §13 grade byte
/// exists from format 2 on (format-1 snapshots predate grades — Fresh).
Incident read_incident(store::ByteReader& in, std::uint64_t format) {
  Incident inc;
  const std::uint64_t category = in.varint();
  if (category > static_cast<std::uint64_t>(core::Blame::Client)) {
    in.fail("incident category out of range");
  }
  inc.category = static_cast<core::Blame>(category);
  inc.location.value = static_cast<std::uint16_t>(in.varint());
  if (const std::uint64_t mid = in.varint(); mid != 0) {
    inc.middle = net::MiddleSegmentId{static_cast<std::uint32_t>(mid - 1)};
  }
  if (const std::uint64_t as = in.varint(); as != 0) {
    inc.faulty_as = net::AsId{static_cast<std::uint32_t>(as - 1)};
  }
  inc.first_seen.minutes = in.svarint();
  inc.last_seen.minutes = in.svarint();
  inc.buckets = static_cast<int>(in.svarint());
  inc.open = in.varint() != 0;
  if (format >= 2) {
    const std::uint64_t grade = in.varint();
    if (grade > 2) in.fail("incident grade out of range");
    inc.grade = static_cast<core::BaselineGrade>(grade);
  }
  return inc;
}

void put_diagnosis(std::string& out, const DiagnosisRecord& record) {
  const core::ActiveDiagnosis& d = record.diagnosis;
  store::put_svarint(out, record.at.minutes);
  store::put_varint(out, d.location.value);
  store::put_varint(out, d.middle.value);
  // Bits 6-7 carry the §13 grade; format-1 snapshots never set them, so a
  // zero there decodes to Fresh with no format gate needed.
  const std::uint64_t bits =
      (d.probe_reached ? 1u : 0u) | (d.have_baseline ? 2u : 0u) |
      (d.baseline_predates_issue ? 4u : 0u) | (d.baseline_stale ? 8u : 0u) |
      (d.truncated ? 16u : 0u) | (d.coarse_middle ? 32u : 0u) |
      (static_cast<std::uint64_t>(d.grade) << 6);
  store::put_varint(out, bits);
  store::put_varint(out,
                    d.culprit ? d.culprit->value + std::uint64_t{1} : 0);
  store::put_f64(out, d.culprit_increase_ms);
  store::put_varint(out, static_cast<std::uint64_t>(d.confidence));
  store::put_svarint(out, d.probes_spent);
  store::put_svarint(out, d.retries);
  const sim::TracerouteResult& p = d.probe;
  store::put_varint(out, p.from.value);
  store::put_varint(out, p.target.block);
  store::put_svarint(out, p.time.minutes);
  store::put_f64(out, p.cloud_ms);
  const std::uint64_t pbits = (p.reached ? 1u : 0u) | (p.truncated ? 2u : 0u) |
                              (p.lost ? 4u : 0u) | (p.no_route ? 8u : 0u) |
                              (p.in_outage ? 16u : 0u);
  store::put_varint(out, pbits);
  store::put_varint(out, p.hops.size());
  for (const sim::TracerouteHop& hop : p.hops) {
    store::put_varint(out, hop.as.value);
    store::put_f64(out, hop.cumulative_rtt_ms);
  }
}

DiagnosisRecord read_diagnosis(store::ByteReader& in) {
  DiagnosisRecord record;
  core::ActiveDiagnosis& d = record.diagnosis;
  record.at.minutes = in.svarint();
  d.location.value = static_cast<std::uint16_t>(in.varint());
  d.middle.value = static_cast<std::uint32_t>(in.varint());
  const std::uint64_t bits = in.varint();
  d.probe_reached = (bits & 1) != 0;
  d.have_baseline = (bits & 2) != 0;
  d.baseline_predates_issue = (bits & 4) != 0;
  d.baseline_stale = (bits & 8) != 0;
  d.truncated = (bits & 16) != 0;
  d.coarse_middle = (bits & 32) != 0;
  if (((bits >> 6) & 3) > 2) in.fail("diagnosis grade out of range");
  d.grade = static_cast<core::BaselineGrade>((bits >> 6) & 3);
  if (const std::uint64_t as = in.varint(); as != 0) {
    d.culprit = net::AsId{static_cast<std::uint32_t>(as - 1)};
  }
  d.culprit_increase_ms = in.f64();
  const std::uint64_t confidence = in.varint();
  if (confidence > static_cast<std::uint64_t>(core::DiagnosisConfidence::Low)) {
    in.fail("diagnosis confidence out of range");
  }
  d.confidence = static_cast<core::DiagnosisConfidence>(confidence);
  d.probes_spent = static_cast<int>(in.svarint());
  d.retries = static_cast<int>(in.svarint());
  sim::TracerouteResult& p = d.probe;
  p.from.value = static_cast<std::uint16_t>(in.varint());
  p.target.block = static_cast<std::uint32_t>(in.varint());
  p.time.minutes = in.svarint();
  p.cloud_ms = in.f64();
  const std::uint64_t pbits = in.varint();
  p.reached = (pbits & 1) != 0;
  p.truncated = (pbits & 2) != 0;
  p.lost = (pbits & 4) != 0;
  p.no_route = (pbits & 8) != 0;
  p.in_outage = (pbits & 16) != 0;
  const std::uint64_t n_hops = in.varint();
  if (n_hops > in.remaining() / 9) in.fail("hop count exceeds section");
  p.hops.reserve(static_cast<std::size_t>(n_hops));
  for (std::uint64_t h = 0; h < n_hops; ++h) {
    sim::TracerouteHop hop;
    hop.as.value = static_cast<std::uint32_t>(in.varint());
    hop.cumulative_rtt_ms = in.f64();
    p.hops.push_back(hop);
  }
  return record;
}

}  // namespace

VerdictStore::VerdictStore(Config config) : config_(config) {
  if (config_.verdict_retention_buckets < 1) {
    throw std::invalid_argument{"VerdictStore: retention must be >= 1"};
  }
  const auto empty = std::make_shared<const ShardTable>();
  for (std::size_t s = 0; s < kShards; ++s) install_shard(s, empty);
  timeline_.store(std::make_shared<const Timeline>());
  auto* r = config_.registry;
  publishes_c_ = obs::counter(r, "svc.store.publishes");
  verdicts_g_ = obs::gauge(r, "svc.store.verdicts");
  open_incidents_g_ = obs::gauge(r, "svc.store.open_incidents");
  publish_ms_h_ = obs::histogram(r, "svc.store.publish_ms");
  lookups_c_ = obs::counter(r, "svc.store.lookups");
}

void VerdictStore::install_shard(std::size_t s, ShardPtr table) {
  std::int64_t oldest = kNoBucket;
  for (const Verdict& v : table->values()) {
    oldest = std::min(oldest, v.bucket.index);
  }
  oldest_[s] = oldest;
  published_[s] = table;
  shards_[s].store(std::move(table));
}

void VerdictStore::publish(const core::StepReport& report) {
  const obs::ScopedTimer span{publish_ms_h_};
  ++steps_;
  degraded_steps_ += report.degraded_passive_only;

  index_diagnoses(report);
  fold_blames(report);
  fold_incidents(report);

  std::size_t live = 0;
  for (const auto& table : published_) live += table->size();
  publish_timeline(
      Health{.epoch = epoch_.load(std::memory_order_relaxed) + 1,
             .last_step = report.now,
             .steps = steps_,
             .degraded_steps = degraded_steps_,
             .degraded = report.degraded_passive_only});
  epoch_.fetch_add(1, std::memory_order_release);

  obs::add(publishes_c_);
  obs::set(verdicts_g_, static_cast<double>(live));
  obs::set(open_incidents_g_, static_cast<double>(open_runs_.size()));
}

void VerdictStore::index_diagnoses(const core::StepReport& report) {
  // This step's active diagnoses by ⟨location, BGP path⟩. A later diagnosis
  // of the same issue wins; the culprit comes from the latest one that
  // named one.
  diag_index_.clear();
  for (std::size_t i = 0; i < report.diagnoses.size(); ++i) {
    const core::ActiveDiagnosis& d = report.diagnoses[i];
    DiagnosisIndex& entry =
        diag_index_[diag_index_.insert(middle_run_key(d.location, d.middle))
                        .first];
    entry.last = static_cast<std::int32_t>(i);
    if (d.culprit) entry.last_with_culprit = static_cast<std::int32_t>(i);
    entry.probed_cold |= d.grade == core::BaselineGrade::ProbedCold;
  }
}

Verdict VerdictStore::make_verdict(const core::StepReport& report,
                                   const core::BlameResult& b) const {
  Verdict v;
  v.block = b.quartet.key.block;
  v.location = b.quartet.key.location;
  v.middle = b.quartet.middle;
  v.client_as = b.quartet.client_as;
  v.blame = b.blame;
  v.faulty_as = b.faulty_as;
  v.grade = b.grade;
  v.bucket = b.quartet.key.bucket;
  v.mean_rtt_ms = b.quartet.mean_rtt_ms;
  v.sample_count = b.quartet.sample_count;
  switch (b.blame) {
    case core::Blame::Cloud:
    case core::Blame::Client:
      // Passive elimination pinned these down (§4.2).
      v.confidence = core::DiagnosisConfidence::High;
      break;
    case core::Blame::Middle: {
      v.confidence = core::DiagnosisConfidence::Low;
      const std::uint32_t pos =
          diag_index_.find(middle_run_key(v.location, v.middle));
      if (pos != util::FlatTable<DiagnosisIndex>::kAbsent) {
        const auto& d = report.diagnoses[static_cast<std::size_t>(
            diag_index_[pos].last)];
        v.confidence = d.confidence;
        v.from_active = true;
        v.baseline_predates_issue = d.baseline_predates_issue;
        if (d.culprit) v.faulty_as = d.culprit;
        // A probed-cold diagnosis supersedes the passive grade: the
        // faulty-AS verdict the reader sees rests on the cold-path
        // measurement, not the (absent or inherited) learned median.
        if (d.grade == core::BaselineGrade::ProbedCold) v.grade = d.grade;
      }
      break;
    }
    case core::Blame::Ambiguous:
    case core::Blame::Insufficient:
      v.confidence = core::DiagnosisConfidence::Low;
      break;
  }
  return v;
}

void VerdictStore::fold_blames(const core::StepReport& report) {
  for (auto& upserts : upserts_) upserts.clear();
  for (std::size_t i = 0; i < report.blames.size(); ++i) {
    const auto& key = report.blames[i].quartet.key;
    newest_bucket_ = std::max(newest_bucket_, key.bucket);
    upserts_[shard_of(key.block)].push_back(static_cast<std::uint32_t>(i));
  }

  // Only shards that took a blame, or whose oldest verdict fell off the
  // retention window, are rebuilt; the rest keep their published table.
  const std::int64_t horizon =
      newest_bucket_.index - config_.verdict_retention_buckets;
  for (std::size_t s = 0; s < kShards; ++s) {
    if (!upserts_[s].empty() || oldest_[s] <= horizon) {
      rebuild_shard(s, report, horizon);
    }
  }
}

void VerdictStore::rebuild_shard(std::size_t s, const core::StepReport& report,
                                 std::int64_t horizon) {
  // This step's blames for the shard, one per key: the later blame wins.
  shard_step_.clear();
  for (const std::uint32_t i : upserts_[s]) {
    const auto& key = report.blames[i].quartet.key;
    shard_step_[shard_step_.insert(key_of(key.block, key.location)).first] = i;
  }
  const ShardTable& old = *published_[s];
  survivors_.clear();
  for (std::uint32_t pos = 0; pos < old.size(); ++pos) {
    const Verdict& v = old[pos];
    if (v.bucket.index > horizon &&
        shard_step_.find(key_of(v.block, v.location)) ==
            util::FlatTable<std::uint32_t>::kAbsent) {
      survivors_.push_back(pos);
    }
  }
  std::size_t n = survivors_.size();
  for (const std::uint32_t i : shard_step_.values()) {
    n += report.blames[i].quartet.key.bucket.index > horizon;
  }

  auto next = std::make_shared<ShardTable>();
  next->reserve(n);
  const auto add = [&](const Verdict& v) {
    (*next)[next->insert(key_of(v.block, v.location)).first] = v;
  };
  for (const std::uint32_t pos : survivors_) add(old[pos]);
  for (const std::uint32_t i : shard_step_.values()) {
    // A blame already past the horizon ages out in the step it lands.
    if (report.blames[i].quartet.key.bucket.index > horizon) {
      add(make_verdict(report, report.blames[i]));
    }
  }
  install_shard(s, std::move(next));
}

void VerdictStore::fold_incidents(const core::StepReport& report) {
  // This step's distinct ⟨bucket, run key⟩ entries, deduped as the blames
  // are read: each run key chains its entries, one per bucket it drew
  // blame in (a step may span several buckets, and a run must extend
  // through each).
  run_heads_.clear();
  runs_.clear();
  const auto entry_of = [&](std::uint32_t head, std::int64_t bucket) {
    for (std::uint32_t e = head; e != kNone; e = runs_[e].next) {
      if (runs_[e].bucket == bucket) return e;
    }
    return kNone;
  };
  for (const auto& b : report.blames) {
    std::uint64_t key = 0;
    switch (b.blame) {
      case core::Blame::Cloud:
        key = cloud_run_key(b.quartet.key.location);
        break;
      case core::Blame::Middle:
        key = middle_run_key(b.quartet.key.location, b.quartet.middle);
        break;
      case core::Blame::Client:
        key = client_run_key(b.quartet.client_as);
        break;
      default:
        continue;  // Ambiguous/Insufficient never form incidents
    }
    const auto [head_pos, new_key] = run_heads_.insert(key);
    if (new_key) run_heads_[head_pos] = kNone;
    const std::int64_t bucket = b.quartet.key.bucket.index;
    if (const std::uint32_t e = entry_of(run_heads_[head_pos], bucket);
        e != kNone) {
      // The run's grade is the most-degraded evidence seen: any quartet of
      // the group leaning on a transferred baseline marks the bucket.
      runs_[e].proto.grade = std::max(runs_[e].proto.grade, b.grade);
      continue;
    }
    RunEntry entry{.bucket = bucket, .key = key, .next = run_heads_[head_pos]};
    entry.proto.category = b.blame;
    entry.proto.location = b.quartet.key.location;
    entry.proto.grade = b.grade;
    if (b.blame == core::Blame::Middle) {
      entry.proto.middle = b.quartet.middle;
    } else {
      entry.proto.faulty_as = b.faulty_as;
    }
    run_heads_[head_pos] = static_cast<std::uint32_t>(runs_.size());
    runs_.push_back(std::move(entry));
  }
  run_order_.resize(runs_.size());
  for (std::uint32_t e = 0; e < runs_.size(); ++e) run_order_[e] = e;
  std::sort(run_order_.begin(), run_order_.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              return std::tie(runs_[a].bucket, runs_[a].key) <
                     std::tie(runs_[b].bucket, runs_[b].key);
            });

  // Buckets in order; within one, open runs extend or close in map order,
  // then the bucket's unmatched keys open runs in key order.
  for (std::size_t first = 0; first < run_order_.size();) {
    const util::TimeBucket bucket{runs_[run_order_[first]].bucket};
    std::size_t last = first;
    while (last < run_order_.size() &&
           runs_[run_order_[last]].bucket == bucket.index) {
      ++last;
    }
    for (auto it = open_runs_.begin(); it != open_runs_.end();) {
      auto& run = it->second;
      const std::uint32_t head_pos = run_heads_.find(it->first);
      const std::uint32_t hit =
          head_pos == util::FlatTable<std::uint32_t>::kAbsent
              ? kNone
              : entry_of(run_heads_[head_pos], bucket.index);
      if (hit != kNone) {
        run.incident.last_seen = bucket.start();
        ++run.incident.buckets;
        run.incident.grade =
            std::max(run.incident.grade, runs_[hit].proto.grade);
        run.last_bucket = bucket;
        runs_[hit].matched = true;
        ++it;
      } else if (bucket > run.last_bucket) {
        // A later bucket arrived without this key: the run ended.
        run.incident.open = false;
        closed_.push_back(run.incident);
        it = open_runs_.erase(it);
      } else {
        ++it;
      }
    }
    for (std::size_t k = first; k < last; ++k) {
      const RunEntry& entry = runs_[run_order_[k]];
      if (entry.matched) continue;
      OpenRun run;
      run.incident = entry.proto;
      run.incident.first_seen = bucket.start();
      run.incident.last_seen = bucket.start();
      run.incident.buckets = 1;
      run.incident.open = true;
      run.last_bucket = bucket;
      open_runs_.emplace(entry.key, std::move(run));
    }
    first = last;
  }

  // Name the culprit on open middle runs the active phase resolved; a
  // probed-cold diagnosis also escalates the run's grade (the named AS
  // rests on a cold-path measurement).
  if (!report.diagnoses.empty()) {
    for (auto& [key, run] : open_runs_) {
      const std::uint32_t pos = diag_index_.find(key);
      if (pos == util::FlatTable<DiagnosisIndex>::kAbsent) continue;
      const DiagnosisIndex& entry = diag_index_[pos];
      if (entry.last_with_culprit >= 0) {
        run.incident.faulty_as =
            report.diagnoses[static_cast<std::size_t>(entry.last_with_culprit)]
                .culprit;
      }
      if (entry.probed_cold) {
        run.incident.grade =
            std::max(run.incident.grade, core::BaselineGrade::ProbedCold);
      }
    }
  }
  closed_.trim(config_.max_closed_incidents);

  for (const auto& d : report.diagnoses) {
    diagnoses_.push_back(DiagnosisRecord{report.now, d});
  }
  diagnoses_.trim(config_.max_diagnoses);
}

void VerdictStore::publish_timeline(const Health& health) {
  auto timeline = std::make_shared<Timeline>();
  timeline->closed = closed_.view();
  timeline->open.reserve(open_runs_.size());
  for (const auto& [key, run] : open_runs_) {
    timeline->open.push_back(run.incident);
  }
  timeline->diagnoses = diagnoses_.view();
  timeline->health = health;
  timeline_.store(std::move(timeline));
}

std::optional<Verdict> VerdictStore::lookup(
    net::Slash24 block, net::CloudLocationId location) const {
  obs::add(lookups_c_);
  const auto shard = shards_[shard_of(block)].load();
  const std::uint32_t pos = shard->find(key_of(block, location));
  if (pos == ShardTable::kAbsent) return std::nullopt;
  return (*shard)[pos];
}

std::vector<Verdict> VerdictStore::lookup(net::Slash24 block) const {
  obs::add(lookups_c_);
  std::vector<Verdict> out;
  const auto shard = shards_[shard_of(block)].load();
  for (const Verdict& v : shard->values()) {
    if (v.block == block) out.push_back(v);
  }
  std::sort(out.begin(), out.end(), [](const Verdict& a, const Verdict& b) {
    return a.location.value < b.location.value;
  });
  return out;
}

std::vector<Verdict> VerdictStore::lookup(net::Prefix prefix) const {
  obs::add(lookups_c_);
  std::vector<Verdict> out;
  for (const auto& shard_slot : shards_) {
    const auto shard = shard_slot.load();
    for (const Verdict& v : shard->values()) {
      if (prefix.contains(v.block)) out.push_back(v);
    }
  }
  std::sort(out.begin(), out.end(), [](const Verdict& a, const Verdict& b) {
    return a.block == b.block ? a.location.value < b.location.value
                              : a.block < b.block;
  });
  return out;
}

std::vector<Incident> VerdictStore::incidents_since(
    util::MinuteTime since) const {
  const auto timeline = timeline_.load();
  std::vector<Incident> out;
  const auto keep = [&](const Incident& inc) {
    if (inc.last_seen >= since) out.push_back(inc);
  };
  timeline->closed.for_each(keep);
  for (const Incident& inc : timeline->open) keep(inc);
  std::sort(out.begin(), out.end(), [](const Incident& a, const Incident& b) {
    return incident_rank(a) < incident_rank(b);
  });
  return out;
}

std::vector<DiagnosisRecord> VerdictStore::recent_diagnoses() const {
  const auto timeline = timeline_.load();
  std::vector<DiagnosisRecord> out;
  out.reserve(timeline->diagnoses.size());
  timeline->diagnoses.for_each(
      [&](const DiagnosisRecord& record) { out.push_back(record); });
  return out;
}

VerdictStore::Health VerdictStore::health() const {
  return timeline_.load()->health;
}

std::size_t VerdictStore::verdict_state_bytes() const {
  std::size_t n = 0;
  for (const auto& table : published_) n += table->memory_bytes();
  return n;
}

void VerdictStore::save_state(store::SnapshotWriter& writer) const {
  std::string& out = writer.section("verdicts");
  store::put_varint(out, 2);  // verdicts payload format (2 adds §13 grades)
  store::put_svarint(out, newest_bucket_.index);
  store::put_varint(out, steps_);
  store::put_varint(out, degraded_steps_);
  store::put_u64(out, epoch_.load(std::memory_order_relaxed));
  const auto timeline = timeline_.load();
  store::put_svarint(out, timeline->health.last_step.minutes);
  store::put_varint(out, timeline->health.degraded ? 1 : 0);

  // Verdict rows in a layout-free normal form: globally key-sorted,
  // column-major. (Keys are unique across shards, so a flat sort is exact.)
  std::vector<std::pair<Key, const Verdict*>> rows;
  for (const auto& table : published_) {
    for (const Verdict& v : table->values()) {
      rows.emplace_back(key_of(v.block, v.location), &v);
    }
  }
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  store::put_varint(out, rows.size());
  Key prev = 0;
  for (const auto& [key, v] : rows) {
    store::put_varint(out, key - prev);
    prev = key;
  }
  for (const auto& [key, v] : rows) store::put_varint(out, v->middle.value);
  for (const auto& [key, v] : rows) store::put_varint(out, v->client_as.value);
  for (const auto& [key, v] : rows) {
    out.push_back(static_cast<char>(v->blame));
  }
  for (const auto& [key, v] : rows) {
    store::put_varint(
        out, v->faulty_as ? v->faulty_as->value + std::uint64_t{1} : 0);
  }
  for (const auto& [key, v] : rows) {
    out.push_back(static_cast<char>(v->confidence));
  }
  for (const auto& [key, v] : rows) {
    out.push_back(static_cast<char>(
        (v->from_active ? 1 : 0) | (v->baseline_predates_issue ? 2 : 0) |
        (static_cast<int>(v->grade) << 2)));
  }
  for (const auto& [key, v] : rows) store::put_svarint(out, v->bucket.index);
  for (const auto& [key, v] : rows) store::put_f64(out, v->mean_rtt_ms);
  for (const auto& [key, v] : rows) store::put_svarint(out, v->sample_count);

  // Incident machinery: open runs (key-sorted for determinism), closed log
  // and diagnosis ring oldest first (order is part of the bounded-pop
  // semantics).
  std::vector<std::pair<std::uint64_t, const OpenRun*>> runs;
  runs.reserve(open_runs_.size());
  for (const auto& [key, run] : open_runs_) runs.emplace_back(key, &run);
  std::sort(runs.begin(), runs.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  store::put_varint(out, runs.size());
  for (const auto& [key, run] : runs) {
    store::put_u64(out, key);
    put_incident(out, run->incident);
    store::put_svarint(out, run->last_bucket.index);
  }
  store::put_varint(out, closed_.size());
  closed_.view().for_each([&](const Incident& inc) { put_incident(out, inc); });
  store::put_varint(out, diagnoses_.size());
  diagnoses_.view().for_each(
      [&](const DiagnosisRecord& record) { put_diagnosis(out, record); });
}

void VerdictStore::restore_state(const store::SnapshotReader& reader) {
  store::ByteReader in = reader.section("verdicts");
  const std::uint64_t format = in.varint();
  if (format != 1 && format != 2) {
    in.fail("unsupported verdicts payload format " + std::to_string(format));
  }
  const std::int64_t newest_bucket = in.svarint();
  const std::uint64_t steps = in.varint();
  const std::uint64_t degraded_steps = in.varint();
  const std::uint64_t epoch = in.u64();
  const std::int64_t last_step_minutes = in.svarint();
  const bool degraded = in.varint() != 0;

  // Every declared count is checked against the bytes left before anything
  // is allocated for it.
  const std::uint64_t n_rows = in.varint();
  if (n_rows > in.remaining() / kMinRowBytes) {
    in.fail("verdict row count exceeds section");
  }
  std::vector<Verdict> verdicts(static_cast<std::size_t>(n_rows));
  Key key = 0;
  for (std::size_t r = 0; r < verdicts.size(); ++r) {
    key = in.next_key(key, r == 0);
    verdicts[r].block = net::Slash24{static_cast<std::uint32_t>(key >> 16)};
    verdicts[r].location =
        net::CloudLocationId{static_cast<std::uint16_t>(key & 0xFFFF)};
    if (key_of(verdicts[r].block, verdicts[r].location) != key) {
      in.fail("verdict key out of range");
    }
  }
  for (auto& v : verdicts) {
    v.middle = net::MiddleSegmentId{static_cast<std::uint32_t>(in.varint())};
  }
  for (auto& v : verdicts) {
    v.client_as = net::AsId{static_cast<std::uint32_t>(in.varint())};
  }
  for (auto& v : verdicts) {
    const std::uint8_t blame = in.u8();
    if (blame > static_cast<std::uint8_t>(core::Blame::Insufficient)) {
      in.fail("verdict blame out of range");
    }
    v.blame = static_cast<core::Blame>(blame);
  }
  for (auto& v : verdicts) {
    if (const std::uint64_t as = in.varint(); as != 0) {
      v.faulty_as = net::AsId{static_cast<std::uint32_t>(as - 1)};
    }
  }
  for (auto& v : verdicts) {
    const std::uint8_t confidence = in.u8();
    if (confidence >
        static_cast<std::uint8_t>(core::DiagnosisConfidence::Low)) {
      in.fail("verdict confidence out of range");
    }
    v.confidence = static_cast<core::DiagnosisConfidence>(confidence);
  }
  for (auto& v : verdicts) {
    const std::uint8_t bits = in.u8();
    v.from_active = (bits & 1) != 0;
    v.baseline_predates_issue = (bits & 2) != 0;
    if (((bits >> 2) & 3) > 2) in.fail("verdict grade out of range");
    v.grade = static_cast<core::BaselineGrade>((bits >> 2) & 3);
  }
  for (auto& v : verdicts) v.bucket = util::TimeBucket{in.svarint()};
  for (auto& v : verdicts) v.mean_rtt_ms = in.f64();
  for (auto& v : verdicts) v.sample_count = static_cast<int>(in.svarint());

  const std::uint64_t n_runs = in.varint();
  if (n_runs > in.remaining() / kMinOpenRunBytes) {
    in.fail("open-run count exceeds section");
  }
  std::unordered_map<Key, OpenRun> open_runs;
  open_runs.reserve(static_cast<std::size_t>(n_runs));
  for (std::uint64_t r = 0; r < n_runs; ++r) {
    const std::uint64_t run_key = in.u64();
    OpenRun run;
    run.incident = read_incident(in, format);
    run.last_bucket = util::TimeBucket{in.svarint()};
    if (!open_runs.emplace(run_key, std::move(run)).second) {
      in.fail("duplicate open-run key");
    }
  }
  const std::uint64_t n_closed = in.varint();
  if (n_closed > in.remaining() / kMinIncidentBytes) {
    in.fail("closed-incident count exceeds section");
  }
  ChunkLog<Incident> closed;
  for (std::uint64_t c = 0; c < n_closed; ++c) {
    closed.push_back(read_incident(in, format));
  }
  const std::uint64_t n_diagnoses = in.varint();
  if (n_diagnoses > in.remaining() / kMinDiagnosisBytes) {
    in.fail("diagnosis count exceeds section");
  }
  ChunkLog<DiagnosisRecord> diagnoses;
  for (std::uint64_t d = 0; d < n_diagnoses; ++d) {
    diagnoses.push_back(read_diagnosis(in));
  }
  in.expect_done();

  // All parsed cleanly — commit and republish.
  newest_bucket_ = util::TimeBucket{newest_bucket};
  steps_ = steps;
  degraded_steps_ = degraded_steps;
  epoch_.store(epoch, std::memory_order_release);
  open_runs_ = std::move(open_runs);
  closed_ = std::move(closed);
  diagnoses_ = std::move(diagnoses);

  std::array<std::size_t, kShards> per_shard{};
  for (const Verdict& v : verdicts) ++per_shard[shard_of(v.block)];
  std::array<std::shared_ptr<ShardTable>, kShards> tables;
  for (std::size_t s = 0; s < kShards; ++s) {
    tables[s] = std::make_shared<ShardTable>();
    tables[s]->reserve(per_shard[s]);
  }
  for (const Verdict& v : verdicts) {
    ShardTable& table = *tables[shard_of(v.block)];
    table[table.insert(key_of(v.block, v.location)).first] = v;
  }
  for (std::size_t s = 0; s < kShards; ++s) {
    install_shard(s, std::move(tables[s]));
  }
  // The restored epoch is already the published count; unlike publish()
  // there is no pending increment to anticipate.
  publish_timeline(Health{.epoch = epoch,
                          .last_step = util::MinuteTime{last_step_minutes},
                          .steps = steps_,
                          .degraded_steps = degraded_steps_,
                          .degraded = degraded});
  obs::set(verdicts_g_, static_cast<double>(verdicts.size()));
  obs::set(open_incidents_g_, static_cast<double>(open_runs_.size()));
}

}  // namespace blameit::svc
