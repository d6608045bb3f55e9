#include "checks.h"

#include <algorithm>
#include <exception>

#include "util/json_reader.h"

namespace e2ebench {

namespace bl = blameit;

namespace {

bool key_less(const bl::analysis::QuartetKey& a,
              const bl::analysis::QuartetKey& b) {
  if (a.bucket.index != b.bucket.index) return a.bucket.index < b.bucket.index;
  if (a.block.block != b.block.block) return a.block.block < b.block.block;
  if (a.location.value != b.location.value) {
    return a.location.value < b.location.value;
  }
  return a.device < b.device;
}

std::string describe(const bl::analysis::Quartet& q) {
  return q.key.block.to_string() + "@" + q.key.location.to_string() +
         " dev=" + std::to_string(static_cast<int>(q.key.device)) +
         " n=" + std::to_string(q.sample_count) +
         " mean=" + std::to_string(q.mean_rtt_ms);
}

std::string u64(std::uint64_t v) { return std::to_string(v); }

}  // namespace

Failure check_quartets_match(bl::util::TimeBucket bucket,
                             std::vector<bl::analysis::Quartet> engine,
                             std::vector<bl::analysis::Quartet> serial) {
  const auto by_key = [](const bl::analysis::Quartet& a,
                         const bl::analysis::Quartet& b) {
    return key_less(a.key, b.key);
  };
  std::sort(engine.begin(), engine.end(), by_key);
  std::sort(serial.begin(), serial.end(), by_key);
  const std::string where = "ingest_vs_serial: bucket " +
                            std::to_string(bucket.index) + ": ";
  if (engine.size() != serial.size()) {
    return where + "engine emitted " + std::to_string(engine.size()) +
           " quartets, serial builder " + std::to_string(serial.size());
  }
  for (std::size_t i = 0; i < engine.size(); ++i) {
    if (!(engine[i] == serial[i])) {
      return where + "quartet " + std::to_string(i) + " differs: engine " +
             describe(engine[i]) + " vs serial " + describe(serial[i]);
    }
  }
  return std::nullopt;
}

Failure check_ingest_accounting(const bl::ingest::IngestStats& stats,
                                std::uint64_t submitted,
                                std::uint64_t emitted_records,
                                std::uint64_t emitted_quartets,
                                const ReferenceDrops& reference) {
  const std::string name = "ingest_accounting: ";
  if (stats.records_in != submitted) {
    return name + "engine counted " + u64(stats.records_in) +
           " records in, benchmark submitted " + u64(submitted);
  }
  if (stats.records_out != emitted_records) {
    return name + "engine says " + u64(stats.records_out) +
           " records left in quartets, the taken quartets carry " +
           u64(emitted_records);
  }
  if (stats.quartets_finalized != emitted_quartets) {
    return name + "engine finalized " + u64(stats.quartets_finalized) +
           " quartets, benchmark took " + u64(emitted_quartets);
  }
  if (stats.min_samples_dropped != reference.min_samples_quartets) {
    return name + "engine dropped " + u64(stats.min_samples_dropped) +
           " under-sampled quartets, reference builder " +
           u64(reference.min_samples_quartets);
  }
  const std::uint64_t accounted =
      emitted_records + stats.late_dropped + stats.unknown_dropped +
      stats.closed_dropped + reference.min_samples_records;
  if (accounted != submitted) {
    return name + u64(submitted) + " records submitted but " +
           u64(accounted) + " accounted for (quartets " +
           u64(emitted_records) + ", late " + u64(stats.late_dropped) +
           ", unknown /24 " + u64(stats.unknown_dropped) + ", closed " +
           u64(stats.closed_dropped) + ", under-sampled " +
           u64(reference.min_samples_records) + ")";
  }
  return std::nullopt;
}

void fold_step(bl::util::Digest64& digest, const bl::core::StepReport& report) {
  digest.update(report.now.minutes);
  digest.update(static_cast<std::uint64_t>(report.blames.size()));
  for (const auto& blame : report.blames) {
    const auto& key = blame.quartet.key;
    digest.update(static_cast<std::uint64_t>(key.block.block));
    digest.update(static_cast<std::uint64_t>(key.location.value));
    digest.update(static_cast<std::uint64_t>(key.device));
    digest.update(key.bucket.index);
    digest.update(blame.quartet.mean_rtt_ms);
    digest.update(static_cast<std::uint64_t>(blame.blame));
    digest.update(static_cast<std::uint64_t>(
        blame.faulty_as ? blame.faulty_as->value + 1 : 0));
    digest.update(static_cast<std::uint64_t>(blame.grade));
  }
  digest.update(static_cast<std::uint64_t>(report.diagnoses.size()));
  for (const auto& diag : report.diagnoses) {
    digest.update(static_cast<std::uint64_t>(diag.location.value));
    digest.update(static_cast<std::uint64_t>(diag.middle.value));
    digest.update(static_cast<std::uint64_t>(
        diag.culprit ? diag.culprit->value + 1 : 0));
    digest.update(static_cast<std::uint64_t>(diag.confidence));
    digest.update(diag.probe_reached);
    digest.update(diag.coarse_middle);
    digest.update(diag.probes_spent);
  }
  digest.update(report.degraded_passive_only);
}

Failure check_digests(const std::vector<std::string>& digests,
                      const std::vector<bool>& traced) {
  for (std::size_t i = 1; i < digests.size(); ++i) {
    if (digests[i] != digests[0]) {
      return "digest: replay " + std::to_string(i) +
             (traced[i] ? " (traced)" : " (untraced)") + " gave " +
             digests[i] + ", replay 0" + (traced[0] ? " (traced)" : "") +
             " gave " + digests[0];
    }
  }
  return std::nullopt;
}

Failure check_probe_cap(const bl::core::StepReport& report,
                        const bl::core::BlameItConfig& config) {
  // A diagnosis issues its quorum of probes, each with its retries; with
  // probe_on_no_baseline it may add one confirmation probe (with retries)
  // charged to the same budget.
  const int per_diagnosis =
      (config.active_quorum_k + (config.probe_on_no_baseline ? 1 : 0)) *
      (1 + config.active_probe_retries);
  const int step_cap = config.probe_budget_per_run + per_diagnosis - 1;
  const std::string at = "probe_cap: step at minute " +
                         std::to_string(report.now.minutes) + ": ";
  if (report.on_demand_probes > step_cap) {
    return at + std::to_string(report.on_demand_probes) +
           " on-demand probes, cap " + std::to_string(step_cap);
  }
  int spent = 0;
  for (const auto& diag : report.diagnoses) {
    if (diag.probes_spent > per_diagnosis) {
      return at + "a diagnosis spent " + std::to_string(diag.probes_spent) +
             " probes, cap " + std::to_string(per_diagnosis);
    }
    spent += diag.probes_spent;
  }
  if (spent != report.on_demand_probes) {
    return at + "diagnoses spent " + std::to_string(spent) +
           " probes but the step reports " +
           std::to_string(report.on_demand_probes);
  }
  return std::nullopt;
}

std::string Query::target() const {
  switch (kind) {
    case Kind::Point:
      return "/v1/verdict?client=" + block.to_string() +
             "&cloud=" + location.to_string();
    case Kind::AllLocations:
      return "/v1/verdict?client=" + block.to_string();
    case Kind::Incidents:
      return "/v1/incidents?since=" + std::to_string(since_minutes);
  }
  return "/";
}

namespace {

Failure check_verdict_object(const bl::util::json::Value& v,
                             const std::string& client,
                             const std::string* cloud) {
  if (!v.is_object()) return "verdict is not an object";
  const auto* c = v.find("client");
  if (!c || !c->is_string() || c->as_string() != client) {
    return "verdict answers another client than " + client;
  }
  const auto* loc = v.find("cloud");
  if (!loc || !loc->is_string()) return "verdict has no cloud";
  if (cloud && loc->as_string() != *cloud) {
    return "verdict answers " + loc->as_string() + " instead of " + *cloud;
  }
  const auto* blame = v.find("blame");
  if (!blame || !blame->is_string()) return "verdict has no blame";
  const std::string& b = blame->as_string();
  if (b != "cloud" && b != "middle" && b != "client" && b != "ambiguous" &&
      b != "insufficient") {
    return "verdict has unknown blame '" + b + "'";
  }
  return std::nullopt;
}

Failure check_response_body(const Query& query, int status,
                            const bl::util::json::Value& doc) {
  if (!doc.is_object()) return "body is not a JSON object";
  const std::string client = query.block.to_string();
  switch (query.kind) {
    case Query::Kind::Point: {
      if (status == 404) {
        const auto* error = doc.find("error");
        if (!error || !error->is_string()) return "404 without error text";
        return std::nullopt;
      }
      if (status != 200) return "status " + std::to_string(status);
      const std::string cloud = query.location.to_string();
      return check_verdict_object(doc, client, &cloud);
    }
    case Query::Kind::AllLocations: {
      if (status != 200) return "status " + std::to_string(status);
      const auto* count = doc.find("count");
      const auto* verdicts = doc.find("verdicts");
      if (!count || !count->is_integer() || !verdicts ||
          !verdicts->is_array()) {
        return "missing count or verdicts";
      }
      if (count->as_integer() !=
          static_cast<std::int64_t>(verdicts->items().size())) {
        return "count disagrees with the verdict list";
      }
      for (const auto& v : verdicts->items()) {
        if (auto bad = check_verdict_object(v, client, nullptr)) return bad;
      }
      return std::nullopt;
    }
    case Query::Kind::Incidents: {
      if (status != 200) return "status " + std::to_string(status);
      const auto* since = doc.find("since_minutes");
      const auto* count = doc.find("count");
      const auto* incidents = doc.find("incidents");
      if (!since || !since->is_integer() ||
          since->as_integer() != query.since_minutes) {
        return "since_minutes does not echo the query";
      }
      if (!count || !count->is_integer() || !incidents ||
          !incidents->is_array() ||
          count->as_integer() !=
              static_cast<std::int64_t>(incidents->items().size())) {
        return "count disagrees with the incident list";
      }
      for (const auto& inc : incidents->items()) {
        const auto* last = inc.find("last_seen_minutes");
        if (!last || !last->is_integer() ||
            last->as_integer() < query.since_minutes) {
          return "incident outside the requested window";
        }
      }
      return std::nullopt;
    }
  }
  return "unknown query kind";
}

}  // namespace

Failure check_response(const Query& query, int status, std::string_view body) {
  Failure bad;
  try {
    bad = check_response_body(query, status, bl::util::json::parse(body));
  } catch (const std::exception& e) {
    bad = std::string{"malformed JSON: "} + e.what();
  }
  if (bad) return "response: " + query.target() + ": " + *bad;
  return std::nullopt;
}

}  // namespace e2ebench
