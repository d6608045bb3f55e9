#include "scenario/pack.h"

#include <algorithm>
#include <charconv>

#include "util/time.h"

namespace blameit::scenario {

namespace {

using util::json::Value;

constexpr std::string_view kRegionTokens[] = {
    "usa", "europe", "india", "china", "brazil", "australia", "east_asia"};

constexpr std::string_view kIncidentTypeTokens[] = {
    "cloud_location", "middle_as",  "client_as",     "client_block",
    "resteer",        "bgp_hijack", "bgp_path_leak", "bgp_flap_storm"};

constexpr std::string_view kModeTokens[] = {"aggregates", "records"};

std::string join(const std::string_view* tokens, std::size_t n) {
  std::string out;
  for (std::size_t i = 0; i < n; ++i) {
    if (i) out += ", ";
    out += tokens[i];
  }
  return out;
}

/// Validation context: knows the source name so every error can point at
/// file:line:column plus the JSON path of the offending value.
struct Ctx {
  std::string source;

  [[noreturn]] void fail(const Value& at, const std::string& path,
                         const std::string& what) const {
    throw PackError{source + ":" + std::to_string(at.line()) + ":" +
                    std::to_string(at.column()) + ": " + path + ": " + what};
  }

  const Value& require(const Value& obj, const std::string& path,
                       std::string_view key) const {
    const Value* v = obj.find(key);
    if (!v) {
      fail(obj, path, "missing required member \"" + std::string{key} + "\"");
    }
    return *v;
  }

  /// Rejects members outside `allowed` — a typo'd optional key would
  /// otherwise be silently ignored, which is the worst failure mode for a
  /// hand-edited file.
  void check_keys(const Value& obj, const std::string& path,
                  std::initializer_list<std::string_view> allowed) const {
    for (const auto& [key, value] : obj.members()) {
      if (std::find(allowed.begin(), allowed.end(), key) == allowed.end()) {
        fail(value, path + "." + key,
             "unknown member (allowed: " +
                 join(allowed.begin(), allowed.size()) + ")");
      }
    }
  }

  const Value& want_object(const Value& v, const std::string& path) const {
    if (!v.is_object()) {
      fail(v, path, "expected an object, got " + std::string{v.type_name()});
    }
    return v;
  }

  std::int64_t want_int(const Value& v, const std::string& path) const {
    if (!v.is_number() || !v.is_integer()) {
      fail(v, path, "expected an integer, got " + std::string{v.type_name()});
    }
    return v.as_integer();
  }

  std::int64_t want_int_in(const Value& v, const std::string& path,
                           std::int64_t lo, std::int64_t hi) const {
    const auto n = want_int(v, path);
    if (n < lo || n > hi) {
      fail(v, path,
           "value " + std::to_string(n) + " out of range [" +
               std::to_string(lo) + ", " + std::to_string(hi) + "]");
    }
    return n;
  }

  bool want_bool(const Value& v, const std::string& path) const {
    if (!v.is_bool()) {
      fail(v, path, "expected a boolean, got " + std::string{v.type_name()});
    }
    return v.as_bool();
  }

  double want_number(const Value& v, const std::string& path) const {
    if (!v.is_number()) {
      fail(v, path, "expected a number, got " + std::string{v.type_name()});
    }
    return v.as_number();
  }

  const std::string& want_string(const Value& v, const std::string& path)
      const {
    if (!v.is_string()) {
      fail(v, path, "expected a string, got " + std::string{v.type_name()});
    }
    return v.as_string();
  }

  net::Region want_region(const Value& v, const std::string& path) const {
    const auto& token = want_string(v, path);
    const auto region = parse_region_token(token);
    if (!region) {
      fail(v, path,
           "unknown region \"" + token + "\" (allowed: " +
               join(kRegionTokens, std::size(kRegionTokens)) + ")");
    }
    return *region;
  }

  /// Times are either an integer minute count or "DdHH:MM" (day, 24h clock),
  /// e.g. "3d08:15" = day 3, 08:15.
  util::MinuteTime want_time(const Value& v, const std::string& path) const {
    if (v.is_number()) {
      return util::MinuteTime{want_int_in(v, path, 0, 1'000'000'000)};
    }
    if (!v.is_string()) {
      fail(v, path,
           "expected a time (integer minutes or \"DdHH:MM\", e.g. "
           "\"3d08:15\"), got " +
               std::string{v.type_name()});
    }
    const std::string& s = v.as_string();
    const auto bad = [&]() -> util::MinuteTime {
      fail(v, path,
           "malformed time \"" + s +
               "\" (want integer minutes or \"DdHH:MM\", e.g. \"3d08:15\")");
    };
    const auto d_pos = s.find('d');
    const auto colon = s.find(':');
    if (d_pos == std::string::npos || colon == std::string::npos ||
        colon < d_pos) {
      return bad();
    }
    int day = 0;
    int hour = 0;
    int minute = 0;
    const auto parse_int = [&](std::size_t from, std::size_t to, int& out,
                               int lo, int hi) {
      const auto [ptr, ec] =
          std::from_chars(s.data() + from, s.data() + to, out);
      return ec == std::errc{} && ptr == s.data() + to && out >= lo &&
             out <= hi;
    };
    if (!parse_int(0, d_pos, day, 0, 100000) ||
        !parse_int(d_pos + 1, colon, hour, 0, 23) ||
        !parse_int(colon + 1, s.size(), minute, 0, 59)) {
      return bad();
    }
    return util::MinuteTime::from_days(day).plus_minutes(hour * 60 + minute);
  }
};

FeedMode parse_mode(const Ctx& ctx, const Value& v, const std::string& path) {
  const auto& token = ctx.want_string(v, path);
  if (token == "aggregates") return FeedMode::Aggregates;
  if (token == "records") return FeedMode::Records;
  ctx.fail(v, path,
           "unknown mode \"" + token + "\" (allowed: " +
               join(kModeTokens, std::size(kModeTokens)) + ")");
}

IncidentType parse_incident_type(const Ctx& ctx, const Value& v,
                                 const std::string& path) {
  const auto& token = ctx.want_string(v, path);
  for (std::size_t i = 0; i < std::size(kIncidentTypeTokens); ++i) {
    if (token == kIncidentTypeTokens[i]) {
      return static_cast<IncidentType>(i);
    }
  }
  ctx.fail(v, path,
           "unknown incident type \"" + token + "\" (allowed: " +
               join(kIncidentTypeTokens, std::size(kIncidentTypeTokens)) +
               ")");
}

void parse_topology(const Ctx& ctx, const Value& v, const std::string& path,
                    net::TopologyConfig& out) {
  ctx.want_object(v, path);
  ctx.check_keys(v, path,
                 {"seed", "locations_per_region", "transits_per_region",
                  "eyeballs_per_region", "metros_per_region",
                  "blocks_per_eyeball", "blocks_per_prefix", "alternates"});
  if (const auto* m = v.find("seed")) {
    out.seed = static_cast<std::uint64_t>(
        ctx.want_int_in(*m, path + ".seed", 0, INT64_MAX));
  }
  const auto opt_int = [&](std::string_view key, int& field, int lo, int hi) {
    if (const auto* m = v.find(key)) {
      field = static_cast<int>(
          ctx.want_int_in(*m, path + "." + std::string{key}, lo, hi));
    }
  };
  opt_int("locations_per_region", out.locations_per_region, 1, 16);
  opt_int("transits_per_region", out.transits_per_region, 1, 64);
  opt_int("eyeballs_per_region", out.eyeballs_per_region, 1, 64);
  opt_int("metros_per_region", out.metros_per_region, 1, 64);
  opt_int("blocks_per_eyeball", out.blocks_per_eyeball, 1, 256);
  opt_int("blocks_per_prefix", out.blocks_per_prefix, 1, 64);
  opt_int("alternates", out.alternates, 1, 16);
}

void parse_pipeline(const Ctx& ctx, const Value& v, const std::string& path,
                    core::BlameItConfig& out) {
  ctx.want_object(v, path);
  ctx.check_keys(v, path,
                 {"expected_rtt_window_days", "probe_budget_per_run",
                  "active_quorum_k", "active_probe_retries",
                  "churn_baseline_transfer",
                  "churn_transfer_discount", "churn_transfer_max_age_days",
                  "churn_steer_shield", "churn_shield_minutes",
                  "probe_on_no_baseline"});
  const auto opt_int = [&](std::string_view key, int& field, int lo, int hi) {
    if (const auto* m = v.find(key)) {
      field = static_cast<int>(
          ctx.want_int_in(*m, path + "." + std::string{key}, lo, hi));
    }
  };
  const auto opt_bool = [&](std::string_view key, bool& field) {
    if (const auto* m = v.find(key)) {
      field = ctx.want_bool(*m, path + "." + std::string{key});
    }
  };
  opt_int("expected_rtt_window_days", out.expected_rtt_window_days, 1, 30);
  opt_int("probe_budget_per_run", out.probe_budget_per_run, 0, 1000);
  opt_int("active_quorum_k", out.active_quorum_k, 1, 9);
  opt_int("active_probe_retries", out.active_probe_retries, 0, 10);
  opt_bool("churn_baseline_transfer", out.churn_baseline_transfer);
  if (const auto* m = v.find("churn_transfer_discount")) {
    const std::string p = path + ".churn_transfer_discount";
    out.churn_transfer_discount = ctx.want_number(*m, p);
    if (out.churn_transfer_discount < 1.0 ||
        out.churn_transfer_discount > 4.0) {
      ctx.fail(*m, p, "discount must be in [1, 4]");
    }
  }
  opt_int("churn_transfer_max_age_days", out.churn_transfer_max_age_days, 1,
          30);
  opt_bool("churn_steer_shield", out.churn_steer_shield);
  opt_int("churn_shield_minutes", out.churn_shield_minutes, 1, 7 * 24 * 60);
  opt_bool("probe_on_no_baseline", out.probe_on_no_baseline);
}

void parse_ingest(const Ctx& ctx, const Value& v, const std::string& path,
                  ingest::IngestConfig& out) {
  ctx.want_object(v, path);
  ctx.check_keys(v, path, {"shards", "batch_records", "queue_batches",
                           "lateness_minutes"});
  if (const auto* m = v.find("shards")) {
    out.shards =
        static_cast<int>(ctx.want_int_in(*m, path + ".shards", 1, 64));
  }
  if (const auto* m = v.find("batch_records")) {
    out.batch_records = static_cast<std::size_t>(
        ctx.want_int_in(*m, path + ".batch_records", 1, 1 << 20));
  }
  if (const auto* m = v.find("queue_batches")) {
    out.queue_batches = static_cast<std::size_t>(
        ctx.want_int_in(*m, path + ".queue_batches", 1, 1 << 20));
  }
  if (const auto* m = v.find("lateness_minutes")) {
    out.lateness_minutes = static_cast<int>(
        ctx.want_int_in(*m, path + ".lateness_minutes", 0, 24 * 60));
  }
}

void parse_chaos(const Ctx& ctx, const Value& v, const std::string& path,
                 sim::ChaosConfig& out) {
  ctx.want_object(v, path);
  ctx.check_keys(v, path,
                 {"seed", "probe_loss_rate", "hop_timeout_rate",
                  "silent_as_rate", "duplicate_record_rate",
                  "late_record_rate", "late_record_delay_buckets",
                  "churn_feed_loss_rate", "churn_feed_delay_rate",
                  "churn_feed_delay_minutes", "outages"});
  if (const auto* m = v.find("seed")) {
    out.seed = static_cast<std::uint64_t>(
        ctx.want_int_in(*m, path + ".seed", 0, INT64_MAX));
  }
  const auto opt_rate = [&](std::string_view key, double& field) {
    if (const auto* m = v.find(key)) {
      const std::string p = path + "." + std::string{key};
      field = ctx.want_number(*m, p);
      if (field < 0.0 || field > 1.0) {
        ctx.fail(*m, p, "rate must be in [0, 1]");
      }
    }
  };
  opt_rate("probe_loss_rate", out.probe_loss_rate);
  opt_rate("hop_timeout_rate", out.hop_timeout_rate);
  opt_rate("silent_as_rate", out.silent_as_rate);
  opt_rate("duplicate_record_rate", out.duplicate_record_rate);
  opt_rate("late_record_rate", out.late_record_rate);
  opt_rate("churn_feed_loss_rate", out.churn_feed_loss_rate);
  opt_rate("churn_feed_delay_rate", out.churn_feed_delay_rate);
  if (const auto* m = v.find("churn_feed_delay_minutes")) {
    out.churn_feed_delay_minutes = static_cast<int>(
        ctx.want_int_in(*m, path + ".churn_feed_delay_minutes", 1, 24 * 60));
  }
  if (const auto* m = v.find("late_record_delay_buckets")) {
    out.late_record_delay_buckets = static_cast<int>(
        ctx.want_int_in(*m, path + ".late_record_delay_buckets", 1, 288));
  }
  if (const auto* m = v.find("outages")) {
    const std::string p = path + ".outages";
    if (!m->is_array()) {
      ctx.fail(*m, p,
               "expected an array, got " + std::string{m->type_name()});
    }
    for (std::size_t i = 0; i < m->items().size(); ++i) {
      const auto& o = m->items()[i];
      const std::string op = p + "[" + std::to_string(i) + "]";
      ctx.want_object(o, op);
      ctx.check_keys(o, op, {"start", "duration_minutes"});
      sim::OutageWindow w;
      w.start = ctx.want_time(ctx.require(o, op, "start"), op + ".start");
      w.duration_minutes = static_cast<int>(ctx.want_int_in(
          ctx.require(o, op, "duration_minutes"), op + ".duration_minutes",
          1, 7 * 24 * 60));
      out.outages.push_back(w);
    }
  }
}

PackSurge parse_surge(const Ctx& ctx, const Value& v,
                      const std::string& path) {
  ctx.want_object(v, path);
  ctx.check_keys(v, path,
                 {"start", "duration_minutes", "region", "multiplier"});
  PackSurge s;
  s.start = ctx.want_time(ctx.require(v, path, "start"), path + ".start");
  s.duration_minutes = static_cast<int>(ctx.want_int_in(
      ctx.require(v, path, "duration_minutes"), path + ".duration_minutes",
      1, 30 * 24 * 60));
  s.region = ctx.want_region(ctx.require(v, path, "region"), path + ".region");
  const auto& mult = ctx.require(v, path, "multiplier");
  s.multiplier = ctx.want_number(mult, path + ".multiplier");
  if (s.multiplier <= 0.0 || s.multiplier > 1000.0) {
    ctx.fail(mult, path + ".multiplier", "multiplier must be in (0, 1000]");
  }
  return s;
}

PackIncident parse_incident(const Ctx& ctx, const Value& v,
                            const std::string& path) {
  ctx.want_object(v, path);
  ctx.check_keys(
      v, path,
      {"name", "type", "region", "start", "duration_minutes", "added_ms",
       "location_index", "transit_index", "eyeball_index", "block_index",
       "to_region", "to_location_index", "prefix_count",
       "flap_period_minutes"});
  PackIncident inc;
  inc.name = ctx.want_string(ctx.require(v, path, "name"), path + ".name");
  if (inc.name.empty()) {
    ctx.fail(ctx.require(v, path, "name"), path + ".name",
             "name must be non-empty (it keys the manifest and reruns)");
  }
  inc.type = parse_incident_type(ctx, ctx.require(v, path, "type"),
                                 path + ".type");
  inc.region =
      ctx.want_region(ctx.require(v, path, "region"), path + ".region");
  inc.start = ctx.want_time(ctx.require(v, path, "start"), path + ".start");
  inc.duration_minutes = static_cast<int>(ctx.want_int_in(
      ctx.require(v, path, "duration_minutes"), path + ".duration_minutes",
      1, 30 * 24 * 60));
  if (const auto* m = v.find("added_ms")) {
    inc.added_ms = ctx.want_number(*m, path + ".added_ms");
    if (inc.added_ms < 0.0 || inc.added_ms > 10000.0) {
      ctx.fail(*m, path + ".added_ms", "added_ms must be in [0, 10000]");
    }
  }
  const auto opt_index = [&](std::string_view key, int& field) {
    if (const auto* m = v.find(key)) {
      field = static_cast<int>(
          ctx.want_int_in(*m, path + "." + std::string{key}, 0, 10000));
    }
  };
  opt_index("location_index", inc.location_index);
  opt_index("transit_index", inc.transit_index);
  opt_index("eyeball_index", inc.eyeball_index);
  opt_index("block_index", inc.block_index);
  opt_index("to_location_index", inc.to_location_index);
  opt_index("prefix_count", inc.prefix_count);
  if (const auto* m = v.find("flap_period_minutes")) {
    inc.flap_period_minutes = static_cast<int>(
        ctx.want_int_in(*m, path + ".flap_period_minutes", 5, 24 * 60));
  }

  // Per-type semantic requirements.
  switch (inc.type) {
    case IncidentType::Resteer: {
      const auto* to = v.find("to_region");
      if (!to) {
        ctx.fail(v, path,
                 "resteer incidents require \"to_region\" (where the "
                 "clients are re-steered)");
      }
      inc.to_region = ctx.want_region(*to, path + ".to_region");
      if (inc.to_region == inc.region) {
        ctx.fail(*to, path + ".to_region",
                 "resteer must move clients to a DIFFERENT region");
      }
      break;
    }
    case IncidentType::CloudLocation:
    case IncidentType::MiddleAs:
    case IncidentType::ClientAs:
    case IncidentType::ClientBlock:
      if (inc.added_ms <= 0.0) {
        ctx.fail(v, path,
                 "latency-fault incidents require added_ms > 0 (the "
                 "injected RTT inflation)");
      }
      if (v.find("to_region")) {
        ctx.fail(*v.find("to_region"), path + ".to_region",
                 "to_region is only valid for resteer incidents");
      }
      break;
    case IncidentType::BgpHijack:
    case IncidentType::BgpPathLeak:
    case IncidentType::BgpFlapStorm:
      if (v.find("to_region")) {
        ctx.fail(*v.find("to_region"), path + ".to_region",
                 "to_region is only valid for resteer incidents");
      }
      break;
  }
  return inc;
}

}  // namespace

std::string_view to_string(FeedMode m) noexcept {
  return m == FeedMode::Records ? "records" : "aggregates";
}

std::string_view to_string(IncidentType t) noexcept {
  const auto i = static_cast<std::size_t>(t);
  return i < std::size(kIncidentTypeTokens) ? kIncidentTypeTokens[i] : "?";
}

std::string_view region_token(net::Region r) noexcept {
  const auto i = static_cast<std::size_t>(r);
  return i < std::size(kRegionTokens) ? kRegionTokens[i] : "?";
}

std::optional<net::Region> parse_region_token(
    std::string_view token) noexcept {
  for (std::size_t i = 0; i < std::size(kRegionTokens); ++i) {
    if (token == kRegionTokens[i]) return net::kAllRegions[i];
  }
  return std::nullopt;
}

Pack parse_pack(const util::json::Value& doc,
                const std::string& source_name) {
  const Ctx ctx{source_name};
  ctx.want_object(doc, "$");
  ctx.check_keys(doc, "$",
                 {"name", "description", "mode", "warmup_days", "run_days",
                  "telemetry_seed", "topology", "pipeline", "ingest",
                  "chaos", "surges", "incidents", "restart"});
  Pack pack;
  pack.name = ctx.want_string(ctx.require(doc, "$", "name"), "$.name");
  if (const auto* m = doc.find("description")) {
    pack.description = ctx.want_string(*m, "$.description");
  }
  if (const auto* m = doc.find("mode")) {
    pack.mode = parse_mode(ctx, *m, "$.mode");
  }
  if (const auto* m = doc.find("warmup_days")) {
    pack.warmup_days =
        static_cast<int>(ctx.want_int_in(*m, "$.warmup_days", 1, 30));
  }
  if (const auto* m = doc.find("run_days")) {
    pack.run_days =
        static_cast<int>(ctx.want_int_in(*m, "$.run_days", 1, 60));
  }
  if (const auto* m = doc.find("telemetry_seed")) {
    pack.telemetry_seed = static_cast<std::uint64_t>(
        ctx.want_int_in(*m, "$.telemetry_seed", 0, INT64_MAX));
  }
  if (const auto* m = doc.find("topology")) {
    parse_topology(ctx, *m, "$.topology", pack.topology);
  }
  if (const auto* m = doc.find("pipeline")) {
    parse_pipeline(ctx, *m, "$.pipeline", pack.pipeline);
  }
  if (const auto* m = doc.find("ingest")) {
    if (pack.mode != FeedMode::Records) {
      ctx.fail(*m, "$.ingest",
               "ingest settings only apply when mode is \"records\" (the "
               "sharded streaming front end); this pack uses \"" +
                   std::string{to_string(pack.mode)} + "\"");
    }
    parse_ingest(ctx, *m, "$.ingest", pack.ingest);
  }
  if (const auto* m = doc.find("chaos")) {
    parse_chaos(ctx, *m, "$.chaos", pack.chaos);
  }
  if (const auto* m = doc.find("surges")) {
    if (!m->is_array()) {
      ctx.fail(*m, "$.surges",
               "expected an array, got " + std::string{m->type_name()});
    }
    for (std::size_t i = 0; i < m->items().size(); ++i) {
      pack.surges.push_back(parse_surge(
          ctx, m->items()[i], "$.surges[" + std::to_string(i) + "]"));
    }
  }
  const auto& incidents = ctx.require(doc, "$", "incidents");
  if (!incidents.is_array()) {
    ctx.fail(incidents, "$.incidents",
             "expected an array, got " + std::string{incidents.type_name()});
  }
  for (std::size_t i = 0; i < incidents.items().size(); ++i) {
    pack.incidents.push_back(
        parse_incident(ctx, incidents.items()[i],
                       "$.incidents[" + std::to_string(i) + "]"));
  }
  // Duplicate incident names would make manifest rows and rerun commands
  // ambiguous.
  for (std::size_t i = 0; i < pack.incidents.size(); ++i) {
    for (std::size_t j = i + 1; j < pack.incidents.size(); ++j) {
      if (pack.incidents[i].name == pack.incidents[j].name) {
        ctx.fail(incidents.items()[j],
                 "$.incidents[" + std::to_string(j) + "].name",
                 "duplicate incident name \"" + pack.incidents[j].name +
                     "\" (names key the manifest)");
      }
    }
  }
  if (const auto* m = doc.find("restart")) {
    ctx.want_object(*m, "$.restart");
    ctx.check_keys(*m, "$.restart", {"at"});
    PackRestart restart;
    const auto& at = ctx.require(*m, "$.restart", "at");
    restart.at = ctx.want_time(at, "$.restart.at");
    if (restart.at.minutes % 15 != 0) {
      ctx.fail(at, "$.restart.at",
               "restart must land on a 15-minute step boundary");
    }
    // Must fall on a step of the evaluation window, with at least one step
    // left afterwards — a restart after the final step recovers nothing.
    const auto first_step =
        util::MinuteTime::from_days(pack.warmup_days).plus_minutes(15);
    const auto last_step =
        util::MinuteTime::from_days(pack.warmup_days + pack.run_days);
    if (restart.at < first_step || !(restart.at < last_step)) {
      ctx.fail(at, "$.restart.at",
               "restart at minute " + std::to_string(restart.at.minutes) +
                   " must fall on an evaluation step strictly before the "
                   "final one (steps run minute " +
                   std::to_string(first_step.minutes) + " .. " +
                   std::to_string(last_step.minutes) + ")");
    }
    pack.restart = restart;
  }
  // Every incident must end inside the evaluation window, or it can never
  // be scored.
  const auto window_end =
      util::MinuteTime::from_days(pack.warmup_days + pack.run_days);
  const auto window_start = util::MinuteTime::from_days(pack.warmup_days);
  for (std::size_t i = 0; i < pack.incidents.size(); ++i) {
    const auto& inc = pack.incidents[i];
    if (inc.start < window_start ||
        inc.start.plus_minutes(inc.duration_minutes) > window_end) {
      ctx.fail(incidents.items()[i],
               "$.incidents[" + std::to_string(i) + "]",
               "incident \"" + inc.name + "\" runs outside the evaluation "
               "window [day " + std::to_string(pack.warmup_days) + ", day " +
               std::to_string(pack.warmup_days + pack.run_days) +
               ") and could never be scored");
    }
  }
  return pack;
}

Pack load_pack(const std::string& path) {
  return parse_pack(util::json::parse_file(path), path);
}

std::vector<sim::Incident> resolve_incidents(const Pack& pack,
                                             const net::Topology& topology) {
  std::vector<sim::Incident> out;
  out.reserve(pack.incidents.size());

  // client_block targeting: rank the region's blocks by activity weight so
  // "block_index": 0 is always the busiest /24 (ties broken by block id for
  // determinism).
  const auto ranked_blocks = [&](net::Region region) {
    std::vector<const net::ClientBlock*> blocks;
    for (const auto& b : topology.blocks()) {
      if (b.region == region) blocks.push_back(&b);
    }
    std::sort(blocks.begin(), blocks.end(), [](const auto* a, const auto* b) {
      if (a->activity_weight != b->activity_weight) {
        return a->activity_weight > b->activity_weight;
      }
      return a->block.block < b->block.block;
    });
    return blocks;
  };

  const auto index_error = [](const PackIncident& inc, std::string_view what,
                              int index, std::size_t size) -> PackError {
    return PackError{"incident \"" + inc.name + "\": " + std::string{what} +
                     " index " + std::to_string(index) +
                     " out of range (this topology has " +
                     std::to_string(size) + ")"};
  };

  for (const auto& pi : pack.incidents) {
    sim::Incident inc;
    inc.name = pi.name;
    inc.region = pi.region;
    inc.start = pi.start;
    inc.duration_minutes = pi.duration_minutes;
    inc.added_ms = pi.added_ms;

    switch (pi.type) {
      case IncidentType::CloudLocation: {
        inc.kind = sim::FaultKind::CloudLocation;
        const auto locs = topology.locations_in(pi.region);
        if (pi.location_index >= static_cast<int>(locs.size())) {
          throw index_error(pi, "location", pi.location_index, locs.size());
        }
        inc.cloud_location = locs[static_cast<std::size_t>(pi.location_index)];
        inc.culprit_as = topology.cloud_as();
        break;
      }
      case IncidentType::MiddleAs: {
        inc.kind = sim::FaultKind::MiddleAs;
        const auto transits = sim::non_dominant_transits(topology, pi.region);
        if (pi.transit_index >= static_cast<int>(transits.size())) {
          throw index_error(pi, "transit", pi.transit_index, transits.size());
        }
        inc.target_as = transits[static_cast<std::size_t>(pi.transit_index)];
        inc.culprit_as = inc.target_as;
        break;
      }
      case IncidentType::ClientAs: {
        inc.kind = sim::FaultKind::ClientAs;
        const auto& eyeballs = topology.eyeballs_in(pi.region);
        if (pi.eyeball_index >= static_cast<int>(eyeballs.size())) {
          throw index_error(pi, "eyeball", pi.eyeball_index, eyeballs.size());
        }
        inc.target_as = eyeballs[static_cast<std::size_t>(pi.eyeball_index)];
        inc.culprit_as = inc.target_as;
        break;
      }
      case IncidentType::ClientBlock: {
        inc.kind = sim::FaultKind::ClientBlock;
        const auto blocks = ranked_blocks(pi.region);
        if (pi.block_index >= static_cast<int>(blocks.size())) {
          throw index_error(pi, "block", pi.block_index, blocks.size());
        }
        const auto* block = blocks[static_cast<std::size_t>(pi.block_index)];
        inc.block = block->block;
        inc.culprit_as = block->client_as;
        break;
      }
      case IncidentType::Resteer: {
        // Re-steered clients cross inter-region transit: the middle segment
        // dominates the inflation, but no single AS failed (§6.3 case 4).
        inc.kind = sim::FaultKind::MiddleAs;
        inc.culprit_as = std::nullopt;
        inc.via_override = true;
        const auto locs = topology.locations_in(pi.to_region);
        if (pi.to_location_index >= static_cast<int>(locs.size())) {
          throw index_error(pi, "to_location", pi.to_location_index,
                            locs.size());
        }
        inc.override_to =
            locs[static_cast<std::size_t>(pi.to_location_index)];
        break;
      }
      case IncidentType::BgpHijack:
      case IncidentType::BgpPathLeak:
      case IncidentType::BgpFlapStorm: {
        inc.disruption = pi.type == IncidentType::BgpHijack
                             ? sim::RouteDisruption::Hijack
                         : pi.type == IncidentType::BgpPathLeak
                             ? sim::RouteDisruption::PathLeak
                             : sim::RouteDisruption::FlapStorm;
        const auto locs = topology.locations_in(pi.region);
        if (pi.location_index >= static_cast<int>(locs.size())) {
          throw index_error(pi, "location", pi.location_index, locs.size());
        }
        inc.disrupt_location =
            locs[static_cast<std::size_t>(pi.location_index)];
        inc.disrupt_prefix_count = pi.prefix_count;
        inc.flap_period_minutes = pi.flap_period_minutes;
        sim::resolve_route_disruption(topology, inc);
        break;
      }
    }
    out.push_back(std::move(inc));
  }
  return out;
}

}  // namespace blameit::scenario
