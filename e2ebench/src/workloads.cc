#include "workloads.h"

#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>

#include "analysis/quartet.h"
#include "checks.h"
#include "core/pipeline.h"
#include "http_client.h"
#include "ingest/engine.h"
#include "net/topology.h"
#include "obs/registry.h"
#include "scenario/score.h"
#include "sim/chaos.h"
#include "sim/rtt_model.h"
#include "sim/scenario.h"
#include "sim/telemetry.h"
#include "sim/traceroute.h"
#include "store/snapshot.h"
#include "svc/http.h"
#include "svc/service.h"
#include "svc/verdict_store.h"
#include "trace.h"
#include "util/digest.h"
#include "util/rng.h"

namespace e2ebench {

namespace bl = blameit;
using bl::analysis::Quartet;
using bl::analysis::RttRecord;
using bl::util::MinuteTime;
using bl::util::TimeBucket;

namespace {

enum class Kind : std::uint8_t { IngestDay, FaultStorm };

Kind kind_of(const std::string& name) {
  if (name == "ingest_day") return Kind::IngestDay;
  if (name == "fault_storm") return Kind::FaultStorm;
  throw std::invalid_argument{"unknown workload '" + name + "'"};
}

// ---- Workload shape. Everything below is fixed per workload; only the
// ---- seed varies the generated inputs. --------------------------------

constexpr int kWarmDays = 3;        // history fed during setup
constexpr int kCadence = 15;        // pipeline default
constexpr int kIngestShards = 2;    // ingest_day: producer + 2 shard threads
// In-process reads on the replay workloads: every kReadEvery steps, a pause
// of kReadBatches batches of kReadsPerBatch lookups, timed per batch (one
// read is ~50 ns, too close to the clock's own cost to time alone).
constexpr int kReadEvery = 4;
constexpr int kReadBatches = 8;
constexpr int kReadsPerBatch = 64;
constexpr std::size_t kClosedLoopReads = 256;  // loopback reads per replay
// Percentile blocks: freshness over >= 100 steps (so p90 has >= 10 steps
// beyond it), read batches over >= 1000 batches (>= 10 beyond p99).
constexpr std::size_t kBlockSteps = 100;
constexpr std::size_t kBlockReadBatches = 1000;

std::uint64_t derive(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + stream;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile (p in [0, 100]).
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t i =
      static_cast<std::size_t>(std::clamp(rank, 1.0, double(v.size()))) - 1;
  return v[i];
}

double seconds_between(std::int64_t a, std::int64_t b) {
  return static_cast<double>(b - a) / 1e9;
}

/// CPU time of the whole process (every thread), in ns. Unlike the wall
/// clock it does not count time the threads waited for a CPU: preemption by
/// other processes on the machine and, on a paravirtualised guest, time the
/// hypervisor stole.
std::int64_t cpu_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return std::int64_t{ts.tv_sec} * 1'000'000'000 + ts.tv_nsec;
}

double rss_mb() {
  long pages = 0;
  long resident = 0;
  if (FILE* f = std::fopen("/proc/self/statm", "r")) {
    if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2) resident = 0;
    std::fclose(f);
  }
  return static_cast<double>(resident) *
         static_cast<double>(::sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

// ---- Inputs: the simulator's output, materialized once per run. --------

struct Inputs {
  Kind kind{};
  std::unique_ptr<bl::net::Topology> topology;
  bl::sim::FaultInjector faults;
  std::unique_ptr<bl::sim::TelemetryGenerator> generator;
  std::unique_ptr<bl::sim::RttModel> model;
  std::unique_ptr<bl::sim::ChaosInjector> chaos;
  std::vector<bl::sim::Incident> incidents;
  bl::core::BlameItConfig config;
  bl::ingest::IngestConfig ingest;

  int warm_buckets = 0;
  int eval_buckets = 0;
  std::vector<std::vector<Quartet>> warm;  ///< per warmup bucket
  /// Per eval bucket: the quartets handed to the pipeline (fault_storm) or
  /// the serial reference (ingest_day).
  std::vector<std::vector<Quartet>> eval;
  std::vector<std::vector<RttRecord>> records;  ///< ingest_day eval feed
  std::uint64_t record_count = 0;
  std::uint64_t eval_quartets = 0;
  std::uint64_t eval_quartet_records = 0;
  ReferenceDrops reference_drops;
  double serial_build_s = 0.0;  ///< reference QuartetBuilder, ingest_day
  std::vector<Query> queries;   ///< read mix (all workloads)
  std::vector<Query> verdict_reads;  ///< the mix's /v1/verdict lookups

  [[nodiscard]] MinuteTime eval_start() const {
    return TimeBucket{warm_buckets}.start();
  }
  [[nodiscard]] bool ingests() const { return kind == Kind::IngestDay; }
};

std::vector<Quartet> build_quartets(const Inputs& in, TimeBucket bucket) {
  bl::analysis::QuartetBuilder builder{in.topology.get(),
                                       bl::analysis::BadnessThresholds{}};
  in.generator->generate_aggregates(
      bucket, [&](const bl::analysis::QuartetKey& k, int n, double mean) {
        builder.add_aggregate(k, n, mean);
      });
  return builder.take_bucket(bucket);
}

/// Same structural corrections as the 88-incident bench: middle faults on
/// transits that do not dominate a location, /24 faults on active blocks.
void fix_incidents(const bl::net::Topology& topo,
                   std::vector<bl::sim::Incident>& incidents,
                   std::uint64_t seed) {
  bl::util::Rng rng{seed};
  std::map<bl::net::Region, std::vector<const bl::net::ClientBlock*>> active;
  for (const auto& block : topo.blocks()) {
    active[block.region].push_back(&block);
  }
  for (auto& [region, blocks] : active) {
    std::sort(blocks.begin(), blocks.end(), [](const auto* a, const auto* b) {
      return a->activity_weight > b->activity_weight;
    });
    blocks.resize(std::max<std::size_t>(1, blocks.size() / 3));
  }
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  };
  for (auto& inc : incidents) {
    if (inc.kind == bl::sim::FaultKind::MiddleAs) {
      const auto eligible = bl::sim::non_dominant_transits(topo, inc.region);
      if (!eligible.empty() &&
          std::find(eligible.begin(), eligible.end(), inc.target_as) ==
              eligible.end()) {
        inc.target_as = eligible[pick(eligible.size())];
        inc.culprit_as = inc.target_as;
      }
    } else if (inc.kind == bl::sim::FaultKind::ClientBlock) {
      const auto& blocks = active[inc.region];
      const auto* block = blocks[pick(blocks.size())];
      inc.block = block->block;
      inc.culprit_as = block->client_as;
    }
  }
}

/// The read mix: Zipf-popular /24s, mostly point lookups, a tenth
/// all-location lookups, one in a hundred incident listings.
std::vector<Query> make_queries(const Inputs& in, std::uint64_t seed) {
  bl::util::Rng rng{seed};
  std::vector<const bl::net::ClientBlock*> blocks;
  for (const auto& b : in.topology->blocks()) blocks.push_back(&b);
  for (std::size_t i = blocks.size(); i > 1; --i) {  // seeded popularity
    std::swap(blocks[i - 1],
              blocks[static_cast<std::size_t>(
                  rng.uniform_int(0, static_cast<std::int64_t>(i) - 1))]);
  }
  std::vector<double> cdf(blocks.size());
  double total = 0.0;
  for (std::size_t r = 0; r < blocks.size(); ++r) {
    total += 1.0 / static_cast<double>(r + 1);
    cdf[r] = total;
  }
  std::vector<Query> out;
  out.reserve(1 << 16);
  const std::int64_t eval_minutes =
      std::int64_t{in.eval_buckets} * bl::util::kBucketMinutes;
  for (int i = 0; i < (1 << 16); ++i) {
    const double u = rng.uniform() * total;
    const auto rank = static_cast<std::size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    const auto* block = blocks[std::min(rank, blocks.size() - 1)];
    Query q;
    q.block = block->block;
    const double kind = rng.uniform();
    if (kind < 0.01) {
      q.kind = Query::Kind::Incidents;
      q.since_minutes =
          in.eval_start().minutes + rng.uniform_int(0, eval_minutes);
    } else if (kind < 0.11) {
      q.kind = Query::Kind::AllLocations;
    } else {
      const auto locations = in.topology->locations_in(block->region);
      q.location = locations[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(locations.size()) - 1))];
    }
    out.push_back(q);
  }
  return out;
}

std::unique_ptr<Inputs> materialize(Kind kind, std::uint64_t seed) {
  auto in = std::make_unique<Inputs>();
  in->kind = kind;
  const bool storm = kind != Kind::IngestDay;

  bl::net::TopologyConfig topo;
  topo.seed = 42;
  if (storm) {
    topo.locations_per_region = 2;
    topo.eyeballs_per_region = 8;
    topo.blocks_per_eyeball = 8;
  } else {
    topo.locations_per_region = 1;
    topo.eyeballs_per_region = 4;
    topo.blocks_per_eyeball = 8;
  }
  in->topology = bl::net::make_topology(topo);

  bl::sim::TelemetryConfig telemetry;
  telemetry.seed = derive(seed, 2);
  in->generator = std::make_unique<bl::sim::TelemetryGenerator>(
      in->topology.get(), &in->faults, telemetry);
  in->model =
      std::make_unique<bl::sim::RttModel>(in->topology.get(), &in->faults);

  in->warm_buckets = kWarmDays * bl::util::kBucketsPerDay;
  // fault_storm replays two days so its 180 incidents keep the accuracy
  // figure steady across seeds; ingest_day replays one day of raw records.
  in->eval_buckets = (storm ? 2 : 1) * bl::util::kBucketsPerDay;

  bl::sim::IncidentSuiteConfig suite;
  suite.count = storm ? 180 : 60;
  suite.seed = derive(seed, 3);
  suite.first_start = in->eval_start().plus_minutes(30);
  suite.max_duration_minutes = 120;
  in->incidents = bl::sim::make_incident_suite(*in->topology, suite);
  fix_incidents(*in->topology, in->incidents, derive(seed, 4));
  bl::sim::apply_incidents(
      in->incidents, bl::sim::ApplyTargets{.injector = &in->faults,
                                           .generator = in->generator.get(),
                                           .topology = in->topology.get()});

  in->config.expected_rtt_window_days = kWarmDays;
  if (storm) {
    // cascade_chaos-style measurement plane and the three §13 knobs.
    in->config.active_quorum_k = 3;
    in->config.active_probe_retries = 2;
    in->config.churn_baseline_transfer = true;
    in->config.churn_steer_shield = true;
    in->config.probe_on_no_baseline = true;
    bl::sim::ChaosConfig chaos;
    chaos.seed = derive(seed, 5);
    chaos.probe_loss_rate = 0.3;
    chaos.hop_timeout_rate = 0.25;
    chaos.silent_as_rate = 0.2;
    chaos.outages.push_back(bl::sim::OutageWindow{
        in->eval_start().plus_minutes(14 * 60), 90});
    in->chaos = std::make_unique<bl::sim::ChaosInjector>(chaos);
  } else {
    in->ingest.shards = kIngestShards;
  }

  in->warm.reserve(static_cast<std::size_t>(in->warm_buckets));
  for (int b = 0; b < in->warm_buckets; ++b) {
    in->warm.push_back(build_quartets(*in, TimeBucket{b}));
  }
  in->eval.resize(static_cast<std::size_t>(in->eval_buckets));
  if (storm) {
    for (int i = 0; i < in->eval_buckets; ++i) {
      in->eval[static_cast<std::size_t>(i)] =
          build_quartets(*in, TimeBucket{in->warm_buckets + i});
    }
  } else {
    in->records.resize(static_cast<std::size_t>(in->eval_buckets));
    for (int i = 0; i < in->eval_buckets; ++i) {
      auto& out = in->records[static_cast<std::size_t>(i)];
      in->generator->generate_records_shuffled(
          TimeBucket{in->warm_buckets + i},
          [&out](const RttRecord& r) { out.push_back(r); });
      in->record_count += out.size();
    }
  }
  in->queries = make_queries(*in, derive(seed, 6));
  for (const auto& q : in->queries) {
    if (q.kind != Query::Kind::Incidents) in->verdict_reads.push_back(q);
  }
  return in;
}

/// The reference for ingest_day: a serial QuartetBuilder fed the same
/// records in the same order.
void build_serial_reference(Inputs& in) {
  const std::int64_t t0 = now_ns();
  bl::analysis::QuartetBuilder builder{in.topology.get(),
                                       bl::analysis::BadnessThresholds{},
                                       in.ingest.builder};
  for (int i = 0; i < in.eval_buckets; ++i) {
    for (const auto& r : in.records[static_cast<std::size_t>(i)]) {
      builder.add(r);
    }
    in.eval[static_cast<std::size_t>(i)] =
        builder.take_bucket(TimeBucket{in.warm_buckets + i});
  }
  in.serial_build_s = seconds_between(t0, now_ns());
  in.reference_drops.min_samples_quartets = builder.dropped_min_samples();
  in.reference_drops.min_samples_records =
      builder.dropped_min_samples_records();
}

void count_eval(Inputs& in) {
  for (const auto& bucket : in.eval) {
    in.eval_quartets += bucket.size();
    for (const auto& q : bucket) {
      in.eval_quartet_records += static_cast<std::uint64_t>(q.sample_count);
    }
  }
}

// ---- Reads. -------------------------------------------------------------

struct HttpReads {
  std::vector<double> roundtrip_us;  ///< send -> full response
  std::uint64_t requests = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few reasons
};

/// Closed-loop reads over one loopback keep-alive connection: each request
/// is sent when the previous answer arrived.
void serve_reads(const bl::svc::VerdictService& service,
                 const std::vector<Query>& queries, HttpReads& out) {
  bl::svc::HttpServerConfig http;
  http.workers = 1;
  bl::svc::HttpServer server{service.handler(), http};
  HttpConnection conn;
  if (!server.start() || !conn.open(server.port())) {
    ++out.failed;
    out.failures.push_back("http: loopback server or connection failed");
    return;
  }
  for (std::size_t i = 0; i < kClosedLoopReads; ++i) {
    const Query& q = queries[i % queries.size()];
    ++out.requests;
    const std::int64_t t0 = now_ns();
    std::optional<HttpReply> reply;
    std::string error;
    if (conn.send_get(q.target())) {
      while (!reply && error.empty()) reply = conn.on_readable(error);
    } else {
      error = "send failed";
    }
    const std::int64_t t1 = now_ns();
    const Failure bad =
        reply ? check_response(q, reply->status, reply->body)
              : Failure{"http: " + error + " on " + q.target()};
    if (bad) {
      ++out.failed;
      if (out.failures.size() < 5) out.failures.push_back(*bad);
      if (!reply) return;
      continue;
    }
    out.roundtrip_us.push_back(static_cast<double>(t1 - t0) / 1e3);
  }
}

/// One read pause: kReadBatches timed batches of verdict lookups, each
/// recorded as its mean per read in microseconds.
void read_pause(const bl::svc::VerdictStore& store,
                const std::vector<Query>& reads, std::size_t& cursor,
                std::vector<double>& per_read_us) {
  std::size_t hits = 0;
  for (int batch = 0; batch < kReadBatches; ++batch) {
    const std::int64_t t0 = now_ns();
    for (int i = 0; i < kReadsPerBatch; ++i) {
      const Query& q = reads[cursor++ % reads.size()];
      if (q.kind == Query::Kind::Point) {
        hits += store.lookup(q.block, q.location).has_value();
      } else {
        hits += store.lookup(q.block).size();
      }
    }
    per_read_us.push_back(static_cast<double>(now_ns() - t0) / 1e3 /
                          kReadsPerBatch);
  }
  if (hits == 0xFFFFFFFFFFFFull) std::fputs("", stderr);  // keep reads live
}

// ---- One replay: setup, then the evaluation window. ---------------------

/// Step outputs summed over one replay.
struct StepTotals {
  std::uint64_t steps = 0;
  std::uint64_t probes = 0;  ///< on-demand
  std::uint64_t diagnoses = 0;
  std::uint64_t retries = 0;
  std::uint64_t culprits = 0;
  std::uint64_t ranked = 0;
  std::uint64_t blames = 0;
  std::uint64_t background_probes = 0;

  void add(const bl::core::StepReport& report) {
    ++steps;
    probes += static_cast<std::uint64_t>(report.on_demand_probes);
    diagnoses += report.diagnoses.size();
    retries += static_cast<std::uint64_t>(report.active_retries);
    ranked += report.ranked_issues.size();
    blames += report.blames.size();
    background_probes += static_cast<std::uint64_t>(report.background_probes);
    for (const auto& d : report.diagnoses) culprits += d.culprit.has_value();
  }
};

struct Replay {
  bool traced = false;
  double recovery_s = 0.0;  ///< the restore that followed this replay
  double setup_s = 0.0;
  double loop_s = 0.0;  ///< the step loop, first step to last (wall clock)
  double work_s = 0.0;  ///< CPU time of the steps, publish included
  std::uint64_t quartets = 0;
  std::vector<double> freshness_ms;  ///< one per step, CPU time
  std::string digest;
  StepTotals totals;
  /// Output-check failures found while stepping (first of each check).
  std::vector<std::string> failures;
  double rss_mb = 0.0;  ///< verification replay: state after the last step
  std::size_t span_begin = 0;
  std::size_t span_end = 0;
  // Counter reads at the end of the replay.
  bl::ingest::IngestStats ingest;
  std::uint64_t submitted = 0;
  std::optional<bl::obs::Snapshot> registry;
  std::size_t verdict_state_bytes = 0;
  HttpReads http;
  std::vector<double> handler_us;
  /// In-process verdict reads: mean per read of each timed batch.
  std::vector<double> store_read_us;
  // Snapshot of the final state (verification replay only).
  Query probe;                 ///< key whose answer must survive a restore
  std::string probe_expected;  ///< the live store's answer to it
  double save_ms = 0.0;
  std::uint64_t snapshot_bytes = 0;
};

/// What only the untimed verification replay does besides stepping.
struct Verification {
  std::string snapshot_path;
  bl::scenario::IncidentScorer scorer;
};

/// State the QuartetSource reaches; lives on the replay's stack.
struct Feed {
  const Inputs* in = nullptr;
  Tracer* tracer = nullptr;
  bl::ingest::IngestEngine* engine = nullptr;
  /// Verification replay of ingest_day: compare every bucket the engine
  /// finalizes with the serial reference as it is handed over.
  bool compare_serial = false;
  Failure mismatch;
  int step_span = -1;
  std::int64_t step_id = -1;
  std::int64_t last_child_end_ns = 0;
  std::int64_t newest_complete_cpu_ns = 0;
  std::uint64_t submitted = 0;
  std::uint64_t quartets = 0;

  std::vector<Quartet> operator()(TimeBucket bucket) {
    if (bucket.index < in->warm_buckets) {
      return in->warm[static_cast<std::size_t>(bucket.index)];
    }
    const auto i = static_cast<std::size_t>(bucket.index - in->warm_buckets);
    if (i >= in->eval.size()) return {};
    std::vector<Quartet> out;
    int source_id = -1;
    {
      const SpanScope source{*tracer, "source", step_span, step_id};
      source_id = source.id();
      if (!engine) {
        newest_complete_cpu_ns = cpu_ns();
        out = in->eval[i];
      } else {
        const auto& records = in->records[i];
        {
          const SpanScope feed{*tracer, "ingest.feed", source.id(), step_id};
          for (const auto& r : records) engine->submit(r);
        }
        submitted += records.size();
        {
          const SpanScope fence{*tracer, "ingest.fence", source.id(),
                                step_id};
          engine->advance_watermark(engine->watermark_to_finalize(bucket));
          newest_complete_cpu_ns = cpu_ns();
          engine->flush();
        }
        const SpanScope take{*tracer, "ingest.take", source.id(), step_id};
        out = engine->take_bucket(bucket);
      }
    }
    if (source_id >= 0) {
      last_child_end_ns =
          tracer->spans()[static_cast<std::size_t>(source_id)].end_ns;
    }
    quartets += out.size();
    if (compare_serial && !mismatch) {
      mismatch = check_quartets_match(bucket, out, in->eval[i]);
    }
    return out;
  }
};

/// Everything one replay constructs; declaration order is destruction
/// order reversed.
struct System {
  std::unique_ptr<bl::obs::Registry> registry;
  std::unique_ptr<bl::sim::TracerouteEngine> probes;
  std::unique_ptr<bl::ingest::IngestEngine> ingest;
  std::unique_ptr<bl::svc::VerdictStore> store;
  std::unique_ptr<bl::core::BlameItPipeline> pipeline;
};

std::string probe_answer(const bl::svc::VerdictStore& store, const Query& q) {
  const bl::svc::VerdictService service{&store};
  bl::svc::HttpRequest request;
  request.method = "GET";
  request.path = "/v1/verdict";
  request.query = {{"client", q.block.to_string()}};
  const auto response = service.router().dispatch(request);
  return std::to_string(response.status) + " " + response.body;
}

/// In-process router dispatch of the read mix, timed per request.
void dispatch_reads(const bl::svc::VerdictService& service,
                    const std::vector<Query>& queries,
                    std::vector<double>& handler_us, HttpReads& out) {
  const auto& router = service.router();
  handler_us.reserve(4096);
  for (std::size_t i = 0; i < 4096; ++i) {
    bl::svc::HttpRequest request;
    const Query& q = queries[i];
    request.method = "GET";
    request.path =
        q.kind == Query::Kind::Incidents ? "/v1/incidents" : "/v1/verdict";
    if (q.kind == Query::Kind::Incidents) {
      request.query = {{"since", std::to_string(q.since_minutes)}};
    } else {
      request.query = {{"client", q.block.to_string()}};
      if (q.kind == Query::Kind::Point) {
        request.query.emplace_back("cloud", q.location.to_string());
      }
    }
    const std::int64_t t0 = now_ns();
    const auto response = router.dispatch(request);
    handler_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
    if (response.status != 200 && response.status != 404) {
      out.failures.push_back("router: status " +
                             std::to_string(response.status));
      ++out.failed;
    }
  }
}

/// One replay. The verification replay (`verify` set) also compares ingest
/// output with the serial reference, scores the incidents, reads the
/// state's memory and snapshots its final state.
Replay replay(const Inputs& in, Tracer& tracer, bool traced,
              std::int64_t& step_counter, Verification* verify = nullptr) {
  Replay out;
  out.traced = traced;
  out.span_begin = tracer.mark();
  System sys;
  // The probing plane is part of the simulated internet: outside setup.
  sys.probes = std::make_unique<bl::sim::TracerouteEngine>(
      in.topology.get(), in.model.get(), bl::sim::TracerouteConfig{},
      in.chaos.get());
  Feed feed;
  feed.in = &in;
  feed.tracer = &tracer;
  feed.compare_serial = verify != nullptr && in.ingests();
  const double rss_before = verify ? rss_mb() : 0.0;

  const std::int64_t setup_t0 = cpu_ns();
  if (traced) sys.registry = std::make_unique<bl::obs::Registry>();
  bl::obs::Registry* registry = sys.registry.get();
  if (in.ingests()) {
    bl::ingest::IngestConfig cfg = in.ingest;
    cfg.registry = registry;
    sys.ingest = std::make_unique<bl::ingest::IngestEngine>(
        in.topology.get(), bl::analysis::BadnessThresholds{}, cfg);
    feed.engine = sys.ingest.get();
  }
  sys.store = std::make_unique<bl::svc::VerdictStore>(
      bl::svc::VerdictStore::Config{.registry = registry});
  sys.pipeline = std::make_unique<bl::core::BlameItPipeline>(
      in.topology.get(), sys.probes.get(),
      [&feed](TimeBucket b) { return feed(b); }, in.config, registry);
  for (int b = 0; b < in.warm_buckets; ++b) {
    sys.pipeline->warmup_bucket(TimeBucket{b});
  }
  out.setup_s = static_cast<double>(cpu_ns() - setup_t0) / 1e9;

  std::int64_t publish_end_cpu_ns = 0;
  sys.pipeline->set_step_observer([&](const bl::core::StepReport& report) {
    const SpanScope span{tracer, "publish", feed.step_span, feed.step_id};
    sys.store->publish(report);
    publish_end_cpu_ns = cpu_ns();
  });

  const int steps = in.eval_buckets * bl::util::kBucketMinutes / kCadence;
  out.freshness_ms.reserve(static_cast<std::size_t>(steps));
  const MinuteTime start = in.eval_start();
  bl::util::Digest64 digest;
  const std::int64_t loop_t0 = now_ns();
  std::int64_t work_ns = 0;
  std::size_t read_cursor = 0;
  for (int k = 1; k <= steps; ++k) {
    feed.step_id = ++step_counter;
    const std::int64_t cpu0 = cpu_ns();
    feed.step_span = tracer.begin("step", -1, feed.step_id);
    feed.last_child_end_ns = tracer.enabled() ? now_ns() : 0;
    const auto report = sys.pipeline->step(start.plus_minutes(k * kCadence));
    tracer.end(feed.step_span);
    work_ns += cpu_ns() - cpu0;
    out.freshness_ms.push_back(
        static_cast<double>(publish_end_cpu_ns - feed.newest_complete_cpu_ns) /
        1e6);
    if (traced) {
      // Stage timings come from the report; lay them out after the last
      // measured source span (their lengths are exact, positions nominal).
      std::int64_t at = feed.last_child_end_ns;
      const auto add = [&](const char* name, double ms) {
        const auto ns = static_cast<std::int64_t>(ms * 1e6);
        tracer.add(name, feed.step_span, feed.step_id, at, at + ns, true);
        at += ns;
      };
      add("learn", report.stages.learn_ms);
      add("localize", report.stages.localize_ms);
      add("active", report.stages.active_ms);
      add("background", report.stages.background_ms);
    }
    {
      // Output checks fold each step as it ends, so no copy of the run's
      // outputs outlives its step. Benchmark work: its own span.
      const SpanScope span{tracer, "bench.check", -1, feed.step_id};
      fold_step(digest, report);
      out.totals.add(report);
      if (out.failures.empty()) {
        if (auto bad = check_probe_cap(report, in.config)) {
          out.failures.push_back(*bad);
        }
      }
      if (verify) verify->scorer.observe(report);
    }
    if (k % kReadEvery == 0) {
      // No reader runs beside the writer: pause the step loop for
      // in-process verdict reads against the live store. The pause is its
      // own top-level span and is not counted as step time.
      const SpanScope span{tracer, "store.read", -1, feed.step_id};
      read_pause(*sys.store, in.verdict_reads, read_cursor,
                 out.store_read_us);
    }
  }
  out.loop_s = seconds_between(loop_t0, now_ns());
  out.work_s = static_cast<double>(work_ns) / 1e9;
  out.quartets = feed.quartets;
  out.digest = digest.hex();
  if (feed.mismatch) out.failures.push_back(*feed.mismatch);
  if (verify) out.rss_mb = rss_mb() - rss_before;
  if (sys.ingest) out.ingest = sys.ingest->stats();
  out.submitted = feed.submitted;
  out.verdict_state_bytes = sys.store->verdict_state_bytes();
  if (registry) out.registry = registry->snapshot();

  // Reads after the replay, against the final store: loopback HTTP round
  // trips one request at a time, and (traced) the router in process.
  {
    const bl::svc::VerdictService service{sys.store.get(), registry};
    serve_reads(service, in.queries, out.http);
    if (traced) dispatch_reads(service, in.queries, out.handler_us, out.http);
  }

  if (verify) {
    // The probe key: the most popular /24 with a live verdict, if any.
    out.probe = in.queries.front();
    for (const auto& q : in.queries) {
      if (!sys.store->lookup(q.block).empty()) {
        out.probe = q;
        break;
      }
    }
    out.probe_expected = probe_answer(*sys.store, out.probe);
    const std::int64_t t0 = now_ns();
    bl::store::SnapshotWriter writer;
    sys.pipeline->save_snapshot(writer);
    sys.store->save_state(writer);
    writer.write_file(verify->snapshot_path);
    out.save_ms = static_cast<double>(now_ns() - t0) / 1e6;
    out.snapshot_bytes = std::filesystem::file_size(verify->snapshot_path);
  }
  out.span_end = tracer.mark();
  return out;
}

// ---- Recovery: snapshot save, then restore into a fresh system. ----------

struct Recovery {
  std::vector<double> total_s, load_ms, restore_ms;
  std::optional<std::string> failure;
};

/// One cold restart from the snapshot file, timed (CPU time) from opening
/// the file until the first lookup has been served. Runs once after every
/// timed replay, so the restores sample the whole measuring window.
void restore_once(const Inputs& in, const Replay& saved,
                  const std::string& path, Tracer& tracer, Recovery& out) {
  {
    bl::sim::TracerouteEngine probes{in.topology.get(), in.model.get(),
                                     bl::sim::TracerouteConfig{},
                                     in.chaos.get()};
    const std::int64_t t0 = cpu_ns();
    std::optional<bl::store::SnapshotReader> reader;
    {
      const SpanScope span{tracer, "snapshot.load", -1, -1};
      reader.emplace(bl::store::SnapshotReader::from_file(path));
    }
    const std::int64_t t1 = cpu_ns();
    bl::core::BlameItPipeline pipeline{
        in.topology.get(), &probes,
        [](TimeBucket) { return std::vector<Quartet>{}; }, in.config};
    bl::svc::VerdictStore store;
    {
      const SpanScope span{tracer, "snapshot.restore", -1, -1};
      pipeline.restore_snapshot(*reader);
      store.restore_state(*reader);
    }
    const std::int64_t t2 = cpu_ns();
    const std::string answer = probe_answer(store, saved.probe);
    const std::int64_t t3 = cpu_ns();
    out.load_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
    out.restore_ms.push_back(static_cast<double>(t2 - t1) / 1e6);
    out.total_s.push_back(seconds_between(t0, t3));
    if (answer != saved.probe_expected && !out.failure) {
      out.failure = "recovery: restored store answers '" +
                    answer.substr(0, 80) + "' where the live store answered '" +
                    saved.probe_expected.substr(0, 80) + "'";
    }
  }
}

// ---- Metrics. -----------------------------------------------------------

struct Collector {
  std::vector<Metric> metrics;
  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back(Metric{name, value, unit});
  }
};

double share(double part, double whole) {
  return whole > 0.0 ? part / whole : 0.0;
}

}  // namespace

bool is_workload(const std::string& name) {
  return name == "ingest_day" || name == "fault_storm";
}

Result run_workload(const Options& options) {
  const Kind kind = kind_of(options.workload);
  Result result;
  std::string& log = result.report;

  // Simulator: outside every timed region and outside setup_s.
  const std::int64_t sim_t0 = now_ns();
  auto in = materialize(kind, options.seed);
  const double materialize_s = seconds_between(sim_t0, now_ns());
  if (in->ingests()) build_serial_reference(*in);
  count_eval(*in);

  Tracer tracer{options.trace};
  Tracer untraced{false};
  std::int64_t step_counter = 0;

  // Verification replay (untimed; also warms caches): compares the engine's
  // quartets with the serial reference, scores the incidents, and snapshots
  // its final state for the recovery cycles.
  Verification verify{
      options.work_dir + "/" + options.workload + "-" +
          std::to_string(options.seed) + ".snap",
      bl::scenario::IncidentScorer{in->topology.get(), in->incidents}};
  Replay first = replay(*in, untraced, false, step_counter, &verify);

  // Timed replays until the measuring window is used up. A traced run
  // alternates untraced and traced replays so trace.overhead_pct compares
  // like with like.
  std::vector<Replay> timed;
  const std::int64_t window_t0 = now_ns();
  const auto window_ns = static_cast<std::int64_t>(options.seconds * 1e9);
  Recovery recovery;
  while (timed.size() < 2 || now_ns() - window_t0 < window_ns) {
    const bool traced = options.trace && timed.size() % 2 == 1;
    timed.push_back(
        replay(*in, traced ? tracer : untraced, traced, step_counter));
    restore_once(*in, first, verify.snapshot_path, traced ? tracer : untraced,
                 recovery);
    timed.back().recovery_s = recovery.total_s.back();
  }
  std::filesystem::remove(verify.snapshot_path);

  // ---- Output checks. ----
  std::vector<const Replay*> all{&first};
  for (const auto& t : timed) all.push_back(&t);
  std::vector<std::string> digests;
  std::vector<bool> traced_flags;
  for (const Replay* r : all) {
    digests.push_back(r->digest);
    traced_flags.push_back(r->traced);
  }
  std::vector<std::string>& failures = result.failures;
  if (auto bad = check_digests(digests, traced_flags)) failures.push_back(*bad);
  for (const Replay* r : all) {
    if (!r->failures.empty()) {
      failures.insert(failures.end(), r->failures.begin(), r->failures.end());
      result.failed += r->failures.size();
      break;
    }
  }
  if (in->ingests()) {
    for (const Replay* r : all) {
      if (auto bad = check_ingest_accounting(
              r->ingest, r->submitted, in->eval_quartet_records,
              in->eval_quartets, in->reference_drops)) {
        failures.push_back(*bad);
        ++result.failed;
        break;
      }
    }
  }
  if (recovery.failure) failures.push_back(*recovery.failure);
  for (const Replay* r : all) {
    for (const auto& reason : r->http.failures) failures.push_back(reason);
    result.failed += r->http.failed;
  }

  // ---- Attempted operations: steps, requests, restores. ----
  result.attempted = recovery.total_s.size();
  for (const Replay* r : all) {
    result.attempted += r->totals.steps + r->http.requests;
  }
  result.failed += recovery.failure ? 1 : 0;

  // Scoring and probe cost from the verification replay (every replay has
  // the same digest, so the same outputs).
  const StepTotals& totals = first.totals;
  int passed = 0;
  const auto scores = verify.scorer.finish();
  for (const auto& s : scores) passed += s.passed;
  const double accuracy =
      scores.empty() ? 0.0 : static_cast<double>(passed) / scores.size();

  const auto qps = [](const Replay& r) {
    return static_cast<double>(r.quartets) / r.work_s;
  };
  // Timing figures come from the fastest quarter: of the replays (by
  // quartets_per_s) for the figures of the step loop, and of the setups and
  // restores themselves for setup_s and recovery_s. CPU time already leaves
  // out time a thread waited for a CPU, but a neighbour busy on the same
  // physical core or cache still slows every instruction for a while; a
  // slower program slows every replay, so the fastest quarter still shows
  // it.
  const auto replays = [&timed](bool traced) {
    std::vector<const Replay*> runs;
    for (const auto& r : timed) {
      if (r.traced == traced) runs.push_back(&r);
    }
    return runs;
  };
  const auto fastest_quarter = [](std::vector<const Replay*> runs, auto cost) {
    std::stable_sort(runs.begin(), runs.end(),
                     [&cost](const Replay* a, const Replay* b) {
                       return cost(*a) < cost(*b);
                     });
    runs.resize((runs.size() + 3) / 4);
    return runs;
  };
  const auto inverse_qps = [&qps](const Replay& r) { return 1.0 / qps(r); };
  const std::vector<const Replay*> untraced_runs =
      fastest_quarter(replays(false), inverse_qps);
  const std::vector<const Replay*> traced_runs =
      fastest_quarter(replays(true), inverse_qps);
  const auto per_replay = [](const std::vector<const Replay*>& runs, auto f) {
    std::vector<double> v;
    for (const Replay* r : runs) v.push_back(f(*r));
    return median(std::move(v));
  };
  // The fastest quarter of one timing over all untraced replays, median.
  const auto fastest_median = [&](auto f) {
    return per_replay(fastest_quarter(replays(false), f), f);
  };
  // Percentiles per block of consecutive replays holding at least
  // `block_size` samples, then the median over blocks.
  const auto block_percentile = [](const std::vector<const Replay*>& runs,
                                   std::vector<double> Replay::*samples,
                                   std::size_t block_size, double p) {
    std::vector<double> per_block;
    std::vector<double> block;
    for (const Replay* r : runs) {
      const auto& v = r->*samples;
      block.insert(block.end(), v.begin(), v.end());
      if (block.size() >= block_size) {
        per_block.push_back(percentile(block, p));
        block.clear();
      }
    }
    if (per_block.empty()) return percentile(block, p);
    return median(std::move(per_block));
  };
  Collector c;
  if (!options.trace) {
    std::size_t steps = 0;
    for (const Replay* r : untraced_runs) steps += r->freshness_ms.size();
    const auto freshness = [&](double p) {
      return block_percentile(untraced_runs, &Replay::freshness_ms,
                              kBlockSteps, p);
    };
    const auto verdict_get_ms = [&](double p) {
      return block_percentile(untraced_runs, &Replay::store_read_us,
                              kBlockReadBatches, p) / 1e3;
    };
    c.add("setup_s", fastest_median([](const Replay& r) { return r.setup_s; }),
          "s");
    c.add("quartets_per_s", per_replay(untraced_runs, qps), "1/s");
    c.add("freshness_p50_ms", freshness(50), "ms");
    c.add("freshness_p90_ms", freshness(90), "ms");
    c.add("verdict_get_p50_ms", verdict_get_ms(50), "ms");
    c.add("verdict_get_p99_ms", verdict_get_ms(99), "ms");
    c.add("accuracy", accuracy, "ratio");
    c.add("probes_per_diagnosis",
          share(double(totals.probes), double(totals.diagnoses)), "count");
    c.add("recovery_s",
          fastest_median([](const Replay& r) { return r.recovery_s; }), "s");
    c.add("state_rss_mb", first.rss_mb, "MB");
    char line[256];
    std::snprintf(line, sizeof line,
                  "%s seed=%llu: %zu timed replays (the fastest %zu "
                  "measured), %zu steps, %llu eval quartets, digest %s\n",
                  options.workload.c_str(),
                  static_cast<unsigned long long>(options.seed), timed.size(),
                  untraced_runs.size(), steps,
                  static_cast<unsigned long long>(in->eval_quartets),
                  first.digest.c_str());
    log += line;
    std::snprintf(line, sizeof line,
                  "  quartets per wall second of the step loop (for "
                  "comparison): median %.0f\n",
                  per_replay(untraced_runs, [](const Replay& r) {
                    return static_cast<double>(r.quartets) / r.loop_s;
                  }));
    log += line;
  } else {
    // Per-layer metrics from the traced replays.
    std::map<std::string, SpanTotals> spans;
    double window_ns_total = 0.0;
    double top_ns = 0.0;
    double buckets = 0.0;
    double steps = 0.0;
    double quartets = 0.0;
    for (const Replay* r : traced_runs) {
      for (const auto& [name, t] : tracer.totals(r->span_begin, r->span_end)) {
        SpanTotals& sum = spans[name];
        sum.total_ns += t.total_ns;
        sum.self_ns += t.self_ns;
        sum.count += t.count;
      }
      window_ns_total += r->loop_s * 1e9;
      top_ns += static_cast<double>(
          tracer.top_level_ns(r->span_begin, r->span_end));
      buckets += static_cast<double>(in->eval_buckets);
      steps += static_cast<double>(r->freshness_ms.size());
      quartets += static_cast<double>(r->quartets);
    }
    const auto total_ms = [&spans](const char* name) {
      const auto it = spans.find(name);
      return it == spans.end() ? 0.0 : double(it->second.total_ns) / 1e6;
    };
    const auto self_ms = [&spans](const char* name) {
      const auto it = spans.find(name);
      return it == spans.end() ? 0.0 : double(it->second.self_ns) / 1e6;
    };
    const double records = double(in->record_count) * double(traced_runs.size());
    const Replay& last = *traced_runs.back();
    const auto& ing = last.ingest;
    double busy_share = 0.0;
    std::uint64_t parks = 0;
    for (const auto& s : ing.shards) {
      busy_share += static_cast<double>(s.busy_ns);
      parks += s.consumer_parks;
    }
    busy_share =
        share(busy_share, double(ing.shards.size()) * last.loop_s * 1e9);
    const double ingest_ms_per_replay =
        (total_ms("ingest.feed") + total_ms("ingest.fence") +
         total_ms("ingest.take")) / double(traced_runs.size());
    const auto& reg = *last.registry;
    const double memo_hits =
        double(reg.counter_value("learner.memo_hits").value_or(0));
    const double memo_misses =
        double(reg.counter_value("learner.memo_misses").value_or(0));

    c.add("ingest.feed_ns_per_record",
          share(total_ms("ingest.feed") * 1e6, records), "ns");
    c.add("ingest.fence_ms_per_bucket",
          in->ingests() ? share(total_ms("ingest.fence"), buckets) : 0.0, "ms");
    c.add("ingest.take_ms_per_bucket",
          in->ingests() ? share(total_ms("ingest.take"), buckets) : 0.0, "ms");
    c.add("ingest.shard_busy_share", busy_share, "ratio");
    c.add("ingest.backpressure_waits", double(ing.backpressure_waits), "count");
    c.add("ingest.consumer_parks", double(parks), "count");
    c.add("ingest.ring_high_water", double(ing.ring_high_water), "count");
    c.add("ingest.records_in", double(ing.records_in), "count");
    c.add("ingest.quartets_out", double(ing.quartets_finalized), "count");
    c.add("ingest.dropped_records",
          double(ing.late_dropped + ing.unknown_dropped + ing.closed_dropped),
          "count");
    c.add("ingest.speedup_vs_serial",
          in->ingests() ? share(in->serial_build_s * 1e3, ingest_ms_per_replay)
                        : 0.0,
          "ratio");
    c.add("learn.ms_per_bucket", share(total_ms("learn"), buckets), "ms");
    c.add("learn.ns_per_quartet", share(total_ms("learn") * 1e6, quartets),
          "ns");
    c.add("learner.memo_hit_share", share(memo_hits, memo_hits + memo_misses),
          "ratio");
    c.add("learner.tracked_keys",
          reg.gauge_value("learner.tracked_keys").value_or(0.0), "count");
    c.add("localize.ms_per_bucket", share(total_ms("localize"), buckets), "ms");
    c.add("localize.ns_per_quartet",
          share(total_ms("localize") * 1e6, quartets), "ns");
    c.add("passive.blames", double(totals.blames), "count");
    c.add("passive.shard_imbalance",
          reg.gauge_value("passive.shard_imbalance").value_or(0.0), "ratio");
    c.add("active.ms_per_step", share(total_ms("active"), steps), "ms");
    c.add("active.issues_ranked", double(totals.ranked), "count");
    c.add("active.diagnoses", double(totals.diagnoses), "count");
    c.add("active.probes", double(totals.probes), "count");
    c.add("active.retries", double(totals.retries), "count");
    c.add("active.culprit_share",
          share(double(totals.culprits), double(totals.diagnoses)), "ratio");
    c.add("background.ms_per_step", share(total_ms("background"), steps),
          "ms");
    c.add("background.probes", double(totals.background_probes), "count");
    c.add("step.self_ms", share(self_ms("step"), steps), "ms");
    c.add("step.self_share", share(self_ms("step"), total_ms("step")),
          "ratio");
    c.add("publish.ms_per_step", share(total_ms("publish"), steps), "ms");
    c.add("publish.blames_per_step",
          share(double(totals.blames), double(totals.steps)), "count");
    c.add("store.verdict_state_bytes", double(last.verdict_state_bytes),
          "bytes");
    c.add("store.live_verdicts",
          reg.gauge_value("svc.store.verdicts").value_or(0.0), "count");
    std::vector<double> roundtrip;
    std::uint64_t requests = 0;
    std::vector<double> handler;
    for (const Replay* r : traced_runs) {
      roundtrip.insert(roundtrip.end(), r->http.roundtrip_us.begin(),
                       r->http.roundtrip_us.end());
      handler.insert(handler.end(), r->handler_us.begin(),
                     r->handler_us.end());
      requests += r->http.requests;
    }
    c.add("http.handler_us", median(handler), "us");
    c.add("http.roundtrip_us", median(roundtrip), "us");
    c.add("http.requests",
          share(double(requests), double(traced_runs.size())), "count");
    c.add("snapshot.save_ms", first.save_ms, "ms");
    c.add("snapshot.bytes", double(first.snapshot_bytes), "bytes");
    c.add("snapshot.load_ms", median(recovery.load_ms), "ms");
    c.add("snapshot.restore_ms", median(recovery.restore_ms), "ms");
    c.add("sim.materialize_s", materialize_s, "s");
    c.add("trace.unowned_share", share(window_ns_total - top_ns,
                                       window_ns_total),
          "ratio");
    const double qps_untraced = per_replay(untraced_runs, qps);
    const double qps_traced = per_replay(traced_runs, qps);
    c.add("trace.overhead_pct", (share(qps_untraced, qps_traced) - 1.0) * 100.0,
          "%");

    // Attribution table: self time per layer over the replay windows.
    char line[256];
    std::snprintf(line, sizeof line,
                  "attribution (%s seed=%llu, %zu traced replays, "
                  "%.1f ms of replay wall time):\n",
                  options.workload.c_str(),
                  static_cast<unsigned long long>(options.seed),
                  traced_runs.size(), window_ns_total / 1e6);
    log += line;
    for (const auto& [name, t] : spans) {
      if (name.starts_with("snapshot.")) continue;
      std::snprintf(line, sizeof line, "  %-14s self %10.2f ms  %6.2f%%\n",
                    name.c_str(), double(t.self_ns) / 1e6,
                    100.0 * share(double(t.self_ns), window_ns_total));
      log += line;
    }
    std::snprintf(line, sizeof line,
                  "  %-14s      %10.2f ms  %6.2f%%  (trace.unowned_share)\n",
                  "unowned", (window_ns_total - top_ns) / 1e6,
                  100.0 * share(window_ns_total - top_ns, window_ns_total));
    log += line;
    std::snprintf(line, sizeof line,
                  "  sim.materialize_s %.3f s (outside every span)\n",
                  materialize_s);
    log += line;
    const std::string trace_path = options.work_dir + "/trace-" +
                                   options.workload + "-" +
                                   std::to_string(options.seed) + ".jsonl";
    if (tracer.write_jsonl(trace_path)) {
      log += "  spans written to " + trace_path + "\n";
    } else {
      failures.push_back("trace: could not write " + trace_path);
    }
  }
  result.metrics = std::move(c.metrics);
  return result;
}

}  // namespace e2ebench
