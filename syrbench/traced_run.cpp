// syrbench_trace — the traced, in-process run behind the benchmark's
// per-layer metrics.
//
//   syrbench_trace --workload generate|analyze --seed S
//                  --csv LOG.csv --col LOG.col --ref-crc HEX
//                  --work DIR --out DIR
//
// It drives the same library calls `syrwatchctl` makes on three paths
// (checkpointed generate --format both, the sharded farm, and the
// report/discover/watch read path), wrapping spans around
// every call into a module's public functions. `SyriaScenario::run` is the
// one pipeline whose generate / process / merge phases cannot be called
// separately: for it the program reads the stages and counters the scenario
// publishes into a registry attached with `set_obs`, and derives the
// per-batch simulate / merge / commit spans from the public sink,
// after_commit and on_progress hooks.
//
// Every traced run measures all three paths, so every per-layer metric is
// reported on every workload; --workload picks the path that is run once
// more untraced afterwards, and obs.trace_overhead_ratio is traced over
// untraced wall time of that path. --csv/--col are a reference log of the
// same seed and size (the analysis path reads them) and --ref-crc is its
// CRC32, which the generated and sharded logs must match. Every path runs
// on the benchmark fixture: kRequests requests at kThreads threads.
//
// Writes DIR/trace.json (Chrome trace-event JSON, one track per thread),
// DIR/layers.txt (self time per layer) and DIR/report.txt (the col report
// as rendered here; its Dsample / Duser / Ddenied derivation is a copy of
// the CLI's, so the caller checks it byte for byte against `syrwatchctl
// report LOG.col --seed S`), and prints one JSON object with the metrics
// and check results as the last line of stdout.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "analysis/bittorrent.h"
#include "analysis/google_cache.h"
#include "analysis/https_audit.h"
#include "analysis/ip_censorship.h"
#include "analysis/osn.h"
#include "analysis/port_dist.h"
#include "analysis/sampling.h"
#include "analysis/scan.h"
#include "analysis/stream.h"
#include "analysis/stream_report.h"
#include "analysis/string_discovery.h"
#include "analysis/tor_analysis.h"
#include "analysis/top_domains.h"
#include "analysis/traffic_stats.h"
#include "colfmt/container.h"
#include "core/report.h"
#include "counting_vfs.h"
#include "durable/checkpoint.h"
#include "durable/manifest.h"
#include "obs/context.h"
#include "obs/metrics.h"
#include "policy/syria.h"
#include "shard/coordinator.h"
#include "shard/merge.h"
#include "trace.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/simtime.h"
#include "util/vfs.h"
#include "workload/scenario.h"

namespace {

using namespace syrwatch;
using syrbench::kAuto;
using syrbench::now_ns;
using syrbench::Scope;
using syrbench::Tracer;
namespace fs = std::filesystem;

constexpr std::uint64_t kRequests = 600'000;
constexpr std::size_t kThreads = 4;

struct Options {
  std::string workload;
  std::uint64_t seed = 2011;
  std::string csv;
  std::string col;
  std::uint32_t ref_crc = 0;
  std::string work;
  std::string out;
};

double seconds(std::uint64_t nanos) { return static_cast<double>(nanos) * 1e-9; }

/// Check bookkeeping: every check is one attempt; a failed one is named.
struct Checks {
  std::uint64_t attempted = 0;
  std::vector<std::string> failures;
  void expect(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) failures.push_back(what);
  }
};

workload::ScenarioConfig fixture(const Options& o, std::size_t threads) {
  workload::ScenarioConfig config;
  config.total_requests = kRequests;
  config.seed = o.seed;
  config.threads = threads;
  return config;
}

// ---------------------------------------------------------------------------
// generate: `syrwatchctl generate --format both --checkpoint-dir D/ckpt
// --out D/log.csv --threads T`, as library calls.

struct GenerateRun {
  std::unique_ptr<workload::SyriaScenario> scenario;
  double wall_s = 0;
  std::uint64_t records = 0;
  std::uint32_t crc = 0;
  std::uint64_t col_bytes = 0;
  std::uint64_t commits = 0;
  bool completed = false;
};

/// Turns the checkpoint hooks into per-batch spans: simulate (batch start
/// to the first record reaching the sink: generation, routing and proxy
/// processing), merge (first to last sink call) and durable.commit /
/// durable.append (last sink call to after_commit, or to on_progress for a
/// batch that does not commit: the spool append plus, on commit batches,
/// the farm state and manifest).
class BatchClock {
 public:
  explicit BatchClock(Tracer& tracer) : tracer_(tracer) {}

  void start(std::uint64_t t) { batch_start_ = t; }

  /// Called at the top of every sink call.
  void on_record(std::uint64_t t) {
    if (phase_ != Phase::kSimulate) return;
    tracer_.record("workload.simulate", "workload", batch_start_, t);
    first_ = t;
    phase_ = Phase::kMerge;
  }
  void after_record(std::uint64_t t) { last_ = t; }

  void on_commit(std::uint64_t t) { end_batch_phase("durable.commit", t); }

  void on_progress(std::uint64_t t) {
    end_batch_phase("durable.append", t);
    batch_start_ = t;
    phase_ = Phase::kSimulate;
  }

 private:
  enum class Phase { kSimulate, kMerge, kDurable };

  void end_batch_phase(const char* durable_name, std::uint64_t t) {
    if (phase_ == Phase::kSimulate) {
      tracer_.record("workload.simulate", "workload", batch_start_, t);
    } else if (phase_ == Phase::kMerge) {
      tracer_.record("workload.merge", "workload", first_, last_);
      tracer_.record(durable_name, "durable", last_, t);
    }
    phase_ = Phase::kDurable;
  }

  Tracer& tracer_;
  Phase phase_ = Phase::kSimulate;
  std::uint64_t batch_start_ = 0;
  std::uint64_t first_ = 0;
  std::uint64_t last_ = 0;
};

GenerateRun run_generate(const Options& o, Tracer& tracer, obs::Context* ctx,
                         const std::string& dir) {
  GenerateRun run;
  const std::string checkpoint_dir = dir + "/ckpt";
  const std::string out_path = dir + "/log.csv";
  const std::string col_path = dir + "/log.col";
  fs::create_directories(dir);

  const bool traced = tracer.enabled();
  const std::uint64_t start = now_ns();
  Scope job{tracer, "job.generate", "bench"};
  {
    Scope span{tracer, "workload.scenario", "workload"};
    run.scenario =
        std::make_unique<workload::SyriaScenario>(fixture(o, kThreads));
  }
  run.scenario->set_obs(ctx);

  colfmt::Writer col{col_path};
  BatchClock clock{tracer};
  const workload::LogCallback sink = [&](const proxy::LogRecord& record) {
    if (!traced) {
      col.add(record);
      ++run.records;
      return;
    }
    const std::uint64_t t0 = now_ns();
    clock.on_record(t0);
    const std::uint64_t a0 = now_ns();
    col.add(record);
    const std::uint64_t a1 = now_ns();
    tracer.record("colfmt.add", "colfmt", a0, a1, kAuto, /*detail=*/true);
    ++run.records;
    const std::uint64_t t1 = now_ns();
    tracer.record("workload.sink", "workload", t0, t1, kAuto,
                  /*detail=*/true);
    clock.after_record(t1);
  };

  durable::CheckpointOptions checkpoint;
  checkpoint.directory = checkpoint_dir;
  checkpoint.commit_interval = 8;
  checkpoint.after_commit = [&](std::size_t) {
    ++run.commits;
    if (traced) clock.on_commit(now_ns());
  };
  if (traced)
    checkpoint.on_progress = [&](std::size_t) { clock.on_progress(now_ns()); };

  durable::CheckpointedRun result;
  {
    Scope span{tracer, "durable.run_checkpointed", "durable"};
    clock.start(now_ns());
    result = durable::run_checkpointed(*run.scenario, checkpoint, sink);
  }
  run.completed = result.completed;
  if (!run.completed) {
    col.abandon();
    return run;
  }
  util::ArtifactInfo col_info;
  {
    Scope span{tracer, "colfmt.finish", "colfmt"};
    col_info = col.finish();
  }
  util::ArtifactInfo info;
  {
    Scope span{tracer, "durable.finalize_output", "durable"};
    info = durable::finalize_output(checkpoint_dir, result.manifest, out_path);
  }
  {
    Scope span{tracer, "durable.manifest_save", "durable"};
    result.manifest.upsert_artifact(
        {col_path, "output", col_info.bytes, col_info.crc32, -1});
    result.manifest.save(checkpoint_dir + "/" +
                         std::string(durable::RunManifest::kFileName));
  }
  run.crc = info.crc32;
  run.col_bytes = col_info.bytes;
  run.wall_s = seconds(now_ns() - start);
  return run;
}

/// Re-executes the policy, routing and csv-rendering layers over the run's
/// emitted records, read back from the container block by block, timing
/// only the calls themselves.
struct Replay {
  std::uint64_t evaluations = 0;
  std::uint64_t evaluate_ns = 0;
  std::uint64_t routes = 0;
  std::uint64_t route_ns = 0;
  std::uint64_t to_csv_ns = 0;
  std::uint64_t checksum = 0;  // keeps the timed loops observable
};

Replay replay_layers(const std::string& col_path,
                     const workload::SyriaScenario& scenario,
                     std::uint64_t seed, Tracer& tracer) {
  Replay replay;
  Scope root{tracer, "replay", "bench"};
  const colfmt::Reader reader = colfmt::Reader::open(col_path);
  const policy::SyriaPolicy& policy = scenario.policy();
  util::Rng rng{util::mix64(seed ^ 0xB3C4)};
  std::vector<proxy::LogRecord> records;
  std::vector<std::string_view> custom;
  std::vector<proxy::Request> requests;
  for (std::size_t b = 0; b < reader.block_count(); ++b) {
    const auto block = reader.decode(b);
    records.clear();
    custom.clear();
    requests.clear();
    for (std::size_t r = 0; r < block.rows; ++r) {
      records.push_back(reader.record(block, r));
      const proxy::LogRecord& record = records.back();
      custom.push_back(policy.custom_categories.classify(record.url));
      proxy::Request request;
      request.time = record.time;
      request.user_id = record.user_hash;
      request.user_agent = record.user_agent;
      request.method = record.method;
      request.url = record.url;
      request.dest_ip = record.dest_ip;
      requests.push_back(std::move(request));
    }

    std::uint64_t t0 = now_ns();
    for (std::size_t i = 0; i < records.size(); ++i) {
      const policy::FilterRequest filter{&records[i].url, records[i].dest_ip,
                                         records[i].time, custom[i]};
      const auto decision =
          policy.proxies[records[i].proxy_index].engine.evaluate(filter, rng);
      replay.checksum += decision.rule_index;
    }
    std::uint64_t t1 = now_ns();
    tracer.record("policy.evaluate", "policy", t0, t1);
    replay.evaluate_ns += t1 - t0;
    replay.evaluations += records.size();

    t0 = now_ns();
    for (const proxy::Request& request : requests)
      replay.checksum += scenario.farm().route(request);
    t1 = now_ns();
    tracer.record("proxy.route", "proxy", t0, t1);
    replay.route_ns += t1 - t0;
    replay.routes += requests.size();

    t0 = now_ns();
    for (const proxy::LogRecord& record : records)
      replay.checksum += proxy::to_csv(record).size();
    t1 = now_ns();
    tracer.record("proxy.to_csv", "proxy", t0, t1);
    replay.to_csv_ns += t1 - t0;
  }
  return replay;
}

// ---------------------------------------------------------------------------
// sharded: `syrwatchctl generate --workers 4 --threads 1 --checkpoint-dir
// D/ckpt --out D/log.csv`. No benchmark workload runs this path end to end;
// the traced run measures the shard layer here.

constexpr std::size_t kShardWorkers = 4;

struct ShardedRunOut {
  double wall_s = 0;
  shard::ShardedRun result;
  std::string checkpoint_dir;
};

ShardedRunOut run_sharded_path(const Options& o, Tracer& tracer,
                               obs::Context* ctx, const std::string& dir) {
  ShardedRunOut out;
  fs::create_directories(dir);
  out.checkpoint_dir = dir + "/ckpt";
  shard::CoordinatorOptions options;
  options.config = fixture(o, 1);
  options.directory = out.checkpoint_dir;
  options.out_path = dir + "/log.csv";
  options.workers = kShardWorkers;
  options.commit_interval = 8;
  options.obs = ctx;
  const std::uint64_t start = now_ns();
  {
    Scope job{tracer, "job.sharded", "bench"};
    Scope span{tracer, "shard.run_sharded", "shard"};
    out.result = shard::run_sharded(options);
  }
  out.wall_s = seconds(now_ns() - start);
  return out;
}

// ---------------------------------------------------------------------------
// analyze: what `report` (col and csv), `discover` and `watch --once` do.

struct Views {
  analysis::LogSource sample, user, denied;
};

/// The Dsample / Duser / Ddenied views `syrwatchctl report` carves out of
/// Dfull (the Bernoulli draw applied in stable time order) — a copy of the
/// CLI's own derivation, which is private to syrwatchctl.cpp. The col
/// report rendered from these views is written to report.txt and compared
/// with the CLI's stdout, so the copy cannot drift unnoticed.
Views derive(const analysis::LogSource& full, std::uint64_t seed,
             std::size_t threads) {
  auto sample_mask =
      std::make_shared<std::vector<std::uint8_t>>(full.rows(), 0);
  std::vector<std::int64_t> times(sample_mask->size());
  full.prepare(threads);
  util::parallel_for(full.partitions(), threads, [&](std::size_t p) {
    full.scan_partition(p, [&](const analysis::Record& r) {
      times[static_cast<std::size_t>(r.ordinal)] = r.time;
    });
  });
  std::vector<std::uint64_t> order(times.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint64_t a, std::uint64_t b) {
                     return times[a] < times[b];
                   });
  util::Rng rng{util::mix64(seed ^ 0x5A3D1E)};
  for (const auto ordinal : order)
    (*sample_mask)[ordinal] = rng.bernoulli(0.04) ? 1 : 0;
  Views views{full.masked(std::move(sample_mask), threads),
              full.filtered(
                  [](const analysis::Record& r) {
                    if (r.proxy_index != 0 || r.user_hash == 0) return false;
                    const auto c = util::to_civil(r.time);
                    return c.month == 7 && (c.day == 22 || c.day == 23);
                  },
                  threads),
              full.filtered(
                  [](const analysis::Record& r) {
                    return r.exception != proxy::ExceptionId::kNone;
                  },
                  threads)};
  return views;
}

struct AnalyzeRun {
  double wall_s = 0;
  std::uint64_t rows = 0;
  std::uint64_t discovery_accepted = 0;
  std::uint64_t render_inner_ns = 0;  // report blocks inside core.render
  std::vector<std::string> analyzers;  // span names, in call order
  std::string col_report;
  bool reports_identical = false;
  bool discovery_identical = false;
  std::uint64_t stream_records = 0;
  std::uint64_t stream_class_sum = 0;
};

/// Renders the full report through core (one span) and returns it. The
/// report's analyzer blocks run sequentially inside the call and publish
/// only their totals (analysis.* stages); one detail child of that length
/// stands in for them, so the render span's self time is core's own share.
std::string render(const core::ReportSources& base, Tracer& tracer,
                   const char* name, std::uint64_t* inner_ns) {
  obs::MetricsRegistry registry;
  obs::Context ctx{&registry};
  core::ReportSources sources = base;
  if (tracer.enabled()) sources.obs = &ctx;
  std::uint64_t start = 0;
  std::string text;
  {
    Scope span{tracer, name, "core"};
    start = now_ns();
    text = core::render_full_report(sources);
  }
  std::uint64_t inner = 0;
  for (const auto& stage : registry.snapshot().stages)
    if (stage.name.rfind("analysis.", 0) == 0) inner += stage.total_nanos;
  tracer.record("analysis.report_blocks", "analysis", start, start + inner,
                kAuto, /*detail=*/true);
  if (inner_ns != nullptr) *inner_ns += inner;
  return text;
}

AnalyzeRun run_analyze(const Options& o, Tracer& tracer) {
  AnalyzeRun run;
  const std::size_t t = kThreads;
  const std::uint64_t start = now_ns();
  Scope job{tracer, "job.analyze", "bench"};

  const auto load = [&](const char* name, const std::string& path,
                        const char* format) {
    Scope span{tracer, name, "analysis"};
    return analysis::open_source(path, {.format = format, .threads = t});
  };
  const analysis::OpenedSource csv = load("analysis.load_csv", o.csv, "csv");
  {
    Scope span{tracer, "colfmt.open", "colfmt"};
    const colfmt::Reader reader = colfmt::Reader::open(o.col);
    run.rows = reader.rows();
  }
  const analysis::OpenedSource col = load("analysis.load_col", o.col, "col");

  std::unique_ptr<const workload::SyriaScenario> env;
  {
    // `report` builds the lookup environment (GeoIP, relays, torrents)
    // from a default-sized scenario at the log's seed.
    Scope span{tracer, "workload.scenario", "workload"};
    workload::ScenarioConfig config;
    config.seed = o.seed;
    env = std::make_unique<const workload::SyriaScenario>(config);
  }

  const analysis::LogSource full = col.source();
  const analysis::LogSource csv_full = csv.source();
  std::optional<Views> views;
  std::optional<Views> csv_views;
  {
    Scope span{tracer, "analysis.derive", "analysis"};
    views.emplace(derive(full, o.seed, t));
  }
  {
    Scope span{tracer, "analysis.derive", "analysis"};
    csv_views.emplace(derive(csv_full, o.seed, t));
  }

  // The twelve report analyzers, called directly on the container-backed
  // sources (the same calls core::render_full_report makes per block).
  std::uint64_t sink = 0;
  const auto analyzer = [&](const char* name, const std::function<void()>& fn) {
    run.analyzers.push_back(name);
    Scope span{tracer, name, "analysis"};
    fn();
  };
  analyzer("analysis.dataset_sizes", [&] {
    sink += full.rows() + views->sample.rows() + views->user.rows() +
            views->denied.rows();
  });
  analyzer("analysis.traffic_stats",
           [&] { sink += analysis::traffic_stats(full, t).total; });
  analyzer("analysis.top_domains", [&] {
    for (const auto cls :
         {proxy::TrafficClass::kAllowed, proxy::TrafficClass::kCensored})
      sink += analysis::top_domains(full, {cls, 10, std::nullopt}, t)
                  .size();
  });
  analyzer("analysis.ports",
           [&] { sink += analysis::port_distribution(full, 8, t).size(); });
  analysis::DiscoveryResult discovery;
  analyzer("analysis.string_discovery", [&] {
    discovery = analysis::discover_censored_strings(full, {}, t);
  });
  run.discovery_accepted = discovery.keywords.size() + discovery.domains.size();
  analyzer("analysis.countries", [&] {
    sink += analysis::country_censorship(full, env->geoip(), t).size();
  });
  analyzer("analysis.osn", [&] {
    sink += analysis::osn_censorship(full, t).size();
    sink += analysis::blocked_facebook_pages(full, t).size();
  });
  analyzer("analysis.tor", [&] {
    sink += analysis::tor_stats(full, env->relays(), t).requests;
  });
  analyzer("analysis.bittorrent", [&] {
    sink += analysis::bittorrent_stats(full, env->torrents(), t)
                .tool_announces.size();
  });
  analyzer("analysis.https",
           [&] { sink += analysis::https_stats(full, t).total; });
  analyzer("analysis.sampling_audit", [&] {
    sink += analysis::sampling_audit(full, views->sample, 0.05, t).size();
  });
  analyzer("analysis.google_cache", [&] {
    sink += analysis::google_cache_stats(full, discovery.domain_names(), t)
                .requests;
  });
  {
    // `discover` on the csv backend, for the col/csv identity check.
    Scope span{tracer, "analysis.string_discovery_csv", "analysis"};
    const auto csv_discovery =
        analysis::discover_censored_strings(csv_full, {}, t);
    run.discovery_identical =
        csv_discovery.domain_names() == discovery.domain_names() &&
        csv_discovery.keywords.size() == discovery.keywords.size() &&
        csv_discovery.censored_requests_explained ==
            discovery.censored_requests_explained;
  }

  const core::ReportSources col_sources{full,
                                        views->sample,
                                        views->user,
                                        views->denied,
                                        &env->geoip(),
                                        &env->relays(),
                                        &env->torrents(),
                                        t,
                                        nullptr};
  const core::ReportSources csv_sources{csv_full,
                                        csv_views->sample,
                                        csv_views->user,
                                        csv_views->denied,
                                        &env->geoip(),
                                        &env->relays(),
                                        &env->torrents(),
                                        t,
                                        nullptr};
  run.col_report =
      render(col_sources, tracer, "core.render", &run.render_inner_ns);
  const std::string csv_report =
      render(csv_sources, tracer, "core.render_csv", nullptr);
  run.reports_identical =
      run.col_report == csv_report && !run.col_report.empty();

  {
    // `watch --once` over the csv log: tail, ingest, one snapshot.
    analysis::StreamSource stream{o.csv};
    analysis::StreamReportOptions options;
    options.bin = {300};
    options.window_bins = 288;
    options.top_k = 10;
    analysis::StreamAnalyzer analyzer{options};
    {
      Scope span{tracer, "stream.poll", "analysis"};
      stream.poll();
    }
    {
      Scope span{tracer, "stream.ingest", "analysis"};
      analysis::scan_increment(
          stream.source(), 0,
          [&](const analysis::Record& r) { analyzer.ingest(r); });
    }
    Scope span{tracer, "stream.snapshot", "analysis"};
    auto report = analyzer.snapshot();
    report.spool_offset = stream.tail().offset();
    sink += analysis::render_stream_report(report).size();
    sink += analysis::stream_report_json(report).size();
    run.stream_records = report.records;
    for (const std::uint64_t n : report.class_totals) run.stream_class_sum += n;
  }
  if (sink == 0) std::fprintf(stderr, "(empty analysis results)\n");
  run.wall_s = seconds(now_ns() - start);
  return run;
}

// ---------------------------------------------------------------------------

bool parse(int argc, char** argv, Options& o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") o.workload = value;
    else if (flag == "--seed") o.seed = std::stoull(value);
    else if (flag == "--csv") o.csv = value;
    else if (flag == "--col") o.col = value;
    else if (flag == "--ref-crc")
      o.ref_crc = static_cast<std::uint32_t>(std::stoul(value, nullptr, 16));
    else if (flag == "--work") o.work = value;
    else if (flag == "--out") o.out = value;
    else return false;
  }
  return (argc % 2) == 1 &&
         (o.workload == "generate" || o.workload == "analyze") &&
         !o.csv.empty() && !o.col.empty() && !o.work.empty() &&
         !o.out.empty();
}

std::uint64_t counter(const obs::MetricsSnapshot& snap, std::string_view name) {
  for (const auto& c : snap.counters)
    if (c.name == name) return c.value;
  return 0;
}

const obs::MetricsSnapshot::StageValue* stage(const obs::MetricsSnapshot& snap,
                                              std::string_view name) {
  for (const auto& s : snap.stages)
    if (s.name == name) return &s;
  return nullptr;
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out{path, std::ios::binary};
  out << text;
  if (!out) throw std::runtime_error("cannot write " + path);
}

int run(const Options& o) {
  Checks checks;
  std::map<std::string, double> m;
  fs::create_directories(o.work);
  fs::create_directories(o.out);

  // 1. Every path traced, with a counting Vfs under every durable write.
  //    The sharded farm goes first: its work runs in forked workers, so the
  //    generate path, whose overhead ratio may be asked for, is not the
  //    first heavy work in this process.
  Tracer tracer{true};
  syrbench::CountingVfs vfs{util::system_vfs(), tracer};
  util::set_default_vfs(&vfs);

  obs::MetricsRegistry shard_registry;
  obs::Context shard_ctx{&shard_registry};
  const ShardedRunOut sharded =
      run_sharded_path(o, tracer, &shard_ctx, o.work + "/sharded");
  checks.expect(sharded.result.completed &&
                    sharded.result.output.crc32 == o.ref_crc,
                "traced sharded log crc differs from the reference");
  {
    // Re-time the k-way merge on the finished shard directories.
    std::vector<shard::ShardInput> inputs;
    for (const auto& contribution : sharded.result.shards)
      inputs.push_back({contribution.name,
                        sharded.checkpoint_dir + "/" + contribution.name,
                        contribution.proxy_mask, contribution.degraded});
    shard::MergeResult merged;
    {
      Scope span{tracer, "shard.merge_shards", "shard"};
      merged = shard::merge_shards(inputs, o.work + "/sharded/remerge.csv");
    }
    checks.expect(merged.output.crc32 == o.ref_crc,
                  "re-merged shard log crc differs from the reference");
  }
  fs::remove_all(o.work + "/sharded");

  // The vfs.* metrics describe the generate path alone.
  const std::uint64_t vfs_bytes0 = vfs.bytes_written();
  const std::uint64_t vfs_fsyncs0 = vfs.fsyncs();
  const std::uint64_t vfs_fsync_ns0 = vfs.fsync_ns();
  obs::MetricsRegistry registry;
  obs::Context ctx{&registry};
  const GenerateRun gen = run_generate(o, tracer, &ctx, o.work + "/generate");
  const std::uint64_t vfs_bytes = vfs.bytes_written() - vfs_bytes0;
  const std::uint64_t vfs_fsyncs = vfs.fsyncs() - vfs_fsyncs0;
  const std::uint64_t vfs_fsync_ns = vfs.fsync_ns() - vfs_fsync_ns0;
  const obs::MetricsSnapshot snap = registry.snapshot();
  const std::uint64_t emitted = counter(snap, "scenario.emitted");
  checks.expect(gen.completed && gen.crc == o.ref_crc,
                "traced generate log crc differs from the reference");
  checks.expect(gen.records == emitted,
                "generate records differ from scenario.emitted");

  const Replay replay = replay_layers(o.work + "/generate/log.col",
                                      *gen.scenario, o.seed, tracer);
  fs::remove_all(o.work + "/generate");

  const AnalyzeRun analyze = run_analyze(o, tracer);
  checks.expect(analyze.reports_identical, "col/csv reports differ");
  checks.expect(analyze.discovery_identical, "col/csv discovery differs");
  checks.expect(analyze.stream_records == analyze.rows &&
                    analyze.stream_class_sum == analyze.rows,
                "stream class totals do not sum to the log's records");
  util::set_default_vfs(nullptr);

  // 2. The selected path once more, untraced: no spans, no registry, the
  //    plain system Vfs — the baseline of obs.trace_overhead_ratio.
  Tracer off{false};
  double untraced_s = 0;
  if (o.workload == "generate") {
    const auto g = run_generate(o, off, nullptr, o.work + "/untraced");
    checks.expect(g.completed && g.crc == o.ref_crc,
                  "untraced generate log crc differs from the reference");
    untraced_s = g.wall_s;
  } else {
    const auto a = run_analyze(o, off);
    checks.expect(a.reports_identical, "untraced col/csv reports differ");
    untraced_s = a.wall_s;
  }
  fs::remove_all(o.work + "/untraced");

  // 3. Spans → per-layer metrics, trace and self-time table.
  const std::vector<syrbench::SpanRecord> spans = tracer.finish();
  const std::vector<std::uint64_t> self = syrbench::self_times(spans);
  const auto total = [&](const char* name) {
    return seconds(syrbench::total_ns(spans, name));
  };

  m["policy.evaluate_ns"] =
      static_cast<double>(replay.evaluate_ns) /
      static_cast<double>(std::max<std::uint64_t>(replay.evaluations, 1));
  m["policy.evaluations"] =
      static_cast<double>(counter(snap, "proxy.cache.miss"));
  m["proxy.route_ns"] =
      static_cast<double>(replay.route_ns) /
      static_cast<double>(std::max<std::uint64_t>(replay.routes, 1));
  if (const auto* proc = stage(snap, "scenario.process_proxy_batch")) {
    m["proxy.process_s"] = seconds(proc->total_nanos);
    const double mean = static_cast<double>(proc->total_nanos) /
                        static_cast<double>(std::max<std::uint64_t>(proc->count, 1));
    m["proxy.batch_skew"] =
        mean > 0 ? static_cast<double>(proc->max_nanos) / mean : 0.0;
  }
  const double hits = static_cast<double>(counter(snap, "proxy.cache.hit"));
  const double misses = static_cast<double>(counter(snap, "proxy.cache.miss"));
  m["proxy.cache_hit_ratio"] = hits + misses > 0 ? hits / (hits + misses) : 0;
  if (const auto* g = stage(snap, "scenario.generate_shard"))
    m["workload.generate_s"] = seconds(g->total_nanos);
  m["workload.requests"] =
      static_cast<double>(counter(snap, "scenario.generated"));
  m["workload.sink_s"] = total("workload.sink");
  if (const auto* merge = stage(snap, "scenario.merge"))
    m["workload.merge_self_s"] =
        seconds(merge->total_nanos) - m["workload.sink_s"];
  m["proxy.to_csv_s"] = seconds(replay.to_csv_ns);
  m["colfmt.add_s"] = total("colfmt.add");
  m["colfmt.finish_s"] = total("colfmt.finish");
  m["colfmt.bytes_per_record"] =
      static_cast<double>(gen.col_bytes) /
      static_cast<double>(std::max<std::uint64_t>(gen.records, 1));
  m["durable.commit_s"] = total("durable.commit");
  m["durable.commits"] = static_cast<double>(gen.commits);
  m["vfs.bytes_written"] = static_cast<double>(vfs_bytes);
  m["vfs.fsyncs"] = static_cast<double>(vfs_fsyncs);
  m["vfs.fsync_s"] = seconds(vfs_fsync_ns);

  m["shard.run_s"] = total("shard.run_sharded");
  m["shard.merge_s"] = total("shard.merge_shards");
  {
    std::uint64_t max_records = 0, sum = 0, n = 0;
    for (const auto& s : sharded.result.shards) {
      max_records = std::max(max_records, s.records);
      sum += s.records;
      ++n;
    }
    m["shard.record_skew"] =
        sum > 0 ? static_cast<double>(max_records) * static_cast<double>(n) /
                      static_cast<double>(sum)
                : 0.0;
  }
  const obs::MetricsSnapshot shard_snap = shard_registry.snapshot();
  m["shard.spawns"] = static_cast<double>(counter(shard_snap, "shard.spawns"));
  m["shard.restarts"] =
      static_cast<double>(counter(shard_snap, "shard.restarts"));

  m["analysis.load_csv_s"] = total("analysis.load_csv");
  m["analysis.load_col_s"] = total("analysis.load_col");
  m["colfmt.open_s"] = total("colfmt.open");
  m["analysis.derive_s"] = total("analysis.derive");
  for (const std::string& name : analyze.analyzers)
    m[name + "_s"] = total(name.c_str());
  m["analysis.discovery_accepted"] =
      static_cast<double>(analyze.discovery_accepted);
  m["core.render_s"] = total("core.render") - seconds(analyze.render_inner_ns);
  m["stream.poll_s"] = total("stream.poll");
  m["stream.ingest_s"] = total("stream.ingest");
  m["stream.snapshot_s"] = total("stream.snapshot");

  const double traced_s =
      o.workload == "generate" ? gen.wall_s : analyze.wall_s;
  m["obs.trace_overhead_ratio"] = untraced_s > 0 ? traced_s / untraced_s : 0;

  const auto layers = syrbench::layer_table(spans, self);
  for (const auto& [layer, row] : layers)
    m["self." + layer + "_s"] = seconds(row.self_ns);
  write_file(o.out + "/trace.json", syrbench::chrome_trace_json(spans, self));
  write_file(o.out + "/layers.txt", syrbench::render_layer_table(layers));
  write_file(o.out + "/report.txt", analyze.col_report);
  std::fputs(syrbench::render_layer_table(layers).c_str(), stderr);

  std::string json = "{\"attempted\": " + std::to_string(checks.attempted) +
                     ", \"failed\": " + std::to_string(checks.failures.size()) +
                     ", \"failures\": [";
  for (std::size_t i = 0; i < checks.failures.size(); ++i)
    json += (i ? ", \"" : "\"") + checks.failures[i] + "\"";
  json += "], \"metrics\": {";
  bool first = true;
  char buffer[64];
  for (const auto& [name, value] : m) {
    std::snprintf(buffer, sizeof buffer, "%.9g", value);
    json += (first ? "\"" : ", \"") + name + "\": " + buffer;
    first = false;
  }
  json += "}}\n";
  std::fputs(json.c_str(), stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!parse(argc, argv, options)) {
    std::fprintf(stderr,
                 "usage: syrbench_trace --workload generate|analyze "
                 "--seed S --csv LOG.csv --col LOG.col --ref-crc HEX "
                 "--work DIR --out DIR\n");
    return 2;
  }
  try {
    return run(options);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "syrbench_trace: %s\n", error.what());
    return 1;
  }
}
