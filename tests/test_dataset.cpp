// Dataset store: interning, per-host resolution, classification, and the
// Table 1 derivation (DatasetBundle).

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/dataset.h"
#include "analysis/scan.h"
#include "util/simtime.h"
#include "workload/scenario.h"

namespace {

using namespace syrwatch;
using namespace syrwatch::analysis;

proxy::LogRecord make_record(const char* url_text, std::int64_t time,
                             proxy::FilterResult result,
                             proxy::ExceptionId exception,
                             std::uint8_t proxy_index = 0,
                             std::uint64_t user_hash = 7) {
  proxy::LogRecord record;
  record.time = time;
  record.proxy_index = proxy_index;
  record.user_hash = user_hash;
  record.method = "GET";
  record.url = *net::Url::parse(url_text);
  record.filter_result = result;
  record.exception = exception;
  return record;
}

std::int64_t at(int month, int day, int hour = 12) {
  return util::to_unix_seconds({2011, month, day, hour, 0, 0});
}

TEST(Dataset, InternsRepeatedStrings) {
  Dataset dataset;
  for (int i = 0; i < 100; ++i) {
    dataset.add(make_record("http://www.facebook.com/home.php", at(8, 1),
                            proxy::FilterResult::kObserved,
                            proxy::ExceptionId::kNone));
  }
  EXPECT_EQ(dataset.size(), 100u);
  const Row& first = dataset.rows().front();
  const Row& last = dataset.rows().back();
  EXPECT_EQ(first.host, last.host);
  EXPECT_EQ(dataset.host(first), "www.facebook.com");
  EXPECT_EQ(dataset.path(first), "/home.php");
}

TEST(Dataset, FinalizeSortsByTime) {
  Dataset dataset;
  dataset.add(make_record("http://b.com/", at(8, 3),
                          proxy::FilterResult::kObserved,
                          proxy::ExceptionId::kNone));
  dataset.add(make_record("http://a.com/", at(8, 1),
                          proxy::FilterResult::kObserved,
                          proxy::ExceptionId::kNone));
  dataset.finalize();
  EXPECT_EQ(dataset.host(dataset.rows()[0]), "a.com");
  EXPECT_EQ(dataset.host(dataset.rows()[1]), "b.com");
}

TEST(Dataset, DomainCached) {
  Dataset dataset;
  dataset.add(make_record("http://ar-ar.facebook.com/x?10.0.0.1", at(8, 1),
                          proxy::FilterResult::kObserved,
                          proxy::ExceptionId::kNone));
  // Both strings below are already interned, but not as hosts: the
  // registrable domain above, and a query. Their first use as a host
  // resolves them.
  dataset.add(make_record("http://facebook.com/", at(8, 1),
                          proxy::FilterResult::kObserved,
                          proxy::ExceptionId::kNone));
  dataset.add(make_record("http://10.0.0.1/", at(8, 1),
                          proxy::FilterResult::kObserved,
                          proxy::ExceptionId::kNone));
  const auto& rows = dataset.rows();
  EXPECT_EQ(dataset.domain(rows[0]), "facebook.com");
  EXPECT_FALSE(dataset.host_is_ip(rows[0]));
  EXPECT_EQ(dataset.domain(rows[1]), "facebook.com");
  EXPECT_EQ(dataset.host_ip(rows[1]), 0u);
  ASSERT_TRUE(dataset.host_is_ip(rows[2]));
  EXPECT_EQ(dataset.host_ip(rows[2]), net::Ipv4Addr(10, 0, 0, 1).value());
}

TEST(Dataset, FilterTextIncludesQuery) {
  Dataset dataset;
  dataset.add(make_record("http://g.com/tbproxy/af/query?q=1", at(8, 1),
                          proxy::FilterResult::kObserved,
                          proxy::ExceptionId::kNone));
  EXPECT_EQ(dataset.filter_text(dataset.rows().front()),
            "g.com/tbproxy/af/query?q=1");
}

TEST(Dataset, ClassMatchesSection33) {
  Dataset dataset;
  dataset.add(make_record("http://a.com/", at(8, 1),
                          proxy::FilterResult::kObserved,
                          proxy::ExceptionId::kNone));
  dataset.add(make_record("http://b.com/", at(8, 1),
                          proxy::FilterResult::kDenied,
                          proxy::ExceptionId::kPolicyDenied));
  dataset.add(make_record("http://c.com/", at(8, 1),
                          proxy::FilterResult::kDenied,
                          proxy::ExceptionId::kTcpError));
  dataset.add(make_record("http://d.com/", at(8, 1),
                          proxy::FilterResult::kProxied,
                          proxy::ExceptionId::kNone));
  const auto cls = [&](std::size_t i) {
    const Row& row = dataset.rows()[i];
    return proxy::classify(row.result, row.exception);
  };
  EXPECT_EQ(cls(0), proxy::TrafficClass::kAllowed);
  EXPECT_EQ(cls(1), proxy::TrafficClass::kCensored);
  EXPECT_EQ(cls(2), proxy::TrafficClass::kError);
  EXPECT_EQ(cls(3), proxy::TrafficClass::kProxied);
}

TEST(DatasetBundle, DeriveSplitsCorrectly) {
  Dataset full;
  // SG-42 on July 22 with hash (Duser material).
  full.add(make_record("http://a.com/", at(7, 22),
                       proxy::FilterResult::kObserved,
                       proxy::ExceptionId::kNone, 0, 11));
  // SG-42 on July 22 but hash suppressed: excluded from Duser.
  full.add(make_record("http://a2.com/", at(7, 22),
                       proxy::FilterResult::kObserved,
                       proxy::ExceptionId::kNone, 0, 0));
  // SG-44 in August: not Duser.
  full.add(make_record("http://b.com/", at(8, 3),
                       proxy::FilterResult::kDenied,
                       proxy::ExceptionId::kPolicyDenied, 2, 0));
  // Error: lands in Ddenied.
  full.add(make_record("http://c.com/", at(8, 4),
                       proxy::FilterResult::kDenied,
                       proxy::ExceptionId::kTcpError, 3, 0));
  full.finalize();

  const DatasetBundle bundle{std::move(full), 1};
  EXPECT_EQ(bundle.full.size(), 4u);
  ASSERT_EQ(bundle.user.rows(), 1u);
  std::vector<std::string> user_hosts;
  scan_increment(bundle.user, 0, [&](const Record& r) {
    user_hosts.emplace_back(r.host);
  });
  EXPECT_EQ(user_hosts, std::vector<std::string>{"a.com"});
  EXPECT_EQ(bundle.denied.rows(), 2u);
  EXPECT_LE(bundle.sample.rows(), bundle.full.size());
}

TEST(DatasetBundle, SampleRateApproximatelyHonored) {
  Dataset full;
  for (int i = 0; i < 50'000; ++i) {
    full.add(make_record("http://a.com/", at(8, 1) + i,
                         proxy::FilterResult::kObserved,
                         proxy::ExceptionId::kNone));
  }
  full.finalize();
  const DatasetBundle bundle{std::move(full), 3};
  EXPECT_NEAR(bundle.sample.rows() / 50'000.0, kSampleRate, 0.005);
}

TEST(DatasetBundle, SampleIsDeterministic) {
  auto sample_size = [] {
    Dataset full;
    for (int i = 0; i < 5000; ++i) {
      full.add(make_record("http://a.com/", at(8, 1) + i,
                           proxy::FilterResult::kObserved,
                           proxy::ExceptionId::kNone));
    }
    full.finalize();
    return DatasetBundle{std::move(full), 77}.sample.rows();
  };
  EXPECT_EQ(sample_size(), sample_size());
}

/// Count, FNV-1a hash and first/last entries of a view's base ordinals.
std::string ordinal_digest(const LogSource& view) {
  std::vector<std::uint64_t> ordinals;
  scan_increment(view, 0,
                 [&](const Record& r) { ordinals.push_back(r.ordinal); });
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const std::uint64_t ordinal : ordinals) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (ordinal >> (8 * byte)) & 0xff;
      hash *= 0x100000001b3ull;
    }
  }
  std::string out = std::to_string(ordinals.size()) + " " +
                    std::to_string(hash) + " first";
  for (std::size_t i = 0; i < ordinals.size() && i < 6; ++i)
    out += " " + std::to_string(ordinals[i]);
  out += " last " + std::to_string(ordinals.empty() ? 0 : ordinals.back());
  return out;
}

// Golden regression: the Dsample/Duser/Ddenied ordinal sets of a small
// fixed-seed scenario, captured from the derivation that copied rows into
// three separate Datasets (the scenario's log has no two identical rows,
// so each copied row named exactly one ordinal of Dfull).
TEST(DatasetBundleGolden, FixedSeedScenario) {
  workload::ScenarioConfig config;
  config.seed = 7;
  config.total_requests = 20'000;
  config.user_population = 2'000;
  config.catalog_tail = 2'000;
  config.torrent_contents = 200;
  config.threads = 2;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    workload::SyriaScenario scenario{config};
    Dataset full;
    scenario.run([&](const proxy::LogRecord& record) { full.add(record); });
    full.finalize();
    ASSERT_EQ(full.size(), 14'169u);
    const DatasetBundle bundle{std::move(full), 7, threads};
    EXPECT_EQ(ordinal_digest(bundle.sample),
              std::to_string(585) + " " +
                  std::to_string(0xb9e93eec2bedee7dull) +
                  " first 49 51 67 118 122 140 last 14155")
        << threads << " threads";
    EXPECT_EQ(ordinal_digest(bundle.user),
              std::to_string(549) + " " +
                  std::to_string(0x626cf982c4121f03ull) +
                  " first 0 1 2 3 4 5 last 548")
        << threads << " threads";
    EXPECT_EQ(ordinal_digest(bundle.denied),
              std::to_string(888) + " " +
                  std::to_string(0x45affd17eb4244b2ull) +
                  " first 9 23 25 73 102 103 last 14149")
        << threads << " threads";
  }
}

}  // namespace
