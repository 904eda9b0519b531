// The §5.4 iterative censored-string discovery algorithm, on controlled
// datasets where ground truth is known exactly.

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/columnar.h"
#include "analysis/string_discovery.h"
#include "colfmt/container.h"
#include "workload/scenario.h"

namespace {

using namespace syrwatch;
using namespace syrwatch::analysis;

constexpr std::int64_t kT0 = 1312329600;

proxy::LogRecord rec(const char* url_text,
                     proxy::ExceptionId exception = proxy::ExceptionId::kNone,
                     proxy::FilterResult result =
                         proxy::FilterResult::kObserved) {
  proxy::LogRecord record;
  record.time = kT0;
  record.url = *net::Url::parse(url_text);
  record.filter_result = exception == proxy::ExceptionId::kNone
                             ? result
                             : proxy::FilterResult::kDenied;
  if (result == proxy::FilterResult::kProxied)
    record.filter_result = proxy::FilterResult::kProxied;
  record.exception = exception;
  return record;
}

DiscoveryOptions low_threshold() {
  DiscoveryOptions options;
  options.min_support = 0.0;  // floor of 20 still applies
  return options;
}

/// Every field of a result, in output order — the golden and the
/// both-backend tests compare these strings.
std::string serialize(const DiscoveryResult& result) {
  std::ostringstream out;
  out << result.censored_requests_explained << '/'
      << result.censored_requests_total << '\n';
  auto put = [&](const std::vector<DiscoveredString>& list) {
    for (const auto& s : list)
      out << s.text << (s.is_domain ? " D " : " K ") << s.censored << '/'
          << s.proxied << '\n';
  };
  put(result.keywords);
  out << "--\n";
  put(result.domains);
  return out.str();
}

class DiscoveryTest : public ::testing::Test {
 protected:
  void add_censored(const char* url, int count = 25) {
    for (int i = 0; i < count; ++i)
      add(rec(url, proxy::ExceptionId::kPolicyDenied));
  }
  void add_allowed(const char* url, int count = 25) {
    for (int i = 0; i < count; ++i) add(rec(url));
  }
  void add(const proxy::LogRecord& record) {
    dataset_.add(record);
    records_.push_back(record);
  }

  /// The same records as a SYRCOL1 container (small blocks, so the scan
  /// really partitions), for assertions that must hold on both backends.
  const ColumnarLog& columnar() {
    if (!columnar_) {
      const auto path = (std::filesystem::path(::testing::TempDir()) /
                         "syrwatch_discovery.col")
                            .string();
      colfmt::WriterOptions options;
      options.block_rows = 16;
      colfmt::Writer writer{path, options};
      for (const auto& record : records_) writer.add(record);
      writer.finish();
      columnar_ = std::make_unique<ColumnarLog>(colfmt::Reader::open(path));
    }
    return *columnar_;
  }

  Dataset dataset_;
  std::vector<proxy::LogRecord> records_;
  std::unique_ptr<ColumnarLog> columnar_;
};

TEST_F(DiscoveryTest, FindsKeywordAcrossDomains) {
  add_censored("http://google.com/tbproxy/af/aquery?q=1", 40);
  add_censored("http://www.facebook.com/pp/proxy.php?x=2", 60);
  add_allowed("http://google.com/search?aquery=news", 200);
  add_allowed("http://www.facebook.com/home.php", 200);
  dataset_.finalize();

  // 'proxy' is the most frequent clean token (60 facebook rows); its
  // substring removal also wipes the /tbproxy/ rows, so one keyword
  // explains all 100 censored requests.
  const auto result = discover_censored_strings(dataset_, low_threshold());
  ASSERT_EQ(result.keywords.size(), 1u);
  EXPECT_EQ(result.keywords[0].text, "proxy");
  EXPECT_EQ(result.keywords[0].censored, 100u);
  EXPECT_TRUE(result.domains.empty());
  EXPECT_EQ(result.censored_requests_explained, 100u);
}

TEST_F(DiscoveryTest, RejectsTokenPresentInAllowedSet) {
  // "download" appears in censored URLs but also in allowed ones: NA > 0.
  add_censored("http://bad.example/download/tool.exe", 40);
  add_allowed("http://ok.example/download/setup.exe", 40);
  add_allowed("http://bad2.example/other", 5);
  dataset_.finalize();

  const auto result = discover_censored_strings(dataset_, low_threshold());
  for (const auto& kw : result.keywords) EXPECT_NE(kw.text, "download");
}

TEST_F(DiscoveryTest, FindsDomainViaAnchorRequests) {
  // Bare-domain censored requests (the paper's new-syria.com example).
  add_censored("http://new-syria.com/", 30);
  add_censored("http://new-syria.com/articles/x.html", 20);
  add_allowed("http://aljazeera.net/", 100);
  dataset_.finalize();

  const auto result = discover_censored_strings(dataset_, low_threshold());
  ASSERT_EQ(result.domains.size(), 1u);
  EXPECT_EQ(result.domains[0].text, "new-syria.com");
  EXPECT_EQ(result.domains[0].censored, 50u);  // removal counts all its rows
  EXPECT_TRUE(result.domains[0].is_domain);
}

TEST_F(DiscoveryTest, DomainWithAllowedTrafficRejected) {
  // facebook.com has allowed traffic; its censored anchors must not brand
  // the whole domain as suspected.
  add_censored("http://www.facebook.com/", 30);
  add_allowed("http://www.facebook.com/home.php", 100);
  dataset_.finalize();

  const auto result = discover_censored_strings(dataset_, low_threshold());
  for (const auto& domain : result.domains)
    EXPECT_NE(domain.text, "facebook.com");
}

TEST_F(DiscoveryTest, SingleHostTokenBecomesDomainEntry) {
  // All 'gateway' hits live on messenger.live.com, which is never allowed,
  // but live.com itself is: attribute to the host, not the keyword.
  add_censored("http://messenger.live.com/gateway/gateway.dll?Action=poll",
               60);
  add_allowed("http://mail.live.com/inbox", 100);
  dataset_.finalize();

  const auto result = discover_censored_strings(dataset_, low_threshold());
  ASSERT_EQ(result.domains.size(), 1u);
  EXPECT_EQ(result.domains[0].text, "messenger.live.com");
  for (const auto& kw : result.keywords) EXPECT_NE(kw.text, "gateway");
}

TEST_F(DiscoveryTest, IterativeRemovalPreventsShadowKeywords) {
  // After accepting 'proxy', the plugin path tokens must not surface as
  // additional keywords.
  add_censored("http://www.facebook.com/plugins/like.php?channel=xd_proxy",
               80);
  add_censored("http://www.facebook.com/plugins/likebox.php?channel=xd_proxy",
               40);
  add_censored("http://apps.zynga.com/poker/fb_proxy.php?u=1", 60);
  add_allowed("http://www.facebook.com/home.php", 100);
  add_allowed("http://apps.zynga.com/poker/lobby.php", 40);
  dataset_.finalize();

  const auto result = discover_censored_strings(dataset_, low_threshold());
  ASSERT_EQ(result.keywords.size(), 1u);
  EXPECT_EQ(result.keywords[0].text, "proxy");
  EXPECT_TRUE(result.domains.empty());
}

TEST_F(DiscoveryTest, CollapsesIlDomainsIntoTld) {
  add_censored("http://www.panet.co.il/", 30);
  add_censored("http://walla.co.il/", 30);
  add_censored("http://ynet.co.il/", 30);
  add_allowed("http://facebook.com/", 50);
  dataset_.finalize();

  const auto result = discover_censored_strings(dataset_, low_threshold());
  ASSERT_EQ(result.domains.size(), 1u);
  EXPECT_EQ(result.domains[0].text, ".il");
  EXPECT_EQ(result.domains[0].censored, 90u);
}

TEST_F(DiscoveryTest, FewIlDomainsStayIndividual) {
  add_censored("http://www.panet.co.il/", 30);
  add_allowed("http://facebook.com/", 50);
  dataset_.finalize();

  const auto result = discover_censored_strings(dataset_, low_threshold());
  ASSERT_EQ(result.domains.size(), 1u);
  EXPECT_EQ(result.domains[0].text, "panet.co.il");
}

TEST_F(DiscoveryTest, IpLiteralHostsIgnored) {
  add_censored("http://84.229.1.2/", 50);
  add_allowed("http://facebook.com/", 50);
  dataset_.finalize();

  const auto result = discover_censored_strings(dataset_, low_threshold());
  EXPECT_TRUE(result.domains.empty());
  EXPECT_TRUE(result.keywords.empty());
  EXPECT_EQ(result.censored_requests_total, 0u);  // IPs held out of C
}

TEST_F(DiscoveryTest, ProxiedRequestsCountedSeparately) {
  add_censored("http://metacafe.com/", 40);
  for (int i = 0; i < 3; ++i)
    dataset_.add(rec("http://metacafe.com/", proxy::ExceptionId::kPolicyDenied,
                     proxy::FilterResult::kProxied));
  add_allowed("http://facebook.com/", 50);
  dataset_.finalize();

  const auto result = discover_censored_strings(dataset_, low_threshold());
  ASSERT_EQ(result.domains.size(), 1u);
  EXPECT_EQ(result.domains[0].text, "metacafe.com");
  EXPECT_EQ(result.domains[0].censored, 40u);
  EXPECT_EQ(result.domains[0].proxied, 3u);
}

TEST_F(DiscoveryTest, ThresholdSuppressesRareStrings) {
  add_censored("http://rare-site.net/", 5);  // below the floor of 20
  add_censored("http://common-site.net/", 50);
  add_allowed("http://facebook.com/", 100);
  dataset_.finalize();

  const auto result = discover_censored_strings(dataset_, low_threshold());
  ASSERT_EQ(result.domains.size(), 1u);
  EXPECT_EQ(result.domains[0].text, "common-site.net");
  EXPECT_LT(result.censored_requests_explained,
            result.censored_requests_total);
}

TEST_F(DiscoveryTest, MaxStringsCapsTheLoop) {
  for (int d = 0; d < 6; ++d) {
    add_censored(("http://domain" + std::to_string(d) + "x.net/").c_str(),
                 30);
  }
  add_allowed("http://ok.net/", 50);
  dataset_.finalize();

  DiscoveryOptions options = low_threshold();
  options.max_strings = 3;
  const auto result = discover_censored_strings(dataset_, options);
  EXPECT_EQ(result.keywords.size() + result.domains.size(), 3u);
  EXPECT_LT(result.censored_requests_explained,
            result.censored_requests_total);
}

TEST_F(DiscoveryTest, OrderedByFrequency) {
  add_censored("http://google.com/tbproxy/x", 200);
  add_censored("http://news.net/q?s=israel", 60);
  add_censored("http://metacafe.com/", 120);
  add_allowed("http://google.com/search", 100);
  add_allowed("http://news.net/q?s=sports", 30);
  dataset_.finalize();

  const auto result = discover_censored_strings(dataset_, low_threshold());
  ASSERT_EQ(result.keywords.size(), 2u);
  EXPECT_EQ(result.keywords[0].text, "tbproxy");  // most frequent first...
  EXPECT_EQ(result.keywords[1].text, "israel");
  ASSERT_EQ(result.domains.size(), 1u);
  EXPECT_EQ(result.domains[0].text, "metacafe.com");
}

TEST_F(DiscoveryTest, TokenInsideLongerAllowedTokenRejected) {
  // "proxy" never occurs as a whole allowed token, only inside
  // "proxyfoo": the NA = 0 test is a substring test on the allowed texts,
  // so the keyword is still rejected (on both backends, any thread count).
  add_censored("http://a.example/proxy/x?id=1", 40);
  add_censored("http://b.example/proxy/y?id=2", 40);
  add_allowed("http://a.example/proxyfoo", 30);
  add_allowed("http://b.example/", 30);
  dataset_.finalize();

  const std::string expected = serialize(
      discover_censored_strings(dataset_, low_threshold()));
  for (const LogSource& source :
       {LogSource{dataset_}, LogSource{columnar()}}) {
    for (std::size_t threads : {1u, 4u}) {
      const auto result =
          discover_censored_strings(source, low_threshold(), threads);
      for (const auto& kw : result.keywords) EXPECT_NE(kw.text, "proxy");
      EXPECT_EQ(serialize(result), expected);
    }
  }
}

TEST_F(DiscoveryTest, MixedCaseAllowedHostRejectsDomainAndHost) {
  // The allowed host is interned verbatim as "WWW.Example.COM", a
  // dictionary id of its own; the allowed side compares lower-cased
  // hosts, so neither the registrable domain nor the host qualifies.
  add_censored("http://www.example.com/", 40);
  add_censored("http://www.example.com/secretpage/x", 40);
  proxy::LogRecord allowed = rec("http://www.example.com/home");
  allowed.url.host = "WWW.Example.COM";
  for (int i = 0; i < 30; ++i) add(allowed);
  add_allowed("http://other.example.net/", 30);
  dataset_.finalize();

  for (const LogSource& source :
       {LogSource{dataset_}, LogSource{columnar()}}) {
    for (std::size_t threads : {1u, 4u}) {
      const auto result =
          discover_censored_strings(source, low_threshold(), threads);
      for (const auto& domain : result.domains) {
        EXPECT_NE(domain.text, "example.com");
        EXPECT_NE(domain.text, "www.example.com");
      }
      // The path token survives as a keyword instead.
      ASSERT_EQ(result.keywords.size(), 1u);
      EXPECT_EQ(result.keywords[0].text, "secretpage");
    }
  }
}

TEST_F(DiscoveryTest, EqualCountDomainsPickLowerTextFirst) {
  add_censored("http://zeta-site.net/", 30);
  add_censored("http://alpha-site.net/", 30);
  add_allowed("http://ok.net/", 50);
  dataset_.finalize();

  DiscoveryOptions options = low_threshold();
  options.max_strings = 1;
  auto result = discover_censored_strings(dataset_, options);
  ASSERT_EQ(result.domains.size(), 1u);
  EXPECT_EQ(result.domains[0].text, "alpha-site.net");

  // Accepted in that order; the final ranking keeps it for equal counts.
  result = discover_censored_strings(dataset_, low_threshold());
  ASSERT_EQ(result.domains.size(), 2u);
  EXPECT_EQ(result.domains[0].text, "alpha-site.net");
  EXPECT_EQ(result.domains[1].text, "zeta-site.net");
}

TEST_F(DiscoveryTest, EqualCountTokensPickLowerTextFirst) {
  add_censored("http://a.example/wordzz/x", 30);
  add_censored("http://b.example/wordaa/y", 30);
  add_allowed("http://a.example/", 30);
  add_allowed("http://b.example/", 30);
  dataset_.finalize();

  DiscoveryOptions options = low_threshold();
  options.max_strings = 1;
  auto result = discover_censored_strings(dataset_, options);
  ASSERT_EQ(result.keywords.size(), 1u);
  EXPECT_EQ(result.keywords[0].text, "wordaa");

  result = discover_censored_strings(dataset_, low_threshold());
  ASSERT_EQ(result.keywords.size(), 2u);
  EXPECT_EQ(result.keywords[0].text, "wordaa");
  EXPECT_EQ(result.keywords[1].text, "wordzz");
}

TEST_F(DiscoveryTest, EqualCountDomainBeatsToken) {
  // "aaaaword" sorts before "zz-site.net" but, on a tie, the domain
  // candidate is taken first.
  add_censored("http://zz-site.net/", 30);
  add_censored("http://a.example/aaaaword/x", 30);
  add_allowed("http://a.example/", 30);
  dataset_.finalize();

  DiscoveryOptions options = low_threshold();
  options.max_strings = 1;
  const auto result = discover_censored_strings(dataset_, options);
  ASSERT_EQ(result.domains.size(), 1u);
  EXPECT_EQ(result.domains[0].text, "zz-site.net");
  EXPECT_TRUE(result.keywords.empty());
}

// Golden regression: a small fixed-seed scenario's full result, pinned
// byte for byte, on both backends and at 1 and 4 threads.
TEST(DiscoveryGolden, FixedSeedScenario) {
  workload::ScenarioConfig config;
  config.seed = 7;
  config.total_requests = 120'000;
  config.user_population = 5'000;
  config.catalog_tail = 4'000;
  config.torrent_contents = 500;
  config.threads = 2;
  workload::SyriaScenario scenario{config};
  Dataset dataset;
  const auto path = (std::filesystem::path(::testing::TempDir()) /
                     "syrwatch_discovery_golden.col")
                        .string();
  {
    colfmt::WriterOptions writer_options;
    writer_options.block_rows = 4096;
    colfmt::Writer writer{path, writer_options};
    scenario.run([&](const proxy::LogRecord& record) {
      dataset.add(record);
      writer.add(record);
    });
    writer.finish();
  }
  dataset.finalize();
  const ColumnarLog columnar{colfmt::Reader::open(path)};

  DiscoveryOptions options;
  options.min_count = 5;
  // Captured from the implementation that materialized the allowed set
  // row by row; ultrareach.com and walla.co.il tie at 7.
  const std::string golden =
      "842/893\n"
      "proxy K 461/0\n"
      "hotspotshield K 14/0\n"
      "--\n"
      "metacafe.com D 151/2\n"
      "skype.com D 83/0\n"
      "messenger.live.com D 45/0\n"
      "wikimedia.org D 34/0\n"
      "ceipmsn.com D 21/0\n"
      "dailymotion.com D 10/0\n"
      "amazon.com D 9/0\n"
      "ultrareach.com D 7/0\n"
      "walla.co.il D 7/0\n";
  for (const LogSource& source : {LogSource{dataset}, LogSource{columnar}}) {
    for (std::size_t threads : {1u, 4u}) {
      EXPECT_EQ(serialize(discover_censored_strings(source, options, threads)),
                golden);
    }
  }
}

}  // namespace
