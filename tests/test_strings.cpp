// String utilities: the case-insensitive substring matcher the keyword
// rules rely on, domain-suffix matching, splitting/joining, and the
// numeric renderers used by the report tables.

#include <gtest/gtest.h>

#include "util/csv.h"
#include "util/strings.h"

namespace {

using namespace syrwatch::util;

// --- csv_parse correctness on externally produced lines --------------------

TEST(CsvParse, StripsCrlfTailFromLastField) {
  // std::getline leaves the '\r' of a CRLF-terminated line in place; the
  // parser must not hand it to the last field.
  EXPECT_EQ(csv_parse("a,b,c\r"), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(csv_parse("a\r"), (std::vector<std::string>{"a"}));
  EXPECT_EQ(csv_parse("\r"), (std::vector<std::string>{""}));
  // A quoted carriage return is field data, not a terminator.
  EXPECT_EQ(csv_parse("a,\"b\r\""), (std::vector<std::string>{"a", "b\r"}));
  // Only one terminator CR is stripped; an inner bare CR stays.
  EXPECT_EQ(csv_parse("a\rb,c\r"), (std::vector<std::string>{"a\rb", "c"}));
}

TEST(CsvParse, RejectsGarbageAfterClosingQuote) {
  EXPECT_THROW(csv_parse("\"ab\"x"), CsvParseError);
  EXPECT_THROW(csv_parse("a,\"b\"c,d"), CsvParseError);
  try {
    csv_parse("\"ab\"x");
    FAIL() << "expected CsvParseError";
  } catch (const CsvParseError& error) {
    EXPECT_EQ(error.kind(), CsvError::kMalformedQuote);
  }
  // The well-formed spellings around it keep parsing.
  EXPECT_EQ(csv_parse("\"ab\",x"), (std::vector<std::string>{"ab", "x"}));
  EXPECT_EQ(csv_parse("\"a\"\"b\""), (std::vector<std::string>{"a\"b"}));
}

TEST(CsvParse, ClassifiesQuoteDamage) {
  try {
    csv_parse("\"never closed");
    FAIL() << "expected CsvParseError";
  } catch (const CsvParseError& error) {
    EXPECT_EQ(error.kind(), CsvError::kUnbalancedQuote);
  }
  try {
    csv_parse("a\"b");
    FAIL() << "expected CsvParseError";
  } catch (const CsvParseError& error) {
    EXPECT_EQ(error.kind(), CsvError::kMalformedQuote);
  }
}

TEST(ToLower, AsciiOnly) {
  EXPECT_EQ(to_lower("FaceBook.COM"), "facebook.com");
  EXPECT_EQ(to_lower(""), "");
  EXPECT_EQ(to_lower("123-abc"), "123-abc");
}

TEST(AppendLower, KeepsPrefixAndLowersTheTail) {
  std::string out = "Host/";
  append_lower(out, "PATH?Q=1");
  EXPECT_EQ(out, "Host/path?q=1");
  append_lower(out, "");
  EXPECT_EQ(out, "Host/path?q=1");
}

TEST(Contains, Basic) {
  EXPECT_TRUE(contains("hello world", "lo wo"));
  EXPECT_FALSE(contains("hello", "Hello"));
  EXPECT_TRUE(contains("abc", ""));
}

TEST(IContains, CaseInsensitive) {
  EXPECT_TRUE(icontains("GoogleToolbar/tbPROXY/af", "proxy"));
  EXPECT_TRUE(icontains("www.ISRAEL-news.com", "israel"));
  EXPECT_FALSE(icontains("short", "longer needle"));
  EXPECT_TRUE(icontains("anything", ""));
  EXPECT_FALSE(icontains("prox", "proxy"));
}

TEST(IContains, MatchAtBoundaries) {
  EXPECT_TRUE(icontains("proxy", "proxy"));
  EXPECT_TRUE(icontains("proxy.org/x", "proxy"));
  EXPECT_TRUE(icontains("x/ultrasurf", "ultrasurf"));
}

TEST(StartsEndsWith, Basic) {
  EXPECT_TRUE(starts_with("/tor/server", "/tor/"));
  EXPECT_FALSE(starts_with("/to", "/tor/"));
  EXPECT_TRUE(ends_with("panet.co.il", ".il"));
  EXPECT_FALSE(ends_with("il", ".il"));
}

// --- host_matches_domain: the DomainRule/TldRule semantics ----------------

struct DomainCase {
  const char* host;
  const char* domain;
  bool expected;
};

class HostMatchSweep : public ::testing::TestWithParam<DomainCase> {};

TEST_P(HostMatchSweep, Matches) {
  const auto& c = GetParam();
  EXPECT_EQ(host_matches_domain(c.host, c.domain), c.expected)
      << c.host << " vs " << c.domain;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, HostMatchSweep,
    ::testing::Values(
        DomainCase{"facebook.com", "facebook.com", true},
        DomainCase{"www.facebook.com", "facebook.com", true},
        DomainCase{"ar-ar.facebook.com", "facebook.com", true},
        DomainCase{"FACEBOOK.COM", "facebook.com", true},
        DomainCase{"notfacebook.com", "facebook.com", false},
        DomainCase{"facebook.com.evil.net", "facebook.com", false},
        DomainCase{"panet.co.il", ".il", true},
        DomainCase{"www.walla.co.il", ".il", true},
        DomainCase{"evil.com", ".il", false},
        DomainCase{"il", ".il", false},
        DomainCase{"mail.skype.com", "skype.com", true},
        DomainCase{"skype.com", "kype.com", false},
        DomainCase{"x.com", "", false}));

TEST(Split, KeepsEmptyFields) {
  const auto parts = split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(Join, RoundTripsWithSplit) {
  const std::vector<std::string> parts{"2011", "08", "03"};
  EXPECT_EQ(join(parts, "-"), "2011-08-03");
  EXPECT_EQ(split(join(parts, "-"), '-'), parts);
}

TEST(Percent, Rendering) {
  EXPECT_EQ(percent(0.2191), "21.91%");
  EXPECT_EQ(percent(0.0), "0.00%");
  EXPECT_EQ(percent(1.0), "100.00%");
  EXPECT_EQ(percent(0.12345, 1), "12.3%");
}

TEST(WithCommas, Grouping) {
  EXPECT_EQ(with_commas(0), "0");
  EXPECT_EQ(with_commas(999), "999");
  EXPECT_EQ(with_commas(1000), "1,000");
  EXPECT_EQ(with_commas(751295830), "751,295,830");
}

TEST(CompactCount, MillionsSuffix) {
  EXPECT_EQ(compact_count(50'360'000), "50.36M");
  EXPECT_EQ(compact_count(1'620'000), "1.62M");
  EXPECT_EQ(compact_count(503'932), "503,932");
}

}  // namespace
