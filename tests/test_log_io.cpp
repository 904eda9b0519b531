// CSV log serialization: header, rendering, parsing, round-trips, and
// rejection of malformed rows.

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "analysis/scan.h"
#include "analysis/stream.h"
#include "colfmt/container.h"
#include "fault/corruptor.h"
#include "proxy/log_io.h"
#include "util/simtime.h"

namespace {

using namespace syrwatch;
using namespace syrwatch::proxy;

LogRecord sample_record() {
  LogRecord record;
  record.time = util::to_unix_seconds({2011, 8, 3, 8, 15, 30});
  record.proxy_index = 2;  // SG-44
  record.user_hash = 0xDEADBEEF12345678ULL;
  record.user_agent = "Mozilla/4.0 (compatible; MSIE 8.0)";
  record.method = "GET";
  record.url = *net::Url::parse(
      "http://www.facebook.com/plugins/like.php?href=x&channel=xd_proxy");
  record.categories = "unavailable";
  record.filter_result = FilterResult::kDenied;
  record.exception = ExceptionId::kPolicyDenied;
  record.status = 403;
  return record;
}

TEST(LogIo, HeaderListsPaperFields) {
  const auto header = log_csv_header();
  for (const char* field :
       {"cs-host", "cs-uri-path", "cs-uri-query", "cs-uri-ext",
        "cs-user-agent", "cs-categories", "sc-filter-result",
        "x-exception-id", "s-ip", "c-ip"}) {
    EXPECT_NE(header.find(field), std::string::npos) << field;
  }
}

TEST(LogIo, RendersKnownRecord) {
  const auto line = to_csv(sample_record());
  EXPECT_NE(line.find("2011-08-03"), std::string::npos);
  EXPECT_NE(line.find("08:15:30"), std::string::npos);
  EXPECT_NE(line.find("82.137.200.44"), std::string::npos);
  EXPECT_NE(line.find("www.facebook.com"), std::string::npos);
  EXPECT_NE(line.find("policy_denied"), std::string::npos);
  EXPECT_NE(line.find("DENIED"), std::string::npos);
  EXPECT_NE(line.find("php"), std::string::npos);  // cs-uri-ext derived
}

TEST(LogIo, RoundTrip) {
  const auto record = sample_record();
  const auto parsed = from_csv(to_csv(record));
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->time, record.time);
  EXPECT_EQ(parsed->proxy_index, record.proxy_index);
  EXPECT_EQ(parsed->user_hash, record.user_hash);
  EXPECT_EQ(parsed->user_agent, record.user_agent);
  EXPECT_EQ(parsed->url, record.url);
  EXPECT_EQ(parsed->categories, record.categories);
  EXPECT_EQ(parsed->filter_result, record.filter_result);
  EXPECT_EQ(parsed->exception, record.exception);
  EXPECT_EQ(parsed->status, record.status);
  EXPECT_FALSE(parsed->dest_ip.has_value());
}

TEST(LogIo, SuppressedUserRendersAsZeros) {
  LogRecord record = sample_record();
  record.user_hash = 0;
  const auto line = to_csv(record);
  EXPECT_NE(line.find("0.0.0.0"), std::string::npos);
  const auto parsed = from_csv(line);
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->user_hash, 0u);
}

TEST(LogIo, DestIpRoundTrip) {
  LogRecord record = sample_record();
  record.url = *net::Url::parse("http://84.229.1.2/");
  record.dest_ip = net::Ipv4Addr{84, 229, 1, 2};
  const auto parsed = from_csv(to_csv(record));
  ASSERT_TRUE(parsed);
  ASSERT_TRUE(parsed->dest_ip);
  EXPECT_EQ(parsed->dest_ip->to_string(), "84.229.1.2");
}

TEST(LogIo, RejectsMalformedRows) {
  EXPECT_FALSE(from_csv(""));
  EXPECT_FALSE(from_csv("a,b,c"));
  auto line = to_csv(sample_record());
  // Corrupt the s-ip into a non-proxy address.
  auto corrupted = line;
  const auto pos = corrupted.find("82.137.200.44");
  corrupted.replace(pos, 13, "82.137.200.99");
  EXPECT_FALSE(from_csv(corrupted));
}

TEST(LogIo, StreamRoundTrip) {
  std::vector<LogRecord> records;
  for (int i = 0; i < 20; ++i) {
    LogRecord record = sample_record();
    record.time += i * 60;
    record.proxy_index = static_cast<std::uint8_t>(i % 7);
    records.push_back(record);
  }
  std::stringstream stream;
  write_log(stream, records);
  const auto parsed = read_log(stream);
  ASSERT_EQ(parsed.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(parsed[i].time, records[i].time);
    EXPECT_EQ(parsed[i].proxy_index, records[i].proxy_index);
  }
}

TEST(LogIo, FileRoundTripIsAtomicAndDigested) {
  std::vector<LogRecord> records;
  for (int i = 0; i < 5; ++i) {
    LogRecord record = sample_record();
    record.time += i * 60;
    records.push_back(record);
  }
  const std::string path =
      ::testing::TempDir() + "/syrwatch_log_io_roundtrip.csv";
  const auto info = write_log_file(path, records);
  EXPECT_GT(info.bytes, 0u);
  std::ifstream in{path};
  const auto parsed = read_log(in);
  EXPECT_EQ(parsed.size(), records.size());
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
}

TEST(LogIo, ReadRejectsBadHeader) {
  std::stringstream stream;
  stream << "wrong,header\n";
  EXPECT_THROW(read_log(stream), std::runtime_error);
}

TEST(LogIo, ReadRejectsBadRow) {
  std::stringstream stream;
  stream << log_csv_header() << "\n" << "not,a,valid,row\n";
  EXPECT_THROW(read_log(stream), std::runtime_error);
}

TEST(LogIo, QueryWithCommasSurvives) {
  LogRecord record = sample_record();
  record.url.query = "a=1,2,3&b=\"quoted\"";
  const auto parsed = from_csv(to_csv(record));
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->url.query, record.url.query);
}

TEST(LogIo, ReadErrorNamesLineNumber) {
  std::stringstream stream;
  stream << log_csv_header() << "\n"
         << to_csv(sample_record()) << "\n"
         << "not,a,valid,row\n";
  try {
    read_log(stream);
    FAIL() << "expected read_log to throw";
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    // Header is line 1, the good record line 2, the bad row line 3.
    EXPECT_NE(what.find("line 3"), std::string::npos) << what;
    EXPECT_NE(what.find("got 4"), std::string::npos) << what;
    EXPECT_NE(what.find("expected 17"), std::string::npos) << what;
  }
}

TEST(LogIo, DiagnosisReportsColumnCount) {
  ParseDiagnosis diagnosis;
  EXPECT_FALSE(from_csv("a,b,c", &diagnosis));
  EXPECT_EQ(diagnosis.error, ParseError::kColumnCount);
  EXPECT_EQ(diagnosis.columns, 3u);
}

TEST(LogIo, DiagnosisClearsOnSuccess) {
  ParseDiagnosis diagnosis;
  diagnosis.error = ParseError::kColumnCount;
  EXPECT_TRUE(from_csv(to_csv(sample_record()), &diagnosis));
  EXPECT_EQ(diagnosis.error, ParseError::kNone);
}

// Timestamp fields must be in civil range *and* denote a real date;
// std::from_chars-based parsing also rejects signs and trailing junk.
TEST(LogIo, RejectsOutOfRangeCivilFields) {
  const auto line = to_csv(sample_record());
  const std::string date = "2011-08-03";
  const std::string time = "08:15:30";
  const auto expect_rejected = [&](const std::string& needle,
                                   const std::string& replacement) {
    auto corrupted = line;
    const auto pos = corrupted.find(needle);
    ASSERT_NE(pos, std::string::npos) << needle;
    corrupted.replace(pos, needle.size(), replacement);
    ParseDiagnosis diagnosis;
    EXPECT_FALSE(from_csv(corrupted, &diagnosis)) << replacement;
    EXPECT_EQ(diagnosis.error, ParseError::kBadTimestamp) << replacement;
  };
  expect_rejected(date, "2011-13-03");  // month 13
  expect_rejected(date, "2011-00-03");  // month 0
  expect_rejected(date, "2011-08-32");  // day 32
  expect_rejected(date, "2011-08--3");  // negative day
  expect_rejected(date, "2011-02-30");  // no Feb 30
  expect_rejected(date, "2011-8x-03");  // trailing junk in a field
  expect_rejected(time, "25:15:30");    // hour 25
  expect_rejected(time, "08:61:30");    // minute 61
  expect_rejected(time, "08:15:77");    // second 77
}

TEST(LogIo, AcceptsCivilEdgeValues) {
  auto record = sample_record();
  record.time = util::to_unix_seconds({2011, 12, 31, 23, 59, 59});
  const auto parsed = from_csv(to_csv(record));
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->time, record.time);
}

TEST(LogIo, LenientReaderRecoversAroundDamage) {
  std::stringstream stream;
  stream << log_csv_header() << "\n";
  for (int i = 0; i < 10; ++i) {
    LogRecord record = sample_record();
    record.time += i * 60;
    stream << to_csv(record) << "\n";
  }
  stream << "garbage line\n";
  stream << "\n";
  stream << to_csv(sample_record()).substr(0, 25) << "\n";  // truncated
  const auto log = read_log_lenient(stream);
  EXPECT_EQ(log.records.size(), 10u);
  EXPECT_TRUE(log.stats.header_present);
  EXPECT_EQ(log.stats.empty_lines, 1u);
  EXPECT_EQ(log.stats.recovered, 10u);
  EXPECT_EQ(log.stats.skipped_total(), 2u);
  EXPECT_TRUE(log.stats.consistent());
}

TEST(LogIo, LenientReaderWithoutHeaderStillParses) {
  std::stringstream stream;
  stream << to_csv(sample_record()) << "\n";
  const auto log = read_log_lenient(stream);
  EXPECT_FALSE(log.stats.header_present);
  EXPECT_EQ(log.records.size(), 1u);
  EXPECT_TRUE(log.stats.consistent());
}

TEST(LogIo, LenientReaderCountsMalformedQuoteSkips) {
  // "ab"x-style damage: a closing quote followed by garbage. The line must
  // be skipped (not glued back together) and tallied under its own reason.
  std::stringstream stream;
  stream << log_csv_header() << "\n";
  const std::string good = to_csv(sample_record());
  stream << good << "\n";
  stream << "\"2011-08-03\"x" << good.substr(10) << "\n";
  stream << good << "\n";
  const auto log = read_log_lenient(stream);
  EXPECT_EQ(log.records.size(), 2u);
  const auto reason = static_cast<std::size_t>(ParseError::kMalformedQuote);
  EXPECT_EQ(log.stats.skipped[reason], 1u);
  EXPECT_EQ(log.stats.first_error_line[reason], 3u);
  EXPECT_TRUE(log.stats.consistent());
  EXPECT_NE(log.stats.summary().find("malformed quote"), std::string::npos);
}

TEST(LogIo, CrlfTerminatedLogParses) {
  // Externally produced logs are routinely CRLF-terminated; the trailing
  // '\r' must not corrupt the last field (r-ip).
  const auto record = sample_record();
  std::stringstream stream;
  stream << log_csv_header() << "\r\n" << to_csv(record) << "\r\n";
  const auto log = read_log_lenient(stream);
  ASSERT_EQ(log.records.size(), 1u);
  EXPECT_EQ(log.records.front().time, record.time);
  EXPECT_EQ(log.records.front().url, record.url);
  EXPECT_EQ(log.stats.skipped_total(), 0u);
}

// --- truncated-tail detection (torn final record = partial artifact) ------

TEST(LogIo, CleanLogHasNoTruncatedTail) {
  std::stringstream stream;
  stream << log_csv_header() << "\n";
  stream << to_csv(sample_record()) << "\n";
  const auto log = read_log_lenient(stream);
  EXPECT_FALSE(log.stats.truncated_tail);
  EXPECT_EQ(log.stats.summary().find("TRUNCATED"), std::string::npos);
}

TEST(LogIo, MissingFinalNewlineFlagsTruncatedTail) {
  // A parseable final line without its newline: the classic signature of
  // a write cut off between record body and terminator.
  std::stringstream stream;
  stream << log_csv_header() << "\n";
  stream << to_csv(sample_record()) << "\n";
  stream << to_csv(sample_record());  // no trailing '\n'
  const auto log = read_log_lenient(stream);
  EXPECT_EQ(log.records.size(), 2u);
  EXPECT_TRUE(log.stats.truncated_tail);
  EXPECT_NE(log.stats.summary().find("TRUNCATED"), std::string::npos);
}

TEST(LogIo, ShortFinalRecordFlagsTruncatedTail) {
  // Newline-terminated but column-short final line — a torn write that
  // happened to end on a '\n' inside the record.
  std::stringstream stream;
  stream << log_csv_header() << "\n";
  stream << to_csv(sample_record()) << "\n";
  stream << to_csv(sample_record()).substr(0, 30) << "\n";
  const auto log = read_log_lenient(stream);
  EXPECT_EQ(log.records.size(), 1u);
  EXPECT_TRUE(log.stats.truncated_tail);
}

TEST(LogIo, MidFileDamageIsNotATruncatedTail) {
  // Damage followed by healthy records is corruption, not truncation.
  std::stringstream stream;
  stream << log_csv_header() << "\n";
  stream << to_csv(sample_record()).substr(0, 30) << "\n";
  stream << to_csv(sample_record()) << "\n";
  const auto log = read_log_lenient(stream);
  EXPECT_EQ(log.records.size(), 1u);
  EXPECT_EQ(log.stats.skipped_total(), 1u);
  EXPECT_FALSE(log.stats.truncated_tail);
}

// --- one decoder for every CSV read ----------------------------------------

/// The decoder golden input: a seeded LogCorruptor-damaged log of 9,000
/// varied records (over 1 MiB, so lines cross every read-chunk boundary)
/// followed by edge lines and a torn, unterminated final record.
std::string golden_log_bytes() {
  std::string clean = log_csv_header() + "\n";
  for (int i = 0; i < 9000; ++i) {
    LogRecord r = sample_record();
    r.time += i * 37;
    r.proxy_index = static_cast<std::uint8_t>(i % 7);
    r.user_hash =
        i % 5 == 0 ? 0 : 0x1000 + static_cast<std::uint64_t>(i) * 7919;
    r.url.host = "host" + std::to_string(i % 97) + ".example.sy";
    r.url.path = "/p/" + std::to_string(i % 13);
    r.url.query = i % 3 == 0
                      ? ""
                      : "q=" + std::to_string(i) + (i % 11 == 0 ? ",x" : "");
    r.user_agent = i % 4 == 0 ? "Mozilla/5.0 (KHTML, like Gecko)"
                              : "agent \"" + std::to_string(i % 9) + "\"";
    r.categories = i % 2 == 0 ? "" : "unavailable";
    r.filter_result =
        i % 10 == 0 ? FilterResult::kDenied : FilterResult::kObserved;
    r.exception =
        i % 10 == 0 ? ExceptionId::kPolicyDenied : ExceptionId::kNone;
    r.status = i % 10 == 0 ? 403 : 200;
    if (i % 6 == 0)
      r.dest_ip = net::Ipv4Addr{10, 0, 0, static_cast<std::uint8_t>(i)};
    clean += to_csv(r) + "\n";
  }
  fault::CorruptionConfig config;
  config.seed = 2011;
  config.truncate_prob = 0.03;
  config.garble_prob = 0.05;
  config.drop_prob = 0.01;
  fault::LogCorruptor corruptor{config};
  std::string bytes = corruptor.corrupt_log(clean);
  if (bytes.empty() || bytes.back() != '\n') bytes += '\n';
  const std::string good = to_csv(sample_record());
  bytes += good + "\r\r\n";  // two CRs: one per stripping layer
  bytes += good + "\r\r\r\n";  // three: the last one reaches r-ip
  bytes += "\r\n\n";  // blank lines, one CR-only
  LogRecord quoted = sample_record();
  quoted.user_agent = "say \"hi\", twice";  // doubled quotes + quoted comma
  bytes += to_csv(quoted) + "\n";
  bytes += good.substr(0, 40) + "\"\"" + good.substr(40) + "\n";  // a""b
  bytes +=
      good.substr(0, 50) + std::string(1, '\0') + good.substr(50) + "\n";
  LogRecord big = sample_record();
  big.user_agent = std::string(70000, 'a') + ",";  // one line > 64 KiB
  bytes += to_csv(big) + "\n";
  bytes += std::string(70000, 'x') + "\n";
  bytes += "ab\"c,\"unclosed\n";  // malformed before unbalanced
  bytes += "\"closed\"x,\"unclosed\n";
  bytes += "a,\"unclosed,\"\"b\n";  // unbalanced only
  bytes += good.substr(0, good.size() - 5);  // torn final record
  return bytes;
}

constexpr std::uint64_t kFnvBasis = 14695981039346656037ULL;

std::uint64_t fnv1a(std::uint64_t hash, std::string_view bytes) {
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  return hash;
}

/// FNV-1a over each record's CSV rendering, newline-terminated.
std::uint64_t records_digest(const std::vector<LogRecord>& records) {
  std::uint64_t hash = kFnvBasis;
  for (const LogRecord& record : records)
    hash = fnv1a(hash, to_csv(record) + "\n");
  return hash;
}

/// FNV-1a over every scanned row of `source`. With `with_ids` the string
/// ids are hashed too, so a change in interning order shows; without,
/// rows of the two storage backends compare.
std::uint64_t rows_digest(const analysis::LogSource& source,
                          bool with_ids = true) {
  std::uint64_t hash = kFnvBasis;
  analysis::scan_increment(source, 0, [&](const analysis::Record& r) {
    std::string row;
    for (const std::uint64_t n :
         {std::uint64_t(r.time), r.user_hash,
          with_ids ? std::uint64_t(r.host_id) : 0,
          with_ids ? std::uint64_t(r.agent_id) : 0, std::uint64_t(r.dest_ip),
          std::uint64_t(r.port), std::uint64_t(r.status),
          std::uint64_t(r.proxy_index), std::uint64_t(r.scheme),
          std::uint64_t(r.result), std::uint64_t(r.exception),
          std::uint64_t(r.has_dest_ip)})
      row += std::to_string(n) + "|";
    for (const std::string_view s :
         {r.method, r.host, r.path, r.query, r.agent, r.categories, r.domain})
      (row += s) += "|";
    hash = fnv1a(hash, row + "\n");
  });
  return hash;
}

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/syrwatch_log_io_" + name;
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out{path, std::ios::binary | std::ios::trunc};
  out << bytes;
}

struct GoldenStats {
  std::uint64_t lines, data_lines, recovered, empty_lines;
  bool header_present, truncated_tail;
  std::array<std::uint64_t, kParseErrorCount> skipped, first_error_line;
  std::uint64_t digest;
};

void expect_golden(const LogReadStats& stats, std::uint64_t digest,
                   const GoldenStats& golden) {
  EXPECT_EQ(stats.lines, golden.lines);
  EXPECT_EQ(stats.data_lines, golden.data_lines);
  EXPECT_EQ(stats.recovered, golden.recovered);
  EXPECT_EQ(stats.empty_lines, golden.empty_lines);
  EXPECT_EQ(stats.header_present, golden.header_present);
  EXPECT_EQ(stats.truncated_tail, golden.truncated_tail);
  EXPECT_EQ(stats.skipped, golden.skipped);
  EXPECT_EQ(stats.first_error_line, golden.first_error_line);
  EXPECT_EQ(digest, golden.digest);
}

// Per-reason skip counts, first error lines, the torn-tail flag and a
// digest of the recovered records, captured from the getline + csv_parse
// readers this decoder replaced: the acceptance set, the ParseError
// classification (quote errors left to right, before the column count)
// and the two-layer '\r' rule must not move.
TEST(DecoderGolden, DamagedLogMatchesReferenceReaders) {
  const std::string bytes = golden_log_bytes();
  ASSERT_EQ(bytes.size(), 1346233u);
  const GoldenStats lenient{8936, 8932, 8264, 3, true, true,
                            {0, 38, 344, 84, 50, 108, 44},
                            {0, 505, 89, 33, 387, 10, 46},
                            0xe3ea2a78d1d81905ULL};

  std::stringstream in{bytes};
  const LenientLog log = read_log_lenient(in);
  expect_golden(log.stats, records_digest(log.records), lenient);

  const std::string path = temp_path("golden.csv");
  write_file(path, bytes);
  const auto opened =
      analysis::open_source(path, {.format = "csv", .lenient = true});
  EXPECT_EQ(opened.rows(), 8264u);
  GoldenStats open_golden = lenient;
  open_golden.digest = 0xc42b889de0c837d6ULL;  // rows_digest, pool ids too
  expect_golden(opened.read_stats(), rows_digest(opened.source()),
                open_golden);

  // A tail fed the same bytes across polls that cut lines at and around
  // the 64 KiB read size. The torn final record stays pending, so the
  // tail sees one line (a short one) fewer than the whole-file readers.
  const std::string spool = temp_path("golden_spool.csv");
  std::filesystem::remove(spool);
  analysis::SpoolTail tail{spool};
  std::vector<LogRecord> seen;
  std::size_t from = 0;
  for (const std::size_t cut :
       {std::size_t{7000}, std::size_t{65536 + 13}, std::size_t{300001},
        std::size_t{(1 << 20) + 5}, bytes.size() - 70100, bytes.size()}) {
    std::ofstream out{spool, std::ios::binary | std::ios::app};
    out << bytes.substr(from, cut - from);
    out.close();
    from = cut;
    tail.poll(
        [&](const RecordView& record) { seen.push_back(record.to_record()); });
  }
  const GoldenStats spool_golden{8935, 8931, 8264, 3, true, false,
                                 {0, 38, 343, 84, 50, 108, 44},
                                 {0, 505, 89, 33, 387, 10, 46},
                                 0xe3ea2a78d1d81905ULL};
  expect_golden(tail.stats(), records_digest(seen), spool_golden);
  EXPECT_EQ(tail.pending_bytes(), 194u);
  EXPECT_EQ(tail.offset(), 1346039u);
  std::filesystem::remove(path);
  std::filesystem::remove(spool);
}

TEST(LineReader, CarriesLinesAcrossChunksAndFlagsTornTail) {
  const std::string longer(LineReader::kChunkBytes + 17, 'y');
  std::stringstream in{"a\n" + longer + "\n\nz"};
  LineReader lines{in};
  std::string_view line;
  ASSERT_TRUE(lines.next(line));
  EXPECT_EQ(line, "a");
  ASSERT_TRUE(lines.next(line));
  EXPECT_EQ(line, longer);
  ASSERT_TRUE(lines.next(line));
  EXPECT_EQ(line, "");
  EXPECT_TRUE(lines.terminated());
  ASSERT_TRUE(lines.next(line));
  EXPECT_EQ(line, "z");
  EXPECT_FALSE(lines.terminated());
  EXPECT_EQ(lines.line_number(), 4u);
  EXPECT_EQ(lines.consumed(), longer.size() + 5);
  EXPECT_FALSE(lines.next(line));
}

TEST(LineReader, StopsAtTheByteLimit) {
  std::stringstream in{"ab\ncd\nef\n"};
  LineReader lines{in, 5};
  std::string_view line;
  ASSERT_TRUE(lines.next(line));
  EXPECT_EQ(line, "ab");
  ASSERT_TRUE(lines.next(line));
  EXPECT_EQ(line, "cd");
  EXPECT_FALSE(lines.terminated());
  EXPECT_FALSE(lines.next(line));
}

/// 120 time-ordered records, some with quoted fields.
std::string clean_log() {
  std::string text = log_csv_header() + "\n";
  for (int i = 0; i < 120; ++i) {
    LogRecord record = sample_record();
    record.time += i * 60;
    record.url.host = "h0.example.sy";
    record.url.host[1] = static_cast<char>('0' + i % 9);
    if (i % 4 == 0) record.user_agent = "Mozilla/5.0 (KHTML, like Gecko)";
    text += to_csv(record) + "\n";
  }
  return text;
}

std::string replace_all(std::string text, std::string_view from,
                        std::string_view to) {
  for (std::size_t at = text.find(from); at != std::string::npos;
       at = text.find(from, at + to.size()))
    text.replace(at, from.size(), to);
  return text;
}

std::string with_blank_line_after(const std::string& text, int line) {
  std::size_t at = 0;
  for (int i = 0; i < line; ++i) at = text.find('\n', at) + 1;
  return text.substr(0, at) + "\n" + text.substr(at);
}

// CRLF line ends and blank lines are accepted alike by every CSV reader:
// strict open_source (which used to refuse both), read_log, the convert
// loop and a spool tail.
TEST(LogIo, CrlfAndBlankLineLogsReadAlikeEverywhere) {
  const std::string clean = clean_log();
  const std::string clean_path = temp_path("clean.csv");
  write_file(clean_path, clean);
  const auto reference = analysis::open_source(clean_path);
  const std::uint64_t expected = rows_digest(reference.source());
  const std::uint64_t expected_content =
      rows_digest(reference.source(), /*with_ids=*/false);
  std::stringstream clean_in{clean};
  const std::uint64_t expected_records = records_digest(read_log(clean_in));

  for (const auto& [name, bytes] :
       {std::pair<std::string, std::string>{
            "crlf", replace_all(clean, "\n", "\r\n")},
        {"blank", with_blank_line_after(clean, 50)}}) {
    SCOPED_TRACE(name);
    const std::string path = temp_path(name + ".csv");
    write_file(path, bytes);

    const auto strict = analysis::open_source(path, {.format = "csv"});
    EXPECT_EQ(rows_digest(strict.source()), expected);

    std::stringstream in{bytes};
    EXPECT_EQ(records_digest(read_log(in)), expected_records);

    // syrwatchctl convert's loop: strict read into a SYRCOL1 writer.
    const std::string col = temp_path(name + ".col");
    {
      std::ifstream csv{path, std::ios::binary};
      LineReader lines{csv};
      colfmt::Writer writer{col};
      const StrictRead read = read_log_strict(
          lines, [&](const RecordView& r) { writer.add(r); });
      EXPECT_EQ(read.status, StrictRead::Status::kOk);
      writer.finish();
    }
    const auto converted = analysis::open_source(col);
    EXPECT_EQ(rows_digest(converted.source(), false), expected_content);

    analysis::StreamSource stream{path};
    EXPECT_EQ(stream.poll(), 120u);
    EXPECT_EQ(rows_digest(stream.source()), expected);
    std::filesystem::remove(path);
    std::filesystem::remove(col);
  }
  std::filesystem::remove(clean_path);
}

// --- CSV encoder -------------------------------------------------------------

/// Records at the edges of every field the CSV encoder formats by hand or
/// escapes: quoting in each free-text field, empty fields, extreme hashes,
/// ports and statuses, absent and present r-ip, years outside 0–9999 and
/// negative times, and each cs-uri-ext rule.
std::vector<LogRecord> edge_records() {
  const auto base = [] {
    LogRecord r;
    r.time = util::to_unix_seconds({2011, 8, 3, 8, 15, 30});
    r.proxy_index = 2;
    r.user_hash = 0xDEADBEEF12345678ULL;
    r.user_agent = "Mozilla/4.0";
    r.method = "GET";
    r.url.host = "www.example.com";
    r.url.path = "/index.html";
    r.url.query = "a=1";
    r.categories = "unavailable";
    return r;
  };
  std::vector<LogRecord> out;
  out.push_back(base());
  {
    LogRecord r = base();  // every free-text field needs quoting
    r.user_agent = "Mozilla/5.0 (X11, Linux) \"quoted\"\r\nnext";
    r.method = "GE,T";
    r.url.host = "h\"ost";
    r.url.path = "/a,b/\"c\".php";
    r.url.query = "q=1,2&s=\"x\"\r";
    r.categories = "News, \"Media\"\n";
    out.push_back(r);
  }
  {
    LogRecord r = base();  // empty fields: '-' except method and host
    r.method.clear();
    r.url.host.clear();
    r.url.path.clear();
    r.url.query.clear();
    r.user_agent.clear();
    r.categories.clear();
    out.push_back(r);
  }
  {
    LogRecord r = base();
    r.user_hash = 0;
    r.url.port = 0;
    r.status = 0;
    r.proxy_index = 0;
    r.dest_ip = net::Ipv4Addr{0u};
    out.push_back(r);
  }
  {
    LogRecord r = base();
    r.user_hash = ~std::uint64_t{0};
    r.url.port = 65535;
    r.status = 65535;
    r.proxy_index = 6;
    r.url.scheme = net::Scheme::kHttps;
    r.filter_result = FilterResult::kDenied;
    r.exception = ExceptionId::kPolicyDenied;
    r.dest_ip = net::Ipv4Addr{255, 255, 255, 255};
    out.push_back(r);
  }
  {
    LogRecord r = base();
    r.user_hash = 1;
    r.url.scheme = net::Scheme::kTcp;
    r.url.port = 9001;
    r.filter_result = FilterResult::kProxied;
    r.exception = ExceptionId::kTcpError;
    r.status = 503;
    r.dest_ip = net::Ipv4Addr{10, 0, 0, 1};
    out.push_back(r);
  }
  for (const std::int64_t time : {
           util::to_unix_seconds({999, 12, 31, 23, 59, 59}),
           util::to_unix_seconds({5, 1, 2, 3, 4, 5}),
           util::to_unix_seconds({0, 2, 29, 0, 0, 0}),
           util::to_unix_seconds({9999, 12, 31, 23, 59, 59}),
           util::to_unix_seconds({10000, 1, 1, 0, 0, 0}),
           std::int64_t{1'000'000'000'000'000},
           std::int64_t{-1},
           util::to_unix_seconds({-1, 6, 15, 12, 0, 0}),
           util::to_unix_seconds({-12345, 1, 1, 0, 0, 0}),
           util::to_unix_seconds({-1'000'000'000, 1, 1, 0, 0, 0}),
       }) {
    LogRecord r = base();
    r.time = time;
    out.push_back(r);
  }
  for (const char* path : {"/dir.v2/readme", "/file.", "/archive.tar.gz",
                           "noslash.txt", "/.hidden", "/a/b.c\"d,e", "/",
                           "-"}) {
    LogRecord r = base();
    r.url.path = path;
    out.push_back(r);
  }
  return out;
}

// Each edge record's line as the printf/vector-of-strings encoder that
// append_csv replaced rendered it, byte for byte.
const std::vector<std::string> kEdgeLines = {
      "2011-08-03,08:15:30,82.137.200.44,deadbeef12345678,GET,http,www.example.com,80,/index.html,a=1,html,Mozilla/4.0,unavailable,200,OBSERVED,-,-",
      "2011-08-03,08:15:30,82.137.200.44,deadbeef12345678,\"GE,T\",http,\"h\"\"ost\",80,\"/a,b/\"\"c\"\".php\",\"q=1,2&s=\"\"x\"\"\r\",php,\"Mozilla/5.0 (X11, Linux) \"\"quoted\"\"\r\nnext\",\"News, \"\"Media\"\"\n\",200,OBSERVED,-,-",
      "2011-08-03,08:15:30,82.137.200.44,deadbeef12345678,,http,,80,-,-,-,-,-,200,OBSERVED,-,-",
      "2011-08-03,08:15:30,82.137.200.42,0.0.0.0,GET,http,www.example.com,0,/index.html,a=1,html,Mozilla/4.0,unavailable,0,OBSERVED,-,0.0.0.0",
      "2011-08-03,08:15:30,82.137.200.48,ffffffffffffffff,GET,https,www.example.com,65535,/index.html,a=1,html,Mozilla/4.0,unavailable,65535,DENIED,policy_denied,255.255.255.255",
      "2011-08-03,08:15:30,82.137.200.44,0000000000000001,GET,tcp,www.example.com,9001,/index.html,a=1,html,Mozilla/4.0,unavailable,503,PROXIED,tcp_error,10.0.0.1",
      "0999-12-31,23:59:59,82.137.200.44,deadbeef12345678,GET,http,www.example.com,80,/index.html,a=1,html,Mozilla/4.0,unavailable,200,OBSERVED,-,-",
      "0005-01-02,03:04:05,82.137.200.44,deadbeef12345678,GET,http,www.example.com,80,/index.html,a=1,html,Mozilla/4.0,unavailable,200,OBSERVED,-,-",
      "0000-02-29,00:00:00,82.137.200.44,deadbeef12345678,GET,http,www.example.com,80,/index.html,a=1,html,Mozilla/4.0,unavailable,200,OBSERVED,-,-",
      "9999-12-31,23:59:59,82.137.200.44,deadbeef12345678,GET,http,www.example.com,80,/index.html,a=1,html,Mozilla/4.0,unavailable,200,OBSERVED,-,-",
      "10000-01-01,00:00:00,82.137.200.44,deadbeef12345678,GET,http,www.example.com,80,/index.html,a=1,html,Mozilla/4.0,unavailable,200,OBSERVED,-,-",
      "31690708-07-05,01:46:40,82.137.200.44,deadbeef12345678,GET,http,www.example.com,80,/index.html,a=1,html,Mozilla/4.0,unavailable,200,OBSERVED,-,-",
      "1969-12-31,23:59:59,82.137.200.44,deadbeef12345678,GET,http,www.example.com,80,/index.html,a=1,html,Mozilla/4.0,unavailable,200,OBSERVED,-,-",
      "-001-06-15,12:00:00,82.137.200.44,deadbeef12345678,GET,http,www.example.com,80,/index.html,a=1,html,Mozilla/4.0,unavailable,200,OBSERVED,-,-",
      "-12345-01-01,00:00:00,82.137.200.44,deadbeef12345678,GET,http,www.example.com,80,/index.html,a=1,html,Mozilla/4.0,unavailable,200,OBSERVED,-,-",
      "-1000000000-01-,00:00:00,82.137.200.44,deadbeef12345678,GET,http,www.example.com,80,/index.html,a=1,html,Mozilla/4.0,unavailable,200,OBSERVED,-,-",
      "2011-08-03,08:15:30,82.137.200.44,deadbeef12345678,GET,http,www.example.com,80,/dir.v2/readme,a=1,-,Mozilla/4.0,unavailable,200,OBSERVED,-,-",
      "2011-08-03,08:15:30,82.137.200.44,deadbeef12345678,GET,http,www.example.com,80,/file.,a=1,-,Mozilla/4.0,unavailable,200,OBSERVED,-,-",
      "2011-08-03,08:15:30,82.137.200.44,deadbeef12345678,GET,http,www.example.com,80,/archive.tar.gz,a=1,gz,Mozilla/4.0,unavailable,200,OBSERVED,-,-",
      "2011-08-03,08:15:30,82.137.200.44,deadbeef12345678,GET,http,www.example.com,80,noslash.txt,a=1,txt,Mozilla/4.0,unavailable,200,OBSERVED,-,-",
      "2011-08-03,08:15:30,82.137.200.44,deadbeef12345678,GET,http,www.example.com,80,/.hidden,a=1,hidden,Mozilla/4.0,unavailable,200,OBSERVED,-,-",
      "2011-08-03,08:15:30,82.137.200.44,deadbeef12345678,GET,http,www.example.com,80,\"/a/b.c\"\"d,e\",a=1,\"c\"\"d,e\",Mozilla/4.0,unavailable,200,OBSERVED,-,-",
      "2011-08-03,08:15:30,82.137.200.44,deadbeef12345678,GET,http,www.example.com,80,/,a=1,-,Mozilla/4.0,unavailable,200,OBSERVED,-,-",
      "2011-08-03,08:15:30,82.137.200.44,deadbeef12345678,GET,http,www.example.com,80,-,a=1,-,Mozilla/4.0,unavailable,200,OBSERVED,-,-",
};

TEST(EncoderGolden, EdgeCaseRecordsMatchTheReferenceEncoder) {
  const std::vector<LogRecord> records = edge_records();
  ASSERT_EQ(records.size(), kEdgeLines.size());
  std::string appended = "prefix,";
  std::string expected = appended;
  for (std::size_t i = 0; i < records.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(to_csv(records[i]), kEdgeLines[i]);
    append_csv(appended, RecordView{records[i]});
    appended += '\n';
    expected += kEdgeLines[i] + '\n';
  }
  // append_csv appends: earlier bytes stay, lines concatenate.
  EXPECT_EQ(appended, expected);
}

TEST(EncoderGolden, EdgeCaseRecordsRoundTripWhereTheDecoderAccepts) {
  for (const LogRecord& record : edge_records()) {
    const util::CivilDateTime c = util::to_civil(record.time);
    // Outside parse_record's ranges: years before 1970 or past 9999, and
    // statuses past 999.
    if (c.year < 1970 || c.year > 9999 || record.status > 999) continue;
    SCOPED_TRACE(to_csv(record));
    const auto parsed = from_csv(to_csv(record));
    ASSERT_TRUE(parsed);
    EXPECT_EQ(to_csv(*parsed), to_csv(record));
    if (record.url.path == "-") continue;  // "-" reads back as empty
    EXPECT_EQ(parsed->url, record.url);
    EXPECT_EQ(parsed->user_agent, record.user_agent);
    EXPECT_EQ(parsed->categories, record.categories);
    EXPECT_EQ(parsed->dest_ip, record.dest_ip);
  }
}

TEST(EncoderGolden, WriteLogFileMatchesWriteLog) {
  const std::vector<LogRecord> records = edge_records();
  std::ostringstream stream;
  write_log(stream, records);
  std::string expected = log_csv_header() + "\n";
  for (const std::string& line : kEdgeLines) expected += line + "\n";
  EXPECT_EQ(stream.str(), expected);
  const std::string path = temp_path("edge_file.csv");
  write_log_file(path, records);
  std::ifstream in{path, std::ios::binary};
  const std::string bytes{std::istreambuf_iterator<char>(in),
                          std::istreambuf_iterator<char>()};
  EXPECT_EQ(bytes, expected);
  std::filesystem::remove(path);
}

}  // namespace
