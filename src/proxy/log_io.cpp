#include "proxy/log_io.h"

#include <charconv>
#include <istream>
#include <ostream>
#include <stdexcept>

#include "util/csv.h"
#include "util/simtime.h"
#include "util/strings.h"

namespace syrwatch::proxy {

namespace {

constexpr int kColumnCount = 17;

std::string field_or_dash(std::string_view value) {
  return value.empty() ? "-" : std::string(value);
}

std::string dash_to_empty(std::string value) {
  return value == "-" ? std::string{} : value;
}

std::optional<std::uint64_t> parse_u64(std::string_view text, int base = 10) {
  std::uint64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value, base);
  if (ec != std::errc{} || ptr != text.data() + text.size())
    return std::nullopt;
  return value;
}

/// Bounded civil-field parser: from_chars (no exceptions, no locale), full
/// consumption, and an inclusive range check. Rejects the out-of-range
/// values ("2011-13-01", hour 25, negative day) that the exception-driven
/// stoi path used to accept silently.
std::optional<int> parse_civil_field(std::string_view text, int lo, int hi) {
  int value = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || ptr != text.data() + text.size())
    return std::nullopt;
  if (value < lo || value > hi) return std::nullopt;
  return value;
}

std::optional<std::int64_t> parse_timestamp(const std::string& date,
                                            const std::string& clock) {
  const auto date_parts = util::split(date, '-');
  const auto time_parts = util::split(clock, ':');
  if (date_parts.size() != 3 || time_parts.size() != 3) return std::nullopt;
  util::CivilDateTime c;
  const auto year = parse_civil_field(date_parts[0], 1970, 9999);
  const auto month = parse_civil_field(date_parts[1], 1, 12);
  const auto day = parse_civil_field(date_parts[2], 1, 31);
  const auto hour = parse_civil_field(time_parts[0], 0, 23);
  const auto minute = parse_civil_field(time_parts[1], 0, 59);
  const auto second = parse_civil_field(time_parts[2], 0, 59);
  if (!year || !month || !day || !hour || !minute || !second)
    return std::nullopt;
  c.year = *year;
  c.month = *month;
  c.day = *day;
  c.hour = *hour;
  c.minute = *minute;
  c.second = *second;
  const std::int64_t t = util::to_unix_seconds(c);
  // Round-trip check catches dates the per-field ranges cannot (Feb 30,
  // Apr 31): a date that does not exist normalizes to a different one.
  const util::CivilDateTime back = util::to_civil(t);
  if (back.year != c.year || back.month != c.month || back.day != c.day)
    return std::nullopt;
  return t;
}

std::optional<LogRecord> from_csv_impl(const std::string& line,
                                       ParseDiagnosis& diagnosis) {
  diagnosis = {};
  std::vector<std::string> f;
  try {
    f = util::csv_parse(line);
  } catch (const util::CsvParseError& error) {
    diagnosis.error = error.kind() == util::CsvError::kMalformedQuote
                          ? ParseError::kMalformedQuote
                          : ParseError::kUnbalancedQuote;
    return std::nullopt;
  }
  diagnosis.columns = f.size();
  if (f.size() != kColumnCount) {
    diagnosis.error = ParseError::kColumnCount;
    return std::nullopt;
  }

  LogRecord record;

  const auto time = parse_timestamp(f[0], f[1]);
  if (!time) {
    diagnosis.error = ParseError::kBadTimestamp;
    return std::nullopt;
  }
  record.time = *time;

  const auto s_ip = net::Ipv4Addr::parse(f[2]);
  if (!s_ip || s_ip->octet(3) < 42 || s_ip->octet(3) > 48) {
    diagnosis.error = ParseError::kBadAddress;
    return std::nullopt;
  }
  record.proxy_index = static_cast<std::uint8_t>(s_ip->octet(3) - 42);

  diagnosis.error = ParseError::kBadField;  // any failure below
  if (f[3] == "0.0.0.0") {
    record.user_hash = 0;
  } else {
    const auto hash = parse_u64(f[3], 16);
    if (!hash) return std::nullopt;
    record.user_hash = *hash;
  }

  record.method = f[4];
  const auto scheme = net::parse_scheme(f[5]);
  if (!scheme) return std::nullopt;
  record.url.scheme = *scheme;
  record.url.host = f[6];
  const auto port = parse_u64(f[7]);
  if (!port || *port > 65535) return std::nullopt;
  record.url.port = static_cast<std::uint16_t>(*port);
  record.url.path = dash_to_empty(f[8]);
  record.url.query = dash_to_empty(f[9]);
  // f[10] (cs-uri-ext) is derived from the path; ignored on read.
  record.user_agent = dash_to_empty(f[11]);
  record.categories = dash_to_empty(f[12]);
  const auto status = parse_u64(f[13]);
  if (!status || *status > 999) return std::nullopt;
  record.status = static_cast<std::uint16_t>(*status);
  const auto result = parse_filter_result(f[14]);
  if (!result) return std::nullopt;
  record.filter_result = *result;
  const auto exception = parse_exception(f[15]);
  if (!exception) return std::nullopt;
  record.exception = *exception;
  if (f[16] != "-") {
    const auto dest = net::Ipv4Addr::parse(f[16]);
    if (!dest) return std::nullopt;
    record.dest_ip = *dest;
  }
  diagnosis.error = ParseError::kNone;
  return record;
}

/// CRLF tolerance for the line-oriented readers: std::getline strips the
/// '\n' but leaves the '\r', which would fail the header comparison and
/// misclassify "\r\n" blank lines. Field-level CRs are csv_parse's job.
void strip_cr(std::string& line) {
  if (!line.empty() && line.back() == '\r') line.pop_back();
}

/// "wrong column count (got 4, expected 17)"-style reason for messages.
std::string describe_failure(const ParseDiagnosis& diagnosis) {
  if (diagnosis.error == ParseError::kColumnCount) {
    return "wrong column count (got " + std::to_string(diagnosis.columns) +
           ", expected " + std::to_string(kColumnCount) + ")";
  }
  return std::string(to_string(diagnosis.error));
}

}  // namespace

std::string_view to_string(ParseError error) noexcept {
  switch (error) {
    case ParseError::kNone: return "ok";
    case ParseError::kUnbalancedQuote: return "unbalanced quote";
    case ParseError::kColumnCount: return "wrong column count";
    case ParseError::kBadTimestamp: return "bad timestamp";
    case ParseError::kBadAddress: return "bad proxy address";
    case ParseError::kBadField: return "bad field";
    case ParseError::kMalformedQuote: return "malformed quote";
  }
  return "?";
}

std::string log_csv_header() {
  return "date,time,s-ip,c-ip,cs-method,cs-uri-scheme,cs-host,cs-uri-port,"
         "cs-uri-path,cs-uri-query,cs-uri-ext,cs-user-agent,cs-categories,"
         "sc-status,sc-filter-result,x-exception-id,r-ip";
}

std::string to_csv(const LogRecord& record) {
  const util::CivilDateTime c = util::to_civil(record.time);
  char date[16], clock[16], chash[24];
  std::snprintf(date, sizeof date, "%04d-%02d-%02d", c.year, c.month, c.day);
  std::snprintf(clock, sizeof clock, "%02d:%02d:%02d", c.hour, c.minute,
                c.second);
  if (record.user_hash == 0) {
    std::snprintf(chash, sizeof chash, "0.0.0.0");
  } else {
    std::snprintf(chash, sizeof chash, "%016llx",
                  static_cast<unsigned long long>(record.user_hash));
  }
  const std::vector<std::string> fields = {
      date,
      clock,
      record.proxy_address().to_string(),
      chash,
      record.method,
      std::string(net::to_string(record.url.scheme)),
      record.url.host,
      std::to_string(record.url.port),
      field_or_dash(record.url.path),
      field_or_dash(record.url.query),
      field_or_dash(record.url.extension()),
      field_or_dash(record.user_agent),
      field_or_dash(record.categories),
      std::to_string(record.status),
      std::string(to_string(record.filter_result)),
      std::string(to_string(record.exception)),
      record.dest_ip ? record.dest_ip->to_string() : "-",
  };
  return util::csv_join(fields);
}

std::optional<LogRecord> from_csv(const std::string& line,
                                  ParseDiagnosis* diagnosis) {
  ParseDiagnosis local;
  return from_csv_impl(line, diagnosis != nullptr ? *diagnosis : local);
}

void write_log(std::ostream& out, const std::vector<LogRecord>& records) {
  out << log_csv_header() << '\n';
  for (const LogRecord& record : records) {
    out << to_csv(record) << '\n';
    if (!out) throw std::runtime_error("write_log: stream write failed");
  }
  out.flush();
  if (!out) throw std::runtime_error("write_log: stream flush failed");
}

util::ArtifactInfo write_log_file(const std::string& path,
                                  const std::vector<LogRecord>& records) {
  util::AtomicFileWriter writer{path};
  writer.write(log_csv_header());
  writer.write("\n");
  for (const LogRecord& record : records) {
    writer.write(to_csv(record));
    writer.write("\n");
  }
  return writer.commit();
}

std::vector<LogRecord> read_log(std::istream& in) {
  std::string line;
  if (!std::getline(in, line))
    throw std::runtime_error("read_log: missing or unexpected header");
  strip_cr(line);
  if (line != log_csv_header())
    throw std::runtime_error("read_log: missing or unexpected header");
  std::vector<LogRecord> records;
  std::uint64_t line_number = 1;  // header was line 1
  while (std::getline(in, line)) {
    ++line_number;
    strip_cr(line);
    if (line.empty()) continue;
    ParseDiagnosis diagnosis;
    auto record = from_csv(line, &diagnosis);
    if (!record) {
      throw std::runtime_error(
          "read_log: line " + std::to_string(line_number) + ": " +
          describe_failure(diagnosis) + ": " + line);
    }
    records.push_back(std::move(*record));
  }
  return records;
}

std::uint64_t LogReadStats::skipped_total() const noexcept {
  std::uint64_t total = 0;
  for (const std::uint64_t count : skipped) total += count;
  return total;
}

std::string LogReadStats::summary() const {
  std::string out;
  out += "lines: " + std::to_string(lines) +
         " (header: " + (header_present ? "present" : "MISSING") +
         ", empty: " + std::to_string(empty_lines) + ")\n";
  out += "records recovered: " + std::to_string(recovered) + " / " +
         std::to_string(data_lines) + " data lines\n";
  for (std::size_t i = 1; i < kParseErrorCount; ++i) {
    if (skipped[i] == 0) continue;
    out += "skipped (" + std::string(to_string(static_cast<ParseError>(i))) +
           "): " + std::to_string(skipped[i]) + ", first at line " +
           std::to_string(first_error_line[i]) + "\n";
  }
  if (truncated_tail)
    out += "tail: TRUNCATED (torn final record — partial artifact?)\n";
  return out;
}

std::optional<LogRecord> read_lenient_line(std::string& line,
                                           bool& expect_header,
                                           LogReadStats& stats,
                                           ParseError* error) {
  if (error != nullptr) *error = ParseError::kNone;
  ++stats.lines;
  strip_cr(line);
  if (expect_header) {
    expect_header = false;
    if (line == log_csv_header()) {
      stats.header_present = true;
      return std::nullopt;
    }
    // Headerless (or header-damaged) log: fall through and try the line
    // as data — a truncated header will be tallied as a skipped line.
  }
  if (line.empty()) {
    ++stats.empty_lines;
    return std::nullopt;
  }
  ++stats.data_lines;
  ParseDiagnosis diagnosis;
  auto record = from_csv(line, &diagnosis);
  if (record) {
    ++stats.recovered;
    return record;
  }
  const auto reason = static_cast<std::size_t>(diagnosis.error);
  ++stats.skipped[reason];
  if (stats.first_error_line[reason] == 0)
    stats.first_error_line[reason] = stats.lines;
  if (error != nullptr) *error = diagnosis.error;
  return std::nullopt;
}

LenientLog read_log_lenient(std::istream& in) {
  LenientLog result;
  LogReadStats& stats = result.stats;

  std::string line;
  bool expect_header = true;
  bool final_line_unterminated = false;
  ParseError last_data_error = ParseError::kNone;
  std::uint64_t last_data_error_line = 0;
  while (std::getline(in, line)) {
    ParseError error = ParseError::kNone;
    auto record = read_lenient_line(line, expect_header, stats, &error);
    // getline hitting EOF before the delimiter means this (final) line was
    // never newline-terminated — the signature of a torn write.
    final_line_unterminated = in.eof() && !line.empty();
    if (record) {
      result.records.push_back(std::move(*record));
      last_data_error = ParseError::kNone;
    } else if (error != ParseError::kNone) {
      last_data_error = error;
      last_data_error_line = stats.lines;
    }
  }
  stats.truncated_tail =
      final_line_unterminated ||
      (last_data_error == ParseError::kColumnCount &&
       last_data_error_line == stats.lines);
  return result;
}

}  // namespace syrwatch::proxy
