#include "proxy/log_io.h"

#include <charconv>
#include <cstdio>
#include <cstring>
#include <istream>
#include <ostream>
#include <stdexcept>

#include "util/csv.h"
#include "util/simtime.h"

namespace syrwatch::proxy {

namespace {

constexpr std::size_t kColumnCount = 17;

void append_field_or_dash(std::string& out, std::string_view value) {
  if (value.empty())
    out.push_back('-');
  else
    util::append_csv_field(out, value);
}

void append_u64(std::string& out, std::uint64_t value) {
  char buf[20];
  const auto end = std::to_chars(buf, buf + sizeof buf, value).ptr;
  out.append(buf, end);
}

/// Writes `value` (0 <= value < 10^width) as exactly `width` digits.
void put_digits(char* at, int value, int width) {
  for (int i = width - 1; i >= 0; --i) {
    at[i] = static_cast<char>('0' + value % 10);
    value /= 10;
  }
}

std::string_view dash_to_empty(std::string_view value) {
  return value == "-" ? std::string_view{} : value;
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

/// Splits "a<sep>b<sep>c" into exactly three parts (empty parts kept, so
/// a third separator fails).
bool split3(std::string_view text, char sep, std::string_view (&parts)[3]) {
  const std::size_t first = text.find(sep);
  if (first == std::string_view::npos) return false;
  const std::size_t second = text.find(sep, first + 1);
  if (second == std::string_view::npos ||
      text.find(sep, second + 1) != std::string_view::npos)
    return false;
  parts[0] = text.substr(0, first);
  parts[1] = text.substr(first + 1, second - first - 1);
  parts[2] = text.substr(second + 1);
  return true;
}

std::optional<std::int64_t> parse_timestamp(std::string_view date,
                                            std::string_view clock) {
  std::string_view date_parts[3];
  std::string_view time_parts[3];
  if (!split3(date, '-', date_parts) || !split3(clock, ':', time_parts))
    return std::nullopt;
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

/// Validates the split fields into `record`; returns the failure.
ParseError decode_fields(const std::string_view (&f)[kColumnCount],
                         RecordView& record) {
  const auto time = parse_timestamp(f[0], f[1]);
  if (!time) return ParseError::kBadTimestamp;
  record.time = *time;

  const auto s_ip = net::Ipv4Addr::parse(f[2]);
  if (!s_ip || s_ip->octet(3) < 42 || s_ip->octet(3) > 48)
    return ParseError::kBadAddress;
  record.proxy_index = static_cast<std::uint8_t>(s_ip->octet(3) - 42);

  if (f[3] == "0.0.0.0") {
    record.user_hash = 0;
  } else {
    const auto hash = parse_u64(f[3], 16);
    if (!hash) return ParseError::kBadField;
    record.user_hash = *hash;
  }

  record.method = f[4];
  const auto scheme = net::parse_scheme(f[5]);
  if (!scheme) return ParseError::kBadField;
  record.scheme = *scheme;
  record.host = f[6];
  const auto port = parse_u64(f[7]);
  if (!port || *port > 65535) return ParseError::kBadField;
  record.port = static_cast<std::uint16_t>(*port);
  record.path = dash_to_empty(f[8]);
  record.query = dash_to_empty(f[9]);
  // f[10] (cs-uri-ext) is derived from the path; ignored on read.
  record.user_agent = dash_to_empty(f[11]);
  record.categories = dash_to_empty(f[12]);
  const auto status = parse_u64(f[13]);
  if (!status || *status > 999) return ParseError::kBadField;
  record.status = static_cast<std::uint16_t>(*status);
  const auto result = parse_filter_result(f[14]);
  if (!result) return ParseError::kBadField;
  record.filter_result = *result;
  const auto exception = parse_exception(f[15]);
  if (!exception) return ParseError::kBadField;
  record.exception = *exception;
  record.dest_ip.reset();
  if (f[16] != "-") {
    const auto dest = net::Ipv4Addr::parse(f[16]);
    if (!dest) return ParseError::kBadField;
    record.dest_ip = *dest;
  }
  return ParseError::kNone;
}

/// The '\r' a CRLF log leaves on each line split off at '\n': the line
/// readers strip one before the header and empty-line checks. Field-level
/// CRs are util::csv_split's job.
std::string_view strip_cr(std::string_view line) {
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  return line;
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

void append_csv(std::string& out, const RecordView& record) {
  char buf[24];
  const util::CivilDateTime c = util::to_civil(record.time);
  if (c.year >= 0 && c.year <= 9999) {
    put_digits(buf, c.year, 4);
    buf[4] = '-';
    put_digits(buf + 5, c.month, 2);
    buf[7] = '-';
    put_digits(buf + 8, c.day, 2);
    out.append(buf, 10);
  } else {
    // Years outside the four-digit range keep the printf rendering, down
    // to its truncation at 15 characters.
    char date[16];
    std::snprintf(date, sizeof date, "%04d-%02d-%02d", c.year, c.month,
                  c.day);
    out.append(date);
  }
  buf[0] = ',';
  put_digits(buf + 1, c.hour, 2);
  buf[3] = ':';
  put_digits(buf + 4, c.minute, 2);
  buf[6] = ':';
  put_digits(buf + 7, c.second, 2);
  buf[9] = ',';
  out.append(buf, 10);

  out.append("82.137.200.");
  append_u64(out, static_cast<std::uint8_t>(42 + record.proxy_index));
  out.push_back(',');
  if (record.user_hash == 0) {
    out.append("0.0.0.0");
  } else {
    constexpr char kHex[] = "0123456789abcdef";
    for (int i = 0; i < 16; ++i)
      buf[i] = kHex[(record.user_hash >> (60 - 4 * i)) & 0xF];
    out.append(buf, 16);
  }
  out.push_back(',');
  util::append_csv_field(out, record.method);
  out.push_back(',');
  out.append(net::to_string(record.scheme));
  out.push_back(',');
  util::append_csv_field(out, record.host);
  out.push_back(',');
  append_u64(out, record.port);
  out.push_back(',');
  append_field_or_dash(out, record.path);
  out.push_back(',');
  append_field_or_dash(out, record.query);
  out.push_back(',');
  append_field_or_dash(out, net::path_extension(record.path));
  out.push_back(',');
  append_field_or_dash(out, record.user_agent);
  out.push_back(',');
  append_field_or_dash(out, record.categories);
  out.push_back(',');
  append_u64(out, record.status);
  out.push_back(',');
  out.append(to_string(record.filter_result));
  out.push_back(',');
  out.append(to_string(record.exception));
  out.push_back(',');
  if (record.dest_ip) {
    for (int i = 0; i < 4; ++i) {
      if (i != 0) out.push_back('.');
      append_u64(out, record.dest_ip->octet(i));
    }
  } else {
    out.push_back('-');
  }
}

std::string to_csv(const LogRecord& record) {
  std::string line;
  append_csv(line, RecordView{record});
  return line;
}

RecordView::RecordView(const LogRecord& record)
    : time(record.time),
      proxy_index(record.proxy_index),
      user_hash(record.user_hash),
      user_agent(record.user_agent),
      method(record.method),
      scheme(record.url.scheme),
      host(record.url.host),
      port(record.url.port),
      path(record.url.path),
      query(record.url.query),
      categories(record.categories),
      filter_result(record.filter_result),
      exception(record.exception),
      status(record.status),
      dest_ip(record.dest_ip) {}

LogRecord RecordView::to_record() const {
  LogRecord record;
  record.time = time;
  record.proxy_index = proxy_index;
  record.user_hash = user_hash;
  record.user_agent = user_agent;
  record.method = method;
  record.url.scheme = scheme;
  record.url.host = host;
  record.url.port = port;
  record.url.path = path;
  record.url.query = query;
  record.categories = categories;
  record.filter_result = filter_result;
  record.exception = exception;
  record.status = status;
  record.dest_ip = dest_ip;
  return record;
}

ParseDiagnosis parse_record(std::string_view line, RecordView& record,
                            std::string& scratch) {
  ParseDiagnosis diagnosis;
  std::string_view fields[kColumnCount];
  const util::CsvSplit split = util::csv_split(line, fields, scratch);
  if (split.error) {
    diagnosis.error = *split.error == util::CsvError::kMalformedQuote
                          ? ParseError::kMalformedQuote
                          : ParseError::kUnbalancedQuote;
    return diagnosis;
  }
  diagnosis.columns = split.fields;
  diagnosis.error = split.fields == kColumnCount
                        ? decode_fields(fields, record)
                        : ParseError::kColumnCount;
  return diagnosis;
}

std::optional<LogRecord> from_csv(const std::string& line,
                                  ParseDiagnosis* diagnosis) {
  RecordView record;
  std::string scratch;
  const ParseDiagnosis result = parse_record(line, record, scratch);
  if (diagnosis != nullptr) *diagnosis = result;
  if (result.error != ParseError::kNone) return std::nullopt;
  return record.to_record();
}

LineReader::LineReader(std::istream& in, std::uint64_t limit)
    : in_(in), limit_(limit), buffer_(kChunkBytes, '\0') {}

bool LineReader::next(std::string_view& line) {
  for (;;) {
    const char* base = buffer_.data();
    if (const void* newline =
            std::memchr(base + begin_, '\n', end_ - begin_)) {
      const auto at = static_cast<std::size_t>(
          static_cast<const char*>(newline) - base);
      line = {base + begin_, at - begin_};
      consumed_ += at + 1 - begin_;
      begin_ = at + 1;
      ++line_number_;
      return true;
    }
    if (eof_) {
      if (begin_ == end_) return false;
      line = {base + begin_, end_ - begin_};
      consumed_ += end_ - begin_;
      begin_ = end_;
      terminated_ = false;
      ++line_number_;
      return true;
    }
    fill();
  }
}

void LineReader::fill() {
  // Carry the partial line to the front; grow only when it fills the
  // whole buffer (a line longer than a chunk).
  if (begin_ > 0) {
    std::memmove(buffer_.data(), buffer_.data() + begin_, end_ - begin_);
    end_ -= begin_;
    begin_ = 0;
  }
  if (end_ == buffer_.size()) buffer_.resize(buffer_.size() * 2);
  std::size_t want = buffer_.size() - end_;
  if (limit_ < want) want = static_cast<std::size_t>(limit_);
  if (want == 0) {
    eof_ = true;
    return;
  }
  in_.read(buffer_.data() + end_, static_cast<std::streamsize>(want));
  const auto got = static_cast<std::size_t>(in_.gcount());
  end_ += got;
  limit_ -= got;
  if (got < want) eof_ = true;
}

bool LineReader::failed() const { return in_.bad(); }

StrictRead read_log_strict(LineReader& lines, const RecordSink& sink) {
  StrictRead result;
  std::string_view line;
  if (!lines.next(line) || strip_cr(line) != log_csv_header()) {
    result.status = StrictRead::Status::kBadHeader;
    result.line_number = lines.line_number();
    return result;
  }
  RecordView record;
  std::string scratch;
  while (lines.next(line)) {
    line = strip_cr(line);
    if (line.empty()) continue;
    result.diagnosis = parse_record(line, record, scratch);
    if (result.diagnosis.error != ParseError::kNone) {
      result.status = StrictRead::Status::kBadRecord;
      result.line_number = lines.line_number();
      result.line = line;
      return result;
    }
    sink(record);
    ++result.records;
  }
  return result;
}

void write_log(std::ostream& out, const std::vector<LogRecord>& records) {
  out << log_csv_header() << '\n';
  std::string line;
  for (const LogRecord& record : records) {
    line.clear();
    append_csv(line, RecordView{record});
    line += '\n';
    out.write(line.data(), static_cast<std::streamsize>(line.size()));
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
  std::string line;
  for (const LogRecord& record : records) {
    line.clear();
    append_csv(line, RecordView{record});
    line += '\n';
    writer.write(line);
  }
  return writer.commit();
}

std::vector<LogRecord> read_log(std::istream& in) {
  LineReader lines{in};
  std::vector<LogRecord> records;
  const StrictRead result = read_log_strict(
      lines,
      [&records](const RecordView& record) {
        records.push_back(record.to_record());
      });
  if (result.status == StrictRead::Status::kBadHeader)
    throw std::runtime_error("read_log: missing or unexpected header");
  if (result.status == StrictRead::Status::kBadRecord)
    throw std::runtime_error(
        "read_log: line " + std::to_string(result.line_number) + ": " +
        describe_failure(result.diagnosis) + ": " + result.line);
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

bool read_lenient_line(std::string_view line, bool& expect_header,
                       LogReadStats& stats, RecordView& record,
                       std::string& scratch, ParseError* error) {
  if (error != nullptr) *error = ParseError::kNone;
  ++stats.lines;
  line = strip_cr(line);
  if (expect_header) {
    expect_header = false;
    if (line == log_csv_header()) {
      stats.header_present = true;
      return false;
    }
    // Headerless (or header-damaged) log: fall through and try the line
    // as data — a truncated header will be tallied as a skipped line.
  }
  if (line.empty()) {
    ++stats.empty_lines;
    return false;
  }
  ++stats.data_lines;
  const ParseDiagnosis diagnosis = parse_record(line, record, scratch);
  if (diagnosis.error == ParseError::kNone) {
    ++stats.recovered;
    return true;
  }
  const auto reason = static_cast<std::size_t>(diagnosis.error);
  ++stats.skipped[reason];
  if (stats.first_error_line[reason] == 0)
    stats.first_error_line[reason] = stats.lines;
  if (error != nullptr) *error = diagnosis.error;
  return false;
}

LogReadStats read_log_lenient(LineReader& lines, const RecordSink& sink) {
  LogReadStats stats;
  RecordView record;
  std::string scratch;
  std::string_view line;
  bool expect_header = true;
  bool final_line_unterminated = false;
  ParseError last_data_error = ParseError::kNone;
  std::uint64_t last_data_error_line = 0;
  while (lines.next(line)) {
    ParseError error = ParseError::kNone;
    const bool parsed = read_lenient_line(line, expect_header, stats, record,
                                          scratch, &error);
    // A final line without its '\n' is the signature of a torn write.
    final_line_unterminated = !lines.terminated() && !strip_cr(line).empty();
    if (parsed) {
      sink(record);
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
  return stats;
}

LenientLog read_log_lenient(std::istream& in) {
  LenientLog result;
  LineReader lines{in};
  result.stats = read_log_lenient(lines, [&result](const RecordView& record) {
    result.records.push_back(record.to_record());
  });
  return result;
}

}  // namespace syrwatch::proxy
