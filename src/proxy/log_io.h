#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "proxy/log_record.h"
#include "util/atomic_io.h"

namespace syrwatch::proxy {

/// CSV serialization of log records in the leak's style: one line per
/// request, comma-separated, '-' for empty fields. The column set is the
/// analysis-relevant subset of the 26 Blue Coat fields (Table 2), in a
/// fixed order given by `log_csv_header()`.

/// "date,time,s-ip,c-ip,cs-method,cs-host,..." header line.
std::string log_csv_header();

/// Renders one record as a CSV line (no trailing newline).
std::string to_csv(const LogRecord& record);

/// Why a line failed to parse. kNone means it parsed.
enum class ParseError : std::uint8_t {
  kNone = 0,
  kUnbalancedQuote,  // CSV-level damage: quote never closed
  kColumnCount,      // wrong number of fields
  kBadTimestamp,     // date/time malformed or out of civil range
  kBadAddress,       // s-ip not one of the seven proxy addresses
  kBadField,         // any other field failed validation
  kMalformedQuote,   // CSV-level damage: broken quoting ("ab"x, a"b)
};

inline constexpr std::size_t kParseErrorCount = 7;

std::string_view to_string(ParseError error) noexcept;

/// Per-field detail of a parse failure, for error messages and LogReadStats.
struct ParseDiagnosis {
  ParseError error = ParseError::kNone;
  /// Actual column count when the line at least split into fields
  /// (meaningful for kColumnCount and later stages); 0 otherwise.
  std::size_t columns = 0;
};

/// Parses a line produced by to_csv. Returns nullopt on malformed input
/// (wrong column count, bad enums, bad timestamp, out-of-range civil date
/// fields), filling `diagnosis` (when given) with the reason.
std::optional<LogRecord> from_csv(const std::string& line,
                                  ParseDiagnosis* diagnosis = nullptr);

/// Writes header + all records, then flushes. Throws std::runtime_error
/// when the stream reports a write/flush failure — a full disk must not
/// yield a silently truncated, parseable-looking log.
void write_log(std::ostream& out, const std::vector<LogRecord>& records);

/// write_log to `path` through util::atomic_write_file: the file appears
/// complete or not at all (temp → flush → rename). Returns the committed
/// artifact's size + CRC32 for manifest bookkeeping; throws on any I/O
/// failure.
util::ArtifactInfo write_log_file(const std::string& path,
                                  const std::vector<LogRecord>& records);

/// Reads a stream written by write_log. Throws std::runtime_error on a
/// malformed header or row; the message names the 1-based line number, the
/// failure reason, and (for column-count mismatches) the actual count.
std::vector<LogRecord> read_log(std::istream& in);

/// What read_log_lenient saw: every skipped line accounted for by reason,
/// with the first offending line number per reason for fast triage.
struct LogReadStats {
  std::uint64_t lines = 0;       // lines read, including header and blanks
  std::uint64_t data_lines = 0;  // non-empty candidate record lines
  std::uint64_t recovered = 0;   // data lines that parsed
  std::uint64_t empty_lines = 0;
  bool header_present = false;  // first line matched log_csv_header()
  /// The file looks torn at the end: its final line lacks a newline, or
  /// the last data line was skipped for a short column count. Writers in
  /// this codebase always end with a newline, so either is the signature
  /// of a crash- or disk-full-truncated artifact; analyses consuming this
  /// log should surface the flag (analysis::request_coverage does).
  bool truncated_tail = false;
  /// Skip counts indexed by ParseError (slot 0, kNone, stays zero).
  std::array<std::uint64_t, kParseErrorCount> skipped{};
  /// 1-based stream line number of the first skip per reason; 0 = never.
  std::array<std::uint64_t, kParseErrorCount> first_error_line{};

  std::uint64_t skipped_total() const noexcept;
  /// Every data line is either recovered or skipped for exactly one reason.
  bool consistent() const noexcept {
    return recovered + skipped_total() == data_lines;
  }
  /// Human-readable multi-line rendering (the `inspect` subcommand's view).
  std::string summary() const;
};

struct LenientLog {
  std::vector<LogRecord> records;
  LogReadStats stats;
};

/// One line of the lenient reader: strips a trailing '\r', counts the line
/// in `stats`, accepts the header when `expect_header` is set (clearing
/// it; a non-header first line is re-tried as data), tallies empty and
/// malformed lines, and returns the record a data line parsed to.
/// `error` (when given) receives the skip reason of a malformed data line
/// and kNone otherwise. read_log_lenient and analysis::SpoolTail both read
/// through it, so a damaged log degrades identically offline and online.
std::optional<LogRecord> read_lenient_line(std::string& line,
                                           bool& expect_header,
                                           LogReadStats& stats,
                                           ParseError* error = nullptr);

/// Damage-tolerant reader for leak-grade logs: never throws on malformed
/// input. A wrong or missing header is recorded (not fatal) and the first
/// line is then re-tried as data; every malformed row is skipped and
/// tallied by reason in `stats`. Intact rows always survive.
LenientLog read_log_lenient(std::istream& in);

}  // namespace syrwatch::proxy
