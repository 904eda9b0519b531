#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
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

/// One decoded log line whose string fields are views: of the line
/// itself, or of the caller's scratch buffer for a quoted field with
/// doubled quotes (see util::csv_split). Valid while both stay unchanged.
/// The zero-copy form of LogRecord that every CSV reader decodes into;
/// analysis::Dataset interns straight from it.
struct RecordView {
  std::int64_t time = 0;
  std::uint8_t proxy_index = 0;
  std::uint64_t user_hash = 0;
  std::string_view user_agent;
  std::string_view method;
  net::Scheme scheme = net::Scheme::kHttp;
  std::string_view host;
  std::uint16_t port = 80;
  std::string_view path;
  std::string_view query;
  std::string_view categories;
  FilterResult filter_result = FilterResult::kObserved;
  ExceptionId exception = ExceptionId::kNone;
  std::uint16_t status = 200;
  std::optional<net::Ipv4Addr> dest_ip;

  RecordView() = default;
  /// Views of `record`'s strings; valid while `record` is unchanged.
  explicit RecordView(const LogRecord& record);
  /// An owning copy.
  LogRecord to_record() const;
};

/// Appends one record's CSV line (no trailing newline) to `out`: the
/// encoder every CSV writer shares. Fields are formatted and escaped in
/// place, so a caller that reuses `out` allocates nothing per record.
/// cs-uri-ext is net::path_extension of the path.
void append_csv(std::string& out, const RecordView& record);

/// append_csv of `record` into a fresh string.
std::string to_csv(const LogRecord& record);

/// Decodes a line produced by append_csv into `record` (views of `line` and
/// `scratch`). Rejects wrong column counts, bad enums, bad timestamps and
/// out-of-range civil date fields; the diagnosis names the reason (kNone
/// when `record` holds the line). Quoting errors are reported left to
/// right, before the column count is checked. One trailing '\r' is
/// stripped, as util::csv_split does.
ParseDiagnosis parse_record(std::string_view line, RecordView& record,
                            std::string& scratch);

/// parse_record into an owned LogRecord. Returns nullopt on malformed
/// input, filling `diagnosis` (when given) with the reason.
std::optional<LogRecord> from_csv(const std::string& line,
                                  ParseDiagnosis* diagnosis = nullptr);

/// Receives each record a read loop decodes; the view is valid only for
/// the duration of the call.
using RecordSink = std::function<void(const RecordView&)>;

/// The chunked line splitter every whole-log CSV reader shares. Reads its
/// input kChunkBytes at a time and hands out each line, without its '\n',
/// as a view into its buffer; a line that spans two chunks is carried to
/// the front of the buffer, and one longer than the buffer grows it.
/// Chunks rather than a whole-file mapping keep a load's peak memory at
/// the decoded dataset's size.
class LineReader {
 public:
  static constexpr std::size_t kChunkBytes = std::size_t{1} << 20;

  /// Reads `in` up to `limit` bytes (all of it by default).
  explicit LineReader(std::istream& in,
                      std::uint64_t limit = ~std::uint64_t{0});

  /// The next line; the view is valid until the next call. False at the
  /// end of the input or of the limit.
  bool next(std::string_view& line);

  /// False only when the last line returned was the input's final bytes
  /// and lacked a '\n' — the signature of a torn write.
  bool terminated() const noexcept { return terminated_; }
  /// 1-based number of the last line returned.
  std::uint64_t line_number() const noexcept { return line_number_; }
  /// Bytes consumed through the last line returned, '\n' included.
  std::uint64_t consumed() const noexcept { return consumed_; }
  /// The stream reported a read error (not just its end).
  bool failed() const;

 private:
  void fill();

  std::istream& in_;
  std::uint64_t limit_;
  std::string buffer_;
  std::size_t begin_ = 0;  // first unreturned byte in buffer_
  std::size_t end_ = 0;    // end of the bytes read into buffer_
  bool eof_ = false;
  bool terminated_ = true;
  std::uint64_t line_number_ = 0;
  std::uint64_t consumed_ = 0;
};

/// Where read_log_strict stopped.
struct StrictRead {
  enum class Status : std::uint8_t { kOk, kBadHeader, kBadRecord };
  Status status = Status::kOk;
  std::uint64_t records = 0;      // delivered to the sink
  std::uint64_t line_number = 0;  // of the failing line; 0 = no line at all
  ParseDiagnosis diagnosis;       // of the failing record line
  std::string line;               // its text, one '\r' stripped
};

/// The strict read loop: strips one trailing '\r' from each line, requires
/// the first to be log_csv_header(), skips empty lines, and hands every
/// other line's record to `sink`. Stops at the first failure, which each
/// caller words as its own refusal.
StrictRead read_log_strict(LineReader& lines, const RecordSink& sink);

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
/// malformed lines, and returns true when `record` holds the record a data
/// line decoded to (views of `line` and `scratch`). `error` (when given)
/// receives the skip reason of a malformed data line and kNone otherwise.
/// read_log_lenient and analysis::SpoolTail both read through it, so a
/// damaged log degrades identically offline and online.
bool read_lenient_line(std::string_view line, bool& expect_header,
                       LogReadStats& stats, RecordView& record,
                       std::string& scratch, ParseError* error = nullptr);

/// Damage-tolerant reader for leak-grade logs: never throws on malformed
/// input. A wrong or missing header is recorded (not fatal) and the first
/// line is then re-tried as data; every malformed row is skipped and
/// tallied by reason in the returned stats. Intact rows always survive
/// and go to `sink`.
LogReadStats read_log_lenient(LineReader& lines, const RecordSink& sink);

/// read_log_lenient into owned records.
LenientLog read_log_lenient(std::istream& in);

}  // namespace syrwatch::proxy
