#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace syrwatch::util {

/// RFC-4180-style CSV encoding used by the log writer/reader. The leaked
/// Blue Coat logs were comma-separated; fields containing commas, quotes or
/// newlines are quoted, quotes are doubled.

/// Appends `field` to `out`, quoted when it holds a comma, quote, CR or
/// LF, with its quotes doubled — in place, without a temporary string.
void append_csv_field(std::string& out, std::string_view field);

/// append_csv_field into a fresh string.
std::string csv_escape(std::string_view field);

/// Joins fields into one CSV line (no trailing newline).
std::string csv_join(const std::vector<std::string>& fields);

/// Why csv_parse rejected a line.
enum class CsvError : std::uint8_t {
  /// A quoted field was never closed ("truncated) — the signature of a
  /// line cut mid-field.
  kUnbalancedQuote,
  /// Structurally broken quoting on an otherwise complete line: bytes
  /// after a closing quote ("ab"x) or a bare quote inside an unquoted
  /// field (a"b). RFC 4180 forbids both; silently gluing the pieces
  /// together ("ab"x → abx) would let damaged fields masquerade as clean
  /// data.
  kMalformedQuote,
};

/// csv_parse's failure exception: still an std::invalid_argument (existing
/// catch sites keep working) but carrying the CsvError so callers can tally
/// damage by kind (proxy::read_log_lenient does).
class CsvParseError : public std::invalid_argument {
 public:
  CsvParseError(CsvError kind, const std::string& what)
      : std::invalid_argument(what), kind_(kind) {}
  CsvError kind() const noexcept { return kind_; }

 private:
  CsvError kind_;
};

/// What csv_split found on a line.
struct CsvSplit {
  /// Fields on the line — all of them, also those past the output span.
  /// Meaningless when `error` is set.
  std::size_t fields = 0;
  /// The first quoting error, scanning left to right; none on success.
  std::optional<CsvError> error;
};

/// Splits one CSV line into views without copying: an unquoted field is a
/// view of `line`, and so is a quoted one without a doubled quote; a quoted
/// field with doubled quotes is unescaped into `scratch`, which csv_split
/// clears and reserves to line.size(), so the views stay valid until
/// `scratch` is next modified. Strips one trailing '\r' (externally produced
/// logs are routinely CRLF-terminated, and a genuine field CR always
/// arrives quoted). Stores the first out.size() fields and counts the rest.
/// An unbalanced quote, bytes after a closing quote ("ab"x) or a bare
/// quote inside an unquoted field (a"b) end the split with an error.
CsvSplit csv_split(std::string_view line, std::span<std::string_view> out,
                   std::string& scratch);

/// csv_split into owned strings. Throws CsvParseError where csv_split
/// reports an error.
std::vector<std::string> csv_parse(std::string_view line);

}  // namespace syrwatch::util
