#include "util/csv.h"

namespace syrwatch::util {

void append_csv_field(std::string& out, std::string_view field) {
  bool needs_quotes = false;
  for (const char c : field) {
    if (c == ',' || c == '"' || c == '\n' || c == '\r') {
      needs_quotes = true;
      break;
    }
  }
  if (!needs_quotes) {
    out.append(field);
    return;
  }
  out.push_back('"');
  for (std::size_t quote; (quote = field.find('"')) != field.npos;) {
    out.append(field.substr(0, quote + 1));
    out.push_back('"');
    field.remove_prefix(quote + 1);
  }
  out.append(field);
  out.push_back('"');
}

std::string csv_escape(std::string_view field) {
  std::string out;
  append_csv_field(out, field);
  return out;
}

std::string csv_join(const std::vector<std::string>& fields) {
  std::string out;
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i != 0) out.push_back(',');
    append_csv_field(out, fields[i]);
  }
  return out;
}

CsvSplit csv_split(std::string_view line, std::span<std::string_view> out,
                   std::string& scratch) {
  // CRLF tail: a carriage return that is genuinely field data always
  // arrives quoted (csv_escape quotes it, so the line would end with '"'),
  // which makes a bare trailing '\r' unambiguously a line-terminator
  // artifact — drop it.
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  scratch.clear();
  scratch.reserve(line.size());  // never reallocates below: views stay valid

  CsvSplit split;
  const std::size_t n = line.size();
  std::size_t i = 0;
  for (;;) {
    std::string_view field;
    if (i < n && line[i] == '"') {
      std::size_t start = ++i;
      std::size_t unescaped = std::string::npos;  // scratch offset, if copied
      for (;;) {
        const std::size_t quote = line.find('"', i);
        if (quote == std::string_view::npos) {
          split.error = CsvError::kUnbalancedQuote;
          return split;
        }
        if (quote + 1 < n && line[quote + 1] == '"') {
          if (unescaped == std::string::npos) unescaped = scratch.size();
          scratch.append(line.data() + start, quote + 1 - start);
          i = start = quote + 2;
          continue;
        }
        if (unescaped == std::string::npos) {
          field = line.substr(start, quote - start);
        } else {
          scratch.append(line.data() + start, quote - start);
          field = std::string_view{scratch}.substr(unescaped);
        }
        i = quote + 1;
        break;
      }
      // Only ',' or end-of-line may follow a closing quote.
      if (i < n && line[i] != ',') {
        split.error = CsvError::kMalformedQuote;
        return split;
      }
    } else {
      const std::size_t start = i;
      while (i < n && line[i] != ',' && line[i] != '"') ++i;
      if (i < n && line[i] == '"') {  // a quote inside an unquoted field
        split.error = CsvError::kMalformedQuote;
        return split;
      }
      field = line.substr(start, i - start);
    }
    if (split.fields < out.size()) out[split.fields] = field;
    ++split.fields;
    if (i >= n) return split;
    ++i;  // past the ','
  }
}

std::vector<std::string> csv_parse(std::string_view line) {
  std::vector<std::string_view> views(line.size() + 1);
  std::string scratch;
  const CsvSplit split = csv_split(line, views, scratch);
  if (split.error == CsvError::kUnbalancedQuote)
    throw CsvParseError(CsvError::kUnbalancedQuote,
                        "csv_parse: unbalanced quote");
  if (split.error == CsvError::kMalformedQuote)
    throw CsvParseError(CsvError::kMalformedQuote,
                        "csv_parse: malformed quote");
  return std::vector<std::string>(
      views.begin(),
      views.begin() + static_cast<std::ptrdiff_t>(split.fields));
}

}  // namespace syrwatch::util
