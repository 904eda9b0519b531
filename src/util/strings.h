#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace syrwatch::util {

/// ASCII lower-casing (the log fields we match against are ASCII URLs).
std::string to_lower(std::string_view s);

/// Appends `s` lower-cased to `out` — to_lower without the temporary.
void append_lower(std::string& out, std::string_view s);

/// Case-sensitive substring test.
bool contains(std::string_view haystack, std::string_view needle) noexcept;

/// Case-insensitive (ASCII) substring test — Blue Coat keyword rules match
/// URLs case-insensitively.
bool icontains(std::string_view haystack, std::string_view needle) noexcept;

bool starts_with(std::string_view s, std::string_view prefix) noexcept;
bool ends_with(std::string_view s, std::string_view suffix) noexcept;

/// True when `host` equals `domain` or is a subdomain of it
/// (e.g. "www.facebook.com" matches "facebook.com"); the comparison is
/// case-insensitive. `domain` may be a bare TLD suffix like "il" only when
/// passed with a leading dot (".il").
bool host_matches_domain(std::string_view host, std::string_view domain) noexcept;

/// Splits on a single character; keeps empty fields.
std::vector<std::string> split(std::string_view s, char sep);

/// Joins with a separator.
std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// printf-style percentage rendering: "12.34%".
std::string percent(double fraction, int decimals = 2);

/// Human count with thousands separators: 1234567 -> "1,234,567".
std::string with_commas(std::uint64_t value);

/// Compact count: 50,360,000 -> "50.36M"; below 1M renders plain digits.
std::string compact_count(std::uint64_t value);

}  // namespace syrwatch::util
