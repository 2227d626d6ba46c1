#ifndef RFIDCLEAN_COMMON_STRINGS_H_
#define RFIDCLEAN_COMMON_STRINGS_H_

#include <string>
#include <string_view>
#include <vector>

namespace rfidclean {

/// Splits `text` on `sep`, keeping empty fields.
std::vector<std::string> StrSplit(std::string_view text, char sep);

/// Joins `parts` with `sep` between consecutive elements.
std::string StrJoin(const std::vector<std::string>& parts,
                    std::string_view sep);

/// Removes leading and trailing ASCII whitespace.
std::string_view StripWhitespace(std::string_view text);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Escapes `text` for the inside of a JSON string literal: quotes,
/// backslashes, \n, \r and \t by name, other control bytes as \u00XX.
/// Every other byte, UTF-8 sequences included, passes through unchanged.
std::string JsonEscape(std::string_view text);

/// Formats a byte count as "640.0 KiB", "25.1 MiB", ...
std::string HumanBytes(std::size_t bytes);

}  // namespace rfidclean

#endif  // RFIDCLEAN_COMMON_STRINGS_H_
