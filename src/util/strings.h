// Small string helpers shared across modules.

#ifndef GQOPT_UTIL_STRINGS_H_
#define GQOPT_UTIL_STRINGS_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace gqopt {

/// Splits `text` on `sep`, trimming nothing; empty pieces are kept.
std::vector<std::string> Split(std::string_view text, char sep);

/// Removes leading/trailing ASCII whitespace.
std::string_view StripWhitespace(std::string_view text);

/// Joins `parts` with `sep` between consecutive elements.
std::string Join(const std::vector<std::string>& parts,
                 std::string_view sep);

/// True when `text` begins with `prefix`.
bool StartsWith(std::string_view text, std::string_view prefix);

/// True when `name` is a valid identifier ([A-Za-z_][A-Za-z0-9_]*).
bool IsIdentifier(std::string_view name);

/// "<prefix><i>", e.g. Numbered("e", 3) == "e3".
std::string Numbered(std::string_view prefix, size_t i);

}  // namespace gqopt

#endif  // GQOPT_UTIL_STRINGS_H_
