// Whole-token number parsing for untrusted text inputs (topology files,
// GDDR_FAULTS specs).
#pragma once

#include <charconv>
#include <string_view>
#include <system_error>

namespace gddr::util {

// Parses all of `token` as a T with std::from_chars: no leading
// whitespace, no '+', nothing left over.  A floating-point T also accepts
// "inf" and "nan"; callers range-check the value.  False on any failure,
// out-of-range values included.
template <class T>
bool parse_number(std::string_view token, T& out) {
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, out);
  return ec == std::errc() && ptr == end;
}

}  // namespace gddr::util
