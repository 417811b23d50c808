// Strict number parsing for the text formats read at the system boundary
// (campaign, sweep, topology and trace files, CLI flags).
//
// A number is accepted only if the *whole* token parses as the target type
// (a finite one, for floating point): "10junk", "1e300" read into an int,
// "nan", "inf" and "" are all rejected, where std::stod / std::stoll /
// operator>> would silently read a prefix and drop the rest. Range checks
// (>= 0, > 0, ...) are the caller's, next to the field they belong to.

#ifndef MIHN_SRC_CORE_READ_NUMBER_H_
#define MIHN_SRC_CORE_READ_NUMBER_H_

#include <charconv>
#include <cmath>
#include <istream>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace mihn::core {

// Parses all of |token| as a T. On failure returns false and leaves |out|
// untouched.
template <typename T>
bool ReadNumber(std::string_view token, T* out) {
  T value{};
  const auto [ptr, ec] = std::from_chars(token.data(), token.data() + token.size(), value);
  if (ec != std::errc() || ptr != token.data() + token.size()) {
    return false;
  }
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) {
      return false;
    }
  }
  *out = value;
  return true;
}

// Consumes one whitespace-separated token from |in| and parses it as above.
template <typename T>
bool ReadNumber(std::istream& in, T* out) {
  std::string token;
  return static_cast<bool>(in >> token) && ReadNumber(std::string_view(token), out);
}

}  // namespace mihn::core

#endif  // MIHN_SRC_CORE_READ_NUMBER_H_
