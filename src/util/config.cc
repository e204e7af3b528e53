#include "util/config.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdlib>
#include <limits>
#include <stdexcept>

namespace ctflash::util {

std::string Trim(const std::string& s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::string ToLower(const std::string& s) {
  std::string out = s;
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return out;
}

std::uint64_t ParseByteSize(const std::string& text) {
  const std::string t = Trim(text);
  if (t.empty()) throw std::invalid_argument("ParseByteSize: empty string");
  std::size_t pos = 0;
  std::size_t digits = 0;
  bool fractional = false;
  for (; pos < t.size(); ++pos) {
    if (std::isdigit(static_cast<unsigned char>(t[pos]))) {
      ++digits;
    } else if (t[pos] == '.') {
      if (fractional) {
        throw std::invalid_argument("ParseByteSize: more than one '.' in '" + t + "'");
      }
      fractional = true;
    } else {
      break;
    }
  }
  if (digits == 0) throw std::invalid_argument("ParseByteSize: no digits in '" + t + "'");
  std::string suffix = ToLower(Trim(t.substr(pos)));
  // Strip optional "ib"/"b".
  if (suffix.size() >= 2 && suffix.substr(suffix.size() - 2) == "ib") {
    suffix = suffix.substr(0, suffix.size() - 2);
  } else if (!suffix.empty() && suffix.back() == 'b') {
    suffix = suffix.substr(0, suffix.size() - 1);
  }
  int shift = 0;
  if (suffix == "k") {
    shift = 10;
  } else if (suffix == "m") {
    shift = 20;
  } else if (suffix == "g") {
    shift = 30;
  } else if (suffix == "t") {
    shift = 40;
  } else if (!suffix.empty()) {
    throw std::invalid_argument("ParseByteSize: bad suffix in '" + t + "'");
  }
  const auto too_large = [&t] {
    return std::invalid_argument("ParseByteSize: '" + t +
                                 "' is 2^64 bytes or more");
  };
  if (!fractional) {
    std::uint64_t value = 0;
    if (std::from_chars(t.data(), t.data() + pos, value).ec != std::errc{} ||
        value > (std::numeric_limits<std::uint64_t>::max() >> shift)) {
      throw too_large();
    }
    return value << shift;
  }
  const double bytes = std::strtod(t.substr(0, pos).c_str(), nullptr) *
                       static_cast<double>(std::uint64_t{1} << shift);
  // 2^64; the comparison also rejects the infinity strtod returns on
  // overflow.
  if (!(bytes < 18446744073709551616.0)) throw too_large();
  return static_cast<std::uint64_t>(bytes);
}

}  // namespace ctflash::util
