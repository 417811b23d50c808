// Deterministic JSON scalar formatting, shared by every report writer.
//
// Chaos reports, Chrome traces and fleet digests are byte contracts: the
// same run must produce the same bytes on every machine and at any worker
// count. Every number therefore goes through one fixed, locale-independent
// format ("%.9g" round-trips the counts, rates and stamps recorded), every
// integer through "%lld", and strings are escaped the same way everywhere.

#ifndef MIHN_SRC_CORE_JSON_H_
#define MIHN_SRC_CORE_JSON_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

namespace mihn::core::json {

inline std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return std::string(buf);
}

inline std::string Int(int64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  return std::string(buf);
}

// Escapes '"', '\\' and '\n'; every other byte passes through.
inline std::string Escape(std::string_view s) {
  std::string out;
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

// Trace events carry C-string names that may be null; null escapes as "".
inline std::string Escape(const char* s) {
  return Escape(s != nullptr ? std::string_view(s) : std::string_view());
}

// Built with += rather than an operator+ chain: GCC 12 emits a spurious
// -Wrestrict on the chained form when Escape is inlined (PR 105651).
inline std::string Str(std::string_view s) {
  std::string out = "\"";
  out += Escape(s);
  out += '"';
  return out;
}

}  // namespace mihn::core::json

#endif  // MIHN_SRC_CORE_JSON_H_
