//===- support/JsonEscape.h - JSON string escaping --------------*- C++ -*-===//
//
// Part of the CRD project (PLDI 2014 "Commutativity Race Detection" repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one JSON string escaper: metrics snapshots (metrics::JsonWriter) and
/// `crd serve` reply lines both render strings through it.
///
//===----------------------------------------------------------------------===//

#ifndef CRD_SUPPORT_JSONESCAPE_H
#define CRD_SUPPORT_JSONESCAPE_H

#include <string>
#include <string_view>

namespace crd {

/// Appends \p S with the JSON string escapes of RFC 8259 (quotes not
/// included): `"` and `\` are backslash-escaped, \n, \r and \t get their
/// short forms, and every other control byte becomes `\u00XX`.
inline void appendJsonEscaped(std::string &Out, std::string_view S) {
  static constexpr char Hex[] = "0123456789abcdef";
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        Out += "\\u00";
        Out.push_back(Hex[(C >> 4) & 0xF]);
        Out.push_back(Hex[C & 0xF]);
      } else {
        Out.push_back(C);
      }
      break;
    }
  }
}

} // namespace crd

#endif // CRD_SUPPORT_JSONESCAPE_H
