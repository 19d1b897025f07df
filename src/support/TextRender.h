//===- support/TextRender.h - Two-pass text rendering -----------*- C++ -*-===//
//
// Part of the CRD project (PLDI 2014 "Commutativity Race Detection" repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One rendering path for the report types (Value, Action, VectorClock,
/// race records). A printable type provides
///
///   size_t textBound() const;          // upper bound of the bytes rendered
///   char *renderText(char *Out) const; // writes at Out, returns the end
///
/// so a caller sizes a buffer once and the renderer writes through a raw
/// pointer: integers go through std::to_chars, text through memcpy, and
/// no locale-aware stream insertion runs per field. The ostream printers
/// and toString() of those types are thin wrappers over the helpers below.
///
//===----------------------------------------------------------------------===//

#ifndef CRD_SUPPORT_TEXTRENDER_H
#define CRD_SUPPORT_TEXTRENDER_H

#include <charconv>
#include <cstdint>
#include <cstring>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>

namespace crd {
namespace text {

/// Characters std::to_chars writes at most for a uint32_t / a 64-bit
/// integer (INT64_MIN and UINT64_MAX both take 20).
inline constexpr size_t MaxU32Chars = 10;
inline constexpr size_t Max64Chars = 20;

inline char *put(char *Out, std::string_view S) {
  std::memcpy(Out, S.data(), S.size());
  return Out + S.size();
}

inline char *putUint(char *Out, uint64_t V) {
  return std::to_chars(Out, Out + Max64Chars, V).ptr;
}

inline char *putInt(char *Out, int64_t V) {
  return std::to_chars(Out, Out + Max64Chars, V).ptr;
}

/// Appends \p V's rendering to \p Out: one resize to the bound, raw
/// writes, one truncation.
template <typename T> void append(std::string &Out, const T &V) {
  size_t Old = Out.size();
  Out.resize(Old + V.textBound());
  Out.resize(static_cast<size_t>(V.renderText(Out.data() + Old) - Out.data()));
}

/// \p V's rendering as a fresh string.
template <typename T> std::string toString(const T &V) {
  std::string S;
  append(S, V);
  return S;
}

/// Writes \p V's rendering to \p OS with a single write(), from a stack
/// buffer unless the bound exceeds it (a race report with two 17-wide
/// clocks is bounded at about 620 bytes).
template <typename T> std::ostream &write(std::ostream &OS, const T &V) {
  char Small[2048];
  size_t Bound = V.textBound();
  std::unique_ptr<char[]> Big;
  char *Buf = Small;
  if (Bound > sizeof(Small)) {
    Big = std::make_unique_for_overwrite<char[]>(Bound);
    Buf = Big.get();
  }
  return OS.write(Buf, V.renderText(Buf) - Buf);
}

} // namespace text
} // namespace crd

#endif // CRD_SUPPORT_TEXTRENDER_H
