//===- support/Value.h - Action argument/return value domain ----*- C++ -*-===//
//
// Part of the CRD project (PLDI 2014 "Commutativity Race Detection" repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The value domain U over which action arguments, return values and
/// specification variables range (paper §3.1, §6.1). The domain contains a
/// distinguished no-value `nil` (used, e.g., by dictionary specifications to
/// express "key was absent"), booleans, 64-bit integers and interned strings.
///
//===----------------------------------------------------------------------===//

#ifndef CRD_SUPPORT_VALUE_H
#define CRD_SUPPORT_VALUE_H

#include "support/Hashing.h"
#include "support/Symbol.h"

#include <cassert>
#include <cstdint>
#include <iosfwd>
#include <string>

namespace crd {

/// A concrete value from the domain U: nil, bool, int64 or interned string.
///
/// Values are small (16 bytes), trivially copyable, totally ordered (by kind,
/// then payload) and hashable. The total order is only used to make container
/// iteration deterministic; specifications compare values with sameValue()
/// and the ordered predicates below.
class Value {
public:
  enum class Kind : uint8_t { Nil, Bool, Int, Str };

  /// Constructs nil.
  constexpr Value() : TheKind(Kind::Nil), Int(0) {}

  static constexpr Value nil() { return Value(); }
  static constexpr Value boolean(bool B) {
    Value V;
    V.TheKind = Kind::Bool;
    V.Int = B ? 1 : 0;
    return V;
  }
  static constexpr Value integer(int64_t I) {
    Value V;
    V.TheKind = Kind::Int;
    V.Int = I;
    return V;
  }
  static Value string(Symbol Sym) {
    Value V;
    V.TheKind = Kind::Str;
    V.Sym = Sym;
    return V;
  }
  /// Interns \p Text into the process-wide symbol table.
  static Value string(std::string_view Text) { return string(symbol(Text)); }

  Kind kind() const { return TheKind; }
  bool isNil() const { return TheKind == Kind::Nil; }

  bool asBool() const {
    assert(TheKind == Kind::Bool && "value is not a bool");
    return Int != 0;
  }
  int64_t asInt() const {
    assert(TheKind == Kind::Int && "value is not an int");
    return Int;
  }
  Symbol asSymbol() const {
    assert(TheKind == Kind::Str && "value is not a string");
    return Sym;
  }

  friend bool operator==(const Value &A, const Value &B) {
    if (A.TheKind != B.TheKind)
      return false;
    switch (A.TheKind) {
    case Kind::Nil:
      return true;
    case Kind::Bool:
    case Kind::Int:
      return A.Int == B.Int;
    case Kind::Str:
      return A.Sym == B.Sym;
    }
    return false;
  }
  friend bool operator!=(const Value &A, const Value &B) { return !(A == B); }

  /// Deterministic total order: by kind, then payload.
  friend bool operator<(const Value &A, const Value &B) {
    if (A.TheKind != B.TheKind)
      return A.TheKind < B.TheKind;
    switch (A.TheKind) {
    case Kind::Nil:
      return false;
    case Kind::Bool:
    case Kind::Int:
      return A.Int < B.Int;
    case Kind::Str:
      return A.Sym < B.Sym;
    }
    return false;
  }

  /// True when both values are integers and A's payload is less than B's.
  /// Ordered atomic predicates in LB formulas (x < y, ...) are only defined
  /// on integers; comparing other kinds yields false.
  static bool intLess(const Value &A, const Value &B) {
    return A.TheKind == Kind::Int && B.TheKind == Kind::Int && A.Int < B.Int;
  }

  size_t hash() const {
    return hashCombine(static_cast<size_t>(TheKind),
                       TheKind == Kind::Str ? Sym.index()
                                            : static_cast<size_t>(Int));
  }

  /// Renders the value as it appears in trace files: `nil`, `true`, `42`,
  /// `"a.com"`.
  std::string toString() const;

  /// Upper bound of the bytes renderText() writes (support/TextRender.h).
  size_t textBound() const;
  /// Writes toString()'s text at \p Out, which has room for textBound()
  /// bytes; returns the end. Strings are quoted and escaped here, and only
  /// here, exactly as the trace lexer unescapes them.
  char *renderText(char *Out) const;

private:
  Kind TheKind;
  union {
    int64_t Int;
    Symbol Sym;
  };
};

std::ostream &operator<<(std::ostream &OS, const Value &V);

} // namespace crd

namespace std {
template <> struct hash<crd::Value> {
  size_t operator()(const crd::Value &V) const noexcept { return V.hash(); }
};
} // namespace std

#endif // CRD_SUPPORT_VALUE_H
