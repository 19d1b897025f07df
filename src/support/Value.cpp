//===- support/Value.cpp - Action argument/return value domain ------------===//
//
// Part of the CRD project (PLDI 2014 "Commutativity Race Detection" repro).
//
//===----------------------------------------------------------------------===//

#include "support/Value.h"

#include "support/TextRender.h"

using namespace crd;

std::string Value::toString() const { return text::toString(*this); }

size_t Value::textBound() const {
  switch (TheKind) {
  case Kind::Nil:
    return 3;
  case Kind::Bool:
    return 5;
  case Kind::Int:
    return text::Max64Chars;
  case Kind::Str:
    // Quotes, plus at worst one escape per character.
    return 2 + 2 * Sym.str().size();
  }
  return 0;
}

char *Value::renderText(char *Out) const {
  switch (TheKind) {
  case Kind::Nil:
    return text::put(Out, "nil");
  case Kind::Bool:
    return text::put(Out, Int != 0 ? "true" : "false");
  case Kind::Int:
    return text::putInt(Out, Int);
  case Kind::Str:
    // Escape exactly what the trace lexer unescapes, so printed values
    // re-parse to the same symbol.
    *Out++ = '"';
    for (char C : Sym.str()) {
      switch (C) {
      case '\n':
        Out = text::put(Out, "\\n");
        break;
      case '\t':
        Out = text::put(Out, "\\t");
        break;
      case '"':
        Out = text::put(Out, "\\\"");
        break;
      case '\\':
        Out = text::put(Out, "\\\\");
        break;
      default:
        *Out++ = C;
      }
    }
    *Out++ = '"';
    return Out;
  }
  return Out;
}

std::ostream &crd::operator<<(std::ostream &OS, const Value &V) {
  return text::write(OS, V);
}
