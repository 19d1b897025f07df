//===- trace/Action.cpp - Method invocations ------------------------------===//
//
// Part of the CRD project (PLDI 2014 "Commutativity Race Detection" repro).
//
//===----------------------------------------------------------------------===//

#include "trace/Action.h"

#include "support/TextRender.h"

using namespace crd;

std::vector<Value> Action::values() const {
  return std::vector<Value>(Vals, Vals + numValues());
}

std::string Action::toString() const { return text::toString(*this); }

size_t Action::textBound() const {
  // 'o' + object index + '.' + method + "()" + ", " between arguments +
  // '/' before each return.
  size_t N = 4 + text::MaxU32Chars + Method.str().size() + 2 * size_t(NArgs) +
             NRets;
  for (const Value &V : flatValues())
    N += V.textBound();
  return N;
}

char *Action::renderText(char *Out) const {
  *Out++ = 'o';
  Out = text::putUint(Out, Obj.index());
  *Out++ = '.';
  Out = text::put(Out, Method.str());
  *Out++ = '(';
  for (uint32_t I = 0; I != NArgs; ++I) {
    if (I != 0)
      Out = text::put(Out, ", ");
    Out = Vals[I].renderText(Out);
  }
  *Out++ = ')';
  for (const Value &Ret : rets()) {
    *Out++ = '/';
    Out = Ret.renderText(Out);
  }
  return Out;
}

std::ostream &crd::operator<<(std::ostream &OS, const Action &A) {
  return text::write(OS, A);
}
