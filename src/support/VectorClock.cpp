//===- support/VectorClock.cpp - Vector clocks ----------------------------===//
//
// Part of the CRD project (PLDI 2014 "Commutativity Race Detection" repro).
//
//===----------------------------------------------------------------------===//

#include "support/VectorClock.h"

#include "support/TextRender.h"

using namespace crd;

void VectorClock::normalize() {
  while (!Components.empty() && Components.back() == 0)
    Components.pop_back();
}

void VectorClock::set(ThreadId Thread, uint32_t Time) {
  if (Thread.index() >= Components.size()) {
    if (Time == 0)
      return;
    Components.resize(Thread.index() + 1);
  }
  Components[Thread.index()] = Time;
  normalize();
}

void VectorClock::increment(ThreadId Thread) {
  if (Thread.index() >= Components.size())
    Components.resize(Thread.index() + 1);
  ++Components[Thread.index()];
}

VectorClock VectorClock::join(const VectorClock &A, const VectorClock &B) {
  VectorClock Result = A;
  Result.joinWith(B);
  return Result;
}

std::string VectorClock::toString() const { return text::toString(*this); }

char *VectorClock::renderComponents(char *Out, const uint32_t *C, size_t N) {
  *Out++ = '<';
  for (size_t I = 0; I != N; ++I) {
    if (I != 0)
      *Out++ = ',';
    Out = text::putUint(Out, C[I]);
  }
  *Out++ = '>';
  return Out;
}

std::ostream &crd::operator<<(std::ostream &OS, const VectorClock &VC) {
  return text::write(OS, VC);
}
