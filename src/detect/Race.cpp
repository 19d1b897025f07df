//===- detect/Race.cpp - Race reports ---------------------------------------===//
//
// Part of the CRD project (PLDI 2014 "Commutativity Race Detection" repro).
//
//===----------------------------------------------------------------------===//

#include "detect/Race.h"

#include "support/TextRender.h"

#include <algorithm>

using namespace crd;

RaceClock::RaceClock(const VectorClock &C)
    : Size(static_cast<uint32_t>(C.size())) {
  if (Size == 0)
    return;
  std::shared_ptr<uint32_t[]> Copy =
      std::make_shared_for_overwrite<uint32_t[]>(Size);
  std::copy(C.data(), C.data() + Size, Copy.get());
  Comps = std::move(Copy);
}

bool RaceClock::isSnapshotOf(const VectorClock &C) const {
  return Comps && C.size() == Size &&
         std::equal(C.data(), C.data() + Size, Comps.get());
}

VectorClock RaceClock::toClock() const {
  VectorClock C;
  for (uint32_t I = 0; I != Size; ++I)
    C.set(ThreadId(I), (*this)[I]);
  return C;
}

char *RaceClock::renderText(char *Out) const {
  if (Comps)
    return VectorClock::renderComponents(Out, Comps.get(), Size);
  *Out++ = '<';
  for (uint32_t I = 1; I < Size; ++I)
    Out = text::put(Out, "0,");
  if (Size != 0)
    Out = text::putUint(Out, Time);
  *Out++ = '>';
  return Out;
}

namespace {
// The fixed text of a report line.
constexpr std::string_view RaceAtText = "commutativity race at event ";
constexpr std::string_view PerformsText = " performs ";
constexpr std::string_view ConflictingOnText = " conflicting on ";
constexpr std::string_view PriorText = " (prior ";
constexpr std::string_view CurrentText = " || current ";
} // namespace

std::string CommutativityRace::toString() const {
  return text::toString(*this);
}

size_t CommutativityRace::textBound() const {
  // The 3 and 1 fixed bytes are ": T" and the closing ')'.
  return RaceAtText.size() + text::Max64Chars + 3 + text::MaxU32Chars +
         PerformsText.size() + Current.textBound() + ConflictingOnText.size() +
         PointName.str().size() + PriorText.size() + PriorClock.textBound() +
         CurrentText.size() + CurrentClock.textBound() + 1;
}

char *CommutativityRace::renderText(char *Out) const {
  Out = text::put(Out, RaceAtText);
  Out = text::putUint(Out, EventIndex);
  Out = text::put(Out, ": T");
  Out = text::putUint(Out, Thread.index());
  Out = text::put(Out, PerformsText);
  Out = Current.renderText(Out);
  Out = text::put(Out, ConflictingOnText);
  Out = text::put(Out, PointName.str());
  Out = text::put(Out, PriorText);
  Out = PriorClock.renderText(Out);
  Out = text::put(Out, CurrentText);
  Out = CurrentClock.renderText(Out);
  *Out++ = ')';
  return Out;
}

std::ostream &crd::operator<<(std::ostream &OS, const CommutativityRace &R) {
  return text::write(OS, R);
}

static std::string_view kindName(MemoryRace::Kind K) {
  switch (K) {
  case MemoryRace::Kind::WriteWrite:
    return "write-write";
  case MemoryRace::Kind::WriteRead:
    return "write-read";
  case MemoryRace::Kind::ReadWrite:
    return "read-write";
  }
  return "race";
}

std::string MemoryRace::toString() const { return text::toString(*this); }

size_t MemoryRace::textBound() const {
  // 36 fixed bytes: " race at event ", " on V", " between T", " and T".
  return kindName(Access).size() + 36 + text::Max64Chars +
         3 * text::MaxU32Chars;
}

char *MemoryRace::renderText(char *Out) const {
  Out = text::put(Out, kindName(Access));
  Out = text::put(Out, " race at event ");
  Out = text::putUint(Out, EventIndex);
  Out = text::put(Out, " on V");
  Out = text::putUint(Out, Var.index());
  Out = text::put(Out, " between T");
  Out = text::putUint(Out, PriorThread.index());
  Out = text::put(Out, " and T");
  Out = text::putUint(Out, CurrentThread.index());
  return Out;
}

std::ostream &crd::operator<<(std::ostream &OS, const MemoryRace &R) {
  return text::write(OS, R);
}
