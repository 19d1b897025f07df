//===- detect/Summary.cpp - race report summarization --------------------------===//
//
// Part of the CRD project (PLDI 2014 "Commutativity Race Detection" repro).
//
//===----------------------------------------------------------------------===//

#include "detect/Summary.h"

#include <algorithm>
#include <ostream>
#include <sstream>
#include <unordered_map>

using namespace crd;

RaceSummary RaceSummary::build(const std::vector<CommutativityRace> &Races) {
  RaceSummary Summary;
  Summary.Total = Races.size();

  std::unordered_map<ObjectId, size_t> GroupOf;
  for (const CommutativityRace &R : Races) {
    ObjectId Obj = R.Current.object();
    auto [It, Inserted] = GroupOf.try_emplace(Obj, Summary.Groups.size());
    if (Inserted) {
      ObjectGroup G;
      G.Obj = Obj;
      G.FirstEvent = R.EventIndex;
      G.FirstAction = R.Current;
      Summary.Groups.push_back(std::move(G));
    }
    ObjectGroup &G = Summary.Groups[It->second];
    ++G.Count;
    ++G.ByPoint[std::string(R.PointName.str())];
    ++G.ByMethod[std::string(R.Current.method().str())];
    if (R.EventIndex < G.FirstEvent) {
      G.FirstEvent = R.EventIndex;
      G.FirstAction = R.Current;
    }
  }

  std::stable_sort(Summary.Groups.begin(), Summary.Groups.end(),
                   [](const ObjectGroup &A, const ObjectGroup &B) {
                     return A.Count > B.Count;
                   });
  return Summary;
}

void RaceSummary::print(std::ostream &OS) const {
  OS << Total << " commutativity race report(s) on " << Groups.size()
     << " object(s)\n";
  for (const ObjectGroup &G : Groups) {
    OS << "  o" << G.Obj.index() << ": " << G.Count
       << " report(s), first at event " << G.FirstEvent << " ("
       << G.FirstAction << ")\n";
    OS << "    by access point:";
    for (const auto &[Point, Count] : G.ByPoint)
      OS << "  " << Point << " x" << Count;
    OS << "\n    by method:";
    for (const auto &[Method, Count] : G.ByMethod)
      OS << "  " << Method << " x" << Count;
    OS << '\n';
  }
}

std::string RaceSummary::toString() const {
  std::ostringstream OS;
  print(OS);
  return OS.str();
}
