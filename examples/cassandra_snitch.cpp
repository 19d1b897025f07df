//===- examples/cassandra_snitch.cpp - DynamicEndpointSnitch race -------------===//
//
// Part of the CRD project (PLDI 2014 "Commutativity Race Detection" repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reproduces §7's Cassandra finding: new latency samples are added to the
/// `samples` ConcurrentHashMap while its size is concurrently used as a
/// performance hint during rank recalculation. Also runs FastTrack over
/// the same execution to contrast low-level and commutativity reports.
///
/// Build & run:  ./cassandra_snitch [updaters] [timings-per-updater]
///
//===----------------------------------------------------------------------===//

#include "detect/CommutativityDetector.h"
#include "detect/FastTrack.h"
#include "spec/Builtins.h"
#include "translate/Translator.h"
#include "workloads/Snitch.h"

#include <cstdlib>
#include <iostream>

using namespace crd;

int main(int Argc, char **Argv) {
  SnitchConfig Config;
  Config.UpdaterThreads = Argc > 1 ? std::atoi(Argv[1]) : 4;
  Config.TimingsPerUpdater = Argc > 2 ? std::atoi(Argv[2]) : 250;
  Config.Seed = 2014;

  DiagnosticEngine Diags;
  auto Rep = translateSpec(dictionarySpec(), Diags);
  if (!Rep) {
    std::cerr << Diags.toString();
    return 1;
  }

  // Record once, replay through both detectors for an apples-to-apples
  // comparison on the same execution.
  SimRuntime RT(Config.Seed);
  DynamicEndpointSnitch Snitch(RT, Config.Hosts);
  size_t Ops = buildSnitchTest(RT, Snitch, Config);
  TraceRecorder Recorder;
  RT.run(Recorder);

  CommutativityRaceDetector RD2;
  RD2.setDefaultProvider(Rep.get());
  RD2.processTrace(Recorder.trace());

  FastTrackDetector FT;
  FT.processTrace(Recorder.trace());

  std::cout << "DynamicEndpointSnitch test: " << Ops << " operations, "
            << Recorder.trace().size() << " events\n\n";
  std::cout << "RD2 (commutativity): " << RD2.races().size() << " races on "
            << RD2.distinctRacyObjects() << " object(s)\n";
  size_t SizeRaces = 0;
  for (const CommutativityRace &R : RD2.races())
    if (R.Current.method() == symbol("size") ||
        R.PointName.str().find("size") != std::string_view::npos)
      ++SizeRaces;
  std::cout << "  of which involve size() vs. resizing puts: " << SizeRaces
            << "  <- the section-7 samples/size race\n\n";

  std::cout << "FASTTRACK (read/write): " << FT.races().size()
            << " races on " << FT.distinctRacyVars()
            << " memory location(s)\n";
  for (size_t I = 0; I != FT.races().size() && I != 3; ++I)
    std::cout << "  " << FT.races()[I] << '\n';
  return 0;
}
