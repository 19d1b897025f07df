//===- workloads/Harness.cpp - Table 2 measurement harness --------------------===//
//
// Part of the CRD project (PLDI 2014 "Commutativity Race Detection" repro).
//
//===----------------------------------------------------------------------===//

#include "workloads/Harness.h"

#include "detect/CommutativityDetector.h"
#include "detect/FastTrack.h"
#include "spec/Builtins.h"
#include "translate/Translator.h"

#include <cassert>
#include <chrono>
#include <iomanip>
#include <map>
#include <ostream>

using namespace crd;

const char *crd::modeName(AnalysisMode M) {
  switch (M) {
  case AnalysisMode::Uninstrumented:
    return "Uninstrumented";
  case AnalysisMode::FastTrack:
    return "FASTTRACK";
  case AnalysisMode::RD2:
    return "RD2";
  }
  return "unknown";
}

namespace {

/// Translated Fig 6 dictionary representation shared by all maps.
const TranslatedRep &sharedDictionaryRep() {
  static std::unique_ptr<TranslatedRep> Rep = [] {
    DiagnosticEngine Diags;
    auto R = translateSpec(dictionarySpec(), Diags);
    assert(R && "builtin dictionary spec must translate");
    return R;
  }();
  return *Rep;
}

/// Runs \p RT under \p Mode and fills timing/race fields of \p Result.
void runWithMode(SimRuntime &RT, AnalysisMode Mode, RunResult &Result) {
  using Clock = std::chrono::steady_clock;

  switch (Mode) {
  case AnalysisMode::Uninstrumented: {
    NullSink Sink;
    auto Start = Clock::now();
    RT.run(Sink);
    Result.Seconds = std::chrono::duration<double>(Clock::now() - Start).count();
    break;
  }
  case AnalysisMode::FastTrack: {
    FastTrackDetector Detector;
    DetectorSink<FastTrackDetector> Sink(Detector);
    auto Start = Clock::now();
    RT.run(Sink);
    Result.Seconds = std::chrono::duration<double>(Clock::now() - Start).count();
    Result.RacesTotal = Detector.raceCount();
    Result.RacesDistinct = Detector.distinctRacyVars();
    break;
  }
  case AnalysisMode::RD2: {
    CommutativityRaceDetector Detector;
    Detector.setDefaultProvider(&sharedDictionaryRep());
    DetectorSink<CommutativityRaceDetector> Sink(Detector);
    auto Start = Clock::now();
    RT.run(Sink);
    Result.Seconds = std::chrono::duration<double>(Clock::now() - Start).count();
    Result.RacesTotal = Detector.raceCount();
    Result.RacesDistinct = Detector.distinctRacyObjects();
    break;
  }
  }
  Result.Qps = Result.Seconds > 0 ? Result.Queries / Result.Seconds : 0.0;
}

} // namespace

RunResult crd::runH2Circuit(Circuit C, AnalysisMode Mode,
                            const CircuitConfig &Config) {
  RunResult Result;
  Result.Benchmark = circuitName(C);
  Result.Mode = Mode;

  SimRuntime RT(Config.Seed);
  MVStore Store(RT);
  Result.Queries = buildCircuit(C, RT, Store, Config);
  runWithMode(RT, Mode, Result);
  return Result;
}

RunResult crd::runSnitchTest(AnalysisMode Mode, const SnitchConfig &Config) {
  RunResult Result;
  Result.Benchmark = "DynamicEndpointSnitch test";
  Result.Mode = Mode;

  SimRuntime RT(Config.Seed);
  DynamicEndpointSnitch Snitch(RT, Config.Hosts);
  Result.Queries = buildSnitchTest(RT, Snitch, Config);
  runWithMode(RT, Mode, Result);
  return Result;
}

void crd::printTable2(std::ostream &OS, const std::vector<RunResult> &Results) {
  // Group rows by benchmark, in order of first appearance.
  std::vector<std::string> Order;
  std::map<std::string, std::map<AnalysisMode, const RunResult *>> ByBench;
  for (const RunResult &R : Results) {
    if (!ByBench.count(R.Benchmark))
      Order.push_back(R.Benchmark);
    ByBench[R.Benchmark][R.Mode] = &R;
  }

  OS << std::left << std::setw(46) << "Benchmark" << std::right
     << std::setw(14) << "Uninstr qps" << std::setw(14) << "FASTTRACK qps"
     << std::setw(12) << "RD2 qps" << std::setw(18) << "FT races(dist)"
     << std::setw(18) << "RD2 races(dist)" << '\n';
  OS << std::string(122, '-') << '\n';

  for (const std::string &Bench : Order) {
    auto &Rows = ByBench[Bench];
    OS << std::left << std::setw(46) << Bench << std::right;
    auto PrintQps = [&](AnalysisMode M) {
      OS << std::setw(M == AnalysisMode::Uninstrumented  ? 14
                      : M == AnalysisMode::FastTrack     ? 14
                                                         : 12);
      auto It = Rows.find(M);
      if (It == Rows.end()) {
        OS << "-";
        return;
      }
      OS << std::fixed << std::setprecision(0) << It->second->Qps;
    };
    PrintQps(AnalysisMode::Uninstrumented);
    PrintQps(AnalysisMode::FastTrack);
    PrintQps(AnalysisMode::RD2);

    auto PrintRaces = [&](AnalysisMode M) {
      auto It = Rows.find(M);
      std::string Cell = "-";
      if (It != Rows.end())
        Cell = std::to_string(It->second->RacesTotal) + " (" +
               std::to_string(It->second->RacesDistinct) + ")";
      OS << std::setw(18) << Cell;
    };
    PrintRaces(AnalysisMode::FastTrack);
    PrintRaces(AnalysisMode::RD2);
    OS << '\n';
  }
}
