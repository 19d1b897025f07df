//===- bench/micro_detector.cpp - detector throughput microbenchmarks ---------===//
//
// Part of the CRD project (PLDI 2014 "Commutativity Race Detection" repro).
//
//===----------------------------------------------------------------------===//

#include "access/DictionaryRep.h"
#include "detect/CommutativityDetector.h"
#include "detect/FastTrack.h"
#include "spec/Builtins.h"
#include "trace/TraceBuilder.h"
#include "translate/Translator.h"

#include <benchmark/benchmark.h>

using namespace crd;

namespace {

Trace mixedActionTrace(size_t N, unsigned Keys) {
  TraceBuilder TB;
  TB.fork(0, 1).fork(0, 2).fork(0, 3);
  for (size_t I = 0; I != N; ++I) {
    uint32_t Tid = static_cast<uint32_t>(I % 4);
    int64_t Key = static_cast<int64_t>((I * 7) % Keys);
    switch (I % 3) {
    case 0:
      TB.invoke(Tid, 1, "put", {Value::integer(Key), Value::integer(1)},
                Value::nil());
      break;
    case 1:
      TB.invoke(Tid, 1, "get", {Value::integer(Key)}, Value::integer(1));
      break;
    case 2:
      TB.invoke(Tid, 1, "size", {}, Value::integer(5));
      break;
    }
  }
  return TB.take();
}

Trace memoryTrace(size_t N, unsigned Vars) {
  TraceBuilder TB;
  TB.fork(0, 1).fork(0, 2).fork(0, 3);
  for (size_t I = 0; I != N; ++I) {
    uint32_t Tid = static_cast<uint32_t>(I % 4);
    uint32_t Var = static_cast<uint32_t>((I * 13) % Vars);
    if (I % 4 == 0)
      TB.write(Tid, Var);
    else
      TB.read(Tid, Var);
  }
  return TB.take();
}

const TranslatedRep &translatedDict() {
  static std::unique_ptr<TranslatedRep> Rep = [] {
    DiagnosticEngine Diags;
    auto R = translateSpec(dictionarySpec(), Diags);
    if (!R)
      abort();
    return R;
  }();
  return *Rep;
}

void BM_Algorithm1TranslatedRep(benchmark::State &State) {
  Trace T = mixedActionTrace(static_cast<size_t>(State.range(0)), 64);
  for (auto _ : State) {
    CommutativityRaceDetector Detector;
    Detector.setDefaultProvider(&translatedDict());
    Detector.processTrace(T);
    benchmark::DoNotOptimize(Detector.races().size());
  }
  State.SetItemsProcessed(State.iterations() * State.range(0));
}

void BM_Algorithm1HandWrittenRep(benchmark::State &State) {
  static DictionaryRep Hand;
  Trace T = mixedActionTrace(static_cast<size_t>(State.range(0)), 64);
  for (auto _ : State) {
    CommutativityRaceDetector Detector;
    Detector.setDefaultProvider(&Hand);
    Detector.processTrace(T);
    benchmark::DoNotOptimize(Detector.races().size());
  }
  State.SetItemsProcessed(State.iterations() * State.range(0));
}

void BM_FastTrack(benchmark::State &State) {
  Trace T = memoryTrace(static_cast<size_t>(State.range(0)), 64);
  for (auto _ : State) {
    FastTrackDetector Detector;
    Detector.processTrace(T);
    benchmark::DoNotOptimize(Detector.races().size());
  }
  State.SetItemsProcessed(State.iterations() * State.range(0));
}

} // namespace

BENCHMARK(BM_Algorithm1TranslatedRep)->Arg(1024)->Arg(8192);
BENCHMARK(BM_Algorithm1HandWrittenRep)->Arg(1024)->Arg(8192);
BENCHMARK(BM_FastTrack)->Arg(1024)->Arg(8192);

BENCHMARK_MAIN();
